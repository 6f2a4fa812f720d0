"""Cyclic coordinate search for an initial pole tuple.

Both searches run the same cyclic coordinate-ascent loop: holding all but
the last pole fixed, scan a grid for the node maximizing |<f_n, e_z>| of
the reduced remainder, replace the last pole a when the energy gain
|<f_n, e_z>|^2 - |<f_n, e_a>|^2 exceeds eta (an energy, like its default
1e-12 * ||f||^2, so the search is invariant under f -> lambda f), then
1-shift the tuple and rebuild the remainder.  The polar search scans the
whole grid with `feval_table`: one small matrix product against cached
ring tables and one inverse FFT per radius ring; the rectangular baseline
evaluates every node directly.  The remainder is reduced on raw sample
arrays and wrapped in a `Signal` once per scan, for the grid table.
"""

from dataclasses import dataclass

import numpy as np

from .feval import build_polar_grid, feval_table
from .hardy import PoleTuple, Signal, norm_sq, spectrum
from .reduction import reduce_chain, series_value

__all__ = [
    "SearchConfig",
    "RectGridConfig",
    "SearchNonConvergence",
    "its_search",
    "rect_cafd_search",
    "rect_grid_nodes",
]

# grid candidates closer than this to a fixed pole are skipped to keep
# the tuple pairwise distinct
COINCIDENCE_TOL = 1e-12


class SearchNonConvergence(RuntimeError):
    """Sweep cap reached; carries the best tuple found so far."""

    def __init__(self, message, best_tuple):
        super().__init__(message)
        self.best_tuple = best_tuple


@dataclass(frozen=True)
class SearchConfig:
    """Polar-grid search parameters; eta=None means 1e-12 * ||f||^2."""

    radial: int = 100
    angular: int = 256
    eta: float = None
    max_sweeps: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.eta is not None and self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")


@dataclass(frozen=True)
class RectGridConfig:
    """Rectangular-grid baseline parameters."""

    gap: float = 0.01
    eta: float = None
    max_sweeps: int = 100
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.gap < 1.0:
            raise ValueError("gap must lie in (0, 1)")
        if self.eta is not None and self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")


def rect_grid_nodes(gap):
    """Lattice nodes (j*gap, k*gap) with 0 < |z| < 1 - gap.

    The inclusion rule is calibrated so gap 0.01 yields 30752 nodes.
    Coordinates are rounded to 12 decimals so that lattice poles such as
    0.68 + 0.52i compare bitwise equal to their decimal literals.
    """
    half = int(np.ceil(1.0 / gap))
    j = np.arange(-half, half + 1)
    x, y = np.meshgrid(j * gap, j * gap)
    z = np.round(x, 12) + 1j * np.round(y, 12)
    r = np.abs(z)
    return z[(r > 0.0) & (r < 1.0 - gap)]


def _random_start(rng, n, radius):
    """n points uniform in the disk of the given radius, pairwise distinct."""
    poles = np.empty(n, dtype=complex)
    count = 0
    while count < n:
        w = rng.uniform(-radius, radius) + 1j * rng.uniform(-radius, radius)
        if abs(w) >= radius:
            continue
        if count and np.min(np.abs(poles[:count] - w)) < 10 * COINCIDENCE_TOL:
            continue
        poles[count] = w
        count += 1
    return poles


def _partial_energy_amp(f_n, a):
    """|<f_n, e_a>| = sqrt(1-|a|^2) |f_n(a)| for the current remainder."""
    return np.sqrt(1.0 - abs(a) ** 2) * abs(series_value(f_n.samples, a))


def _remainder(f, poles):
    """Remainder after reducing through all but the last pole."""
    if poles.size <= 1:
        return f
    return Signal(reduce_chain(f.samples, poles[:-1]).rest)


def _masked_argmax(mags, nodes, fixed):
    """Best node by magnitude, skipping nodes that coincide with fixed poles.

    Only each winner is tested; a coinciding one is masked and skipped in a
    copy, made only when the first winner coincides.
    """
    masked = mags
    for _ in range(fixed.size + 1):
        idx = int(np.argmax(masked))
        if np.all(np.abs(fixed - nodes[idx]) >= COINCIDENCE_TOL):
            break
        if masked is mags:
            masked = mags.copy()
        masked[idx] = -np.inf
    return masked[idx], nodes[idx]


def _cyclic_search(f, n, scan, eta, max_sweeps, rng, start_radius):
    """Shared cyclic coordinate-ascent driver.

    `scan(f_n)` returns (flat magnitudes, flat nodes) of |<f_n, e_z>| over
    the grid.  Replacement of the last pole, the 1-shift permutation, and
    the remainder/partial-energy refresh follow the cyclic scheme exactly.
    """
    poles = _random_start(rng, n, start_radius)
    for _ in range(max_sweeps):
        accepted = 0
        for _ in range(n):
            f_n = _remainder(f, poles)
            v = _partial_energy_amp(f_n, poles[-1])
            mags, nodes = scan(f_n)
            v_t, a_t = _masked_argmax(mags, nodes, poles[:-1])
            # v and v_t are amplitudes; eta is an energy gain
            if v_t**2 > v**2 + eta:
                poles[-1] = a_t
                accepted += 1
            poles = np.roll(poles, 1)
        if accepted == 0:
            return PoleTuple(poles)
    raise SearchNonConvergence(
        f"no coordinate maximum within {max_sweeps} sweeps", PoleTuple(poles)
    )


def _resolve_eta(f, eta):
    return 1e-12 * norm_sq(f) if eta is None else eta


def its_search(f, n, cfg=SearchConfig()):
    """Initial tuple selection over the polar grid using the fast table."""
    if n < 1:
        raise ValueError("approximation degree must be at least 1")
    grid = build_polar_grid(cfg.radial, cfg.angular)
    nodes = grid.nodes().ravel()
    rng = np.random.default_rng(cfg.seed)

    def scan(f_n):
        table = feval_table(f_n, grid)
        return np.abs(table.values).ravel(), nodes

    return _cyclic_search(
        f, n, scan, _resolve_eta(f, cfg.eta), cfg.max_sweeps, rng, 1.0 - grid.eps
    )


def rect_cafd_search(f, n, cfg=RectGridConfig()):
    """Rectangular-grid baseline with direct per-node evaluation."""
    if n < 1:
        raise ValueError("approximation degree must be at least 1")
    nodes = rect_grid_nodes(cfg.gap)
    weight = np.sqrt(1.0 - np.abs(nodes) ** 2)
    rng = np.random.default_rng(cfg.seed)

    def scan(f_n):
        vals = np.polynomial.polynomial.polyval(nodes, spectrum(f_n).coeffs)
        return weight * np.abs(vals), nodes

    return _cyclic_search(
        f, n, scan, _resolve_eta(f, cfg.eta), cfg.max_sweeps, rng, 1.0 - cfg.gap
    )
