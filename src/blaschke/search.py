"""Cyclic coordinate search for an initial pole tuple.

Both searches run the same cyclic coordinate-ascent loop.  A sweep visits
the positions n-1, n-2, ..., 0 of the tuple; at each it holds the other
poles fixed, scans a grid for the node maximizing |<f_n, e_z>| of the
remainder f_n of f reduced through those poles, and replaces the pole a
there when the energy gain |<f_n, e_z>|^2 - |<f_n, e_a>|^2 exceeds
eta = eta_rel * ||f||^2 (so the search is invariant under f -> lambda f).
A node is a candidate only when the tuple it would make is `separated`,
the rule a PoleTuple enforces.

The remainder does not depend on the order of the poles it is reduced
through (up to the O(max|a|^N) aliasing of the sampled kernel), so a sweep
shares its chain work by divide and conquer over the positions in scan
order: with g the remainder through every pole outside a block, the block's
first half is scanned from g reduced through the second half's poles, and
the second half from g reduced through the first half's poles, as the
first half's scans left them.  A sweep of n positions then costs T(n)
reduction steps, T(1) = 0 and T(k) = k + T(floor(k/2)) + T(ceil(k/2)), which
is O(n log n): 34 at n = 10 and 148 at n = 30, against n(n-1) for
rebuilding each remainder from f.

The polar search scans the whole grid with `feval_table`: one small matrix
product against cached ring tables and one inverse FFT per radius ring;
the rectangular baseline evaluates every node directly.  Remainders are
reduced on raw sample arrays and wrapped in a `Signal` once per scan, for
the grid table.
"""

from dataclasses import dataclass

import numpy as np

from .feval import build_polar_grid, eval_interior, feval_table
from .hardy import PoleTuple, Signal, norm_sq, separated
from .reduction import reduce_chain, series_value

__all__ = [
    "SearchConfig",
    "RectGridConfig",
    "SearchNonConvergence",
    "its_search",
    "rect_cafd_search",
    "rect_grid_nodes",
]

class SearchNonConvergence(RuntimeError):
    """Sweep cap reached; carries the best tuple found so far."""

    def __init__(self, message, best_tuple):
        super().__init__(message)
        self.best_tuple = best_tuple


@dataclass(frozen=True)
class SearchConfig:
    """Polar-grid search parameters; a move must gain more than eta_rel * ||f||^2."""

    radial: int = 100
    angular: int = 256
    eta_rel: float = 1e-12
    max_sweeps: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.eta_rel <= 0.0:
            raise ValueError("eta_rel must be positive")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")


@dataclass(frozen=True)
class RectGridConfig:
    """Rectangular-grid baseline parameters; eta_rel as in SearchConfig."""

    gap: float = 0.01
    eta_rel: float = 1e-12
    max_sweeps: int = 100
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.gap < 1.0:
            raise ValueError("gap must lie in (0, 1)")
        if self.eta_rel <= 0.0:
            raise ValueError("eta_rel must be positive")
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
    """n points uniform in the disk of the given radius, pairwise `separated`."""
    poles = np.empty(n, dtype=complex)
    count = 0
    while count < n:
        w = rng.uniform(-radius, radius) + 1j * rng.uniform(-radius, radius)
        if abs(w) >= radius:
            continue
        if not separated(np.append(poles[:count], w)):
            continue
        poles[count] = w
        count += 1
    return poles


def _partial_energy_amp(f_n, a):
    """|<f_n, e_a>| = sqrt(1-|a|^2) |f_n(a)| for the current remainder."""
    return np.sqrt(1.0 - abs(a) ** 2) * abs(series_value(f_n.samples, a))


def _masked_argmax(mags, nodes, fixed):
    """Best node by magnitude, skipping nodes not `separated` from the fixed poles.

    Only each winner is tested; a coinciding one is masked and skipped in a
    copy, made only when the first winner coincides.
    """
    masked = mags
    for _ in range(fixed.size + 1):
        idx = int(np.argmax(masked))
        if separated(np.append(fixed, nodes[idx])):
            break
        if masked is mags:
            masked = mags.copy()
        masked[idx] = -np.inf
    return masked[idx], nodes[idx]


def _coordinate_step(g, poles, c, scan, eta):
    """Scan for pole c against the remainder g through the others; 1 if it moved."""
    f_n = Signal(g)
    v = _partial_energy_amp(f_n, poles[c])
    mags, nodes = scan(f_n)
    v_t, a_t = _masked_argmax(mags, nodes, np.delete(poles, c))
    # v and v_t are amplitudes; eta is an energy gain
    if v_t**2 > v**2 + eta:
        poles[c] = a_t
        return 1
    return 0


# module level, not a closure inside _cyclic_search: a closure that calls
# itself is a reference cycle, which keeps every search's remainders alive
# until the cyclic garbage collector runs
def _sweep(g, poles, lo, hi, scan, eta):
    """Scan positions hi-1 down to lo, updating `poles` in place.

    g is f reduced through every pole outside [lo, hi).  The upper half is
    scanned first, from g reduced through the lower half's poles; then the
    lower half, from g reduced through the upper half's poles as updated.
    Returns the number of accepted moves.
    """
    if hi - lo == 1:
        return _coordinate_step(g, poles, lo, scan, eta)
    mid = (lo + hi) // 2
    accepted = _sweep(reduce_chain(g, poles[lo:mid]).rest, poles, mid, hi, scan, eta)
    rest = reduce_chain(g, poles[mid:hi]).rest
    return accepted + _sweep(rest, poles, lo, mid, scan, eta)


def _cyclic_search(f, n, scan, eta, max_sweeps, rng, start_radius):
    """Shared cyclic coordinate-ascent driver.

    `scan(f_n)` returns (flat magnitudes, flat nodes) of |<f_n, e_z>| over
    the grid.  Each sweep is one `_sweep` over all n positions, T(n)
    reduction steps and n scans; the search stops after the first sweep
    that accepts no move.
    """
    poles = _random_start(rng, n, start_radius)
    for _ in range(max_sweeps):
        if _sweep(f.samples, poles, 0, n, scan, eta) == 0:
            return PoleTuple(poles)
    raise SearchNonConvergence(
        f"no coordinate maximum within {max_sweeps} sweeps", PoleTuple(poles)
    )


def its_search(f, n, cfg=SearchConfig()):
    """Initial tuple selection over the polar grid using the fast table."""
    if n < 1:
        raise ValueError("approximation degree must be at least 1")
    grid = build_polar_grid(cfg.radial, cfg.angular)
    nodes = grid.nodes().ravel()
    rng = np.random.default_rng(cfg.seed)

    def scan(f_n):
        return np.abs(feval_table(f_n, grid)).ravel(), nodes

    return _cyclic_search(
        f, n, scan, cfg.eta_rel * norm_sq(f), cfg.max_sweeps, rng, 1.0 - grid.eps
    )


def rect_cafd_search(f, n, cfg=RectGridConfig()):
    """Rectangular-grid baseline with direct per-node evaluation."""
    if n < 1:
        raise ValueError("approximation degree must be at least 1")
    nodes = rect_grid_nodes(cfg.gap)
    weight = np.sqrt(1.0 - np.abs(nodes) ** 2)
    rng = np.random.default_rng(cfg.seed)

    def scan(f_n):
        return weight * np.abs(eval_interior(f_n, nodes)), nodes

    return _cyclic_search(
        f, n, scan, cfg.eta_rel * norm_sq(f), cfg.max_sweeps, rng, 1.0 - cfg.gap
    )
