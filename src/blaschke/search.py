"""Cyclic coordinate search for an initial pole tuple.

Both searches run one cyclic coordinate-ascent driver, `_cyclic_search`,
which takes the start from its caller, sets the threshold and caps the
sweeps; each search builds its start and its grid scan.  A sweep visits
the positions n-1, n-2, ..., 0 of the tuple; at each it holds the other
poles fixed, scans a grid for the node maximizing |<f_n, e_z>| of the
remainder f_n of f reduced through those poles, and replaces the pole a
there when the energy gain |<f_n, e_z>|^2 - |<f_n, e_a>|^2 exceeds
eta = ETA_REL * ||f||^2 (so the search is invariant under f -> lambda f).
A node is a candidate only when no other pole sits on it; a scan with no
candidate makes no move.  A PoleTuple admits repeated poles, but the search
keeps this rule of its own, so it hands the refinement distinct poles.
Stacked poles get identical gradient entries and Jacobian rows; the
refinement splits them only through the round-off of its Gauss-Newton
solve, which the falling damping amplifies.  Every pole the search places
is a node of its own grid, and a start pole that is not a node equals
none, so exact equality is the test.

The polar search starts from a deterministic tuple and draws no random
number.  A Blaschke form of degree n is a rational function whose Taylor
coefficients are an exponential sum in the conjugated poles, so its
Hankel matrix has rank n (Kronecker's theorem), and a matrix pencil on the
first few dozen DFT coefficients finds the poles (Hua and Sarkar, IEEE
Trans. Acoust. Speech Signal Process. 38, 1990; the DFT's aliasing keeps
the nodes).  `_pencil_poles` gives the r <= n poles of the numerical rank
that lie inside the disk.  `_snap` moves each to its nearest grid node; a
pole whose node an earlier one holds keeps its pencil value.  `_place`
puts each of the n - r poles left at the best free node of the remainder
through the poles placed before it, one whole-grid scan each.  The sweeps
run from there.  The start is snapped, not passed on off the grid, so
the search still returns grid nodes and its answer stays bitwise
invariant under f -> lambda f; off-grid pencil poles would make that a
round-off invariance.  On a form in the model class the pencil alone is at
round-off; for f outside it, the pencil is no H^2 optimum, and the sweeps
and the refinement keep their role.  The rectangular baseline keeps the
paper's random start, drawn from `RectGridConfig.seed`.

The remainder does not depend on the order of the poles it is reduced
through (up to the O(max|a|^N) aliasing of the sampled kernel), so a sweep
shares its chain work by divide and conquer over the positions in scan
order: with g the remainder through every pole outside a block, the block's
first half is scanned from g reduced through the second half's poles, and
the second half from g reduced through the first half's poles, as the
first half's scans left them.  A sweep of n positions then costs T(n)
reduction steps, T(1) = 0 and T(k) = k + T(floor(k/2)) + T(ceil(k/2)), which
is O(n log n): 34 at n = 10 and 148 at n = 30, against n(n-1) for
rebuilding each remainder from f.  The search builds the poles' row sets at
the N sample points once (`reduction.pole_rows`) and rebuilds only the
moved pole's after an accepted move; each chain takes its block's slice of
them, so a reduction step is one dot product and one update, and a
coordinate step reads its pole's amplitude off its z w row (`pole_values`).

A position is settled once its scan accepts no move, and every accepted
move unsettles all positions, the moved one included.  A sweep skips the
settled positions, and a block whose positions are all settled runs no
chain: the first sweep costs T(n) steps and n scans, a later one scans
just the positions a move has unsettled.  The skip is exact: no
pole has moved since a settled position's last scan, so its remainder,
floor and scan would repeat that scan bit for bit (the same chains, in the
same order, through the same poles and rows) and again accept no move.
The moves, the tuple, the sweep count and SearchNonConvergence are those
of scanning every position in every sweep.

The polar search bounds each ring before it transforms it.  On the ring of
radius r, |<f_n, e_z>| <= UB = sqrt(1-r^2) * sum_k r^k |f_hat_n(k)|
(`ring_bounds`, one small real matrix product on the cached ring tables).
A step passes the current pole's amplitude v = |<f_n, e_a>| as the scan's
floor, and the scan evaluates with `feval_table` only the band of rings
from the first to the last whose bound, times 1 + BOUND_SLACK, reaches v;
the band always holds the ring of the largest bound, so each scan is one
table call.  This is exact: a node outside the band has a computed value
below v, so it can neither win a move (v_t^2 > v^2 + eta) nor tie with a
node that does, and the band's rows are the full table's rows bit for bit
(`feval_table` keeps its 16-ring block products aligned).  The tuple is the
one the whole-grid scan, floor 0, returns.  The rectangular baseline
evaluates every node directly and ignores the floor.  The sweeps, `_place`
and the scans pass raw remainder arrays, not `Signal`s.  The polar scan
takes one forward-normalized FFT (`hardy.spectrum`'s bits) and wraps it
once as the `Spectrum` that both `ring_bounds` and `feval_table` read.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .feval import PolarGrid, eval_interior, feval_table, ring_bounds
from .hardy import (
    PoleTuple,
    Signal,
    Spectrum,
    circle_points,
    check_degree,
    draw_separated,
    norm_sq,
    spectrum,
)
from .reduction import pole_rows, pole_values, reduce_chain

__all__ = [
    "SearchConfig",
    "RectGridConfig",
    "SearchNonConvergence",
    "its_search",
    "rect_cafd_search",
    "rect_grid_nodes",
]

# a ring's bound sums |terms| and its table entries sum signed terms, each
# with a relative round-off of order N * 1e-16; the slack covers both
BOUND_SLACK = 1e-9

# sweeps either search runs before it gives up with SearchNonConvergence
MAX_SWEEPS = 100

# a move must gain more than ETA_REL * ||f||^2 of energy
ETA_REL = 1e-12

# the pencil's numerical rank counts the Hankel singular values above this
# share of the largest
PENCIL_RANK_TOL = 1e-13


class SearchNonConvergence(RuntimeError):
    """Sweep cap reached; carries the best tuple found so far."""

    def __init__(self, message, best_tuple):
        super().__init__(message)
        self.best_tuple = best_tuple


@dataclass(frozen=True)
class SearchConfig:
    """Polar-grid search parameters: the grid shape.

    `grid` is the `PolarGrid` the search scans; building it checks the shape.
    """

    radial: int = 100
    angular: int = 256
    # read by nothing; kept only because perfbench/workloads.py passes it
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "grid", PolarGrid(self.radial, self.angular))


@dataclass(frozen=True)
class RectGridConfig:
    """Rectangular-grid baseline parameters: the lattice gap and the start's seed."""

    gap: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.gap < 1.0:
            raise ValueError("gap must lie in (0, 1)")


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


def _masked_argmax(mags, nodes, poles, c):
    """Best node by magnitude, skipping nodes equal to a pole other than poles[c].

    Only each winner is tested; a taken one is masked and skipped in a
    copy, made only when the first winner is taken.  None when none is free.
    """
    masked = mags
    for _ in range(poles.size):
        idx = masked.argmax()
        taken = poles == nodes[idx]
        taken[c] = False
        if not np.count_nonzero(taken):
            return masked[idx], nodes[idx]
        if masked is mags:
            masked = mags.copy()
        masked[idx] = -np.inf
    return None


def _coordinate_step(g, poles, rows, c, scan, eta):
    """Scan for pole c against the remainder g through the others; 1 if it moved.

    A move rebuilds the pole's row set in `rows`.
    """
    a = complex(poles[c])
    # |<f_n, e_a>| = sqrt(1-|a|^2) |f_n(a)|
    v = np.sqrt(1.0 - abs(a) ** 2) * abs(pole_values(g, poles[c:c + 1], rows[c:c + 1, 1])[0])
    # no node below v can win the move, so the scan may skip it
    mags, nodes = scan(g, v)
    best = _masked_argmax(mags, nodes, poles, c)
    # best[0] and v are amplitudes; eta is an energy gain
    if best is not None and best[0] ** 2 > v**2 + eta:
        poles[c] = best[1]
        rows[c] = pole_rows(circle_points(g.size), poles[c:c + 1])[0]
        return 1
    return 0


# module level, not a closure inside _cyclic_search: a closure that calls
# itself is a reference cycle, which keeps every search's remainders alive
# until the cyclic garbage collector runs
def _sweep(g, poles, rows, lo, hi, scan, eta, settled):
    """Scan the positions hi-1 down to lo not in the set `settled`, updating
    `poles`, `rows` and `settled` in place.

    g is f reduced through every pole outside [lo, hi).  The upper half is
    scanned first, from g reduced through the lower half's poles; then the
    lower half, from g reduced through the upper half's poles as updated.
    A half whose positions are all settled is skipped with its chain.  A
    scan with no move settles its position; a move unsettles every one.
    Returns the number of accepted moves.
    """
    if hi - lo == 1:
        moved = _coordinate_step(g, poles, rows, lo, scan, eta)
        if moved:
            settled.clear()
        else:
            settled.add(lo)
        return moved
    mid = (lo + hi) // 2
    accepted = 0
    if not settled.issuperset(range(mid, hi)):
        upper = reduce_chain(g, poles[lo:mid], rows[lo:mid])
        accepted += _sweep(upper, poles, rows, mid, hi, scan, eta, settled)
    if not settled.issuperset(range(lo, mid)):
        lower = reduce_chain(g, poles[mid:hi], rows[mid:hi])
        accepted += _sweep(lower, poles, rows, lo, mid, scan, eta, settled)
    return accepted


def _cyclic_search(f, poles, scan):
    """Shared cyclic coordinate-ascent driver from the caller's start `poles`.

    `scan(g, floor)` returns (flat magnitudes, flat nodes) of |<f_n, e_z>|,
    g the samples of f_n, over the grid or over a part of it that holds
    every node whose value reaches the floor (floor 0, the default, is the
    whole grid).  Each sweep is one `_sweep` over the positions not settled
    (see the module docstring): the first scans all n at T(n) reduction
    steps, a later one only the positions a move has unsettled since their
    last scan.  The search stops after the first sweep that accepts no
    move, or raises after MAX_SWEEPS sweeps.  `poles` is updated in place;
    the poles' row sets at the N points are built here.
    """
    eta = ETA_REL * norm_sq(f)
    rows = pole_rows(circle_points(f.n_samples), poles)
    settled = set()
    for _ in range(MAX_SWEEPS):
        if _sweep(f.samples, poles, rows, 0, poles.size, scan, eta, settled) == 0:
            return PoleTuple(poles)
    raise SearchNonConvergence(
        f"no coordinate maximum within {MAX_SWEEPS} sweeps", PoleTuple(poles)
    )


def _pencil_poles(f, n):
    """At most n poles inside the disk from a matrix pencil on f's spectrum.

    The first 3L DFT coefficients, L = max(2n, 8) capped so that 3L <= N,
    fill the 2L x (L+1) Hankel matrix H[i, j] = f_hat(i + j).  Its numerical
    rank r <= n counts the singular values above PENCIL_RANK_TOL times the
    largest.  The first r rows of V^H, transposed and not conjugated, span
    the powers of the nodes conj(a_j), so the least-squares shift between
    their rows has those nodes as eigenvalues; the poles are their
    conjugates, and those with |a| >= 1 are dropped.
    """
    coeffs = spectrum(f).coeffs
    size = min(max(2 * n, 8), coeffs.size // 3)
    hankel = coeffs[np.arange(2 * size)[:, None] + np.arange(size + 1)]
    _, sv, vh = np.linalg.svd(hankel, full_matrices=False)
    # at N = 2 the matrix is empty, and so is sv
    rank = min(n, int(np.count_nonzero(sv > PENCIL_RANK_TOL * sv.max(initial=0.0))))
    if rank == 0:
        return np.empty(0, dtype=complex)
    basis = vh[:rank].T
    shift = np.linalg.lstsq(basis[:-1], basis[1:], rcond=None)[0]
    poles = np.conj(np.linalg.eigvals(shift))
    return poles[np.abs(poles) < 1.0]


def _snap(poles, grid, nodes):
    """Each pole moved to its nearest node of the grid, as a list.

    Ring round(|a| / eps), clipped to 1 .. radial-1, and angle
    round(angular * arg(a) / 2 pi).  A pole whose node an earlier pole
    already holds keeps its own value, which no node equals.
    """
    rings = np.clip(np.rint(np.abs(poles) / grid.eps), 1, grid.radial - 1).astype(int)
    turns = np.rint(grid.angular * np.angle(poles) / (2.0 * np.pi)).astype(int)
    # column k-1 of a ring holds the angle 2 pi k / angular, k = 1 .. angular
    start = []
    for a, node in zip(poles, nodes[(rings - 1) * grid.angular + (turns - 1) % grid.angular]):
        start.append(a if node in start else node)
    return start


def _place(f, start, n, scan):
    """`start` extended to n poles, each new one at the best free node.

    Each new pole takes one whole-grid scan of the remainder of f through
    the poles placed before it, and a ValueError follows when no node is
    free of them.
    """
    poles = np.pad(np.asarray(start, dtype=complex), (0, n - len(start)))
    # g is f reduced through poles[:reduced]
    g, reduced = f.samples, 0
    for c in range(len(start), n):
        g, reduced = reduce_chain(g, poles[reduced:c]), c
        best = _masked_argmax(*scan(g), poles[:c + 1], c)
        if best is None:
            raise ValueError(f"no grid node is free for pole {c + 1} of {n}")
        poles[c] = best[1]
    return poles


def _ring_band(bounds, floor):
    """First and one past the last ring whose bound reaches the floor.

    When no bound reaches it, the band is the ring of the largest bound,
    which is otherwise inside; so the band is never empty.
    """
    rings = (bounds * (1.0 + BOUND_SLACK) >= floor).nonzero()[0]
    if rings.size == 0:
        rings = [bounds.argmax()]
    return int(rings[0]), int(rings[-1]) + 1


def _polar_scan(grid, nodes):
    """The polar grid's scan for `_cyclic_search`; `nodes` is `grid.nodes()` flattened.

    One transform of the remainder feeds the ring bounds and one table call
    on the band of rings that can reach the floor.
    """

    def scan(g, floor=0.0):
        spec = Spectrum(np.fft.fft(g, norm="forward"))
        lo, hi = _ring_band(ring_bounds(spec, grid), floor)
        table = feval_table(spec, grid.band(lo, hi))
        return np.abs(table).ravel(), nodes[lo * grid.angular:hi * grid.angular]

    return scan


@lru_cache(maxsize=8)
def _grid_nodes(grid):
    """`grid.nodes()` flattened, built once per grid and read-only."""
    nodes = grid.nodes().ravel()
    nodes.setflags(write=False)
    return nodes


def its_search(f, n, cfg=SearchConfig()):
    """Initial tuple selection over the polar grid using the fast table.

    The start is deterministic: the poles of `_pencil_poles`, snapped to the
    grid (`_snap`), then, for each pole the pencil left out, the best free
    node of the remainder (`_place`); the cyclic sweeps run from there.
    """
    check_degree(n)
    nodes = _grid_nodes(cfg.grid)
    scan = _polar_scan(cfg.grid, nodes)
    start = _place(f, _snap(_pencil_poles(f, n), cfg.grid, nodes), n, scan)
    return _cyclic_search(f, start, scan)


def rect_cafd_search(f, n, cfg=RectGridConfig()):
    """Rectangular-grid baseline with direct per-node evaluation."""
    nodes = rect_grid_nodes(cfg.gap)
    weight = np.sqrt(1.0 - np.abs(nodes) ** 2)

    def scan(g, floor=0.0):
        return weight * np.abs(eval_interior(Signal(g), nodes)), nodes

    # about one try in five falls outside the disk; 100 per pole leave ample room
    start = draw_separated(np.random.default_rng(cfg.seed), n, 1.0 - cfg.gap, 0.0, 100 * n)
    return _cyclic_search(f, start, scan)
