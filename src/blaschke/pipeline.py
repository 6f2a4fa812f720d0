"""End-to-end driver: search, refine, project, and the evaluation metrics.

The search runs on the signal's N samples: its default grid reaches radius
0.99, and 0.99^256 = 0.08, so a scan on fewer samples would alias.  The
refinement runs at a working resolution N' <= N, the fewest samples at
which f and the search tuple's Takenaka-Malmquist system are held to
round-off (`_working_samples`), and a second refinement call continues
from its tuple at the full N.  The model and its error always come from
the full N.
"""

import time
from dataclasses import dataclass

import numpy as np

from .cgd import CgdConfig, CgdReport, cgd_refine
from .hardy import (BlaschkeModel, PoleTuple, Signal, check_degree, norm_sq, project, spectrum,
                    tm_band)
from .search import RectGridConfig, SearchConfig, its_search, rect_cafd_search
# builtin_signal and builtin_truth are unused here; kept only because
# perfbench/workloads.py imports them from this module
from .targets import DEFAULT_SAMPLES, builtin_signal, builtin_truth  # noqa: F401

__all__ = [
    "RunConfig",
    "RecoveryResult",
    "cafd_cgd",
    "cafd_cgd_result",
    "rect_cafd",
    "tuple_distance",
    "l2_relative_error",
]


# the refinement may run on N' < N samples only when f's relative spectral
# tail beyond N' is at most this, just above the round-off plateau of the
# builtin targets' tails
WORKING_TOL = 1e-14


@dataclass(frozen=True)
class RunConfig:
    degree: int
    search: SearchConfig = SearchConfig()
    cgd: CgdConfig = CgdConfig()
    # read by nothing; kept only because perfbench/workloads.py passes them
    n_samples: int = DEFAULT_SAMPLES
    seed: int = 0

    def __post_init__(self):
        check_degree(self.degree)


@dataclass(frozen=True)
class RecoveryResult:
    model: BlaschkeModel
    l2_relative_error: float
    wall_time_seconds: float
    its_tuple: PoleTuple
    cgd_report: CgdReport | None  # None for rect_cafd, which runs no refinement
    tuple_distance: float = None
    # the sample count N' the refinement ran at (N when no smaller count
    # passed); None for rect_cafd
    working_samples: int | None = None


def tuple_distance(u, v):
    """min over permutations P of ||P u - v|| on C^n.

    Solved as a minimum-cost perfect matching on the squared-modulus cost
    matrix, which attains the same minimum as the factorial search, by
    shortest augmenting paths with dual potentials (Jonker and Volgenant,
    Computing 38, 1987) in O(n^3) operations.
    """
    if u.degree != v.degree:
        raise ValueError(f"tuple lengths differ: {u.degree} != {v.degree}")
    cost = np.abs(u.poles[:, None] - v.poles[None, :]) ** 2
    cols = _assignment(cost)
    return float(np.sqrt(cost[np.arange(u.degree), cols].sum()))


def _assignment(cost):
    """Column matched to each row by a minimum-cost perfect matching.

    Rows join one at a time; each is placed along the shortest augmenting
    path in reduced costs, whose potentials keep every edge cost nonnegative.
    Plain Python: at the few poles of a tuple a numpy loop costs more per
    step than it saves.
    """
    c = cost.tolist()
    n = len(c)
    inf = float("inf")
    # 1-based rows and columns; column 0 is the root of each path search
    row_pot = [0.0] * (n + 1)
    col_pot = [0.0] * (n + 1)
    row_of = [0] * (n + 1)
    for i in range(1, n + 1):
        row_of[0] = i
        dist = [inf] * (n + 1)
        prev = [0] * (n + 1)
        done = [False] * (n + 1)
        j0 = 0
        while row_of[j0]:
            done[j0] = True
            i0 = row_of[j0]
            row = c[i0 - 1]
            delta, j1 = inf, 0
            for j in range(1, n + 1):
                if not done[j]:
                    reduced = row[j - 1] - row_pot[i0] - col_pot[j]
                    if reduced < dist[j]:
                        dist[j], prev[j] = reduced, j0
                    if dist[j] < delta:
                        delta, j1 = dist[j], j
            for j in range(n + 1):
                if done[j]:
                    row_pot[row_of[j]] += delta
                    col_pot[j] -= delta
                else:
                    dist[j] -= delta
            j0 = j1
        # flip the path back to the root
        while j0:
            row_of[j0] = row_of[prev[j0]]
            j0 = prev[j0]
    cols = [0] * n
    for j in range(1, n + 1):
        cols[row_of[j] - 1] = j - 1
    return cols


def l2_relative_error(f, approx):
    """||f - approx|| / ||f|| in the discrete H^2 norm, as a fraction."""
    if f.n_samples != approx.n_samples:
        raise ValueError("sample counts differ")
    total = checked_norm_sq(f)
    return float(np.sqrt(norm_sq(Signal(f.samples - approx.samples)) / total))


def checked_norm_sq(f, truth=None, degree=None):
    """||f||^2 of a case; rejects a zero f, a degree below 1 or one unlike the truth's."""
    if degree is not None:
        check_degree(degree)
    if truth is not None and truth.degree != degree:
        raise ValueError(f"truth tuple has degree {truth.degree}, not {degree}")
    total = norm_sq(f)
    if total == 0.0:
        raise ValueError("signal has zero norm; there is nothing to approximate")
    return total


def _result(f, total, start_time, search_tuple, report, truth, working=None):
    """Project the last tuple, stop the clock and measure; rect_cafd has no report."""
    final = search_tuple if report is None else report.tuple
    model = project(f, final)
    wall = time.perf_counter() - start_time
    err = float(np.sqrt(model.residual_error / total))
    dist = None if truth is None else tuple_distance(final, truth)
    return RecoveryResult(model, err, wall, search_tuple, report, dist, working)


def _working_samples(f, tup):
    """The fewest samples N' on which to refine from `tup`; f.n_samples if none passes.

    N' is the smallest power of two below N, from the tuple's band limit
    `hardy.tm_band` on, at which f's relative spectral tail
    sqrt(sum_{k >= N'} |f_hat(k)|^2) / ||f|| is at most WORKING_TOL (where a
    Chebyshev series is chopped: Aurentz and Trefethen, ACM TOMS 43, 2017).
    Every sample j*N/N' of f is exact, and the tuple's TM system is held to
    round-off on N' samples, so at N' the refinement sees f and its own
    energy as at N, up to round-off.
    """
    n_samples = f.n_samples
    # tail[k] = sum_{j >= k} |f_hat(j)|^2, summed from the small end
    tail = np.cumsum(np.abs(spectrum(f).coeffs[::-1]) ** 2)[::-1]
    # both tests hold at every larger m once they hold at m
    m = tm_band(tup, n_samples)[0].size
    while m < n_samples and np.sqrt(tail[m] / tail[0]) > WORKING_TOL:
        m *= 2
    return m


def _refine(f, start, cfg):
    """cgd_refine on f[::N/N'] (f itself at N' = N), continued at the full N.

    Returns (report, N').  The second call starts from the first's tuple
    with what is left of `cfg.max_iters`; the report has that call's tuple,
    status and final |grad E|^2, the iterations of both, and the first call's
    energy trace with its last entry replaced by the second's trace.  Each
    call's trace is monotone; from the seam on, every entry is a full-N energy.
    The second call usually makes no step; it finishes a tuple that drifted
    past the working bounds.  At N' = N, after a converged or capped first
    call, it makes none, and after a stall it restarts at INITIAL_DAMPING.
    """
    n_work = _working_samples(f, start)
    work_f = f if n_work == f.n_samples else Signal(f.samples[::f.n_samples // n_work])
    work = cgd_refine(work_f, start, cfg)
    confirm = cgd_refine(f, work.tuple, CgdConfig(max_iters=cfg.max_iters - work.iterations))
    report = CgdReport(confirm.tuple, work.iterations + confirm.iterations,
                       confirm.final_gradient_norm_sq,
                       work.energy_trace[:-1] + confirm.energy_trace, confirm.status)
    return report, n_work


def cafd_cgd_result(f, cfg, truth=None):
    """Full pipeline with timing and metrics: search, refine, project.

    The search and the projection run at the signal's N samples, the
    refinement at the working resolution and then at N (`_refine`).  A
    line-search stall in the refinement (its damping cap) is not an error:
    the reported tuple (at worst the search tuple itself) is projected and
    returned.
    """
    total = checked_norm_sq(f, truth, cfg.degree)
    start_time = time.perf_counter()
    its_tuple = its_search(f, cfg.degree, cfg.search)
    report, n_work = _refine(f, its_tuple, cfg.cgd)
    return _result(f, total, start_time, its_tuple, report, truth, n_work)


def cafd_cgd(f, n):
    """Best n-Blaschke-form approximation of f by polar search plus refinement.

    The default run; a run with its own `RunConfig` is
    `cafd_cgd_result(f, cfg).model`.
    """
    return cafd_cgd_result(f, RunConfig(degree=n)).model


def rect_cafd(f, n, cfg=RectGridConfig(), truth=None):
    """Rectangular-grid baseline run with the same reporting as the pipeline."""
    total = checked_norm_sq(f, truth, n)
    start_time = time.perf_counter()
    tup = rect_cafd_search(f, n, cfg)
    return _result(f, total, start_time, tup, None, truth)
