"""End-to-end driver: search, refine, project, and the evaluation metrics.

The search runs on the signal's N samples: its default grid reaches radius
0.99, and 0.99^256 = 0.08, so a scan on fewer samples would alias.  The
refinement runs at a working resolution N' <= N, the fewest samples at
which f and the search tuple's Takenaka-Malmquist system are held to
round-off (`_working_samples`), and a second refinement call continues
from its tuple at the full N.  The model and its error always come from
the full N.

Also houses the builtin target registry (the closed-form functions and the
fixed Blaschke forms) and the benchmark harness, one row per case and
algorithm; the pipeline and the rectangular baseline share one result assembly.
"""

import numbers
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cgd import CgdConfig, CgdReport, cgd_refine
from .hardy import (
    BlaschkeModel,
    PoleTuple,
    Signal,
    check_degree,
    circle_points,
    draw_separated,
    norm_sq,
    project,
    spectrum,
    synthesize,
    tm_band,
)
from .reduction import Objective
from .search import RectGridConfig, SearchConfig, its_search, rect_cafd_search

__all__ = [
    "RunConfig",
    "RecoveryResult",
    "cafd_cgd",
    "cafd_cgd_result",
    "rect_cafd",
    "tuple_distance",
    "l2_relative_error",
    "random_blaschke_form",
    "run_benchmark",
    "builtin_signal",
    "builtin_truth",
    "BUILTIN_FUNCTIONS",
    "BUILTIN_FORMS",
]


# circle samples of a builtin target unless the caller asks for another count
DEFAULT_SAMPLES = 1024

# the refinement may run on N' < N samples only when f's relative spectral
# tail beyond N' is at most this, just above the round-off plateau of the
# builtin targets' tails
WORKING_TOL = 1e-14

# the algorithms a benchmark descriptor may name
ALGORITHMS = ("cafd_cgd", "rect_cafd")

# the columns of a benchmark row, in the order of the CLI's CSV table
BENCHMARK_COLUMNS = ("target", "algorithm", "degree", "l2_rel_error", "tuple_distance",
                     "wall_time_s", "status", "iterations", "stat")

# closed-form targets of the approximation suites, evaluated at tau on the circle
BUILTIN_FUNCTIONS = {
    "ex5_1_f1": lambda t: 1.0 / (2.0 + t**4),
    "ex5_1_f2": lambda t: np.exp(t**2),
    "ex5_1_f3": lambda t: np.log(2.0 + t**2),
    "ex5_2_f1": lambda t: 1.0 + t**2 + t**4 + 1.0 / (3.0 + t**2),
    "ex5_2_f2": lambda t: np.cos(t**2),
    "ex5_2_f3": lambda t: np.cos(6.0 * t**2) / (2.0 + t**2),
}

# fixed (poles, coefficients) pairs of the recovery suites
BUILTIN_FORMS = {
    "ex5_3": (
        [-0.475 + 0.305j, -0.180 + 0.715j, 0.260 - 0.730j,
         0.540 + 0.360j, -0.485 - 0.215j],
        [-0.5861 - 0.04445j, 0.2428 - 0.6878j, 0.4423 - 0.3309j,
         -0.2703 - 0.8217j, -0.8085 + 0.3774j],
    ),
    "ex5_4": (
        [-0.4900 - 0.8000j, 0.3100 + 0.1400j, -0.9400 - 0.2900j,
         0.2300 - 0.6900j],
        [1.0470 + 0.55587j, -0.2269 - 1.1203j, -0.1625 - 1.5327j,
         0.6901 - 1.0979j],
    ),
    "ex5_5": (
        [0.6800 + 0.5200j, 0.3900 + 0.8100j, -0.1300 - 0.8700j,
         0.5500 - 0.1000j],
        [0.1440 + 0.5197j, -1.6387 - 0.0142j, -0.7601 - 1.1555j,
         -0.8188 - 0.0095j],
    ),
    "ex5_6": (
        [-0.1800 + 0.7700j, -0.0200 - 0.1800j, 0.1000 + 0.2400j,
         0.1800 - 0.5300j],
        [0.1097 + 0.4754j, 1.1287 + 1.1741j, -0.2900 + 0.1269j,
         1.2616 - 0.6568j],
    ),
}

# default degree per builtin target; a form's is the size of its tuple
BUILTIN_DEGREES = {
    "ex5_1_f1": 6, "ex5_1_f2": 6, "ex5_1_f3": 6,
    "ex5_2_f1": 10, "ex5_2_f2": 10, "ex5_2_f3": 30,
    **{name: len(poles) for name, (poles, _) in BUILTIN_FORMS.items()},
}


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


def builtin_signal(name, n_samples=DEFAULT_SAMPLES):
    """Sample a builtin target at n equidistant circle points."""
    tau = circle_points(n_samples)
    if name in BUILTIN_FUNCTIONS:
        return Signal(BUILTIN_FUNCTIONS[name](tau))
    if name in BUILTIN_FORMS:
        poles, coeffs = BUILTIN_FORMS[name]
        return synthesize(BlaschkeModel(PoleTuple(poles), coeffs), n_samples)
    raise KeyError(f"unknown builtin target {name!r}")


def builtin_truth(name):
    """Ground-truth pole tuple of a builtin Blaschke form, else None."""
    if name in BUILTIN_FORMS:
        return PoleTuple(BUILTIN_FORMS[name][0])
    return None


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
    total = _checked_norm_sq(f)
    return float(np.sqrt(norm_sq(Signal(f.samples - approx.samples)) / total))


def random_blaschke_form(n, seed):
    """Random pole tuple (|a| < 0.9, pairwise gap >= 0.05) and coefficients.

    Coefficients have real and imaginary parts uniform in [-1, 1].
    """
    rng = np.random.default_rng(seed)
    poles = draw_separated(rng, n, 0.9, 0.05, 10000)
    coeffs = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    return PoleTuple(poles), coeffs


def _checked_norm_sq(f, truth=None, degree=None):
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
    """cgd_refine on f[::N/N'], continued at the full N.

    Returns (report, N').  The second call starts from the first's tuple
    with what is left of `cfg.max_iters`; the report has that call's tuple,
    status and final |grad E|^2, the iterations of both, and the first call's
    energy trace with its last entry replaced by the second's trace.  Each
    call's trace is monotone; from the seam on, every entry is a full-N energy.
    The second call usually makes no step; it finishes a tuple that drifted
    past the working bounds.  At N' = N, after a converged or capped first
    call, it makes none, and after a stall it restarts at INITIAL_DAMPING.
    The second call's `Objective` holds f at N; at N' = N the first call
    runs on it too, so the second starts from the entry the first left at
    its tuple (unless a stall's rejected trial replaced it) and builds no
    second f z or 2N-point row set.
    """
    n_work = _working_samples(f, start)
    full = Objective(f)
    work_f = full if n_work == f.n_samples else Signal(f.samples[::f.n_samples // n_work])
    work = cgd_refine(work_f, start, cfg)
    confirm = cgd_refine(full, work.tuple, CgdConfig(max_iters=cfg.max_iters - work.iterations))
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
    total = _checked_norm_sq(f, truth, cfg.degree)
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
    total = _checked_norm_sq(f, truth, n)
    start_time = time.perf_counter()
    tup = rect_cafd_search(f, n, cfg)
    return _result(f, total, start_time, tup, None, truth)


def run_benchmark(descriptor):
    """Run a benchmark descriptor and return result rows.

    The descriptor is a dict: `targets` is a list of {name, degree} picking
    builtin targets or {name: "random", degree, count} batches (count >= 1,
    default 20); `algorithms` selects "cafd_cgd" and/or "rect_cafd";
    optional `n_samples`, `seed`, `angular` override the defaults.  Rows
    are dicts keyed by BENCHMARK_COLUMNS, with the refinement's `status` (a
    `CgdStatus` value) and `iterations`; `rect_cafd` runs no refinement, so
    its rows leave those two blank, as do the mean/max/std stat rows that
    follow a batch's rows.  Every case is built before any runs, so each
    bad input raises a `ValueError` or `KeyError` first: the descriptor's
    JSON shape and any field not named here, then the target, degree,
    sample count, grid shape, fold (N a multiple of angular) and random
    draw where each rule is kept.
    """
    rows = []
    for stat_target, algo, degree, runs in _plan(descriptor):
        results = [run() for _, run in runs]
        rows += [_result_row(t, algo, degree, res) for (t, _), res in zip(runs, results)]
        if stat_target:
            rows.extend(_stat_rows(stat_target, algo, degree, results))
    return rows


def _check_descriptor(descriptor):
    """Reject a descriptor whose JSON shape is wrong or with an unknown field, naming it."""
    if not isinstance(descriptor, dict):
        raise ValueError("the descriptor must be a JSON object")
    targets = descriptor.get("targets", [])
    if not (isinstance(targets, list) and all(isinstance(t, dict) for t in targets)):
        raise ValueError("descriptor field 'targets' must be a list of objects")
    # a misspelled field would otherwise run its default unseen
    for fields, known in (
            (descriptor, ("targets", "algorithms", "n_samples", "seed", "angular")),
            *((t, ("name", "degree", "count")) for t in targets)):
        for key in fields:
            if key not in known:
                raise ValueError(f"descriptor field {key!r} is not one of {', '.join(known)}")
    if not all(isinstance(t.get("name"), str) for t in targets):
        raise ValueError("descriptor field 'name' of each target must be a string")
    algorithms = descriptor.get("algorithms", [])
    if not (isinstance(algorithms, list) and all(isinstance(a, str) for a in algorithms)):
        raise ValueError("descriptor field 'algorithms' must be a list of strings")
    for fields, keys in ((descriptor, ("n_samples", "seed", "angular")),
                         *((t, ("degree", "count")) for t in targets)):
        for key in keys:
            # JSON true is a Python bool, which is an Integral but no count
            value = fields.get(key, 0)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"descriptor field {key!r} must be an integer")
    # a batch of no forms has no mean or max to report
    if any(t.get("count", 1) < 1 for t in targets):
        raise ValueError("descriptor field 'count' must be at least 1")
    if descriptor.get("seed", 0) < 0:
        raise ValueError("descriptor field 'seed' must be nonnegative")
    if any(t["name"] == "random" and "degree" not in t for t in targets):
        raise KeyError("no degree given for target 'random'")
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise KeyError(f"unknown algorithm {algo!r}")


def _plan(descriptor):
    """Every case, built and checked: per entry and algorithm, in row order,
    (stat-row target or False, algorithm, degree, [(row target, run)])."""
    _check_descriptor(descriptor)
    n_samples = descriptor.get("n_samples", DEFAULT_SAMPLES)
    seed = descriptor.get("seed", 0)
    plan = []
    for entry in descriptor.get("targets", []):
        name = entry["name"]
        degree = entry.get("degree", BUILTIN_DEGREES.get(name))
        if name == "random":
            # drawn once, then run under every algorithm; the 2**32 offset keeps
            # rect_cafd's seeded start off scaled true poles (the polar one reads none)
            forms = [random_blaschke_form(degree, seed + i)
                     for i in range(entry.get("count", 20))]
            cases = [(f"random_n{degree}_{i}", synthesize(BlaschkeModel(*form), n_samples),
                      form[0], seed + i + 2**32) for i, form in enumerate(forms)]
        else:
            cases = [(name, builtin_signal(name, n_samples), builtin_truth(name), seed)]
        for _, f, truth, _ in cases:
            _checked_norm_sq(f, truth, degree)
        for algo in descriptor.get("algorithms", ["cafd_cgd"]):
            runs = []
            for target, f, truth, rect_seed in cases:
                if algo == "cafd_cgd":
                    angular = descriptor.get("angular", 128 if truth is not None else 256)
                    cfg = RunConfig(degree, SearchConfig(angular=angular))
                    cfg.search.grid.check_samples(f.n_samples)
                    run = partial(cafd_cgd_result, f, cfg, truth=truth)
                else:
                    run = partial(rect_cafd, f, degree, RectGridConfig(seed=rect_seed),
                                  truth=truth)
                runs.append((target, run))
            plan.append((name == "random" and f"random_n{degree}", algo, degree, runs))
    return plan


def _row(*values):
    return dict(zip(BENCHMARK_COLUMNS, values, strict=True))


def _result_row(target, algo, degree, res):
    report = res.cgd_report
    return _row(
        target, algo, degree,
        res.l2_relative_error, res.tuple_distance, res.wall_time_seconds,
        "" if report is None else report.status.value,
        "" if report is None else report.iterations,
        "",
    )


def _stat_rows(target, algo, degree, results):
    """mean, max and std of a batch's errors, distances and times."""
    columns = ([r.l2_relative_error for r in results],
               [r.tuple_distance for r in results],
               [r.wall_time_seconds for r in results])
    return [_row(target, algo, degree, *(float(fn(c)) for c in columns), "", "", stat)
            for stat, fn in (("mean", np.mean), ("max", np.max), ("std", np.std))]
