"""End-to-end driver: search, refine, project, and the evaluation metrics.

Also houses the builtin target registry (the closed-form functions and the
fixed Blaschke forms used in the experiment suites) and the benchmark
harness that compares the fast pipeline against the rectangular baseline.
"""

import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .cgd import CgdConfig, CgdReport, cgd_refine
from .hardy import (
    BlaschkeModel,
    PoleTuple,
    Signal,
    circle_points,
    norm_sq,
    project,
    synthesize,
)
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

# default degree per builtin target
BUILTIN_DEGREES = {
    "ex5_1_f1": 6, "ex5_1_f2": 6, "ex5_1_f3": 6,
    "ex5_2_f1": 10, "ex5_2_f2": 10, "ex5_2_f3": 30,
    "ex5_3": 5, "ex5_4": 4, "ex5_5": 4, "ex5_6": 4,
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
        if self.degree < 1:
            raise ValueError("degree must be at least 1")


@dataclass(frozen=True)
class RecoveryResult:
    model: BlaschkeModel
    l2_relative_error: float
    wall_time_seconds: float
    its_tuple: PoleTuple
    cgd_report: CgdReport | None  # None for rect_cafd, which runs no refinement
    tuple_distance: float = None


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

    Solved as an optimal assignment on the squared-modulus cost matrix,
    which attains the same minimum as the factorial search.
    """
    if u.degree != v.degree:
        raise ValueError(f"tuple lengths differ: {u.degree} != {v.degree}")
    cost = np.abs(u.poles[:, None] - v.poles[None, :]) ** 2
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].sum()))


def l2_relative_error(f, approx):
    """||f - approx|| / ||f|| in the discrete H^2 norm, as a fraction."""
    if f.n_samples != approx.n_samples:
        raise ValueError("sample counts differ")
    denom = norm_sq(f)
    if denom == 0.0:
        raise ZeroDivisionError("relative error undefined for a zero signal")
    return float(np.sqrt(norm_sq(Signal(f.samples - approx.samples)) / denom))


def random_blaschke_form(n, seed, max_tries=10000):
    """Random pole tuple (|a| <= 0.9, pairwise gap >= 0.05) and coefficients.

    Coefficients have real and imaginary parts uniform in [-1, 1].
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    rng = np.random.default_rng(seed)
    poles = np.empty(n, dtype=complex)
    count = 0
    for _ in range(max_tries):
        w = rng.uniform(-0.9, 0.9) + 1j * rng.uniform(-0.9, 0.9)
        if abs(w) > 0.9:
            continue
        if count and np.min(np.abs(poles[:count] - w)) < 0.05:
            continue
        poles[count] = w
        count += 1
        if count == n:
            break
    else:
        raise RuntimeError(f"could not draw {n} separated poles in {max_tries} tries")
    coeffs = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    return PoleTuple(poles), coeffs


def _checked_norm_sq(f, truth, degree):
    """||f||^2, rejecting a zero f or a truth of another degree before any search."""
    if truth is not None and truth.degree != degree:
        raise ValueError(f"truth tuple has degree {truth.degree}, not {degree}")
    total = norm_sq(f)
    if total == 0.0:
        raise ValueError("signal has zero norm; there is nothing to approximate")
    return total


def cafd_cgd_result(f, cfg, truth=None):
    """Full pipeline with timing and metrics: search, refine, project.

    A line-search stall in the refinement stage is not an error: the
    reported tuple (at worst the search tuple itself) is projected and
    returned.
    """
    total = _checked_norm_sq(f, truth, cfg.degree)
    start_time = time.perf_counter()
    its_tuple = its_search(f, cfg.degree, cfg.search)
    report = cgd_refine(f, its_tuple, cfg.cgd)
    model = project(f, report.tuple)
    wall = time.perf_counter() - start_time
    err = float(np.sqrt(model.residual_error / total))
    dist = None if truth is None else tuple_distance(report.tuple, truth)
    return RecoveryResult(model, err, wall, its_tuple, report, dist)


def cafd_cgd(f, n, cfg=None):
    """Best n-Blaschke-form approximation of f by polar search plus refinement."""
    if cfg is None:
        cfg = RunConfig(degree=n)
    elif cfg.degree != n:
        raise ValueError("config degree does not match requested degree")
    return cafd_cgd_result(f, cfg).model


def rect_cafd(f, n, cfg=RectGridConfig(), truth=None):
    """Rectangular-grid baseline run with the same reporting as the pipeline."""
    total = _checked_norm_sq(f, truth, n)
    start_time = time.perf_counter()
    tup = rect_cafd_search(f, n, cfg)
    model = project(f, tup)
    wall = time.perf_counter() - start_time
    err = float(np.sqrt(model.residual_error / total))
    dist = None if truth is None else tuple_distance(tup, truth)
    return RecoveryResult(model, err, wall, tup, None, dist)


def run_benchmark(descriptor):
    """Run a benchmark descriptor and return result rows.

    The descriptor is a dict: `targets` is a list of {name, degree} picking
    builtin targets or {name: "random", degree, count} batches; `algorithms`
    selects "cafd_cgd" and/or "rect_cafd"; optional `n_samples`, `seed`,
    `angular` override the defaults.  Rows are dicts keyed by
    BENCHMARK_COLUMNS, with the refinement's `status` (a `CgdStatus` value) and
    `iterations`; `rect_cafd` runs no refinement, so its rows leave those
    two blank, as do the mean/max/std stat rows that batch runs append.
    """
    n_samples = descriptor.get("n_samples", DEFAULT_SAMPLES)
    seed = descriptor.get("seed", 0)
    algorithms = descriptor.get("algorithms", ["cafd_cgd"])
    rows = []
    for entry in descriptor.get("targets", []):
        name = entry["name"]
        if name == "random":
            rows.extend(
                _random_batch(entry, algorithms, n_samples, seed, descriptor)
            )
            continue
        degree = entry.get("degree", BUILTIN_DEGREES.get(name))
        if degree is None:
            raise KeyError(f"no degree given for target {name!r}")
        f = builtin_signal(name, n_samples)
        truth = builtin_truth(name)
        angular = descriptor.get("angular", 128 if truth is not None else 256)
        for algo in algorithms:
            res = _run_algorithm(algo, f, degree, angular, seed, truth)
            rows.append(_result_row(name, algo, degree, res))
    return rows


def _run_algorithm(algo, f, degree, angular, seed, truth):
    if algo == "cafd_cgd":
        cfg = RunConfig(
            degree=degree,
            search=SearchConfig(angular=angular, seed=seed),
        )
        return cafd_cgd_result(f, cfg, truth=truth)
    if algo == "rect_cafd":
        return rect_cafd(f, degree, RectGridConfig(seed=seed), truth=truth)
    raise KeyError(f"unknown algorithm {algo!r}")


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


def _random_batch(entry, algorithms, n_samples, seed, descriptor):
    degree = entry["degree"]
    count = entry.get("count", 20)
    angular = descriptor.get("angular", 128)
    rows = []
    for algo in algorithms:
        errs, dists, times = [], [], []
        for i in range(count):
            truth, coeffs = random_blaschke_form(degree, seed + i)
            f = synthesize(BlaschkeModel(truth, coeffs), n_samples)
            # a search seeded like its form would start at scaled true poles
            res = _run_algorithm(algo, f, degree, angular, seed + i + 2**32, truth)
            name = f"random_n{degree}_{i}"
            rows.append(_result_row(name, algo, degree, res))
            errs.append(res.l2_relative_error)
            dists.append(res.tuple_distance)
            times.append(res.wall_time_seconds)
        for stat, fn in (("mean", np.mean), ("max", np.max), ("std", np.std)):
            rows.append(_row(
                f"random_n{degree}", algo, degree,
                float(fn(errs)), float(fn(dists)), float(fn(times)),
                "", "", stat,
            ))
    return rows
