"""Benchmark suites: the named suites and how each case becomes a table row.

A suite is a descriptor dict (`run_benchmark`); `BUILTIN_SUITES` holds the
named ones.  Each case runs the driver in `pipeline`, under each algorithm
of `ALGORITHMS`, and gives one row keyed by `BENCHMARK_COLUMNS`.
"""

import numbers
from functools import partial

import numpy as np

from .hardy import BlaschkeModel, synthesize
from .pipeline import RunConfig, cafd_cgd_result, checked_norm_sq, rect_cafd
from .search import RectGridConfig, SearchConfig
from .targets import (BUILTIN_DEGREES, DEFAULT_SAMPLES, builtin_signal, builtin_truth,
                      random_blaschke_form)

__all__ = ["run_benchmark", "BUILTIN_SUITES"]


# the algorithms a benchmark descriptor may name
ALGORITHMS = ("cafd_cgd", "rect_cafd")

# the columns of a benchmark row, in the order of the CLI's CSV table
BENCHMARK_COLUMNS = ("target", "algorithm", "degree", "l2_rel_error", "tuple_distance",
                     "wall_time_s", "status", "iterations", "stat")

# the descriptors that `blaschke benchmark --suite` runs by name
BUILTIN_SUITES = {
    "ex5_1": {"targets": [{"name": f"ex5_1_f{i}"} for i in (1, 2, 3)],
              "algorithms": ["cafd_cgd"]},
    "ex5_3": {"targets": [{"name": "ex5_3"}], "algorithms": ["cafd_cgd"]},
    "recovery": {"targets": [{"name": n} for n in ("ex5_3", "ex5_4", "ex5_5", "ex5_6")],
                 "algorithms": ["cafd_cgd"]},
}


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
            checked_norm_sq(f, truth, degree)
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
