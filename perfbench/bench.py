"""Closed-loop measurement of one workload and the metrics derived from it.

One caller runs the workload's items in order, one at a time, cycling
through the item set until `seconds` have passed and every item has run at
least once.  Times are summed per pass of the item set from each item's
median, so a pass counts every item once however many repeats fit in the
run.  Counts and accuracy come from each item's first execution; items are
deterministic, so repeats do not change them.
"""

import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

from tracing import ITEM_SPAN, Tracer, summarize
from workloads import accuracy_metrics

# (name, unit) of every end-to-end metric, in print order
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

ACCURACY_UNITS = {
    "error_frac": "frac",
    "l2_err.max": "rel",
    "residual_gap.max": "rel",
    "tuple_dist.max": "dist",
    "recovered_frac": "frac",
    "converged_frac": "frac",
}

PER_LAYER = (
    ("pipeline.search_s", "s"),
    ("pipeline.refine_s", "s"),
    ("pipeline.project_s", "s"),
    ("pipeline.search_share", "frac"),
    ("pipeline.refine_share", "frac"),
    ("pipeline.project_share", "frac"),
    ("cgd.self_s", "s"),
    ("cgd.iterations", "count"),
    ("cgd.line_search_evals", "count"),
    ("cgd.accept_ratio", "frac"),
    ("cgd.final_grad_norm_sq.max", "norm_sq"),
    ("reduction.gradient_calls", "count"),
    ("reduction.gradient_ms", "ms"),
    ("reduction.error_energy_ms", "ms"),
    ("reduction.steps", "count"),
    ("reduction.step_us", "us"),
    ("reduction.chain_s", "s"),
    ("feval.table_calls", "count"),
    ("feval.table_us", "us"),
    ("feval.computed_mb_per_call", "MB"),
    ("search.self_s", "s"),
    ("search.scans", "count"),
    ("hardy.project_ms", "ms"),
    ("hardy.synthesize_ms", "ms"),
    ("trace.overhead_frac", "frac"),
)

# counts that must repeat exactly across runs with the same seed
EXACT_COUNTS = (
    "cgd.iterations",
    "cgd.line_search_evals",
    "reduction.steps",
    "feval.table_calls",
)


@dataclass
class Execution:
    """One timed run of one item: its perf_counter interval (None if it
    raised), the problems its checks found, its accuracy record and, if
    traced, its layer sums."""

    item_id: str
    interval: tuple
    problems: list
    accuracy: dict = None
    layers: dict = None


def _timed(item):
    start = time.perf_counter()
    raw = item.run()
    return raw, (start, time.perf_counter())


def _execute(item, tracer=None):
    first_span = len(tracer.spans) if tracer else 0
    try:
        if tracer is None:
            raw, interval = _timed(item)
        else:
            with tracer.item(item.id):
                raw, interval = _timed(item)
        problems, accuracy = item.assess(raw)
    except Exception:  # a raising item is a failed item, not a crash
        return Execution(item.id, None, [traceback.format_exc(limit=3)])
    layers = summarize(tracer.spans[first_span:], tracer.notes) if tracer else None
    return Execution(item.id, interval, problems, accuracy, layers)


def measure(workload, seconds, trace):
    """Run the closed loop; with `trace`, each item runs plain, then traced."""
    tracer = Tracer() if trace else None
    plain, traced = [], []
    start = time.perf_counter()
    k = 0
    while k < len(workload.items) or time.perf_counter() - start < seconds:
        item = workload.items[k % len(workload.items)]
        plain.append(_execute(item))
        if trace:
            traced.append(_execute(item, tracer))
        k += 1
    return plain, traced, tracer


def _per_item(executions):
    by_item = defaultdict(list)
    for ex in executions:
        if ex.interval is not None:
            by_item[ex.item_id].append(ex)
    return by_item


def _raw_seconds(start, end):
    return end - start


def pass_seconds(executions, clock=_raw_seconds):
    """Seconds for one pass of the item set: the sum of per-item medians of
    clock(start, end) over each item's executions."""
    return sum(
        statistics.median(clock(*ex.interval) for ex in exs)
        for exs in _per_item(executions).values()
    )


def first_accuracy(executions):
    return [exs[0].accuracy for exs in _per_item(executions).values()]


def failures(executions):
    return [ex for ex in executions if ex.problems]


def accuracy_report(executions):
    """error_frac, and the accuracy of one pass when every execution passed."""
    failed = failures(executions)
    out = {"error_frac": len(failed) / len(executions)}
    if not failed:
        out.update(accuracy_metrics(first_accuracy(executions)))
    return out


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(plain, traced, clock=_raw_seconds):
    """The per-layer metrics, per pass of the item set, from traced executions.

    Span times are raw; trace.overhead_frac compares pass times by `clock`.
    """
    p = defaultdict(float)
    for exs in _per_item(traced).values():
        for key in set().union(*(ex.layers for ex in exs)):
            p[key] += statistics.median(ex.layers.get(key, 0.0) for ex in exs)
    accs = first_accuracy(traced)
    iterations = sum(a.get("iterations", 0) for a in accs)
    steps = p["reduction.reduce_step.calls"] + p["reduction.derivative_reduce_step.calls"]
    step_s = p["reduction.reduce_step.s"] + p["reduction.derivative_reduce_step.s"]
    tables = p["feval.feval_table.calls"]
    run_s = p[f"{ITEM_SPAN}.s"]
    return {
        "pipeline.search_s": p["search.its_search.s"],
        "pipeline.refine_s": p["cgd.cgd_refine.s"],
        "pipeline.project_s": p["hardy.project.s"],
        "pipeline.search_share": _ratio(p["search.its_search.s"], run_s),
        "pipeline.refine_share": _ratio(p["cgd.cgd_refine.s"], run_s),
        "pipeline.project_share": _ratio(p["hardy.project.s"], run_s),
        "cgd.self_s": p["cgd.self_s"],
        "cgd.iterations": iterations,
        "cgd.line_search_evals": int(p["cgd.line_search_evals"]),
        "cgd.accept_ratio": _ratio(iterations, p["cgd.line_search_evals"]),
        "cgd.final_grad_norm_sq.max": max(
            (a.get("final_grad_norm_sq", 0.0) for a in accs), default=0.0
        ),
        "reduction.gradient_calls": int(p["reduction.energy_gradient.calls"]),
        "reduction.gradient_ms": _ratio(
            p["reduction.energy_gradient.s"], p["reduction.energy_gradient.calls"], 1e3
        ),
        "reduction.error_energy_ms": _ratio(
            p["reduction.error_energy.s"], p["reduction.error_energy.calls"], 1e3
        ),
        "reduction.steps": int(steps),
        "reduction.step_us": _ratio(step_s, steps, 1e6),
        "reduction.chain_s": p["search.chain_s"],
        "feval.table_calls": int(tables),
        "feval.table_us": _ratio(p["feval.feval_table.s"], tables, 1e6),
        "feval.computed_mb_per_call": _ratio(p["feval.bytes"], tables, 1e-6),
        "search.self_s": p["search.self_s"],
        "search.scans": int(tables),
        "hardy.project_ms": _ratio(p["hardy.project.s"], p["hardy.project.calls"], 1e3),
        "hardy.synthesize_ms": _ratio(
            p["hardy.synthesize.s"], p["hardy.synthesize.calls"], 1e3
        ),
        "trace.overhead_frac": _ratio(
            pass_seconds(traced, clock), pass_seconds(plain, clock)
        ) - 1.0,
    }
