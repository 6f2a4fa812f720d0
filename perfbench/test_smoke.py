"""Reduced-size runs of the benchmark's workloads.

Run from the repository root:

    python3 -m pytest perfbench -q

Each workload runs twice, traced, with the same seed; the exact counts and
every accuracy metric must repeat bit for bit.  The output checks must also
reject a wrong result.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench  # noqa: E402
import workloads  # noqa: E402


def _smoke_run(name, seed):
    workload = workloads.BY_NAME[name](seed, smoke=True)
    plain, traced, _ = bench.measure(workload, seconds=0, trace=True)
    assert not bench.failures(plain + traced)
    layers = bench.layer_metrics(plain, traced)
    counts = {key: layers[key] for key in bench.EXACT_COUNTS}
    return counts, bench.accuracy_report(plain + traced)


@pytest.mark.parametrize("name", sorted(workloads.BY_NAME))
def test_counts_and_accuracy_repeat_exactly(name):
    counts, accuracy = _smoke_run(name, seed=7)
    assert (counts, accuracy) == _smoke_run(name, seed=7)
    assert accuracy["error_frac"] == 0.0 and "l2_err.max" in accuracy
    if name in ("recover", "approximate"):
        assert counts["cgd.iterations"] > 0 and counts["reduction.steps"] > 0
    if name != "roundtrip":
        assert counts["feval.table_calls"] > 0


def test_checks_reject_a_wrong_residual():
    item = workloads.recover(7, smoke=True).items[0]
    res = item.run()
    assert item.assess(res)[0] == []
    bad = replace(res.model, residual_error=res.model.residual_error + 1e-6)
    problems, _ = item.assess(replace(res, model=bad))
    assert any("residual_error" in p for p in problems)


def test_checks_reject_wrong_roundtrip_coefficients():
    item = workloads.roundtrip(7, smoke=True).items[0]
    f, model = item.run()
    assert item.assess((f, model))[0] == []
    coeffs = model.coeffs.copy()
    coeffs[0] += 1e-9
    problems, _ = item.assess((f, replace(model, coeffs=coeffs)))
    assert problems
