"""End-to-end driver, metrics, random forms, and the benchmark harness."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from blaschke import (
    BlaschkeModel,
    PoleTuple,
    Signal,
    circle_points,
    energy,
    energy_gradient,
    norm_sq,
    pipeline,
    project,
    reduction,
    synthesize,
)
from blaschke.cgd import CgdConfig, CgdStatus, cgd_refine
from blaschke.hardy import draw_separated
from blaschke.pipeline import (
    RunConfig,
    _assignment,
    cafd_cgd,
    cafd_cgd_result,
    l2_relative_error,
    rect_cafd,
    tuple_distance,
)
from blaschke.search import RectGridConfig, SearchConfig, its_search
from blaschke.suites import BUILTIN_SUITES, run_benchmark
from blaschke.targets import (
    BUILTIN_DEGREES,
    BUILTIN_FORMS,
    BUILTIN_FUNCTIONS,
    builtin_signal,
    builtin_truth,
    random_blaschke_form,
)

from conftest import (CLUSTER, SEARCH_TUPLES, band_limit, brute_tuple_distance, fix_search_tuple,
                      loop_columns)


SMALL_RUN = RunConfig(
    degree=1,
    search=SearchConfig(radial=20, angular=64),
    cgd=CgdConfig(max_iters=200),
)


class TestTupleDistance:
    def test_identical(self):
        u = PoleTuple([0.1, 0.2j])
        assert tuple_distance(u, u) == 0.0

    def test_permutation_invariance(self):
        u = PoleTuple([0.1, 0.2j, -0.3])
        v = PoleTuple([0.2j, -0.3, 0.1])
        assert tuple_distance(u, v) == pytest.approx(0.0, abs=1e-15)

    def test_small_example(self):
        # identity pairing costs sqrt(0.03); the swap costs 0.1
        u = PoleTuple([0.1, 0.2])
        v = PoleTuple([0.2, 0.1 + 0.1j])
        assert tuple_distance(u, v) == pytest.approx(0.1, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tuple_distance(PoleTuple([0.1]), PoleTuple([0.1, 0.2]))

    def test_matches_brute_force(self, rng):
        for n in range(1, 8):
            u = 0.6 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
            v = 0.6 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
            got = tuple_distance(PoleTuple(u), PoleTuple(v))
            assert got == pytest.approx(brute_tuple_distance(u, v), abs=1e-12)

    def test_lattice_ties_match_brute_force(self, rng):
        # poles on a coarse lattice, so that many pairings cost the same
        lattice = 0.1 * np.array([k + 1j * m for k in range(-3, 4) for m in range(-3, 4)])
        for n in range(2, 7):
            u = rng.choice(lattice, n, replace=False)
            v = rng.choice(lattice, n, replace=False)
            got = tuple_distance(PoleTuple(u), PoleTuple(v))
            assert got == pytest.approx(brute_tuple_distance(u, v), abs=1e-12)

    def test_shuffled_copy_is_exactly_zero(self, rng):
        u, _ = random_blaschke_form(30, seed=3)
        v = PoleTuple(u.poles[rng.permutation(30)])
        assert tuple_distance(u, v) == 0.0

    def test_assignment_is_a_permutation(self, rng):
        for n in (1, 2, 5, 12, 30):
            cols = _assignment(rng.uniform(0.0, 1.0, (n, n)))
            assert sorted(cols) == list(range(n))

    def test_pseudometric_axioms(self, rng):
        tuples = [
            PoleTuple(0.6 * (rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)))
            for _ in range(6)
        ]
        for a in tuples:
            for b in tuples:
                dab = tuple_distance(a, b)
                assert dab >= 0.0
                assert dab == pytest.approx(tuple_distance(b, a), abs=1e-12)
                for c in tuples:
                    assert dab <= (
                        tuple_distance(a, c) + tuple_distance(c, b) + 1e-12
                    )


def test_pipeline_run_imports_no_numpy_random():
    # the polar search draws no random number, so a whole run never loads
    # numpy.random and its memory
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; from blaschke import RunConfig, cafd_cgd_result; "
            "from blaschke.targets import builtin_signal; "
            "cafd_cgd_result(builtin_signal('ex5_5'), RunConfig(4)); "
            "print('numpy.random' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "False"


def test_import_loads_no_scipy():
    # scipy took most of a fresh `import blaschke`; the runtime needs only
    # numpy and click
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, blaschke, blaschke.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "False"


class TestL2RelativeError:
    def test_exact_match(self):
        f = builtin_signal("ex5_1_f1", 256)
        assert l2_relative_error(f, f) == 0.0

    def test_zero_approximation(self):
        f = builtin_signal("ex5_1_f1", 256)
        zero = Signal(np.zeros(256))
        assert l2_relative_error(f, zero) == pytest.approx(1.0)

    def test_zero_target_rejected(self):
        zero = Signal(np.zeros(256))
        with pytest.raises(ValueError, match="zero norm"):
            l2_relative_error(zero, zero)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            l2_relative_error(builtin_signal("ex5_1_f1", 256), Signal(np.ones(64)))


class TestRandomBlaschkeForm:
    def test_single_pole_radius(self):
        tup, coeffs = random_blaschke_form(1, 0)
        assert abs(tup.poles[0]) <= 0.9
        assert coeffs.size == 1

    def test_determinism(self):
        t1, c1 = random_blaschke_form(4, 99)
        t2, c2 = random_blaschke_form(4, 99)
        np.testing.assert_array_equal(t1.poles, t2.poles)
        np.testing.assert_array_equal(c1, c2)

    def test_batch_constraints(self):
        for seed in range(20):
            tup, coeffs = random_blaschke_form(5, seed)
            assert np.all(np.abs(tup.poles) <= 0.9)
            diff = np.abs(tup.poles[:, None] - tup.poles[None, :])
            np.fill_diagonal(diff, np.inf)
            assert diff.min() >= 0.05
            assert np.all(np.abs(coeffs.real) <= 1.0)
            assert np.all(np.abs(coeffs.imag) <= 1.0)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            random_blaschke_form(0, 0)

    def test_draw_gives_up_after_max_tries(self):
        # no two points of |w| < 0.1 are 0.5 apart, so the second never fits
        with pytest.raises(ValueError, match="could not draw 2 separated poles in 50 tries"):
            draw_separated(np.random.default_rng(0), 2, 0.1, 0.5, 50)


@pytest.mark.parametrize("degree", [2.5, 2.0, True, "2"])
def test_non_integer_degree_rejected(degree):
    # hardy.check_degree is the one test: each entry point raises a
    # ValueError naming the degree before any array is sized by it
    f = builtin_signal("ex5_3", 256)
    calls = [lambda: cafd_cgd_result(f, RunConfig(degree)),
             lambda: random_blaschke_form(degree, 0),
             lambda: its_search(f, degree, SearchConfig(radial=10, angular=16))]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(repr(degree))):
            call()


def test_numpy_integer_degree_accepted():
    tup, coeffs = random_blaschke_form(np.int64(3), 0)
    assert tup.degree == 3 and coeffs.size == 3
    f = builtin_signal("ex5_3", 256)
    assert its_search(f, np.int32(2), SearchConfig(radial=10, angular=16)).degree == 2
    assert RunConfig(np.int64(4)).degree == 4


class TestBuiltinTargets:
    def test_function_values(self):
        tau = circle_points(256)
        f = builtin_signal("ex5_1_f2", 256)
        np.testing.assert_allclose(f.samples, np.exp(tau**2), atol=1e-15)

    def test_form_synthesis_matches_direct_sum(self):
        poles, coeffs = BUILTIN_FORMS["ex5_5"]
        f = builtin_signal("ex5_5", 256)
        want = sum(c * b for c, b in zip(coeffs, loop_columns(poles, 256)))
        np.testing.assert_allclose(f.samples, want, atol=1e-13)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin_signal("nope", 256)

    def test_truth_lookup(self):
        assert builtin_truth("ex5_4").degree == 4
        assert builtin_truth("ex5_1_f1") is None

    def test_registry_complete(self):
        assert len(BUILTIN_FUNCTIONS) == 6
        assert len(BUILTIN_FORMS) == 4

    def test_degrees_cover_exactly_the_registered_targets(self):
        assert set(BUILTIN_DEGREES) == set(BUILTIN_FUNCTIONS) | set(BUILTIN_FORMS)

    def test_every_suite_target_is_registered(self):
        for suite in BUILTIN_SUITES.values():
            for entry in suite["targets"]:
                assert entry["name"] in BUILTIN_DEGREES

    def test_pipeline_keeps_the_benchmark_import_path(self):
        # perfbench/workloads.py imports both from blaschke.pipeline
        import blaschke.targets as targets

        assert pipeline.builtin_signal is targets.builtin_signal
        assert pipeline.builtin_truth is targets.builtin_truth


class TestPipeline:
    def test_single_basis_element_recovery(self):
        b = 0.37 - 0.22j
        truth = PoleTuple([b])
        f = synthesize(BlaschkeModel(truth, [0.8 + 0.3j]), 256)
        result = cafd_cgd_result(f, SMALL_RUN, truth=truth)
        assert result.tuple_distance <= 1e-6
        assert result.l2_relative_error <= 1e-6

    def test_cafd_cgd_returns_model(self):
        f = builtin_signal("ex5_1_f1", 256)
        model = cafd_cgd(f, 1)
        assert model.degree == 1
        assert model.residual_error >= 0.0

    def test_readme_quick_start_call_is_the_default_run(self):
        # cafd_cgd(f, n=6) with no config, as in the README's quick start
        tau = np.exp(2j * np.pi * np.arange(1024) / 1024)
        f = Signal(1.0 / (2.0 + tau**4))
        assert cafd_cgd(f, n=6) == cafd_cgd_result(f, RunConfig(6)).model

    def test_energy_accounting(self):
        f = builtin_signal("ex5_1_f1", 256)
        result = cafd_cgd_result(f, SMALL_RUN)
        lhs = result.l2_relative_error**2 * norm_sq(f)
        assert lhs == pytest.approx(
            result.model.residual_error, abs=1e-8 * norm_sq(f)
        )

    def test_repeat_run_on_one_signal_does_the_same_work(self, monkeypatch):
        # nothing a run computes is kept on the Signal, so a second run on
        # the same object makes the same reduction steps and the same answer
        steps = []
        step = reduction.reduce_step

        def counted(*args):
            steps.append(args[1])
            return step(*args)

        monkeypatch.setattr(reduction, "reduce_step", counted)
        f, _, cfg = _form_run("ex5_3")
        runs, counts = [], []
        for _ in range(2):
            steps.clear()
            runs.append(cafd_cgd_result(f, cfg))
            counts.append(len(steps))
        assert counts[0] == counts[1]
        first, second = runs
        assert first.its_tuple == second.its_tuple
        assert first.model == second.model
        assert first.cgd_report == second.cgd_report
        assert first.working_samples == second.working_samples

    def test_seeded_determinism(self):
        f = builtin_signal("ex5_1_f2", 256)
        r1 = cafd_cgd_result(f, SMALL_RUN)
        r2 = cafd_cgd_result(f, SMALL_RUN)
        np.testing.assert_array_equal(
            r1.model.tuple.poles, r2.model.tuple.poles
        )
        np.testing.assert_array_equal(r1.model.coeffs, r2.model.coeffs)

    def test_refinement_never_worse_than_search(self):
        f = builtin_signal("ex5_1_f3", 256)
        result = cafd_cgd_result(f, SMALL_RUN)
        its_residual = project(f, result.its_tuple).residual_error
        assert result.model.residual_error <= its_residual + 1e-12

    def test_rect_baseline_runs(self):
        b = 0.45 - 0.3j
        truth = PoleTuple([b])
        f = synthesize(BlaschkeModel(truth, [1.0]), 256)
        result = rect_cafd(f, 1, RectGridConfig(gap=0.05), truth=truth)
        assert result.tuple_distance == 0.0
        # the residual is the model's own error, a round-off-sized norm here
        assert result.l2_relative_error <= 1e-7

    def test_small_amplitude_recovery(self):
        # scaling f by 1e-2 scales the energy by 1e-4; the recovered tuple
        # must still meet criterion 5's tuple-distance bound
        f, truth, cfg = _form_run("ex5_5")
        res = cafd_cgd_result(Signal(1e-2 * f.samples), cfg, truth=truth)
        assert res.tuple_distance <= 5e-3

    @pytest.mark.parametrize("name", ["ex5_3", "ex5_5"])
    def test_energy_is_the_recorded_trace_value(self, name):
        # E has one definition, ||f||^2 - A, in energy() and in the trace
        f, _, cfg = _form_run(name)
        report = cafd_cgd_result(f, cfg).cgd_report
        assert energy(f, report.tuple) == report.energy_trace[-1]

    def test_truth_degree_checked_before_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("search ran before the truth degree was checked")

        monkeypatch.setattr(pipeline, "its_search", no_search)
        monkeypatch.setattr(pipeline, "rect_cafd_search", no_search)
        f = builtin_signal("ex5_1_f1", 256)
        truth = PoleTuple([0.1, 0.2j])
        with pytest.raises(ValueError, match="degree"):
            cafd_cgd_result(f, SMALL_RUN, truth=truth)
        with pytest.raises(ValueError, match="degree"):
            rect_cafd(f, 1, RectGridConfig(gap=0.05), truth=truth)

    def test_zero_signal_rejected_before_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("search ran on a zero signal")

        monkeypatch.setattr(pipeline, "its_search", no_search)
        monkeypatch.setattr(pipeline, "rect_cafd_search", no_search)
        f = Signal(np.zeros(256))
        with pytest.raises(ValueError, match="zero norm"):
            cafd_cgd_result(f, SMALL_RUN)
        with pytest.raises(ValueError, match="zero norm"):
            rect_cafd(f, 1, RectGridConfig(gap=0.05))


def _form_run(name):
    """The signal, truth and a run config at angular 128 of a builtin form."""
    truth = builtin_truth(name)
    return builtin_signal(name, 1024), truth, RunConfig(truth.degree, SearchConfig(angular=128))


def _spy_refine(monkeypatch, signals=None):
    """Record (sample count, iterations) of every cgd_refine call the pipeline makes.

    The Signal each call receives is appended to `signals` when it is a list.
    """
    calls = []
    refine = pipeline.cgd_refine

    def spy(f, start, cfg):
        report = refine(f, start, cfg)
        calls.append((f.n_samples, report.iterations))
        if signals is not None:
            signals.append(f)
        return report

    monkeypatch.setattr(pipeline, "cgd_refine", spy)
    return calls


class TestWorkingResolution:
    @pytest.mark.parametrize("name", ["ex5_3", "ex5_4", "ex5_5", "ex5_6"])
    def test_same_answer_as_refining_at_full_n(self, monkeypatch, name):
        f, truth, cfg = _form_run(name)
        working = cafd_cgd_result(f, cfg, truth=truth)
        # no tail is exactly 0, so no N' < N passes
        monkeypatch.setattr(pipeline, "WORKING_TOL", 0.0)
        full = cafd_cgd_result(f, cfg, truth=truth)
        assert full.working_samples == 1024
        assert working.cgd_report.status is full.cgd_report.status
        assert tuple_distance(working.model.tuple, full.model.tuple) <= 1e-9

    def test_slow_tail_refines_at_full_n(self, monkeypatch):
        # ex5_4's spectrum decays like 0.984^k: its tail is 8.3e-3 at k = 256;
        # both calls run on f itself, and the continuation at N starts where
        # the first call converged
        signals = []
        calls = _spy_refine(monkeypatch, signals)
        f, truth, cfg = _form_run("ex5_4")
        res = cafd_cgd_result(f, cfg, truth=truth)
        assert res.working_samples == 1024
        assert [n for n, _ in calls] == [1024, 1024]
        assert calls[1][1] == 0
        assert signals[0] is f and signals[1] is f

    def test_full_n_report_is_one_call_at_n(self):
        # at N' = N the first call runs on f's samples and the continuation
        # starts at its tuple, so the merged report is a lone call's
        f, truth, cfg = _form_run("ex5_4")
        res = cafd_cgd_result(f, cfg, truth=truth)
        assert res.working_samples == 1024
        lone = cgd_refine(f, res.its_tuple, cfg.cgd)
        report = res.cgd_report
        assert report.tuple == lone.tuple
        assert report.iterations == lone.iterations
        assert report.status is lone.status
        assert report.final_gradient_norm_sq == lone.final_gradient_norm_sq
        assert report.energy_trace == lone.energy_trace

    def test_stall_at_full_n_continues_at_n(self, monkeypatch):
        # a line-search stall at N' = N does not end the refinement: the
        # second call continues on f from the stalled tuple with the budget
        # left.  The first call on ex5_4 from its fixed search tuple (5
        # iterations to converge) is cut after 2 and reported as a stall.
        f, _, cfg = _form_run("ex5_4")
        start = PoleTuple(SEARCH_TUPLES["ex5_4"])
        refine, calls = pipeline.cgd_refine, []

        def spy(g, tup, run_cfg):
            if calls:
                report = refine(g, tup, run_cfg)
            else:
                cut = refine(g, tup, CgdConfig(max_iters=2))
                report = replace(cut, status=CgdStatus.LINE_SEARCH_STALL)
            calls.append((g, tup, run_cfg, report))
            return report

        monkeypatch.setattr(pipeline, "cgd_refine", spy)
        report, n_work = pipeline._refine(f, start, cfg.cgd)
        (work_f, _, _, work), (confirm_f, confirm_start, confirm_cfg, confirm) = calls
        assert n_work == f.n_samples and work_f is f and confirm_f is f
        assert work.iterations == 2
        assert confirm_start is work.tuple
        assert confirm_cfg.max_iters == cfg.cgd.max_iters - 2
        assert confirm.iterations > 0 and confirm.status is CgdStatus.CONVERGED
        # the merged report: the second call's tuple, status and gradient, the
        # iterations of both and the traces spliced at the stalled tuple
        assert report.tuple is confirm.tuple
        assert report.status is confirm.status
        assert report.final_gradient_norm_sq == confirm.final_gradient_norm_sq
        assert report.iterations == 2 + confirm.iterations
        assert report.energy_trace == work.energy_trace[:-1] + confirm.energy_trace
        # both calls evaluate the stalled tuple on f, so the seam loses no value
        assert work.energy_trace[-1] == confirm.energy_trace[0]

    def test_pole_near_the_circle_refines_at_full_n(self, monkeypatch):
        # ex5_3's tail alone would pass at N' = 128, but 0.99^(N' - n) exceeds
        # n * BAND_TOL = 5e-15 for every N' <= 1024; with no budget left, the
        # continuation at N takes no iteration
        f, _, cfg = _form_run("ex5_3")
        poles = builtin_truth("ex5_3").poles.copy()
        poles[0] = 0.99
        monkeypatch.setattr(pipeline, "its_search", lambda *args: PoleTuple(poles))
        calls = _spy_refine(monkeypatch)
        cfg = RunConfig(cfg.degree, cfg.search, CgdConfig(max_iters=5))
        res = cafd_cgd_result(f, cfg)
        assert res.working_samples == 1024
        assert [n for n, _ in calls] == [1024, 1024]
        assert calls[1][1] == 0

    def test_budget_spent_in_the_working_stage(self, monkeypatch):
        # the confirm stage gets no iteration left, so it only measures at N;
        # from this tuple the working stage converges in 3 iterations, so a
        # budget of 2 runs out first
        fix_search_tuple(monkeypatch, "ex5_3")
        calls = _spy_refine(monkeypatch)
        f, truth, cfg = _form_run("ex5_3")
        cfg = RunConfig(cfg.degree, cfg.search, CgdConfig(max_iters=2))
        res = cafd_cgd_result(f, cfg, truth=truth)
        report = res.cgd_report
        assert calls == [(res.working_samples, 2), (1024, 0)]
        assert report.iterations == 2
        assert report.status is CgdStatus.ITERATION_CAP
        grad = energy_gradient(f, report.tuple)
        assert report.final_gradient_norm_sq == float(np.sum(np.abs(grad) ** 2))
        assert report.energy_trace[-1] == energy(f, report.tuple)
        assert len(report.energy_trace) == report.iterations + 1

    def test_confirm_stage_that_iterates_still_recovers(self, monkeypatch):
        # at N' = 64, ex5_5's samples alias at max|a|^64 = 1.1e-3, so the
        # working stage converges to a tuple that must move again at N
        monkeypatch.setattr(pipeline, "_working_samples", lambda f, tup: 64)
        calls = _spy_refine(monkeypatch)
        f, truth, cfg = _form_run("ex5_5")
        start = PoleTuple(cfg.search.grid.nodes()[[53, 89, 87, 84], [125, 22, 92, 13]])
        report, n_work = pipeline._refine(f, start, cfg.cgd)
        (n_coarse, _), (n_full, confirm_iters) = calls
        assert n_work == n_coarse == 64 and n_full == 1024
        assert confirm_iters > 0
        assert report.iterations == sum(k for _, k in calls)
        assert report.status is CgdStatus.CONVERGED
        assert tuple_distance(report.tuple, truth) <= 5e-3

    @pytest.mark.parametrize("angular", [128, 256])
    @pytest.mark.parametrize("name", sorted(BUILTIN_DEGREES))
    def test_not_below_the_band_limit_of_project(self, band_limits, name, angular):
        # the a-priori start max|a|^(N' - n) alone is below the M that
        # project's tail test accepts for the search tuples of ex5_1_f2 (both
        # grids), and of ex5_2_f1 and ex5_2_f2 at angular 128
        f = builtin_signal(name, 1024)
        tup = its_search(f, BUILTIN_DEGREES[name], SearchConfig(angular=angular))
        band_limits.clear()
        project(f, tup)
        assert pipeline._working_samples(f, tup) >= band_limit(band_limits, 1024)

    def test_cluster_refines_at_the_band_limit_of_project(self, band_limits):
        # 30 poles at radius 0.9, 0.01 rad apart: the a-priori start gives
        # 512, where the sampled TM Gram matrix is 1.4e-8 off the identity
        f = builtin_signal("ex5_1_f1", 1024)
        project(f, CLUSTER)
        assert band_limit(band_limits, 1024) == 1024
        assert pipeline._working_samples(f, CLUSTER) == 1024

    def test_rect_cafd_reports_no_working_resolution(self):
        f = synthesize(BlaschkeModel(PoleTuple([0.45 - 0.3j]), [1.0]), 256)
        assert rect_cafd(f, 1, RectGridConfig(gap=0.05)).working_samples is None


class TestRunBenchmark:
    def test_empty_descriptor(self):
        assert run_benchmark({"targets": []}) == []

    def test_builtin_rows(self):
        rows = run_benchmark(
            {
                "targets": [{"name": "ex5_1_f1", "degree": 2}],
                "algorithms": ["cafd_cgd"],
                "n_samples": 256,
                "angular": 64,
            }
        )
        assert len(rows) == 1
        row = rows[0]
        assert row["target"] == "ex5_1_f1"
        assert row["algorithm"] == "cafd_cgd"
        assert row["l2_rel_error"] >= 0.0
        assert row["tuple_distance"] is None
        assert row["status"] in {s.value for s in CgdStatus}
        assert 0 <= row["iterations"] <= CgdConfig().max_iters

    @pytest.mark.parametrize("suite", ["ex5_3", "ex5_1"])
    def test_builtin_row_is_the_default_run(self, suite):
        # a suite runs each builtin target on the grid `recover --builtin` takes
        for row in run_benchmark(BUILTIN_SUITES[suite]):
            name = row["target"]
            res = cafd_cgd_result(builtin_signal(name), RunConfig(BUILTIN_DEGREES[name]),
                                  truth=builtin_truth(name))
            assert row["l2_rel_error"] == res.l2_relative_error
            assert row["tuple_distance"] == res.tuple_distance

    def test_rect_rows_leave_refinement_blank(self):
        # rect_cafd runs no refinement, so it reports no status or count
        rows = run_benchmark(
            {
                "targets": [{"name": "ex5_1_f1", "degree": 2}],
                "algorithms": ["rect_cafd"],
                "n_samples": 256,
            }
        )
        assert len(rows) == 1
        assert rows[0]["algorithm"] == "rect_cafd"
        assert rows[0]["status"] == rows[0]["iterations"] == ""

    def test_random_batch_stats(self):
        rows = run_benchmark(
            {
                "targets": [{"name": "random", "degree": 2, "count": 3}],
                "algorithms": ["cafd_cgd"],
                "n_samples": 256,
                "angular": 64,
            }
        )
        stats = [r["stat"] for r in rows if r["stat"]]
        assert stats == ["mean", "max", "std"]
        assert len(rows) == 6
        for row in rows:
            if row["stat"]:
                assert row["status"] == row["iterations"] == ""
            else:
                assert row["status"] in {s.value for s in CgdStatus}
                assert isinstance(row["iterations"], int)

    def test_random_batch_search_seed_differs_from_form_seed(self, monkeypatch):
        import blaschke.suites as suites

        form_seeds, search_seeds = [], []
        draw = suites.random_blaschke_form

        def record_form(n, seed):
            form_seeds.append(seed)
            return draw(n, seed)

        # the rectangular start is the one seeded search; the polar one reads no seed
        def record_run(f, n, cfg, truth=None):
            search_seeds.append(cfg.seed)
            return SimpleNamespace(
                l2_relative_error=0.0, tuple_distance=0.0, wall_time_seconds=0.0,
                cgd_report=None,
            )

        monkeypatch.setattr(suites, "random_blaschke_form", record_form)
        monkeypatch.setattr(suites, "rect_cafd", record_run)
        run_benchmark({"targets": [{"name": "random", "degree": 2, "count": 4}],
                       "algorithms": ["rect_cafd"], "seed": 7})
        assert form_seeds == [7, 8, 9, 10]
        assert len(search_seeds) == 4
        assert not set(search_seeds) & set(form_seeds)

    def test_unknown_target(self):
        with pytest.raises(KeyError):
            run_benchmark({"targets": [{"name": "mystery", "degree": 2}]})

    @pytest.mark.parametrize("descriptor, error", [
        ({"targets": [{"name": "ex5_3"}, {"name": "ex5_2_f3"}, {"name": "typo"}]},
         KeyError),
        ({"targets": [{"name": "ex5_3"}], "algorithms": ["cafd_cgd", "typo"]}, KeyError),
        ({"targets": [{"name": "ex5_3"}, {"name": "random", "count": 1}]}, KeyError),
        ({"targets": [{"name": "ex5_3"}, {"name": "ex5_5", "degree": 0}]}, ValueError),
        ({"targets": [{"name": "ex5_1_f1", "degree": 2}, {"name": "ex5_3", "degree": 3}]},
         ValueError),
        ({"targets": [{"name": "ex5_5"}], "angular": 3}, ValueError),
        ({"targets": [{"name": "ex5_5"}], "n_samples": 64, "angular": 128}, ValueError),
        ({"targets": [{"name": "ex5_5"}], "seed": -1}, ValueError),
        ({"targets": [{"name": "ex5_1_f1"}, {"name": "ex5_5"}], "n_samples": -4}, ValueError),
        # a misspelled field, which would otherwise run its default
        ({"targets": [{"name": "ex5_3"}, {"name": "ex5_5", "degre": 3}]}, ValueError),
        ({"targets": [{"name": "ex5_5"}], "algorithm": ["rect_cafd"]}, ValueError),
        ({"targets": [{"name": "ex5_5"}], "samples": 256}, ValueError),
    ])
    def test_bad_entry_fails_before_any_case(self, monkeypatch, descriptor, error):
        import blaschke.suites as suites

        def fail(*args, **kwargs):
            raise AssertionError("a case ran before the descriptor was checked")

        monkeypatch.setattr(suites, "cafd_cgd_result", fail)
        monkeypatch.setattr(suites, "rect_cafd", fail)
        with pytest.raises(error):
            run_benchmark({"algorithms": ["rect_cafd", "cafd_cgd"], **descriptor})
