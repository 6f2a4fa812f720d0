"""End-to-end driver, metrics, random forms, and the benchmark harness."""

from types import SimpleNamespace

import numpy as np
import pytest

from blaschke import (
    BlaschkeModel,
    PoleTuple,
    Signal,
    circle_points,
    norm_sq,
    project,
    synthesize,
    tm_basis,
)
from blaschke.cgd import CgdConfig, CgdStatus
from blaschke.pipeline import (
    BUILTIN_FORMS,
    BUILTIN_FUNCTIONS,
    RunConfig,
    builtin_signal,
    builtin_truth,
    cafd_cgd,
    cafd_cgd_result,
    l2_relative_error,
    random_blaschke_form,
    rect_cafd,
    run_benchmark,
    tuple_distance,
)
from blaschke.search import RectGridConfig, SearchConfig

from conftest import brute_tuple_distance


SMALL_RUN = RunConfig(
    degree=1,
    search=SearchConfig(radial=20, angular=64),
    cgd=CgdConfig(max_iters=200),
    n_samples=256,
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
        for n in (2, 3, 4, 5, 6):
            u = 0.6 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
            v = 0.6 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
            got = tuple_distance(PoleTuple(u), PoleTuple(v))
            assert got == pytest.approx(brute_tuple_distance(u, v), abs=1e-12)

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
        with pytest.raises(ZeroDivisionError):
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


class TestBuiltinTargets:
    def test_function_values(self):
        tau = circle_points(256)
        f = builtin_signal("ex5_1_f2", 256)
        np.testing.assert_allclose(f.samples, np.exp(tau**2), atol=1e-15)

    def test_form_synthesis_matches_direct_sum(self):
        poles, coeffs = BUILTIN_FORMS["ex5_5"]
        f = builtin_signal("ex5_5", 256)
        tup = PoleTuple(poles)
        z = circle_points(256)
        want = sum(
            c * tm_basis(tup, k + 1, z) for k, c in enumerate(coeffs)
        )
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
        model = cafd_cgd(f, 1, SMALL_RUN)
        assert model.degree == 1
        assert model.residual_error >= 0.0

    def test_degree_mismatch_rejected(self):
        f = builtin_signal("ex5_1_f1", 256)
        with pytest.raises(ValueError):
            cafd_cgd(f, 2, SMALL_RUN)

    def test_energy_accounting(self):
        f = builtin_signal("ex5_1_f1", 256)
        result = cafd_cgd_result(f, SMALL_RUN)
        lhs = result.l2_relative_error**2 * norm_sq(f)
        assert lhs == pytest.approx(
            result.model.residual_error, abs=1e-8 * norm_sq(f)
        )

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
        f = builtin_signal("ex5_5", 1024)
        truth = builtin_truth("ex5_5")
        cfg = RunConfig(degree=4, search=SearchConfig(radial=100, angular=128))
        res = cafd_cgd_result(Signal(1e-2 * f.samples), cfg, truth=truth)
        assert res.tuple_distance <= 5e-3

    def test_truth_degree_checked_before_search(self, monkeypatch):
        import blaschke.pipeline as pipeline

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
        import blaschke.pipeline as pipeline

        def no_search(*args, **kwargs):
            raise AssertionError("search ran on a zero signal")

        monkeypatch.setattr(pipeline, "its_search", no_search)
        monkeypatch.setattr(pipeline, "rect_cafd_search", no_search)
        f = Signal(np.zeros(256))
        with pytest.raises(ValueError, match="zero norm"):
            cafd_cgd_result(f, SMALL_RUN)
        with pytest.raises(ValueError, match="zero norm"):
            rect_cafd(f, 1, RectGridConfig(gap=0.05))


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
        import blaschke.pipeline as pipeline

        form_seeds, search_seeds = [], []
        draw = pipeline.random_blaschke_form

        def record_form(n, seed):
            form_seeds.append(seed)
            return draw(n, seed)

        def record_run(algo, f, degree, angular, seed, truth):
            search_seeds.append(seed)
            return SimpleNamespace(
                l2_relative_error=0.0, tuple_distance=0.0, wall_time_seconds=0.0,
                cgd_report=SimpleNamespace(status=CgdStatus.CONVERGED, iterations=0),
            )

        monkeypatch.setattr(pipeline, "random_blaschke_form", record_form)
        monkeypatch.setattr(pipeline, "_run_algorithm", record_run)
        run_benchmark(
            {"targets": [{"name": "random", "degree": 2, "count": 4}], "seed": 7}
        )
        assert form_seeds == [7, 8, 9, 10]
        assert len(search_seeds) == 4
        assert not set(search_seeds) & set(form_seeds)

    def test_unknown_target(self):
        with pytest.raises(KeyError):
            run_benchmark({"targets": [{"name": "mystery", "degree": 2}]})
