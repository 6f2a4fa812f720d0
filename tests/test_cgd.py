"""Levenberg-Marquardt refinement on the reduction remainder."""

import numpy as np
import pytest

import blaschke.cgd
from blaschke import (
    BlaschkeModel,
    PoleTuple,
    Signal,
    pipeline,
    reduction,
    synthesize,
    tuple_distance,
)
from blaschke.cgd import CgdConfig, CgdStatus, _candidate, cgd_refine
from blaschke.pipeline import RunConfig, builtin_signal, builtin_truth, cafd_cgd_result
from blaschke.reduction import energy_gradient, remainder_jacobian

from conftest import SEARCH_TUPLES, monomial_signal, szego_signal


def well_separated_form(n, seed, radius=0.85, gap=0.15):
    """Random Blaschke form whose poles keep a healthy pairwise gap."""
    rng = np.random.default_rng(seed)
    poles = []
    while len(poles) < n:
        w = rng.uniform(-radius, radius) + 1j * rng.uniform(-radius, radius)
        if abs(w) > radius:
            continue
        if poles and min(abs(w - p) for p in poles) < gap:
            continue
        poles.append(w)
    coeffs = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    return PoleTuple(poles), coeffs


def damped_step(f, poles, damping):
    """The capped solution of (J'J + damping S) d = [Re gradE; Im gradE] at these poles.

    J'J is the Gauss-Newton matrix of the real residual [Re f_n; Im f_n] on
    [Re a; Im a], and S gives each pole the mean of its two diagonal entries.
    """
    tup = PoleTuple(poles)
    jac = remainder_jacobian(f, tup)
    gram = np.real(np.conj(jac) @ jac.T) / jac.shape[1]
    g = energy_gradient(f, tup)
    per_pole = np.diagonal(gram).reshape(2, -1).mean(axis=0)
    d = np.linalg.solve(gram + damping * np.diag(np.concatenate([per_pole, per_pole])),
                        np.concatenate([g.real, g.imag]))
    move = d[:poles.size] + 1j * d[poles.size:]
    return move * min(1.0, blaschke.cgd.TRUST_RADIUS / np.max(np.abs(move)))


class TestConfigValidation:
    def test_nonnegative_max_iters(self):
        with pytest.raises(ValueError):
            CgdConfig(max_iters=-1)


class TestCgdRefine:
    def test_stationary_start_converges_immediately(self):
        b = 0.4 - 0.3j
        report = cgd_refine(szego_signal(b, 256), PoleTuple([b]))
        assert report.status is CgdStatus.CONVERGED
        assert report.iterations == 0
        assert report.final_gradient_norm_sq <= 1e-18

    def test_monomial_optimum(self):
        # for f = tau the energy peaks at |a| = 1/sqrt(2)
        report = cgd_refine(monomial_signal(1, 256), PoleTuple([0.6]))
        assert report.status is CgdStatus.CONVERGED
        assert abs(abs(report.tuple.poles[0]) - 1.0 / np.sqrt(2.0)) <= 1e-6

    def test_energy_trace_monotone(self):
        report = cgd_refine(monomial_signal(2, 256), PoleTuple([0.3 + 0.2j]))
        trace = np.asarray(report.energy_trace)
        assert np.all(np.diff(trace) >= 0.0)

    def test_feasibility_of_result(self):
        truth, coeffs = well_separated_form(3, 11)
        f = synthesize(BlaschkeModel(truth, coeffs), 256)
        start = PoleTuple(truth.poles + 0.01)
        report = cgd_refine(f, start, CgdConfig(max_iters=50))
        assert np.max(np.abs(report.tuple.poles)) <= 1.0 - 1e-9
        diff = np.abs(report.tuple.poles[:, None] - report.tuple.poles[None, :])
        np.fill_diagonal(diff, np.inf)
        assert diff.min() > 1e-12

    def test_trust_region_bounds_single_step(self):
        cfg = CgdConfig(max_iters=1)
        for start in (0.3, 0.5j, -0.2 + 0.1j):
            report = cgd_refine(monomial_signal(1, 256), PoleTuple([start]), cfg)
            step = np.max(np.abs(report.tuple.poles - np.atleast_1d(start)))
            assert step <= blaschke.cgd.TRUST_RADIUS + 1e-15

    def test_first_step_solves_the_damped_system(self):
        # the first trial is the Levenberg-Marquardt step at INITIAL_DAMPING;
        # far from the optimum (first case) the trust radius caps it, near it
        # (second case) it does not
        truth, coeffs = well_separated_form(3, 11)
        cases = [
            (monomial_signal(1, 256), np.array([0.2 + 0j])),
            (monomial_signal(1, 256), np.array([0.69 + 0.02j])),
            (monomial_signal(3, 256), np.array([0.3, -0.4j])),
            (synthesize(BlaschkeModel(truth, coeffs), 256), truth.poles + 0.05),
        ]
        cfg = CgdConfig(max_iters=1)
        moved = []
        for f, start in cases:
            report = cgd_refine(f, PoleTuple(start), cfg)
            assert report.iterations == 1
            want = damped_step(f, start, blaschke.cgd.INITIAL_DAMPING)
            np.testing.assert_allclose(report.tuple.poles - start, want, rtol=0, atol=1e-15)
            moved.append(np.max(np.abs(want)))
        assert moved[0] == pytest.approx(blaschke.cgd.TRUST_RADIUS, rel=1e-15)
        assert moved[1] < blaschke.cgd.TRUST_RADIUS

    def test_iteration_cap_status(self):
        report = cgd_refine(
            monomial_signal(1, 256), PoleTuple([0.2]), CgdConfig(max_iters=2)
        )
        assert report.status is CgdStatus.ITERATION_CAP
        assert report.iterations == 2

    def test_zero_iteration_cap(self):
        report = cgd_refine(
            monomial_signal(1, 256), PoleTuple([0.2]), CgdConfig(max_iters=0)
        )
        assert report.status is CgdStatus.ITERATION_CAP
        assert report.iterations == 0 and len(report.energy_trace) == 1
        assert report.final_gradient_norm_sq > 0.0

    def test_line_search_stall_status(self, monkeypatch):
        monkeypatch.setattr(blaschke.cgd, "MAX_BACKTRACKS", 0)
        report = cgd_refine(monomial_signal(1, 256), PoleTuple([0.2]))
        assert report.status is CgdStatus.LINE_SEARCH_STALL
        np.testing.assert_array_equal(report.tuple.poles, [0.2])

    def test_converged_status_implies_small_gradient(self):
        report = cgd_refine(monomial_signal(1, 256), PoleTuple([0.6]))
        if report.status is CgdStatus.CONVERGED:
            assert report.final_gradient_norm_sq <= 1e-18

    def test_trial_outside_the_margin_is_rejected_unevaluated(self, monkeypatch):
        # ex5_4's search tuple with the pole nearest its true pole at
        # |a| = 0.984 put 0.005 from the circle and 0.04 rad past it: the
        # Gauss-Newton step overshoots the circle; the margin test must turn
        # the trial down before the energy is evaluated there, and the more
        # damped steps must still converge
        limit = 1.0 - blaschke.cgd.BOUNDARY_MARGIN
        energy, candidate = blaschke.cgd.error_energy, blaschke.cgd._candidate
        evaluated, rejected = [], []

        def spy_energy(f, tup):
            evaluated.append(np.max(np.abs(tup.poles)))
            return energy(f, tup)

        def spy_candidate(poles):
            cand = candidate(poles)
            if cand is None:
                rejected.append(np.max(np.abs(poles)))
            return cand

        monkeypatch.setattr(blaschke.cgd, "error_energy", spy_energy)
        monkeypatch.setattr(blaschke.cgd, "_candidate", spy_candidate)
        truth = builtin_truth("ex5_4")
        start = np.array(SEARCH_TUPLES["ex5_4"])
        near = np.argmin(np.abs(start - truth.poles[2]))
        start[near] = 0.995 * np.exp(1j * (np.angle(truth.poles[2]) + 0.04))
        monkeypatch.setattr(pipeline, "its_search", lambda f, n, cfg: PoleTuple(start))
        res = cafd_cgd_result(builtin_signal("ex5_4"), RunConfig(4),
                              truth=builtin_truth("ex5_4"))
        assert evaluated and max(evaluated) <= limit
        assert rejected and min(rejected) > limit
        assert res.cgd_report.status is CgdStatus.CONVERGED
        assert res.tuple_distance <= 5e-3

    def test_candidate_rejects_nan_and_one_ulp_past_the_margin(self):
        edge = 1.0 - blaschke.cgd.BOUNDARY_MARGIN
        assert _candidate(np.array([0.5, edge], dtype=complex)) is not None
        past = np.nextafter(edge, 2.0)
        for poles in ([0.5, past], [0.5, 1j * past], [0.5, complex(np.nan, 0.0)],
                      [complex(0.0, np.nan), 0.5]):
            assert _candidate(np.array(poles, dtype=complex)) is None

    def test_determinism(self):
        f = monomial_signal(3, 256)
        r1 = cgd_refine(f, PoleTuple([0.3, -0.4j]), CgdConfig(max_iters=30))
        r2 = cgd_refine(f, PoleTuple([0.3, -0.4j]), CgdConfig(max_iters=30))
        np.testing.assert_array_equal(r1.tuple.poles, r2.tuple.poles)
        assert r1.energy_trace == r2.energy_trace

    def test_stacked_poles_split(self):
        # stacked poles have identical gradient entries and Jacobian rows,
        # so the Gauss-Newton matrix is singular along their difference; the
        # solve's round-off there grows as the damping falls, the stacked
        # saddle is left (2e-15, then 5e-12, 5e-6 apart) and both true
        # poles are reached
        truth = PoleTuple([0.5, -0.4j])
        f = synthesize(BlaschkeModel(truth, [1.0, 0.5j]), 256)
        report = cgd_refine(f, PoleTuple([0.45, 0.45]))
        assert report.status is CgdStatus.CONVERGED
        assert tuple_distance(report.tuple, truth) <= 1e-6

    def test_one_chain_per_energy_evaluation(self, monkeypatch):
        # each call's gradients and Jacobians reuse the chain of the energy
        # just evaluated at the same tuple, and nothing carries over from an
        # earlier call on the same Signal: a call that starts where the last
        # one ended, as the pipeline's confirm stage does, runs its first
        # chain again; one iteration per call leaves the second call a step
        # to take
        energies, steps = [], []
        evaluate, step = blaschke.cgd.error_energy, reduction.reduce_step

        def spy_energy(f, tup):
            energies.append(tup.degree)
            return evaluate(f, tup)

        def spy_step(*args):
            steps.append(args[1])
            return step(*args)

        monkeypatch.setattr(blaschke.cgd, "error_energy", spy_energy)
        monkeypatch.setattr(reduction, "reduce_step", spy_step)
        truth = builtin_truth("ex5_3")
        cases = [(monomial_signal(3, 256), PoleTuple([0.3, -0.4j])),
                 (builtin_signal("ex5_3", 1024), PoleTuple(truth.poles + 0.02))]
        for f, start in cases:
            for _ in range(2):
                energies.clear()
                steps.clear()
                start = cgd_refine(f, start, CgdConfig(max_iters=1)).tuple
                assert len(energies) > 1
                assert len(steps) == start.degree * len(energies)


class TestStepEquivariance:
    """One step on a turned or conjugated signal is the turned or conjugated step.

    The damping gives each pole one scale on Re and Im, so it turns with the
    poles; Marquardt's plain diagonal would not.
    """

    @staticmethod
    def first_step(samples, poles):
        return cgd_refine(Signal(samples), PoleTuple(poles), CgdConfig(max_iters=1)).tuple.poles

    @pytest.mark.parametrize("name", ["ex5_3", "ex5_5"])
    def test_rotation(self, name):
        # f(wz), w = exp(2 pi i k / 128), is f's samples rolled by 8k
        f, start = builtin_signal(name, 1024).samples, np.array(SEARCH_TUPLES[name])
        base = self.first_step(f, start)
        for k in (1, 5, 32):
            turn = np.exp(-2j * np.pi * k / 128)
            run = self.first_step(np.roll(f, -(1024 // 128) * k), start * turn)
            np.testing.assert_allclose(run, base * turn, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", ["ex5_3", "ex5_5"])
    def test_conjugation(self, name):
        # conj(f(conj z)) at the sample points is conj(f) read backwards from z = 1
        f, start = builtin_signal(name, 1024).samples, np.array(SEARCH_TUPLES[name])
        base = self.first_step(f, start)
        run = self.first_step(np.conj(np.roll(f[::-1], 1)), np.conj(start))
        np.testing.assert_allclose(run, np.conj(base), rtol=0, atol=1e-15)


class TestConvergenceOnSmoothTargets:
    def test_recovery_from_nearby_start(self):
        # random well-separated targets, start perturbed within 0.02
        rng = np.random.default_rng(7)
        for i in range(20):
            n = 2 + i % 3
            truth, coeffs = well_separated_form(n, 2000 + i)
            f = synthesize(BlaschkeModel(truth, coeffs), 256)
            start = truth.poles + (
                rng.uniform(-0.014, 0.014, n) + 1j * rng.uniform(-0.014, 0.014, n)
            )
            report = cgd_refine(f, PoleTuple(start))
            assert report.final_gradient_norm_sq <= 1e-18, f"case {i}"
            assert tuple_distance(report.tuple, truth) <= 1e-6, f"case {i}"
