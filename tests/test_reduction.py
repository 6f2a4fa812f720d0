"""Reduction recursion, energy, and the complex gradient."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blaschke import (
    BlaschkeModel,
    PoleTuple,
    Signal,
    circle_points,
    eval_interior,
    norm_sq,
    project,
    spectrum,
    synthesize,
)
from blaschke import reduction
from blaschke.hardy import disk_points
from blaschke.reduction import (
    Objective,
    derivative_reduce_step,
    energy,
    energy_gradient,
    error_energy,
    pole_rows,
    pole_values,
    reduce_chain,
    reduce_step,
    remainder_jacobian,
    series_value,
)
from blaschke.targets import BUILTIN_FORMS, builtin_signal, builtin_truth

from conftest import (POLE, gradient_fd_error, monomial_signal, quadrature_inner,
                      random_smooth_signal, random_tuple, separated, szego_signal)
from test_invariance import MIRROR, amplitude, check, order, rotation


def kernel_coefficient(f, a):
    """<f, e_a> = sqrt(1-|a|^2) * f(a) / (1 - a^N) from the series value."""
    value = series_value(f.samples, a)
    return value * np.sqrt(1.0 - abs(a) ** 2) / (1.0 - a**f.n_samples)


def spectral_derivative(f):
    """Samples of f' on the circle: coefficient k of f' is (k+1) * f_hat(k+1)."""
    c = np.fft.fft(f) / f.size
    dc = np.zeros_like(c)
    dc[:-1] = np.arange(1, c.size) * c[1:]
    return np.fft.ifft(dc) * dc.size


def step(f, a):
    """One reduction step of the Signal f, with the pole checked and its row
    set built as reduce_chain does."""
    poles = np.atleast_1d(disk_points(a, "pole"))
    return Signal(reduce_step(f.samples, a, pole_rows(circle_points(f.n_samples), poles)[0]))


def extracted_amount(f, a):
    """The amount c that reduce_step takes out at pole a: with the w row set
    to 1 and the Moebius row to 0, its update f (1 - conj(a) z) w - c w is -c."""
    row = pole_rows(circle_points(f.n_samples), np.array([complex(a)]))[0]
    row[0], row[2] = 1.0, 0.0
    return -reduce_step(f.samples, a, row)[0]


def remainders(f, order):
    """Every remainder of the chain through `order`, walked step by step from f."""
    walk = [f]
    for a in np.asarray(order, dtype=complex):
        walk.append(step(walk[-1], a))
    return walk


def derivative_step(f, fp, a):
    """derivative_reduce_step on Signals, with the stage value reduce_chain passes."""
    value = series_value(f.samples, a)
    return Signal(derivative_reduce_step(f.samples, fp.samples, a, value))


def derivative_of(f):
    return Signal(spectral_derivative(f.samples))


def branch_gradient(f, tup):
    """d(-E)/da_l by definition: reduce through every pole but a_l, then
    conj(g) (conj(a) g - (1-|a|^2) g') with g, g' the remainder and its
    derivative at a = a_l."""
    poles = tup.poles
    grad = np.empty(poles.size, dtype=complex)
    for ell, a in enumerate(poles):
        h, hp = f, derivative_of(f)
        for b in np.roll(poles, -(ell + 1))[:-1]:
            h, hp = step(h, b), derivative_step(h, hp, b)
        g, gp = series_value(h.samples, a), series_value(hp.samples, a)
        grad[ell] = np.conj(g) * (np.conj(a) * g - (1.0 - abs(a) ** 2) * gp)
    return grad


class TestSpectralDerivative:
    def test_monomial(self):
        for k in (1, 2, 5):
            d = spectral_derivative(monomial_signal(k, 64).samples)
            want = k * circle_points(64) ** (k - 1)
            np.testing.assert_allclose(d, want, atol=1e-12)

    def test_finite_difference(self, rng):
        f = random_smooth_signal(rng, 64)
        f, d = spectrum(f), spectrum(derivative_of(f))
        h = 1e-6
        for z in (0.3, -0.2 + 0.4j, 0.5j):
            fd = (eval_interior(f, z + h) - eval_interior(f, z - h)) / (2 * h)
            assert eval_interior(d, z) == pytest.approx(fd, rel=1e-6)


class TestKernelCoefficient:
    def test_matches_inner_product(self, rng):
        f = random_smooth_signal(rng, 256)
        for a in (0.5, -0.3 + 0.4j, 0.0, 0.85j):
            want = quadrature_inner(f, szego_signal(a, 256))
            assert kernel_coefficient(f, a) == pytest.approx(want, abs=1e-13)

    def test_series_value_matches_direct_series(self, rng):
        f = random_smooth_signal(rng, 1024)
        for a in (0.0, 0.5, -0.3 + 0.4j, 0.98 * np.exp(0.7j)):
            assert series_value(f.samples, a) == pytest.approx(
                eval_interior(spectrum(f), a), abs=1e-13
            )

    @pytest.mark.parametrize("radius", [0.97, 0.984, 0.99])
    def test_pole_values_keep_the_aliasing_factor(self, rng, radius):
        # at N = 1024 the factor 1 - a^N differs from 1 by 3.4e-5 at |a| = 0.99
        # and 6.7e-8 at 0.984, so a pole_values without it fails here
        f = random_smooth_signal(rng, 1024).samples
        poles = radius * np.exp(np.array([0.7j, -2.1j, 3.0j]))
        values = pole_values(f, poles, pole_rows(circle_points(1024), poles)[:, 1])
        want = [series_value(f, a) for a in poles]
        np.testing.assert_allclose(values, want, rtol=1e-13, atol=0.0)


class TestReduceStep:
    def test_full_extraction_of_kernel(self):
        a = 0.3 - 0.4j
        resid = step(szego_signal(a, 256), a)
        assert norm_sq(resid) < 1e-10

    def test_monomial_shift_down(self):
        got = step(monomial_signal(1, 64), 0.0)
        np.testing.assert_allclose(got.samples, np.ones(64), atol=1e-12)
        got = step(monomial_signal(2, 64), 0.0)
        np.testing.assert_allclose(got.samples, circle_points(64), atol=1e-12)

    def test_boundary_pole_rejected(self):
        with pytest.raises(ValueError):
            step(monomial_signal(1, 64), 1.0)

    def test_extracted_amount_matches_series_value(self, rng):
        # c = (1-|a|^2) mean(f z w) is f(a) (1-|a|^2)/(1 - a^N): the factors
        # (1 - a^N) of the series value and of the extraction cancel
        for n_samples in (64, 1024):
            f = random_smooth_signal(rng, n_samples)
            for a in (0.0, 0.5, -0.3 + 0.4j, 0.98 * np.exp(0.7j)):
                value = series_value(f.samples, a)
                want = value * (1.0 - abs(a) ** 2) / (1.0 - a**n_samples)
                assert extracted_amount(f, a) == pytest.approx(want, rel=1e-13)

    def test_norm_telescopes(self, rng):
        # ||f||^2 = (extracted coefficient)^2 + ||next remainder||^2 exactly
        f = random_smooth_signal(rng, 256)
        a = 0.4 - 0.2j
        c = kernel_coefficient(f, a)
        nxt = step(f, a)
        assert norm_sq(f) == pytest.approx(abs(c) ** 2 + norm_sq(nxt), abs=1e-12)


class TestDerivativeReduceStep:
    def test_kernel_reduction_kills_derivative(self):
        a = 0.3 + 0.2j
        f = szego_signal(a, 256)
        fp = derivative_of(f)
        nxt = step(f, a)
        nxt_p = derivative_step(f, fp, a)
        assert norm_sq(nxt) < 1e-10
        assert norm_sq(nxt_p) < 1e-8

    def test_monomial_case(self):
        f = monomial_signal(2, 64)
        fp = derivative_of(f)
        nxt_p = derivative_step(f, fp, 0.0)
        np.testing.assert_allclose(nxt_p.samples, np.ones(64), atol=1e-12)

    def test_against_finite_differences(self, rng):
        tup = random_tuple(rng, 3)
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        fj = synthesize(BlaschkeModel(tup, coeffs), 256)
        fjp = derivative_of(fj)
        h = 1e-6
        pts = 0.6 * (rng.uniform(-1, 1, 10) + 1j * rng.uniform(-1, 1, 10)) / np.sqrt(2)
        for a in list(tup.poles) + [None]:
            spec, spec_p = spectrum(fj), spectrum(fjp)
            for z in pts:
                fd = (eval_interior(spec, z + h) - eval_interior(spec, z - h)) / (2 * h)
                assert eval_interior(spec_p, z) == pytest.approx(fd, rel=1e-6, abs=1e-9)
            if a is not None:
                fj, fjp = step(fj, a), derivative_step(fj, fjp, a)


class TestEnergy:
    def test_kernel_target(self):
        a = 0.3 - 0.5j
        assert energy(szego_signal(a, 256), PoleTuple([a])) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_monomial_closed_form(self):
        # E = (1-|a|^2) |a|^(2k) for f = tau^k and a single pole
        for k in (1, 2, 5):
            f = monomial_signal(k, 1024)
            for a in (0.3, 0.5j, -0.6 + 0.2j):
                want = (1.0 - abs(a) ** 2) * abs(a) ** (2 * k)
                assert energy(f, PoleTuple([a])) == pytest.approx(want, abs=1e-12)

    def test_monomial_maximizer(self):
        # (1-x^2) x^(2k) over x in [0,1) peaks at x = sqrt(k/(k+1))
        f = monomial_signal(2, 256)
        x_star = np.sqrt(2.0 / 3.0)
        e_star = energy(f, PoleTuple([x_star]))
        for dx in (-0.05, 0.05):
            assert energy(f, PoleTuple([x_star + dx])) < e_star

    def test_exact_form_has_full_energy(self):
        poles, coeffs = BUILTIN_FORMS["ex5_3"]
        tup = PoleTuple(poles)
        f = synthesize(BlaschkeModel(tup, coeffs), 1024)
        assert energy(f, tup) == pytest.approx(norm_sq(f), abs=1e-8)

    def test_telescoping(self, rng):
        f = random_smooth_signal(rng, 256)
        tup = random_tuple(rng, 3)
        total = energy(f, tup) + norm_sq(remainders(f, tup.poles)[-1])
        assert total == pytest.approx(norm_sq(f), abs=1e-9)

    def test_permutation_invariance(self, rng):
        f = random_smooth_signal(rng, 256).samples
        poles = random_tuple(rng, 4).poles
        check(lambda g, p: {"energy": energy(Signal(g), PoleTuple(p))}, f, poles,
              [order(perm) for perm in ([1, 0, 3, 2], [3, 2, 1, 0], [2, 0, 3, 1])],
              {"energy": 1e-10})

    def test_error_energy_complements(self, rng):
        f = random_smooth_signal(rng, 256)
        tup = random_tuple(rng, 3)
        assert energy(f, tup) + error_energy(f, tup) == pytest.approx(
            norm_sq(f), abs=1e-9
        )

    def test_non_finite_result_raises(self):
        # samples are finite, but their squares overflow
        f = Signal(np.full(64, 1e200))
        with np.errstate(over="ignore"):
            with pytest.raises(ArithmeticError):
                energy(f, PoleTuple([0.3]))
            with pytest.raises(ArithmeticError):
                error_energy(f, PoleTuple([0.3]))

    def test_matches_projection_residual(self, rng):
        f = random_smooth_signal(rng, 256)
        tup = random_tuple(rng, 3)
        resid = project(f, tup).residual_error
        assert energy(f, tup) + resid == pytest.approx(norm_sq(f), abs=1e-9)
        # repeated poles: z^3 at [0, 0, 0, 0.5] leaves 1 - |<z^3, B_4>|^2 = 1/4
        f, tup = monomial_signal(3, 256), PoleTuple([0, 0, 0, 0.5])
        assert project(f, tup).residual_error == pytest.approx(0.25, abs=1e-12)
        assert error_energy(f, tup) == pytest.approx(0.25, abs=1e-12)


class TestEnergyGradient:
    def test_stationary_at_monomial_maximizer(self):
        f = monomial_signal(1, 1024)
        d_minus_e = -np.conj(energy_gradient(f, PoleTuple([1.0 / np.sqrt(2.0)])))
        assert np.max(np.abs(d_minus_e)) <= 1e-8

    def test_stationary_at_kernel_pole(self):
        b = 0.4 + 0.3j
        d_minus_e = -np.conj(energy_gradient(szego_signal(b, 256), PoleTuple([b])))
        assert np.max(np.abs(d_minus_e)) <= 1e-8

    def test_finite_difference_relations(self, rng):
        # dE/dx = -2 Re d(-E)/dz and dE/dy = +2 Im d(-E)/dz
        for trial in range(4):
            n = 2 + trial % 3
            tup = random_tuple(rng, n)
            coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            f = synthesize(BlaschkeModel(tup, coeffs), 256)
            assert gradient_fd_error(f, random_tuple(rng, n)) <= 1e-5

    def test_ascent_direction_sign(self):
        # below the optimum radius the ascent direction points outward
        f = monomial_signal(2, 256)
        x_star = np.sqrt(2.0 / 3.0)
        low = energy_gradient(f, PoleTuple([x_star - 0.1]))
        high = energy_gradient(f, PoleTuple([x_star + 0.1]))
        assert np.real(low[0]) > 0
        assert np.real(high[0]) < 0

    def test_finite_differences_at_repeated_poles(self):
        # acceptance criterion 3's central-difference check, at tuples whose
        # poles coincide: no kernel divides by a pole difference
        z = circle_points(256)
        f = Signal(np.exp(z) + 1.0 / (1.5 - z))
        for poles in ([0.3, 0.3, 0.5j], [0, 0, 0], [0.2 + 0.1j] * 3 + [-0.4]):
            assert gradient_fd_error(f, PoleTuple(poles)) <= 1e-5

    def test_closed_form_matches_branch_definition(self, rng):
        f = random_smooth_signal(rng, 1024)
        tuples = [random_tuple(rng, n) for n in (2, 5, 10)]
        near_boundary = random_tuple(rng, 10).poles.copy()
        near_boundary[0] = 0.98 * np.exp(0.7j)
        tuples.append(PoleTuple(near_boundary))
        for tup in tuples:
            ref = branch_gradient(f, tup)
            got = -np.conj(energy_gradient(f, tup))
            bound = 1e-10 + 4 * np.max(np.abs(tup.poles)) ** 1024
            assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref))

    def test_non_finite_gradient_raises(self):
        # samples are finite, but the products of their means overflow
        f = Signal(np.full(64, 1e200))
        with np.errstate(over="ignore"):
            with pytest.raises(ArithmeticError):
                energy_gradient(f, PoleTuple([0.3]))


def central_jacobian(f, poles, h=1e-6):
    """d f_n/d Re a_l, then d f_n/d Im a_l, by central differences of reduce_chain."""
    rows = []
    for part in (h, 1j * h):
        for ell in range(poles.size):
            up, dn = poles.copy(), poles.copy()
            up[ell] += part
            dn[ell] -= part
            rows.append((reduce_chain(f.samples, up) - reduce_chain(f.samples, dn)) / (2 * h))
    return np.array(rows)


class TestRemainderJacobian:
    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_central_differences_on_random_tuples(self, rng, n):
        f = random_smooth_signal(rng, 256)
        poles = random_tuple(rng, n).poles
        want = central_jacobian(f, poles)
        gap = np.max(np.abs(remainder_jacobian(f, PoleTuple(poles)) - want))
        # h = 1e-6 leaves O(h^2) truncation and O(eps/h) round-off in the differences
        assert gap <= 1e-8 * np.max(np.abs(want))

    def test_central_differences_at_repeated_poles(self):
        z = circle_points(256)
        f = Signal(np.exp(z) + 1.0 / (1.5 - z))
        for poles in ([0.3, 0.3, 0.5j], [0, 0, 0], [0.2 + 0.1j] * 3 + [-0.4]):
            poles = np.array(poles, dtype=complex)
            want = central_jacobian(f, poles)
            gap = np.max(np.abs(remainder_jacobian(f, PoleTuple(poles)) - want))
            assert gap <= 1e-8 * np.max(np.abs(want))

    def test_central_differences_at_the_aliasing_gap(self):
        # the closed form takes each pole last, as if the remainder did not
        # depend on the pole order; the sampled kernel breaks that by
        # O(max|a|^N), 5.0e-8 at ex5_4's pole |a| = 0.984 and N = 1024
        f, poles = builtin_signal("ex5_4", 1024), builtin_truth("ex5_4").poles
        want = central_jacobian(f, poles)
        gap = np.max(np.abs(remainder_jacobian(f, PoleTuple(poles)) - want))
        alias = float(np.max(np.abs(poles))) ** f.n_samples
        assert gap <= (1e-8 + 4 * alias) * np.max(np.abs(want))

    def test_gradient_of_the_squared_error(self, rng):
        # A = mean|f_n|^2, so 2 Re(J^H f_n)/N on [Re a; Im a] is -2 gradE
        for n in (1, 3, 6):
            f = random_smooth_signal(rng, 256)
            tup = random_tuple(rng, n)
            state = Objective(f)
            rest = state.evaluate(tup.poles)[1]
            grad_a = 2.0 * np.real(np.conj(remainder_jacobian(state, tup)) @ rest) / rest.size
            grad = energy_gradient(state, tup)
            want = -2.0 * np.concatenate([grad.real, grad.imag])
            assert np.max(np.abs(grad_a - want)) <= 1e-12 * np.max(np.abs(want))

    def test_runs_no_reduction_step(self, rng, monkeypatch):
        f = random_smooth_signal(rng, 256)
        tup = random_tuple(rng, 4)
        steps = []

        def counted(*args):
            steps.append(args[1])
            return reduce_step(*args)

        monkeypatch.setattr(reduction, "reduce_step", counted)
        state = Objective(f)
        error_energy(state, tup)
        assert len(steps) == 4
        jac = remainder_jacobian(state, tup)
        assert len(steps) == 4
        assert jac.shape == (8, 256)


class TestReductionTrail:
    @given(
        n_samples=st.sampled_from([256, 512, 1024]),
        poles=st.lists(POLE, min_size=1, max_size=10).filter(separated),
        decay=st.floats(0.5, 0.999),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_rest_independent_of_pole_order(self, n_samples, poles, decay, seed, data):
        # the cyclic search's shared remainders rest on this: up to the
        # O(max|a|^N) aliasing of the sampled kernel, the remainder through a
        # set of poles does not depend on their order
        f = random_smooth_signal(np.random.default_rng(seed), n_samples, decay)
        poles = np.array(poles)
        perm = data.draw(st.permutations(range(poles.size)))
        diff = reduce_chain(f.samples, poles[perm]) - reduce_chain(f.samples, poles)
        alias = float(np.max(np.abs(poles))) ** n_samples
        bound = (1e-12 + 4 * poles.size * alias) * np.sqrt(norm_sq(f))
        assert np.sqrt(np.mean(np.abs(diff) ** 2)) <= bound

    def test_rest_matches_step_walk(self, rng):
        f = random_smooth_signal(rng, 128)
        order = [0.3, -0.2j, 0.98 * np.exp(0.7j)]
        chain = reduce_chain(f.samples, order)
        np.testing.assert_array_equal(chain, remainders(f, order)[-1].samples)

    def test_remainders_stay_analytic(self, rng):
        # high-order coefficients (implied aliased tail) stay tiny
        f = random_smooth_signal(rng, 256)
        for fj in remainders(f, [0.3, -0.2j, 0.5 + 0.1j]):
            tail = np.sum(np.abs(spectrum(fj).coeffs[200:]) ** 2)
            assert tail <= 1e-8 * norm_sq(fj)

    def test_step_matches_reference_definition(self, rng):
        # (f - <f, e_a> e_a) (1 - conj(a) z) / (z - a)
        f = random_smooth_signal(rng, 1024)
        a = 0.98 * np.exp(0.7j)
        e_a = szego_signal(a, 1024)
        z = circle_points(1024)
        resid = f.samples - quadrature_inner(f, e_a) * e_a.samples
        want = resid * (1.0 - np.conj(a) * z) / (z - a)
        np.testing.assert_allclose(step(f, a).samples, want, rtol=0, atol=1e-12)


class TestSharedEvaluation:
    """Within one Objective, error_energy, energy and energy_gradient share one chain."""

    def test_reuse_equals_cold_evaluation(self, rng):
        samples = random_smooth_signal(rng, 1024).samples
        tup = random_tuple(rng, 5)
        warm = Objective(Signal(samples))
        err_warm = error_energy(warm, tup)
        grad_warm = energy_gradient(warm, tup)
        grad_cold = energy_gradient(Signal(samples), tup)
        np.testing.assert_array_equal(-np.conj(grad_warm), -np.conj(grad_cold))
        assert energy(warm, tup) == energy(Signal(samples), tup)
        # and error_energy after a gradient, against a cold Signal
        warm = Objective(Signal(samples))
        energy_gradient(warm, tup)
        assert error_energy(warm, tup) == error_energy(Signal(samples), tup) == err_warm

    def test_gradient_at_evaluated_tuple_runs_no_chain(self, rng, monkeypatch):
        f = random_smooth_signal(rng, 256)
        tup = random_tuple(rng, 4)
        steps = []

        def counted(*args):
            steps.append(args[1])
            return reduce_step(*args)

        monkeypatch.setattr(reduction, "reduce_step", counted)
        state = Objective(f)
        error_energy(state, tup)
        assert len(steps) == 4
        energy_gradient(state, tup)
        energy(state, tup)
        assert len(steps) == 4
        # a Signal gets a fresh Objective per call, so each call runs a chain
        energy_gradient(f, tup)
        error_energy(f, tup)
        assert len(steps) == 12

    def test_second_tuple_does_not_reuse_first_entry(self, rng):
        samples = random_smooth_signal(rng, 1024).samples
        first, second = random_tuple(rng, 3), random_tuple(rng, 3)
        state = Objective(Signal(samples))
        energy_gradient(state, first)
        for tup in (second, PoleTuple(first.poles[::-1]), first):
            got = energy_gradient(state, tup)
            want = energy_gradient(Signal(samples), tup)
            np.testing.assert_array_equal(-np.conj(got), -np.conj(want))
            assert error_energy(state, tup) == error_energy(Signal(samples), tup)
        got = -np.conj(energy_gradient(state, second))
        assert not np.array_equal(got, -np.conj(energy_gradient(state, first)))
        # the one entry now holds the second tuple's rows, not the first's:
        # the w = 1/(z - a) row of each row set, at z = 1
        rows, _ = state.evaluate(second.poles)
        np.testing.assert_array_equal(rows[:, 0, 0], 1.0 / (1.0 - second.poles))

    def test_memoized_arrays_are_read_only(self, rng):
        f = random_smooth_signal(rng, 256)
        tup = random_tuple(rng, 3)
        state = Objective(f)
        energy_gradient(state, tup)
        for array in (*state.evaluate(tup.poles), state.fine_times_z):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_evaluation_matches_reduce_chain(self, rng):
        # the N-point chain reads the even samples of the 2N-point rows,
        # which are the N-point rows exactly
        f = random_smooth_signal(rng, 1024)
        tup = random_tuple(rng, 4)
        chain = reduce_chain(f.samples, tup.poles)
        _, rest = Objective(f).evaluate(tup.poles)
        np.testing.assert_array_equal(rest, chain)

    def test_reduce_chain_rejects_boundary_poles(self, rng):
        f = random_smooth_signal(rng, 64)
        for order in ([0.3, 1.0], [1.2j], [0.2, -0.5, -1.0j]):
            with pytest.raises(ValueError):
                reduce_chain(f.samples, order)


def interleaved_pole_rows(z, poles):
    """pole_rows with each pole's three rows adjacent in one n x 3 x M array."""
    rows = np.empty((poles.size, 3, z.size), dtype=complex)
    w, zw, moebius = rows[:, 0], rows[:, 1], rows[:, 2]
    np.subtract(z, poles[:, None], out=w)
    np.divide(1.0, w, out=w)
    np.multiply(z, w, out=zw)
    np.multiply(np.conj(poles)[:, None], zw, out=moebius)
    np.subtract(w, moebius, out=moebius)
    return rows


class TestRowLayout:
    """The row sets are three contiguous blocks, one per kind, with the same bits."""

    @pytest.mark.parametrize("n", [1, 4, 30])
    @pytest.mark.parametrize("n_points", [64, 2048])
    def test_each_kind_is_one_contiguous_block(self, rng, n, n_points):
        poles = random_tuple(rng, n, gap=0.01).poles
        z = circle_points(n_points)
        rows = pole_rows(z, poles)
        assert rows.shape == (n, 3, n_points)
        for k in range(3):
            assert rows[:, k].flags.c_contiguous
        for j in range(n):
            np.testing.assert_array_equal(rows[j], pole_rows(z, poles[j:j + 1])[0])

    @pytest.mark.parametrize("n", [1, 4, 30])
    @pytest.mark.parametrize("n_samples", [64, 2048])
    def test_objective_matches_interleaved_rows(self, rng, monkeypatch, n, n_samples):
        f = random_smooth_signal(rng, n_samples)
        tup = random_tuple(rng, n, gap=0.01)
        rows, rest = Objective(f).evaluate(tup.poles)
        grad = energy_gradient(f, tup)
        monkeypatch.setattr(reduction, "pole_rows", interleaved_pole_rows)
        want_rows, want_rest = Objective(f).evaluate(tup.poles)
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(rest, want_rest)
        np.testing.assert_array_equal(-np.conj(grad), -np.conj(energy_gradient(f, tup)))


def kernel(f, poles):
    g, tup = Signal(f), PoleTuple(poles)
    return {"error": error_energy(g, tup) / norm_sq(g), "gradient": energy_gradient(g, tup)}


class TestInvariances:
    @given(
        n_samples=st.sampled_from([256, 1024]),
        poles=st.lists(POLE, min_size=1, max_size=10).filter(separated),
        decay=st.floats(0.5, 0.999),
        seed=st.integers(0, 2**32 - 1),
        log_amp=st.floats(-4.0, 4.0),
        phase=st.floats(0.0, 2.0 * np.pi),
        data=st.data(),
    )
    def test_error_and_gradient(self, n_samples, poles, decay, seed, log_amp, phase, data):
        # E / ||f||^2 and the gradient of E to 1e-12 relative, under a
        # rotation by any sample step; a reorder also moves the chain's
        # remainder by its O(max|a|^N) aliasing
        f = random_smooth_signal(np.random.default_rng(seed), n_samples, decay).samples
        poles = np.array(poles)
        k = data.draw(st.integers(0, n_samples - 1))
        moves = [rotation(k, n_samples), MIRROR, amplitude(10.0**log_amp * np.exp(1j * phase))]
        check(kernel, f, poles, moves, {"error": 1e-12, "gradient": 1e-12})
        perm = data.draw(st.permutations(range(poles.size)))
        tol = 1e-12 + 4 * poles.size * float(np.max(np.abs(poles))) ** n_samples
        check(kernel, f, poles, [order(perm)], {"error": tol, "gradient": tol})
