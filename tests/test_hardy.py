"""Core representations: signals, spectra, the TM system, projection."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blaschke import (
    BlaschkeModel,
    PoleTuple,
    Signal,
    circle_points,
    inner_product,
    inverse_spectrum,
    norm_sq,
    project,
    spectrum,
    synthesize,
    szego_kernel,
    szego_signal,
    tm_basis,
)
from blaschke.pipeline import (
    BUILTIN_FORMS,
    builtin_signal,
    builtin_truth,
    random_blaschke_form,
)

from conftest import monomial_signal, quadrature_inner, random_smooth_signal


class TestSignalConstruction:
    def test_constant_signal(self):
        f = Signal([1, 1, 1, 1])
        assert f.n_samples == 4
        np.testing.assert_allclose(f.samples, np.ones(4))

    def test_identity_function_samples(self):
        f = Signal([1, 1j, -1, -1j])
        np.testing.assert_allclose(f.samples, circle_points(4))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            Signal([1.0, 2.0, 3.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Signal([1.0, np.nan, 0.0, 0.0])

    def test_samples_read_only(self):
        f = Signal([1, 2, 3, 4])
        with pytest.raises(ValueError):
            f.samples[0] = 0.0


class TestSpectrum:
    def test_constant(self):
        s = spectrum(Signal([1, 1, 1, 1]))
        np.testing.assert_allclose(s.coeffs, [1, 0, 0, 0], atol=1e-15)

    def test_pure_harmonic(self):
        for k in (1, 3, 7):
            s = spectrum(monomial_signal(k, 16))
            expect = np.zeros(16)
            expect[k] = 1.0
            np.testing.assert_allclose(s.coeffs, expect, atol=1e-13)

    def test_rational_function_matches_geometric_series(self):
        # 1/(2 + tau^4) = (1/2) sum_m (-1/2)^m tau^(4m)
        n = 1024
        tau = circle_points(n)
        s = spectrum(Signal(1.0 / (2.0 + tau**4)))
        expect = np.zeros(n, dtype=complex)
        for m in range(n // 4):
            expect[4 * m] = 0.5 * (-0.5) ** m
        np.testing.assert_allclose(s.coeffs, expect, atol=1e-12)

    def test_inverse_round_trip(self, rng):
        f = random_smooth_signal(rng, 64)
        g = inverse_spectrum(spectrum(f))
        np.testing.assert_allclose(g.samples, f.samples, atol=1e-13)


class TestInnerProduct:
    def test_unit_constant(self):
        one = Signal([1, 1, 1, 1])
        assert inner_product(one, one) == pytest.approx(1.0)

    def test_harmonic_orthogonality(self):
        assert abs(inner_product(monomial_signal(2, 16), monomial_signal(5, 16))) < 1e-14

    def test_kernel_normalization(self):
        e = szego_signal(0.5, 1024)
        assert inner_product(e, e) == pytest.approx(1.0, abs=1e-10)
        # independent sample-domain quadrature oracle
        assert quadrature_inner(e, e) == pytest.approx(1.0, abs=1e-10)

    def test_spectral_matches_sample_quadrature(self, rng):
        f = random_smooth_signal(rng, 64)
        g = random_smooth_signal(rng, 64)
        assert inner_product(f, g) == pytest.approx(quadrature_inner(f, g), abs=1e-12)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            inner_product(Signal([1, 1]), Signal([1, 1, 1, 1]))

    def test_parseval(self, rng):
        f = random_smooth_signal(rng, 128)
        lhs = float(np.sum(np.abs(spectrum(f).coeffs) ** 2))
        assert abs(lhs - norm_sq(f)) <= 1e-12 * norm_sq(f)


class TestSzegoKernel:
    def test_center_pole_is_constant_one(self):
        z = np.array([0.3, -0.5j, 0.1 + 0.1j])
        np.testing.assert_allclose(szego_kernel(0.0, z), np.ones(3))

    def test_value_at_origin(self):
        assert szego_kernel(0.5, np.array([0.0]))[0] == pytest.approx(np.sqrt(0.75))

    def test_complex_substitution(self):
        got = szego_kernel(0.5j, np.array([1.0 + 0j]))[0]
        assert got == pytest.approx(np.sqrt(0.75) / (1.0 + 0.5j))

    def test_boundary_parameter_rejected(self):
        with pytest.raises(ValueError):
            szego_kernel(1.0, np.array([0.0]))


class TestTmBasis:
    def test_first_element_is_kernel(self):
        tup = PoleTuple([0.3, -0.4j])
        z = circle_points(64)
        np.testing.assert_allclose(tm_basis(tup, 1, z), szego_kernel(0.3, z))

    def test_center_tuple_constant(self):
        tup = PoleTuple([0.0])
        np.testing.assert_allclose(tm_basis(tup, 1, circle_points(8)), np.ones(8))

    def test_orthogonality(self):
        tup = PoleTuple([0.3, -0.4j])
        z = circle_points(1024)
        b1 = Signal(tm_basis(tup, 1, z))
        b2 = Signal(tm_basis(tup, 2, z))
        assert abs(inner_product(b1, b2)) < 1e-10
        assert inner_product(b2, b2) == pytest.approx(1.0, abs=1e-10)

    def test_index_out_of_range(self):
        tup = PoleTuple([0.3])
        with pytest.raises(IndexError):
            tm_basis(tup, 2, circle_points(8))
        with pytest.raises(IndexError):
            tm_basis(tup, 0, circle_points(8))


class TestPoleTupleValidation:
    def test_pole_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            PoleTuple([0.5, 1.2])
        # NaN is not inside the disk either
        with pytest.raises(ValueError):
            PoleTuple([0.5, np.nan])

    def test_duplicate_poles_rejected(self):
        with pytest.raises(ValueError):
            PoleTuple([0.5, 0.5])
        # distinct, but closer than MIN_SEPARATION = 1e-12
        with pytest.raises(ValueError):
            PoleTuple([0.5, 0.5 + 1e-14])
        assert PoleTuple([0.5, 0.5 + 1e-11]).degree == 2

    def test_degree(self):
        assert PoleTuple([0.1, 0.2, 0.3j]).degree == 3


class TestProject:
    def test_basis_element_projection(self):
        tup = PoleTuple([0.3])
        f = Signal(tm_basis(tup, 1, circle_points(1024)))
        model = project(f, tup)
        np.testing.assert_allclose(model.coeffs, [1.0], atol=1e-10)
        assert model.residual_error < 1e-10

    def test_builtin_form_round_trip(self):
        poles, coeffs = BUILTIN_FORMS["ex5_3"]
        tup = PoleTuple(poles)
        f = synthesize(BlaschkeModel(tup, coeffs), 1024)
        model = project(f, tup)
        np.testing.assert_allclose(model.coeffs, coeffs, atol=1e-8)
        assert model.residual_error <= 1e-10

    def test_monomial_against_geometric_series(self):
        # <tau^5, e_a> = sqrt(1-|a|^2) * conj(a)^5 for a = 0.5
        f = monomial_signal(5, 1024)
        model = project(f, PoleTuple([0.5]))
        assert model.coeffs[0] == pytest.approx(np.sqrt(0.75) * 0.5**5, abs=1e-12)

    def test_bessel_inequality(self, rng):
        f = random_smooth_signal(rng, 256)
        model = project(f, PoleTuple([0.4, -0.3j, 0.2 + 0.5j]))
        assert float(np.sum(np.abs(model.coeffs) ** 2)) <= norm_sq(f) + 1e-12
        assert model.residual_error >= 0.0

    def test_guard_scales_with_signal(self):
        # a large amplitude once tripped a round-off guard on the residual
        # that was not relative to ||f||^2; the coefficients scale with f
        tup, coeffs = random_blaschke_form(10, 0)
        f = synthesize(BlaschkeModel(tup, coeffs), 1024)
        model = project(Signal(1e3 * f.samples), tup)
        np.testing.assert_allclose(model.coeffs, 1e3 * coeffs, atol=1e-5)
        assert model.residual_error >= 0.0

    def test_residual_is_model_error_near_boundary(self):
        # ex5_4 has a pole at |a| = 0.984, so at N = 1024 the sampled TM
        # system is orthonormal only to ~1e-7; the residual must still be
        # the error of the model that project returns
        f = builtin_signal("ex5_4", 1024)
        model = project(f, builtin_truth("ex5_4"))
        direct = norm_sq(Signal(f.samples - synthesize(model, 1024).samples))
        assert abs(model.residual_error - direct) <= 1e-6 * direct

    def test_permutation_invariant_residual(self, rng):
        f = random_smooth_signal(rng, 256)
        poles = np.array([0.4, -0.3j, 0.2 + 0.5j])
        r1 = project(f, PoleTuple(poles)).residual_error
        r2 = project(f, PoleTuple(poles[[2, 0, 1]])).residual_error
        assert r1 == pytest.approx(r2, abs=1e-12)


class TestReproducingProperty:
    def test_kernel_inner_product_evaluates(self, rng):
        from blaschke import eval_interior

        f = random_smooth_signal(rng, 256)
        for a in (0.5, -0.3 + 0.4j, 0.0, 0.7j):
            got = inner_product(f, szego_signal(a, 256))
            want = np.sqrt(1.0 - abs(a) ** 2) * eval_interior(f, a)
            assert got == pytest.approx(want, abs=1e-9)


class TestSynthesize:
    def test_constant_model(self):
        model = BlaschkeModel(PoleTuple([0.0]), [1.0])
        np.testing.assert_allclose(synthesize(model, 64).samples, np.ones(64))

    def test_round_trip_through_projection(self, rng):
        tup = PoleTuple([0.2, -0.5j, 0.3 + 0.3j])
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        # the second input is the size of the benchmark's roundtrip items
        for tup, coeffs, n_samples in (
            (tup, coeffs, 1024),
            (*random_blaschke_form(30, 3), 4096),
        ):
            f = synthesize(BlaschkeModel(tup, coeffs), n_samples)
            model = project(f, tup)
            np.testing.assert_allclose(model.coeffs, coeffs, atol=1e-8)

    @given(
        n=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        n_samples=st.sampled_from([1024, 4096]),
        log_amplitude=st.floats(-4.0, 4.0),
    )
    def test_round_trip_property(self, n, seed, n_samples, log_amplitude):
        tup, coeffs = random_blaschke_form(n, seed)
        coeffs = 10.0**log_amplitude * coeffs
        f = synthesize(BlaschkeModel(tup, coeffs), n_samples)
        model = project(f, tup)
        total = norm_sq(f)
        direct = norm_sq(Signal(f.samples - synthesize(model, n_samples).samples))
        assert np.max(np.abs(model.coeffs - coeffs)) <= 1e-12 * np.linalg.norm(coeffs)
        assert model.residual_error <= 1e-24 * total
        assert abs(model.residual_error - direct) <= 1e-24 * total

    def test_coefficient_count_must_match_degree(self):
        with pytest.raises(ValueError):
            BlaschkeModel(PoleTuple([0.1, 0.2]), [1.0])

    def test_negative_residual_rejected(self):
        with pytest.raises(ValueError):
            BlaschkeModel(PoleTuple([0.1]), [1.0], residual_error=-1.0)


class TestOrthonormalitySample:
    def test_random_tuples(self, rng):
        # small version; the full 50-tuple sweep runs in the acceptance suite
        z = circle_points(1024)
        for _ in range(5):
            n = int(rng.integers(1, 7))
            poles = []
            while len(poles) < n:
                w = rng.uniform(-0.9, 0.9) + 1j * rng.uniform(-0.9, 0.9)
                if abs(w) <= 0.9 and all(abs(w - p) > 1e-6 for p in poles):
                    poles.append(w)
            tup = PoleTuple(poles)
            basis = [Signal(tm_basis(tup, k, z)) for k in range(1, n + 1)]
            for j in range(n):
                for k in range(n):
                    got = inner_product(basis[j], basis[k])
                    assert abs(got - (1.0 if j == k else 0.0)) <= 1e-8
