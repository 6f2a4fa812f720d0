"""Core representations: signals, spectra, the TM system, projection."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blaschke import (
    BlaschkeModel,
    PoleTuple,
    Signal,
    Spectrum,
    circle_points,
    norm_sq,
    project,
    spectrum,
    synthesize,
)
import blaschke
from blaschke import PolarGrid, eval_interior, feval_table, ring_bounds
from blaschke.cgd import CgdConfig, cgd_refine
from blaschke.hardy import check_sample_count
from blaschke.pipeline import RunConfig, cafd_cgd_result
from blaschke.reduction import energy, energy_gradient, error_energy
from blaschke.search import SearchConfig
from blaschke.targets import BUILTIN_FORMS, builtin_signal, builtin_truth, random_blaschke_form

from conftest import (
    CLUSTER,
    REPEATED,
    band_limit,
    inverse_spectrum,
    loop_columns,
    monomial_signal,
    quadrature_inner,
    random_smooth_signal,
    sample_gram,
    synthesized_columns,
    szego_kernel,
    szego_signal,
)


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


@pytest.mark.parametrize("count", [64.0, True, "64"])
def test_non_integer_sample_count_rejected(count):
    # hardy.check_sample_count is the one test: each entry point raises its
    # ValueError naming the count, not a TypeError from the power-of-two test
    model = BlaschkeModel(PoleTuple([0.5]), [1.0])
    calls = [lambda: check_sample_count(count),
             lambda: circle_points(count),
             lambda: builtin_signal("ex5_5", count),
             lambda: synthesize(model, count)]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"got {count}")):
            call()


def test_numpy_integer_sample_count_accepted():
    model = BlaschkeModel(PoleTuple([0.5]), [1.0])
    check_sample_count(np.int64(64))
    assert circle_points(np.int32(64)).size == 64
    assert synthesize(model, np.int64(64)) == synthesize(model, 64)


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

    @pytest.mark.parametrize("n", [2**k for k in range(1, 13)])
    def test_normalization_inside_the_transform_is_fft_over_n(self, rng, n):
        # the 1/N of the forward-normalized FFT gives the bits of fft / N,
        # on random samples of every size and scale the package meets
        for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8):
            x = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            got = spectrum(Signal(x)).coeffs
            np.testing.assert_array_equal(got.view(float), (np.fft.fft(x) / n).view(float))

    def test_inverse_round_trip(self, rng):
        f = random_smooth_signal(rng, 64)
        g = inverse_spectrum(spectrum(f))
        np.testing.assert_allclose(g.samples, f.samples, atol=1e-13)


class TestInnerProduct:
    """The discrete inner product, the sample mean that `norm_sq` takes."""

    def test_parseval(self, rng):
        f = random_smooth_signal(rng, 128)
        lhs = float(np.sum(np.abs(spectrum(f).coeffs) ** 2))
        assert abs(lhs - norm_sq(f)) <= 1e-12 * norm_sq(f)


class TestSzegoKernel:
    """The kernel oracle the other tests build their signals from."""

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
    """The TM columns that `synthesize` sums, each as the form with one unit coefficient."""

    def test_first_element_is_kernel(self):
        tup = PoleTuple([0.3, -0.4j])
        got = synthesized_columns(tup, 64)[0]
        np.testing.assert_allclose(got, szego_kernel(0.3, circle_points(64)))

    def test_center_tuple_constant(self):
        tup = PoleTuple([0.0])
        np.testing.assert_allclose(synthesized_columns(tup, 8)[0], np.ones(8))

    def test_orthogonality(self):
        # the second tuple repeats a pole, which the running product allows
        for poles in ([0.3, -0.4j], [0.5, 0.5, 0.2j, 0.5]):
            tup = PoleTuple(poles)
            gram = sample_gram(synthesized_columns(tup, 1024))
            assert np.max(np.abs(gram - np.eye(tup.degree))) < 1e-10


class TestValueTypes:
    def test_value_equality(self):
        assert Signal([1, 2]) == Signal([1.0, 2.0])
        assert Signal([1, 2]) != Signal([1, 3])
        assert Spectrum([1, 2]) == Spectrum([1, 2])
        # same entries, another type
        assert Spectrum([1, 2]) != Signal([1, 2])
        assert PoleTuple([0.1, 0.2]) == PoleTuple([0.1, 0.2])
        assert PoleTuple([0.1, 0.2]) != PoleTuple([0.2, 0.1])
        assert PoleTuple([0.1]) != PoleTuple([0.1, 0.2])
        model = BlaschkeModel(PoleTuple([0.1]), [1.0], 0.5)
        assert model == BlaschkeModel(PoleTuple([0.1]), [1.0], 0.5)
        assert model != BlaschkeModel(PoleTuple([0.1]), [1.0], 0.25)
        assert model != BlaschkeModel(PoleTuple([0.1]), [2.0], 0.5)
        assert model != BlaschkeModel(PoleTuple([0.2]), [1.0], 0.5)

    @pytest.mark.parametrize("value", [
        Signal([1, 2]),
        Spectrum([1, 2]),
        PoleTuple([0.1]),
        BlaschkeModel(PoleTuple([0.1]), [1.0]),
    ], ids=["Signal", "Spectrum", "PoleTuple", "BlaschkeModel"])
    def test_unhashable(self, value):
        assert type(value).__hash__ is None
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)

    @pytest.mark.parametrize("make, field", [
        (Signal, "samples"),
        (Spectrum, "coeffs"),
        (lambda a: PoleTuple(0.25 * a), "poles"),
        (lambda a: BlaschkeModel(PoleTuple([0.1, 0.2, 0.3, 0.4]), a), "coeffs"),
    ], ids=["Signal", "Spectrum", "PoleTuple", "BlaschkeModel"])
    def test_two_dimensional_array_rejected(self, make, field):
        # four entries, so only the shape is wrong
        with pytest.raises(ValueError,
                           match=rf"^{field} must be one-dimensional, got shape \(2, 2\)$"):
            make(np.ones((2, 2)))

    def test_scalar_is_one_entry(self):
        model = BlaschkeModel(PoleTuple(0.5), 2.0)
        assert model.tuple.poles.shape == model.coeffs.shape == (1,)
        assert model.tuple == PoleTuple([0.5])
        for array in (model.tuple.poles, model.coeffs):
            assert array.dtype == complex and not array.flags.writeable

    def test_spectrum_counts_its_samples(self):
        coeffs = np.arange(8.0)
        assert Spectrum(coeffs).n_samples == coeffs.size == spectrum(Signal(coeffs)).n_samples


class TestNoStateOnSignal:
    """Transforming, evaluating or refining a Signal stores nothing on it."""

    @pytest.mark.parametrize("call", [
        spectrum,
        lambda f: project(f, PoleTuple([0.3, -0.5j])),
        lambda f: feval_table(f, PolarGrid(4, 8)),
        lambda f: ring_bounds(f, PolarGrid(4, 8)),
        lambda f: eval_interior(f, 0.5j),
        lambda f: energy(f, PoleTuple([0.3, -0.5j])),
        lambda f: error_energy(f, PoleTuple([0.3, -0.5j])),
        lambda f: energy_gradient(f, PoleTuple([0.3, -0.5j])),
        lambda f: cgd_refine(f, PoleTuple([0.3, -0.5j]), CgdConfig(max_iters=3)),
        lambda f: cafd_cgd_result(f, RunConfig(2, SearchConfig(radial=10, angular=16),
                                               CgdConfig(max_iters=3))),
    ], ids=["spectrum", "project", "feval_table", "ring_bounds", "eval_interior",
            "energy", "error_energy", "energy_gradient", "cgd_refine", "cafd_cgd_result"])
    def test_signal_unchanged(self, rng, call):
        # 256 samples: project runs below N, on f's spectrum
        f = random_smooth_signal(rng, 256)
        samples = f.samples
        call(f)
        assert vars(f) == {"samples": samples}


def _setattr_scopes(tree, scope=()):
    """The scope (class and function names) of every `object.__setattr__` in tree."""
    for node in ast.iter_child_nodes(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name) and node.value.id == "object"):
            yield scope
        named = isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _setattr_scopes(node, scope + (node.name,) if named else scope)


def test_setattr_only_finishes_construction_or_stores_an_array():
    # Signal and the other frozen types are plain values: object.__setattr__
    # may only finish a frozen dataclass in __post_init__ or store a field
    # by the value types' one array rule, never cache anything on a value
    sites = [(path.name, scope)
             for path in sorted(Path(blaschke.__file__).parent.glob("*.py"))
             for scope in _setattr_scopes(ast.parse(path.read_text()))]
    misplaced = [f"{name}:{'.'.join(scope)}" for name, scope in sites
                 if scope[-1:] != ("__post_init__",) and scope[-2:] != ("_ArrayValue", "_store")]
    assert misplaced == []
    assert ("hardy.py", ("_ArrayValue", "_store")) in sites


class TestPoleTupleValidation:
    def test_pole_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            PoleTuple([0.5, 1.2])
        # NaN is not inside the disk either
        with pytest.raises(ValueError):
            PoleTuple([0.5, np.nan])

    def test_repeated_poles_admitted(self):
        # a Takenaka-Malmquist system is defined for repeated poles too
        assert PoleTuple([0.5, 0.5]).degree == 2
        assert PoleTuple([0.5, 0.5 + 1e-14]).degree == 2

    def test_degree(self):
        assert PoleTuple([0.1, 0.2, 0.3j]).degree == 3


class TestProject:
    def test_basis_element_projection(self):
        tup = PoleTuple([0.3])
        f = szego_signal(0.3, 1024)
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
        f = random_smooth_signal(rng, 256)
        for a in (0.5, -0.3 + 0.4j, 0.0, 0.7j):
            got = quadrature_inner(f, szego_signal(a, 256))
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
            # a repeated pole
            (PoleTuple([0.5, 0.5, 0.2j, 0.5]), coeffs[[0, 1, 2, 0]], 1024),
        ):
            f = synthesize(BlaschkeModel(tup, coeffs), n_samples)
            model = project(f, tup)
            np.testing.assert_allclose(model.coeffs, coeffs, atol=1e-8)
            gap = np.max(np.abs(model.coeffs - coeffs))
            assert gap <= 1e-12 * np.linalg.norm(coeffs)

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

    def test_nan_residual_rejected(self):
        with pytest.raises(ValueError):
            BlaschkeModel(PoleTuple([0.1]), [1.0], residual_error=float("nan"))

    @pytest.mark.parametrize("coeffs, residual", [
        ([1.0], float("inf")),
        ([complex("nan+1j")], 0.0),
        ([complex(1.0, float("inf"))], 0.0),
    ])
    def test_non_finite_values_rejected(self, coeffs, residual):
        with pytest.raises(ValueError, match="finite"):
            BlaschkeModel(PoleTuple([0.1]), coeffs, residual_error=residual)


def loop_project(f, tup):
    """(coefficients, residual) of modified Gram-Schmidt at all N samples."""
    n = f.n_samples
    rest, coeffs = f.samples.copy(), []
    for b in loop_columns(tup.poles, n):
        c = np.vdot(b, rest) / n
        rest -= c * b
        coeffs.append(c)
    return np.array(coeffs), float(np.vdot(rest, rest).real) / n


def loop_synthesize(tup, coeffs, n_samples):
    """The samples of sum_k c_k B_k, summed at all N samples."""
    out = np.zeros(n_samples, dtype=complex)
    for c, b in zip(coeffs, loop_columns(tup.poles, n_samples)):
        out += c * b
    return out


class TestBandLimit:
    """project and synthesize at the band limit M against the N-point loop.

    ex5_4 (a pole at |a| = 0.984) starts, and so stays, at M = N, where the
    transforms are the loop bit for bit.  A zero model has no output to
    err in; it rides here to show that it takes the tuple's M.
    """

    def test_synthesize_matches_loop(self, rng, band_limits):
        n = 4096
        coeffs = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        cases = [
            (REPEATED, coeffs),
            (CLUSTER, coeffs),
            (CLUSTER, 1e-4 * coeffs),
            (CLUSTER, 1e4 * coeffs),
            (CLUSTER, 0.0 * coeffs),
        ]
        ms = []
        for tup, c in cases:
            got = synthesize(BlaschkeModel(tup, c), n).samples
            # in the H^2 norm, which is ||c|| for the form itself: at the
            # 30-fold pole the two sums differ pointwise by up to
            # 1.5e-12 * ||c||, each 6e-13 from an extended-precision sum
            gap = np.sqrt(np.mean(np.abs(got - loop_synthesize(tup, c, n)) ** 2))
            assert gap <= 1e-12 * np.linalg.norm(c)
            ms.append(band_limit(band_limits, n))
        # amplitude and a zero model leave M, a property of the tuple, alone
        assert ms[1] < n and ms[1:] == [ms[1]] * 4
        poles, c = BUILTIN_FORMS["ex5_4"]
        got = synthesize(BlaschkeModel(PoleTuple(poles), c), 1024).samples
        np.testing.assert_array_equal(got, loop_synthesize(PoleTuple(poles), c, 1024))
        assert band_limits == []

    def test_project_matches_loop(self, rng, band_limits):
        n = 4096
        coeffs = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        form = loop_synthesize(CLUSTER, coeffs, n)
        # white noise: f is not band-limited, and its tail beyond M is
        # most of the residual
        noise = 1e-3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        cases = [
            (REPEATED, loop_synthesize(REPEATED, coeffs, n)),
            (CLUSTER, form),
            (CLUSTER, form + noise),
            (CLUSTER, 1e-4 * form),
            (CLUSTER, 1e4 * form),
            (CLUSTER, np.zeros(n)),
        ]
        ms = []
        for tup, samples in cases:
            f = Signal(samples)
            model = project(f, tup)
            want_coeffs, want_residual = loop_project(f, tup)
            total = norm_sq(f)
            gap = np.max(np.abs(model.coeffs - want_coeffs))
            assert gap <= 1e-12 * np.sqrt(total)
            # the residual as the relative H^2 error it reports
            err = abs(np.sqrt(model.residual_error) - np.sqrt(want_residual))
            assert err <= 1e-12 * np.sqrt(total)
            ms.append(band_limit(band_limits, n))
        # amplitude and a zero signal leave M, a property of the tuple, alone
        assert ms[1] < n and ms[1:] == [ms[1]] * 5
        f = builtin_signal("ex5_4", 1024)
        model = project(f, builtin_truth("ex5_4"))
        want_coeffs, want_residual = loop_project(f, builtin_truth("ex5_4"))
        np.testing.assert_array_equal(model.coeffs, want_coeffs)
        assert model.residual_error == want_residual
        assert band_limits == []


class TestOrthonormalitySample:
    def test_random_tuples(self, rng):
        # small version; the full 50-tuple sweep runs in the acceptance suite
        for _ in range(5):
            n = int(rng.integers(1, 7))
            poles = []
            while len(poles) < n:
                w = rng.uniform(-0.9, 0.9) + 1j * rng.uniform(-0.9, 0.9)
                if abs(w) <= 0.9 and all(abs(w - p) > 1e-6 for p in poles):
                    poles.append(w)
            gram = sample_gram(synthesized_columns(PoleTuple(poles), 1024))
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-8
