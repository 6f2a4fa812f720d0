"""Polar grid, interior evaluation, and the fast table."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blaschke import (
    PolarGrid,
    Signal,
    Spectrum,
    circle_points,
    eval_interior,
    feval_table,
    spectrum,
)
from blaschke.feval import _ring_tables, ring_bounds
from blaschke.search import BOUND_SLACK
from blaschke.targets import builtin_signal

from conftest import kernel_reference, quadrature_kernel_inner, random_smooth_signal


class TestPolarGrid:
    def test_reference_node_count(self):
        assert PolarGrid(100, 256).nodes().size == 25344

    def test_small_grid_nodes(self):
        grid = PolarGrid(2, 4)
        nodes = grid.nodes()
        assert nodes.shape == (1, 4)
        # radius 0.5 at angles pi/2, pi, 3*pi/2, 2*pi
        np.testing.assert_allclose(nodes[0], [0.5j, -0.5, -0.5j, 0.5], atol=1e-15)

    def test_radius_bounds(self):
        grid = PolarGrid(10, 8)
        r = np.abs(grid.nodes())
        assert np.all(r >= grid.eps - 1e-15)
        assert np.all(r <= 1.0 - grid.eps + 1e-15)

    def test_degenerate_dimensions_rejected(self):
        with pytest.raises(ValueError):
            PolarGrid(1, 8)
        with pytest.raises(ValueError):
            PolarGrid(10, 1)

    def test_non_power_of_two_angular_rejected(self):
        with pytest.raises(ValueError):
            PolarGrid(10, 12)

    def test_band_nodes_are_grid_rows(self):
        grid = PolarGrid(10, 8)
        band = grid.band(3, 7)
        assert (band.radial, band.angular) == (10, 8)
        # the rings of the band are rows 3 .. 6 of the grid's node matrix
        assert (band.grid, band.lo, band.hi) == (grid, 3, 7)

    @pytest.mark.parametrize("lo, hi", [(-1, 3), (3, 3), (4, 2), (0, 10)])
    def test_band_outside_grid_rejected(self, lo, hi):
        with pytest.raises(ValueError):
            PolarGrid(10, 8).band(lo, hi)


class TestEvalInterior:
    def test_constant(self):
        f = spectrum(Signal(np.ones(16)))
        assert eval_interior(f, 0.3 + 0.2j) == pytest.approx(1.0)

    def test_identity_function(self):
        f = spectrum(Signal(circle_points(16)))
        assert eval_interior(f, 0.5j) == pytest.approx(0.5j)

    def test_rational_closed_form(self):
        tau = circle_points(1024)
        f = spectrum(Signal(1.0 / (2.0 + tau**4)))
        assert eval_interior(f, 0.6) == pytest.approx(1.0 / (2.0 + 0.6**4), abs=1e-10)

    def test_boundary_point_rejected(self):
        f = spectrum(Signal(np.ones(16)))
        with pytest.raises(ValueError):
            eval_interior(f, 1.0)

    def test_array_matches_scalar(self, rng):
        f = spectrum(random_smooth_signal(rng, 64))
        pts = 0.8 * (rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)) / np.sqrt(2)
        got = eval_interior(f, pts)
        want = [eval_interior(f, z) for z in pts]
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_accepts_spectrum_input(self):
        s = Spectrum([1.0, 2.0, 0.0, 0.0])
        assert eval_interior(s, 0.25) == pytest.approx(1.5)


@pytest.mark.parametrize("evaluate", [
    lambda f: feval_table(f, PolarGrid(4, 4)),
    lambda f: ring_bounds(f, PolarGrid(4, 4)),
    lambda f: eval_interior(f, 0.5j),
], ids=["feval_table", "ring_bounds", "eval_interior"])
@pytest.mark.parametrize("f", [Signal(np.ones(4)), [1, 2, 3, 4]], ids=["signal", "list"])
def test_rejects_non_spectrum_input(evaluate, f):
    # an evaluator transforms nothing: its caller takes the spectrum once
    with pytest.raises(TypeError, match="Spectrum"):
        evaluate(f)


class TestFevalTable:
    def test_constant_signal_rows(self):
        grid = PolarGrid(8, 16)
        table = feval_table(spectrum(Signal(np.ones(16))), grid)
        want = np.sqrt(1.0 - grid.radii**2)[:, None] * np.ones((1, 16))
        np.testing.assert_allclose(table, want, atol=1e-13)

    def test_single_harmonic(self):
        grid = PolarGrid(8, 16)
        table = feval_table(spectrum(Signal(circle_points(16))), grid)
        nodes = grid.nodes()
        want = np.sqrt(1.0 - np.abs(nodes) ** 2) * nodes
        np.testing.assert_allclose(table, want, atol=1e-13)

    def test_matches_quadrature_oracle(self, rng):
        grid = PolarGrid(8, 32)
        f = spectrum(random_smooth_signal(rng, 32))
        table = feval_table(f, grid)
        nodes = grid.nodes()
        want = quadrature_kernel_inner(f.coeffs, nodes).reshape(nodes.shape)
        np.testing.assert_allclose(table, want, rtol=0, atol=1e-9)

    def test_kernel_identity(self, rng):
        # table entry at z equals sqrt(1-|z|^2) * f(z)
        grid = PolarGrid(6, 8)
        f = spectrum(random_smooth_signal(rng, 32))
        table = feval_table(f, grid)
        nodes = grid.nodes()
        for idx in np.ndindex(nodes.shape):
            z = nodes[idx]
            want = np.sqrt(1.0 - abs(z) ** 2) * eval_interior(f, z)
            assert table[idx] == pytest.approx(want, abs=1e-12)

    def test_coarse_angular_grid_subsamples(self, rng):
        # a 256-sample signal on a 64-angle grid folds the spectrum exactly
        f = spectrum(random_smooth_signal(rng, 256))
        grid = PolarGrid(6, 64)
        table = feval_table(f, grid)
        nodes = grid.nodes()
        want = np.sqrt(1.0 - np.abs(nodes) ** 2) * eval_interior(f, nodes)
        np.testing.assert_allclose(table, want, atol=1e-12)

    def test_incompatible_angular_count_rejected(self, rng):
        f = spectrum(random_smooth_signal(rng, 64))
        with pytest.raises(ValueError):
            feval_table(f, PolarGrid(6, 128))

    def test_reference_on_benchmark_grids(self, rng):
        # the search grids of the benchmark, a grid with angular = N (one
        # fold), and a spectrum whose tail decays into the subnormal range
        k = np.arange(1024)
        phases = np.exp(2j * np.pi * rng.uniform(size=1024))
        tail = Spectrum(phases * 10.0 ** (-310.0 * k / 1023))
        cases = [
            (spectrum(builtin_signal("ex5_3", 1024)), PolarGrid(100, 128)),
            (spectrum(builtin_signal("ex5_5", 2048)), PolarGrid(100, 256)),
            (spectrum(builtin_signal("ex5_3", 1024)), PolarGrid(100, 256)),
            (spectrum(builtin_signal("ex5_5", 2048)), PolarGrid(100, 128)),
            (spectrum(builtin_signal("ex5_6", 1024)), PolarGrid(8, 1024)),
            (tail, PolarGrid(100, 128)),
        ]
        first = []
        for f, grid in cases:
            table = feval_table(f, grid)
            ref = kernel_reference(f, grid)
            assert np.max(np.abs(table - ref)) <= 1e-13 * np.max(np.abs(ref))
            first.append(table)
        # calls interleaved over grids and sample counts reuse the cached
        # ring tables without changing a single result
        for (f, grid), table in zip(cases, first):
            np.testing.assert_array_equal(feval_table(f, grid), table)
        with pytest.raises(ValueError):
            first[0][0, 0] = 0.0
        for ring_table in _ring_tables(PolarGrid(100, 128), 1024):
            with pytest.raises(ValueError):
                ring_table[0, 0] = 0.0


class TestRingBounds:
    @given(
        shape=st.sampled_from([(10, 8, 64), (37, 32, 256), (100, 128, 1024),
                               (100, 256, 1024), (20, 64, 64)]),
        decay=st.floats(0.3, 0.999),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bound_holds_on_every_node_of_its_ring(self, shape, decay, seed):
        # the search skips a ring whose bound, with its slack, is below the
        # current pole's value; no entry of the ring may exceed it
        radial, angular, n_samples = shape
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)
        f = Spectrum(coeffs * decay ** np.arange(n_samples))
        grid = PolarGrid(radial, angular)
        bounds = ring_bounds(f, grid)
        assert bounds.shape == (radial - 1,)
        assert np.all(np.abs(feval_table(f, grid)) <= bounds[:, None] * (1.0 + BOUND_SLACK))

    def test_bound_is_attained_by_a_single_harmonic(self):
        # for f = z^k every node of a ring has the same modulus, the bound
        grid = PolarGrid(8, 16)
        f = Spectrum(np.eye(16)[3])
        r = grid.radii
        np.testing.assert_allclose(ring_bounds(f, grid), np.sqrt(1 - r**2) * r**3, rtol=1e-14)

    def test_incompatible_angular_count_rejected(self, rng):
        with pytest.raises(ValueError):
            ring_bounds(spectrum(random_smooth_signal(rng, 64)), PolarGrid(6, 128))


class TestBandTable:
    @pytest.mark.parametrize("radial, lo, hi", [
        (100, 0, 1), (100, 0, 16), (100, 16, 32), (100, 3, 5), (100, 15, 17),
        (100, 17, 31), (100, 5, 60), (100, 90, 99), (100, 98, 99),
        (37, 30, 36), (37, 35, 36), (37, 0, 36),
    ])
    def test_band_rows_equal_full_table_rows(self, radial, lo, hi):
        # bands that start or end inside a 16-ring block, span several
        # blocks, or end at the grid's last, partial block
        f = spectrum(builtin_signal("ex5_3", 1024))
        grid = PolarGrid(radial, 128)
        band = feval_table(f, grid.band(lo, hi))
        assert band.shape == (hi - lo, 128)
        np.testing.assert_array_equal(band, feval_table(f, grid)[lo:hi])
        with pytest.raises(ValueError):
            band[0, 0] = 0.0

    def test_band_of_all_rings_is_the_grid(self, rng):
        f = spectrum(random_smooth_signal(rng, 256))
        grid = PolarGrid(40, 64)
        np.testing.assert_array_equal(
            feval_table(f, grid.band(0, 39)), feval_table(f, grid)
        )
