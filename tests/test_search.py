"""Cyclic coordinate search: polar fast path and rectangular baseline."""

import numpy as np
import pytest

import blaschke.search
from blaschke import (
    BlaschkeModel,
    InnerProductTable,
    PoleTuple,
    Signal,
    build_polar_grid,
    feval_table,
    synthesize,
    szego_signal,
)
from blaschke.reduction import energy
from blaschke.search import (
    RectGridConfig,
    SearchConfig,
    SearchNonConvergence,
    _masked_argmax,
    its_search,
    rect_cafd_search,
    rect_grid_nodes,
)

from conftest import kernel_reference, monomial_signal


class TestRectGridNodes:
    def test_reference_node_count(self):
        assert rect_grid_nodes(0.01).size == 30752

    def test_nodes_inside_disk(self):
        nodes = rect_grid_nodes(0.05)
        r = np.abs(nodes)
        assert np.all(r > 0.0)
        assert np.all(r < 0.95)

    def test_lattice_coordinates_exact(self):
        nodes = rect_grid_nodes(0.01)
        assert 0.68 + 0.52j in nodes
        assert 0.5 + 0.5j in nodes


class TestConfigValidation:
    def test_bad_eta(self):
        with pytest.raises(ValueError):
            SearchConfig(eta=-1.0)
        with pytest.raises(ValueError):
            RectGridConfig(eta=0.0)

    def test_bad_gap(self):
        with pytest.raises(ValueError):
            RectGridConfig(gap=1.5)

    def test_bad_sweep_cap(self):
        with pytest.raises(ValueError):
            SearchConfig(max_sweeps=0)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            its_search(monomial_signal(1, 64), 0)


class TestMaskedArgmax:
    def test_best_node_on_fixed_pole_falls_to_second_best(self):
        nodes = np.array([0.1, 0.2j, -0.3, 0.4 + 0.1j])
        mags = np.array([0.5, 0.9, 0.7, 0.8])
        fixed = np.array([0.2j, 0.5])
        assert _masked_argmax(mags, nodes, fixed) == (0.8, 0.4 + 0.1j)
        # a chain of coinciding winners is skipped one by one
        fixed = np.array([0.4 + 0.1j, 0.2j])
        assert _masked_argmax(mags, nodes, fixed) == (0.7, -0.3)
        np.testing.assert_array_equal(mags, [0.5, 0.9, 0.7, 0.8])
        assert _masked_argmax(mags, nodes, fixed[:0]) == (0.9, 0.2j)


class TestItsSearch:
    def test_kernel_on_grid_node_recovered_exactly(self):
        grid = build_polar_grid(10, 64)
        b = grid.nodes()[4, 7]  # radius 0.5, angle 2*pi*8/64
        f = szego_signal(b, 64)
        tup = its_search(f, 1, SearchConfig(radial=10, angular=64))
        assert tup.poles[0] == b
        # exhaustive-scan oracle: the argmax of |<e_b, e_z>| over the grid is b
        table = feval_table(f, grid)
        idx = np.unravel_index(np.argmax(np.abs(table.values)), table.values.shape)
        assert grid.nodes()[idx] == b

    def test_monomial_maximizer_within_grid_step(self):
        f = monomial_signal(1, 256)
        tup = its_search(f, 1, SearchConfig(radial=100, angular=256))
        assert abs(abs(tup.poles[0]) - 1.0 / np.sqrt(2.0)) <= 0.01

    def test_determinism(self):
        f = monomial_signal(3, 256)
        cfg = SearchConfig(radial=20, angular=64, seed=5)
        t1 = its_search(f, 2, cfg)
        t2 = its_search(f, 2, cfg)
        np.testing.assert_array_equal(t1.poles, t2.poles)

    def test_distinct_poles(self):
        f = monomial_signal(1, 256)
        tup = its_search(f, 3, SearchConfig(radial=20, angular=64))
        diff = np.abs(tup.poles[:, None] - tup.poles[None, :])
        np.fill_diagonal(diff, np.inf)
        assert diff.min() > 0.0

    def test_coordinate_maximum(self):
        # on return, no grid node improves the last coordinate by more than eta
        f = monomial_signal(2, 256)
        cfg = SearchConfig(radial=20, angular=64)
        tup = its_search(f, 2, cfg)
        base = energy(f, tup)
        grid = build_polar_grid(cfg.radial, cfg.angular)
        nodes = grid.nodes().ravel()
        sample = nodes[:: 37]  # spot-check a spread of candidate nodes
        for z in sample:
            if np.min(np.abs(z - tup.poles[:-1])) < 1e-12:
                continue
            cand = tup.poles.copy()
            cand[-1] = z
            assert energy(f, PoleTuple(cand)) <= base + 1e-9

    def test_amplitude_invariance(self):
        # eta defaults to an energy, 1e-12 * ||f||^2, so scaling f by lambda
        # must leave every accept decision, and the tuple, unchanged
        from blaschke.pipeline import builtin_signal

        f = builtin_signal("ex5_3", 256)
        cfg = SearchConfig(radial=20, angular=64, seed=3)
        ref = its_search(f, 5, cfg)
        for lam in (1e-4, 1e-6):
            tup = its_search(Signal(lam * f.samples), 5, cfg)
            np.testing.assert_array_equal(tup.poles, ref.poles)

    def test_tuple_independent_of_table_evaluator(self, monkeypatch):
        # the fast table and a direct series sum differ by round-off only;
        # the argmax must not see the difference
        from blaschke.pipeline import BUILTIN_DEGREES, builtin_signal

        def direct_table(f, grid):
            return InnerProductTable(kernel_reference(f, grid), grid)

        cfg = SearchConfig(radial=20, angular=32)
        for name in ("ex5_3", "ex5_5"):
            f = builtin_signal(name, 256)
            n = BUILTIN_DEGREES[name]
            fast = its_search(f, n, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(blaschke.search, "feval_table", direct_table)
                direct = its_search(f, n, cfg)
            np.testing.assert_array_equal(direct.poles, fast.poles)

    def test_sweep_cap_raises_with_best_tuple(self):
        # a degree-5 target cannot settle in a single sweep from a cold start
        from blaschke.pipeline import BUILTIN_FORMS

        poles, coeffs = BUILTIN_FORMS["ex5_3"]
        f = synthesize(BlaschkeModel(PoleTuple(poles), coeffs), 256)
        with pytest.raises(SearchNonConvergence) as err:
            its_search(f, 5, SearchConfig(radial=20, angular=64, max_sweeps=1))
        assert isinstance(err.value.best_tuple, PoleTuple)
        assert err.value.best_tuple.degree == 5


class TestRectCafdSearch:
    def test_kernel_on_lattice_node_recovered_exactly(self):
        b = 0.45 - 0.3j  # lies on the 0.05 lattice
        f = szego_signal(b, 64)
        tup = rect_cafd_search(f, 1, RectGridConfig(gap=0.05))
        assert tup.poles[0] == b

    def test_determinism(self):
        f = monomial_signal(2, 128)
        cfg = RectGridConfig(gap=0.05, seed=3)
        t1 = rect_cafd_search(f, 2, cfg)
        t2 = rect_cafd_search(f, 2, cfg)
        np.testing.assert_array_equal(t1.poles, t2.poles)

    def test_agrees_with_polar_search_roughly(self):
        # both searches bracket the same radial optimum for a monomial
        f = monomial_signal(1, 128)
        rect = rect_cafd_search(f, 1, RectGridConfig(gap=0.05))
        assert abs(abs(rect.poles[0]) - 1.0 / np.sqrt(2.0)) <= 0.06
