"""Cyclic coordinate search: polar fast path and rectangular baseline."""

import numpy as np
import pytest

import blaschke.reduction
import blaschke.search
from blaschke import (
    BlaschkeModel,
    PoleTuple,
    Signal,
    build_polar_grid,
    feval_table,
    synthesize,
    szego_signal,
)
from blaschke.pipeline import BUILTIN_DEGREES, builtin_signal
from blaschke.reduction import energy, reduce_chain
from blaschke.search import (
    RectGridConfig,
    SearchConfig,
    SearchNonConvergence,
    _masked_argmax,
    _partial_energy_amp,
    _random_start,
    its_search,
    rect_cafd_search,
    rect_grid_nodes,
)

from conftest import kernel_reference, monomial_signal


def roll_cyclic_search(f, n, scan, eta, max_sweeps, rng, start_radius):
    """Reference sweep: rebuild each remainder from f, scan the last pole, roll.

    Takes `_cyclic_search`'s arguments.  Each of the n steps of a sweep
    reduces f through the first n - 1 poles, n(n-1) reduction steps per
    sweep; after n rolls the tuple is back in array order.
    """
    poles = _random_start(rng, n, start_radius)
    for _ in range(max_sweeps):
        accepted = 0
        for _ in range(n):
            f_n = Signal(reduce_chain(f.samples, poles[:-1]).rest) if n > 1 else f
            v = _partial_energy_amp(f_n, poles[-1])
            mags, nodes = scan(f_n)
            v_t, a_t = _masked_argmax(mags, nodes, poles[:-1])
            if v_t**2 > v**2 + eta:
                poles[-1] = a_t
                accepted += 1
            poles = np.roll(poles, 1)
        if accepted == 0:
            return PoleTuple(poles)
    raise SearchNonConvergence("no coordinate maximum", PoleTuple(poles))


def sweep_steps(n):
    """T(n): reduction steps of one divide-and-conquer sweep over n poles."""
    if n == 1:
        return 0
    return n + sweep_steps(n // 2) + sweep_steps(n - n // 2)


class TestSweepEquivalence:
    """The divide-and-conquer sweep against the roll-based reference loop."""

    @staticmethod
    def both(monkeypatch, search, f, n, cfg):
        fast = search(f, n, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(blaschke.search, "_cyclic_search", roll_cyclic_search)
            ref = search(f, n, cfg)
        return fast, ref

    @pytest.mark.parametrize(
        "name, n, angular, seed",
        [(name, BUILTIN_DEGREES[name], 128, seed)
         for name in ("ex5_3", "ex5_4", "ex5_5", "ex5_6") for seed in (0, 1)]
        + [("ex5_2_f1", 10, 256, 1)],
    )
    def test_polar_search(self, monkeypatch, name, n, angular, seed):
        # the benchmark's search inputs: recover's targets and grid, and an
        # approximate target at n = 10
        f = builtin_signal(name, 1024)
        cfg = SearchConfig(angular=angular, seed=seed)
        fast, ref = self.both(monkeypatch, its_search, f, n, cfg)
        np.testing.assert_array_equal(fast.poles, ref.poles)

    def test_rectangular_search(self, monkeypatch):
        f = builtin_signal("ex5_5", 256)
        cfg = RectGridConfig(gap=0.05, seed=2)
        fast, ref = self.both(monkeypatch, rect_cafd_search, f, 4, cfg)
        np.testing.assert_array_equal(fast.poles, ref.poles)


class TestSweepCost:
    def test_step_recurrence(self):
        assert [sweep_steps(n) for n in (1, 2, 4, 5, 8, 10, 30)] == [
            0, 2, 8, 12, 24, 34, 148,
        ]

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 30])
    def test_steps_per_sweep(self, monkeypatch, n):
        counts = {"steps": 0, "scans": 0}
        step, table = blaschke.reduction.reduce_step, blaschke.search.feval_table

        def counted_step(*args):
            counts["steps"] += 1
            return step(*args)

        def counted_table(*args):
            counts["scans"] += 1
            return table(*args)

        monkeypatch.setattr(blaschke.reduction, "reduce_step", counted_step)
        monkeypatch.setattr(blaschke.search, "feval_table", counted_table)
        f = builtin_signal("ex5_2_f3", 256)
        its_search(f, n, SearchConfig(radial=10, angular=32))
        sweeps, rem = divmod(counts["scans"], n)
        assert sweeps >= 1 and rem == 0
        assert counts["steps"] == sweeps * sweep_steps(n)


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
            SearchConfig(eta_rel=-1.0)
        with pytest.raises(ValueError):
            RectGridConfig(eta_rel=0.0)

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
        idx = np.unravel_index(np.argmax(np.abs(table)), table.shape)
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
            return kernel_reference(f, grid)

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
