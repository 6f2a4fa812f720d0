"""Cyclic coordinate search: polar fast path and rectangular baseline."""

import numpy as np
import pytest

import blaschke.feval
import blaschke.reduction
import blaschke.search
from blaschke import (
    BlaschkeModel,
    PoleTuple,
    Signal,
    build_polar_grid,
    feval_table,
    norm_sq,
    synthesize,
)
from blaschke.hardy import draw_separated
from blaschke.pipeline import (
    BUILTIN_DEGREES,
    RunConfig,
    builtin_signal,
    builtin_truth,
    cafd_cgd_result,
)
from blaschke.reduction import energy, reduce_chain
from blaschke.search import (
    RectGridConfig,
    SearchConfig,
    SearchNonConvergence,
    _masked_argmax,
    _partial_energy_amp,
    _ring_band,
    its_search,
    rect_cafd_search,
    rect_grid_nodes,
)

from conftest import kernel_reference, monomial_signal, szego_signal


def roll_cyclic_search(f, n, cfg, scan, start_radius):
    """Reference sweep: rebuild each remainder from f, scan the last pole, roll.

    Takes `_cyclic_search`'s arguments.  Each of the n steps of a sweep
    reduces f through the first n - 1 poles, n(n-1) reduction steps per
    sweep; after n rolls the tuple is back in array order.
    """
    eta = blaschke.search.ETA_REL * norm_sq(f)
    poles = draw_separated(np.random.default_rng(cfg.seed), n, start_radius, 0.0, 100 * n)
    for _ in range(blaschke.search.MAX_SWEEPS):
        accepted = 0
        for _ in range(n):
            f_n = Signal(reduce_chain(f.samples, poles[:-1])) if n > 1 else f
            v = _partial_energy_amp(f_n, poles[-1])
            mags, nodes = scan(f_n)
            best = _masked_argmax(mags, nodes, poles[:-1])
            if best is not None and best[0] ** 2 > v**2 + eta:
                poles[-1] = best[1]
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
    """The bounded divide-and-conquer sweep against the roll-based reference.

    The reference calls `scan(f_n)`, whose default floor 0 evaluates every
    ring, so it is also the whole-table oracle for the bounded scan.
    """

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
        counts = {}

        def count(module, name, key):
            original = getattr(module, name)
            counts[key] = 0

            def counted(*args):
                counts[key] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counted)

        count(blaschke.reduction, "reduce_step", "steps")
        count(blaschke.search, "_coordinate_step", "scans")
        count(blaschke.search, "feval_table", "tables")
        count(blaschke.search, "spectrum", "spectra")
        count(blaschke.feval, "spectrum", "feval_spectra")
        f = builtin_signal("ex5_2_f3", 256)
        its_search(f, n, SearchConfig(radial=10, angular=32))
        sweeps, rem = divmod(counts["scans"], n)
        assert sweeps >= 1 and rem == 0
        # one table call per scan, however few rings the bound leaves
        assert counts["tables"] == counts["scans"]
        # one transform per scan, shared by the ring bounds and the table
        assert counts["spectra"] == counts["scans"]
        assert counts["feval_spectra"] == 0
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
    def test_bad_gap(self):
        with pytest.raises(ValueError):
            RectGridConfig(gap=1.5)

    @pytest.mark.parametrize("kwargs", [{"radial": 1}, {"angular": 3}])
    def test_bad_grid(self, kwargs):
        # the polar grid's shape is checked when the config is built
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)

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
        # only a node equal to a fixed pole is taken, however close one is
        assert _masked_argmax(mags, nodes, np.array([0.2j + 1e-14])) == (0.9, 0.2j)

    def test_no_free_node(self):
        nodes = np.array([0.1, 0.2j])
        assert _masked_argmax(np.array([0.5, 0.9]), nodes, np.array([0.2j, 0.1, 0.3])) is None


class TestRingBand:
    def test_floor_zero_keeps_every_ring(self):
        assert _ring_band(np.array([0.0, 0.3, 0.1, 0.0]), 0.0) == (0, 4)

    def test_band_spans_first_to_last_ring_reaching_floor(self):
        bounds = np.array([0.1, 0.5, 0.2, 0.6, 0.1])
        assert _ring_band(bounds, 0.4) == (1, 4)
        # the slack admits a bound that round-off puts just below the floor
        assert _ring_band(bounds, 0.6 * (1.0 + 1e-12)) == (3, 4)

    def test_largest_bound_kept_above_every_bound(self):
        assert _ring_band(np.array([0.1, 0.5, 0.2]), 2.0) == (1, 2)


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

    def test_scan_without_free_node_makes_no_move(self):
        # the grid has two nodes and three fixed poles can cover both; such a
        # step keeps its pole instead of moving it onto a taken node
        f = builtin_signal("ex5_5", 64)
        tup = its_search(f, 4, SearchConfig(radial=2, angular=2, seed=2))
        assert tup.degree == 4 and np.unique(tup.poles).size == 4

    @pytest.mark.parametrize("name, radial, angular, seed", [
        ("ex5_3", 3, 2, 1),
        ("ex5_6", 2, 4, 2),
    ])
    def test_no_pole_stacked_on_a_taken_node(self, name, radial, angular, seed):
        # on a coarse grid the best node is often one a fixed pole holds;
        # stacked poles get identical gradient entries, so the refinement
        # would move them together and never split them
        f = builtin_signal(name, 256)
        truth = builtin_truth(name)
        cfg = RunConfig(truth.degree, SearchConfig(radial, angular, seed))
        res = cafd_cgd_result(f, cfg, truth=truth)
        assert np.unique(res.its_tuple.poles).size == truth.degree
        assert res.tuple_distance <= 5e-3

    def test_sweep_cap_raises_with_best_tuple(self, monkeypatch):
        # a degree-5 target cannot settle in a single sweep from a cold start
        from blaschke.pipeline import BUILTIN_FORMS

        poles, coeffs = BUILTIN_FORMS["ex5_3"]
        f = synthesize(BlaschkeModel(PoleTuple(poles), coeffs), 256)
        monkeypatch.setattr(blaschke.search, "MAX_SWEEPS", 1)
        with pytest.raises(SearchNonConvergence) as err:
            its_search(f, 5, SearchConfig(radial=20, angular=64))
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
