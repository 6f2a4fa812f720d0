"""Cyclic coordinate search: polar fast path and rectangular baseline."""

import numpy as np
import pytest

import blaschke.reduction
import blaschke.search
from blaschke import (
    BlaschkeModel,
    PolarGrid,
    PoleTuple,
    Signal,
    circle_points,
    feval_table,
    norm_sq,
    project,
    spectrum,
    synthesize,
)
from blaschke.hardy import draw_separated
from blaschke.pipeline import RunConfig, cafd_cgd_result, tuple_distance
from blaschke.reduction import energy, pole_rows, reduce_chain, series_value
from blaschke.search import (
    RectGridConfig,
    SearchConfig,
    SearchNonConvergence,
    _cyclic_search,
    _masked_argmax,
    _pencil_poles,
    _place,
    _polar_scan,
    _ring_band,
    _snap,
    its_search,
    rect_cafd_search,
    rect_grid_nodes,
)
from blaschke.targets import BUILTIN_DEGREES, BUILTIN_FORMS, builtin_signal, builtin_truth

from conftest import kernel_reference, monomial_signal, random_smooth_signal, szego_signal


def _partial_energy_amp(f_n, a):
    """|<f_n, e_a>| = sqrt(1-|a|^2) |f_n(a)| for the current remainder, from `series_value`."""
    return np.sqrt(1.0 - abs(a) ** 2) * abs(series_value(f_n.samples, a))


def roll_cyclic_search(f, poles, scan, sweeps=None):
    """Reference sweep: rebuild each remainder from f, scan the last pole, roll.

    Takes `_cyclic_search`'s arguments.  Each of the n steps of a sweep
    reduces f through the first n - 1 poles, n(n-1) reduction steps per
    sweep; after n rolls the tuple is back in array order, so the steps
    scan the array positions n-1, ..., 0, every position in every sweep.
    `sweeps`, when given, gets one list per sweep of the (array position,
    1 if it moved) of each step.
    """
    eta = blaschke.search.ETA_REL * norm_sq(f)
    n = poles.size
    for _ in range(blaschke.search.MAX_SWEEPS):
        accepted = 0
        steps = []
        for c in reversed(range(n)):
            f_n = Signal(reduce_chain(f.samples, poles[:-1])) if n > 1 else f
            v = _partial_energy_amp(f_n, poles[-1])
            mags, nodes = scan(f_n.samples)
            best = _masked_argmax(mags, nodes, poles, n - 1)
            moved = best is not None and best[0] ** 2 > v**2 + eta
            if moved:
                poles[-1] = best[1]
                accepted += 1
            steps.append((c, int(moved)))
            poles = np.roll(poles, 1)
        if sweeps is not None:
            sweeps.append(steps)
        if accepted == 0:
            return PoleTuple(poles)
    raise SearchNonConvergence("no coordinate maximum", PoleTuple(poles))


def spy_sweeps(monkeypatch, steps=lambda: 0):
    """Record each sweep of `_cyclic_search`: its coordinate steps and cost.

    Each entry of the returned list is one sweep, a dict of `scans`, the
    (position, return) of each `_coordinate_step` in order, and `before`,
    the value of `steps()` when the sweep began.
    """
    sweeps = []
    sweep, step = blaschke.search._sweep, blaschke.search._coordinate_step

    def sweep_spy(g, poles, rows, lo, hi, *rest):
        # only a sweep's root call spans every position
        if (lo, hi) == (0, poles.size):
            sweeps.append({"scans": [], "before": steps()})
        return sweep(g, poles, rows, lo, hi, *rest)

    def step_spy(g, poles, rows, c, *rest):
        moved = step(g, poles, rows, c, *rest)
        sweeps[-1]["scans"].append((c, moved))
        return moved

    monkeypatch.setattr(blaschke.search, "_sweep", sweep_spy)
    monkeypatch.setattr(blaschke.search, "_coordinate_step", step_spy)
    return sweeps


def sweep_steps(n):
    """T(n): reduction steps of one divide-and-conquer sweep over n poles."""
    if n == 1:
        return 0
    return n + sweep_steps(n // 2) + sweep_steps(n - n // 2)


class TestSweepEquivalence:
    """The bounded divide-and-conquer sweep against the roll-based reference.

    The reference calls `scan(g)`, whose default floor 0 evaluates every
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
        + [("ex5_2_f1", 10, 256, 1), ("ex5_2_f2", 10, 256, 1)],
    )
    def test_polar_search(self, monkeypatch, name, n, angular, seed):
        # the benchmark's search inputs: recover's targets and grid, and
        # approximate's targets at n = 10 (ex5_2_f2's pencil start takes 20
        # sweeps, with 4-fold symmetric ties and bands of up to 80 rings);
        # first from the pencil start, then from a seeded random start,
        # whose sweeps must accept moves
        f = builtin_signal(name, 1024)
        cfg = SearchConfig(angular=angular)
        fast, ref = self.both(monkeypatch, its_search, f, n, cfg)
        np.testing.assert_array_equal(fast.poles, ref.poles)
        rng = np.random.default_rng(seed)
        start = draw_separated(rng, n, 1.0 - cfg.grid.eps, 0.0, 100 * n)
        monkeypatch.setattr(blaschke.search, "_place", lambda *args: start.copy())
        fast, ref = self.both(monkeypatch, its_search, f, n, cfg)
        np.testing.assert_array_equal(fast.poles, ref.poles)
        assert not np.any(np.isin(fast.poles, start))

    @pytest.mark.parametrize("name, angular, seed", [
        ("ex5_3", 128, 0), ("ex5_6", 128, 1), ("ex5_2_f1", 256, 1),
    ])
    def test_search_rows_follow_the_moves(self, monkeypatch, name, angular, seed):
        # the search builds its row sets once and rebuilds a moved pole's in
        # place; after sweeps that moved every pole of a seeded random start
        # they equal the row sets built fresh from the returned tuple
        f, n = builtin_signal(name, 1024), BUILTIN_DEGREES[name]
        cfg = SearchConfig(angular=angular)
        start = draw_separated(np.random.default_rng(seed), n, 1.0 - cfg.grid.eps, 0.0, 100 * n)
        built = []

        def kept(z, poles):
            built.append(pole_rows(z, poles))
            return built[-1]

        monkeypatch.setattr(blaschke.search, "pole_rows", kept)
        monkeypatch.setattr(blaschke.search, "_place", lambda *args: start.copy())
        tup = its_search(f, n, cfg)
        assert not np.any(np.isin(tup.poles, start))
        # built[0] is the search's own array; later entries are moved poles' rows
        assert built[0].shape == (n, 3, 1024)
        np.testing.assert_array_equal(built[0], pole_rows(circle_points(1024), tup.poles))

    def test_rectangular_search(self, monkeypatch):
        f = builtin_signal("ex5_5", 256)
        cfg = RectGridConfig(gap=0.05, seed=2)
        fast, ref = self.both(monkeypatch, rect_cafd_search, f, 4, cfg)
        np.testing.assert_array_equal(fast.poles, ref.poles)


class TestCoordinateStep:
    @pytest.mark.parametrize("radius", [0.97, 0.984, 0.99])
    def test_floor_is_the_current_amplitude_near_the_circle(self, rng, radius):
        # the scan's floor v = sqrt(1-|a|^2) |f_n(a)| comes from
        # reduction.pole_values; at N = 1024 and |a| = 0.99 its aliasing
        # factor 1 - a^N differs from 1 by 3.4e-5, far above the tolerance
        g = random_smooth_signal(rng, 1024).samples
        poles = np.array([radius * np.exp(0.7j), 0.2 - 0.1j])
        floors = []

        def scan(g, floor=0.0):
            floors.append(floor)
            return np.zeros(1), np.array([0.5j])

        rows = pole_rows(circle_points(1024), poles)
        assert blaschke.search._coordinate_step(g, poles, rows, 0, scan, 0.0) == 0
        want = _partial_energy_amp(Signal(g), poles[0])
        assert floors == [pytest.approx(want, rel=1e-13, abs=0.0)]


class TestSweepCost:
    def test_step_recurrence(self):
        assert [sweep_steps(n) for n in (1, 2, 4, 5, 8, 10, 30)] == [
            0, 2, 8, 12, 24, 34, 148,
        ]

    @staticmethod
    def counters(monkeypatch):
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
        # the scan's one transform, wrapped once as a Spectrum
        count(blaschke.search, "Spectrum", "spectra")
        return counts

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 30])
    def test_steps_per_sweep(self, monkeypatch, n):
        # the sweeps alone, from an explicit start of n poles
        f = builtin_signal("ex5_2_f3", 256)
        grid = SearchConfig(radial=10, angular=32).grid
        start = draw_separated(np.random.default_rng(n), n, 1.0 - grid.eps, 0.0, 100 * n)
        scan = _polar_scan(grid, grid.nodes().ravel())
        counts = self.counters(monkeypatch)
        sweeps = spy_sweeps(monkeypatch, lambda: counts["steps"])
        _cyclic_search(f, start, scan)
        # one table call per scan, however few rings the bound leaves
        assert counts["tables"] == counts["scans"]
        # one transform per scan, shared by the ring bounds and the table
        assert counts["spectra"] == counts["scans"]
        # the first sweep scans every position, at T(n) reduction steps
        assert [c for c, _ in sweeps[0]["scans"]] == list(reversed(range(n)))
        ends = [sweep["before"] for sweep in sweeps[1:]] + [counts["steps"]]
        assert ends[0] - sweeps[0]["before"] == sweep_steps(n)
        # a sweep scans, in order, exactly the positions not settled; a
        # scan with no move settles its position until the next move
        settled = set()
        for sweep, end in zip(sweeps, ends):
            scans = iter(sweep["scans"])
            for c in reversed(range(n)):
                if c in settled:
                    continue
                position, moved = next(scans)
                assert position == c
                if moved:
                    settled.clear()
                else:
                    settled.add(c)
            assert next(scans, None) is None
            # a skipped position skips at least the chain into it
            steps = end - sweep["before"]
            if len(sweep["scans"]) == n:
                assert steps == sweep_steps(n)
            else:
                assert steps < sweep_steps(n)
        assert not any(moved for _, moved in sweeps[-1]["scans"])
        assert counts["scans"] == sum(len(sweep["scans"]) for sweep in sweeps)

    @pytest.mark.parametrize("name, angular, seed", [
        ("ex5_3", 128, 2), ("ex5_6", 128, 0), ("ex5_2_f1", 256, 0), ("ex5_2_f2", 256, 0),
    ])
    def test_skipped_scans_make_no_move_in_the_reference(self, monkeypatch, name, angular,
                                                         seed):
        # the roll reference scans every position of every sweep; each scan
        # the sweeps skip is one it made with no move, and the scans they
        # make return what its scans of the same sweep and position did.
        # The sweeps start from a drawn tuple, seeded so that a later sweep
        # skips a scan
        f, n = builtin_signal(name, 1024), BUILTIN_DEGREES[name]
        cfg = SearchConfig(angular=angular)
        start = draw_separated(np.random.default_rng(seed), n, 1.0 - cfg.grid.eps, 0.0, 100 * n)
        monkeypatch.setattr(blaschke.search, "_place", lambda *args: start.copy())
        ref_sweeps = []
        with monkeypatch.context() as patch:
            patch.setattr(blaschke.search, "_cyclic_search",
                          lambda f, poles, scan: roll_cyclic_search(f, poles, scan, ref_sweeps))
            ref = its_search(f, n, cfg)
        sweeps = spy_sweeps(monkeypatch)
        fast = its_search(f, n, cfg)
        np.testing.assert_array_equal(fast.poles, ref.poles)
        assert len(sweeps) == len(ref_sweeps)
        skipped = 0
        for sweep, ref_steps in zip(sweeps, ref_sweeps):
            made = dict(sweep["scans"])
            assert len(made) == len(sweep["scans"])
            for c, moved in ref_steps:
                if c in made:
                    assert made[c] == moved
                else:
                    assert moved == 0
                    skipped += 1
        assert skipped > 0

    @pytest.mark.parametrize("n, given", [(1, 0), (5, 0), (5, 2), (30, 0), (4, 4)])
    def test_placement_scans(self, monkeypatch, n, given):
        # one whole-grid scan per placed pole, and one reduction step per
        # pole the next scan's remainder goes through
        f = builtin_signal("ex5_2_f3", 256)
        grid = SearchConfig(radial=10, angular=32).grid
        nodes = grid.nodes().ravel()
        start = nodes[[3, 40]].tolist() + [0.1 + 0.2j, -0.3j]
        counts = self.counters(monkeypatch)
        poles = _place(f, start[:given], n, _polar_scan(grid, nodes))
        placed = n - given
        assert counts["tables"] == counts["spectra"] == placed
        assert counts["steps"] == (given + placed - 1 if placed else 0)
        assert counts["scans"] == 0
        np.testing.assert_array_equal(poles[:given], start[:given])
        assert np.all(np.isin(poles[given:], nodes))
        assert np.unique(poles).size == n

    def test_placement_without_free_node_raises(self):
        # a grid of two nodes holds two poles
        f = builtin_signal("ex5_5", 64)
        grid = SearchConfig(radial=2, angular=2).grid
        nodes = grid.nodes().ravel()
        assert _place(f, [], 2, _polar_scan(grid, nodes)).size == 2
        with pytest.raises(ValueError, match="no grid node is free for pole 3 of 3"):
            _place(f, [], 3, _polar_scan(grid, nodes))


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
        # position 2 is the one scanned; the other positions hold fixed poles
        poles = np.array([0.2j, 0.5, 0.1])
        assert _masked_argmax(mags, nodes, poles, 2) == (0.8, 0.4 + 0.1j)
        # a chain of coinciding winners is skipped one by one
        poles = np.array([0.4 + 0.1j, 0.2j, 0.1])
        assert _masked_argmax(mags, nodes, poles, 2) == (0.7, -0.3)
        np.testing.assert_array_equal(mags, [0.5, 0.9, 0.7, 0.8])
        assert _masked_argmax(mags, nodes, poles[1:2], 0) == (0.9, 0.2j)
        # the scanned position's own pole takes no node
        assert _masked_argmax(mags, nodes, poles, 1) == (0.9, 0.2j)
        # only a node equal to a fixed pole is taken, however close one is
        poles = np.array([0.2j + 1e-14, 0.1])
        assert _masked_argmax(mags, nodes, poles, 1) == (0.9, 0.2j)

    def test_no_free_node(self):
        nodes = np.array([0.1, 0.2j])
        poles = np.array([0.2j, 0.1, 0.3, 0.1])
        assert _masked_argmax(np.array([0.5, 0.9]), nodes, poles, 3) is None


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
        grid = PolarGrid(10, 64)
        b = grid.nodes()[4, 7]  # radius 0.5, angle 2*pi*8/64
        f = szego_signal(b, 64)
        tup = its_search(f, 1, SearchConfig(radial=10, angular=64))
        assert tup.poles[0] == b
        # exhaustive-scan oracle: the argmax of |<e_b, e_z>| over the grid is b
        table = feval_table(spectrum(f), grid)
        idx = np.unravel_index(np.argmax(np.abs(table)), table.shape)
        assert grid.nodes()[idx] == b

    def test_monomial_maximizer_within_grid_step(self):
        f = monomial_signal(1, 256)
        tup = its_search(f, 1, SearchConfig(radial=100, angular=256))
        assert abs(abs(tup.poles[0]) - 1.0 / np.sqrt(2.0)) <= 0.01

    def test_determinism(self):
        f = monomial_signal(3, 256)
        cfg = SearchConfig(radial=20, angular=64)
        t1 = its_search(f, 2, cfg)
        t2 = its_search(f, 2, cfg)
        np.testing.assert_array_equal(t1.poles, t2.poles)

    def test_second_search_on_a_grid_builds_no_node_matrix(self, monkeypatch):
        # the flattened nodes are built once per grid, read-only
        f = builtin_signal("ex5_3", 256)
        build, builds = PolarGrid.nodes, []
        monkeypatch.setattr(PolarGrid, "nodes", lambda grid: builds.append(grid) or build(grid))
        blaschke.search._grid_nodes.cache_clear()
        first = its_search(f, 5, SearchConfig(radial=20, angular=64))
        second = its_search(f, 5, SearchConfig(radial=20, angular=64))
        assert builds == [PolarGrid(20, 64)]
        assert not blaschke.search._grid_nodes(PolarGrid(20, 64)).flags.writeable
        np.testing.assert_array_equal(second.poles, first.poles)

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
        grid = PolarGrid(cfg.radial, cfg.angular)
        nodes = grid.nodes().ravel()
        sample = nodes[:: 37]  # spot-check a spread of candidate nodes
        for z in sample:
            if np.min(np.abs(z - tup.poles[:-1])) < 1e-12:
                continue
            cand = tup.poles.copy()
            cand[-1] = z
            assert energy(f, PoleTuple(cand)) <= base + 1e-9

    def test_tuple_independent_of_table_evaluator(self, monkeypatch):
        # the fast table and a direct series sum differ by round-off only;
        # the argmax must not see the difference
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
        tup = its_search(f, 4, SearchConfig(radial=2, angular=2))
        assert tup.degree == 4 and np.unique(tup.poles).size == 4

    @pytest.mark.parametrize("name, radial, angular", [
        ("ex5_3", 3, 2),
        ("ex5_6", 2, 4),
    ])
    def test_no_pole_stacked_on_a_taken_node(self, name, radial, angular):
        # on a coarse grid the best node is often one a fixed pole holds;
        # the search must hand the refinement distinct poles
        f = builtin_signal(name, 256)
        truth = builtin_truth(name)
        cfg = RunConfig(truth.degree, SearchConfig(radial, angular))
        res = cafd_cgd_result(f, cfg, truth=truth)
        assert np.unique(res.its_tuple.poles).size == truth.degree
        assert res.tuple_distance <= 5e-3

    def test_sweep_cap_raises_with_best_tuple(self, monkeypatch):
        # from a start far from ex5_3's poles the first sweep moves, so one
        # sweep cannot end the search
        poles, coeffs = BUILTIN_FORMS["ex5_3"]
        f = synthesize(BlaschkeModel(PoleTuple(poles), coeffs), 256)
        far = np.array([0.9, 0.9j, -0.9, -0.9j, 0.1 + 0.1j])
        monkeypatch.setattr(blaschke.search, "_pencil_poles", lambda f, n: far)
        monkeypatch.setattr(blaschke.search, "MAX_SWEEPS", 1)
        with pytest.raises(SearchNonConvergence) as err:
            its_search(f, 5, SearchConfig(radial=20, angular=64))
        assert isinstance(err.value.best_tuple, PoleTuple)
        assert err.value.best_tuple.degree == 5


# forms with a repeated, a triple, a clustered and a triple origin pole; the
# coefficients are the first n of COEFFS
STACKED_FORMS = {
    "double": [0.5, 0.5, -0.4j],
    "triple": [0.6j, 0.6j, 0.6j, -0.5],
    "cluster": [0.7, 0.7 * np.exp(0.02j), 0.7 * np.exp(-0.02j), -0.3 + 0.2j],
    "origin": [0.0, 0.0, 0.0, 0.5 + 0.5j],
}
COEFFS = [1.0, -0.7 + 0.3j, 0.5j, 0.8]


def _stacked_signal(name):
    poles = STACKED_FORMS[name]
    return synthesize(BlaschkeModel(PoleTuple(poles), COEFFS[:len(poles)]), 1024)


def _l2_error(f, poles):
    return float(np.sqrt(project(f, PoleTuple(poles)).residual_error / norm_sq(f)))


class TestPencilStart:
    """The search's start: matrix-pencil poles, snapped to the grid."""

    @pytest.mark.parametrize("name", ["ex5_3", "ex5_5", "ex5_6"])
    def test_pencil_recovers_builtin_forms(self, name):
        f = builtin_signal(name, 1024)
        poles = _pencil_poles(f, BUILTIN_DEGREES[name])
        assert poles.size == BUILTIN_DEGREES[name]
        assert _l2_error(f, poles) <= 1e-13

    @pytest.mark.parametrize("name", sorted(STACKED_FORMS))
    def test_pencil_recovers_stacked_poles(self, name):
        # a pole of multiplicity m moved by d changes f by O(d^m), so the
        # error, not the tuple distance, is the yardstick here
        f = _stacked_signal(name)
        poles = _pencil_poles(f, len(STACKED_FORMS[name]))
        assert poles.size == len(STACKED_FORMS[name])
        assert _l2_error(f, poles) <= 1e-13

    def test_pencil_finds_ex5_4_tuple(self):
        # ex5_4's L2 error at its true tuple is project's aliasing floor
        # (a pole at |a| = 0.984), so its tuple is the yardstick
        f = builtin_signal("ex5_4", 1024)
        poles = _pencil_poles(f, 4)
        assert tuple_distance(PoleTuple(poles), builtin_truth("ex5_4")) <= 1e-13

    def test_rank_caps_the_pole_count(self):
        # a kernel has rank 1: the pencil gives one pole, and the search
        # places the others on free nodes
        b = 0.3 + 0.4j
        f = szego_signal(b, 256)
        poles = _pencil_poles(f, 3)
        assert poles.size == 1 and abs(poles[0] - b) <= 1e-14
        tup = its_search(f, 3, SearchConfig(radial=20, angular=64))
        assert tup.degree == 3 and np.unique(tup.poles).size == 3

    def test_two_samples_give_no_pencil(self):
        # 3L <= N leaves L = 0: no pencil pole, and the scan places the pole
        f = monomial_signal(1, 2)
        assert _pencil_poles(f, 1).size == 0
        tup = its_search(f, 1, SearchConfig(radial=4, angular=2))
        assert tup.degree == 1 and tup.poles[0] in SearchConfig(radial=4, angular=2).grid.nodes()

    def test_snapped_to_nearest_node(self):
        # each start pole is the node nearest in ring and in angle
        grid = SearchConfig(angular=128).grid
        nodes = grid.nodes().ravel()
        truth = builtin_truth("ex5_5").poles
        start = np.array(_snap(truth, grid, nodes))
        assert np.all(np.isin(start, nodes))
        assert np.max(np.abs(np.abs(start) - np.abs(truth))) <= grid.eps / 2
        turn = 2.0 * np.pi / grid.angular
        assert np.max(np.abs(np.angle(start / truth))) <= turn / 2 + 1e-15

    def test_snap_keeps_a_pole_whose_node_is_taken(self):
        # 0.5 and 0.51 share the node of ring 5 at angle 0 (column 8 of 8):
        # the first takes it, the second keeps its own value
        grid = SearchConfig(radial=10, angular=8).grid
        nodes = grid.nodes().ravel()
        start = _snap(np.array([0.5, 0.51, 0.52j]), grid, nodes)
        assert start == [nodes[4 * 8 + 7], 0.51, nodes[4 * 8 + 1]]

    @pytest.mark.parametrize("name, angular", [("ex5_3", 128), ("ex5_2_f1", 256)])
    def test_search_reads_no_seed(self, name, angular):
        f = builtin_signal(name, 1024)
        n = BUILTIN_DEGREES[name]
        tuples = [its_search(f, n, SearchConfig(angular=angular, seed=seed)).poles
                  for seed in range(4)]
        for poles in tuples[1:]:
            np.testing.assert_array_equal(poles, tuples[0])


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
