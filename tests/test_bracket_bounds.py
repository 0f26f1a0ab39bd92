"""Pruned refinement: each bracket's value enclosure, the cut that keeps the
brackets able to win, the full solve when a threshold's root is lost, and
the tables read only for their best cell, with the tiles their floors
leave to scan."""

import dataclasses
import math
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idlewage import GridSpec, Objective, SolverConfig, TableRequest, period_for_hour, value_tables
from idlewage import equilibrium, optimize
from idlewage.equilibrium import (
    _BLOCK,
    _SUPER,
    _WITNESS_TILES,
    BracketingError,
    PeriodTables,
    _best,
    _block_points,
    _Blocks,
    _brackets,
    _complete,
    _cut,
    _envelope,
    _expand,
    _n_blocks,
    _needed,
    _refine,
    _relaxed_ub,
    _supers,
    _table_bound,
    _value_bounds,
    _wage_ub,
    _witness,
    equilibrium_components,
    setup_group,
    solve_slices,
)
from idlewage.objectives import profit_values, welfare_values
from idlewage.optimize import _best_over_prices, _lex_first
from oracles import blocks_by_tile, complete_per_weight

COARSE = GridSpec(p_step=0.1, j_step=0.2, tau_step=0.25)
FAST_SOLVER = SolverConfig(scan_points=1024)


def unpruned_table(r):
    """r's table reduced from every accepted root of unpruned solve_slices,
    one commission at a time."""
    tables = PeriodTables.build(r.period, np.array(r.prices), r.cfg)
    wages = np.array(r.wages)
    rows = []
    for tau in r.taus:
        ((_, roots),) = solve_slices(tables, wages, [r.period.supply.risk_beta * (1.0 - tau)])
        rows.append(_best_over_prices(tables, wages, np.array([tau]), roots, r.obj))
    return [np.concatenate(a) for a in zip(*rows)]


def assert_tables_equal_unpruned(reqs, got):
    for r in reqs:
        t = got[r]
        for a, b in zip(unpruned_table(r), (t.values, t.p_idx, t.z)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=12, deadline=None)
@given(hour=st.sampled_from([4, 12, 19]), tau=st.sampled_from([0.0, 0.5, 1.0]),
       beta=st.floats(0.05, 1.0), obj=st.sampled_from(list(Objective)))
def test_every_root_lies_in_its_bracket_enclosure(hour, tau, beta, obj):
    # every bracket of a default-grid slice is refined; each accepted root's
    # value, computed as the value table computes it, lies in the padded
    # enclosure of its scan cell
    s, g, cfg = period_for_hour(hour, beta), GridSpec(), SolverConfig()
    tables = PeriodTables.build(s, g.p_values(), cfg)
    wages, coef = g.j_values(), beta * (1.0 - tau)
    p_idx, cell_idx, j_idx, s_lo = _brackets(tables.H - coef * tables.G, wages)
    n = p_idx.size
    z = _refine(tables, wages, [np.zeros(n, dtype=int), p_idx, cell_idx, j_idx, s_lo,
                                np.full(n, coef)])
    welfare = obj is Objective.WELFARE
    lo, hi = _value_bounds(tables, p_idx, cell_idx, wages[j_idx], tau, welfare)
    ok = ~np.isnan(z)
    assert ok.sum() > 0
    p, J = tables.p[p_idx[ok]], wages[j_idx[ok]]
    T, _, Q, L, _ = equilibrium_components(s, tau, p, z[ok])
    v = welfare_values(s, p, T, Q, L) if welfare else profit_values(tau, p, Q, J, L)
    assert np.all((lo[ok] <= v) & (v <= hi[ok]))


BOUND = st.one_of(st.just(math.nan), st.floats(-10.0, 10.0))


@settings(max_examples=200, deadline=None)
@given(cells=st.lists(st.tuples(st.booleans(),
                                st.lists(st.tuples(BOUND, BOUND), min_size=1, max_size=5)),
                      min_size=1, max_size=6))
def test_cut_keeps_what_can_reach_the_threshold(cells):
    # a cell's threshold is its largest non-NaN lo, at least 0 at J = 0;
    # an enclosure goes only when its hi is below it, so a NaN never prunes
    lo = np.array([l for _, pairs in cells for l, _ in pairs])
    hi = np.array([h for _, pairs in cells for _, h in pairs])
    sizes = [len(pairs) for _, pairs in cells]
    cell = np.repeat(np.arange(len(cells)), sizes)
    J = np.repeat([1.0 if positive else 0.0 for positive, _ in cells], sizes)
    keep, sets = _cut(lo, hi, cell, J, np.full(len(cells), -np.inf), cell)
    i = 0
    for positive, pairs in cells:
        floor = -math.inf if positive else 0.0
        thr = max([floor] + [l for l, _ in pairs if not math.isnan(l)])
        for l, h in pairs:
            assert sets[i] == (l == thr and thr > floor)
            assert keep[i] == (not h < thr or sets[i])
            i += 1


def test_nan_bound_never_prunes_nor_raises_a_threshold():
    # cell 0: the NaN lo is skipped, so [3, 4] sets the threshold and [1, 2]
    # goes; cell 1: every lo is NaN, so nothing sets a threshold and all stay
    lo = np.array([np.nan, 1.0, 3.0, np.nan, np.nan])
    hi = np.array([5.0, 2.0, 4.0, -10.0, np.nan])
    cell = np.array([0, 0, 0, 1, 1])
    keep, sets = _cut(lo, hi, cell, np.ones(5), np.full(2, -np.inf), cell)
    assert keep.tolist() == [True, False, True, True, True]
    assert sets.tolist() == [False, False, True, False, False]


class TestPrunedTables:
    @pytest.mark.parametrize("hour", [4, 19])
    def test_tables_equal_the_unpruned_reduction(self, hour):
        reqs = [TableRequest.of(period_for_hour(hour, b), obj, COARSE, FAST_SOLVER)
                for b in (0.25, 1.0) for obj in Objective]
        assert_tables_equal_unpruned(reqs, value_tables(reqs, threads=2))


def test_enclosures_stay_finite_where_the_scan_margin_overflows():
    # kappa = 720 overflows the scan kernel's exp, so brackets border NaN
    # margins; the enclosures come from expit and logaddexp and stay finite
    s = period_for_hour(19)
    s = dataclasses.replace(s, demand=dataclasses.replace(s.demand, kappa=720.0))
    wages = np.geomspace(0.05, 1e8, 60)
    with np.errstate(over="ignore", invalid="ignore"):
        tables = PeriodTables.build(s, GridSpec().p_values(), SolverConfig())
        W = tables.H - s.supply.risk_beta * tables.G
    p_idx, cell_idx, j_idx, _ = _brackets(W, wages)
    assert np.isnan(W[p_idx, cell_idx]).any()
    for welfare in (False, True):
        lo, hi = _value_bounds(tables, p_idx, cell_idx, wages[j_idx], 0.0, welfare)
        assert np.isfinite(lo).all() and np.isfinite(hi).all() and np.all(lo <= hi)


class TestLostThreshold:
    @staticmethod
    def record_full_solves(monkeypatch):
        lost, full = [], equilibrium._solve_in_full

        def recording(tables, j_values, coefs, roots, weights):
            lost.extend(weights.tolist())
            return full(tables, j_values, coefs, roots, weights)

        monkeypatch.setattr(equilibrium, "_solve_in_full", recording)
        return lost

    def test_weight_is_solved_in_full(self, monkeypatch):
        # six passes at tol_eq 1e-3 reject about half the roots, so some
        # bracket that set a threshold gives none; its weight is solved again
        # with every bracket refined, and the tables equal the winners of
        # every accepted root
        monkeypatch.setattr(equilibrium, "_MAX_BISECT_ITER", 6)
        cfg = SolverConfig(tol_eq=1e-3)
        lost = self.record_full_solves(monkeypatch)
        reqs = [TableRequest.of(period_for_hour(19), obj, COARSE, cfg) for obj in Objective]
        got = value_tables(reqs)
        assert lost
        assert_tables_equal_unpruned(reqs, got)

    def test_best_table_weight_is_solved_in_full(self, monkeypatch):
        # the same on a "best" group, which holds no scan table: the full
        # solve builds its own, and every cell the table computes holds the
        # winner of every accepted root; it refines fewer brackets, so four
        # passes lose a threshold there
        monkeypatch.setattr(equilibrium, "_MAX_BISECT_ITER", 4)
        cfg = SolverConfig(tol_eq=1e-3)
        lost = self.record_full_solves(monkeypatch)
        reqs = [TableRequest.of(period_for_hour(19, 0.25), obj, COARSE, cfg, reduction="best")
                for obj in Objective]
        got = value_tables(reqs)
        assert lost
        for r in reqs:
            t, want = got[r], unpruned_table(r)
            done = ~np.isnan(t.values)
            assert done.any()
            for a, b in zip(want, (t.values, t.p_idx, t.z)):
                assert np.array_equal(a[done].view(np.int64), b[done].view(np.int64))

    def test_default_tolerances_lose_no_threshold(self, monkeypatch):
        lost = self.record_full_solves(monkeypatch)
        value_tables([TableRequest.of(period_for_hour(h), obj, COARSE, FAST_SOLVER)
                      for h in (4, 19) for obj in Objective])
        assert lost == []


def n_supers(tables) -> int:
    """The super tiles of tables' grids."""
    return tables.p.size * _n_blocks(tables.z.size, _SUPER)


def every_tile(tables):
    """The enclosures of every tile of tables' grids, welfare's bound too."""
    return _expand(tables, np.arange(n_supers(tables)), True)


def with_blocks(tables):
    """tables with the enclosures of every tile set."""
    tables.blocks = every_tile(tables)
    return tables


def best_group(hour, beta, cfg=SolverConfig(), objs=tuple(Objective), build=False):
    """A default-grid period's tables (the full scan table too if build),
    set up as a "best" group of one table per objective of objs, its
    wages, weights, its (objective, commission) rows (k, tau, welfare),
    each table's rows and their floors."""
    g, s = GridSpec(), period_for_hour(hour, beta)
    tables = (PeriodTables.build if build else PeriodTables.of)(s, g.p_values(), cfg)
    taus = g.tau_values()
    coefs = beta * (1.0 - taus[::-1])   # ascending, as value_tables orders them
    k = np.tile(np.arange(taus.size)[::-1], len(objs))
    rows = (k, np.tile(taus, len(objs)), np.repeat([o is Objective.WELFARE for o in objs], taus.size))
    best = np.split(np.arange(k.size), len(objs))
    floor = setup_group(tables, g.j_values(), coefs, rows, best)
    return tables, g.j_values(), coefs, rows, best, floor


class TestTiles:
    @pytest.mark.parametrize("hour, beta", [(19, 0.25), (4, 0.2), (12, 0.95)])
    def test_brackets_reaching_the_floor_lie_in_needed_tiles(self, hour, beta):
        # every bracket whose value bound reaches its best table's floor
        # lies in a tile the tile test scans, and few tiles are scanned
        tables, wages, coefs, rows, _, floor = best_group(hour, beta, build=True)
        k, tau, welfare = rows
        need = np.zeros((coefs.size, tables.p.size * tables.blocks.n_b), dtype=bool)
        for t, tile in enumerate(_needed(tables, wages, coefs, (*rows, floor))):
            need[t, tile] = True
        kept = 0
        for r in range(k.size):
            assert floor[r] > 0.0
            p_idx, cell_idx, j_idx, _ = _brackets(tables.H - coefs[k[r]] * tables.G, wages)
            _, hi = _value_bounds(tables, p_idx, cell_idx, wages[j_idx], tau[r], welfare[r])
            keep = ~(hi < floor[r])
            assert need[k[r], p_idx[keep] * tables.blocks.n_b + cell_idx[keep] // _BLOCK].all()
            kept += keep.sum()
        assert 0 < need.mean() < 0.01
        assert kept > 0

    @pytest.mark.parametrize("hour, betas, threads", [
        (19, (0.25,), 1), (4, (0.2,), 1), (12, (0.95,), 1),
        (19, (0.25, 0.5), 1), (19, (0.25, 0.5), 2),
    ], ids=["19-0.25", "4-0.2", "12-0.95", "19-0.25+0.5-threads1", "19-0.25+0.5-threads2"])
    def test_relaxed_pass_only_filters(self, monkeypatch, hour, betas, threads):
        # the tiles the streams scan are exactly those the exact test keeps
        # on every (row, tile) pair of the whole grid, with no relaxed pass
        # or super tile before it; at betas 0.25 and 0.5 two tables per
        # objective share their tau = 1 row (weight 0), whose floor is the
        # lesser of two witnesses
        setups, scanned = [], []
        setup, brackets = optimize.setup_group, equilibrium._tile_brackets

        def recording_setup(*args):
            setups.append((*args, floor := setup(*args)))
            return floor

        def recording(tables, j_values, coefs, t, tile, known):
            if setups:   # a stream's scan, not a witness's
                scanned.append((coefs[t], tile))
            return brackets(tables, j_values, coefs, t, tile, known)

        monkeypatch.setattr(optimize, "setup_group", recording_setup)
        monkeypatch.setattr(equilibrium, "_tile_brackets", recording)
        value_tables([TableRequest.of(period_for_hour(hour, b), obj, reduction="best")
                      for b in betas for obj in Objective], threads)
        ((tables, wages, coefs, (k, tau, welfare), best, floor),) = setups
        shared = np.flatnonzero(coefs[k] == 0.0)   # each objective's tau = 1 row
        assert shared.size == len(Objective)
        assert all(sum(r in rows for rows in best) == len(betas) for r in shared)
        B = every_tile(tables)
        every = np.arange(B.tile.size)
        want = np.zeros((coefs.size, every.size), dtype=bool)
        for r in range(k.size):
            a, b, ub = _wage_ub(B, wages, coefs[k[r]], tau[r], every, welfare[r])
            want[k[r]] |= (a < b) & ~(ub < floor[r])
        got = np.zeros_like(want)
        for c, tile in scanned:
            got[np.searchsorted(coefs, c), tile] = True
        assert want.any()
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("welfare", [False, True])
    @pytest.mark.parametrize("hour, beta, cfg", [(19, 0.25, SolverConfig()), (4, 0.2, FAST_SOLVER)])
    def test_tile_bound_covers_every_bracket_of_its_tile(self, hour, beta, cfg, welfare):
        # a tile's wage range holds every wage its scan cells bracket, and its
        # value bound at the range's least wage reaches each bracket's
        # upper bound, so no bracket that reaches a floor is left unscanned
        g, s = GridSpec(), period_for_hour(hour, beta)
        tables, wages = with_blocks(PeriodTables.build(s, g.p_values(), cfg)), g.j_values()
        several = 0
        for tau in (0.0, 0.5, 0.95):
            coef = beta * (1.0 - tau)
            p_idx, cell_idx, j_idx, _ = _brackets(tables.H - coef * tables.G, wages)
            _, hi = _value_bounds(tables, p_idx, cell_idx, wages[j_idx], tau, welfare)
            tile = p_idx * tables.blocks.n_b + cell_idx // _BLOCK
            a, b, ub = _wage_ub(tables.blocks, wages, coef, tau, tile, welfare)
            assert np.all((a <= j_idx) & (j_idx < b))
            assert not np.any(ub < hi)
            several += np.count_nonzero(j_idx > a)
        assert several > 0   # some tiles hold more than one bracketed wage

    def test_completeness_scans_a_row_finely_before_raising(self):
        # row 0 has no coarse count step over J = 1 but a fine one inside
        # its first block; row 1 has none at all
        n_z = 2 * _BLOCK + 1
        H = np.full((2, n_z), 2.0)
        H[0, 5] = 0.5
        tables = SimpleNamespace(kernel=lambda i, j: (np.zeros_like(H)[i, j], H[i, j]),
                                 z=np.empty(n_z))
        wages, coefs = np.array([0.0, 1.0]), np.array([0.3])
        G_ends, H_ends = np.zeros((2, 3)), H[:, [0, _BLOCK, 2 * _BLOCK]]
        _, _, j_idx, _ = _brackets(H[:1], wages)
        assert 1 in j_idx
        _complete(tables, wages, coefs, G_ends[:1], H_ends[:1])
        with pytest.raises(BracketingError, match="widen"):
            _complete(tables, wages, coefs, G_ends, H_ends)

    @pytest.mark.parametrize("reduction", ["cells", "best"])
    def test_overflowing_table_still_raises(self, reduction):
        # kappa = 720: NaN margins everywhere, no bracket for most prices
        s = period_for_hour(19)
        s = dataclasses.replace(s, demand=dataclasses.replace(s.demand, kappa=720.0))
        r = TableRequest.of(s, Objective.PROFIT, COARSE, FAST_SOLVER, reduction=reduction)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BracketingError, match="widen"):
                value_tables([r])


def raises(check, *args) -> bool:
    """Whether check(*args) raises BracketingError."""
    try:
        check(*args)
    except BracketingError:
        return True
    return False


def with_kappa(s, kappa):
    return s if kappa is None else dataclasses.replace(
        s, demand=dataclasses.replace(s.demand, kappa=kappa))


class TestTwoWeightCompleteness:
    """The check at the least and the largest weight raises exactly when
    the per-weight check does."""

    @pytest.mark.parametrize("hour, cfg, kappa, fails", [
        *[(h, SolverConfig(), None, False) for h in (4, 12, 19)],
        # a window up to z = 5 holds no margin above the last wage
        *[(h, SolverConfig(z_max=5.0, scan_points=512), None, True) for h in (4, 12, 19)],
        *[(h, FAST_SOLVER, k, True) for h in (4, 19) for k in (709.0, 720.0, 740.0)],
    ])
    def test_tables(self, hour, cfg, kappa, fails):
        # kappa 720 and 740 overflow exp (from ~709.8 on): 0*inf is NaN at
        # weight 0 and -inf at a larger one; a wage grid without J > 0
        # checks nothing
        g = GridSpec()
        tables = PeriodTables.of(with_kappa(period_for_hour(hour, 0.25), kappa), g.p_values(), cfg)
        coefs = np.unique(0.25 * (1.0 - g.tau_values()))
        assert coefs[0] == 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            G, H = tables.super_ends()
            verdicts = [raises(check, tables, wages, coefs, G, H)
                        for wages in (g.j_values(), np.array([0.7, 1.4]), np.array([0.0]))
                        for check in (_complete, complete_per_weight)]
        assert verdicts[0::2] == verdicts[1::2]
        assert verdicts[0] == fails and not verdicts[-1]

    def test_failing_prices_are_scanned_in_full(self):
        # price 0 passes at its block ends; price 1 fails there, but a dip
        # inside its first block brackets J = 1; price 2 dips too, but at
        # weight 1 its margin stays <= the last wage everywhere
        n_z = 2 * _BLOCK + 1
        H, G = np.full((3, n_z), 2.0), np.zeros((3, n_z))
        H[0, -1] = H[1, 5] = H[2, 10] = 0.5
        G[2] = 1.5
        ends, wages = _block_points(n_z), np.array([0.0, 1.0])
        for prices, coefs, fails in [([0], [0.0, 0.5, 1.0], False), ([0, 1], [0.0, 0.5, 1.0], False),
                                     ([0, 1, 2], [0.0, 0.5, 1.0], True), ([2], [0.0, 0.5], False),
                                     ([2], [0.5, 1.0], True)]:
            gathered, G_p, H_p = [], G[prices], H[prices]

            def kernel(i, j):
                gathered.append(np.unique(i).tolist())
                return G_p[i, j], H_p[i, j]

            tables = SimpleNamespace(kernel=kernel, z=np.empty(n_z))
            args = (tables, wages, np.array(coefs), G_p[:, ends], H_p[:, ends])
            assert raises(_complete, *args) == fails
            # one gather, of the prices that fail at their block ends
            assert gathered == ([[i for i, p in enumerate(prices) if p]] if prices != [0] else [])
            assert raises(complete_per_weight, *args) == fails


class TestEnclosures:
    """The enclosures of the tiles a setup builds, profit's envelope over
    a table's line, and the super tiles' bounds over their tiles."""

    @pytest.mark.parametrize("cfg", [SolverConfig(), FAST_SOLVER], ids=["default", "fast"])
    @pytest.mark.parametrize("beta", [0.2, 0.95])
    @pytest.mark.parametrize("hour", [4, 12, 19, 22])
    def test_fields_equal_the_per_tile_construction(self, hour, beta, cfg):
        # on the tiles a setup builds, with and without a welfare table
        for objs in ((Objective.PROFIT,), tuple(Objective)):
            tables = best_group(hour, beta, cfg, objs)[0]
            got, welfare = tables.blocks, Objective.WELFARE in objs
            assert (got.welfare_hi is None) == (not welfare)
            assert 0 < got.tile.size < tables.p.size * got.n_b
            want = blocks_by_tile(tables, got.tile, welfare)
            for name, a in want.items():
                b = getattr(got, name)
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                else:
                    assert a == b

    @pytest.mark.parametrize("cfg", [SolverConfig(), FAST_SOLVER], ids=["default", "fast"])
    @pytest.mark.parametrize("beta", [0.2, 0.95])
    @pytest.mark.parametrize("hour", [4, 12, 19, 22])
    def test_masks_and_floors_equal_the_all_tile_construction(self, hour, beta, cfg):
        # a witness ranked over every tile's table bound, with every tile's
        # enclosures built on its own, gives the setup's floors, and its
        # candidates are the setup's, though the setup builds few tiles
        tables, wages, coefs, rows, best, floor = best_group(hour, beta, cfg)
        B = tables.blocks
        every = _Blocks(**blocks_by_tile(tables, np.arange(tables.p.size * B.n_b), True))
        base = 0.0 if (wages <= 0.0).any() else -np.inf
        want_floor, want = np.full(floor.size, np.inf), {}
        for r in best:
            bound = _table_bound(every, wages, coefs, rows, r)
            value = _witness(tables, wages, coefs, rows, r, base, every, _best(bound, _WITNESS_TILES))
            want_floor[r] = np.minimum(want_floor[r], value)
            w = bool(rows[2][r[0]])
            want[w] = want.get(w, False) | ~(bound < value)
        assert floor.tobytes() == want_floor.tobytes()
        assert sorted(B.candidates) == sorted(want) == [False, True]
        for w, m in want.items():
            got = np.zeros(m.size, dtype=bool)
            got[B.tile[B.candidates[w]]] = True
            assert m.any() and np.array_equal(got, m)
        assert B.tile.size < every.tile.size

    @settings(max_examples=60, deadline=None)
    @given(hour=st.integers(1, 24), beta=st.sampled_from([0.2, 0.25, 0.95]) | st.floats(0.05, 1.0),
           taus=st.just([1.0]) | st.lists(st.sampled_from([0.0, 0.05, 0.5, 1.0]) | st.floats(0.0, 1.0),
                                          min_size=1, max_size=6, unique=True),
           wages=st.lists(st.sampled_from([0.0, 0.15, 1.4]) | st.floats(0.0, 3.0),
                          min_size=1, max_size=8, unique=True).map(sorted),
           kappa=st.sampled_from([None, None, 720.0]))
    def test_envelope_reaches_every_row_bound(self, hour, beta, taus, wages, kappa):
        # on every tile the envelope is at least each row's exact bound, and
        # NaN where that is NaN, so its candidates hold every needed tile
        s = with_kappa(period_for_hour(hour, beta), kappa)
        with np.errstate(over="ignore", invalid="ignore"):
            B = with_blocks(PeriodTables.of(s, COARSE.p_values(), SolverConfig(scan_points=512))).blocks
            taus, wages = np.array(taus), np.array(wages)
            coefs = s.supply.risk_beta * (1.0 - taus)   # as value_tables computes each row's weight
            env = _envelope(B, wages, coefs, taus)
            every = np.arange(B.bad.size)
            for c, tau in zip(coefs, taus):
                _, _, ub = _wage_ub(B, wages, c, tau, every, False)
                assert np.all(np.isnan(env) | (env >= ub))

    @settings(max_examples=60, deadline=None)
    @given(hour=st.integers(1, 24), beta=st.sampled_from([0.2, 0.25, 0.95]) | st.floats(0.05, 1.0),
           taus=st.just([1.0]) | st.lists(st.sampled_from([0.0, 0.05, 0.5, 1.0]) | st.floats(0.0, 1.0),
                                          min_size=1, max_size=6, unique=True),
           wages=st.lists(st.sampled_from([0.0, 0.15, 1.4]) | st.floats(0.0, 3.0),
                          min_size=1, max_size=8, unique=True).map(sorted),
           kappa=st.sampled_from([None, None, 720.0]), scan_points=st.sampled_from([512, 600]))
    def test_super_tile_bound_reaches_its_tiles(self, hour, beta, taus, wages, kappa, scan_points):
        # each super tile's table bound, profit's envelope and welfare's
        # relaxed bound, is at least every bound of the tiles it covers, or
        # NaN where one of those is NaN, so the tiles a witness keeps lie
        # in the super tiles it keeps; at 600 scan points a price's last
        # super tile is short
        s = with_kappa(period_for_hour(hour, beta), kappa)
        with np.errstate(over="ignore", invalid="ignore"):
            tables = PeriodTables.of(s, COARSE.p_values(), SolverConfig(scan_points=scan_points))
            S, B = _supers(tables, *tables.super_ends(), True), every_tile(tables)
            p_idx, b = np.divmod(B.tile, B.n_b)
            owner = p_idx * S.n_b + b // (_SUPER // _BLOCK)   # each tile's super tile
            taus, wages = np.array(taus), np.array(wages)
            coefs = s.supply.risk_beta * (1.0 - taus)   # as value_tables computes each row's weight
            for bound in (lambda X: _envelope(X, wages, coefs, taus),
                          lambda X: _relaxed_ub(X, wages, coefs.min(), coefs.max())):
                sup, tile = bound(S)[owner], bound(B)
                assert np.all(np.isnan(sup) | (sup >= tile))

    def test_profit_keeps_few_candidate_tiles(self, monkeypatch):
        tables, setup = [], optimize.setup_group

        def recording(*args):
            tables.append(args[0])
            return setup(*args)

        monkeypatch.setattr(optimize, "setup_group", recording)
        value_tables([TableRequest.of(period_for_hour(19, 0.25), Objective.PROFIT, reduction="best")])
        (t,) = tables
        assert 0 < np.count_nonzero(t.blocks.candidates[False]) < 1000
        assert t.blocks.tile.size < t.p.size * t.blocks.n_b / 4   # few tiles are built


class TestWitness:
    @pytest.mark.parametrize("obj", list(Objective))
    def test_exact_bound_runs_on_the_ranked_tiles_alone(self, monkeypatch, obj):
        # the table bound ranks _WITNESS_TILES tiles, and the exact bound
        # runs on every (row, tile) pair of those alone
        inside, bounded = [], []
        witness, wage_ub = equilibrium._witness, equilibrium._wage_ub

        def in_witness(*args):
            inside.append(True)
            try:
                return witness(*args)
            finally:
                inside.clear()

        def recording(B, j_values, c, tau, tile, welfare):
            if inside:
                bounded.append(np.unique(tile).size)
            return wage_ub(B, j_values, c, tau, tile, welfare)

        monkeypatch.setattr(equilibrium, "_witness", in_witness)
        monkeypatch.setattr(equilibrium, "_wage_ub", recording)
        value_tables([TableRequest.of(period_for_hour(19, 0.25), obj, reduction="best")])
        assert len(bounded) == 1
        assert 0 < bounded[0] <= _WITNESS_TILES


class TestTileKernel:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_streams_evaluate_each_scanned_tile_once(self, monkeypatch, threads):
        # most welfare tiles are scanned at many weights; a stream evaluates
        # the kernel once on each distinct tile it scans, _BLOCK + 1 points
        # a tile, and the table keeps the bits of one that reads the full
        # scan table
        r = TableRequest.of(period_for_hour(19, 0.25), Objective.WELFARE, reduction="best")
        with monkeypatch.context() as m:   # every gather reads a full table
            m.setattr(optimize, "PeriodTables",
                      SimpleNamespace(of=PeriodTables.build, build=PeriodTables.build))
            want = value_tables([r], threads)[r]

        setups, points, streams = [], [], {}   # streams: each stream's kernel, its tiles
        setup, brackets = optimize.setup_group, equilibrium._tile_brackets
        kernel = PeriodTables.kernel

        def recording_setup(*args):
            setups.append(floor := setup(*args))
            return floor

        def recording_brackets(tables, j_values, coefs, t, tile, known):
            if setups:   # a stream's scan, not a witness's
                streams.setdefault(id(known), (known, set()))[1].update(tile.tolist())
            return brackets(tables, j_values, coefs, t, tile, known)

        def recording_kernel(tables, p_idx, z_idx):   # the scan's gathers, not the bisection's
            if setups:
                points.append(math.prod(np.broadcast_shapes(np.shape(p_idx), np.shape(z_idx))))
            return kernel(tables, p_idx, z_idx)

        monkeypatch.setattr(optimize, "setup_group", recording_setup)
        monkeypatch.setattr(equilibrium, "_tile_brackets", recording_brackets)
        monkeypatch.setattr(PeriodTables, "kernel", recording_kernel)
        got = value_tables([r], threads)[r]
        assert len(streams) == threads
        distinct = sum(len(tiles) for _, tiles in streams.values())
        assert distinct > 0
        assert sum(points) == distinct * (_BLOCK + 1)
        for a, b in zip((want.values, want.p_idx, want.z), (got.values, got.p_idx, got.z)):
            assert a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


def full_table_bad(tables, B, width):
    """B's blocks of width scan cells (every one of tables' grids) that
    hold a non-finite G or H, by a sum over each block's every point of
    the full scan table, plus B's enclosure pieces."""
    pts = _block_points(tables.z.size, width)
    ends = tables.G[:, pts[1:]] + tables.H[:, pts[1:]]
    for a in (tables.G, tables.H):
        ends += np.add.reduceat(a, pts[:-1], axis=1)
    return ~np.isfinite(ends.ravel() + B.H_lo + B.H_hi + B.G_lo + B.G_hi)


class TestGatheredKernel:
    """A "best" group evaluates the scan kernel only where it reads it."""

    @pytest.mark.parametrize("scan_points", [4096, 512])
    @pytest.mark.parametrize("kappa", [None, 709.0, 710.0, 720.0, 740.0])
    @pytest.mark.parametrize("hour", [4, 19])
    def test_block_ends_mark_every_non_finite_block(self, hour, kappa, scan_points):
        # exp(kappa + beta_T*z) overflows from kappa ~709.8 on; the tiles
        # and the super tiles marked from their ends and enclosure pieces
        # cover those a sum over every point of the full table marks
        s = period_for_hour(hour)
        if kappa is not None:
            s = dataclasses.replace(s, demand=dataclasses.replace(s.demand, kappa=kappa))
        p, cfg = GridSpec().p_values(), SolverConfig(scan_points=scan_points)
        with np.errstate(over="ignore", invalid="ignore"):
            full, lean = PeriodTables.build(s, p, cfg), PeriodTables.of(s, p, cfg)
            for B, width in ((every_tile(lean), _BLOCK),
                             (_supers(lean, *lean.super_ends(), False), _SUPER)):
                want = full_table_bad(full, B, width)
                assert not np.any(want & ~B.bad)
                assert want.any() == (kappa is not None and kappa >= 710.0)

    @pytest.mark.parametrize("hour", [4, 19])
    def test_gathered_kernel_equals_the_full_table(self, hour):
        s, p, cfg = period_for_hour(hour), GridSpec().p_values(), SolverConfig()
        full, lean = PeriodTables.build(s, p, cfg), PeriodTables.of(s, p, cfg)
        rng = np.random.default_rng(hour)
        n_b = with_blocks(lean).blocks.n_b
        tile = rng.integers(0, p.size * n_b, 5000)
        p_idx, b = np.divmod(tile, n_b)
        z_idx = np.minimum(b[:, None] * _BLOCK + np.arange(_BLOCK + 1), cfg.scan_points - 1)
        for idx in ((p_idx[:, None], z_idx), (np.repeat(p_idx, _BLOCK + 1), z_idx.ravel())):
            for got, want in zip(lean.kernel(*idx), (full.G[idx], full.H[idx])):
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @staticmethod
    def spy_kernel(monkeypatch):
        """The broadcast shape of every scan-kernel call, from any thread."""
        shapes, kernel = [], equilibrium._kernel

        def spying(s, p, z, ep=None):
            shapes.append(np.broadcast_shapes(np.shape(p), np.shape(z)))
            return kernel(s, p, z, ep)

        monkeypatch.setattr(equilibrium, "_kernel", spying)
        return shapes

    def test_best_tables_never_evaluate_the_full_grid(self, monkeypatch):
        g, cfg = GridSpec(), SolverConfig()
        shapes = self.spy_kernel(monkeypatch)
        reqs = [TableRequest.of(period_for_hour(19, 0.25), obj, g, cfg, reduction="best")
                for obj in Objective]
        value_tables(reqs)
        assert shapes
        assert max(math.prod(sh) for sh in shapes) < g.p_values().size * cfg.scan_points

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("hours", [(19,), (4, 19)])
    def test_cells_groups_build_the_full_table_once(self, monkeypatch, hours, threads):
        # a period is a group of several weights: one group on two threads
        # streams two parts, two groups on two threads one part each
        shapes = self.spy_kernel(monkeypatch)
        reqs = [TableRequest.of(period_for_hour(h), obj, COARSE, FAST_SOLVER)
                for h in hours for obj in Objective]
        value_tables(reqs, threads)
        full = (COARSE.p_values().size, FAST_SOLVER.scan_points)
        assert shapes.count(full) == len(hours)
        assert all(math.prod(sh) < math.prod(full) for sh in shapes if sh != full)


class TestOnePassEach:
    """A "best" group evaluates its super tiles' ends, decides
    completeness and bounds every super tile once per table in one setup
    call, before the split; no bound and no enclosure spans every tile."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_passes_per_group_and_per_stream(self, monkeypatch, threads):
        events = []   # [name, thread, note on the call], in the order the calls start

        def spy(owner, name, note=lambda args, out: None):
            fn = getattr(owner, name)

            def spying(*args):
                events.append(event := [name, threading.get_ident(), None])
                out = fn(*args)
                event[2] = note(args, out)
                return out

            monkeypatch.setattr(owner, name, spying)

        spy(optimize, "setup_group")
        spy(PeriodTables, "super_ends")
        spy(equilibrium, "_complete", lambda args, out: args[2].tolist())   # the weights checked
        spy(equilibrium, "_witness")
        size = lambda args, out: out.size   # noqa: E731
        spy(equilibrium, "_relaxed_ub", size)
        spy(equilibrium, "_envelope", size)
        spy(equilibrium, "_expand", lambda args, out: out.tile.size)   # the tiles built
        spy(optimize, "solve_slices")
        reqs = [TableRequest.of(period_for_hour(19, 0.25), obj, reduction="best")
                for obj in Objective]
        value_tables(reqs, threads)
        g = GridSpec()
        supers = g.p_values().size * 16   # 4096 scan points: 16 super tiles of 256 cells a price
        tiles = g.p_values().size * 256

        names = [e[0] for e in events]
        witness, split = names.index("_witness"), names.index("solve_slices")
        assert names.count("setup_group") == 1 and names.index("setup_group") == 0
        assert names.count("super_ends") == 1 and names.index("super_ends") < witness
        # one completeness decision, on the calling thread, over all the weights
        ((i, check),) = [(i, e) for i, e in enumerate(events) if e[0] == "_complete"]
        assert i < witness and check[1] == threading.get_ident()
        weights = np.unique(0.25 * (1.0 - GridSpec().tau_values()))
        assert check[2] == weights.tolist()
        bounds = [i for i, n in enumerate(names) if n in ("_relaxed_ub", "_envelope")]
        built = [events[i][2] for i, n in enumerate(names) if n == "_expand"]
        assert names.count("solve_slices") == threads
        assert all(i < split for i in bounds) and names.index("_expand") < split
        # one pass per table bounds every super tile; the others bound the
        # tiles expanded, and neither spans every tile
        every = [i for i in bounds if events[i][2] == supers]
        assert [names[i] for i in every] == ["_envelope", "_relaxed_ub"]
        assert len(every) == names.count("_witness") == len(reqs)
        assert max(events[i][2] for i in bounds) < tiles and 0 < max(built) < tiles / 4

    @pytest.mark.parametrize("objs", [(Objective.PROFIT,), (Objective.WELFARE,), tuple(Objective)])
    def test_welfare_bound_only_for_a_welfare_row(self, monkeypatch, objs):
        # a profit-only group bounds no welfare; a group with a welfare row
        # bounds every super tile's welfare once, at the setup, and then
        # that of the tiles it expands alone
        tables, welfare_bounds = [], []
        solve, welfare_ub = optimize.solve_slices, equilibrium._welfare_ub

        def recording_solve(*args):
            tables.append(args[0])
            return solve(*args)

        def recording_welfare_ub(*args):
            welfare_bounds.append(out := welfare_ub(*args))
            return out

        monkeypatch.setattr(optimize, "solve_slices", recording_solve)
        monkeypatch.setattr(equilibrium, "_welfare_ub", recording_welfare_ub)
        value_tables([TableRequest.of(period_for_hour(19, 0.25), obj, reduction="best")
                      for obj in objs])
        (B,) = {id(t.blocks): t.blocks for t in tables}.values()
        reads = Objective.WELFARE in objs
        assert (B.welfare_hi is not None) == reads
        supers, tiles = GridSpec().p_values().size * 16, GridSpec().p_values().size * 256
        sizes = [b.size for b in welfare_bounds]
        assert [s for s in sizes if s == supers] == [supers] * reads
        assert (B.welfare_hi.size == B.tile.size if reads else not sizes)
        assert all(s < tiles for s in sizes)


def lex_winner(r, t):
    p, j, tau = np.array(r.prices), np.array(r.wages), np.array(r.taus)
    return _lex_first(-t.values, p[t.p_idx], j, tau[:, None])


AGREEMENT_CASES = [
    *[pytest.param(obj, *case, id=f"{name}-{obj}") for name, *case in [
        ("default-19", 19, 0.25, GridSpec(), SolverConfig()),
        ("default-4", 4, 0.2, GridSpec(), SolverConfig()),
        ("coarse-19", 19, 0.25, COARSE, FAST_SOLVER),
        ("coarse-12", 12, 0.95, COARSE, FAST_SOLVER),
    ] for obj in Objective],
    # welfare tables whose witness depends on how many tiles are ranked
    *[pytest.param(Objective.WELFARE, h, 0.25, GridSpec(), SolverConfig(),
                   id=f"default-{h}-{Objective.WELFARE}") for h in (18, 20)],
]


class TestBestReduction:
    @pytest.mark.parametrize("obj, hour, beta, grid, cfg", AGREEMENT_CASES)
    def test_best_table_agrees_with_cells_table(self, obj, hour, beta, grid, cfg):
        cells = TableRequest.of(period_for_hour(hour, beta), obj, grid, cfg)
        best = dataclasses.replace(cells, reduction="best")
        want, got = value_tables([cells])[cells], value_tables([best])[best]
        i = lex_winner(cells, want)
        assert lex_winner(best, got) == i
        for a, b in zip((want.values, want.p_idx, want.z), (got.values, got.p_idx, got.z)):
            assert np.array_equal(a.flat[i:i + 1].view(np.int64), b.flat[i:i + 1].view(np.int64))
        # every cell the best table skipped is NaN; every other one is exact
        skipped = np.isnan(got.values)
        assert skipped.any() and not skipped.all()
        for a, b in zip((want.values, want.p_idx, want.z), (got.values, got.p_idx, got.z)):
            assert np.array_equal(a[~skipped].view(np.int64), b[~skipped].view(np.int64))

    def test_rows_read_in_full_are_not_skipped(self, monkeypatch):
        # the same rows read for every cell by one request and for the best
        # cell by another: the group scans in full, so neither has a NaN
        def no_tiles(*args):
            raise AssertionError("a group with a cells request took the tile path")

        monkeypatch.setattr(equilibrium, "_needed", no_tiles)
        cells = TableRequest.of(period_for_hour(19), Objective.PROFIT, COARSE, FAST_SOLVER)
        best = dataclasses.replace(cells, reduction="best")
        got = value_tables([cells, best])
        assert not np.isnan(got[best].values).any()
        for a, b in zip((got[cells].values, got[cells].z), (got[best].values, got[best].z)):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_shared_rows_take_the_lowest_floor(self):
        # two best tables of one period at betas 0.25 and 0.5 share their
        # tau = 1 row (weight 0); each keeps the winner it has alone
        reqs = [TableRequest.of(period_for_hour(19, b), obj, COARSE, FAST_SOLVER,
                                reduction="best") for b in (0.25, 0.5) for obj in Objective]
        together = value_tables(reqs, threads=2)
        for r in reqs:
            alone = value_tables([r])[r]
            i = lex_winner(r, alone)
            assert lex_winner(r, together[r]) == i
            assert together[r].values.flat[i] == alone.values.flat[i]

    @pytest.mark.parametrize("wages", [[0.0, 0.7], [0.7, 1.4]])
    def test_floor_is_a_value_the_table_attains(self, wages):
        # the floor is at least 0 exactly when the wage grid holds J = 0 (the
        # shutdown's value) and never above the best cell
        s = period_for_hour(19)
        r = TableRequest.of(s, Objective.PROFIT, COARSE, FAST_SOLVER, j_values=wages,
                            reduction="best")
        tables = PeriodTables.build(s, COARSE.p_values(), FAST_SOLVER)
        taus = COARSE.tau_values()
        coefs = s.supply.risk_beta * (1.0 - taus[::-1])
        rows = (np.arange(taus.size)[::-1], taus, np.zeros(taus.size, dtype=bool))
        floor = setup_group(tables, np.array(wages), coefs, rows, [np.arange(taus.size)])
        assert np.all(floor == floor[0])
        assert floor[0] <= np.nanmax(value_tables([r])[r].values)
        assert floor[0] >= 0.0 if wages[0] == 0.0 else np.isfinite(floor[0])
