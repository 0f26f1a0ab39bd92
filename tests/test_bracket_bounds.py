"""Pruned refinement: each bracket's value enclosure, the cut that keeps the
brackets able to win, and the full solve when a threshold's root is lost."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idlewage import GridSpec, Objective, SolverConfig, TableRequest, period_for_hour, value_tables
from idlewage import equilibrium
from idlewage.equilibrium import (
    PeriodTables,
    _brackets,
    _cut,
    _refine,
    _value_bounds,
    equilibrium_components,
    solve_slices,
)
from idlewage.objectives import profit_values, welfare_values
from idlewage.optimize import _best_over_prices

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
    keep, sets = _cut(lo, hi, cell, J)
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
    keep, sets = _cut(lo, hi, np.array([0, 0, 0, 1, 1]), np.ones(5))
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

    def test_default_tolerances_lose_no_threshold(self, monkeypatch):
        lost = self.record_full_solves(monkeypatch)
        value_tables([TableRequest.of(period_for_hour(h), obj, COARSE, FAST_SOLVER)
                      for h in (4, 19) for obj in Objective])
        assert lost == []
