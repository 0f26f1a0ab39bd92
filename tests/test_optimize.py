import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idlewage import (
    BlockConstraint,
    DayScenario,
    GridSpec,
    InfeasibleError,
    Objective,
    PolicyPoint,
    SolverConfig,
    TableRequest,
    admissible_blocks,
    block_wage_max,
    builtin_day,
    day_requests,
    find_equilibria,
    optimize_day_fixed,
    optimize_day_flexible,
    optimize_min_wage,
    optimize_single_period,
    period_for_hour,
    select_equilibrium,
    sweep_day_idle_wage,
    sweep_idle_wage,
    two_period_day,
    value_tables,
    value_vs_tau,
)
from idlewage import equilibrium, optimize
from idlewage.equilibrium import _MAX_TABLE_CELLS, PeriodTables, solve_slices
from idlewage.objectives import evaluate
from idlewage.optimize import _best_over_prices, _lex_first, _roots_of

H19 = period_for_hour(19)

# coarse but structurally faithful grid for fast optimizer tests
COARSE = GridSpec(p_step=0.1, j_step=0.2, tau_step=0.25)
FAST_SOLVER = SolverConfig(scan_points=1024)

# the reproduce-all determinism config of acceptance criterion 10
CRIT10 = GridSpec(p_step=0.25, j_step=0.7, tau_step=0.5)
CRIT10_SOLVER = SolverConfig(scan_points=512)


def day_tables(d, obj, g, cfg):
    """Every period's value table from one value_tables call, in period order."""
    reqs = day_requests(d, obj, g, cfg)
    tables = value_tables(reqs)
    return [tables[r] for r in reqs]


def zero_lambda_period():
    s = period_for_hour(19)
    return dataclasses.replace(s, demand=dataclasses.replace(s.demand, lambda_max=0.0))


class TestGridSpec:
    def test_default_grid_sizes(self):
        g = GridSpec()
        assert g.p_values().size == 501
        assert g.j_values().size == 57
        assert g.tau_values().size == 21

    def test_canonical_decimal_values(self):
        g = GridSpec()
        assert 1.1 in g.j_values()
        assert 0.9 in g.tau_values()
        assert 3.13 in g.p_values()
        assert g.tau_values()[0] == 0.0 and g.tau_values()[-1] == 1.0

    def test_tau_grid_must_reach_one(self):
        with pytest.raises(ValueError):
            GridSpec(tau_step=0.3)

    def test_steps_positive(self):
        with pytest.raises(ValueError):
            GridSpec(p_step=0.0)

    @pytest.mark.parametrize("field", ["p_min", "j_min"])
    def test_negative_minimum_names_the_field(self, field):
        # prices and idle wages are >= 0 wherever a policy is built
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            GridSpec(**{field: -0.7})

    @pytest.mark.parametrize("field", ["p_step", "j_step", "tau_step"])
    def test_grid_over_budget_names_the_field(self, field):
        # counted before any grid is allocated: 1e-12 steps mean TiB-scale grids
        with pytest.raises(ValueError, match=field):
            GridSpec(**{field: 1e-12})

    def test_default_grids_fit_the_budget_sixteen_times(self):
        g = GridSpec()
        n_p, n_j, n_tau = g.p_values().size, g.j_values().size, g.tau_values().size
        largest = max(n_p * SolverConfig().scan_points, n_p * n_j, n_tau * n_j)
        assert 16 * largest <= _MAX_TABLE_CELLS


class TestSinglePeriod:
    def test_no_riders_means_shutdown_policy(self):
        res = optimize_single_period(zero_lambda_period(), Objective.PROFIT, COARSE, FAST_SOLVER)
        assert res.value == 0.0
        pol = res.best_schedule
        assert (pol.price, pol.idle_wage, pol.commission) == (0.0, 0.0, 0.0)

    def test_profit_maximum_sits_at_full_commission(self):
        res = optimize_single_period(H19, Objective.PROFIT, COARSE, FAST_SOLVER)
        assert res.best_schedule.commission == 1.0
        assert res.value > 0

    def test_coarse_rescan_brackets_fine_maximizer(self):
        fine = GridSpec(p_step=0.05, j_step=0.2, tau_step=0.25)
        coarse = GridSpec(p_step=0.1, j_step=0.4, tau_step=0.5)
        rf = optimize_single_period(H19, Objective.PROFIT, fine, FAST_SOLVER)
        rc = optimize_single_period(H19, Objective.PROFIT, coarse, FAST_SOLVER)
        assert abs(rc.best_schedule.price - rf.best_schedule.price) <= 0.1
        assert abs(rc.best_schedule.idle_wage - rf.best_schedule.idle_wage) <= 0.4
        assert rc.value <= rf.value

    def test_winner_cell_matches_scalar_path(self):
        res = optimize_single_period(H19, Objective.PROFIT, COARSE, FAST_SOLVER)
        pol = res.best_schedule
        eqs = find_equilibria(H19, pol, FAST_SOLVER)
        best = select_equilibrium(eqs, Objective.PROFIT, H19)
        assert evaluate(Objective.PROFIT, H19, best) == pytest.approx(res.value, rel=1e-12)

    def test_value_equals_stored_equilibrium_objective(self):
        res = optimize_single_period(H19, Objective.WELFARE, COARSE, FAST_SOLVER)
        assert res.value == sum(evaluate(Objective.WELFARE, H19, eq) for eq in res.equilibria)


class TestSweep:
    def test_zero_population_market_burns_the_wage_bill(self):
        # With no riders the only equilibrium at J > 0 is an all-idle pool
        # of supply(0, J) drivers, so the best value is exactly -J*L for
        # profit (the shutdown tuple is feasible only at J = 0).
        from idlewage import supply

        s = zero_lambda_period()
        pts = sweep_idle_wage(s, Objective.PROFIT, [0.0, 0.4, 0.8], COARSE, FAST_SOLVER)
        assert pts[0].value == 0.0
        for pt in pts[1:]:
            expected = -pt.idle_wage * supply(s.supply, 0.0, pt.idle_wage)
            assert pt.value == pytest.approx(expected, rel=1e-9)
            assert pt.value < 0

    def test_out_of_range_wages_rejected(self):
        with pytest.raises(ValueError):
            sweep_idle_wage(H19, Objective.PROFIT, [99.0], COARSE, FAST_SOLVER)

    @pytest.mark.parametrize(
        "wages, problem",
        [([2.0, 1.2, 0.4], "ascending"), ([np.nan], "finite"), ([0.4, np.inf], "finite"),
         ([[0.4, 0.8]], "one-dimensional")],
    )
    def test_bad_wage_list_rejected_by_name(self, wages, problem):
        with pytest.raises(ValueError, match=f"J_values must be .*{problem}"):
            sweep_idle_wage(H19, Objective.PROFIT, wages, COARSE, FAST_SOLVER)
        with pytest.raises(ValueError, match=f"j_values must be .*{problem}"):
            TableRequest.of(H19, Objective.PROFIT, COARSE, FAST_SOLVER, j_values=wages)

    @pytest.mark.parametrize("taus", [[np.nan], [np.inf], [1.5], [-0.5], [0.5, 2.0], []])
    def test_bad_commission_list_rejected_by_name(self, taus):
        with pytest.raises(ValueError, match="tau_values"):
            TableRequest.of(H19, Objective.PROFIT, COARSE, FAST_SOLVER, tau_values=taus)

    def test_day_tables_reject_commission_outside_unit_interval(self):
        with pytest.raises(ValueError, match="tau_values"):
            day_requests(DayScenario((H19,)), Objective.PROFIT, COARSE, FAST_SOLVER,
                         tau_values=[2.0])

    def test_repeated_wages_allowed(self):
        a, b = sweep_idle_wage(H19, Objective.PROFIT, [0.4, 0.4], COARSE, FAST_SOLVER)
        assert a == b

    def test_inverted_u_for_risk_averse_drivers(self):
        s = period_for_hour(19, risk_beta=0.2)
        g = GridSpec(j_step=0.2, tau_step=0.25, p_step=0.05)
        pts = sweep_idle_wage(s, Objective.PROFIT, g.j_values(), g, FAST_SOLVER)
        vals = np.array([pt.value for pt in pts])
        k = int(np.argmax(vals))
        assert 0 < k < vals.size - 1
        rising, falling = vals[: k + 1], vals[k:]
        assert np.all(np.diff(rising) >= -1e-9)
        assert np.all(np.diff(falling) <= 1e-9)

    def test_spot_cells_match_scalar_path(self):
        g = COARSE
        pts = sweep_idle_wage(H19, Objective.PROFIT, [0.4, 1.2], g, FAST_SOLVER)
        for pt in pts:
            pol = PolicyPoint(pt.best_price, pt.idle_wage, pt.best_tau)
            eqs = find_equilibria(H19, pol, FAST_SOLVER)
            best = select_equilibrium(eqs, Objective.PROFIT, H19)
            assert evaluate(Objective.PROFIT, H19, best) == pytest.approx(pt.value, rel=1e-12)


class TestDayFlexible:
    def test_zero_day_worth_nothing(self):
        day = DayScenario((zero_lambda_period(),) * 3)
        res = optimize_day_flexible(day, Objective.WELFARE, COARSE, FAST_SOLVER)
        assert res.value == 0.0

    def test_high_demand_hours_pay_higher_wages(self):
        day = DayScenario((period_for_hour(4), period_for_hour(19)))
        res = optimize_day_flexible(day, Objective.WELFARE, COARSE, FAST_SOLVER)
        w_low, w_high = res.best_schedule.idle_wages
        assert w_high > w_low

    def test_welfare_wages_dominate_profit_wages(self):
        day = DayScenario(tuple(period_for_hour(h) for h in (4, 9, 19)))
        rw = optimize_day_flexible(day, Objective.WELFARE, COARSE, FAST_SOLVER)
        rp = optimize_day_flexible(day, Objective.PROFIT, COARSE, FAST_SOLVER)
        for jw, jp in zip(rw.best_schedule.idle_wages, rp.best_schedule.idle_wages):
            assert jw >= jp

    def test_commission_pinned_at_one(self):
        day = DayScenario((H19,))
        res = optimize_day_flexible(day, Objective.PROFIT, COARSE, FAST_SOLVER)
        assert res.best_schedule.commission == 1.0


class TestValueVsTau:
    def test_zero_day(self):
        day = DayScenario((zero_lambda_period(),) * 2)
        curve = value_vs_tau(day, Objective.PROFIT, COARSE, FAST_SOLVER)
        assert all(v == 0.0 for _, v in curve)

    def test_replicated_day_scales_single_period(self):
        day1 = DayScenario((H19,))
        day3 = DayScenario((H19,) * 3)
        c1 = value_vs_tau(day1, Objective.PROFIT, COARSE, FAST_SOLVER)
        c3 = value_vs_tau(day3, Objective.PROFIT, COARSE, FAST_SOLVER)
        for (t1, v1), (t3, v3) in zip(c1, c3):
            assert t1 == t3
            assert v3 == pytest.approx(3 * v1, rel=1e-12)

    def test_profit_curve_nondecreasing_single_period(self):
        curve = value_vs_tau(DayScenario((H19,)), Objective.PROFIT, COARSE, FAST_SOLVER)
        vals = [v for _, v in curve]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


class TestDayFixed:
    def test_shared_cell_and_free_prices(self):
        day = two_period_day(0.2, 3.5, 44.0)
        res = optimize_day_fixed(day, Objective.PROFIT, COARSE, FAST_SOLVER)
        sch = res.best_schedule
        assert len(set(sch.idle_wages)) == 1
        assert res.value == sum(
            evaluate(Objective.PROFIT, s, eq) for s, eq in zip(day.periods, res.equilibria)
        )

    def test_dominated_by_flexible(self):
        day = two_period_day(0.2, 3.5, 44.0)
        g = GridSpec(p_step=0.05, j_step=0.1, tau_step=0.25)
        vfix = optimize_day_fixed(day, Objective.PROFIT, g, FAST_SOLVER).value
        vflex = optimize_day_flexible(day, Objective.PROFIT, g, FAST_SOLVER).value
        assert vflex >= vfix - 1e-9

    def test_dominates_no_idle_wage_restriction(self):
        day = two_period_day(0.2, 3.5, 44.0)
        g = GridSpec(p_step=0.05, j_step=0.1, tau_step=0.25)
        g0 = dataclasses.replace(g, j_max=0.0)
        vfix = optimize_day_fixed(day, Objective.PROFIT, g, FAST_SOLVER).value
        v0 = optimize_day_fixed(day, Objective.PROFIT, g0, FAST_SOLVER).value
        assert vfix >= v0 - 1e-9


# keys drawn from tiny sets so that every key position ties often; -0.0 and
# 0.0 compare equal, as in a Python tuple comparison
TIE_KEY = st.sampled_from([-1.5, -0.0, 0.0, 2.0])


class TestLexFirst:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(TIE_KEY, TIE_KEY, TIE_KEY), min_size=1, max_size=30))
    def test_matches_python_min_on_tuples(self, rows):
        keys = [np.array(k) for k in zip(*rows)]
        assert _lex_first(*keys) == min(range(len(rows)), key=lambda i: rows[i])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.data())
    def test_broadcast_keys_run_in_c_order(self, n_tau, n_j, data):
        # the single-period key (-V, p, J, tau) over an (n_tau, n_j) table
        V = np.array(data.draw(st.lists(TIE_KEY, min_size=n_tau * n_j, max_size=n_tau * n_j)))
        P = np.array(data.draw(st.lists(TIE_KEY, min_size=n_tau * n_j, max_size=n_tau * n_j)))
        V, P = V.reshape(n_tau, n_j), P.reshape(n_tau, n_j)
        js, taus = np.arange(n_j) % 2, np.arange(n_tau) % 2
        flat = _lex_first(-V, P, js, taus[:, None])
        cells = [(ti, ji) for ti in range(n_tau) for ji in range(n_j)]
        want = min(cells, key=lambda c: (-V[c], P[c], js[c[1]], taus[c[0]]))
        assert divmod(flat, n_j) == want


class TestDayValueTable:
    """Day regimes are reductions of the public day table (criterion-10 grid)."""

    @pytest.mark.parametrize("obj", [Objective.PROFIT, Objective.WELFARE])
    def test_fixed_is_lexicographic_reduction_of_summed_table(self, obj):
        day = builtin_day()
        p_vals, j_vals, tau_vals = CRIT10.p_values(), CRIT10.j_values(), CRIT10.tau_values()
        tables = day_tables(day, obj, CRIT10, CRIT10_SOLVER)
        total = np.sum([t.values for t in tables], axis=0)
        cells = [(ti, ji) for ti in range(tau_vals.size) for ji in range(j_vals.size)]
        ti, ji = min(cells, key=lambda c: (-total[c], j_vals[c[1]], tau_vals[c[0]]))
        res = optimize_day_fixed(day, obj, CRIT10, CRIT10_SOLVER, threads=2)
        sch = res.best_schedule
        assert sch.commission == tau_vals[ti]
        assert sch.idle_wages == (j_vals[ji],) * 24
        assert sch.prices == tuple(p_vals[t.p_idx[ti, ji]] for t in tables)
        assert res.value == pytest.approx(total[ti, ji], rel=1e-12)

    @pytest.mark.parametrize("obj", [Objective.PROFIT, Objective.WELFARE])
    def test_value_vs_tau_is_summed_per_period_max_over_j(self, obj):
        day = builtin_day()
        tables = day_tables(day, obj, CRIT10, CRIT10_SOLVER)
        want = np.sum([t.values.max(axis=1) for t in tables], axis=0)
        curve = value_vs_tau(day, obj, CRIT10, CRIT10_SOLVER, threads=2)
        assert [t for t, _ in curve] == list(CRIT10.tau_values())
        assert [v for _, v in curve] == list(want)

    def test_day_sweep_is_per_j_max_of_summed_table(self):
        day = builtin_day()
        tables = day_tables(day, Objective.WELFARE, CRIT10, CRIT10_SOLVER)
        total = np.sum([t.values for t in tables], axis=0)
        sweep = sweep_day_idle_wage(day, Objective.WELFARE, CRIT10, CRIT10_SOLVER, threads=2)
        tau_vals = CRIT10.tau_values()
        assert [pt.idle_wage for pt in sweep] == list(CRIT10.j_values())
        for ji, pt in enumerate(sweep):
            ti = int(np.argmax(total[:, ji]))
            assert (pt.value, pt.best_tau) == (total[ti, ji], tau_vals[ti])
            tol = 1e-9 * max(1.0, abs(pt.value))
            assert pt.tau1_optimal == bool(total[-1, ji] >= pt.value - tol)

    def test_repeated_periods_share_one_table(self):
        tables = day_tables(DayScenario((H19,) * 3), Objective.PROFIT, COARSE, FAST_SOLVER)
        assert tables[0] is tables[1] is tables[2]
        assert tables[0].values.shape == (COARSE.tau_values().size, COARSE.j_values().size)


class TestDeterminism:
    def test_threads_do_not_change_results(self):
        day = two_period_day(0.5, 4.0, 44.5)
        a = optimize_day_fixed(day, Objective.WELFARE, COARSE, FAST_SOLVER, threads=1)
        b = optimize_day_fixed(day, Objective.WELFARE, COARSE, FAST_SOLVER, threads=4)
        assert a.best_schedule == b.best_schedule
        assert a.value == b.value
        ra = optimize_single_period(H19, Objective.PROFIT, COARSE, FAST_SOLVER, threads=1)
        rb = optimize_single_period(H19, Objective.PROFIT, COARSE, FAST_SOLVER, threads=3)
        assert ra.best_schedule == rb.best_schedule and ra.value == rb.value


    @pytest.mark.parametrize("obj", [Objective.PROFIT, Objective.WELFARE])
    def test_commission_groups_do_not_change_the_table(self, obj):
        # 3 commissions split into 1, 2, 3 and (capped) 3 contiguous groups
        req = TableRequest.of(H19, obj, CRIT10, CRIT10_SOLVER)
        want = value_tables([req], threads=1)[req]
        assert want.values.shape == (3, CRIT10.j_values().size)
        for threads in (2, 3, 5):
            got = value_tables([req], threads=threads)[req]
            for a, b in ((want.values, got.values), (want.p_idx, got.p_idx), (want.z, got.z)):
                assert a.dtype == b.dtype
                assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestValueTablesPlan:
    """value_tables solves each distinct (period, beta * (1 - tau)) slice once."""

    @staticmethod
    def mixed_batch():
        # coefficient 0 (tau = 1) is shared by every beta, and 0.5 by beta 0.5
        # at tau 0 and beta 1.0 at tau 0.5; tau 0.5 repeats within a request
        table2 = dataclasses.replace(CRIT10, j_step=0.1, tau_step=0.1)
        taus = [0.0, 0.5, 0.5, 1.0]
        reqs = [
            TableRequest.of(period_for_hour(19, b), obj, CRIT10, CRIT10_SOLVER, taus)
            for b in (0.2, 0.5, 1.0) for obj in Objective
        ]
        reqs += [TableRequest.of(period_for_hour(19, 0.5), Objective.PROFIT, CRIT10,
                                 CRIT10_SOLVER, taus, j_values=[1.234])]
        for obj in Objective:
            reqs += day_requests(two_period_day(0.2, 3.5, 44.0), obj, table2, CRIT10_SOLVER)
        return reqs

    @staticmethod
    def one_tau_at_a_time(r):
        """r's table from solve_slices and _best_over_prices, one commission per call."""
        tables = PeriodTables.build(r.period, np.array(r.prices), r.cfg)
        wages = np.array(r.wages)
        rows = []
        for tau in r.taus:
            coef = r.period.supply.risk_beta * (1.0 - tau)
            ((_, roots),) = solve_slices(tables, wages, [coef])
            rows.append(_best_over_prices(tables, wages, np.array([tau]), roots, r.obj))
        return [np.concatenate(a) for a in zip(*rows)]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_mixed_batch_equals_one_tau_at_a_time(self, threads):
        reqs = self.mixed_batch()
        got = value_tables(reqs, threads)
        assert set(got) == set(reqs)
        for r in reqs:
            want = self.one_tau_at_a_time(r)
            t = got[r]
            for a, b in zip(want, (t.values, t.p_idx, t.z)):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_parts_fill_one_table_under_thread_switches(self):
        # more threads than cores, switching often, write disjoint rows of
        # each group's one table; a lost or crossed write changes a bit
        reqs = self.mixed_batch()
        want = value_tables(reqs, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = value_tables(reqs, 6)
        finally:
            sys.setswitchinterval(interval)
        for r in reqs:
            for a, b in zip((want[r].values, want[r].p_idx, want[r].z),
                            (got[r].values, got[r].p_idx, got[r].z)):
                assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_mixed_batch_refines_each_distinct_slice_once(self, monkeypatch):
        solved = []

        def counting(tables, j_values, coefs):
            solved.extend((tables.scenario, j_values.tobytes(), float(c)) for c in coefs)
            yield from solve_slices(tables, j_values, coefs)

        monkeypatch.setattr(optimize, "solve_slices", counting)
        value_tables(self.mixed_batch(), threads=2)
        assert len(solved) == len(set(solved))
        # 72 commissions a objective: hour 19 on the wage grid needs the
        # weights 0.2, 0.1, 0.5, 0.25, 1.0 and 0; the off-grid wage list 0.5,
        # 0.25 and 0; each table2 period its 11 commissions' weights
        assert len(solved) == 6 + 3 + 2 * 11

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_chunk_is_reduced_once_per_objective(self, monkeypatch, threads):
        local, per_chunk, rows = threading.local(), [], []
        solve, best = optimize.solve_slices, optimize._best_over_prices

        def recording_solve(tables, j_values, coefs):
            for chunk in solve(tables, j_values, coefs):
                local.calls = 0
                yield chunk
                per_chunk.append(local.calls)   # the chunk's reductions are done

        def recording_best(tables, j_values, taus, roots, obj):
            local.calls += 1
            rows.append(taus.size)
            return best(tables, j_values, taus, roots, obj)

        monkeypatch.setattr(optimize, "solve_slices", recording_solve)
        monkeypatch.setattr(optimize, "_best_over_prices", recording_best)
        reqs = self.mixed_batch()
        value_tables(reqs, threads)
        distinct = {(r.slice_key(), r.obj, r.period.supply.risk_beta * (1.0 - tau), tau)
                    for r in reqs for tau in r.taus}
        assert per_chunk and max(per_chunk) <= len(Objective)
        assert sum(rows) == len(distinct)

    @pytest.mark.parametrize("obj", list(Objective))
    def test_roots_of_keeps_the_cell_order_best_over_prices_reads(self, monkeypatch, obj):
        # _best_over_prices reduces each (tau, J) cell's run without sorting,
        # so the roots of repeated, out-of-order slices must come sorted by
        # (t, j, p, z) and reduce as one call per slice does
        monkeypatch.setattr(equilibrium, "_MAX_BATCH", 10**9)
        tables = PeriodTables.build(H19, COARSE.p_values(), FAST_SOLVER)
        wages, taus = COARSE.j_values(), np.array([0.0, 0.5, 1.0])
        coefs = H19.supply.risk_beta * (1.0 - taus)
        ((rows, roots),) = solve_slices(tables, wages, coefs)
        k = np.array([2, 0, 2])
        sub = _roots_of(roots, rows, k)
        assert np.array_equal(np.lexsort((sub.z, sub.p_idx, sub.j_idx, sub.t_idx)),
                              np.arange(sub.z.size))
        got = _best_over_prices(tables, wages, taus[k], sub, obj)
        for i, t in enumerate(k):
            ((_, one),) = solve_slices(tables, wages, [coefs[t]])
            want = _best_over_prices(tables, wages, taus[[t]], one, obj)
            for a, b in zip(want, got):
                assert np.array_equal(a[0].view(np.int64), b[i].view(np.int64))

    def test_tables_do_not_alias(self):
        reqs = list(dict.fromkeys(self.mixed_batch()))
        got = value_tables(reqs, threads=2)
        arrays = [(r, a) for r in reqs for a in (got[r].values, got[r].p_idx, got[r].z)]
        for i, (r, a) in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for q, b in arrays[i + 1:] if q != r)

        def bits(r):
            return [a.view(np.int64).copy() for a in (got[r].values, got[r].p_idx, got[r].z)]

        for r in reqs:   # overwrite one table at a time; the others keep their bits
            want = {q: bits(q) for q in reqs if q != r}
            for a in (got[r].values, got[r].p_idx, got[r].z):
                a.fill(-1)
            for q, w in want.items():
                assert all(np.array_equal(a, b) for a, b in zip(w, bits(q)))

    @pytest.mark.parametrize("regime", [
        lambda tables, cfg: sweep_idle_wage(H19, Objective.WELFARE, CRIT10.j_values(), CRIT10,
                                            cfg, tables=tables),
        lambda tables, cfg: value_vs_tau(builtin_day(), Objective.PROFIT, CRIT10, cfg,
                                         tables=tables),
        lambda tables, cfg: sweep_day_idle_wage(builtin_day(), Objective.WELFARE, CRIT10, cfg,
                                                tables=tables),
        lambda tables, cfg: optimize_day_fixed(builtin_day(), Objective.PROFIT, CRIT10, cfg,
                                               tables=tables),
        lambda tables, cfg: optimize_day_flexible(builtin_day(), Objective.WELFARE, CRIT10, cfg,
                                                  tables=tables),
        lambda tables, cfg: optimize_min_wage(builtin_day(), Objective.PROFIT, CRIT10,
                                              BlockConstraint(j_min=14.0), cfg, tables=tables),
    ])
    def test_tables_missing_or_foreign_give_the_scratch_result(self, regime):
        want = regime(None, CRIT10_SOLVER)
        # tables for the same requests under another solver config, and a
        # mapping holding only every other request of the right config
        other = SolverConfig(scan_points=256)
        reqs = [TableRequest.of(H19, obj, CRIT10, c, j_values=CRIT10.j_values())
                for obj in Objective for c in (CRIT10_SOLVER, other)]
        for obj in Objective:
            for taus in (None, [1.0]):
                reqs += day_requests(builtin_day(), obj, CRIT10, CRIT10_SOLVER, taus)
                reqs += day_requests(builtin_day(), obj, CRIT10, other, taus)
        full = value_tables(reqs)
        foreign = {r: t for r, t in full.items() if r.cfg == other}
        partial = {r: t for i, (r, t) in enumerate(full.items()) if i % 2 == 0}
        assert regime(foreign, CRIT10_SOLVER) == want
        assert regime(partial, CRIT10_SOLVER) == want
        assert regime(full, CRIT10_SOLVER) == want

    @staticmethod
    def record_chunks(monkeypatch):
        """Per solve_slices stream, its weight count and each chunk's (rows,
        brackets per weight), as _refine receives them; a stream runs on
        one thread, so _refine's last call there is the chunk it yields."""
        local, streams = threading.local(), []
        refine, solve = equilibrium._refine, optimize.solve_slices

        def recording_refine(tables, j_values, cols):
            local.t_idx = cols[0]
            return refine(tables, j_values, cols)

        def recording_solve(tables, j_values, coefs):
            chunks = []
            streams.append((len(coefs), chunks))
            for rows, roots in solve(tables, j_values, coefs):
                chunks.append((rows, np.bincount(local.t_idx, minlength=rows.stop)[rows.start:]))
                yield rows, roots

        monkeypatch.setattr(equilibrium, "_refine", recording_refine)
        monkeypatch.setattr(optimize, "solve_slices", recording_solve)
        return streams

    def test_chunks_close_at_the_bound_whatever_the_threads(self, monkeypatch):
        # table2 rows and a day on the criterion-10 grids: more groups than
        # threads, and table2 streams long enough to close several chunks
        table2 = dataclasses.replace(CRIT10, j_step=0.1, tau_step=0.1)
        reqs = [r for obj in Objective for b in (0.2, 0.95)
                for a4, a19 in ((3.5, 44.0), (5.5, 46.0))
                for r in day_requests(two_period_day(b, a4, a19), obj, table2, CRIT10_SOLVER)]
        reqs += day_requests(builtin_day(), Objective.PROFIT, CRIT10, CRIT10_SOLVER)
        bound, seen = equilibrium._MAX_BATCH, []
        for threads in (1, 2, 3):
            with monkeypatch.context() as m:
                streams = self.record_chunks(m)
                value_tables(reqs, threads)
            assert max(c.sum() for _, chunks in streams for _, c in chunks) >= bound
            for n_coefs, chunks in streams:
                assert [t for rows, _ in chunks for t in rows] == list(range(n_coefs))
                for rows, counts in chunks:   # closed at the first weight reaching the bound
                    assert counts.size == len(rows)
                    size = np.cumsum(counts)
                    assert np.all(size[:-1] < bound)
                    assert size[-1] >= bound or rows.stop == n_coefs
            seen.append(sorted((n, [(rows.start, rows.stop, c.tolist()) for rows, c in chunks])
                               for n, chunks in streams))
        assert seen[0] == seen[1] == seen[2]

    @pytest.mark.parametrize("plan, n_streams", [
        (day_requests(two_period_day(0.2, 3.5, 44.0), Objective.PROFIT,
                      dataclasses.replace(CRIT10, j_step=0.1, tau_step=0.1), CRIT10_SOLVER),
         [2, 2, 3, 5]),
        ([TableRequest.of(H19, Objective.PROFIT, CRIT10, CRIT10_SOLVER)], [1, 2, 3, 3]),
    ], ids=["table2-row", "single-period"])
    def test_each_group_streams_its_share_of_the_threads(self, monkeypatch, plan, n_streams):
        # the table2 row is 2 groups of 11 weights, the single period 1 group
        # of 3; with fewer groups than threads each group holds a share
        weights = {r.slice_key()[0]: np.unique(r.period.supply.risk_beta * (1 - np.array(r.taus)))
                   for r in plan}
        build, solve, seen = PeriodTables.build, optimize.solve_slices, []
        for threads, n in zip((1, 2, 3, 5), n_streams):
            builds, streams = [], []

            def recording_build(s, p, cfg):
                tables = build(s, p, cfg)
                builds.append(tables)
                return tables

            def recording_solve(tables, j_values, coefs):
                streams.append((tables, list(coefs)))
                yield from solve(tables, j_values, coefs)

            with monkeypatch.context() as m:
                m.setattr(PeriodTables, "build", staticmethod(recording_build))
                m.setattr(optimize, "solve_slices", recording_solve)
                got = value_tables(plan, threads)
            assert len(builds) == len(weights)
            assert len(streams) == n <= max(threads, len(weights))
            for tables in builds:   # its streams cover its weights once, in order
                parts = sorted(c for t, c in streams if t is tables)
                assert [w for c in parts for w in c] == weights[tables.scenario].tolist()
            seen.append(got)
        for got in seen[1:]:
            for r in plan:
                for a, b in zip((seen[0][r].values, seen[0][r].p_idx, seen[0][r].z),
                                (got[r].values, got[r].p_idx, got[r].z)):
                    assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_complete_tables_solve_nothing(self, monkeypatch):
        day = builtin_day()
        tables = value_tables(day_requests(day, Objective.PROFIT, CRIT10, CRIT10_SOLVER))
        want = optimize_day_fixed(day, Objective.PROFIT, CRIT10, CRIT10_SOLVER)
        monkeypatch.setattr(optimize, "solve_slices", None)
        assert optimize_day_fixed(day, Objective.PROFIT, CRIT10, CRIT10_SOLVER,
                                  tables=tables) == want


class TestTableAgainstScalarPath:
    """A whole value table equals the per-policy path, cell by cell."""

    def test_every_cell_equals_the_scalar_winner(self):
        s = period_for_hour(19, 0.5)
        g = GridSpec(p_step=0.5, j_step=0.7, tau_step=0.25)
        cfg = SolverConfig(scan_points=512)
        prices, wages, taus = g.p_values(), g.j_values(), g.tau_values()
        eqs = {(tau, J, p): find_equilibria(s, PolicyPoint(float(p), float(J), float(tau)), cfg)
               for tau in taus for J in wages for p in prices}
        for obj in Objective:
            r = TableRequest.of(s, obj, g, cfg)
            t = value_tables([r])[r]
            want = [np.empty(t.values.shape), np.empty(t.values.shape, dtype=np.intp),
                    np.empty(t.values.shape)]
            for ti, tau in enumerate(taus):
                for ji, J in enumerate(wages):
                    # find_equilibria includes the shutdown equilibrium at J = 0
                    best = [select_equilibrium(eqs[tau, J, p], obj, s) for p in prices]
                    v = [evaluate(obj, s, eq) for eq in best]
                    pi = int(np.argmax(v))   # the first price of maximal value
                    z = best[pi].pickup
                    for a, x in zip(want, (v[pi], pi, z if np.isfinite(z) else np.nan)):
                        a[ti, ji] = x
            for a, b in zip(want, (t.values, t.p_idx, t.z)):
                assert np.array_equal(a, b, equal_nan=True)


class TestWinnerTies:
    """Whole-dollar values make many roots of a cell tie exactly, so the
    winner comes from the (price, throughput, labour) tie-break."""

    @pytest.mark.parametrize("obj", list(Objective))
    def test_winner_equals_one_lexicographic_sort(self, obj, monkeypatch):
        for name in ("profit_values", "welfare_values"):
            f = getattr(optimize, name)
            monkeypatch.setattr(optimize, name, lambda *a, f=f: np.round(f(*a)))
        s, wages = H19, COARSE.j_values()
        tables = PeriodTables.build(s, COARSE.p_values(), FAST_SOLVER)
        ties = 0
        for tau in COARSE.tau_values():
            ((_, roots),) = solve_slices(tables, wages, [s.supply.risk_beta * (1.0 - tau)])
            got = _best_over_prices(tables, wages, np.array([tau]), roots, obj)

            p_arr, J = tables.p[roots.p_idx], wages[roots.j_idx]
            T, _, Q, L, _ = equilibrium.equilibrium_components(s, tau, p_arr, roots.z)
            if obj is Objective.PROFIT:
                vals = optimize.profit_values(tau, p_arr, Q, J, L)
            else:
                vals = optimize.welfare_values(s, p_arr, T, Q, L)
            cell = roots.j_idx
            order = np.lexsort((L, Q, roots.p_idx, -vals, cell))
            first = order[np.diff(cell[order], prepend=-1) != 0]
            won = first[(vals[first] > 0.0) | (J[first] > 0.0)]
            want = [np.zeros(wages.size), np.zeros(wages.size, dtype=np.intp),
                    np.full(wages.size, np.nan)]
            for a, x in zip(want, (vals, roots.p_idx, roots.z)):
                a[cell[won]] = x[won]
            for a, b in zip(want, got):
                assert a.dtype == b.dtype
                assert np.array_equal(a.view(np.int64), b[0].view(np.int64))
            best = np.zeros(wages.size)
            best[cell[first]] = vals[first]
            ties += np.count_nonzero(np.bincount(cell, vals == best[cell]) > 1)
        assert ties > 0


class TestGridCompleteness:
    """A cell with J > 0 needs a root at every price of the grid."""

    S = period_for_hour(19)
    G = GridSpec(p_step=0.25, j_step=0.7, tau_step=0.5)
    NARROW = SolverConfig(scan_points=512, z_max=1.0)   # only the higher prices hold a root

    def test_setup_misses_some_prices(self):
        missed = 0
        for p in self.G.p_values():
            try:
                find_equilibria(self.S, PolicyPoint(float(p), 1.2, 1.0), self.NARROW)
            except equilibrium.BracketingError:
                missed += 1
        assert 0 < missed < self.G.p_values().size

    @pytest.mark.parametrize("obj", list(Objective))
    @pytest.mark.parametrize("wages", [[1.2], [0.0, 1.2]])
    def test_missing_price_raises(self, obj, wages):
        r = TableRequest.of(self.S, obj, self.G, self.NARROW, [1.0], wages)
        with pytest.raises(equilibrium.BracketingError, match="widen"):
            value_tables([r])

    @pytest.mark.parametrize("obj", list(Objective))
    def test_zero_wage_alone_shuts_down(self, obj):
        r = TableRequest.of(self.S, obj, self.G, self.NARROW, [1.0], [0.0])
        t = value_tables([r])[r]
        assert t.values.tolist() == [[0.0]] and t.p_idx.tolist() == [[0]]
        assert np.isnan(t.z).all()


class TestAdmissibleBlocks:
    @staticmethod
    def hours_of(h, b):
        return {((h - 1 + k) % 24) + 1 for k in range(b)}

    def test_full_day_block_leaves_no_room(self):
        assert admissible_blocks(24, 1) == set()

    def test_brute_force_oracle_four_four(self):
        got = admissible_blocks(4, 4)
        want = {
            (h1, h2)
            for h1 in range(1, 25)
            for h2 in range(1, 25)
            if not (self.hours_of(h1, 4) & self.hours_of(h2, 4))
        }
        assert got == want

    def test_membership_of_adjacent_windows(self):
        pairs = admissible_blocks(4, 4)
        assert (1, 5) in pairs       # 1-4 and 5-8 are disjoint
        assert (1, 4) not in pairs   # 1-4 and 4-7 share hour 4
        assert (23, 3) in pairs      # 23-2 wraps; 3-6 is clear

    def test_no_pair_overlaps(self):
        for b1, b2 in [(4, 4), (3, 5), (1, 1), (12, 12)]:
            for h1, h2 in admissible_blocks(b1, b2):
                assert not (self.hours_of(h1, b1) & self.hours_of(h2, b2))


class TestBlockWageMax:
    def test_zero_vector(self):
        val, pair = block_wage_max(np.zeros(24))
        assert val == 0.0
        assert pair == min(admissible_blocks(4, 4))

    def test_constant_vector(self):
        val, pair = block_wage_max(np.full(24, 0.3))
        assert val == pytest.approx(8 * 0.3, abs=1e-12)
        assert pair == min(admissible_blocks(4, 4))

    @pytest.mark.parametrize("b1, b2", [(1, 1), (3, 5), (4, 4), (7, 9), (12, 12), (11, 13)])
    def test_equals_per_pair_sums_bitwise(self, b1, b2):
        pairs = sorted(admissible_blocks(b1, b2))
        for seed in range(20):
            J = np.random.default_rng(seed).uniform(0, 3, size=24)
            totals = [J[[(h1 - 1 + k) % 24 for k in range(b1)]].sum()
                      + J[[(h2 - 1 + k) % 24 for k in range(b2)]].sum() for h1, h2 in pairs]
            i = int(np.argmax(totals))   # the first maximum: the smallest (h1, h2)
            assert block_wage_max(J, b1, b2) == (totals[i], pairs[i])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_wages_rejected_by_name(self, bad):
        J = np.ones(24)
        J[5] = bad
        with pytest.raises(ValueError, match="J must be finite"):
            block_wage_max(J)

    @pytest.mark.parametrize("b1, b2, name", [(0, 4, "b1"), (2.5, 4, "b1"), (4, -1, "b2"),
                                              (4, 2.0, "b2"), (True, 4, "b1"), (4, False, "b2")])
    def test_bad_block_lengths_rejected_by_name(self, b1, b2, name):
        # cache the equal integer lengths first: True == 1 and 2.0 == 2 as keys
        admissible_blocks(1, 4), admissible_blocks(4, 2)
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            block_wage_max(np.ones(24), b1, b2)
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            admissible_blocks(b1, b2)

    def test_admissible_pairs_are_a_fresh_set(self):
        admissible_blocks(4, 4).clear()
        assert len(admissible_blocks(4, 4)) == 408
        assert block_wage_max(np.zeros(24)) == (0.0, (1, 5))

    def test_exhaustive_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        J = rng.uniform(0, 2, size=24)
        val, pair = block_wage_max(J)
        best = -1.0
        for h1, h2 in admissible_blocks(4, 4):
            tot = sum(J[(h1 - 1 + k) % 24] for k in range(4)) + sum(
                J[(h2 - 1 + k) % 24] for k in range(4)
            )
            best = max(best, tot)
        assert val == pytest.approx(best, rel=1e-12)

    def test_flexible_welfare_wages_match_enumeration_oracle(self):
        day = builtin_day()
        res = optimize_day_flexible(day, Objective.WELFARE, COARSE, FAST_SOLVER, threads=2)
        J = np.array(res.best_schedule.idle_wages)
        val, pair = block_wage_max(J)
        best = max(
            sum(J[(h1 - 1 + k) % 24] for k in range(4))
            + sum(J[(h2 - 1 + k) % 24] for k in range(4))
            for h1, h2 in admissible_blocks(4, 4)
        )
        assert val == pytest.approx(best, rel=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            block_wage_max(np.zeros(23))


class TestMinWage:
    def test_zero_floor_equals_flexible(self):
        day = builtin_day()
        flex = optimize_day_flexible(day, Objective.PROFIT, COARSE, FAST_SOLVER, threads=2)
        res = optimize_min_wage(
            day, Objective.PROFIT, COARSE, BlockConstraint(j_min=0.0), FAST_SOLVER, threads=2
        )
        assert res.best_schedule == flex.best_schedule
        assert res.value == flex.value

    def test_binding_floor_is_certified(self):
        day = builtin_day()
        flex = optimize_day_flexible(day, Objective.PROFIT, COARSE, FAST_SOLVER, threads=2)
        m0, _ = block_wage_max(np.array(flex.best_schedule.idle_wages))
        c = BlockConstraint(j_min=m0 + 2.0)
        res = optimize_min_wage(day, Objective.PROFIT, COARSE, c, FAST_SOLVER, threads=2)
        m1, _ = block_wage_max(np.array(res.best_schedule.idle_wages))
        assert m1 >= c.j_min
        assert res.value <= flex.value + 1e-9

    def test_binding_floor_reprices_in_one_plan(self, monkeypatch):
        # the eight re-priced block hours are off the wage grid; their
        # tables come from one value_tables call, equal at any thread count
        day, c = builtin_day(), BlockConstraint(j_min=16.0)
        tables = value_tables(
            day_requests(day, Objective.PROFIT, CRIT10, CRIT10_SOLVER, tau_values=[1.0])
        )
        flex = optimize_day_flexible(day, Objective.PROFIT, CRIT10, CRIT10_SOLVER, 1, tables)
        assert block_wage_max(flex.best_schedule.idle_wages)[0] < c.j_min
        sizes, plan = [], optimize.value_tables

        def counting(requests, *threads):
            sizes.append(len(requests))
            return plan(requests, *threads)

        monkeypatch.setattr(optimize, "value_tables", counting)
        results = [
            optimize_min_wage(day, Objective.PROFIT, CRIT10, c, CRIT10_SOLVER, threads, tables)
            for threads in (1, 2)
        ]
        assert results[0] == results[1]
        assert results[0].value < flex.value
        assert [n for n in sizes if n] == [8, 8]

    def test_value_weakly_decreasing_in_floor(self):
        day = builtin_day()
        vals = []
        for jm in (0.0, 6.0, 12.0):
            res = optimize_min_wage(
                day, Objective.PROFIT, COARSE, BlockConstraint(j_min=jm), FAST_SOLVER, threads=2
            )
            vals.append(res.value)
        assert vals[0] >= vals[1] - 1e-9 >= vals[2] - 2e-9

    def test_hopeless_floor_reports_infeasible(self):
        day = builtin_day()
        with pytest.raises(InfeasibleError):
            optimize_min_wage(
                day, Objective.PROFIT, COARSE, BlockConstraint(j_min=1e5), FAST_SOLVER, threads=2
            )

    def test_needs_full_day(self):
        with pytest.raises(ValueError):
            optimize_min_wage(
                two_period_day(0.2, 3.5, 44.0), Objective.PROFIT, COARSE,
                BlockConstraint(j_min=1.0), FAST_SOLVER,
            )


class TestBlockConstraintValidation:
    def test_invariants(self):
        with pytest.raises(ValueError):
            BlockConstraint(b1=0)
        with pytest.raises(ValueError):
            BlockConstraint(b1=13, b2=12)
        with pytest.raises(ValueError):
            BlockConstraint(j_min=-1.0)
