import dataclasses

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idlewage import (
    BracketingError,
    GridSpec,
    Objective,
    PolicyPoint,
    SolverConfig,
    demand,
    find_equilibria,
    idle_from_time,
    period_for_hour,
    residual,
    select_equilibrium,
    supply,
)
from idlewage import equilibrium
from idlewage.equilibrium import (
    _BLOCK,
    PeriodTables,
    _block_points,
    _brackets,
    _complete,
    _margin,
    _residual,
    solve_slices,
)
from oracles import dense_scan_equilibria, random_instance

H19 = period_for_hour(19)
TOL_EQ = 1e-8


def lo_hi_cells(W, j_vals):
    """Scan cells whose margin range [lo, hi) holds a wage: rows, cells,
    first wage index and wage count, straight from the definition."""
    a, b = W[:, :-1], W[:, 1:]
    lo_j = np.searchsorted(j_vals, np.minimum(a, b))
    hi_j = np.searchsorted(j_vals, np.maximum(a, b))
    rows, cells = np.nonzero(lo_j < hi_j)
    return rows, cells, lo_j[rows, cells], (hi_j - lo_j)[rows, cells]


def solve_one(tables, j_vals, tau):
    """The roots of one commission: solve_slices over [beta * (1 - tau)] yields one chunk."""
    coef = tables.scenario.supply.risk_beta * (1.0 - tau)
    ((rows, roots),) = solve_slices(tables, j_vals, [coef])
    assert rows == range(1)
    return roots


def eq_residuals(s, pol, eq):
    """The four feasibility residuals of an equilibrium tuple."""
    r1 = eq.throughput - demand(s.demand, pol.price, eq.pickup)
    if np.isfinite(eq.pickup):
        busy = (s.trip_time + eq.pickup) * eq.throughput
    else:
        busy = 0.0  # (t + inf) * 0 = 0 at the shutdown state
    r2 = eq.labour - (eq.idle + busy)
    expected_e = (
        (1 - pol.commission) * pol.price * eq.throughput / eq.labour
        if eq.labour > 0
        else 0.0
    )
    r3 = eq.earnings - expected_e
    r4 = eq.labour - supply(s.supply, eq.earnings, pol.idle_wage)
    return r1, r2, r3, r4


class TestResidual:
    def test_no_pay_is_pure_shortfall(self):
        pol = PolicyPoint(0.0, 0.0, 0.5)
        for z in (0.05, 0.4, 3.0):
            Q = demand(H19.demand, 0.0, z)
            L1 = idle_from_time(H19.pickup, z) + (H19.trip_time + z) * Q
            assert residual(H19, pol, z) == -L1
            assert residual(H19, pol, z) < 0

    def test_large_pickup_limit_approaches_idle_only_supply(self):
        pol = PolicyPoint(1.0, 0.5, 0.5)
        r = residual(H19, pol, 50.0)
        assert r > 0
        assert r == pytest.approx(supply(H19.supply, 0.0, 0.5), abs=1e-3)

    def test_matches_independent_recomputation(self):
        pol = PolicyPoint(1.0, 0.5, 1.0)
        z = 0.1
        Q = demand(H19.demand, pol.price, z)
        I = idle_from_time(H19.pickup, z)
        L1 = I + (H19.trip_time + z) * Q
        e = (1 - pol.commission) * pol.price * Q / L1
        assert residual(H19, pol, z) == supply(H19.supply, e, pol.idle_wage) - L1

    def test_domain_error(self):
        with pytest.raises(ValueError):
            residual(H19, PolicyPoint(1.0, 0.5, 0.5), 0.0)
        with pytest.raises(ValueError):
            residual(H19, PolicyPoint(1.0, 0.5, 0.5), -0.1)


class TestScanGrid:
    @pytest.mark.parametrize("cfg", [SolverConfig(), SolverConfig(z_min=1e-3, z_max=5.0,
                                                                  scan_points=512)])
    def test_grid_is_computed_once_and_read_only(self, cfg):
        z = cfg.z_grid()
        want = np.geomspace(cfg.z_min, cfg.z_max, cfg.scan_points)
        assert z.dtype == want.dtype and z.tobytes() == want.tobytes()
        assert cfg.z_grid() is z
        assert PeriodTables.of(H19, np.array([1.0]), cfg).z is z
        with pytest.raises(ValueError, match="read-only"):
            z[0] = 1.0
        # the cache is no field: equal configs stay equal and hash alike
        other = dataclasses.replace(cfg)
        assert other == cfg and hash(other) == hash(cfg)
        assert other.z_grid() is not z and other.z_grid().tobytes() == want.tobytes()


class TestFindEquilibria:
    def test_zero_policy_collapses_to_shutdown(self):
        eqs = find_equilibria(H19, PolicyPoint(0.0, 0.0, 0.5))
        assert len(eqs) == 1
        eq = eqs[0]
        assert (eq.earnings, eq.idle, eq.labour, eq.throughput) == (0, 0, 0, 0)
        assert eq.pickup == np.inf

    def test_positive_wage_guarantees_equilibrium(self):
        for J in (0.05, 0.5, 2.8):
            for tau in (0.0, 0.5, 1.0):
                eqs = find_equilibria(H19, PolicyPoint(1.5, J, tau))
                assert eqs

    def test_sorted_by_throughput(self):
        eqs = find_equilibria(H19, PolicyPoint(2.0, 0.0, 0.3))
        Qs = [eq.throughput for eq in eqs]
        assert Qs == sorted(Qs)

    def test_matches_dense_scan_oracle_h19(self):
        pol = PolicyPoint(1.0, 0.5, 1.0)
        eqs = find_equilibria(H19, pol)
        oracle = dense_scan_equilibria(H19, pol)
        assert len(eqs) == len(oracle)
        for eq, o in zip(eqs, oracle):
            got = (eq.earnings, eq.idle, eq.labour, eq.throughput)
            assert np.allclose(got, o[:4], atol=1e-6, rtol=0)

    def test_residual_feasibility(self):
        for pol in (
            PolicyPoint(1.0, 0.5, 1.0),
            PolicyPoint(2.0, 0.0, 0.3),
            PolicyPoint(3.0, 1.1, 0.75),
            PolicyPoint(0.5, 2.8, 0.0),
        ):
            for eq in find_equilibria(H19, pol):
                for r in eq_residuals(H19, pol, eq):
                    assert abs(r) <= TOL_EQ

    def test_scan_table_over_budget_names_scan_points(self):
        with pytest.raises(ValueError, match="scan_points"):
            find_equilibria(H19, PolicyPoint(1.0, 0.5, 1.0), SolverConfig(scan_points=10**13))

    def test_window_too_narrow_is_diagnosed(self):
        # at tau = 1 supply is pinned by J alone; a J below the idle-only
        # margin at z_max leaves no crossing inside the window
        with pytest.raises(BracketingError):
            find_equilibria(H19, PolicyPoint(1.0, 1e-7, 1.0))

    def test_oracle_equivalence_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            s, pol = random_instance(rng)
            eqs = find_equilibria(s, pol)
            oracle = dense_scan_equilibria(s, pol, n=10**5)
            assert len(eqs) == len(oracle)
            for eq, o in zip(eqs, oracle):
                got = (eq.earnings, eq.idle, eq.labour, eq.throughput)
                assert np.allclose(got, o[:4], atol=1e-6, rtol=0)

    def test_wild_goose_chase_pair(self):
        # two interior equilibria plus shutdown at J = 0
        eqs = find_equilibria(H19, PolicyPoint(2.0, 0.0, 0.3))
        assert len(eqs) == 3
        interior = [eq for eq in eqs if eq.throughput > 0]
        assert len(interior) == 2
        assert interior[0].pickup > interior[1].pickup


class TestVectorizedKernelParity:
    def test_grid_slice_equals_per_policy_roots(self):
        p_vals = np.round(np.arange(0, 51) * 0.1, 10)
        j_vals = np.round(np.arange(0, 8) * 0.4, 10)
        cfg = SolverConfig()
        for tau in (0.0, 0.3, 1.0):
            tables = PeriodTables.build(H19, p_vals, cfg)
            roots = solve_one(tables, j_vals, tau)
            by_cell = {}
            for pi, ji, z in zip(roots.p_idx, roots.j_idx, roots.z):
                by_cell.setdefault((pi, ji), []).append(z)
            rng = np.random.default_rng(int(tau * 100) + 1)
            for _ in range(12):
                pi = int(rng.integers(0, p_vals.size))
                ji = int(rng.integers(0, j_vals.size))
                single = PeriodTables.build(H19, p_vals[pi : pi + 1], cfg)
                sr = solve_one(single, j_vals[ji : ji + 1], tau)
                assert sorted(sr.z) == sorted(by_cell.get((pi, ji), []))

    @pytest.mark.parametrize("hour", [4, 19])
    def test_scan_margin_equals_pointwise_margin_at_bracket_ends(self, hour):
        # solve_slices steers each bisection by the scan table's sign at the
        # bracket's low end, so the table and the pointwise kernel must agree
        s, g, cfg = period_for_hour(hour), GridSpec(), SolverConfig()
        tables = PeriodTables.build(s, g.p_values(), cfg)
        j_vals = g.j_values()
        for tau in (0.0, 0.5, 1.0):
            coef = s.supply.risk_beta * (1.0 - tau)
            W = tables.H - coef * tables.G
            rows, cells, _, _ = lo_hi_cells(W, j_vals)
            assert rows.size > 0
            for end in (cells, cells + 1):
                w, _, _ = _margin(s, coef, tables.p[rows], tables.z[end])
                assert np.array_equal(w.view(np.int64), W[rows, end].view(np.int64))

    @pytest.mark.parametrize("hour", [4, 19])
    def test_count_table_brackets_equal_lo_hi_definition(self, hour):
        s, g, cfg = period_for_hour(hour), GridSpec(), SolverConfig()
        tables = PeriodTables.build(s, g.p_values(), cfg)
        j_vals = g.j_values()
        for tau in (0.0, 0.5, 1.0):
            W = tables.H - s.supply.risk_beta * (1.0 - tau) * tables.G
            rows, cells, first, count = lo_hi_cells(W, j_vals)
            p_idx, cell_idx, j_idx, s_lo = _brackets(W, j_vals)
            # the definition's brackets in row-major cell order, then wage-major
            owner = np.repeat(np.arange(count.size), count)
            wages = np.concatenate([np.arange(f, f + c) for f, c in zip(first, count)])
            order = np.argsort(wages, kind="stable")
            owner, wages = owner[order], wages[order]
            assert np.array_equal(p_idx, rows[owner])
            assert np.array_equal(cell_idx, cells[owner])
            assert np.array_equal(j_idx, wages)
            assert np.array_equal(s_lo, W[rows[owner], cells[owner]] > j_vals[wages])

    def test_overflowing_margins_emit_only_feasible_roots(self):
        # exp overflows for kappa > ~709, so most of the margin table is NaN.
        # The count table puts NaN above every wage, so cells next to NaN
        # become brackets; any root from them must still pass the filter.
        s = dataclasses.replace(H19, demand=dataclasses.replace(H19.demand, kappa=720.0))
        cfg = SolverConfig()
        p_vals = GridSpec().p_values()
        j_vals = np.geomspace(0.05, 1e8, 60)
        with np.errstate(over="ignore", invalid="ignore"):
            tables = PeriodTables.build(s, p_vals, cfg)
            W = tables.H - s.supply.risk_beta * tables.G
            p_idx, cell_idx, _, _ = _brackets(W, j_vals)
            assert np.isnan(W[p_idx, cell_idx]).any()
            roots = solve_one(tables, j_vals, 0.0)
            _, L1, cG = _margin(s, s.supply.risk_beta, p_vals[roots.p_idx], roots.z)
            r = _residual(s, j_vals[roots.j_idx], L1, cG)
            assert roots.z.size > 0
            assert np.all(np.abs(r) <= cfg.tol_eq)
            with pytest.raises(BracketingError):
                find_equilibria(s, PolicyPoint(1.0, 0.5, 0.5), cfg)

    def test_float_spacing_ends_every_bracket(self):
        # no bracket can reach these tolerances, so each one bisects until
        # its midpoint equals an end; only points within tol_eq are emitted
        cfg = SolverConfig(bisect_tol=1e-300, tol_eq=1e-300)
        p_vals = np.round(np.arange(0, 51) * 0.1, 10)
        j_vals = np.round(np.arange(0, 8) * 0.4, 10)
        tables = PeriodTables.build(H19, p_vals, cfg)
        for tau in (0.0, 0.3, 1.0):
            roots = solve_one(tables, j_vals, tau)
            coef = H19.supply.risk_beta * (1.0 - tau)
            _, L1, cG = _margin(H19, coef, p_vals[roots.p_idx], roots.z)
            r = _residual(H19, j_vals[roots.j_idx], L1, cG)
            assert roots.z.size > 0
            assert np.all(np.abs(r) <= cfg.tol_eq)
            assert np.all((roots.z >= cfg.z_min) & (roots.z <= cfg.z_max))


    @pytest.mark.parametrize("hour", [4, 19])
    @pytest.mark.parametrize("batch", [1, None, 10**9])
    def test_batched_commissions_equal_one_at_a_time(self, hour, batch, monkeypatch):
        # coef enters the refinement elementwise, so the chunk boundaries
        # (each slice alone, the default, all 21 slices in one chunk) leave
        # every root's bits unchanged
        s, g, cfg = period_for_hour(hour), GridSpec(), SolverConfig()
        tables = PeriodTables.build(s, g.p_values(), cfg)
        j_vals, taus = g.j_values(), g.tau_values()
        want = []
        for t, tau in enumerate(taus):
            r = solve_one(tables, j_vals, tau)
            want.append((r.t_idx + t, r.p_idx, r.j_idx, r.z.view(np.int64)))
        if batch is not None:
            monkeypatch.setattr(equilibrium, "_MAX_BATCH", batch)
        chunks = list(solve_slices(tables, j_vals, s.supply.risk_beta * (1.0 - taus)))
        assert [t for rows, _ in chunks for t in rows] == list(range(taus.size))
        if batch == 10**9:
            assert len(chunks) == 1
        else:
            assert len(chunks) == taus.size   # a default-grid slice fills a chunk
        got = [(r.t_idx, r.p_idx, r.j_idx, r.z.view(np.int64)) for _, r in chunks]
        for a, b in zip(zip(*want), zip(*got)):
            assert np.array_equal(np.concatenate(a), np.concatenate(b))

    @pytest.mark.parametrize("hour", [4, 19])
    def test_roots_sorted_feasible_and_distinct_per_cell(self, hour):
        # each accepted bracket gives at most one root and no merge follows:
        # roots come sorted by (t, j, p, z), each within tol_eq, and no two
        # roots of one cell share a throughput within tol_eq
        s, g, cfg = period_for_hour(hour), GridSpec(), SolverConfig()
        tables = PeriodTables.build(s, g.p_values(), cfg)
        j_vals = g.j_values()
        for tau in (0.0, 0.5, 1.0):
            roots = solve_one(tables, j_vals, tau)
            assert roots.z.size > 0
            order = np.lexsort((roots.z, roots.p_idx, roots.j_idx, roots.t_idx))
            assert np.array_equal(order, np.arange(roots.z.size))
            p_arr, coef = tables.p[roots.p_idx], s.supply.risk_beta * (1.0 - tau)
            _, L1, cG = _margin(s, coef, p_arr, roots.z)
            r = _residual(s, j_vals[roots.j_idx], L1, cG)
            assert np.all(np.abs(r) <= cfg.tol_eq)
            Q = demand(s.demand, p_arr, roots.z)
            same_cell = (np.diff(roots.p_idx) == 0) & (np.diff(roots.j_idx) == 0)
            assert not np.any(same_cell & (np.abs(np.diff(Q)) <= cfg.tol_eq))

    def test_empty_chunk_keeps_index_and_root_dtypes(self):
        # at tau = 1 the margin is the positive supply margin, so the wage
        # grid [0] holds no bracket
        tables = PeriodTables.build(H19, np.array([0.5, 1.0]), SolverConfig())
        roots = solve_one(tables, np.array([0.0]), 1.0)
        assert roots.z.size == 0
        assert roots.t_idx.dtype == roots.p_idx.dtype == roots.j_idx.dtype == np.int64
        assert roots.z.dtype == np.float64


    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_completeness_verdict_is_the_bracket_verdict(self, data):
        # on small random kernel tables with NaN, +-inf and repeated values,
        # the check on block ends and failing rows raises exactly when some
        # (weight, price) row brackets no J > 0 wage, as _brackets finds them;
        # G = p*Q/L1 is >= 0 or NaN, as the kernel gives it
        n_w, n_p, n_z = (data.draw(st.integers(lo, hi)) for lo, hi in
                         ((1, 3), (1, 3), (2, 2 * _BLOCK + 3)))
        wage = st.sampled_from([0.0, 0.5, 1.0, 1.5])   # margins hit wages exactly
        value = st.sampled_from([np.nan, np.inf, -np.inf, 2.0]) | wage | st.floats(-1.0, 3.0)
        base = st.sampled_from([np.nan, np.inf, 2.0]) | wage | st.floats(0.0, 3.0)
        H, G = (np.array(data.draw(st.lists(v, min_size=n_p * n_z, max_size=n_p * n_z)))
                .reshape(n_p, n_z) for v in (value, base))
        coefs = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                            min_size=n_w, max_size=n_w)))
        wages = np.sort(data.draw(st.lists(wage | st.floats(0.0, 2.0), min_size=1, max_size=4)))
        tables = SimpleNamespace(kernel=lambda i, j: (G[i, j], H[i, j]), z=np.empty(n_z))
        with np.errstate(invalid="ignore", over="ignore"):
            missing = False
            for c in coefs:
                p_idx, _, j_idx, _ = _brackets(H - c * G, wages)
                has = np.zeros((n_p, wages.size), dtype=bool)
                has[p_idx, j_idx] = True
                missing |= not has[:, wages > 0.0].all()
            pts = _block_points(n_z)
            if missing:
                with pytest.raises(BracketingError, match="widen"):
                    _complete(tables, wages, coefs, G[:, pts], H[:, pts])
            else:
                _complete(tables, wages, coefs, G[:, pts], H[:, pts])


class TestSelectEquilibrium:
    def test_singleton(self):
        eqs = find_equilibria(H19, PolicyPoint(1.0, 0.5, 1.0))
        assert select_equilibrium(eqs, Objective.PROFIT, H19) is eqs[0]

    def test_argmax_of_profit(self):
        eqs = find_equilibria(H19, PolicyPoint(2.0, 0.0, 0.3))
        from idlewage import profit

        best = select_equilibrium(eqs, Objective.PROFIT, H19)
        assert profit(H19, best) == max(profit(H19, eq) for eq in eqs)

    def test_wild_goose_welfare_choice(self):
        from idlewage import welfare

        eqs = find_equilibria(H19, PolicyPoint(2.0, 0.0, 0.3))
        best = select_equilibrium(eqs, Objective.WELFARE, H19)
        vals = [welfare(H19, eq) for eq in eqs]
        assert welfare(H19, best) == max(vals)
        # the efficient (high-throughput) equilibrium wins over the
        # wild-goose-chase one
        assert best.throughput == max(eq.throughput for eq in eqs)

    def test_empty_list_is_contract_violation(self):
        with pytest.raises(ValueError):
            select_equilibrium([], Objective.PROFIT, H19)


class TestQuasiUniqueness:
    def test_no_two_distinct_share_throughput(self):
        # throughput pins the whole tuple, so distinct equilibria must not
        # collide in Q (J > 0 draws; see the evanescent-tail test below)
        rng = np.random.default_rng(11)
        for _ in range(20):
            s, pol = random_instance(rng, j_zero_prob=0.0)
            eqs = find_equilibria(s, pol)
            Q = np.array([eq.throughput for eq in eqs])
            if Q.size > 1:
                assert np.min(np.diff(np.sort(Q))) > TOL_EQ

    def test_evanescent_tail_can_shadow_shutdown_at_zero_wage(self):
        # With J = 0 and tau < 1 the upper wild-goose root can sit so deep
        # in the demand tail that its throughput is within any fixed
        # tolerance of the shutdown equilibrium while the tuples genuinely
        # differ; the solver must report both, not merge them.
        rng = np.random.default_rng(11)
        seen = False
        for _ in range(20):
            s, pol = random_instance(rng)
            if pol.idle_wage > 0:
                continue
            eqs = find_equilibria(s, pol)
            Q = np.array([eq.throughput for eq in eqs])
            tail = (Q > 0) & (Q <= TOL_EQ)
            if tail.any():
                seen = True
                k = int(np.nonzero(tail)[0][0])
                assert eqs[k].idle > 10 * TOL_EQ  # distinct state, not a duplicate
        assert seen
