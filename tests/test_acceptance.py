"""Acceptance suite: one test per numbered criterion.

Every test prints one `ACCEPTANCE <n> PASS|FAIL <summary>` line (visible
with `pytest -s` or on failure) before asserting, so a red criterion still
reports its full evidence.
"""

import dataclasses
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import idlewage as iw
from idlewage import Objective
from oracles import dense_scan_equilibria, quad_social_cost, quad_surplus, random_instance

THREADS = min(4, os.cpu_count() or 1)
GRID = iw.GridSpec()
SOLVER = iw.DEFAULT_SOLVER


def report(n: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. analytic example exactness
# ---------------------------------------------------------------------------


def test_criterion_01_analytic_exactness():
    t0 = time.perf_counter()
    tol = 1e-12
    ok = True
    for eps in (0.1, 0.36, 0.5, 0.72, 1.0, 3.0):
        ex = iw.TwoPeriodExample(eps)
        a = iw.case_a_idle_only(ex)
        ok &= abs(a["J"] - 5 / 16) <= tol
        ok &= abs(a["profit"] - 25 * (1 + eps) / 128) <= tol
        b = iw.case_b_no_idle(ex)
        ok &= abs(b["tau"] - 0.5) <= tol and abs(b["profit"] - 34 / 128) <= tol
        c = iw.case_c_joint(ex)
        if eps <= 0.72:
            den = 36 + 36 * eps - 25 * eps**2
            ok &= abs(c["J"] - 85 * eps / (4 * den)) <= tol
            ok &= abs(c["tau"] - (18 + 43 * eps) / den) <= tol
            ok &= abs(c["profit"] - 153 * (1 + eps) / (16 * den)) <= tol
        else:
            ok &= c == {"J": 0.3125, "tau": 1.0, "profit": 25 * (1 + eps) / 128}
    # threshold continuity and the idle-only/no-idle crossover
    lo = iw.case_c_joint(iw.TwoPeriodExample(0.72))
    hi = iw.case_c_joint(iw.TwoPeriodExample(0.72 + 1e-13))
    ok &= all(abs(lo[k] - hi[k]) <= 1e-9 for k in ("J", "tau", "profit"))
    a36 = iw.case_a_idle_only(iw.TwoPeriodExample(0.36))
    ok &= abs(a36["profit"] - 34 / 128) <= tol
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert report(1, ok, f"closed forms exact to 1e-12, crossover at 0.36, "
                         f"threshold at 0.72 ({elapsed:.3f}s)")


# ---------------------------------------------------------------------------
# 2. published shared-(J, tau) table reproduction
# ---------------------------------------------------------------------------

TABLE2_AB = [(3.5, 44.0), (4.0, 44.5), (4.5, 45.0), (5.0, 45.5), (5.5, 46.0)]
TABLE2_WELFARE = {
    0.2: [(1.5, 0.0, 420.15), (1.4, 0.0, 420.48), (1.4, 0.0, 420.8), (1.4, 0.0, 420.8), (1.4, 0.0, 421.3)],
    0.35: [(1.3, 0.1, 420.6), (1.2, 0.0, 421.1), (1.1, 0.0, 421.5), (1.0, 0.0, 421.8), (0.9, 0.0, 421.9)],
    0.5: [(1.2, 0.1, 420.6), (1.1, 0.0, 421.2), (1.0, 0.0, 421.8), (1.0, 0.0, 422.3), (0.9, 0.0, 422.7)],
    0.65: [(0.9, 0.1, 420.7), (0.8, 0.0, 421.3), (0.9, 0.1, 421.8), (0.9, 0.1, 422.3), (0.8, 0.1, 422.8)],
    0.8: [(0.7, 0.1, 420.7), (0.5, 0.0, 421.2), (0.7, 0.1, 421.8), (0.8, 0.2, 422.3), (0.8, 0.2, 422.8)],
    0.95: [(0.3, 0.0, 420.7), (0.6, 0.1, 421.2), (0.5, 0.1, 421.8), (0.4, 0.1, 422.3), (0.3, 0.1, 422.8)],
}
TABLE2_PROFIT_BASE = [(1.1, 1.0, 181.6), (1.1, 1.0, 181.6), (1.1, 1.0, 181.7), (1.1, 1.0, 181.6), (1.1, 1.0, 181.5)]
TABLE2_PROFIT = {b: TABLE2_PROFIT_BASE for b in (0.2, 0.35, 0.5, 0.65, 0.8)}
TABLE2_PROFIT[0.95] = [(1.1, 1.0, 181.6), (1.1, 1.0, 181.6), (0.3, 0.9, 182.0), (0.3, 0.9, 182.2), (0.3, 0.9, 182.5)]


def test_criterion_02_table2_reproduction():
    # Run at the criterion's stated steps (J, tau step 0.05).  The welfare
    # optimum rides a fold edge of the equilibrium set and the published
    # values carry the source pipeline's own discretization bias, so parts
    # of this criterion are expected to fail.  README.md's acceptance
    # section gives the analysis; the per-row lines printed below are the
    # evidence.
    t0 = time.perf_counter()
    rows_fail = []
    n_rows = 0
    expected_by_obj = ((Objective.PROFIT, TABLE2_PROFIT), (Objective.WELFARE, TABLE2_WELFARE))
    # every row's tables in one plan, so rows that share a slice refine it once
    tables = iw.value_tables([
        r for obj, table in expected_by_obj for beta in table for a4, a19 in TABLE2_AB
        for r in iw.day_requests(iw.two_period_day(beta, a4, a19), obj, GRID, SOLVER)
    ], THREADS)
    for obj, table in expected_by_obj:
        for beta, expected in table.items():
            for (a4, a19), (pj, pt, pv) in zip(TABLE2_AB, expected):
                day = iw.two_period_day(beta, a4, a19)
                res = iw.optimize_day_fixed(day, obj, GRID, SOLVER, THREADS, tables)
                J = res.best_schedule.idle_wages[0]
                tau = res.best_schedule.commission
                ok_jt = (J == pj) and (tau == pt)
                ok_v = abs(res.value - pv) <= 0.2
                n_rows += 1
                verdict = ("" if ok_jt else " JT-MISS") + ("" if ok_v else " VALUE-MISS")
                line = (f"  {obj.value} beta={beta} A=({a4},{a19}): got (J={J}, tau={tau}, "
                        f"v={res.value:.3f}) paper ({pj}, {pt}, {pv}){verdict}")
                print(line)
                if not (ok_jt and ok_v):
                    rows_fail.append(line)
    elapsed = time.perf_counter() - t0
    ok = not rows_fail
    assert report(
        2, ok,
        f"{n_rows - len(rows_fail)}/{n_rows} rows match exactly at the stated grid "
        f"({elapsed:.0f}s); mismatches stem from the published table's own "
        "discretization (see README.md, Install and test)",
    )


# ---------------------------------------------------------------------------
# 3. grid value function nondecreasing in the commission
# ---------------------------------------------------------------------------


def test_criterion_03_value_function_monotone():
    s = iw.period_for_hour(19)
    taus, jv = GRID.tau_values(), GRID.j_values()
    ok = True
    detail = []
    for obj in (Objective.PROFIT, Objective.WELFARE):
        req = iw.TableRequest.of(s, obj, GRID, SOLVER)
        table = iw.value_tables([req], THREADS)[req].values
        v = np.empty(taus.size)
        res = np.empty(taus.size)
        for ti, sl in enumerate(table):
            ji = int(np.argmax(sl))
            v[ti] = sl[ji]
            # one-grid-step value resolution at the winner, price re-optimized
            neigh = [sl[j] for j in (ji - 1, ji + 1) if 0 <= j < jv.size]
            res[ti] = max(abs(v[ti] - x) for x in neigh)
        viol = v[:-1] - v[1:]
        tol = np.maximum(res[:-1], res[1:]) + 1e-9
        worst = float(np.max(viol - tol))
        ok &= worst <= 0
        detail.append(f"{obj.value}: max violation {max(0.0, float(viol.max())):.4f} "
                      f"within resolution {float(tol.max()):.4f}")
    assert report(3, ok, "; ".join(detail))


# ---------------------------------------------------------------------------
# 4. idle wage collapses for large driver pools
# ---------------------------------------------------------------------------


def test_criterion_04_large_pool_collapse():
    s0 = iw.period_for_hour(19)
    jstars = []
    for scale in (1, 10, 100, 1000):
        s = dataclasses.replace(
            s0, supply=dataclasses.replace(s0.supply, pool_size=45.0 * scale)
        )
        req = iw.TableRequest.of(s, Objective.PROFIT, GRID, SOLVER, tau_values=[0.75])
        sl = iw.value_tables([req])[req]
        jstars.append(float(GRID.j_values()[int(np.argmax(sl.values[0]))]))
    ok = all(a >= b for a, b in zip(jstars, jstars[1:])) and jstars[-1] == 0.0
    assert report(4, ok, f"J* per pool scale x1,x10,x100,x1000: {jstars}")


# ---------------------------------------------------------------------------
# 5 + 6. oracle equivalence and quasi-uniqueness on a random corpus
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def oracle_corpus():
    rng = np.random.default_rng(561)
    corpus = []
    for _ in range(100):
        s, pol = random_instance(rng, j_zero_prob=0.0)
        corpus.append((s, pol, iw.find_equilibria(s, pol)))
    return corpus


def test_criterion_05_oracle_equivalence(oracle_corpus):
    t0 = time.perf_counter()
    count_miss = comp_miss = resid_miss = 0
    for s, pol, eqs in oracle_corpus:
        oracle = dense_scan_equilibria(s, pol, n=10**6)
        if len(eqs) != len(oracle):
            count_miss += 1
            continue
        for eq, o in zip(eqs, oracle):
            got = (eq.earnings, eq.idle, eq.labour, eq.throughput)
            if not np.allclose(got, o[:4], atol=1e-6, rtol=0):
                comp_miss += 1
        for eq in eqs:
            L1 = eq.idle + (s.trip_time + eq.pickup) * eq.throughput
            checks = (
                eq.throughput - iw.demand(s.demand, pol.price, eq.pickup),
                eq.labour - L1,
                eq.earnings - (1 - pol.commission) * pol.price * eq.throughput / eq.labour,
                eq.labour - iw.supply(s.supply, eq.earnings, pol.idle_wage),
            )
            if any(abs(r) > 1e-8 for r in checks):
                resid_miss += 1
    elapsed = time.perf_counter() - t0
    ok = count_miss == comp_miss == resid_miss == 0 and elapsed < 120
    assert report(
        5, ok,
        f"100 instances vs 1e6-point scan: {count_miss} count, {comp_miss} component, "
        f"{resid_miss} residual misses ({elapsed:.0f}s)",
    )


def test_criterion_06_quasi_uniqueness(oracle_corpus):
    min_gap = np.inf
    for _, _, eqs in oracle_corpus:
        Q = np.sort([eq.throughput for eq in eqs])
        if Q.size > 1:
            min_gap = min(min_gap, float(np.min(np.diff(Q))))
    ok = min_gap > 1e-8
    assert report(6, ok, f"smallest throughput gap between distinct equilibria: {min_gap:.3e}")


# ---------------------------------------------------------------------------
# 7. closed forms against adaptive quadrature
# ---------------------------------------------------------------------------


def test_criterion_07_integral_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_s = worst_c = 0.0
    for _ in range(500):
        d = iw.DemandParams(
            rng.uniform(1, 200), rng.uniform(0.5, 3.0),
            -rng.uniform(0.2, 2.0), -rng.uniform(0.2, 2.0),
        )
        p, T = rng.uniform(0, 6), rng.uniform(0, 2)
        want = quad_surplus(d, p, T)
        got = iw.surplus(d, p, T)
        worst_s = max(worst_s, abs(got - want) / max(1e-300, abs(want)))
    for _ in range(500):
        sp = iw.SupplyParams(
            rng.uniform(1, 60), rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0)
        )
        L = rng.uniform(0.01, 60)
        want = quad_social_cost(sp, L)
        got = iw.social_cost(sp, L)
        worst_c = max(worst_c, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - t0
    ok = worst_s <= 1e-8 and worst_c <= 1e-8 and elapsed < 30
    assert report(
        7, ok,
        f"1000-point grid: surplus rel err {worst_s:.2e}, cost rel err {worst_c:.2e} "
        f"({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 8. sweep shapes and the risk-neutral fixed day
# ---------------------------------------------------------------------------


def test_criterion_08_sweep_shapes():
    s = iw.period_for_hour(19, risk_beta=0.2)
    jv = GRID.j_values()
    day = iw.builtin_day(risk_beta=1.0)
    objectives = (Objective.WELFARE, Objective.PROFIT)
    tau1 = {obj: iw.TableRequest.of(s, obj, GRID, SOLVER, tau_values=[1.0]) for obj in objectives}
    # every table below in one plan, so slices shared between them refine once
    tables = iw.value_tables([
        *(iw.TableRequest.of(s, obj, GRID, SOLVER) for obj in objectives), *tau1.values(),
        *(r for obj in objectives for r in iw.day_requests(day, obj, GRID, SOLVER)),
    ], THREADS)
    ok = True
    detail = []
    for obj in objectives:
        curve = iw.sweep_idle_wage(s, obj, jv, GRID, SOLVER, THREADS, tables)
        F = np.array([pt.value for pt in curve])
        flags = np.array([pt.tau1_optimal for pt in curve])
        # grid-tie scale: one J-step value resolution of the tau=1 curve
        v1 = tables[tau1[obj]].values[0]
        k1 = int(np.argmax(v1))
        delta = max(abs(v1[k1] - v1[max(k1 - 1, 0)]), abs(v1[k1] - v1[min(k1 + 1, jv.size - 1)]))
        tied = np.nonzero(F >= F.max() - delta)[0]
        unimodal = (
            np.all(np.diff(tied) == 1)
            and 0 < tied[0] and tied[-1] < jv.size - 1
            and np.all(np.diff(F[: tied[0] + 1]) >= -delta)
            and np.all(np.diff(F[tied[-1]:]) <= delta)
        )
        max_flagged = bool(flags[tied].any())
        ok &= unimodal and max_flagged
        detail.append(
            f"{obj.value}: interior max J in [{jv[tied[0]]}, {jv[tied[-1]]}], "
            f"inverted-U={unimodal}, tau=1 at a tied maximizer={max_flagged}"
        )

    # risk-neutral full day with one shared (J, tau): profit pins J* = 0;
    # welfare is exactly ridge-flat in the pay split, so J = 0 must tie the
    # optimum within one grid step's value resolution
    resp = iw.optimize_day_fixed(day, Objective.PROFIT, GRID, SOLVER, THREADS, tables)
    ok_p = resp.best_schedule.idle_wages[0] == 0.0
    sweep = iw.sweep_day_idle_wage(day, Objective.WELFARE, GRID, SOLVER, THREADS, tables)
    best_by_j = np.array([pt.value for pt in sweep])
    kw = int(np.argmax(best_by_j))
    delta_w = abs(best_by_j[kw] - best_by_j[max(kw - 1, 0)])
    ok_w = best_by_j[0] >= best_by_j[kw] - max(delta_w, 1e-9)
    ok &= ok_p and ok_w
    # The welfare leg is expected to fail: welfare pins the commission at
    # its tau = 0 boundary (drivers already keep every fare) and still
    # wants more supply, which only J can buy — so J* > 0 by a margin far
    # above grid resolution.  See README.md's acceptance section.
    detail.append(
        f"beta=1 fixed day: profit J*={resp.best_schedule.idle_wages[0]}; welfare "
        f"J*={float(jv[kw])} beats J=0 by {best_by_j[kw] - best_by_j[0]:.3f} "
        f"(resolution {delta_w:.3f}), J=0 optimal={ok_w}"
    )
    assert report(8, ok, "; ".join(detail))


# ---------------------------------------------------------------------------
# 9. risk-neutral minimum wage loses nothing
# ---------------------------------------------------------------------------


def test_criterion_09_risk_neutral_min_wage():
    day = iw.builtin_day(risk_beta=1.0)
    flex = iw.optimize_day_flexible(day, Objective.PROFIT, GRID, SOLVER, threads=THREADS)
    m0, _ = iw.block_wage_max(np.array(flex.best_schedule.idle_wages))
    res = iw.optimize_min_wage(
        day, Objective.PROFIT, GRID, iw.BlockConstraint(j_min=m0), SOLVER, threads=THREADS
    )
    # one-grid-step tolerance: value change from one J step in one period
    s0 = day.periods[18]
    req = iw.TableRequest.of(s0, Objective.PROFIT, GRID, SOLVER, tau_values=[1.0])
    v = iw.value_tables([req])[req].values[0]
    k = int(np.argmax(v))
    step_res = abs(v[k] - v[max(k - 1, 0)])
    ok = abs(res.value - flex.value) <= max(step_res, 1e-9)
    assert report(
        9, ok,
        f"feasible floor {m0:.2f}: constrained {res.value:.6f} vs flexible "
        f"{flex.value:.6f} (tolerance {max(step_res, 1e-9):.3f})",
    )


# ---------------------------------------------------------------------------
# 10. byte determinism of the reproduction pipeline
# ---------------------------------------------------------------------------


def test_criterion_10_reproduce_all_determinism(tmp_path):
    cfg = tmp_path / "coarse.json"
    cfg.write_text(json.dumps({
        "grid": {"p_step": 0.25, "j_step": 0.7, "tau_step": 0.5},
        "solver": {"scan_points": 512},
    }))
    outs = []
    # the child imports idlewage from wherever this process does, installed
    # or not: pytest's pythonpath setting reaches only its own process
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    for threads, sub in (("1", "a"), (str(THREADS), "b")):
        outdir = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "idlewage.cli", "reproduce-all",
             "--outdir", str(outdir), "--config", str(cfg), "--threads", threads],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(outdir)
    names = sorted(p.name for p in outs[0].iterdir())
    ok = names == sorted(p.name for p in outs[1].iterdir()) and len(names) == 6
    diff = [n for n in names if (outs[0] / n).read_bytes() != (outs[1] / n).read_bytes()]
    ok &= not diff
    assert report(
        10, ok,
        f"6 files, --threads 1 vs --threads {THREADS}: "
        + ("byte-identical" if not diff else f"differ: {diff}"),
    )
