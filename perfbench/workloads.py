"""The benchmark workloads: inputs from a seed, one timed pass, output checks.

Every workload drives idlewage through public names only, looked up at
call time so that a traced pass sees the hooks of ``spans.install``.

single-peak          ``optimize_single_period`` for both objectives on the
                     default grid, one thread: one table and 42 large
                     slices, so kernel and root-finder work dominate.
reproduce-coarse     ``idlewage.cli.main(["reproduce-all", ...])`` on a coarse
                     config with two threads: 2772 tiny slices, so per-call
                     overhead, cross-call redundancy, the thread pool and
                     CSV output dominate.
equilibrium-queries  a seeded stream of distinct single-policy
                     ``find_equilibria`` calls: the per-policy path, which
                     never enters the optimizer and never repeats a call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
from time import perf_counter

import numpy as np

import idlewage as iw
import idlewage.cli  # noqa: F401  (makes iw.cli available)

HERE = os.path.dirname(os.path.abspath(__file__))
TMP_ROOT = os.path.join(HERE, ".tmp")

OBJECTIVES = (iw.Objective.PROFIT, iw.Objective.WELFARE)


class Pass:
    """Outputs of one pass: per-operation latencies and what went wrong."""

    def __init__(self):
        self.latencies: list[float] = []
        self.errors: dict[int, str] = {}   # operation index -> first problem

    def timed(self, index: int, call):
        """Run one operation; an exception counts as a failed operation."""
        t0 = perf_counter()
        try:
            return call()
        except Exception as exc:  # the benchmark keeps running and counts it
            self.fail(index, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self.latencies.append(perf_counter() - t0)

    def fail(self, index: int, msg: str) -> None:
        self.errors.setdefault(index, f"op {index}: {msg}")


class Workload:
    """Set-up happens in ``__init__``; ``run`` is the timed pass."""

    name: str
    threads: int
    inputs: dict

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# single-peak
# ---------------------------------------------------------------------------

PEAK_COMBOS = [(h, b) for h in (17, 18, 19, 20, 21) for b in (0.2, 0.25, 0.5, 0.95)]
PEAK_DEFAULT = PEAK_COMBOS.index((19, 0.25))


def peak_combo(seed: int) -> tuple[int, float]:
    """(hour, beta) of every pass of ``seed``; seed 0 is hour 19, beta 0.25."""
    return PEAK_COMBOS[(PEAK_DEFAULT + seed) % len(PEAK_COMBOS)]


class SinglePeak(Workload):
    name = "single-peak"
    threads = 1

    def __init__(self, seed: int, index: int, tiny: bool, refs: dict):
        self.hour, self.beta = peak_combo(seed)
        self.inputs = {"hour": self.hour, "beta": self.beta}
        self.scenario = iw.period_for_hour(self.hour, self.beta)
        if tiny:
            self.grid = iw.GridSpec(p_step=0.25, j_step=0.7, tau_step=0.5)
            self.solver = iw.SolverConfig(scan_points=512)
        else:
            self.grid = iw.GridSpec()
            self.solver = iw.SolverConfig()
        self.ref = refs.get(f"{self.hour} {self.beta}")

    def run(self, out: Pass):
        return [
            out.timed(i, lambda obj=obj: iw.optimize_single_period(
                self.scenario, obj, self.grid, self.solver, threads=self.threads))
            for i, obj in enumerate(OBJECTIVES)
        ]

    @staticmethod
    def optimum(r) -> list[float]:
        pol = r.best_schedule
        return [pol.price, pol.idle_wage, pol.commission, r.value]

    def record(self, results) -> dict:
        return {obj.value: self.optimum(r) for obj, r in zip(OBJECTIVES, results)}

    def check(self, results, out: Pass) -> None:
        s, tol = self.scenario, self.solver.tol_eq
        for i, (obj, r) in enumerate(zip(OBJECTIVES, results)):
            if r is None:
                continue
            if not r.equilibria:
                out.fail(i, "no equilibrium at the optimum")
                continue
            eq = r.equilibria[0]
            if math.isfinite(eq.pickup) and abs(iw.residual(s, eq.policy, eq.pickup)) > tol:
                out.fail(i, f"{obj.value}: residual above tol_eq at the optimum")
            if not math.isclose(iw.evaluate(obj, s, eq), r.value, rel_tol=1e-12, abs_tol=1e-12):
                out.fail(i, f"{obj.value}: evaluate() differs from the reported optimum")
            if self.ref is not None:
                want = self.ref[obj.value]
                got = self.optimum(r)
                if got[:3] != want[:3] or not math.isclose(got[3], want[3], rel_tol=1e-12):
                    out.fail(i, f"{obj.value}: optimum {got} != reference {want}")


# ---------------------------------------------------------------------------
# reproduce-coarse
# ---------------------------------------------------------------------------

COARSE_CONFIG = {"grid": {"p_step": 0.25, "j_step": 0.7, "tau_step": 0.5},
                 "solver": {"scan_points": 512}}
TINY_CONFIG = {"grid": {"p_step": 1.0, "j_step": 1.4, "tau_step": 1.0},
               "solver": {"scan_points": 64}}
CSV_NAMES = ("fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv", "table2.csv")


class ReproduceCoarse(Workload):
    """The inputs are fixed so the CSV bytes can be checked; the seed is only recorded."""

    name = "reproduce-coarse"
    threads = 2

    def __init__(self, seed: int, index: int, tiny: bool, refs: dict):
        os.makedirs(TMP_ROOT, exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=TMP_ROOT)
        self.outdir = os.path.join(self._tmp.name, "out")
        self.config = os.path.join(self._tmp.name, "coarse.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(TINY_CONFIG if tiny else COARSE_CONFIG, fh)
        self.inputs = {"config": "tiny" if tiny else "coarse"}
        self.ref = refs or None
        self.log = io.StringIO()

    def run(self, out: Pass):
        argv = ["reproduce-all", "--outdir", self.outdir, "--config", self.config,
                "--threads", str(self.threads)]
        with contextlib.redirect_stderr(self.log):
            return [out.timed(0, lambda: iw.cli.main(argv))]

    def record(self, results) -> dict:
        digests = {}
        for name in CSV_NAMES:
            path = os.path.join(self.outdir, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    digests[name] = hashlib.sha256(fh.read()).hexdigest()
        return digests

    def check(self, results, out: Pass) -> None:
        if results[0] is None:
            return
        if results[0] != 0:
            out.fail(0, f"exit code {results[0]}: {self.log.getvalue()[-500:]}")
            return
        got = self.record(results)
        if sorted(got) != sorted(CSV_NAMES):
            out.fail(0, f"missing outputs: {sorted(set(CSV_NAMES) - set(got))}")
        elif self.ref is not None and got != self.ref:
            out.fail(0, f"CSV bytes differ from reference: "
                        f"{sorted(k for k in got if got[k] != self.ref.get(k))}")

    def close(self) -> None:
        self._tmp.cleanup()


# ---------------------------------------------------------------------------
# equilibrium-queries
# ---------------------------------------------------------------------------

QUERY_BETAS = (0.2, 0.25, 0.5, 0.95, 1.0)


class EquilibriumQueries(Workload):
    """Pass ``index`` of seed ``seed`` draws its own queries, so no call repeats in a run."""

    name = "equilibrium-queries"
    threads = 1

    def __init__(self, seed: int, index: int, tiny: bool, refs: dict):
        n = 40 if tiny else 100
        rng = np.random.default_rng([seed, index])
        hours = rng.integers(1, 25, n)
        betas = rng.choice(QUERY_BETAS, n)
        prices = rng.uniform(0.0, 5.0, n)
        commissions = rng.uniform(0.0, 1.0, n)
        wages = np.where(rng.random(n) < 0.1, 0.0, rng.uniform(0.0, 2.8, n))
        scenarios = {}
        self.queries = []
        for h, b, p, j, t in zip(hours, betas, prices, wages, commissions):
            key = (int(h), float(b))
            if key not in scenarios:
                scenarios[key] = iw.period_for_hour(*key)
            self.queries.append((scenarios[key], iw.PolicyPoint(float(p), float(j), float(t))))
        self.solver = iw.SolverConfig()
        self.inputs = {"queries": n}
        per_pass = refs.get(str(seed), [])
        self.ref = per_pass[index] if index < len(per_pass) else None

    def run(self, out: Pass):
        return [
            out.timed(i, lambda s=s, pol=pol: iw.find_equilibria(s, pol, self.solver))
            for i, (s, pol) in enumerate(self.queries)
        ]

    def record(self, results) -> int:
        return sum(len(eqs) for eqs in results if eqs is not None)

    def check(self, results, out: Pass) -> None:
        tol = self.solver.tol_eq
        for i, ((s, pol), eqs) in enumerate(zip(self.queries, results)):
            if eqs is None:
                continue
            if pol.idle_wage > 0 and not eqs:
                out.fail(i, "J > 0 but no equilibrium")
            if pol.idle_wage == 0 and not any(eq.labour == 0 and eq.throughput == 0 for eq in eqs):
                out.fail(i, "J = 0 but the shutdown equilibrium is missing")
            for eq in eqs:
                if math.isfinite(eq.pickup) and abs(iw.residual(s, pol, eq.pickup)) > tol:
                    out.fail(i, f"residual above tol_eq at {pol}")
        total = self.record(results)
        if self.ref is not None and total != self.ref:
            # A wrong total cannot be pinned on one call: every call of the pass fails.
            for i in range(len(self.queries)):
                out.fail(i, f"{total} equilibria != reference {self.ref}")


WORKLOADS = {w.name: w for w in (SinglePeak, ReproduceCoarse, EquilibriumQueries)}
