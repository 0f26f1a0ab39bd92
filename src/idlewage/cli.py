"""Command-line front end: equilibria, policy optimization, experiment reproduction.

Exit codes: 0 success, 2 usage error, 3 infeasible minimum-wage constraint.
Every command but reproduce-all has one table: written as CSV to the --out
file when given, else printed with the same columns to stdout.  Progress
and cell counts go to stderr.  Runs are deterministic for any --threads
value.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import __version__
from .equilibrium import BracketingError, PolicyPoint, find_equilibria
from .model import supply
from .objectives import Objective, evaluate
from .optimize import (
    GridSpec,
    InfeasibleError,
    TableRequest,
    block_wage_max,
    day_requests,
    optimize_day_fixed,
    optimize_day_flexible,
    optimize_min_wage,
    optimize_single_period,
    sweep_day_idle_wage,
    sweep_idle_wage,
    value_tables,
    value_vs_tau,
)
from .analytic import (
    TwoPeriodExample,
    case_a_idle_only,
    case_b_no_idle,
    case_c_joint,
    flexible_optimum,
)
from .scenario import (
    ParseError,
    ResultTable,
    ScenarioConfig,
    ValidationError,
    default_config,
    emit_table,
    load_config,
    scenario_hash,
)

# De-facto lattice of the published shared-(J, tau) table; its entries are
# all multiples of 0.1 although the surrounding text claims 0.05 steps.
TABLE2_GRID = dict(j_step=0.1, tau_step=0.1)
TABLE2_AB = [(3.5, 44.0), (4.0, 44.5), (4.5, 45.0), (5.0, 45.5), (5.5, 46.0)]
TABLE2_BETAS = [0.2, 0.35, 0.5, 0.65, 0.8, 0.95]
_TABLE2_ROWS = [(b, a4, a19) for b in TABLE2_BETAS for a4, a19 in TABLE2_AB]

FIG1_BETAS = TABLE2_BETAS
FIG2_BETAS = [0.2, 0.5, 0.95]
FIG4_BETAS = [0.2, 0.95, 1.0]
FIG5_BETA = 0.25
FIG5_JMIN = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0]


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _positive_int(text: str) -> int:
    """A thread count from --threads or IDLEWAGE_THREADS."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _default_threads() -> int:
    """IDLEWAGE_THREADS when set, else the CPU count."""
    env = os.environ.get("IDLEWAGE_THREADS")
    try:
        return _positive_int(env) if env else os.cpu_count() or 1
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"IDLEWAGE_THREADS {exc}") from None


def _write_csv(path, cfg: ScenarioConfig, cols: dict, regime: str, objective: str) -> None:
    meta = {
        "regime": regime,
        "objective": objective,
        "scenario": scenario_hash(cfg),
        "tool": f"idlewage {__version__}",
    }
    emit_table(ResultTable(cols, meta), path)


def _cell(x) -> str:
    """A stdout table cell: labels as they are, flags as 0/1, numbers to 6 digits."""
    if isinstance(x, str):
        return x
    return str(int(x)) if isinstance(x, bool) else format(float(x), ".6g")


def _emit(args, cfg: ScenarioConfig, cols: dict, regime: str, objective: str) -> None:
    """A command's table: the CSV at --out when given, else the same columns
    aligned on stdout."""
    if args.out:
        _write_csv(args.out, cfg, cols, regime, objective)
        _progress(f"wrote {args.out}")
        return
    table = [list(cols)] + [[_cell(c) for c in row] for row in zip(*cols.values())]
    widths = [max(len(c) for c in col) for col in zip(*table)]
    for row in table:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _columns(names, rows) -> dict[str, list]:
    """Named columns from rows of values in the order of names."""
    return {name: [r[i] for r in rows] for i, name in enumerate(names)}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_equilibrium(args, cfg: ScenarioConfig) -> int:
    s = cfg.period(args.hour)
    pol = PolicyPoint(args.p, args.J, args.tau)
    eqs = find_equilibria(s, pol, cfg.solver)
    _progress(f"equilibrium: hour {args.hour}, {len(eqs)} equilibria")
    rows = []
    for eq in eqs:
        r_supply = eq.labour - supply(s.supply, eq.earnings, pol.idle_wage)
        rows.append((eq.earnings, eq.idle, eq.labour, eq.throughput, eq.pickup,
                     evaluate(Objective.PROFIT, s, eq), evaluate(Objective.WELFARE, s, eq),
                     r_supply))
    names = ("e", "I", "L", "Q", "T", "profit", "welfare", "res_supply")
    _emit(args, cfg, _columns(names, rows), "equilibrium", "both")
    return 0


def _cmd_sweep_j(args, cfg: ScenarioConfig) -> int:
    s = cfg.period(args.hour)
    obj = Objective(args.objective)
    g = cfg.grid
    j_vals = g.j_values()
    _progress(
        f"sweep-j: hour {args.hour}, {j_vals.size} wages x {g.tau_values().size} "
        f"commissions x {g.p_values().size} prices"
    )
    curve = sweep_idle_wage(s, obj, j_vals, g, cfg.solver, threads=args.threads)
    cols = _columns(
        ["J", "best_value", "best_tau", "best_price", "tau1_optimal"],
        [(pt.idle_wage, pt.value, pt.best_tau, pt.best_price, pt.tau1_optimal) for pt in curve],
    )
    _emit(args, cfg, cols, "sweep-j", args.objective)
    return 0


def _cmd_optimize(args, cfg: ScenarioConfig) -> int:
    obj = Objective(args.objective)
    g, solver = cfg.grid, cfg.solver
    n_cells = g.p_values().size * g.j_values().size * g.tau_values().size
    names = ["hour", "price", "J", "tau", "value"]
    if args.regime == "single":
        _progress(f"optimize single: hour {args.hour}, {n_cells} cells")
        res = optimize_single_period(cfg.period(args.hour), obj, g, solver, args.threads)
        pol = res.best_schedule
        row = (args.hour, pol.price, pol.idle_wage, pol.commission, res.value)
        _emit(args, cfg, _columns(names, [row]), "single", args.objective)
        print(
            f"hour {args.hour} {args.objective}: p*={pol.price:.6g} J*={pol.idle_wage:.6g} "
            f"tau*={pol.commission:.6g} value={res.value:.6f}"
        )
        return 0
    d = cfg.day()
    if args.regime == "flexible":
        _progress(f"optimize flexible: 24 periods x {g.p_values().size * g.j_values().size} cells")
        res = optimize_day_flexible(d, obj, g, solver, args.threads)
    elif args.regime == "fixed":
        _progress(f"optimize fixed: 24 periods x {n_cells} cells")
        res = optimize_day_fixed(d, obj, g, solver, args.threads)
    else:
        c = cfg.blocks if args.jmin is None else dataclasses.replace(cfg.blocks, j_min=args.jmin)
        _progress(f"optimize minwage: blocks ({c.b1}, {c.b2}), floor {c.j_min}")
        res = optimize_min_wage(d, obj, g, c, solver, args.threads)
        m, pair = block_wage_max(res.best_schedule.idle_wages, c.b1, c.b2)
        _progress(f"certified block wage sum {m:.6g} >= {c.j_min} at blocks {pair}")
    sch = res.best_schedule
    rows = [
        (h, p, J, sch.commission, evaluate(obj, s, eq),
         eq.earnings, eq.labour, eq.throughput, eq.pickup)
        for h, p, J, s, eq in zip(range(1, 25), sch.prices, sch.idle_wages, d.periods,
                                  res.equilibria)
    ]
    _emit(args, cfg, _columns(names + ["e", "L", "Q", "T"], rows), args.regime, args.objective)
    print(f"total {obj.value}: {res.value:.6f}")
    return 0


def _cmd_value_vs_tau(args, cfg: ScenarioConfig) -> int:
    obj = Objective(args.objective)
    d = cfg.day()
    _progress(f"value-vs-tau: 24 periods x {cfg.grid.tau_values().size} commissions")
    curve = value_vs_tau(d, obj, cfg.grid, cfg.solver, args.threads)
    _emit(args, cfg, _columns(["tau", "total_value"], curve), "value-vs-tau", args.objective)
    return 0


def _table2_days(cfg: ScenarioConfig, at_beta, combos, objectives) -> tuple[GridSpec, list, list]:
    """The table2 grid, (beta, A4, A19, day) per row from at_beta's config
    for its beta, and the rows' value-table requests per objective."""
    days = [(b, a4, a19, at_beta[b].two_period_day(a4, a19)) for b, a4, a19 in combos]
    g = dataclasses.replace(cfg.grid, **TABLE2_GRID)
    return g, days, [r for *_, day in days for obj in objectives
                     for r in day_requests(day, obj, g, cfg.solver)]


def _table2_rows(cfg: ScenarioConfig, g: GridSpec, days, objectives, threads, tables) -> list:
    """(beta, A4, A19, objective, J, tau, value) of the shared-(J, tau) optimum
    per table2 day and objective, reduced from tables."""
    rows = []
    for b, a4, a19, day in days:
        for obj in objectives:
            res = optimize_day_fixed(day, obj, g, cfg.solver, threads, tables)
            sch = res.best_schedule
            rows.append((b, a4, a19, obj.value, sch.idle_wages[0], sch.commission, res.value))
    return rows


def _cmd_table2(args, cfg: ScenarioConfig) -> int:
    combos = _TABLE2_ROWS if args.all else [(args.beta, args.A4, args.A19)]
    objectives = [Objective(args.objective)]
    at_beta = {b: dataclasses.replace(cfg, risk_beta=b) for b in {b for b, *_ in combos}}
    g, days, requests = _table2_days(cfg, at_beta, combos, objectives)
    _progress(f"table2: {len(combos)} rows, {g.j_values().size * g.tau_values().size} cells each")
    tables = value_tables(requests, args.threads)   # every row's tables in one plan
    rows = _table2_rows(cfg, g, days, objectives, args.threads, tables)
    names = ["beta", "A4", "A19", "J", "tau", "value"]
    _emit(args, cfg, _columns(names, [r[:3] + r[4:] for r in rows]), "table2", args.objective)
    return 0


def _cmd_analytic(args, cfg: ScenarioConfig) -> int:
    ex = TwoPeriodExample(args.epsilon)
    flex = flexible_optimum(ex)
    a, b, c = case_a_idle_only(ex), case_b_no_idle(ex), case_c_joint(ex)
    # flexible rows report the per-period pieces; the other cases share (tau, J)
    rows = [
        ("flexible_high", flex["J_high"], 1.0, flex["profit_high"]),
        ("flexible_low", flex["J_low"], 1.0, flex["profit_low"]),
        ("a_idle_only", a["J"], 1.0, a["profit"]),
        ("b_no_idle", 0.0, b["tau"], b["profit"]),
        ("c_joint", c["J"], c["tau"], c["profit"]),
    ]
    names = ["case", "J", "tau", "profit", "epsilon"]
    _emit(args, cfg, _columns(names, [(*r, args.epsilon) for r in rows]), "analytic", "profit")
    return 0


def _cmd_reproduce_all(args, cfg: ScenarioConfig) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    threads = args.threads
    g, solver = cfg.grid, cfg.solver
    objectives = (Objective.WELFARE, Objective.PROFIT)
    sweep_names = ("beta", "objective", "J", "best_value", "best_tau", "tau1_optimal")

    # One config, peak period and day per beta, shared by the plan and the
    # figures.  Every figure's value tables come from one plan, so each
    # distinct slice is refined once; the figures below reduce them.  fig5's
    # re-priced block hours are off the wage grid and solve on their own.
    betas = {*FIG1_BETAS, *FIG2_BETAS, *FIG4_BETAS, FIG5_BETA, *TABLE2_BETAS}
    at_beta = {b: dataclasses.replace(cfg, risk_beta=b) for b in betas}
    peak = {b: at_beta[b].period(19) for b in FIG1_BETAS}
    days = {b: at_beta[b].day() for b in FIG2_BETAS + FIG4_BETAS + [FIG5_BETA]}
    day, day5 = cfg.day(), days[FIG5_BETA]
    g2, days2, requests2 = _table2_days(cfg, at_beta, _TABLE2_ROWS, objectives)
    requests = [
        *(TableRequest.of(peak[b], obj, g, solver) for b in FIG1_BETAS for obj in objectives),
        *(r for b in FIG2_BETAS + FIG4_BETAS for obj in objectives
          for r in day_requests(days[b], obj, g, solver)),
        *(r for d in (day, day5) for obj in objectives
          for r in day_requests(d, obj, g, solver, tau_values=[1.0])),
        *requests2,
    ]
    _progress(f"plan: {len(set(requests))} value tables")
    tables = value_tables(requests, threads)
    figures = {}   # name -> columns, written once all six are computed

    # fig1: single-period idle-wage sweep at the evening peak
    _progress("fig1: single-period sweep per beta and objective")
    figures["fig1"] = _columns(sweep_names, [
        (b, obj.value, pt.idle_wage, pt.value, pt.best_tau, pt.tau1_optimal)
        for b in FIG1_BETAS
        for obj in objectives
        for pt in sweep_idle_wage(peak[b], obj, g.j_values(), g, solver, threads, tables)
    ])

    # fig2: full-day value against the shared commission
    _progress("fig2: full-day value vs commission per beta and objective")
    figures["fig2"] = _columns(("beta", "objective", "tau", "total_value"), [
        (b, obj.value, tau, v)
        for b in FIG2_BETAS
        for obj in objectives
        for tau, v in value_vs_tau(days[b], obj, g, solver, threads, tables)
    ])

    # fig3: flexible per-hour idle wage (beta plays no role at tau = 1)
    _progress("fig3: flexible per-hour wages")
    flex_w = optimize_day_flexible(day, Objective.WELFARE, g, solver, threads, tables)
    flex_p = optimize_day_flexible(day, Objective.PROFIT, g, solver, threads, tables)
    figures["fig3"] = _columns(("hour", "J_welfare", "J_profit"), list(zip(
        range(1, 25), flex_w.best_schedule.idle_wages, flex_p.best_schedule.idle_wages
    )))

    # fig4: fixed-day sweep over the shared idle wage
    _progress("fig4: fixed-day sweep per beta and objective")
    figures["fig4"] = _columns(sweep_names, [
        (b, obj.value, pt.idle_wage, pt.value, pt.best_tau, pt.tau1_optimal)
        for b in FIG4_BETAS
        for obj in objectives
        for pt in sweep_day_idle_wage(days[b], obj, g, solver, threads, tables)
    ])

    # fig5: minimum-wage blocks vs the unconstrained flexible day
    _progress("fig5: minimum-wage sweep")
    rows = []
    for obj in objectives:
        values = []
        for jm in FIG5_JMIN:
            c = dataclasses.replace(cfg.blocks, j_min=jm)
            values.append(optimize_min_wage(day5, obj, g, c, solver, threads, tables).value)
        # FIG5_JMIN[0] is 0, a floor every schedule meets, so its value is
        # the unconstrained flexible day's.
        rows += [(obj.value, jm, v, values[0]) for jm, v in zip(FIG5_JMIN, values)]
    figures["fig5"] = _columns(("objective", "j_min", "value", "value_unconstrained"), rows)

    # table2: shared (J, tau) on the published two-period lattice
    _progress("table2: all beta x pool rows")
    figures["table2"] = _columns(("beta", "A4", "A19", "objective", "J", "tau", "value"),
                                 _table2_rows(cfg, g2, days2, objectives, threads, tables))
    for name, cols in figures.items():
        _write_csv(os.path.join(args.outdir, f"{name}.csv"), cfg, cols, name, "both")
    _progress(f"wrote 6 files to {args.outdir}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="idlewage",
        description="Ride-hailing equilibria and policy optimization with an idle wage.",
    )
    ap.add_argument("--version", action="version", version=f"idlewage {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, objective=True):
        p.add_argument("--config", help="JSON config file (defaults built in)")
        p.add_argument("--threads", type=_positive_int,
                       help="parallel evaluation threads (wall time only; results identical; "
                            "default IDLEWAGE_THREADS, else the CPU count)")
        p.add_argument("--out", help="write the table as CSV here instead of to stdout")
        if objective:
            p.add_argument("--objective", choices=["profit", "welfare"], required=True)

    p = sub.add_parser("equilibrium", help="enumerate equilibria of one policy")
    common(p, objective=False)
    p.add_argument("--hour", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--J", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)

    p = sub.add_parser("sweep-j", help="best value per idle wage for one period")
    common(p)
    p.add_argument("--hour", type=int, default=19)

    p = sub.add_parser("optimize", help="grid-search one regime")
    p.add_argument("regime", choices=["single", "flexible", "fixed", "minwage"])
    common(p)
    p.add_argument("--hour", type=int, default=19, help="period for the single regime")
    p.add_argument("--jmin", type=float,
                   help="minimum block wage for minwage (default: the config's blocks.j_min)")

    p = sub.add_parser("value-vs-tau", help="full-day value per fixed commission")
    common(p)

    p = sub.add_parser("table2", help="two-period shared-(J,tau) optimum")
    common(p)
    p.add_argument("--beta", type=float, default=0.2)
    p.add_argument("--A4", type=float, default=3.5)
    p.add_argument("--A19", type=float, default=44.0)
    p.add_argument("--all", action="store_true", help="run every published row")

    p = sub.add_parser("analytic", help="closed-form two-period example")
    common(p, objective=False)
    p.add_argument("--epsilon", type=float, required=True)

    p = sub.add_parser("reproduce-all", help="emit every experiment CSV")
    common(p, objective=False)
    p.add_argument("--outdir", required=True)
    return ap


_COMMANDS = {
    "equilibrium": _cmd_equilibrium,
    "sweep-j": _cmd_sweep_j,
    "optimize": _cmd_optimize,
    "value-vs-tau": _cmd_value_vs_tau,
    "table2": _cmd_table2,
    "analytic": _cmd_analytic,
    "reproduce-all": _cmd_reproduce_all,
}


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.threads is None:
            args.threads = _default_threads()
        cfg = load_config(args.config) if args.config else default_config()
        return _COMMANDS[args.command](args, cfg)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValidationError, BracketingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
