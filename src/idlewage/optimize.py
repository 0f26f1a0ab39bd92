"""Exhaustive grid-search optimization of platform decisions.

Four regimes are covered: a single period; a day with fully flexible
per-hour idle wages (commission fixed at 1, where nothing is lost); a day
with one shared (J, tau); and a day with per-hour idle wages subject to a
minimum-wage constraint on a pair of cyclic hour blocks.

Every regime reduces one object, a period's value table: the best value
over the price grid at each (tau, J) cell, with the winning price and
equilibrium.  Every grid cell is evaluated through the bracketing
equilibrium solver, and each (tau, J) cell keeps its winning root in one
lexicographic pass over value, price, throughput and labour.  Ties between
cells break lexicographically through one helper, ``_lex_first``.

Tables come from one planner, :func:`value_tables`.  A
:class:`TableRequest` names a table by everything it depends on; requests
that share a slice key (the period without its risk weight, the price and
wage grids, the solver config) share one scan table, each distinct
earnings weight beta * (1 - tau) among them is refined once, and each
distinct (objective, weight, commission) row is reduced once.  One rule
splits the work: the groups, largest first, deal out the threads, and a
group cuts its weights into one contiguous part per thread it holds.
Regimes take an optional mapping from requests to tables, so a caller can
plan several regimes' tables in one call.  Results are deterministic for
any degree of parallelism (slices are pure and independent; reduction
order is fixed).
"""

from __future__ import annotations

import enum
import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .equilibrium import (
    _MAX_TABLE_CELLS,
    DEFAULT_SOLVER,
    BracketingError,
    Equilibrium,
    PeriodTables,
    PolicyPoint,
    RootSet,
    SolverConfig,
    equilibrium_at,
    equilibrium_components,
    solve_slices,
    zero_equilibrium,
)
from .model import DayScenario, PeriodScenario, _require_finite, _require_int
from .objectives import Objective, evaluate, profit_values, welfare_values

__all__ = [
    "GridSpec",
    "DaySchedule",
    "BlockConstraint",
    "Regime",
    "OptimResult",
    "SweepPoint",
    "DaySweepPoint",
    "ValueTable",
    "TableRequest",
    "InfeasibleError",
    "value_tables",
    "day_requests",
    "optimize_single_period",
    "sweep_idle_wage",
    "sweep_day_idle_wage",
    "optimize_day_flexible",
    "value_vs_tau",
    "optimize_day_fixed",
    "admissible_blocks",
    "block_wage_max",
    "optimize_min_wage",
]

# Relative tolerance within which tau = 1 counts as attaining a sweep maximum.
_TIE_TOL = 1e-9


def _grid_size(lo: float, hi: float, step: float) -> float:
    """Number of points of _grid(lo, hi, step), as a float so huge counts compare."""
    return np.floor((hi - lo) / step + 1e-9) + 1.0


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Inclusive decimal grid lo, lo+step, ... with canonical float values."""
    return np.round(lo + np.arange(int(_grid_size(lo, hi, step))) * step, 10)


def _wage_list(values, name: str) -> np.ndarray:
    """values as a float array; ValueError naming the argument unless a finite,
    ascending, one-dimensional list."""
    js = np.asarray(values, dtype=float)
    if js.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional list")
    if not np.all(np.isfinite(js)):
        raise ValueError(f"{name} must be finite")
    if np.any(np.diff(js) < 0):
        raise ValueError(f"{name} must be in ascending order")
    return js


@dataclass(frozen=True)
class GridSpec:
    """Search grids for price, idle wage, and commission."""

    p_min: float = 0.0
    p_max: float = 5.0
    p_step: float = 0.01
    j_min: float = 0.0
    j_max: float = 2.8
    j_step: float = 0.05
    tau_step: float = 0.05

    def __post_init__(self):
        _require_finite(self, "p_min", "p_max", "p_step", "j_min", "j_max", "j_step", "tau_step")
        for name in ("p_min", "j_min"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("p_step", "j_step", "tau_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.p_max < self.p_min or self.j_max < self.j_min:
            raise ValueError("grid ranges must be nonempty")
        n_j = _grid_size(self.j_min, self.j_max, self.j_step)
        for names, n in (
            ("p_step and j_step", _grid_size(self.p_min, self.p_max, self.p_step)),
            ("tau_step and j_step", _grid_size(0.0, 1.0, self.tau_step)),
        ):
            if n * n_j > _MAX_TABLE_CELLS:
                raise ValueError(
                    f"{names} give a {n:.3g} x {n_j:.3g} table, over the budget of "
                    f"{_MAX_TABLE_CELLS} cells"
                )
        if self.tau_values()[-1] != 1.0:
            raise ValueError("tau grid must cover [0, 1] inclusive of both endpoints")

    def p_values(self) -> np.ndarray:
        return _grid(self.p_min, self.p_max, self.p_step)

    def j_values(self) -> np.ndarray:
        return _grid(self.j_min, self.j_max, self.j_step)

    def tau_values(self) -> np.ndarray:
        return _grid(0.0, 1.0, self.tau_step)


@dataclass(frozen=True)
class DaySchedule:
    """Per-period prices and idle wages sharing a single daily commission."""

    prices: tuple[float, ...]
    idle_wages: tuple[float, ...]
    commission: float

    def __post_init__(self):
        _require_finite(self, "prices", "idle_wages", "commission")
        if len(self.prices) != len(self.idle_wages):
            raise ValueError("prices and idle_wages must have equal length")
        if any(p < 0 for p in self.prices) or any(j < 0 for j in self.idle_wages):
            raise ValueError("schedule entries must be >= 0")
        if not 0 <= self.commission <= 1:
            raise ValueError("commission must be in [0, 1]")


@dataclass(frozen=True)
class BlockConstraint:
    """Two disjoint cyclic hour blocks whose idle wages must sum to j_min."""

    b1: int = 4
    b2: int = 4
    j_min: float = 0.0

    def __post_init__(self):
        _require_finite(self, "b1", "b2", "j_min")
        _require_int(self, "b1", "b2")
        if self.b1 < 1 or self.b2 < 1:
            raise ValueError("block lengths must be >= 1")
        if self.b1 + self.b2 > 24:
            raise ValueError("blocks cannot cover more than the 24-hour day")
        if self.j_min < 0:
            raise ValueError("j_min must be >= 0")


class Regime(enum.Enum):
    SINGLE_PERIOD = "single"
    FLEXIBLE_J = "flexible"
    FIXED_J_TAU = "fixed"
    MIN_WAGE_BLOCKS = "minwage"


@dataclass(frozen=True)
class OptimResult:
    regime: Regime
    objective: Objective
    best_schedule: DaySchedule | PolicyPoint
    equilibria: tuple[Equilibrium, ...]
    value: float


@dataclass(frozen=True)
class SweepPoint:
    """Best attainable value at one idle wage, optimizing price and commission."""

    idle_wage: float
    value: float
    best_tau: float
    best_price: float
    tau1_optimal: bool


@dataclass(frozen=True)
class DaySweepPoint:
    """Best day total at one shared idle wage, optimizing commission and prices."""

    idle_wage: float
    value: float
    best_tau: float
    tau1_optimal: bool


class InfeasibleError(RuntimeError):
    """The min-wage constraint admits no schedule worth operating."""


def _parallel_map(fn, items, threads: int) -> list:
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _lex_first(*keys) -> int:
    """Flat index of the lexicographically smallest key tuple.

    keys[0] is compared first; the keys broadcast to one shape and the
    index runs over it in C order.  Exact ties go to the first index.
    """
    keys = np.broadcast_arrays(*keys)
    return int(np.lexsort([k.ravel() for k in reversed(keys)])[0])


def _tau1_ties(values: np.ndarray, best: float) -> bool:
    """Whether tau = 1, last in a tau column, attains best within _TIE_TOL relatively."""
    return bool(values[-1] >= best - _TIE_TOL * max(1.0, abs(best)))


# ---------------------------------------------------------------------------
# The value table
# ---------------------------------------------------------------------------


@dataclass
class ValueTable:
    """Best value over the price grid per cell, with its price index and root.

    Arrays are (n_tau, n_j).  z is the winning equilibrium's pickup-time
    root; NaN marks the shutdown equilibrium (only possible at J = 0).
    """

    values: np.ndarray
    p_idx: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class TableRequest:
    """One period's value table, named by everything the table depends on.

    Equal requests have equal tables, so a mapping from requests to tables
    never returns a table computed for other inputs.  Build one with
    :meth:`of`, which validates the commission and wage lists.
    """

    period: PeriodScenario
    obj: Objective
    prices: tuple[float, ...]
    taus: tuple[float, ...]
    wages: tuple[float, ...]
    cfg: SolverConfig

    @staticmethod
    def of(
        s: PeriodScenario, obj: Objective, g: GridSpec = GridSpec(),
        cfg: SolverConfig = DEFAULT_SOLVER, tau_values=None, j_values=None,
    ) -> "TableRequest":
        """The table of s over g's price grid at tau_values x j_values.

        tau_values and j_values default to g's grids; tau_values must be a
        nonempty list of commissions in [0, 1], j_values finite and ascending.
        """
        taus = g.tau_values() if tau_values is None else np.asarray(tau_values, dtype=float)
        if taus.ndim != 1 or not taus.size or not np.all((taus >= 0.0) & (taus <= 1.0)):
            raise ValueError("tau_values must be a nonempty list of commissions in [0, 1]")
        js = g.j_values() if j_values is None else _wage_list(j_values, "j_values")
        return TableRequest(s, obj, *(tuple(a.tolist()) for a in (g.p_values(), taus, js)), cfg)

    def slice_key(self) -> tuple:
        """What the roots depend on besides the weight beta * (1 - tau): the
        period without its risk weight, the price and wage grids, the solver."""
        s = self.period
        no_beta = replace(s, supply=replace(s.supply, risk_beta=1.0))
        return no_beta, self.prices, self.wages, self.cfg


def _best_over_prices(
    tables: PeriodTables, j_values: np.ndarray, taus: np.ndarray, roots: RootSet,
    obj: Objective,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, p_idx, z) of the best root per (tau, J) cell, one row per tau.

    roots.t_idx indexes taus.  A cell's winner is its root of largest value,
    then smallest price, throughput and labour.  At J = 0 the shutdown
    equilibrium (value 0, price index 0, z NaN) wins unless a root is worth
    more.  Every price of a cell with J > 0 must hold a root, else
    BracketingError.  Roots come sorted by cell, as in :class:`RootSet`: the
    largest value comes from one reduction over each cell's run, and only
    the roots that reach it go into the (price, throughput, labour) sort.
    """
    s, n_p, n_j = tables.scenario, tables.p.size, j_values.size
    tau, p_arr = taus[roots.t_idx], tables.p[roots.p_idx]
    T, I, Q, L, e = equilibrium_components(s, tau, p_arr, roots.z)
    if obj is Objective.PROFIT:
        vals = profit_values(tau, p_arr, Q, j_values[roots.j_idx], L)
    else:
        vals = welfare_values(s, p_arr, T, Q, L)
    cell = roots.t_idx * n_j + roots.j_idx

    has_root = np.zeros((taus.size, n_j, n_p), dtype=bool)
    has_root[roots.t_idx, roots.j_idx, roots.p_idx] = True
    if not has_root[:, j_values > 0.0].all():
        raise BracketingError(
            "grid evaluation: a cell with J > 0 produced no equilibrium in the "
            "scan window; widen SolverConfig.z_min/z_max"
        )

    # fmax skips a NaN value, so a NaN never wins over a number
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    top = np.flatnonzero(
        vals == np.repeat(np.fmax.reduceat(vals, starts), np.diff(starts, append=vals.size)))
    top = top[np.lexsort((L[top], Q[top], roots.p_idx[top], cell[top]))]
    first = top[np.diff(cell[top], prepend=-1) != 0]   # the winning root of each cell
    won = first[(vals[first] > 0.0) | (j_values[roots.j_idx[first]] > 0.0)]
    shape = (taus.size, n_j)   # cells no root wins keep the shutdown equilibrium
    values, p_idx, z = np.zeros(shape), np.zeros(shape, dtype=np.intp), np.full(shape, np.nan)
    values.flat[cell[won]] = vals[won]
    p_idx.flat[cell[won]] = roots.p_idx[won]
    z.flat[cell[won]] = roots.z[won]
    return values, p_idx, z


def _roots_of(roots: RootSet, rows: range, k: np.ndarray) -> RootSet:
    """The roots of the slices k (indices into the chunk's weights, all in
    rows), each renumbered to its position in k; a repeated slice repeats."""
    bounds = np.searchsorted(roots.t_idx, np.arange(rows.start, rows.stop + 1))
    lo, counts = bounds[k - rows.start], np.diff(bounds)[k - rows.start]
    owner = np.repeat(np.arange(k.size), counts)
    take = lo[owner] + np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
    return RootSet(owner, roots.p_idx[take], roots.j_idx[take], roots.z[take])


def _group_tables(key, requests, taus, coefs, w, threads: int) -> dict[TableRequest, ValueTable]:
    """The tables of the requests whose slice key is key, as
    :func:`value_tables` describes.  taus stacks the requests' commissions
    in request order, one row each; coefs are the rows' distinct weights,
    ascending, and w holds each row's index into coefs."""
    s, prices, wages, cfg = key
    tables, wages = PeriodTables.build(s, np.array(prices), cfg), np.array(wages)
    n = [len(r.taus) for r in requests]
    objs = np.repeat([list(Objective).index(r.obj) for r in requests], n)
    # equal (objective, weight, commission) rows have equal values, so from
    # here on objs, w and taus hold the distinct rows; row maps each row to one
    u, row = np.unique(np.stack((objs, w, taus.view(np.int64)), 1), axis=0, return_inverse=True)
    objs, w, taus = u[:, 0], u[:, 1], u[:, 2].view(float)
    # unfilled; the group's chunks fill every row
    values, p_idx, z = (np.empty((len(u), wages.size), d) for d in (float, np.intp, float))

    def stream(part):
        k = w - part[0]   # each row's index into the part's weights
        for rows, roots in solve_slices(tables, wages, coefs[part]):
            for o, obj in enumerate(Objective):
                mine = np.flatnonzero((objs == o) & (k >= rows.start) & (k < rows.stop))
                if mine.size:
                    values[mine], p_idx[mine], z[mine] = _best_over_prices(
                        tables, wages, taus[mine], _roots_of(roots, rows, k[mine]), obj)
            del roots   # before the next chunk refines

    _parallel_map(stream, np.array_split(np.arange(coefs.size), min(threads, coefs.size)), threads)
    return {r: ValueTable(values[i], p_idx[i], z[i])
            for r, i in zip(requests, np.split(row, np.cumsum(n)[:-1]))}


def value_tables(requests, threads: int = 1) -> dict[TableRequest, ValueTable]:
    """The value table of every request, each distinct slice refined once.

    Requests group by :meth:`TableRequest.slice_key`.  A group builds one
    scan table and cuts its distinct weights beta * (1 - tau), compared as
    exact floats, into one contiguous part per thread it holds; each part
    streams through :func:`solve_slices`.  A group keeps one table of its
    distinct (objective, weight, commission) rows: each chunk's roots are
    reduced once per objective into the rows they serve, then dropped, and
    a request's table is a copy of its rows.  Groups run largest
    first; with n groups and n < threads, group i holds threads // n +
    (i < threads % n) threads, else one: at most threads streams at once.
    """
    by_key: dict[tuple, list[TableRequest]] = {}
    for r in dict.fromkeys(requests):
        by_key.setdefault(r.slice_key(), []).append(r)
    groups = []
    for key, reqs in by_key.items():
        taus = np.concatenate([r.taus for r in reqs])
        betas = np.repeat([r.period.supply.risk_beta for r in reqs], [len(r.taus) for r in reqs])
        groups.append((key, reqs, taus, *np.unique(betas * (1.0 - taus), return_inverse=True)))
    # largest first, by the (weight, price, wage) cells a group refines
    groups.sort(key=lambda g: g[3].size * len(g[0][1]) * len(g[0][2]), reverse=True)
    n = len(groups)
    shares = [threads // n + (i < threads % n) if n < threads else 1 for i in range(n)]
    outs = _parallel_map(lambda g: _group_tables(*g[0], g[1]), list(zip(groups, shares)), threads)
    return {r: t for out in outs for r, t in out.items()}


def _tables_for(requests, tables, threads: int) -> list[ValueTable]:
    """The table of each request: from the tables mapping when it holds
    one, else computed in one :func:`value_tables` call."""
    have = tables or {}
    new = value_tables([r for r in requests if r not in have], threads)
    return [have[r] if r in have else new[r] for r in requests]


def day_requests(
    d: DayScenario, obj: Objective, g: GridSpec = GridSpec(),
    cfg: SolverConfig = DEFAULT_SOLVER, tau_values=None,
) -> list[TableRequest]:
    """The :class:`TableRequest` of every period of the day, in period order."""
    first = TableRequest.of(d.periods[0], obj, g, cfg, tau_values)
    return [replace(first, period=s) for s in d.periods]   # the periods share one set of grids


def _winner(r: TableRequest, t: ValueTable, ti: int, ji: int) -> Equilibrium:
    """The winning equilibrium of r's table t at cell (ti, ji)."""
    pol = PolicyPoint(r.prices[t.p_idx[ti, ji]], r.wages[ji], r.taus[ti])
    z = t.z[ti, ji]
    return zero_equilibrium(pol) if np.isnan(z) else equilibrium_at(r.period, pol, z)


def _day_result(regime: Regime, obj: Objective, d: DayScenario, eqs) -> OptimResult:
    """The day schedule read off per-period winners sharing one commission."""
    schedule = DaySchedule(
        prices=tuple(eq.policy.price for eq in eqs),
        idle_wages=tuple(eq.policy.idle_wage for eq in eqs),
        commission=eqs[0].policy.commission,
    )
    value = float(sum(evaluate(obj, s, eq) for s, eq in zip(d.periods, eqs)))
    return OptimResult(regime, obj, schedule, tuple(eqs), value)


# ---------------------------------------------------------------------------
# Regimes
# ---------------------------------------------------------------------------


def optimize_single_period(
    s: PeriodScenario,
    obj: Objective,
    g: GridSpec = GridSpec(),
    cfg: SolverConfig = DEFAULT_SOLVER,
    threads: int = 1,
) -> OptimResult:
    """Maximize the objective over the full (p, J, tau) grid for one period."""
    p_vals, j_vals, tau_vals = g.p_values(), g.j_values(), g.tau_values()
    r = TableRequest.of(s, obj, g, cfg)
    (t,) = _tables_for([r], None, threads)
    ti, ji = divmod(
        _lex_first(-t.values, p_vals[t.p_idx], j_vals, tau_vals[:, None]), j_vals.size
    )
    eq = _winner(r, t, ti, ji)
    value = evaluate(obj, s, eq)
    return OptimResult(Regime.SINGLE_PERIOD, obj, eq.policy, (eq,), value)


def sweep_idle_wage(
    s: PeriodScenario,
    obj: Objective,
    J_values,
    g: GridSpec = GridSpec(),
    cfg: SolverConfig = DEFAULT_SOLVER,
    threads: int = 1,
    tables=None,
) -> list[SweepPoint]:
    """Best value per idle wage when price and commission are optimized.

    J_values must be finite and ascending.  Each point is flagged when
    tau = 1 attains the per-J maximum within a relative tolerance of 1e-9.
    tables maps :class:`TableRequest` to tables already computed, as
    returned by :func:`value_tables`; a request it lacks is computed here.
    """
    j_vals = _wage_list(J_values, "J_values")
    if np.any(j_vals < g.j_min) or np.any(j_vals > g.j_max):
        raise ValueError("J_values must lie within the grid's idle-wage range")
    p_vals, tau_vals = g.p_values(), g.tau_values()
    (t,) = _tables_for([TableRequest.of(s, obj, g, cfg, j_values=j_vals)], tables, threads)
    out = []
    for ji, J in enumerate(j_vals):
        V, price = t.values[:, ji], p_vals[t.p_idx[:, ji]]
        ti = _lex_first(-V, price, tau_vals)
        out.append(SweepPoint(
            float(J), float(V[ti]), float(tau_vals[ti]), float(price[ti]), _tau1_ties(V, V[ti])
        ))
    return out


def sweep_day_idle_wage(
    d: DayScenario,
    obj: Objective,
    g: GridSpec = GridSpec(),
    cfg: SolverConfig = DEFAULT_SOLVER,
    threads: int = 1,
    tables=None,
) -> list[DaySweepPoint]:
    """Best day total per shared idle wage on g's wage grid.

    The commission is shared by the day and every period's price is free;
    ties go to the smallest commission.  Each point is flagged when tau = 1
    attains the per-J maximum within the tolerance of
    :func:`sweep_idle_wage`, which also describes tables.
    """
    tau_vals = g.tau_values()
    day = _tables_for(day_requests(d, obj, g, cfg), tables, threads)
    total = np.sum([t.values for t in day], axis=0)
    out = []
    for ji, J in enumerate(g.j_values()):
        V = total[:, ji]
        ti = _lex_first(-V, tau_vals)
        out.append(DaySweepPoint(float(J), float(V[ti]), float(tau_vals[ti]), _tau1_ties(V, V[ti])))
    return out


def optimize_day_flexible(
    d: DayScenario,
    obj: Objective,
    g: GridSpec = GridSpec(),
    cfg: SolverConfig = DEFAULT_SOLVER,
    threads: int = 1,
    tables=None,
) -> OptimResult:
    """Fully flexible per-period idle wage; commission pinned at 1.

    With a per-period J the day decouples and paying drivers only through
    the idle wage is optimal, so each period is optimized independently
    over (p, J) at tau = 1.  tables as in :func:`sweep_idle_wage`.
    """
    p_vals, j_vals = g.p_values(), g.j_values()
    requests = day_requests(d, obj, g, cfg, tau_values=[1.0])
    eqs = [
        _winner(r, t, 0, _lex_first(-t.values[0], p_vals[t.p_idx[0]], j_vals))
        for r, t in zip(requests, _tables_for(requests, tables, threads))
    ]
    return _day_result(Regime.FLEXIBLE_J, obj, d, eqs)


def value_vs_tau(
    d: DayScenario,
    obj: Objective,
    g: GridSpec = GridSpec(),
    cfg: SolverConfig = DEFAULT_SOLVER,
    threads: int = 1,
    tables=None,
) -> list[tuple[float, float]]:
    """Total day value per commission, optimizing (p, J) per period.

    tables as in :func:`sweep_idle_wage`.
    """
    day = _tables_for(day_requests(d, obj, g, cfg), tables, threads)
    total = np.sum([t.values.max(axis=1) for t in day], axis=0)
    return [(float(t), float(v)) for t, v in zip(g.tau_values(), total)]


def optimize_day_fixed(
    d: DayScenario,
    obj: Objective,
    g: GridSpec = GridSpec(),
    cfg: SolverConfig = DEFAULT_SOLVER,
    threads: int = 1,
    tables=None,
) -> OptimResult:
    """One (J, tau) shared by the whole day, per-period prices free.

    tables as in :func:`sweep_idle_wage`.
    """
    j_vals, tau_vals = g.j_values(), g.tau_values()
    requests = day_requests(d, obj, g, cfg)
    day = _tables_for(requests, tables, threads)
    total = np.sum([t.values for t in day], axis=0)
    ti, ji = divmod(_lex_first(-total, j_vals, tau_vals[:, None]), j_vals.size)
    eqs = [_winner(r, t, ti, ji) for r, t in zip(requests, day)]
    return _day_result(Regime.FIXED_J_TAU, obj, d, eqs)


# ---------------------------------------------------------------------------
# Cyclic wage blocks and the minimum-wage regime
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None, typed=True)   # typed: True and 2.0 are not 1 and 2
def _block_pairs(b1: int, b2: int) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """The sorted start-hour pairs (h1, h2) whose cyclic blocks do not
    overlap, and the period indices of each pair's blocks, (n, b1) and (n, b2).

    ValueError naming b1 or b2 unless it is an integer >= 1 (a bool is not).
    """
    for name, b in (("b1", b1), ("b2", b2)):
        if isinstance(b, bool) or not isinstance(b, (int, np.integer)) or b < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {b!r}")
    hours = np.arange(24)
    # c[h, p]: the block starting at 0-based hour h holds period p
    c1, c2 = ((hours - hours[:, None]) % 24 < b for b in (b1, b2))
    h1, h2 = np.nonzero(~(c1[:, None] & c2[None]).any(axis=2))
    return (list(zip((h1 + 1).tolist(), (h2 + 1).tolist())),
            (h1[:, None] + np.arange(b1)) % 24, (h2[:, None] + np.arange(b2)) % 24)


def admissible_blocks(b1: int, b2: int) -> set[tuple[int, int]]:
    """Start-hour pairs (h1, h2) whose cyclic blocks do not overlap."""
    return set(_block_pairs(b1, b2)[0])


def block_wage_max(J, b1: int = 4, b2: int = 4) -> tuple[float, tuple[int, int]]:
    """Maximum two-block idle-wage sum over admissible start-hour pairs.

    Ties break on the lexicographically smallest (h1, h2).  ValueError
    naming J unless it holds 24 finite wages >= 0.
    """
    J = np.asarray(J, dtype=float)
    if J.shape != (24,):
        raise ValueError("block_wage_max needs a 24-hour wage vector")
    if not np.all(np.isfinite(J)):
        raise ValueError("J must be finite")
    if np.any(J < 0):
        raise ValueError("idle wages must be >= 0")
    pairs, i1, i2 = _block_pairs(b1, b2)
    if not pairs:
        raise ValueError(f"no admissible block pair for lengths ({b1}, {b2})")
    totals = J[i1].sum(axis=1) + J[i2].sum(axis=1)
    i = _lex_first(-totals)   # the pairs are sorted, so ties go to the smallest (h1, h2)
    return totals[i], pairs[i]


def optimize_min_wage(
    d: DayScenario,
    obj: Objective,
    g: GridSpec = GridSpec(),
    c: BlockConstraint = BlockConstraint(),
    cfg: SolverConfig = DEFAULT_SOLVER,
    threads: int = 1,
    tables=None,
) -> OptimResult:
    """Flexible per-hour wages subject to a two-block minimum-wage floor.

    Heuristic: solve every period independently (tau = 1); locate the
    admissible block pair maximizing the unconstrained wage sum; if that
    sum falls short of j_min, scale the block wages uniformly up to the
    floor and re-optimize prices in the affected periods, whose tables come
    from one :func:`value_tables` call.  tables serves the flexible solve,
    as in :func:`optimize_day_flexible`.

    Raises :class:`InfeasibleError` when the constrained day is worth less
    than shutting down.
    """
    if len(d.periods) != 24:
        raise ValueError("the block-constrained regime needs a 24-period day")
    flex = optimize_day_flexible(d, obj, g, cfg, threads, tables)
    eqs, J0 = list(flex.equilibria), np.asarray(flex.best_schedule.idle_wages)
    J = J0.copy()
    m0, pair = block_wage_max(J0, c.b1, c.b2)
    if m0 < c.j_min:   # scale the best pair's block wages up to the floor and re-price
        pairs, i1, i2 = _block_pairs(c.b1, c.b2)
        k = pairs.index(pair)
        hours = np.concatenate((i1[k], i2[k]))
        base = J0[hours].sum()
        if base > 0:
            scale = c.j_min / base
            J[hours] = J0[hours] * scale
            while J[hours].sum() < c.j_min:
                scale = np.nextafter(scale, np.inf)
                J[hours] = J0[hours] * scale
        else:
            J[hours] = c.j_min / len(hours)

        requests = [
            TableRequest.of(d.periods[h], obj, g, cfg, tau_values=[1.0], j_values=[J[h]])
            for h in hours
        ]
        try:
            repriced = _tables_for(requests, None, threads)
        except BracketingError as exc:
            # A scaled wage floods the market past the scan window's
            # million-drivers-at-instant-pickup end: certainly worth less than
            # shutting down.
            raise InfeasibleError(
                f"optimize_min_wage: scaled block wage up to {J[hours].max():.3g} pushes "
                "the equilibrium outside the economic range; constraint infeasible"
            ) from exc
        for h, r, t in zip(hours, requests, repriced):
            eqs[h] = _winner(r, t, 0, 0)

    res = _day_result(Regime.MIN_WAGE_BLOCKS, obj, d, eqs)
    if res.value < 0:
        raise InfeasibleError(
            "optimize_min_wage: best constrained schedule is worth less than shutdown"
        )
    certified, _ = block_wage_max(J, c.b1, c.b2)
    assert certified >= c.j_min
    return res
