"""Enumeration of market equilibria for a fixed platform policy.

For a policy (price p, idle wage J, commission tau) an equilibrium is a
tuple (e, I, L, Q) that simultaneously satisfies

    Q = demand(p, T(I))            trips match demand
    L = I + (t + T(I)) * Q         labour balance (idle + busy drivers)
    e = (1 - tau) * p * Q / L      average trip earnings (0 when L = 0)
    L = supply(e, J)               drivers' participation

Parameterizing candidate states by the pickup time z > 0 turns the system
into a one-dimensional root problem: the labour-balance residual
``supply(e_z, J) - L1(z)`` is continuous, negative as z -> 0 and positive
as z -> inf whenever J > 0, so every equilibrium is a sign change.  The
solver scans a geometric z-grid for sign changes and refines each bracket
by bisection.

The solver is vectorized over a whole price grid, idle-wage grid and list
of commissions at once, as the grid-search optimizer uses it; a
single-policy call is its one-price, one-wage, one-commission case, so it
agrees bitwise with the corresponding optimizer cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    PeriodScenario,
    _require_finite,
    _require_int,
    demand,
    idle_from_time,
    supply,
)

__all__ = [
    "PolicyPoint",
    "Equilibrium",
    "SolverConfig",
    "DEFAULT_SOLVER",
    "BracketingError",
    "residual",
    "find_equilibria",
    "zero_equilibrium",
    "equilibrium_at",
]


@dataclass(frozen=True)
class PolicyPoint:
    """One platform decision: trip price ($), idle wage ($/h), commission in [0, 1]."""

    price: float
    idle_wage: float
    commission: float

    def __post_init__(self):
        _require_finite(self, "price", "idle_wage", "commission")
        if self.price < 0:
            raise ValueError("price must be >= 0")
        if self.idle_wage < 0:
            raise ValueError("idle_wage must be >= 0")
        if not 0 <= self.commission <= 1:
            raise ValueError("commission must be in [0, 1]")


@dataclass(frozen=True)
class Equilibrium:
    """A feasible (e, I, L, Q) tuple plus the policy that induced it.

    earnings   : average trip earnings e, $/hour
    idle       : idle drivers I
    labour     : total connected drivers L
    throughput : served trips per hour Q
    pickup     : pickup time T in hours (inf for the shutdown equilibrium)
    """

    earnings: float
    idle: float
    labour: float
    throughput: float
    pickup: float
    policy: PolicyPoint


@dataclass(frozen=True)
class SolverConfig:
    """Scan window and tolerances for the bracketing solver.

    z_min, z_max : pickup-time scan window in hours
    scan_points  : size of the geometric scan grid
    bisect_tol   : bracket width at which bisection stops, hours
    tol_eq       : feasibility tolerance on the residuals, drivers
    """

    z_min: float = 1e-4
    z_max: float = 50.0
    scan_points: int = 4096
    bisect_tol: float = 1e-10
    tol_eq: float = 1e-8

    def __post_init__(self):
        _require_finite(self, "z_min", "z_max", "scan_points", "bisect_tol", "tol_eq")
        _require_int(self, "scan_points")
        if not 0 < self.z_min < self.z_max:
            raise ValueError("need 0 < z_min < z_max")
        if self.scan_points < 2:
            raise ValueError("scan_points must be >= 2")
        if self.bisect_tol <= 0 or self.tol_eq <= 0:
            raise ValueError("tolerances must be > 0")

    def z_grid(self) -> np.ndarray:
        return np.geomspace(self.z_min, self.z_max, self.scan_points)


DEFAULT_SOLVER = SolverConfig()


class BracketingError(RuntimeError):
    """No sign change found although J > 0 guarantees an equilibrium exists."""


def residual(s: PeriodScenario, pol: PolicyPoint, z):
    """Labour-balance residual supply(e_z, J) - L1(z) at pickup time z > 0.

    Accepts a scalar or array of z values; positive residual means more
    drivers are willing to work than the state z requires.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise ValueError("pickup time z must be > 0")
    _, _, _, L, e = equilibrium_components(s, pol.commission, pol.price, z)
    r = supply(s.supply, e, pol.idle_wage) - L
    return float(r) if np.ndim(r) == 0 else r


# ---------------------------------------------------------------------------
# Vectorized kernel
# ---------------------------------------------------------------------------
#
# Instead of the raw residual, the scan works with the sign-equivalent
# "wage margin"
#
#     W(p, z) = c * (L1/A)**(1/eps) - beta * e_z,    c = 1 + 1/eps
#
# which satisfies  residual > 0  <=>  J > W.  W is independent of J, so one
# (price x z) table of W serves the whole (ascending) idle-wage grid.  The
# count table k = searchsorted(j_values, W) holds how many wages lie below
# each margin; J_i lies in the W-range [min, max) of two adjacent z points,
# so the residual changes sign between them, exactly when
# min(k) <= i < max(k).  Refinement takes coef = beta * (1 - tau) per
# bracket, elementwise, so a period's earnings weights bisect together in
# chunks of _MAX_BATCH brackets or more (a default-grid slice fills one
# alone).  The bound is per stream of weights, whatever the thread count.

_MAX_BISECT_ITER = 160
_MAX_BATCH = 2**14

# Budget on the cells of any table the solver or optimizer allocates:
# price x scan grid, price x wage grid, commission x wage grid.  The
# default grids use 501 x 4096 = 2,052,096 cells, under 1/16 of it.
_MAX_TABLE_CELLS = 2**25


# The model formulas again, beside their reference (equilibrium_components):
# the scan table needs demand as a separable exp-product over (price x z).
def _kernel(s: PeriodScenario, p, z, ep=None):
    """(L1, G, H) at broadcast (p, z): labour L1(z), untaxed earnings base
    p*Q/L1, and supply margin c*(L1/A)**(1/eps); ep = exp(beta_p*p) if held."""
    d, pk, sp = s.demand, s.pickup, s.supply
    iz = np.power(z / pk.k_T, 1.0 / pk.alpha_T)
    Q = (np.exp(d.beta_p * p) if ep is None else ep) * np.exp(d.kappa + d.beta_T * z)
    np.divide(Q, 1.0 + Q, out=Q)   # in place: a table build holds fewer temporaries
    np.multiply(Q, d.lambda_max, out=Q)
    L1 = iz + (s.trip_time + z) * Q
    del iz   # names are dropped once used, so a pass holds few temporaries
    G = p * Q / L1
    del Q
    H = L1 / sp.pool_size   # ufunc calls below: in-place operators cost more on tiny arrays
    np.power(H, 1.0 / sp.elasticity, out=H)
    np.multiply(H, 1.0 + 1.0 / sp.elasticity, out=H)
    return L1, G, H


@dataclass
class PeriodTables:
    """Scan tables for one period over a fixed price grid (read-only)."""

    scenario: PeriodScenario
    cfg: SolverConfig
    p: np.ndarray        # (n_p,) price grid
    z: np.ndarray        # (n_z,) geometric pickup-time grid
    G: np.ndarray        # (n_p, n_z) untaxed earnings base p*Q/L1
    H: np.ndarray        # (n_p, n_z) supply margin c*(L1/A)**(1/eps)

    @staticmethod
    def build(s: PeriodScenario, p: np.ndarray, cfg: SolverConfig) -> "PeriodTables":
        p = np.asarray(p, dtype=float)
        if p.size * cfg.scan_points > _MAX_TABLE_CELLS:
            raise ValueError(
                f"scan_points {cfg.scan_points} times a {p.size}-point price grid is "
                f"{p.size * cfg.scan_points} table cells, over the budget of {_MAX_TABLE_CELLS}"
            )
        z = cfg.z_grid()
        _, G, H = _kernel(s, p[:, None], z[None, :])
        return PeriodTables(s, cfg, p, z, G, H)


def _margin(s: PeriodScenario, coef, p, z, ep=None):
    """(W, L1, coef*G) at (p, z): the wage margin W = H - coef*G for
    earnings weight coef, and the pieces :func:`_residual` reads.

    coef is risk_beta * (1 - tau), shared or per point; the kernel is the
    one PeriodTables.build uses, so scan and refinement agree elementwise.
    """
    L1, G, H = _kernel(s, p, z, ep)
    cG = coef * G
    del G   # as in _kernel; out= aliasing an input costs more on tiny arrays
    return H - cG, L1, cG


def _residual(s: PeriodScenario, J, L1, cG):
    """Labour-balance residual supply(e, J) - L1 from :func:`_margin`'s L1 and coef*G."""
    sp = s.supply
    x = np.power((cG + J) / (1.0 + 1.0 / sp.elasticity), sp.elasticity)
    return sp.pool_size * x - L1


@dataclass
class RootSet:
    """All bracketed equilibria of a chunk of (weight x price grid x wage grid) slices.

    Roots come sorted by (t_idx, j_idx, p_idx, z), so each slice's and each
    (slice, wage) cell's roots are one run.  A root ends one bracket; roots are not merged.
    """

    t_idx: np.ndarray    # (m,) index into the earnings-weight list
    p_idx: np.ndarray    # (m,) index into the price grid
    j_idx: np.ndarray    # (m,) index into the wage grid
    z: np.ndarray        # (m,) refined pickup times


def _brackets(W: np.ndarray, j_values: np.ndarray):
    """(p_idx, cell_idx, j_idx, s_lo) of every (scan cell, wage) bracket.

    A cell (p, z_c..z_c+1) brackets wage J_i when i lies between the counts
    k of wages below the margin at its two ends; W > J_i at the low end
    exactly when the count falls across the cell.  Brackets come
    wage-major, in (j, p, z cell) order, from one stable sort by wage.  A
    NaN margin (exp overflow) counts above every wage; a root from its
    brackets is still emitted only if it passes the residual filter.  The
    count steps come from one compare over the flattened table; a step
    across a row boundary is no cell and is dropped.
    """
    n_z = W.shape[1]
    k = np.searchsorted(j_values, W).ravel()
    flat = np.flatnonzero(k[:-1] != k[1:])
    flat = flat[flat % n_z != n_z - 1]
    rows, cells = np.divmod(flat, n_z)
    k_lo, k_hi = k[flat], k[flat + 1]
    ia = np.minimum(k_lo, k_hi)
    counts = np.abs(k_hi - k_lo)

    # One bracket per (cell, wage) pair; owner maps each to its cell.
    owner = np.repeat(np.arange(counts.size), counts)
    j_idx = ia[owner] + np.arange(owner.size) - np.cumsum(counts)[owner] + counts[owner]
    order = np.argsort(j_idx, kind="stable")
    owner, j_idx = owner[order], j_idx[order]
    return rows[owner], cells[owner], j_idx, (k_lo > k_hi)[owner]


def solve_slices(tables: PeriodTables, j_values: np.ndarray, coefs):
    """Locate every labour-balance root for each earnings weight in coefs.

    A weight is risk_beta * (1 - tau); the roots depend on the commission
    and the risk weight only through it.  Yields ``(rows, roots)`` per
    chunk: the range of consecutive indices into coefs and their roots.  A
    scan cell brackets exactly the (ascending) wages its count steps over.
    A chunk closes at the first weight that brings it to ``_MAX_BATCH``
    brackets, or at the last weight; its brackets bisect together, each
    steered by the table's sign at its low end.  A bracket ends when it is
    narrower than ``bisect_tol`` with the residual at its midpoint within
    half of ``tol_eq``, or when float spacing is exhausted (the midpoint
    equals an end); that midpoint is emitted only if its residual is within
    ``tol_eq``.
    """
    j_values = np.asarray(j_values, dtype=float)
    W = np.empty_like(tables.H)   # the margin H - coef*G, one buffer for every weight
    chunk, start, size = [], 0, 0
    for t, coef in enumerate(coefs):
        np.multiply(tables.G, coef, out=W)
        np.subtract(tables.H, W, out=W)
        p_idx, cell_idx, j_idx, s_lo = _brackets(W, j_values)
        size += (n := p_idx.size)
        chunk.append((np.full(n, t), p_idx, cell_idx, j_idx, s_lo, np.full(n, coef, dtype=float)))
        if size >= _MAX_BATCH or t == len(coefs) - 1:
            cols = [c[0] if len(c) == 1 else np.concatenate(c) for c in zip(*chunk)]
            chunk.clear()
            yield range(start, t + 1), _refine(tables, j_values, cols)
            start, size = t + 1, 0


def _refine(tables: PeriodTables, j_values, cols: list) -> RootSet:
    """Bisect a chunk's brackets and keep the roots within tol_eq, in bracket order.

    cols holds the bracket columns (t_idx, p_idx, cell_idx, j_idx, s_lo,
    coef) and is emptied: only the live brackets' state stays held, since
    a chunk's arrays are its peak memory.  A pass evaluates the margin to
    steer; the residual runs only on a pass where some bracket can end
    (narrow, stalled or out of passes), so it changes no stop and no bit.
    Brackets come in (t, j, p, z cell) order and a root never leaves its
    scan cell, so the roots in bracket order are sorted by (t, j, p, z).
    """
    s, cfg = tables.scenario, tables.cfg
    t_idx, p_idx, cell_idx, j_idx, s_lo, coef = cols
    cols.clear()
    p_arr, J_arr, ep = tables.p[p_idx], j_values[j_idx], np.exp(s.demand.beta_p * tables.p)[p_idx]
    z_lo, z_hi = tables.z[cell_idx], tables.z[cell_idx + 1]
    del cell_idx

    # Bisect the live brackets; an accepted bracket leaves the live arrays and
    # writes its midpoint (finite, so NaN marks no root) into its z_root slot
    # when its residual is within tol_eq.  The pass budget guards against a
    # midpoint that cannot halve: its last pass accepts all.
    half_tol, passes_left = 0.5 * cfg.tol_eq, _MAX_BISECT_ITER
    ids = np.arange(t_idx.size)
    z_root = np.full(t_idx.size, np.nan)
    while ids.size:
        passes_left -= 1
        mid = 0.5 * (z_lo + z_hi)
        w_mid, L1, cG = _margin(s, coef, p_arr, mid, ep)
        toward_hi = (w_mid > J_arr) == s_lo
        del w_mid   # names are dropped once used, so a pass holds few temporaries
        narrow = (z_hi - z_lo) <= cfg.bisect_tol
        stalled = (mid == z_lo) | (mid == z_hi)   # float spacing exhausted
        can_end = not passes_left or narrow.any() or stalled.any()
        r_mid = _residual(s, J_arr, L1, cG) if can_end else None
        del L1, cG
        # Branch-free step: 0 < z_lo <= mid <= z_hi, so up = 1 moves z_lo
        # to mid and up = 0 moves z_hi to mid.
        up = toward_hi.astype(float)
        del toward_hi
        np.maximum(z_lo, mid * up, out=z_lo)
        np.minimum(z_hi, np.maximum(mid, z_hi * up), out=z_hi)
        del up
        if can_end:
            r_mid = np.abs(r_mid)
            done = (narrow & (r_mid <= half_tol)) | stalled | (not passes_left)
            if done.any():
                ok = done & (r_mid <= cfg.tol_eq)
                z_root[ids[ok]] = mid[ok]
                go = ~done   # compact one array at a time: each old one is freed at once
                ids = ids[go]
                p_arr = p_arr[go]
                ep = ep[go]
                J_arr = J_arr[go]
                s_lo = s_lo[go]
                coef = coef[go]
                z_lo = z_lo[go]
                z_hi = z_hi[go]
        del mid, narrow, stalled, r_mid   # not held into the next pass

    keep = ~np.isnan(z_root)
    return RootSet(t_idx[keep], p_idx[keep], j_idx[keep], z_root[keep])


def equilibrium_components(s: PeriodScenario, tau: float, p, z):
    """(T, I, Q, L, e) arrays for interior equilibria at pickup times z."""
    T = np.asarray(z, dtype=float)
    I = idle_from_time(s.pickup, T)
    Q = demand(s.demand, p, T)
    L = I + (s.trip_time + T) * Q
    e = (1.0 - tau) * p * Q / L
    return T, I, Q, L, e


def zero_equilibrium(pol: PolicyPoint) -> Equilibrium:
    """The shutdown equilibrium (0, 0, 0, 0); feasible exactly when J = 0."""
    return Equilibrium(0.0, 0.0, 0.0, 0.0, np.inf, pol)


def equilibrium_at(s: PeriodScenario, pol: PolicyPoint, z: float) -> Equilibrium:
    """The interior equilibrium whose pickup time is the balance root z."""
    T, I, Q, L, e = equilibrium_components(s, pol.commission, pol.price, float(z))
    return Equilibrium(float(e), float(I), float(L), float(Q), float(T), pol)


def find_equilibria(
    s: PeriodScenario, pol: PolicyPoint, cfg: SolverConfig = DEFAULT_SOLVER
) -> list[Equilibrium]:
    """All equilibria induced by a policy, sorted by ascending throughput.

    When J = 0 the shutdown equilibrium is always included.  When J > 0
    an equilibrium is guaranteed to exist; if the scan window contains no
    sign change a :class:`BracketingError` is raised so a too-narrow
    window never passes silently.
    """
    tables = PeriodTables.build(s, np.array([pol.price]), cfg)
    coef = s.supply.risk_beta * (1.0 - pol.commission)
    _, roots = next(solve_slices(tables, np.array([pol.idle_wage]), [coef]))
    eqs = [equilibrium_at(s, pol, z) for z in roots.z]
    if pol.idle_wage == 0:
        eqs.append(zero_equilibrium(pol))
    elif not eqs:
        raise BracketingError(
            "find_equilibria: no labour-balance sign change in "
            f"[{cfg.z_min}, {cfg.z_max}] although J = {pol.idle_wage} > 0 "
            "guarantees an equilibrium; widen the scan window"
        )
    eqs.sort(key=lambda eq: eq.throughput)
    return eqs
