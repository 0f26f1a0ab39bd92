"""Independent brute-force oracles used to validate the production solvers.

These deliberately avoid the package's bracketing kernel: the dense scan
works on the public residual formula with scipy's Brent refinement, and
the integral oracles use adaptive quadrature.  The plain bisection is the
reference for the bits of the batched refinement: it shares only the
scan kernel with it.  The per-weight completeness check and the per-tile
block enclosures are the references for the solver's two-weight check
and its (price x block end) enclosures: they share the model formulas.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from idlewage import (
    DemandParams,
    PeriodScenario,
    PickupParams,
    PolicyPoint,
    SupplyParams,
    demand,
    equilibrium,
    idle_from_time,
    residual,
    supply,
)
from idlewage.equilibrium import (
    _BOUND_PAD,
    BracketingError,
    _block_points,
    _bounds,
    _cell_ends,
    _supply_margin,
)


def dense_scan_roots(
    s: PeriodScenario,
    pol: PolicyPoint,
    n: int = 10**6,
    z_min: float = 1e-4,
    z_max: float = 50.0,
) -> list[float]:
    """Pickup-time roots of the balance residual from an n-point dense scan."""
    z = np.geomspace(z_min, z_max, n)
    r = residual(s, pol, z)
    sign = r > 0
    flips = np.nonzero(sign[1:] != sign[:-1])[0]
    roots = []
    f = lambda x: residual(s, pol, x)
    for k in flips:
        root = brentq(f, z[k], z[k + 1], xtol=1e-14, rtol=8.9e-16)
        # polish until the residual itself is small, not just the bracket
        lo, hi = z[k], z[k + 1]
        if abs(f(root)) > 1e-9:
            slo = f(lo) > 0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                if (f(mid) > 0) == slo:
                    lo = mid
                else:
                    hi = mid
                if abs(f(mid)) <= 1e-9:
                    root = mid
                    break
        roots.append(root)
    return roots


def reference_bisection(tables, j_values: np.ndarray, coef: float):
    """(p_idx, j_idx, z) of every root of one earnings weight, by plain bisection.

    Every bracket of the count table bisects on one set of live arrays:
    both ends move by np.where, the residual is evaluated on every pass,
    and the roots are sorted by (p, j, z) with a lexsort.  The stop rule is
    the solver's: width <= bisect_tol with |residual| <= tol_eq / 2, or a
    midpoint equal to an end, or the last of ``_MAX_BISECT_ITER`` passes;
    a stopped midpoint is a root when |residual| <= tol_eq.
    """
    s, cfg, sp = tables.scenario, tables.cfg, tables.scenario.supply
    W = tables.H - coef * tables.G
    k = np.searchsorted(j_values, W)
    rows, cells = np.nonzero(k[:, :-1] != k[:, 1:])
    brackets = [
        (r, c, j, lo > hi)
        for r, c, lo, hi in zip(rows, cells, k[rows, cells], k[rows, cells + 1])
        for j in range(min(lo, hi), max(lo, hi))
    ]
    p_idx, cell_idx, j_idx, s_lo = (np.array(col) for col in zip(*brackets))
    cell = p_idx * j_values.size + j_idx
    p_arr, J_arr = tables.p[p_idx], j_values[j_idx]
    ep = np.exp(s.demand.beta_p * tables.p)[p_idx]
    z_lo, z_hi = tables.z[cell_idx], tables.z[cell_idx + 1]
    c = 1.0 + 1.0 / sp.elasticity
    found_cell, found_z = [], []
    for it in range(equilibrium._MAX_BISECT_ITER):
        mid = 0.5 * (z_lo + z_hi)
        L1, G, H = equilibrium._kernel(s, p_arr, mid, ep)
        w_mid = H - coef * G
        r_mid = sp.pool_size * np.power((coef * G + J_arr) / c, sp.elasticity) - L1
        narrow = ((z_hi - z_lo) <= cfg.bisect_tol) & (np.abs(r_mid) <= 0.5 * cfg.tol_eq)
        done = narrow | (mid == z_lo) | (mid == z_hi)
        if it == equilibrium._MAX_BISECT_ITER - 1:
            done[:] = True
        toward_hi = (w_mid > J_arr) == s_lo
        z_lo = np.where(toward_hi, mid, z_lo)
        z_hi = np.where(toward_hi, z_hi, mid)
        ok = done & (np.abs(r_mid) <= cfg.tol_eq)
        found_cell.append(cell[ok])
        found_z.append(mid[ok])
        go = ~done
        cell, p_arr, ep, J_arr, s_lo, z_lo, z_hi = (
            a[go] for a in (cell, p_arr, ep, J_arr, s_lo, z_lo, z_hi)
        )
        if not cell.size:
            break
    cell, z = np.concatenate(found_cell), np.concatenate(found_z)
    order = np.lexsort((z, cell))
    p_idx, j_idx = np.divmod(cell[order], j_values.size)
    return p_idx, j_idx, z[order]


def complete_per_weight(tables, j_values: np.ndarray, coefs, G, H) -> None:
    """BracketingError unless every (weight, price) row brackets each J > 0,
    checked weight by weight: each weight's margin H - coef*G at the block
    ends (G, H: price x point), and each row that fails there on its full
    scan row at that weight.  A row passes when some margin is <= the
    least J > 0 and some is above the last wage or NaN."""
    pos = np.flatnonzero(j_values > 0.0)
    if not pos.size:
        return

    def ok(W):
        return (np.fmin.reduce(W, axis=-1) <= j_values[pos[0]]) & ~(W.max(axis=-1) <= j_values[-1])

    for coef in coefs:
        p = np.flatnonzero(~ok(H - coef * G))
        if p.size:
            G_row, H_row = tables.kernel(p[:, None], np.arange(tables.z.size))
            if not ok(H_row - coef * G_row).all():
                raise BracketingError("a row brackets no J > 0 at weight %r" % coef)


def blocks_by_tile(tables, tile: np.ndarray, welfare: bool) -> dict:
    """The fields of the enclosures of tiles (flat (price, block) indices,
    ascending), each tile's built on its own: its block's ends from
    _cell_ends at the tile's price, welfare's upper bound from _bounds,
    and G + H read from the kernel at its two block ends."""
    s = tables.scenario
    pts = _block_points(tables.z.size)
    p_idx, b = np.divmod(tile, pts.size - 1)
    p = tables.p[p_idx]
    ends = _cell_ends(s, tables.z[pts], p, b)
    welfare_hi = _bounds(s, p, ends, 0.0, 0.0, True)[1] if welfare else None
    _, _, Q_a, Q_b, L_min, L_max = ends
    G_hi, G_lo = p * Q_a / L_min, p * Q_b / L_max
    H_lo, H_hi = _supply_margin(s.supply, L_min), _supply_margin(s.supply, L_max)
    (G_a, H_a), (G_b, H_b) = tables.kernel(p_idx, pts[b]), tables.kernel(p_idx, pts[b + 1])
    bad = ~np.isfinite((G_a + H_a) + (G_b + H_b) + H_lo + H_hi + G_lo + G_hi)
    return dict(n_b=pts.size - 1, tile=tile, p=p, Q_a=Q_a, L_min=L_min, L_max=L_max,
                H_lo=H_lo, H_hi=H_hi, G_lo=G_lo, G_hi=G_hi, welfare_hi=welfare_hi, bad=bad,
                pad=_BOUND_PAD)


def dense_scan_equilibria(s: PeriodScenario, pol: PolicyPoint, n: int = 10**6):
    """(e, I, L, Q, T) tuples from the dense scan, sorted by throughput."""
    tuples = []
    if pol.idle_wage == 0:
        tuples.append((0.0, 0.0, 0.0, 0.0, np.inf))
    for z in dense_scan_roots(s, pol, n):
        I = idle_from_time(s.pickup, z)
        Q = demand(s.demand, pol.price, z)
        L = I + (s.trip_time + z) * Q
        e = (1.0 - pol.commission) * pol.price * Q / L
        tuples.append((e, I, L, Q, z))
    tuples.sort(key=lambda t: t[3])
    return tuples


def quad_surplus(d: DemandParams, p: float, T: float) -> float:
    """Rider surplus via adaptive quadrature of the demand tail."""
    val, _ = quad(lambda z: demand(d, z, T), p, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return val


def quad_social_cost(s: SupplyParams, L: float) -> float:
    """Social cost via quadrature of the algebraic inverse idle-only supply."""
    scale = 1.0 + 1.0 / s.elasticity
    inv = lambda z: scale * (z / s.pool_size) ** (1.0 / s.elasticity)
    val, _ = quad(inv, 0.0, L, epsabs=0.0, epsrel=1e-12, limit=200)
    return val


def quad_social_cost_inverted(s: SupplyParams, L: float) -> float:
    """Social cost with the supply curve inverted numerically point by point."""

    def inv(z):
        if z == 0:
            return 0.0
        hi = 1.0
        while supply(s, 0.0, hi) < z:
            hi *= 2.0
        return brentq(lambda J: supply(s, 0.0, J) - z, 0.0, hi, xtol=1e-14)

    val, _ = quad(inv, 0.0, L, epsabs=0.0, epsrel=1e-10, limit=200)
    return val


def random_instance(
    rng: np.random.Generator, j_zero_prob: float = 0.25
) -> tuple[PeriodScenario, PolicyPoint]:
    """One randomized scenario/policy pair for oracle comparison runs.

    With J = 0 and tau < 1 the model owns an evanescent-tail equilibrium
    whose throughput is exponentially small, so quasi-uniqueness checks at
    a fixed Q tolerance should draw with ``j_zero_prob=0``.
    """
    s = PeriodScenario(
        demand=DemandParams(
            lambda_max=rng.uniform(3.0, 200.0),
            kappa=1.768,
            beta_p=-0.669,
            beta_T=-1.134,
        ),
        pickup=PickupParams(k_T=0.127, alpha_T=-0.515),
        supply=SupplyParams(
            pool_size=rng.uniform(3.0, 60.0),
            risk_beta=rng.uniform(0.2, 1.0),
            elasticity=rng.uniform(0.9, 1.8),
        ),
        trip_time=rng.uniform(0.15, 0.4),
    )
    J = 0.0 if rng.uniform() < j_zero_prob else rng.uniform(0.05, 2.8)
    tau = 1.0 if rng.uniform() < 0.2 else rng.uniform(0.0, 1.0)
    pol = PolicyPoint(price=rng.uniform(0.05, 5.0), idle_wage=J, commission=tau)
    return s, pol
