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
by bisection.  The optimizer's path refines only the brackets whose value
enclosure reaches the best of their (tau, J) cell; for a table read only
for its best cell it first bounds whole blocks of the grid, and scans
finely only the blocks whose value enclosure reaches a value the table
attains.

The solver is vectorized over a whole price grid, idle-wage grid and list
of commissions at once, as the grid-search optimizer uses it; a
single-policy call is its one-price, one-wage, one-commission case, so it
agrees bitwise with the corresponding optimizer cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import (
    PeriodScenario,
    _require_finite,
    _require_int,
    demand,
    idle_from_time,
    social_cost,
    supply,
    surplus,
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
        """The geometric pickup-time scan grid, computed once per config (read-only)."""
        return self._z

    @cached_property
    def _z(self) -> np.ndarray:
        z = np.geomspace(self.z_min, self.z_max, self.scan_points)
        z.flags.writeable = False
        return z


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
# min(k) <= i < max(k).  solve_slices runs in stages over bracket columns
# (t_idx, p_idx, cell_idx, j_idx, s_lo, coef): scan yields each weight's
# brackets, prune keeps those of a batch of weights that can win, and
# refine bisects those of a chunk together; coef = beta * (1 - tau)
# enters elementwise, so chunk boundaries change no bit.
#
# A table read only for its best cell is scanned by tiles: a tile is one
# price's block of _BLOCK scan cells at one weight.  A floor, a value the
# table attains, comes first; an enclosure of W on each block gives the
# wages a tile can bracket, and only the tiles whose value bound at those
# wages reaches the floor are scanned finely.  The group's setup bounds
# by branch and bound over two levels: a super tile is one price's run
# of _SUPER scan cells, and one pass per table bounds every super tile
# over all the table's rows (welfare's relaxed bound, profit's envelope
# along the line c = beta*(1 - tau)), padded to reach each tile's bound
# inside it.  The witness expands the super tiles best first; the tile
# enclosures are then built, with the same table bound, only inside the
# super tiles whose bound reaches a witness, and one exact pass per
# weight bounds only the tiles those keep.  The setup decides
# completeness from two weights at the super tiles' ends.  Such a table
# never builds the full (price x z) scan table: the kernel is evaluated
# at the super tiles' ends, once per group (setup_group), at the ends of
# the tiles it expands, and at the scanned tiles' points alone, once per
# distinct tile a stream scans (PeriodTables.kernel, _tile_kernel).

_MAX_BISECT_ITER = 160
_MAX_BATCH = 2**14
_BLOCK = 16
# Scan cells per super tile, a run of 16 blocks: the coarse level that a
# best table's setup bounds before it builds any tile's enclosure.
_SUPER = 16 * _BLOCK
# Tiles ranked by a best table's bound, and (row, tile) pairs refined
# among them, to find its witness value.
_WITNESS_TILES = 32
# Super tiles a witness expands first, those of the largest bounds, before
# every other one that can beat the tiles they hold.
_RANKED_SUPERS = 8

# Relative pad by which a bracket's value enclosure is widened on each
# side, times the size of the value's terms: it covers the last-bit
# wobble of pow, expit and logaddexp, under 1e-15 relative.
_BOUND_PAD = 1e-12

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
    return L1, G, _supply_margin(sp, L1)


def _supply_margin(sp, L):
    """c*(L/A)**(1/eps): the wage margin's supply term at labour L."""
    H = L / sp.pool_size   # ufunc calls below: in-place operators cost more on tiny arrays
    np.power(H, 1.0 / sp.elasticity, out=H)
    np.multiply(H, 1.0 + 1.0 / sp.elasticity, out=H)
    return H


@dataclass
class PeriodTables:
    """The scan grids of one period over a fixed price grid, and the scan
    table of G and H on them: in full from :meth:`build`, else gathered
    by :meth:`kernel` where it is read (read-only either way)."""

    scenario: PeriodScenario
    cfg: SolverConfig
    p: np.ndarray        # (n_p,) price grid
    z: np.ndarray        # (n_z,) geometric pickup-time grid
    G: np.ndarray | None = None   # (n_p, n_z) untaxed earnings base p*Q/L1, when built
    H: np.ndarray | None = None   # (n_p, n_z) supply margin c*(L1/A)**(1/eps), when built
    blocks: _Blocks | None = None   # the enclosures of the tiles setup_group expands

    @staticmethod
    def of(s: PeriodScenario, p: np.ndarray, cfg: SolverConfig) -> "PeriodTables":
        """The grids alone, for a reader that gathers what it reads."""
        p = np.asarray(p, dtype=float)
        if p.size * cfg.scan_points > _MAX_TABLE_CELLS:
            raise ValueError(
                f"scan_points {cfg.scan_points} times a {p.size}-point price grid is "
                f"{p.size * cfg.scan_points} table cells, over the budget of {_MAX_TABLE_CELLS}"
            )
        return PeriodTables(s, cfg, p, cfg.z_grid())

    @staticmethod
    def build(s: PeriodScenario, p: np.ndarray, cfg: SolverConfig) -> "PeriodTables":
        """The grids and the full (price x z) scan table."""
        t = PeriodTables.of(s, p, cfg)
        _, t.G, t.H = _kernel(s, t.p[:, None], t.z[None, :])
        return t

    def kernel(self, p_idx, z_idx):
        """(G, H) at the scan points (p[p_idx], z[z_idx]), indices broadcast:
        read from the full table when built, else evaluated there alone.
        The kernel is elementwise, so both give the table's bits."""
        if self.G is not None:
            return self.G[p_idx, z_idx], self.H[p_idx, z_idx]
        _, G, H = _kernel(self.scenario, self.p[p_idx], self.z[z_idx])
        return G, H

    def super_ends(self):
        """(G, H) at every price's super-tile ends, the points of
        :func:`_block_points` at width _SUPER."""
        return self.kernel(np.arange(self.p.size)[:, None], _block_points(self.z.size, _SUPER))


@dataclass
class _Blocks:
    """Weight-free pieces of the enclosures of some (price, z-block) tiles,
    each block width scan cells wide: tile = p_idx * n_b + block, the n_b
    blocks of a price ending at the scan points of :func:`_block_points`.
    The table bounds read pad: _BOUND_PAD on tiles, more on super tiles."""

    n_b: int
    tile: np.ndarray         # the tiles, flat and ascending; fields hold one entry per tile
    p: np.ndarray            # each tile's price
    Q_a: np.ndarray          # the largest throughput and the labour range of _cell_ends
    L_min: np.ndarray
    L_max: np.ndarray
    H_lo: np.ndarray         # supply margin at L_min and at L_max
    H_hi: np.ndarray
    G_lo: np.ndarray         # earnings base bounds pQ_b/L_max and pQ_a/L_min
    G_hi: np.ndarray
    welfare_hi: np.ndarray | None   # the block's welfare upper bound (J- and tau-free), if read
    bad: np.ndarray          # the block holds a non-finite G or H
    pad: float = _BOUND_PAD
    # per objective (welfare or not), a mask of the tiles whose table
    # bound reaches the witness of one of its tables (setup_group)
    candidates: dict = field(default_factory=dict)

    @staticmethod
    def of(tables: PeriodTables, width: int, tile: np.ndarray, sums: np.ndarray, welfare: bool,
           pad: float = _BOUND_PAD) -> "_Blocks":
        """The pieces of the blocks tile (flat, ascending) of width scan
        cells on tables' grids, welfare's bound only if welfare; sums:
        each tile's G + H at its two block ends (:func:`_end_sums`).

        Each piece is :func:`_cell_ends`' (and :func:`_bounds`') formula
        with the same operations on the same values, so the same bits
        for every set of tiles."""
        s, pts = tables.scenario, _block_points(tables.z.size, width)
        p_idx, b = np.divmod(tile, pts.size - 1)
        p = tables.p[p_idx]
        z_lo, _, Q_a, Q_b, L_min, L_max = _cell_ends(s, tables.z[pts], p, b)
        G_hi, G_lo = p * Q_a / L_min, p * Q_b / L_max
        del Q_b
        welfare_hi = _welfare_ub(s, p, z_lo, Q_a, L_min, L_max, pad) if welfare else None
        H_lo, H_hi = _supply_margin(s.supply, L_min), _supply_margin(s.supply, L_max)
        # G or H is non-finite inside a block only if it is at the block's
        # ends or a piece is: the kernel's exp(kappa + beta_T*z) and I(z)
        # fall with z, so an overflow inside shows at the first point and
        # an underflow to L1 = 0 at the last, and on the block G = pQ/L1
        # <= G_hi and H(L1) <= H_hi.  A sum is finite only if each term is
        # (an overflowing sum of finite terms marks a block too, which only
        # scans more).
        bad = ~np.isfinite(sums + H_lo + H_hi + G_lo + G_hi)
        return _Blocks(pts.size - 1, tile, p, Q_a, L_min, L_max, H_lo, H_hi, G_lo, G_hi,
                       welfare_hi, bad, pad)


def _end_sums(G, H) -> np.ndarray:
    """Each block's G + H at its two ends, flat, from G and H at the
    consecutive ends of blocks along the last axis."""
    G = G + H
    return (G[..., :-1] + G[..., 1:]).ravel()


def _supers(tables: PeriodTables, G, H, welfare: bool) -> _Blocks:
    """The enclosures of every super tile, from G and H at every price's
    super-tile ends.  Padded twice over, a super tile's table bound
    covers the last-bit wobble of its own and of each of its tiles'
    bounds, and so reaches each of them: its pieces enclose theirs."""
    sums = _end_sums(G, H)
    return _Blocks.of(tables, _SUPER, np.arange(sums.size), sums, welfare, 2.0 * _BOUND_PAD)


def _expand(tables: PeriodTables, supers: np.ndarray, welfare: bool) -> _Blocks:
    """The enclosures of the tiles inside the super tiles supers (flat
    (price, super tile) indices, ascending), from the kernel gathered at
    those tiles' ends alone."""
    pts, per = _block_points(tables.z.size), _SUPER // _BLOCK
    n_b = pts.size - 1
    p_idx, first = np.divmod(supers, _n_blocks(tables.z.size, _SUPER))
    b = (first * per)[:, None] + np.arange(per)
    tile = (p_idx[:, None] * n_b + b)[b < n_b]   # a short last super tile holds fewer
    p_idx, b = np.divmod(tile, n_b)
    G, H = tables.kernel(p_idx[:, None], np.stack((pts[b], pts[b + 1]), axis=1))
    return _Blocks.of(tables, _BLOCK, tile, _end_sums(G, H), welfare)


def _welfare_ub(s: PeriodScenario, p, z_lo, Q_a, L_min, L_max, pad_by: float):
    """Welfare's upper bound S(p, z_lo) + p*Q_a - C(L_min) on blocks with
    these ends (:func:`_cell_ends`), computed as :func:`_bounds` computes
    its hi and padded by pad_by times the size of its terms."""
    hi = surplus(s.demand, p, z_lo)
    hi += p * Q_a
    pad = social_cost(s.supply, L_max)
    pad += hi
    hi -= social_cost(s.supply, L_min)
    pad *= pad_by
    hi += pad
    return hi


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


def _runs(lo: np.ndarray, counts: np.ndarray):
    """(owner, idx): the indices lo[i], ..., lo[i] + counts[i] - 1 of each
    run i in turn, and the run each one belongs to."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, lo[owner] + np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]


def _brackets(W: np.ndarray, j_values: np.ndarray, weight=None):
    """(row, cell_idx, j_idx, s_lo) of every (scan cell, wage) bracket of W's rows.

    A cell (row, z_c..z_c+1) brackets wage J_i when i lies between the
    counts k of wages below the margin at its two ends; W > J_i at the low
    end exactly when the count falls across the cell.  Brackets come
    wage-major, in (j, row, z cell) order, from one stable sort by wage;
    given weight, each row's index into the earnings weights, they come in
    (weight, j, row, z cell) order.  A NaN margin (exp overflow) counts
    above every wage; a root from its brackets is still emitted only if it
    passes the residual filter.  The count steps come from one compare over
    the flattened table; a step across a row boundary is no cell and is
    dropped.
    """
    n_z = W.shape[1]
    k = np.searchsorted(j_values, W).ravel()
    flat = np.flatnonzero(k[:-1] != k[1:])
    flat = flat[flat % n_z != n_z - 1]
    rows, cells = np.divmod(flat, n_z)
    k_lo, k_hi = k[flat], k[flat + 1]

    # One bracket per (cell, wage) pair; owner maps each to its cell.
    owner, j_idx = _runs(np.minimum(k_lo, k_hi), np.abs(k_hi - k_lo))
    key = j_idx if weight is None else weight[rows[owner]] * j_values.size + j_idx
    order = np.argsort(key, kind="stable")
    owner, j_idx = owner[order], j_idx[order]
    return rows[owner], cells[owner], j_idx, (k_lo > k_hi)[owner]


def _stack(parts: list) -> list:
    """The columns of parts (tuples of parallel arrays), each concatenated;
    parts is emptied, so the pieces are not held beside the result."""
    cols = [c[0] if len(c) == 1 else np.concatenate(c) for c in zip(*parts)]
    parts.clear()
    return cols


def setup_group(tables: PeriodTables, j_values, coefs, reads, best) -> np.ndarray:
    """Each floor over the value-table rows of reads = (k, tau, welfare),
    as in :func:`solve_slices`, from one setup per group of weights,
    before they split, so the tiles scanned do not depend on the split.

    BracketingError unless every (weight, price) row of the scan table
    brackets each J > 0 at every weight of coefs (:func:`_complete`,
    decided at the least and the largest weight).  best lists each
    table's rows when the group's tables are read only for their best
    cell, else is empty and every floor is -inf.  With best, a row's
    floor is the least witness (:func:`_witness`) of the tables that read
    it: a value the table provably attains, so no root below it can win.
    The check and the super tiles' enclosures read one evaluation of the
    kernel at the super tiles' ends.  Each table's bound over every super
    tile ranks the tiles for its witness (:func:`_ranked`); tables.blocks
    is then set to the enclosures of the tiles inside the super tiles
    whose bound reaches a witness, and B.candidates to the tiles among
    them whose table bound does: the tiles the bound over every tile
    keeps, since a super tile's bound reaches each of its tiles'.
    """
    G, H = tables.super_ends()
    _complete(tables, j_values, coefs, G, H)
    welfare = reads[2]
    floor = np.full(welfare.size, np.inf if best else -np.inf)
    if best:
        S = _supers(tables, G, H, welfare.any())
        del G, H
        base = 0.0 if (j_values <= 0.0).any() else -np.inf   # the shutdown's value
        found = []   # per table: its rows, its witness, the super tiles whose bound reaches it
        for rows in best:
            rows = np.unique(rows)
            bound = _table_bound(S, j_values, coefs, reads, rows)
            value = _witness(tables, j_values, coefs, reads, rows, base,
                             *_ranked(tables, j_values, coefs, reads, rows, bound))
            floor[rows] = np.minimum(floor[rows], value)
            found.append((rows, value, ~(bound < value)))
        reach = np.logical_or.reduce([f[2] for f in found])
        B = tables.blocks = _expand(tables, np.flatnonzero(reach), welfare.any())
        for rows, value, _ in found:
            kept = ~(_table_bound(B, j_values, coefs, reads, rows) < value)
            w = bool(welfare[rows[0]])
            B.candidates[w] = B.candidates.get(w, False) | kept
    return floor


def solve_slices(tables: PeriodTables, j_values: np.ndarray, coefs, reads=None):
    """Locate the labour-balance roots for each earnings weight in coefs.

    A weight is risk_beta * (1 - tau); the roots depend on the commission
    and the risk weight only through it.  Yields ``(rows, roots)`` per
    chunk: the range of consecutive indices into coefs and their roots.  A
    scan cell brackets exactly the (ascending) wages its count steps over.

    With reads None every bracket is refined, so every root is found.
    Otherwise reads holds four arrays over the value-table rows that read
    the roots: k, each row's index into coefs; tau, its commission;
    welfare, whether it scores welfare (else profit); floor, each row's
    floor from :func:`setup_group`, -inf for a row read for every cell.
    Then, on tables that :func:`setup_group` has checked, only the
    brackets whose root may win or tie a row's (tau, J) cell and reach
    its floor are refined (:func:`_prune`), and on tables it has bounded
    by tiles only the tiles that can reach a row's floor are scanned
    (:func:`_needed`).  Should a bracket that set a cell's threshold give
    no root, its weight is solved again with every bracket refined.

    The stages scan per weight, prune per batch of weights and refine per
    chunk.  A chunk closes at the first weight that brings its refined
    brackets to ``_MAX_BATCH``, or at the last weight; a batch at the
    first that brings the open chunk's kept brackets and its own found
    ones there.  A chunk's brackets bisect together, each steered by the
    table's sign at its low end.  A bracket ends when it is narrower than
    ``bisect_tol`` with the residual at its midpoint within half of
    ``tol_eq``, or when float spacing is exhausted (the midpoint equals an
    end); that midpoint is emitted only if its residual is within ``tol_eq``.
    """
    j_values, coefs = np.asarray(j_values, dtype=float), np.asarray(coefs, dtype=float)
    if tables.blocks is None:
        scan = _scan(tables, j_values, coefs)
    else:
        scan = _tile_scan(tables, j_values, coefs, reads)

    def found(size):   # the next weight's brackets
        return next(scan)

    def kept(size):   # the next batch's brackets that can win, and the sets column
        rows, cols = _gather(found, coefs.size, size)
        keep, sets = _prune(tables, j_values, cols, rows, reads)
        return rows, [c[keep] for c in cols] + [sets[keep]]

    rows = range(0)
    while rows.stop < coefs.size:
        rows, cols = _gather(found if reads is None else kept, coefs.size)
        sets = cols.pop() if reads is not None else None
        t_idx, p_idx, j_idx = cols[0], cols[1], cols[3]
        z = _refine(tables, j_values, cols)
        ok = ~np.isnan(z)
        roots = RootSet(t_idx[ok], p_idx[ok], j_idx[ok], z[ok])
        if sets is not None and (lost := np.unique(t_idx[sets & ~ok])).size:
            roots = _solve_in_full(tables, j_values, coefs, roots, lost)
        del t_idx, p_idx, j_idx, z, ok, sets
        yield rows, roots


def _gather(take, n: int, size: int = 0):
    """(rows, cols): the items (rows, cols) that take(size) gives in turn,
    size counting the brackets gathered, stacked through the first that
    brings size to _MAX_BATCH or reaches weight n - 1; rows spans them."""
    rows, cols = take(size)
    start, parts = rows.start, [cols]
    size += cols[0].size
    while size < _MAX_BATCH and rows.stop < n:
        rows, cols = take(size)
        parts.append(cols)
        size += cols[0].size
    return range(start, rows.stop), _stack(parts)


def _edges(t_idx: np.ndarray, weights: range) -> np.ndarray:
    """Where each weight of weights starts in the sorted t_idx, and where the last ends."""
    return np.searchsorted(t_idx, np.arange(weights.start, weights.stop + 1))


def _scan(tables: PeriodTables, j_values, coefs):
    """(range(t, t + 1), cols) per weight t: the bracket columns (t_idx,
    p_idx, cell_idx, j_idx, s_lo, coef) of its whole scan table."""
    W = np.empty_like(tables.H)   # the margin H - coef*G, one buffer for every weight
    for t, coef in enumerate(coefs):
        np.multiply(tables.G, coef, out=W)
        np.subtract(tables.H, W, out=W)
        p_idx, cell_idx, j_idx, s_lo = _brackets(W, j_values)
        n = p_idx.size
        yield range(t, t + 1), (np.full(n, t), p_idx, cell_idx, j_idx, s_lo, np.full(n, coef))


def _tile_scan(tables: PeriodTables, j_values, coefs, reads):
    """Per weight, as :func:`_scan` gives them, the bracket columns of the
    tiles :func:`_needed` keeps.  Every weight's tiles are found first, so
    the kernel is evaluated once on each distinct tile, however many
    weights scan it (:func:`_tile_kernel`)."""
    need = list(_needed(tables, j_values, coefs, reads))
    known = _tile_kernel(tables, np.unique(np.concatenate(need)))
    for t, tile in enumerate(need):
        yield range(t, t + 1), _tile_brackets(tables, j_values, coefs, np.full(tile.size, t), tile,
                                              known)


def _block_points(n_z: int, width: int = _BLOCK) -> np.ndarray:
    """The scan-point index of each end of a block of width scan cells:
    every width-th point and the last."""
    return np.append(np.arange(0, n_z - 1, width), n_z - 1)


def _n_blocks(n_z: int, width: int = _BLOCK) -> int:
    """The blocks of width scan cells per price, a last one shorter."""
    return -(-(n_z - 1) // width)


def _tile_kernel(tables: PeriodTables, tiles):
    """(tiles, G, H): the kernel gathered on the scan points of tiles
    (distinct, ascending) alone, one row of _BLOCK + 1 points per tile; a
    short last block repeats its end point, which adds no count step."""
    p, b = np.divmod(tiles, _n_blocks(tables.z.size))
    z_idx = np.minimum(b[:, None] * _BLOCK + np.arange(_BLOCK + 1), tables.z.size - 1)
    return (tiles, *tables.kernel(p[:, None], z_idx))


def _tile_brackets(tables: PeriodTables, j_values, coefs, t, tile, known) -> list:
    """The bracket columns of the scan cells of tiles (t, tile), t ascending:
    the same brackets, in the same (t, j, p, z cell) order, as a full scan
    of those weights has in these tiles.  known is :func:`_tile_kernel` on
    tiles that hold every one of tile; each (weight, tile) pair's margin
    is built from its tile's row there."""
    tiles, G, H = known
    at = np.searchsorted(tiles, tile)
    W = G[at]
    W *= coefs[t, None]   # H - coef*G with the full scan's operations, so the same bits
    np.subtract(H[at], W, out=W)
    rows, cells, j_idx, s_lo = _brackets(W, j_values, t)
    p, b = np.divmod(tile[rows], _n_blocks(tables.z.size))
    t = t[rows]
    return [t, p, b * _BLOCK + cells, j_idx, s_lo, coefs[t]]


def _needed(tables: PeriodTables, j_values, coefs, reads):
    """Per weight of coefs in turn, the tiles that a row of reads needs
    scanned: flat (price, block) indices, ascending.

    A tile can bracket only the wages J_a..J_b-1 in its margin enclosure.
    It is needed when it holds one and a row's value upper bound at J_a
    (:func:`_wage_ub`) reaches the row's floor.  Each weight's exact pass
    runs on its objectives' candidate tiles alone, those whose table
    bound reaches a witness at the setup (:func:`setup_group`): a row's
    floor is the witness of a table that reads it, whose bound reaches the
    row's exact one, so they hold every needed tile.  A NaN bound is kept.
    """
    k, tau, welfare, floor = reads
    B = tables.blocks
    # (objective, its rows, its candidate tiles' positions in B)
    passes = [(w, np.flatnonzero(welfare == w), np.flatnonzero(m)) for w, m in B.candidates.items()]
    for t in range(coefs.size):
        need = np.zeros(B.tile.size, dtype=bool)
        for w, r, at in passes:
            r = r[k[r] == t]
            if r.size:
                a, b, ub = _wage_ub(B, j_values, coefs[k[r], None], tau[r, None], at, w)
                need[at[((a < b) & ~(ub < floor[r, None])).any(axis=0)]] = True
        yield B.tile[need]


def _table_bound(B: "_Blocks", j_values, coefs, reads, rows):
    """The bound on every tile of B over the rows of one table (reads as
    in :func:`setup_group`): welfare's :func:`_relaxed_ub`, profit's
    :func:`_envelope`."""
    k, tau, welfare = reads
    c = coefs[k[rows]]
    if welfare[rows[0]]:
        return _relaxed_ub(B, j_values, c.min(), c.max())
    return _envelope(B, j_values, c, tau[rows])


def _relaxed_ub(B: "_Blocks", j_values, c_lo, c_hi):
    """Welfare's upper bound on every tile of B for every weight in [c_lo,
    c_hi]: the tile's J- and tau-free bound, -inf where the margin range
    at those weights misses [J_0, J_last]."""
    w_lo, w_hi = _margin_range(B, c_lo, c_hi, slice(None))
    return np.where((w_hi >= j_values[0]) & (w_lo <= j_values[-1]), B.welfare_hi, -np.inf)


def _envelope(B: "_Blocks", j_values, c, tau):
    """Profit's upper bound on every tile of B for the rows (weights c,
    commissions tau) of one table, at least each row's :func:`_wage_ub`.

    A row's wage J_a is at least J_0 and its margin range's lower end, so
    its bound is at most f = tau*pQ_a - max(J_0, H_lo - c*G_hi)*L_min plus
    the pads (a block with a non-finite G or H takes H_lo - c*G_hi = -inf).
    A table's rows lie on its line c = beta*(1 - tau), along which f rises
    with tau: a step dtau adds pQ_a*dtau to the revenue and raises the
    margin's lower end by beta*G_hi*dtau, so the wage bill by at most
    beta*G_hi*L_min*dtau = beta*pQ_a*dtau, and beta <= 1.  So f at the row
    of the largest commission, which has the least weight, bounds every
    row's.  The pads of :func:`_margin_range` and :func:`_value_ub`
    (B.pad) are added twice over, at the table's largest terms, which
    also covers the rows' last-bit distance from the line.  The margin's
    is taken at L_max, so every term of the pad grows as the pieces widen
    and a super tile's pad reaches its tiles'.
    """
    J_0, J_last = j_values[0], j_values[-1]
    t_hi, c_lo, c_hi = tau.max(), c.min(), c.max()
    A = np.multiply(B.p, B.Q_a)   # p*Q_a
    w = np.multiply(B.G_hi, c_lo)   # J_0 or the margin's lower end, times L_min
    np.subtract(B.H_lo, w, out=w)
    w[B.bad] = -np.inf
    np.maximum(w, J_0, out=w)
    w *= B.L_min
    ub = np.multiply(A, t_hi)
    ub -= w
    np.multiply(B.G_hi, c_hi, out=w)   # the pad, in place: a fresh array costs more than an op
    w += B.H_hi
    w *= B.L_max
    A *= t_hi
    w += A
    w += np.multiply(B.L_max, J_last, out=A)
    w *= 2.0 * B.pad
    ub += w
    return ub


def _wage_ub(B: "_Blocks", j_values, c, tau, tile, welfare: bool):
    """(a, b, ub): the wages J_a..J_b-1 in the margin ranges of tiles at
    weights c, and the value upper bound at J_a, -inf where a >= b."""
    w_lo, w_hi = _margin_range(B, c, c, tile)
    a = np.searchsorted(j_values, w_lo)
    b = np.searchsorted(j_values, w_hi, side="right")
    ub = _value_ub(B, tile, j_values[np.minimum(a, j_values.size - 1)], tau, welfare)
    return a, b, np.where(a < b, ub, -np.inf)


def _margin_range(B: "_Blocks", c_lo, c_hi, tile):
    """(w_lo, w_hi) enclosing the margin H - c*G on tiles (positions in B)
    for every weight c in [c_lo, c_hi], padded by B.pad times its terms;
    (-inf, inf) on a block with a non-finite G or H.

    On a block H rises with L, so H lies in [H(L_min), H(L_max)], and G =
    pQ/L in [pQ_b/L_max, pQ_a/L_min]; c >= 0.
    """
    pad = c_hi * B.G_hi[tile]   # c_hi*G first: three arrays, each op as before
    w_lo = B.H_lo[tile] - pad
    pad += B.H_hi[tile]
    pad *= B.pad
    w_lo -= pad
    w_hi = c_lo * B.G_lo[tile]
    np.subtract(B.H_hi[tile], w_hi, out=w_hi)
    w_hi += pad
    del pad
    bad = B.bad[tile]
    w_lo[..., bad], w_hi[..., bad] = -np.inf, np.inf
    return w_lo, w_hi


def _value_ub(B: "_Blocks", tile, J, tau, welfare: bool):
    """Upper bound on the value of a root in tiles (positions in B) at
    wage J >= 0, padded as :func:`_bounds` pads: welfare's (J-free), else
    profit tau*p*Q_a - J*L_min, which falls in J."""
    if welfare:
        return B.welfare_hi[tile]
    ub = tau * B.p[tile]
    ub *= B.Q_a[tile]
    pad = J * B.L_max[tile]
    pad += ub
    pad *= _BOUND_PAD
    ub -= J * B.L_min[tile]
    ub += pad
    return ub


def _complete(tables: PeriodTables, j_values, coefs, G, H) -> None:
    """BracketingError unless every (weight, price) row of the scan table
    brackets each J > 0 at every weight of coefs (all >= 0); G and H are
    the kernel at some scan points of every price, (price, point): the
    super tiles' ends in :func:`setup_group`.

    The brackets of a row span the counts between its least and largest
    margin, so a row brackets each J > 0 exactly when some margin is <=
    the least J > 0 (fmin skips NaN) and some is above the last wage or
    NaN (max keeps it).  G >= 0 or NaN, so at each point the margin W =
    H - c*G falls as c grows: a W <= J at the least weight stays so at
    every larger one, and a W above the last wage at the largest weight
    stays so at every smaller one, as does a NaN there (it is NaN or
    +inf at a smaller c).  So the row minimum at the least weight and the
    row maximum at the largest decide every weight.  The points are scan
    points, so a price that passes there passes; one that does not is
    checked on its full scan row, gathered from the tables.
    """
    pos = np.flatnonzero(j_values > 0.0)
    if not pos.size:
        return

    def ok(G, H):
        W = coefs.min() * G   # H - coef*G as the scan computes it
        low = np.fmin.reduce(np.subtract(H, W, out=W), axis=-1) <= j_values[pos[0]]
        np.multiply(coefs.max(), G, out=W)
        return low & ~(np.subtract(H, W, out=W).max(axis=-1) <= j_values[-1])

    p = np.flatnonzero(~ok(G, H))
    if p.size:   # the prices that fail at the block ends, scanned in full
        if not ok(*tables.kernel(p[:, None], np.arange(tables.z.size))).all():
            raise BracketingError(
                "grid evaluation: a cell with J > 0 has no labour-balance sign change at "
                "some price in the scan window; widen SolverConfig.z_min/z_max"
            )


def _best(ub, m: int):
    """The flat indices, ascending, of the m largest of ub (NaN ranks
    above every number, as argpartition ranks it), less those not above
    -inf.  Ascending, what is done with them depends on which they are
    alone, not on the order argpartition leaves them in."""
    ub = ub.reshape(-1)
    top = np.argpartition(ub, -m)[-m:] if m < ub.size else np.arange(ub.size)
    return np.sort(top[ub[top] > -np.inf])   # drops NaN too


def _ranked(tables: PeriodTables, j_values, coefs, reads, rows, bound):
    """(B, tile): the enclosures of the tiles inside some super tiles, and
    the positions in B of the _WITNESS_TILES tiles with the largest table
    bound (:func:`_table_bound`) of the rows (one table's), as a ranking
    of every tile picks them but for exact ties.

    bound is the table bound of every super tile, which reaches each of
    its tiles' (or is NaN).  Super tiles expand best first, as in branch
    and bound: the few with the largest bound, then every one whose bound
    exceeds the _WITNESS_TILES-th largest tile bound found, until no
    other one does.  That tile bound only rises as super tiles are added,
    so two rounds do it.
    """
    w = bool(reads[2][rows[0]])
    key = np.where(np.isnan(bound), np.inf, bound)   # NaN first, as _best ranks it
    n = min(_RANKED_SUPERS, key.size)
    supers = np.sort(np.argpartition(key, -n)[-n:])
    while True:
        B = _expand(tables, supers, w)
        ub = _table_bound(B, j_values, coefs, reads, rows)
        k, m = np.where(np.isnan(ub), np.inf, ub), _WITNESS_TILES
        least = np.partition(k, -m)[-m] if k.size >= m else -np.inf   # the m-th largest
        more = np.flatnonzero(key > least)   # holds supers when no larger
        if more.size <= supers.size:
            return B, _best(ub, _WITNESS_TILES)
        supers = more


def _witness(tables: PeriodTables, j_values, coefs, reads, rows, base, B: _Blocks, tile):
    """A value that some cell of the rows (one table's) attains: base or
    the largest value lower bound of the roots refined in the tiles of the
    rows' largest value upper bounds, whichever is larger.

    tile holds the positions in B of the tiles with the largest table
    bound (:func:`_ranked`); the exact :func:`_wage_ub` on every (row,
    tile) pair of those picks the _WITNESS_TILES pairs with the largest
    bound at the smallest wage their margin range holds, and those are
    refined.
    """
    k, tau, welfare = reads
    w, c = bool(welfare[rows[0]]), coefs[k[rows]]
    _, _, ub = _wage_ub(B, j_values, c[:, None], tau[rows, None], tile, w)
    ri, ti = np.divmod(_best(ub, _WITNESS_TILES), tile.size)
    t, tile = np.unique(np.stack((k[rows[ri]], B.tile[tile[ti]])), axis=1)   # by weight, then tile
    cols = _tile_brackets(tables, j_values, coefs, t, tile, _tile_kernel(tables, np.unique(tile)))
    t, p_idx, cell_idx, j_idx = cols[:4]
    ok = ~np.isnan(_refine(tables, j_values, cols))
    by_k = rows[np.argsort(k[rows])]   # a table's rows have distinct weights
    r = by_k[np.searchsorted(k[by_k], t[ok])]
    lo, _ = _value_bounds(tables, p_idx[ok], cell_idx[ok], j_values[j_idx[ok]], tau[r], w)
    return max(base, float(np.fmax.reduce(lo, initial=-np.inf)))


def _solve_in_full(tables: PeriodTables, j_values, coefs, roots: RootSet, lost) -> RootSet:
    """roots with those of the weights lost (indices into coefs, ascending)
    replaced by all of their roots, from one unpruned pass through the
    stages, still sorted by (t, j, p, z).  That pass reads the full scan
    table; tables bounded by tiles hold none, so one is built here for
    this call alone."""
    full = tables if tables.blocks is None else PeriodTables.build(tables.scenario, tables.p,
                                                                    tables.cfg)
    other = ~np.isin(roots.t_idx, lost)
    parts = [(roots.t_idx[other], roots.p_idx[other], roots.j_idx[other], roots.z[other])]
    for _, r in solve_slices(full, j_values, coefs[lost]):
        parts.append((lost[r.t_idx], r.p_idx, r.j_idx, r.z))
    cols = _stack(parts)
    order = np.argsort(cols[0], kind="stable")
    return RootSet(*(c[order] for c in cols))


def _prune(tables: PeriodTables, j_values, cols: list, weights: range, reads):
    """(keep, sets) over a batch of brackets: keep marks those whose root
    may win or tie the (tau, J) cell of a row that reads it, sets those
    whose lower bound is a cell's threshold.

    cols holds the brackets of the weights in range weights, as in
    :func:`_refine`; reads is as in :func:`solve_slices`.  Each objective's
    rows are bounded in one pass by :func:`_value_bounds`, and
    :func:`_cut` keeps what can reach the best, above each row's floor.
    """
    t_idx, p_idx, cell_idx, j_idx = cols[0], cols[1], cols[2], cols[3]
    k, tau, welfare, floor = reads
    edge = _edges(t_idx, weights)
    keep, sets = np.zeros(t_idx.size, dtype=bool), np.zeros(t_idx.size, dtype=bool)
    for w in (False, True):
        r = np.flatnonzero((welfare == w) & (k >= weights.start) & (k < weights.stop))
        owner, b = _runs(edge[k[r] - weights.start], np.diff(edge)[k[r] - weights.start])
        if b.size:
            J = j_values[j_idx[b]]
            lo, hi = _value_bounds(tables, p_idx[b], cell_idx[b], J, tau[r][owner], w)
            keep_b, sets_b = _cut(lo, hi, owner * j_values.size + j_idx[b], J, floor[r], owner)
            keep[b[keep_b]] = True
            sets[b[sets_b]] = True
    return keep, sets


def _cell_ends(s: PeriodScenario, z, p, cell_idx):
    """(z_lo, z_hi, Q_a, Q_b, L_min, L_max) of the cells [z_lo, z_hi] of
    grid z at prices p: on a cell the idle drivers I(z) fall (alpha_T < 0)
    and so does the throughput Q(z) (beta_T < 0), while t + z rises, so Q
    lies in [Q_b, Q_a] = [Q(z_hi), Q(z_lo)] and L = I + (t+z)Q in [L_min,
    L_max] = [I(z_hi) + (t+z_lo)Q_b, I(z_lo) + (t+z_hi)Q_a]."""
    z_lo, z_hi = z[cell_idx], z[cell_idx + 1]
    iz = idle_from_time(s.pickup, z)
    Q_a, Q_b = demand(s.demand, p, z_lo), demand(s.demand, p, z_hi)   # Q_a >= Q >= Q_b
    L_min = iz[cell_idx + 1] + (s.trip_time + z_lo) * Q_b
    L_max = iz[cell_idx] + (s.trip_time + z_hi) * Q_a
    return z_lo, z_hi, Q_a, Q_b, L_min, L_max


def _value_bounds(tables: PeriodTables, p_idx, cell_idx, J, tau, welfare: bool):
    """(lo, hi) enclosing the value of any root in each scan cell (p_idx,
    cell_idx) at wage J: welfare if welfare, else profit at commission tau;
    see :func:`_bounds`."""
    p = tables.p[p_idx]   # the ends go unnamed, so _bounds frees each one once used
    return _bounds(tables.scenario, p, _cell_ends(tables.scenario, tables.z, p, cell_idx),
                   J, tau, welfare)


def _bounds(s: PeriodScenario, p, ends, J, tau, welfare: bool):
    """(lo, hi) enclosing the value of any root in cells at prices p with
    ends = (z_lo, z_hi, Q_a, Q_b, L_min, L_max) from :func:`_cell_ends`
    (z_lo, z_hi are read for welfare only).

    Profit tau*p*Q - J*L and welfare S(p, z) + p*Q - C(L) are monotone in
    z, Q and L with known signs (prices are >= 0; a wage may take either
    sign), so their values at these ends, computed by the model functions
    and in the order the value table uses, enclose the root's value.  Each
    bound is padded outward by _BOUND_PAD times the size of the value's
    terms.
    """
    z_lo, z_hi, Q_a, Q_b, L_min, L_max = ends
    del ends
    # names are dropped once used and sums built in place (a + b == b + a
    # bit for bit), since a batch's bounds are the solver's peak memory
    if welfare:
        hi, lo = surplus(s.demand, p, z_lo), surplus(s.demand, p, z_hi)
        del z_lo, z_hi
        hi += p * Q_a
        lo += p * Q_b
        del p, Q_a, Q_b
        pad = social_cost(s.supply, L_max)
        lo -= pad
        pad += hi
        hi -= social_cost(s.supply, L_min)
    else:
        del z_lo, z_hi
        a = tau * p
        del p
        hi, lo = a * Q_a, a * Q_b
        del a, Q_a, Q_b
        L_min *= J
        L_max *= J
        pad = np.abs(L_max)
        pad += hi
        hi -= np.minimum(L_min, L_max)
        lo -= np.maximum(L_min, L_max)
    del L_min, L_max
    pad *= _BOUND_PAD
    lo -= pad
    hi += pad
    return lo, hi


def _cut(lo: np.ndarray, hi: np.ndarray, cell: np.ndarray, J: np.ndarray, floor: np.ndarray,
         owner: np.ndarray):
    """(keep, sets) for value enclosures [lo, hi] whose cells come in runs
    of ascending cell id, J being each one's wage and floor[owner] a value
    below which no root is needed: -inf for a table read for every cell,
    and for one read for its best cell a value that the table attains.
    floor holds one value per row and owner each enclosure's row, so a
    floor is read once per cell.

    A cell's threshold is its largest lo, and at least 0 at J <= 0, where
    the shutdown equilibrium (value 0) stands, and at least its floor; a
    NaN lo is skipped, so it never raises a threshold.  An enclosure is
    kept unless its hi falls below the threshold (a NaN hi is kept), so a
    root that can win or tie is kept.  sets marks the enclosures whose lo
    is a threshold above those floors, and those are kept too.
    """
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    base = np.maximum(np.where(J[starts] > 0.0, -np.inf, 0.0), floor[owner[starts]])
    thr = np.fmax(np.fmax.reduceat(lo, starts), base)
    widths = np.diff(starts, append=lo.size)
    above = np.repeat(thr > base, widths)
    thr = np.repeat(thr, widths)
    sets = (lo == thr) & above
    return ~(hi < thr) | sets, sets


def _refine(tables: PeriodTables, j_values, cols: list) -> np.ndarray:
    """Bisect a chunk's brackets: each one's root within tol_eq, NaN where none.

    cols holds the bracket columns (t_idx, p_idx, cell_idx, j_idx, s_lo,
    coef) and is emptied: only the live brackets' state stays held, since
    a chunk's arrays are its peak memory.  A pass evaluates the margin to
    steer; the residual runs only on a pass where some bracket can end
    (narrow, stalled or out of passes), so it changes no stop and no bit.
    Brackets come in (t, j, p, z cell) order and a root never leaves its
    scan cell, so the roots in bracket order are sorted by (t, j, p, z).
    """
    s, cfg = tables.scenario, tables.cfg
    _, p_idx, cell_idx, j_idx, s_lo, coef = cols
    cols.clear()
    p_arr, J_arr, ep = tables.p[p_idx], j_values[j_idx], np.exp(s.demand.beta_p * tables.p)[p_idx]
    z_lo, z_hi = tables.z[cell_idx], tables.z[cell_idx + 1]
    del cell_idx

    # Bisect the live brackets; an accepted bracket leaves the live arrays and
    # writes its midpoint (finite, so NaN marks no root) into its z_root slot
    # when its residual is within tol_eq.  The pass budget guards against a
    # midpoint that cannot halve: its last pass accepts all.
    half_tol, passes_left = 0.5 * cfg.tol_eq, _MAX_BISECT_ITER
    ids = np.arange(p_idx.size)
    z_root = np.full(p_idx.size, np.nan)
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

    return z_root


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
