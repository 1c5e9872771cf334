"""Exact allocation over per-structure curves from one Pareto frontier.

:meth:`Allocator.rank` answers the paper's allocation question by
ranking every (TLB, I-cache, D-cache) point that fits the budget —
fine for Table 5's ~250k points, too slow to repeat per query once the
space grows another axis (the two-level space of
:mod:`repro.core.hierarchy` has ~10^7 points).  This module answers the
same question exactly from the space's Pareto frontier, built once and
valid for every budget.

The objective is *separable*: total area, power and CPI are left folds
over the structures in enumeration order — area and power start at
0.0, CPI at ``fixed_cpi`` — exactly as :func:`exhaustive_best`
accumulates them.  A query (:meth:`Frontier.best`) takes the first
frontier point, in (cpi, area, flat) order, that fits the budget(s).
:func:`build_frontier` runs the fold one structure at a time over
*partial* selections (one design point per structure so far), and
keeps the frontier exact in two steps.

**Stage pruning.**  After every stage but the last it drops each
partial q for which some partial p at the same stage has a lower flat
prefix index and area, power and cpi each <= q's.  Float addition
rounds monotonically, so after any common suffix p's totals stay <=
q's: p's completion fits whenever q's does and precedes it in the
exhaustive (cpi, area, flat index) order.  So every optimum, under an
area budget alone or with a power budget, is among the last stage's
candidates.

**The answer set.**  Of those candidates the frontier keeps only the
ones some query returns.  A candidate q fits the budgets (q's area,
q's power), and the answer there is the first fitting candidate in
query order, so q is ever returned iff no candidate before it has
area <= and power <= q's; an area-only answer passes the same test,
since nothing before it has even area <= its own.  The test is one
2-D staircase sweep in query order over the union of the candidate
blocks, after each block drops the candidates that another of its own
candidates already fails in this way.  The relation is transitive, so
every dropped candidate keeps a witness in what the sweep sees.

One frontier therefore answers both query kinds bit-identically to
:func:`exhaustive_best`, and every point on it is some query's answer.

Feasibility here is the summed-total predicate ``area <= budget`` of
:func:`exhaustive_best`.  Single-level area queries keep the reference
predicate ``budget_left = (B - t_area) - i_area``, which is not a
function of a partial's summed area, so dominance on partial sums does
not carry over to it.  They apply this module's answer-set argument to
whole entries instead: :attr:`~repro.core.allocator.PricedSpace.
best_ranks` keeps the ranks whose per-entry threshold no earlier rank
matches (see :mod:`repro.core.allocator`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import BudgetError

_BLOCK = 1024
"""Candidates generated and pruned per step of a frontier stage."""

_CHUNK = 1 << 16
"""Element bound on each pairwise-comparison temporary."""


@dataclass(frozen=True)
class StructureCurve:
    """One structure's design points: parallel area/CPI/power arrays.

    Attributes:
        name: structure label ("tlb", "icache", "l2", ...).
        areas: per-point area in rbe (float64).
        cpis: per-point CPI contribution (float64).
        keys: per-point config objects/labels, same order (used to
            materialize the chosen allocation).
        powers: per-point power in mW (float64).
    """

    name: str
    areas: np.ndarray
    cpis: np.ndarray
    keys: tuple
    powers: np.ndarray

    def __post_init__(self):
        n = len(self.areas)
        if not (n == len(self.cpis) == len(self.keys) == len(self.powers)):
            raise ValueError(f"curve {self.name!r}: mismatched array lengths")
        if n == 0:
            raise ValueError(f"curve {self.name!r}: empty design-point set")

    @property
    def size(self) -> int:
        return len(self.areas)


@dataclass
class Selection:
    """One allocation: a design point per structure and its totals.

    Attributes:
        choice: per-structure index into the curve arrays.
        keys: the chosen per-structure config objects.
        area: total area, accumulated left-to-right over structures
            (bit-identical to the priced grids' float order).
        cpi: total CPI, ``fixed_cpi`` first then per-structure terms
            left-to-right (same bit-order guarantee).
        power: total power, accumulated like area.
    """

    choice: list[int]
    keys: tuple
    area: float
    cpi: float
    power: float


def _unravel(structures, flat: int) -> list[int]:
    """Per-structure indices of a flat (most-significant-first) index."""
    choice = []
    for curve in reversed(structures):
        flat, idx = divmod(flat, curve.size)
        choice.append(idx)
    return choice[::-1]


def _nothing_fits(budget: float, power_budget: float | None) -> BudgetError:
    return BudgetError(
        f"no configuration fits within {budget} rbes"
        + (f" and {power_budget} mW" if power_budget is not None else "")
    )


def _le(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of ``a <= b`` on all three rows (area, power, cpi); the
    rows broadcast against each other."""
    return (a[0] <= b[0]) & (a[1] <= b[1]) & (a[2] <= b[2])


def _earlier_dominated(points: np.ndarray) -> np.ndarray:
    """Columns of ``points`` (3 x n, in flat order) that some earlier
    column is <= on every row."""
    n = points.shape[1]
    rank = np.arange(n)
    out = np.zeros(n, dtype=bool)
    step = max(1, _CHUNK // max(n, 1))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        le = _le(points[:, None, :], points[:, rows, None])
        out[rows] = (le & (rank < rank[rows, None])).any(axis=1)
    return out


class _Front:
    """The points one stage has kept so far, in flat order.

    Candidates arrive in flat order, so every kept point has a lower
    flat index than any later candidate and the dominance test against
    them is plain (area, power, cpi) weak dominance.  Each point either
    is kept or has a kept dominator, so testing against the kept points
    alone is exact.
    """

    def __init__(self):
        self.points = np.empty((3, 0))
        self.flat = np.empty(0, dtype=np.int64)
        self._minima = None

    def extend(self, points: np.ndarray, flat: np.ndarray) -> None:
        """Keep the candidates no kept or earlier candidate dominates."""
        fresh = np.flatnonzero(~self._dominated(points))
        points, flat = points[:, fresh], flat[fresh]
        fresh = ~_earlier_dominated(points)
        if fresh.any():
            self.points = np.concatenate((self.points, points[:, fresh]), 1)
            self.flat = np.concatenate((self.flat, flat[fresh]))
            self._minima = None

    def _running_minima(self) -> list:
        """Per row k: the kept points' sorted k values, and for each
        other row j the running argmin of j along that order."""
        if self._minima is None:
            self._minima = []
            for k in range(3):
                order = np.argsort(self.points[k], kind="stable")
                argmin = {}
                for j in {0, 1, 2} - {k}:
                    col = self.points[j, order]
                    at_min = col == np.minimum.accumulate(col)
                    last = np.where(at_min, np.arange(len(col)), 0)
                    argmin[j] = order[np.maximum.accumulate(last)]
                self._minima.append((self.points[k, order], argmin))
        return self._minima

    def _dominated(self, queries: np.ndarray) -> np.ndarray:
        """Mask of queries some kept point is <= on every row.

        Staircase filters decide most queries: for each ordered pair of
        rows (k, j), the kept point of least j among those with k <=
        the query's k either dominates the query (a witness) or proves
        that no kept point can (its j already exceeds the query's).
        The rest are compared with every kept point, in bounded chunks.
        """
        out = np.zeros(queries.shape[1], dtype=bool)
        if not len(self.flat):
            return out
        possible = np.ones_like(out)
        for k, (keys, argmin) in enumerate(self._running_minima()):
            pos = np.searchsorted(keys, queries[k], "right") - 1
            possible &= pos >= 0
            for j, run in argmin.items():
                witness = self.points[:, run[np.maximum(pos, 0)]]
                possible &= witness[j] <= queries[j]
                out |= _le(witness, queries)
        out &= possible
        undecided = np.flatnonzero(possible & ~out)
        step = max(1, _CHUNK // len(self.flat))
        for start in range(0, len(undecided), step):
            cols = undecided[start:start + step]
            le = _le(self.points[:, None, :], queries[:, cols, None])
            out[cols] = le.any(axis=1)
        return out


@dataclass(frozen=True)
class Frontier:
    """The exact Pareto frontier of a separable space: the points some
    area or area x power query returns.

    Attributes:
        structures: the curves, in enumeration order.
        points: 3 x n totals (area, power, cpi) of the frontier
            points, columns sorted by (cpi, area, flat).  Each column
            is the answer at budgets equal to its own area and power.
        flat: each point's flat index into the cross product.
    """

    structures: tuple[StructureCurve, ...]
    points: np.ndarray
    flat: np.ndarray

    def __len__(self) -> int:
        return len(self.flat)

    def best(
        self, budget: float, power_budget: float | None = None
    ) -> Selection:
        """The exhaustive optimum under ``budget`` (and ``power_budget``).

        Raises:
            BudgetError: when nothing fits.
        """
        fits = self.points[0] <= budget
        if power_budget is not None:
            fits &= self.points[1] <= power_budget
        i = int(np.argmax(fits))
        if not fits[i]:
            raise _nothing_fits(budget, power_budget)
        choice = _unravel(self.structures, int(self.flat[i]))
        area, power, cpi = (float(v) for v in self.points[:, i])
        return Selection(
            choice=choice,
            keys=tuple(s.keys[c] for s, c in zip(self.structures, choice)),
            area=area,
            cpi=cpi,
            power=power,
        )


def _first_below(area: np.ndarray, power: np.ndarray) -> np.ndarray:
    """Mask of the points that no earlier point is <= on both area and
    power.

    One sweep in array order, in chunks of 16 points doubling to 128
    (the staircase fills early, and each pairwise test stays small): a
    chunk is tested against the staircase of the points kept before
    it, then its survivors against each other.  A point dropped by
    either test has an earlier kept witness (the relation is
    transitive), so testing against kept points alone is exact.
    """
    keep = np.zeros(len(area), dtype=bool)
    # Kept (area, power) points of strictly falling power by rising
    # area, behind a sentinel that is <= no point.
    stair_a, stair_p = np.array([-np.inf]), np.array([np.inf])
    start, step = 0, 16
    while start < len(area):
        a, p = area[start:start + step], power[start:start + step]
        # The least kept power at or below each area.
        live = np.flatnonzero(
            stair_p[np.searchsorted(stair_a, a, "right") - 1] > p
        )
        a, p = a[live], p[live]
        le = (a[:, None] <= a) & (p[:, None] <= p)
        fresh = ~np.triu(le, 1).any(axis=0)
        if fresh.any():
            keep[start + live[fresh]] = True
            stair_a = np.concatenate((stair_a, a[fresh]))
            stair_p = np.concatenate((stair_p, p[fresh]))
            order = np.lexsort((stair_p, stair_a))
            stair_a, stair_p = stair_a[order], stair_p[order]
            step_down = np.ones(len(stair_p), dtype=bool)
            step_down[1:] = stair_p[1:] < np.minimum.accumulate(stair_p)[:-1]
            stair_a, stair_p = stair_a[step_down], stair_p[step_down]
        start += step
        step = min(2 * step, 128)
    return keep


def _witnessed(points: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Mask of the candidates that some other candidate precedes in
    (cpi, area, flat) order with area and power <= their own.

    A filter, not the whole answer set: after an unstable sort on cpi,
    each candidate is tested against two before it, the last one of
    least area and the last one of least power.
    """
    order = np.argsort(points[2])
    area, power, cpi = points[:, order]
    flat = flat[order]
    index = np.arange(len(flat))
    out = np.zeros(len(flat), dtype=bool)
    rest = slice(1, None)
    for key in (area, power):
        at_min = key == np.minimum.accumulate(key)
        w = np.maximum.accumulate(np.where(at_min, index, 0))[:-1]
        # cpi[w] <= cpi[rest] by the sort; with area <= too, w comes
        # first in query order unless both tie and its flat is later.
        out[rest] |= (
            (area[w] <= area[rest])
            & (power[w] <= power[rest])
            & (
                (cpi[w] < cpi[rest])
                | (area[w] < area[rest])
                | (flat[w] < flat[rest])
            )
        )
    mask = np.empty_like(out)
    mask[order] = out
    return mask


def _answer_set(blocks) -> tuple[np.ndarray, np.ndarray]:
    """The candidates that :meth:`Frontier.best` can return, in
    (cpi, area, flat) order.

    ``blocks`` yields (3 x n points, flat) pairs whose columns run in
    flat order, within and across pairs.  Each block first drops the
    candidates :func:`_witnessed` finds; a stable sort of the rest on
    (cpi, area) keeps flat order among ties, and a candidate is an
    answer iff no candidate before it has area and power <= its own.
    """
    kept = []
    for points, flat in blocks:
        fresh = ~_witnessed(points, flat)
        kept.append((points[:, fresh], flat[fresh]))
    points = np.concatenate([p for p, _ in kept], axis=1)
    flat = np.concatenate([f for _, f in kept])
    order = np.lexsort((points[0], points[2]))
    points, flat = points[:, order], flat[order]
    keep = _first_below(points[0], points[1])
    return points[:, keep], flat[keep]


def _candidates(points: np.ndarray, flat: np.ndarray, curve: StructureCurve):
    """Yield one stage's candidates, in flat order, as (points, flat)
    blocks of about ``_BLOCK`` columns: the kept partials, some rows at
    a time, each extended by every point of ``curve`` that no
    lower-index point of it dominates (the same dominance, so the
    same proof)."""
    own = _Front()
    own.extend(
        np.stack((curve.areas, curve.powers, curve.cpis)),
        np.arange(curve.size, dtype=np.int64),
    )
    rows = max(1, _BLOCK // len(own.flat))
    for start in range(0, len(flat), rows):
        part = slice(start, start + rows)
        yield (
            (points[:, part, None] + own.points[:, None, :]).reshape(3, -1),
            (flat[part, None] * curve.size + own.flat).ravel(),
        )


def _partials(
    structures: list[StructureCurve], fixed_cpi: float
) -> tuple[np.ndarray, np.ndarray]:
    """The partials over ``structures`` that stage pruning keeps, in
    flat order."""
    points = np.array([[0.0], [0.0], [fixed_cpi]])
    flat = np.zeros(1, dtype=np.int64)
    for curve in structures:
        stage = _Front()
        for block in _candidates(points, flat, curve):
            stage.extend(*block)
        points, flat = stage.points, stage.flat
    return points, flat


def build_frontier(
    structures: list[StructureCurve], fixed_cpi: float = 0.0
) -> Frontier:
    """Build the exact frontier of ``structures`` stage by stage.

    Every stage but the last keeps the partials no lower-index partial
    dominates; the last keeps the answer set.  Candidates are made and
    first filtered one block at a time, so only the block survivors
    are ever held together.
    """
    *inner, last = structures
    points, flat = _answer_set(
        _candidates(*_partials(inner, fixed_cpi), last)
    )
    return Frontier(tuple(structures), points, flat)


# ---------------------------------------------------------------------------
# Exhaustive reference: the brute force the frontier is held to.  Kept
# vectorized (chunked broadcast over the cross product) so differential
# tests and the alloc_scaling bench can afford spaces up to ~10^7
# points.

_EXHAUSTIVE_CHUNK = 1 << 22


def exhaustive_best(
    structures: list[StructureCurve],
    budget: float,
    fixed_cpi: float = 0.0,
    power_budget: float | None = None,
) -> Selection:
    """The exact optimum by enumerating the full cross product.

    Float accumulation is left-associated over structures in order, so
    the reported (area, cpi) of any selection is bit-identical to the
    frontier's totals for the same selection (and, for the 3-deep
    single-level space, to ``PricedSpace``'s grids).  Ties on (cpi,
    area) resolve to the lowest flat enumeration index, matching
    :func:`~repro.core.allocator.rank_priced`.

    Raises:
        BudgetError: when nothing fits.
    """
    (best,) = exhaustive_best_many(structures, [(budget, power_budget)], fixed_cpi)
    if best is None:
        raise _nothing_fits(budget, power_budget)
    return best


def exhaustive_best_many(
    structures: list[StructureCurve],
    budgets: list[tuple[float, float | None]],
    fixed_cpi: float = 0.0,
) -> list[Selection | None]:
    """:func:`exhaustive_best` for several budgets in one pass.

    ``budgets`` holds ``(area budget, power budget or None)`` pairs;
    the answer for each is what :func:`exhaustive_best` returns, or
    None where nothing fits.  The cross product's totals are summed
    once per chunk and every budget is answered from them.
    """
    sizes = [s.size for s in structures]
    total = int(np.prod(sizes))
    # Per budget: (cpi, area, flat index) of the best point so far.
    best = [(np.inf, np.inf, -1)] * len(budgets)
    with_power = any(power is not None for _, power in budgets)

    # Accumulate grids chunk-by-chunk over the flat cross product.
    for start in range(0, total, _EXHAUSTIVE_CHUNK):
        stop = min(start + _EXHAUSTIVE_CHUNK, total)
        rem = np.arange(start, stop, dtype=np.int64)
        area = np.zeros(stop - start, dtype=np.float64)
        cpi = np.full(stop - start, fixed_cpi, dtype=np.float64)
        power = np.zeros(stop - start, dtype=np.float64) if with_power else None
        # Decompose flat indices most-significant structure first.
        for s, curve in enumerate(structures):
            trailing = int(np.prod(sizes[s + 1 :])) if s + 1 < len(sizes) else 1
            idx, rem = np.divmod(rem, trailing)
            area = area + curve.areas[idx]
            cpi = cpi + curve.cpis[idx]
            if power is not None:
                power = power + curve.powers[idx]
        for b, (budget, power_budget) in enumerate(budgets):
            mask = area <= budget
            if power_budget is not None:
                mask &= power <= power_budget
            cand = np.flatnonzero(mask)
            if not len(cand):
                continue
            # Lowest cpi, then lowest area, then lowest flat index.
            c_cpi = cpi[cand]
            tied = cand[c_cpi == c_cpi.min()]
            pick = int(tied[np.argmin(area[tied])])
            c, a = float(cpi[pick]), float(area[pick])
            if c < best[b][0] or (c == best[b][0] and a < best[b][1]):
                best[b] = (c, a, start + pick)

    return [
        None if flat < 0 else _exhaustive_selection(structures, flat, fixed_cpi)
        for _, _, flat in best
    ]


def _exhaustive_selection(
    structures: list[StructureCurve], flat: int, fixed_cpi: float
) -> Selection:
    """Recover per-structure indices and recompute exact totals."""
    orig = _unravel(structures, flat)
    area_t = 0.0
    cpi_t = fixed_cpi
    power_t = 0.0
    for s, curve in enumerate(structures):
        area_t = area_t + float(curve.areas[orig[s]])
        cpi_t = cpi_t + float(curve.cpis[orig[s]])
        power_t = power_t + float(curve.powers[orig[s]])
    return Selection(
        choice=orig,
        keys=tuple(s.keys[i] for s, i in zip(structures, orig)),
        area=area_t,
        cpi=cpi_t,
        power=power_t,
    )


@dataclass(frozen=True)
class SurfacePoint:
    """One cell of a multi-budget Pareto surface."""

    area_budget: float
    power_budget: float
    result: Selection


def pareto_surface(
    frontier: Frontier, area_budgets, power_budgets
) -> list[SurfacePoint]:
    """The (area x power) -> CPI Pareto surface, one query per cell.

    Answers every (area budget, power budget) pair from the frontier
    and keeps the cells no other cell dominates on all three axes
    (achieved area, achieved power, cpi) — the multi-budget surface the
    cache-hierarchy literature plots.  Infeasible cells are dropped,
    and when several budget cells land on the *same* achieved
    allocation (a loose budget changes nothing), only the first such
    cell in budget iteration order is kept — with ascending budget
    lists, the tightest pair of budgets that reaches it.
    """
    cells: list[SurfacePoint] = []
    seen: set[tuple[float, float, float]] = set()
    for ab in area_budgets:
        for pb in power_budgets:
            try:
                result = frontier.best(float(ab), float(pb))
            except BudgetError:
                continue
            achieved = (result.area, result.power, result.cpi)
            if achieved not in seen:
                seen.add(achieved)
                cells.append(SurfacePoint(float(ab), float(pb), result))

    def achieved(cell: SurfacePoint) -> tuple[float, float, float]:
        return (cell.result.area, cell.result.power, cell.result.cpi)

    # Achieved points are distinct, so <= on every axis is strict
    # dominance.
    return [
        cell
        for cell in cells
        if not any(
            other is not cell
            and all(o <= c for o, c in zip(achieved(other), achieved(cell)))
            for other in cells
        )
    ]
