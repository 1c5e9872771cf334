"""Budgeted allocation of on-chip memory (Tables 6 and 7).

Enumerate the Table 5 configuration space, price every TLB + I-cache +
D-cache combination with the MQF model, keep those under the area
budget, score each with composed CPI, and rank.

Pricing is independent of the budget, so it is factored into
:class:`PricedSpace` — per-structure area and CPI arrays, the
precomputed cross-product grids, the rank order, and per-entry
feasibility thresholds — and three functions answer any budget
against a priced space without re-pricing: :func:`rank_priced`
(rankings), :func:`best_many` (the best allocation per budget of a
sweep) and :func:`pareto_priced` (the area-vs-CPI frontier).  The query
service (``repro.service``) keeps priced spaces warm to answer budget
sweeps; :meth:`Allocator.rank` is pricing plus :func:`rank_priced`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.configs import CacheConfig, MemSystemConfig, TlbConfig
from repro.core.cpi import CpiModel
from repro.core.measure import BenefitCurves, StructureCurves
from repro.core.space import enumerate_cache_configs, enumerate_tlb_configs
from repro.errors import BudgetError

DEFAULT_BUDGET_RBES = 250_000
"""The paper's die-area budget, chosen from the Table 1 survey."""


@dataclass(frozen=True)
class Allocation:
    """One scored candidate allocation."""

    config: MemSystemConfig
    area_rbe: float
    cpi: float

    def row(self) -> dict:
        """Table row matching the paper's column layout."""
        return {
            "tlb": self.config.tlb.label(),
            "icache": self.config.icache.label(),
            "dcache": self.config.dcache.label(),
            "total_cost_rbe": round(self.area_rbe),
            "total_cpi": round(self.cpi, 3),
        }


def stable_order(
    key: np.ndarray, tiebreak: np.ndarray | None = None
) -> np.ndarray:
    """``np.lexsort((tiebreak, key))``, or ``np.argsort(key,
    kind="stable")`` without a tiebreak, for finite float keys.

    An unstable sort orders the keys; only the runs of equal keys are
    then re-sorted, by (tiebreak, index), so the result is the same
    permutation at a fraction of a full stable sort's cost when ties
    are few.
    """
    order = np.argsort(key)
    ranked = key[order]
    equal = ranked[1:] == ranked[:-1]
    if equal.any():
        n = order.size
        tied = np.zeros(n, dtype=bool)
        tied[1:] = equal
        tied[:-1] |= equal
        starts = tied.copy()
        starts[1:] &= ~equal
        run = np.cumsum(starts)[tied]
        # Each run's indices ascending, runs kept in place.
        sub = np.sort(run * n + order[tied]) % n
        if tiebreak is not None:
            sub = sub[np.lexsort((tiebreak[sub], run))]
        order[tied] = sub
    return order


@dataclass(frozen=True)
class PricedSpace:
    """A configuration space priced once, ready for any budget.

    Holds per-structure area/CPI arrays in enumeration order and the
    raveled (tlb, icache, dcache) cross-product grids.  The grids are
    computed with the exact float-operation order of the original
    triple loop, so any subset indexed out of them is bit-identical to
    pricing that subset directly.
    """

    tlb_keys: tuple[TlbConfig, ...]
    icache_keys: tuple[CacheConfig, ...]
    dcache_keys: tuple[CacheConfig, ...]
    t_area: np.ndarray
    i_area: np.ndarray
    d_area: np.ndarray
    fixed_cpi: float
    area_grid: np.ndarray
    cpi_grid: np.ndarray
    # Per-structure CPI contributions in enumeration order, for the
    # per-structure view of :meth:`structure_curves`.
    t_cpi: np.ndarray | None = None
    i_cpi: np.ndarray | None = None
    d_cpi: np.ndarray | None = None

    @property
    def size(self) -> int:
        """Number of (tlb, icache, dcache) combinations in the grid."""
        return self.area_grid.size

    def min_area(self) -> float:
        """Area of the cheapest combination.

        Raises:
            BudgetError: if the space is empty.
        """
        if self.size == 0:
            raise BudgetError("the priced space is empty; nothing fits")
        return float(self.area_grid.min())

    @cached_property
    def sorted_order(self) -> np.ndarray:
        """Flat grid indices in ascending (cpi, area) stable order.

        Computed once per priced space; filtering this order by a
        budget's feasibility mask yields the same ranking as sorting
        the feasible subset (a stable sort of a subset preserves the
        subset's relative order in the full stable sort), so repeated
        budget queries skip the per-query lexsort entirely.
        """
        return stable_order(self.cpi_grid, self.area_grid)

    @cached_property
    def thresholds(self) -> np.ndarray:
        """Per-entry feasibility thresholds, in rank (``sorted_order``)
        order: the smallest float64 budget at which the reference
        predicate admits the entry.

        The predicate is monotone in the budget (float subtraction is),
        but its rounding can put the threshold a few ULPs off the
        entry's ``area_grid`` value, so it is found by a bounded
        ``nextafter`` walk.  ``thresholds <= B`` is then the reference
        predicate at ``B`` bit for bit (see the ordering contract).
        """
        return _feasibility_thresholds(self)[self.sorted_order]

    @cached_property
    def best_ranks(self) -> np.ndarray:
        """The answer set: rank positions whose threshold is a strict
        running minimum of :attr:`thresholds`.

        The best entry under a budget is the first rank that fits, so an
        entry is some budget's best iff no earlier rank has a threshold
        <= its own; thresholds strictly fall along this set.
        """
        return _frontier_positions(self.thresholds)

    @cached_property
    def power_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-structure power (mW) in enumeration order (computed once)."""
        from repro.areamodel.power import cache_power_mw, tlb_power_mw

        t_power = np.array(
            [tlb_power_mw(t.entries, t.assoc) for t in self.tlb_keys],
            dtype=np.float64,
        )
        i_power = np.array(
            [
                cache_power_mw(c.capacity_bytes, c.line_words, c.assoc)
                for c in self.icache_keys
            ],
            dtype=np.float64,
        )
        d_power = np.array(
            [
                cache_power_mw(c.capacity_bytes, c.line_words, c.assoc)
                for c in self.dcache_keys
            ],
            dtype=np.float64,
        )
        return t_power, i_power, d_power

    @cached_property
    def power_grid(self) -> np.ndarray:
        """Raveled total-power grid, same float order as ``area_grid``."""
        t_power, i_power, d_power = self.power_arrays
        return (
            (t_power[:, None] + i_power[None, :])[:, :, None] + d_power
        ).ravel()

    def structure_curves(self) -> list:
        """The three per-structure curves in (tlb, icache, dcache) order.

        This is the view :mod:`repro.core.multiopt` builds a frontier
        over.  Requires the per-structure CPI arrays (spaces priced by
        :meth:`Allocator.price`; spaces built by hand without them
        raise).
        """
        from repro.core.multiopt import StructureCurve

        if self.t_cpi is None or self.i_cpi is None or self.d_cpi is None:
            raise ValueError(
                "priced space lacks per-structure CPI arrays; "
                "re-price with Allocator.price"
            )
        powers = self.power_arrays
        return [
            StructureCurve(
                "tlb", self.t_area, self.t_cpi, self.tlb_keys, powers[0]
            ),
            StructureCurve(
                "icache", self.i_area, self.i_cpi, self.icache_keys, powers[1]
            ),
            StructureCurve(
                "dcache", self.d_area, self.d_cpi, self.dcache_keys, powers[2]
            ),
        ]


def rank_priced(
    priced: PricedSpace,
    budget_rbes: float,
    limit: int | None = None,
    power_budget: float | None = None,
) -> list[Allocation]:
    """Rank the allocations of a priced space that fit the budget(s).

    Without a power budget, feasibility is ``thresholds <= budget``:
    ``limit=1`` searches the answer set (see :func:`best_many`), any
    other limit filters the rank order.  With a power budget it is the
    summed-total mask ``area_grid <= budget and power_grid <=
    power_budget``.  See the ordering contract below.

    Raises:
        BudgetError: if no combination fits the budget(s).
    """
    order = priced.sorted_order
    if power_budget is not None:
        feasible = (priced.area_grid <= budget_rbes) & (
            priced.power_grid <= power_budget
        )
        ranked = allocations_from_flat(priced, order[feasible[order]][:limit])
    elif limit == 1:
        # best_many's answer-set search, for one scalar budget.
        ranks = priced.best_ranks[::-1]
        fitting = int(
            np.searchsorted(priced.thresholds[ranks], budget_rbes, "right")
        )
        ranked = allocations_from_flat(
            priced, order[ranks[fitting - 1 : fitting]]
        )
    else:
        fits = priced.thresholds <= budget_rbes
        ranked = allocations_from_flat(priced, order[fits][:limit])
    if not ranked:
        raise BudgetError(
            f"no configuration fits within {budget_rbes} rbes"
            + (f" and {power_budget} mW" if power_budget is not None else "")
        )
    return ranked


def best_many(
    priced: PricedSpace, budgets_rbes: np.ndarray | list[float]
) -> list[list[Allocation]]:
    """The best allocation under each budget of a sweep, in one pass;
    an empty list where nothing fits.

    Thresholds strictly fall along the answer set, so the entries that
    fit a budget are a suffix of it, and the suffix's head is the best:
    one ``searchsorted`` over the reversed set counts the suffix.
    """
    ranks = priced.best_ranks[::-1]
    fitting = np.searchsorted(priced.thresholds[ranks], budgets_rbes, "right")
    best = iter(allocations_from_flat(
        priced, priced.sorted_order[ranks[fitting[fitting > 0] - 1]]
    ))
    return [[next(best)] if count else [] for count in fitting.tolist()]


def pareto_priced(
    priced: PricedSpace, max_budget: float | None = None
) -> list[Allocation]:
    """The (area, CPI) Pareto frontier of the entries that fit the budget.

    A running minimum of area over the feasible ranks (all of them
    without a budget): :func:`~repro.service.engine.pareto_frontier`
    over :func:`rank_priced`'s full ranking.

    Raises:
        BudgetError: if no combination fits the budget.
    """
    budget = np.inf if max_budget is None else max_budget
    order = priced.sorted_order[priced.thresholds <= budget]
    if order.size == 0:
        raise BudgetError(f"no configuration fits within {budget} rbes")
    return allocations_from_flat(
        priced, order[_frontier_positions(priced.area_grid[order])]
    )


def allocations_from_flat(
    priced: PricedSpace, flat: np.ndarray
) -> list[Allocation]:
    """Materialize :class:`Allocation` objects for flat grid indices.

    The area/CPI values come straight from the priced grids, so any
    caller that selects the same indices as the brute-force path gets
    bit-identical allocations.
    """
    area = priced.area_grid[flat]
    cpi = priced.cpi_grid[flat]
    n_d = len(priced.dcache_keys)
    ti, rem = np.divmod(flat, len(priced.icache_keys) * n_d)
    ii, di = np.divmod(rem, n_d)
    return [
        Allocation(
            config=MemSystemConfig(
                priced.tlb_keys[t], priced.icache_keys[i], priced.dcache_keys[d]
            ),
            area_rbe=float(a),
            cpi=float(c),
        )
        for t, i, d, a, c in zip(
            ti.tolist(), ii.tolist(), di.tolist(),
            area.tolist(), cpi.tolist(),
        )
    ]


_THRESHOLD_WALK_LIMIT = 128
"""ULP-walk bound for threshold search; the rounding error of the
feasibility arithmetic is a handful of ULPs, so hitting this bound
means the monotonicity assumption broke and the thresholds must not be
trusted."""


def _feasible_at(
    budgets: np.ndarray,
    t_area: np.ndarray,
    i_area: np.ndarray,
    d_area: np.ndarray,
) -> np.ndarray:
    """Element-wise replay of the reference feasibility predicate."""
    budget_left = (budgets - t_area) - i_area
    return (budget_left >= 0) & (d_area <= budget_left)


def _feasibility_thresholds(priced: PricedSpace) -> np.ndarray:
    """Exact per-entry feasibility thresholds, in grid order (see
    :attr:`PricedSpace.thresholds`).

    Starts each entry at its ``area_grid`` value, walks up one ULP at a
    time until the reference predicate holds, then walks down while the
    next-lower float still satisfies it — yielding the minimal float
    budget per entry.  The first test of each walk covers the whole
    grid by broadcasting; later steps cover only the unsettled entries.
    Both walks are bounded; the predicate's rounding error is a few
    ULPs, so the bound is never approached on real spaces.
    """
    n_t, n_i, n_d = (
        len(priced.tlb_keys), len(priced.icache_keys), len(priced.dcache_keys)
    )

    def feasible(budgets: np.ndarray, flat: np.ndarray | None = None):
        """The predicate at ``budgets``: for every entry in grid order,
        or for the entries ``flat``."""
        if flat is None:
            return _feasible_at(
                budgets.reshape(n_t, n_i, n_d),
                priced.t_area[:, None, None],
                priced.i_area[:, None],
                priced.d_area,
            ).ravel()
        t, rest = np.divmod(flat, n_i * n_d)
        i, d = np.divmod(rest, n_d)
        return _feasible_at(
            budgets, priced.t_area[t], priced.i_area[i], priced.d_area[d]
        )

    thresholds = priced.area_grid.astype(np.float64)

    # Walk up until feasible at the candidate budget.
    pending = np.flatnonzero(~feasible(thresholds))
    for _ in range(_THRESHOLD_WALK_LIMIT):
        if pending.size == 0:
            break
        thresholds[pending] = np.nextafter(thresholds[pending], np.inf)
        pending = pending[~feasible(thresholds[pending], pending)]
    else:
        raise AssertionError(
            "feasibility threshold search did not converge upward; "
            "the feasibility predicate is not behaving monotonically"
        )

    # Walk down while the next-lower float is still feasible.
    pending = np.flatnonzero(feasible(np.nextafter(thresholds, -np.inf)))
    for _ in range(_THRESHOLD_WALK_LIMIT):
        if pending.size == 0:
            break
        thresholds[pending] = np.nextafter(thresholds[pending], -np.inf)
        lower = np.nextafter(thresholds[pending], -np.inf)
        pending = pending[feasible(lower, pending)]
    else:
        raise AssertionError(
            "feasibility threshold search did not converge downward; "
            "the feasibility predicate is not behaving monotonically"
        )
    return thresholds


def _frontier_positions(values: np.ndarray) -> np.ndarray:
    """Positions where ``values`` is a strict running minimum.

    Over a (cpi, area)-ranked area sequence this is exactly
    :func:`~repro.service.engine.pareto_frontier`'s scan: a rank
    position joins iff its area is strictly below every earlier area.
    """
    if values.size == 0:
        return np.empty(0, dtype=np.intp)
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    keep[1:] = values[1:] < np.minimum.accumulate(values)[:-1]
    return np.flatnonzero(keep)


# ---------------------------------------------------------------------------
# Ordering contract (tie-breaks at exact-budget boundaries)
#
# rank_priced, best_many and pareto_priced order allocations by
# ascending (cpi, area_rbe, flat enumeration index), where the flat
# index is the (tlb, icache, dcache) position in the priced space's key
# tuples: that is PricedSpace.sorted_order.  Feasibility takes one of
# two predicates:
#
# * Without a power budget, the *reference predicate* of
#   Allocator._rank_reference, ``budget_left = (B - t_area) - i_area;
#   budget_left >= 0 and d_area <= budget_left``, float subtraction
#   order included.  PricedSpace.thresholds holds, per entry, the
#   smallest float budget at which it holds, so ``thresholds <= B`` is
#   the predicate bit for bit, even one ULP either side of an entry's
#   area (tests/core/test_tie_breaks.py holds this).
# * With a power budget, the summed totals ``area_grid <= B and
#   power_grid <= P``.  Rankings match the reference predicate's except
#   possibly at budgets within a few ULPs of an entry's area; the
#   power axis has no walked thresholds.
# ---------------------------------------------------------------------------


def flat_index(priced: PricedSpace, t: int, i: int, d: int) -> int:
    """The flat grid index of a (tlb, icache, dcache) key triple."""
    return (t * len(priced.icache_keys) + i) * len(priced.dcache_keys) + d


class Allocator:
    """Cost/benefit allocator over the Table 5 space.

    Args:
        curves: measured benefit curves (typically the Mach suite).
        cpi_model: penalty model (paper defaults).
        budget_rbes: area budget (250,000 rbe in the paper).
    """

    def __init__(
        self,
        curves: BenefitCurves | StructureCurves,
        cpi_model: CpiModel | None = None,
        budget_rbes: float = DEFAULT_BUDGET_RBES,
    ):
        self.curves = curves
        self.cpi_model = cpi_model if cpi_model is not None else CpiModel()
        self.budget_rbes = budget_rbes

    def price(
        self,
        max_cache_assoc: int | None = None,
        tlbs: list[TlbConfig] | None = None,
        icaches: list[CacheConfig] | None = None,
        dcaches: list[CacheConfig] | None = None,
        max_access_time_ns: float | None = None,
    ) -> PricedSpace:
        """Price the configuration space once, independent of budget.

        Args:
            max_cache_assoc: cap on cache associativity (2 reproduces
                Table 7's access-time restriction; None gives Table 6).
            tlbs / icaches / dcaches: override the Table 5 points.
            max_access_time_ns: optional cycle-time constraint applied
                with the Wada-style access-time extension — the
                paper's named future work: structures slower than this
                bound are excluded instead of approximating the bound
                with an associativity cap.
        """
        tlbs = tlbs if tlbs is not None else enumerate_tlb_configs()
        icaches = icaches if icaches is not None else enumerate_cache_configs()
        dcaches = dcaches if dcaches is not None else enumerate_cache_configs()
        if max_access_time_ns is not None:
            from repro.areamodel.access_time import (
                cache_access_time_ns,
                tlb_access_time_ns,
            )

            tlbs = [
                t
                for t in tlbs
                if tlb_access_time_ns(t.entries, t.assoc) <= max_access_time_ns
            ]
            icaches = [
                c
                for c in icaches
                if cache_access_time_ns(c.capacity_bytes, c.line_words, c.assoc)
                <= max_access_time_ns
            ]
            dcaches = [
                c
                for c in dcaches
                if cache_access_time_ns(c.capacity_bytes, c.line_words, c.assoc)
                <= max_access_time_ns
            ]

        # Per-structure areas and CPI contributions are independent, so
        # precompute them once instead of per combination.
        tlb_cost = {t: (t.area_rbe(), self.cpi_model.tlb_cpi(self.curves, t)) for t in tlbs}
        icache_cost = {
            c: (c.area_rbe(), self.cpi_model.icache_cpi(self.curves, c))
            for c in icaches
            if max_cache_assoc is None or c.assoc <= max_cache_assoc
        }
        dcache_cost = {
            c: (c.area_rbe(), self.cpi_model.dcache_cpi(self.curves, c))
            for c in dcaches
            if max_cache_assoc is None or c.assoc <= max_cache_assoc
        }
        fixed_cpi = 1.0 + self.curves.other_cpi + self.curves.wb_stall_per_instr

        # Vectorized pricing: per-structure areas and CPI contributions
        # broadcast over the (tlb, icache, dcache) cross product.  The
        # float-operation order matches the interpreted triple loop in
        # _rank_reference (held identical by the tests), so results are
        # bit-for-bit the same, including tie-breaking by enumeration
        # order once sorted_order's stable sort runs.
        tlb_keys = list(tlb_cost)
        ic_keys = list(icache_cost)
        dc_keys = list(dcache_cost)
        t_area = np.array([tlb_cost[t][0] for t in tlb_keys], dtype=np.float64)
        t_cpi = np.array([tlb_cost[t][1] for t in tlb_keys], dtype=np.float64)
        i_area = np.array([icache_cost[c][0] for c in ic_keys], dtype=np.float64)
        i_cpi = np.array([icache_cost[c][1] for c in ic_keys], dtype=np.float64)
        d_area = np.array([dcache_cost[c][0] for c in dc_keys], dtype=np.float64)
        d_cpi = np.array([dcache_cost[c][1] for c in dc_keys], dtype=np.float64)

        area_grid = (
            (t_area[:, None] + i_area[None, :])[:, :, None] + d_area
        ).ravel()
        cpi_grid = (
            ((fixed_cpi + t_cpi)[:, None] + i_cpi)[:, :, None] + d_cpi
        ).ravel()
        return PricedSpace(
            tlb_keys=tuple(tlb_keys),
            icache_keys=tuple(ic_keys),
            dcache_keys=tuple(dc_keys),
            t_area=t_area,
            i_area=i_area,
            d_area=d_area,
            fixed_cpi=fixed_cpi,
            area_grid=area_grid,
            cpi_grid=cpi_grid,
            t_cpi=t_cpi,
            i_cpi=i_cpi,
            d_cpi=d_cpi,
        )

    def rank(
        self,
        max_cache_assoc: int | None = None,
        tlbs: list[TlbConfig] | None = None,
        icaches: list[CacheConfig] | None = None,
        dcaches: list[CacheConfig] | None = None,
        limit: int | None = None,
        max_access_time_ns: float | None = None,
    ) -> list[Allocation]:
        """Rank feasible allocations by total CPI (best first).

        Accepts the same space arguments as :meth:`price`; ``limit``
        truncates the ranking.  Equivalent to pricing once and calling
        :func:`rank_priced` with this allocator's budget.

        Raises:
            BudgetError: if no configuration fits the budget.
        """
        priced = self.price(
            max_cache_assoc=max_cache_assoc,
            tlbs=tlbs,
            icaches=icaches,
            dcaches=dcaches,
            max_access_time_ns=max_access_time_ns,
        )
        return rank_priced(priced, self.budget_rbes, limit=limit)

    def _rank_reference(
        self,
        max_cache_assoc: int | None = None,
        tlbs: list[TlbConfig] | None = None,
        icaches: list[CacheConfig] | None = None,
        dcaches: list[CacheConfig] | None = None,
        limit: int | None = None,
    ) -> list[Allocation]:
        """Interpreted twin of :meth:`rank` (the original triple loop).

        Kept as the baseline the differential tests hold :meth:`rank`
        bit-identical to.
        """
        tlbs = tlbs if tlbs is not None else enumerate_tlb_configs()
        icaches = icaches if icaches is not None else enumerate_cache_configs()
        dcaches = dcaches if dcaches is not None else enumerate_cache_configs()
        tlb_cost = {t: (t.area_rbe(), self.cpi_model.tlb_cpi(self.curves, t)) for t in tlbs}
        icache_cost = {
            c: (c.area_rbe(), self.cpi_model.icache_cpi(self.curves, c))
            for c in icaches
            if max_cache_assoc is None or c.assoc <= max_cache_assoc
        }
        dcache_cost = {
            c: (c.area_rbe(), self.cpi_model.dcache_cpi(self.curves, c))
            for c in dcaches
            if max_cache_assoc is None or c.assoc <= max_cache_assoc
        }
        fixed_cpi = 1.0 + self.curves.other_cpi + self.curves.wb_stall_per_instr

        feasible: list[Allocation] = []
        for tlb, (tlb_area, tlb_cpi) in tlb_cost.items():
            for icache, (i_area, i_cpi) in icache_cost.items():
                budget_left = self.budget_rbes - tlb_area - i_area
                if budget_left < 0:
                    continue
                for dcache, (d_area, d_cpi) in dcache_cost.items():
                    if d_area > budget_left:
                        continue
                    feasible.append(
                        Allocation(
                            config=MemSystemConfig(tlb, icache, dcache),
                            area_rbe=tlb_area + i_area + d_area,
                            cpi=fixed_cpi + tlb_cpi + i_cpi + d_cpi,
                        )
                    )
        if not feasible:
            raise BudgetError(
                f"no configuration fits within {self.budget_rbes} rbes"
            )
        feasible.sort(key=lambda a: (a.cpi, a.area_rbe))
        return feasible[:limit] if limit is not None else feasible

    def best(self, **kwargs) -> Allocation:
        """The single lowest-CPI feasible allocation."""
        return self.rank(limit=1, **kwargs)[0]
