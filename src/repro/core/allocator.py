"""Budgeted allocation of on-chip memory (Tables 6 and 7).

Enumerate the Table 5 configuration space, price every TLB + I-cache +
D-cache combination with the MQF model, keep those under the area
budget, score each with composed CPI, and rank.

Pricing is independent of the budget, so it is factored into
:class:`PricedSpace` — per-structure area and CPI arrays plus the
precomputed cross-product grids — and :func:`rank_priced` answers any
budget against a priced space without re-pricing.  The query service
(``repro.service``) keeps priced spaces warm to answer budget sweeps;
:meth:`Allocator.rank` is the same two steps composed.
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
        """Area of the cheapest combination (the smallest satisfiable
        budget)."""
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
        return np.lexsort((self.area_grid, self.cpi_grid))

    @cached_property
    def budget_index(self) -> "BudgetIndex":
        """The precomputed budget index (built once per priced space)."""
        return build_budget_index(self)

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
    priced: PricedSpace, budget_rbes: float, limit: int | None = None
) -> list[Allocation]:
    """Rank feasible allocations of a priced space under one budget.

    Bit-identical to :meth:`Allocator._rank_reference`: the feasibility
    mask replays the reference loop's ``budget_left`` arithmetic, and
    the stable lexsort keeps ties on (cpi, area) in flat enumeration
    order, exactly like ``list.sort`` on the loop-built list.

    Raises:
        BudgetError: if no combination fits the budget.
    """
    t_area, i_area, d_area = priced.t_area, priced.i_area, priced.d_area
    budget_left = budget_rbes - t_area[:, None] - i_area[None, :]
    feasible_mask = (budget_left[:, :, None] >= 0) & (
        d_area[None, None, :] <= budget_left[:, :, None]
    )
    # Filter the once-per-space sorted order by feasibility instead of
    # lexsorting the feasible subset per budget: same ranking (stable
    # sort), no per-query sort.
    order_all = priced.sorted_order
    ranked = order_all[feasible_mask.ravel()[order_all]]
    if ranked.size == 0:
        raise BudgetError(f"no configuration fits within {budget_rbes} rbes")
    if limit is not None:
        ranked = ranked[:limit]
    return allocations_from_flat(priced, ranked)


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


@dataclass(frozen=True)
class BudgetIndex:
    """Precomputed query structure over one :class:`PricedSpace`.

    The paper's allocation answer is a fixed ranking over a priced
    space, so every budget query is an index lookup in disguise.  This
    index precomputes, once per priced space:

    * ``thresholds`` — per flat grid entry, the *exact* smallest
      float64 budget at which :func:`rank_priced`'s feasibility test
      (``budget_left = (B - t_area) - i_area; budget_left >= 0 and
      d_area <= budget_left``) holds.  The test is monotone in ``B``
      (float subtraction is monotone), but its float rounding means
      the threshold can sit a few ULPs off the entry's ``area_grid``
      value — so the threshold is found by a bounded ``nextafter``
      walk and verified against the reference predicate, making
      ``thresholds[j] <= B`` *bit-identical* to the reference mask for
      every float budget, including budgets landing exactly on (or one
      ULP around) an entry's area.
    * ``thr_by_rank`` — thresholds permuted into ``sorted_order`` (the
      (cpi, area, enumeration) total order), so a ranked feasible list
      is one boolean gather instead of a 3-D broadcast mask.
    * ``thr_sorted`` / ``best_prefix`` — thresholds ascending plus a
      running minimum of rank position over that order: the best
      allocation under budget ``B`` is ``searchsorted`` + one lookup,
      and a batch of M budgets is answered in a single broadcast pass.
    * ``frontier_ranks`` — the full-space (area, CPI) Pareto frontier
      as positions into ``sorted_order``, so unconstrained Pareto
      queries return a cached slice.
    """

    thresholds: np.ndarray
    thr_by_rank: np.ndarray
    thr_sorted: np.ndarray
    best_prefix: np.ndarray
    frontier_ranks: np.ndarray

    @property
    def size(self) -> int:
        return self.thresholds.size


_THRESHOLD_WALK_LIMIT = 128
"""ULP-walk bound for threshold search; the rounding error of the
feasibility arithmetic is a handful of ULPs, so hitting this bound
means the monotonicity assumption broke and the index must not be
trusted."""


def _feasible_at(
    budgets: np.ndarray,
    t_flat: np.ndarray,
    i_flat: np.ndarray,
    d_flat: np.ndarray,
) -> np.ndarray:
    """Element-wise replay of the reference feasibility predicate."""
    budget_left = (budgets - t_flat) - i_flat
    return (budget_left >= 0) & (d_flat <= budget_left)


def _feasibility_thresholds(priced: PricedSpace) -> np.ndarray:
    """Exact per-entry feasibility thresholds (see :class:`BudgetIndex`).

    Starts each entry at its ``area_grid`` value, walks up one ULP at a
    time until the reference predicate holds, then walks down while the
    next-lower float still satisfies it — yielding the minimal float
    budget per entry.  Both walks are vectorized over the unsettled
    subset and bounded; the predicate's rounding error is a few ULPs,
    so the bound is never approached on real spaces.
    """
    n_i, n_d = len(priced.icache_keys), len(priced.dcache_keys)
    t_flat = np.repeat(priced.t_area, n_i * n_d)
    i_flat = np.tile(np.repeat(priced.i_area, n_d), len(priced.tlb_keys))
    d_flat = np.tile(priced.d_area, len(priced.tlb_keys) * n_i)
    thresholds = priced.area_grid.astype(np.float64).copy()

    # Walk up until feasible at the candidate budget.
    pending = np.flatnonzero(
        ~_feasible_at(thresholds, t_flat, i_flat, d_flat)
    )
    for _ in range(_THRESHOLD_WALK_LIMIT):
        if pending.size == 0:
            break
        thresholds[pending] = np.nextafter(thresholds[pending], np.inf)
        ok = _feasible_at(
            thresholds[pending], t_flat[pending], i_flat[pending],
            d_flat[pending],
        )
        pending = pending[~ok]
    else:
        raise AssertionError(
            "budget-index threshold search did not converge upward; "
            "the feasibility predicate is not behaving monotonically"
        )

    # Walk down while the next-lower float is still feasible.
    pending = np.arange(thresholds.size)
    for _ in range(_THRESHOLD_WALK_LIMIT):
        lower = np.nextafter(thresholds[pending], -np.inf)
        ok = _feasible_at(
            lower, t_flat[pending], i_flat[pending], d_flat[pending]
        )
        if not ok.any():
            break
        thresholds[pending[ok]] = lower[ok]
        pending = pending[ok]
    else:
        raise AssertionError(
            "budget-index threshold search did not converge downward; "
            "the feasibility predicate is not behaving monotonically"
        )
    return thresholds


def _frontier_positions(areas_by_rank: np.ndarray) -> np.ndarray:
    """Frontier membership over a (cpi, area)-ranked area sequence.

    Exactly :func:`~repro.service.engine.pareto_frontier`'s scan: a
    rank position joins iff its area is strictly below every earlier
    area.  Vectorized as a running minimum.
    """
    if areas_by_rank.size == 0:
        return np.empty(0, dtype=np.intp)
    keep = np.empty(areas_by_rank.size, dtype=bool)
    keep[0] = True
    keep[1:] = areas_by_rank[1:] < np.minimum.accumulate(areas_by_rank)[:-1]
    return np.flatnonzero(keep)


def build_budget_index(priced: PricedSpace) -> BudgetIndex:
    """Build the budget index for a priced space (see :class:`BudgetIndex`)."""
    thresholds = _feasibility_thresholds(priced)
    order = priced.sorted_order
    thr_by_rank = thresholds[order]
    # Rank position per threshold-sorted entry; the best feasible
    # allocation under B is the smallest rank among entries whose
    # threshold is <= B, read off a prefix minimum.
    thr_argsort = np.argsort(thresholds, kind="stable")
    thr_sorted = thresholds[thr_argsort]
    inv_rank = np.empty(order.size, dtype=np.intp)
    inv_rank[order] = np.arange(order.size)
    best_prefix = np.minimum.accumulate(inv_rank[thr_argsort])
    frontier_ranks = _frontier_positions(priced.area_grid[order])
    return BudgetIndex(
        thresholds=thresholds,
        thr_by_rank=thr_by_rank,
        thr_sorted=thr_sorted,
        best_prefix=best_prefix,
        frontier_ranks=frontier_ranks,
    )


def rank_indexed(
    priced: PricedSpace, budget_rbes: float, limit: int | None = None
) -> list[Allocation]:
    """Index-backed twin of :func:`rank_priced` — bit-identical output.

    ``limit=1`` is ``searchsorted`` + one prefix-minimum lookup;
    other limits gather the feasible prefix of the precomputed rank
    order.  Neither path re-sorts or builds the 3-D feasibility mask.

    Raises:
        BudgetError: if no combination fits the budget.
    """
    index = priced.budget_index
    if limit == 1:
        position = int(
            np.searchsorted(index.thr_sorted, budget_rbes, side="right")
        )
        if position == 0:
            raise BudgetError(
                f"no configuration fits within {budget_rbes} rbes"
            )
        ranks = index.best_prefix[position - 1 : position]
    else:
        ranks = np.flatnonzero(index.thr_by_rank <= budget_rbes)
        if ranks.size == 0:
            raise BudgetError(
                f"no configuration fits within {budget_rbes} rbes"
            )
        if limit is not None:
            ranks = ranks[:limit]
    return allocations_from_flat(priced, priced.sorted_order[ranks])


def batch_best_indexed(
    priced: PricedSpace, budgets_rbes: np.ndarray | list[float]
) -> list[list[Allocation]]:
    """The best allocation per budget, for M budgets in one pass.

    One vectorized ``searchsorted`` + gather answers the whole sweep —
    no per-budget ranking.  Infeasible budgets yield empty lists, the
    same degradation :meth:`QueryEngine.batch` applies.
    """
    budgets = np.asarray(budgets_rbes, dtype=np.float64)
    index = priced.budget_index
    if index.size == 0:
        return [[] for _ in budgets]
    positions = np.searchsorted(index.thr_sorted, budgets, side="right")
    feasible = positions > 0
    ranks = index.best_prefix[np.maximum(positions - 1, 0)]
    flat = priced.sorted_order[ranks]
    best = allocations_from_flat(priced, flat)
    return [
        [best[i]] if feasible[i] else [] for i in range(len(budgets))
    ]


def pareto_indexed(
    priced: PricedSpace, max_budget: float | None = None
) -> list[Allocation]:
    """The (area, CPI) Pareto frontier under a budget, off the index.

    Unconstrained queries slice the cached full-space frontier; budget-
    capped queries re-run the running-minimum scan over the feasible
    prefix of the rank order (one vectorized pass), because the
    restricted frontier is *not* always a subset of the full one when
    a budget lands between two equal-area entries' thresholds.

    Raises:
        BudgetError: if no combination fits the budget.
    """
    index = priced.budget_index
    if index.size == 0:
        raise BudgetError("the priced space is empty; nothing is feasible")
    if max_budget is None or max_budget >= index.thr_sorted[-1]:
        ranks = index.frontier_ranks
    else:
        feasible_ranks = np.flatnonzero(index.thr_by_rank <= max_budget)
        if feasible_ranks.size == 0:
            raise BudgetError(
                f"no configuration fits within {max_budget} rbes"
            )
        areas = priced.area_grid[priced.sorted_order[feasible_ranks]]
        ranks = feasible_ranks[_frontier_positions(areas)]
    return allocations_from_flat(priced, priced.sorted_order[ranks])


# ---------------------------------------------------------------------------
# Ordering contract (tie-breaks at exact-budget boundaries)
#
# Every ranking path — rank_priced, rank_indexed, batch_best_indexed,
# pareto_indexed, and rank_priced_power below — orders allocations by
# ascending (cpi, area_rbe, flat enumeration index), where the flat
# index is (tlb, icache, dcache) position in the priced space's key
# tuples.  Feasibility at a budget B uses the *reference predicate*
# ``budget_left = (B - t_area) - i_area; budget_left >= 0 and d_area <=
# budget_left`` — float subtraction order included — so a budget equal
# to a configuration's area to the ULP admits exactly the entries the
# interpreted triple loop admits.  rank_indexed reproduces that
# predicate through the ULP-walked thresholds of BudgetIndex, which is
# why the two paths are bit-identical even one ULP either side of a
# boundary (tests/core/test_tie_breaks.py holds this).
#
# rank_priced_power uses mathematical sums (area_grid / power_grid)
# instead of the reference predicate: rankings are the same except
# possibly at budgets within a few ULPs of an entry's area.  Callers
# needing exact boundary semantics use rank_indexed.
# ---------------------------------------------------------------------------


def flat_index(priced: PricedSpace, t: int, i: int, d: int) -> int:
    """The flat grid index of a (tlb, icache, dcache) key triple."""
    return (t * len(priced.icache_keys) + i) * len(priced.dcache_keys) + d


def rank_priced_power(
    priced: PricedSpace,
    budget_rbes: float,
    power_budget_mw: float,
    limit: int | None = None,
) -> list[Allocation]:
    """Exact ranking under a joint area x power budget.

    Same (cpi, area, enumeration) order as :func:`rank_priced`;
    feasibility is the mathematical ``area_grid <= budget and
    power_grid <= power_budget`` (see the ordering contract above —
    the power axis has no ULP-walked index).

    Raises:
        BudgetError: if no combination fits the budgets.
    """
    feasible = (priced.area_grid <= budget_rbes) & (
        priced.power_grid <= power_budget_mw
    )
    order_all = priced.sorted_order
    ranked = order_all[feasible[order_all]]
    if ranked.size == 0:
        raise BudgetError(
            f"no configuration fits within {budget_rbes} rbes "
            f"and {power_budget_mw} mW"
        )
    if limit is not None:
        ranked = ranked[:limit]
    return allocations_from_flat(priced, ranked)


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
        # order once rank_priced's stable lexsort runs.
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
