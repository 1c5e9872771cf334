"""Two-level (L1/L2) allocation spaces over the exact frontier.

The paper's exhaustive study stops at a single cache level because the
cross product is already ~250k points; adding an L2 axis multiplies it
to ~10^7.  The frontier of :mod:`repro.core.multiopt` only needs the
objective to stay *separable* — a fixed term plus one additive CPI
contribution per structure — so this module builds a four-structure
space

    [tlb, l1i, l1d, l2]

from the same measured miss curves the single-level study uses:

* **TLB** — unchanged from the single-level model.
* **L1 I/D** — an L1 miss is now serviced by the L2 in
  ``l2_hit_cycles`` instead of going to memory, so the L1 terms are
  ``miss_ratio * l2_hit_cycles`` (times loads/instruction for the
  D-side, stores being write-through as in the paper).
* **L2 (unified)** — references that also miss the L2 pay the
  remainder of the memory penalty, ``cache_penalty(line_words) -
  l2_hit_cycles``.  The global L2 miss rate is approximated by the
  measured single-level miss curves evaluated *at the L2 geometry*:
  for LRU caches, stack inclusion makes the misses of the larger cache
  (nearly) a subset of the smaller one's, so the L2's global misses
  are (nearly) independent of which L1 sits in front.  This is the
  standard first-order approximation and is what keeps the objective
  separable; it is documented here rather than hidden.

An L2 is always present in this space.  A "no L2" design point cannot
be expressed separably (it would change the *L1* terms' penalty), so
the single-level question remains the job of
:class:`repro.core.allocator.Allocator` — the two spaces answer
different questions and the service layer exposes both.

:func:`build_two_level_space` builds the space's exact Pareto frontier
once; :meth:`TwoLevelSpace.best` answers every area-only and
area x power query from it, bit-identical to
:meth:`TwoLevelSpace.best_exhaustive`.  Enumeration order (the
tie-break order of both) is the sorted key order fixed by
:func:`build_two_level_space`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.areamodel.cache_area import cache_area_rbe
from repro.areamodel.power import cache_power_mw, tlb_power_mw
from repro.areamodel.tlb_area import FULLY_ASSOCIATIVE, tlb_area_rbe
from repro.core.configs import CacheConfig, TlbConfig
from repro.core.cpi import CpiModel
from repro.core.measure import BenefitCurves, StructureCurves
from repro.core.multiopt import (
    Frontier,
    Selection,
    StructureCurve,
    build_frontier,
    exhaustive_best,
)

DEFAULT_L2_HIT_CYCLES = 4
"""On-chip L2 hit service time, in cycles (paper-era SRAM L2)."""

DEFAULT_L1_MAX_BYTES = 32 * 1024
DEFAULT_L2_MIN_BYTES = 16 * 1024

# perfbench's design_sweep times queries by wrapping this name; it keeps
# its old name until that benchmark is revised.
greedy_allocate = Frontier.best


def _tlb_sort_key(key: tuple) -> tuple:
    entries, assoc = key
    # Fully-associative points sort after any set-associative way count.
    ways = entries + 1 if assoc == FULLY_ASSOCIATIVE else int(assoc)
    return (entries, ways)


@dataclass(frozen=True)
class TwoLevelSpace:
    """A priced two-level space with its exact Pareto frontier.

    Attributes:
        structures: the four :class:`StructureCurve`s in enumeration
            order [tlb, l1i, l1d, l2].
        fixed_cpi: base + other + write-buffer CPI (allocation
            invariant, as in the single-level model).
        l2_hit_cycles: the L1 miss service time baked into the curves.
        os_name / workload: provenance of the measured curves.
        frontier: the space's exact (area, power, cpi) frontier.
    """

    structures: tuple[StructureCurve, ...]
    fixed_cpi: float
    l2_hit_cycles: int
    os_name: str
    workload: str
    frontier: Frontier

    @property
    def size(self) -> int:
        """Number of points in the cross product."""
        return int(np.prod([len(s.areas) for s in self.structures]))

    def best(
        self, budget_rbes: float, power_budget_mw: float | None = None
    ) -> Selection:
        """The optimal allocation under the budget(s), from the frontier."""
        return greedy_allocate(self.frontier, budget_rbes, power_budget_mw)

    def best_exhaustive(
        self, budget_rbes: float, power_budget_mw: float | None = None
    ) -> Selection:
        """Exhaustive best allocation — the differential reference.

        Chunked-vectorized, but still O(size); on the full two-level
        space this is the slow side of the ``alloc_scaling`` bench.
        """
        return exhaustive_best(
            list(self.structures),
            budget_rbes,
            fixed_cpi=self.fixed_cpi,
            power_budget=power_budget_mw,
        )


def _measured_keys(curves: StructureCurves | BenefitCurves):
    """(tlb_keys, cache_keys) present in the measured grid."""
    base = (
        curves.per_workload[0]
        if isinstance(curves, BenefitCurves)
        else curves
    )
    return sorted(base.tlb, key=_tlb_sort_key), sorted(base.icache)


def build_two_level_space(
    curves: StructureCurves | BenefitCurves,
    cpi_model: CpiModel | None = None,
    l2_hit_cycles: int = DEFAULT_L2_HIT_CYCLES,
    l1_max_bytes: int = DEFAULT_L1_MAX_BYTES,
    l2_min_bytes: int = DEFAULT_L2_MIN_BYTES,
) -> TwoLevelSpace:
    """Build the four-structure two-level space from measured curves.

    Accepts a single workload's :class:`StructureCurves` or the
    suite-averaged :class:`BenefitCurves` (what the service engine
    holds).  L1 candidates are the measured cache design points with
    capacity <= ``l1_max_bytes``; L2 candidates are those with
    capacity >= ``l2_min_bytes`` (the ranges may overlap — a 16KB
    array can serve as either level, at different points of the
    space).

    Raises:
        ValueError: if a capacity split leaves a level empty, or if
            some L2 line size's memory penalty does not exceed
            ``l2_hit_cycles`` (the L2 term would go negative).
    """
    model = cpi_model or CpiModel()
    tlb_keys, cache_keys = _measured_keys(curves)

    t_area = np.array([tlb_area_rbe(n, a) for n, a in tlb_keys])
    t_cpi = np.array(
        [model.tlb_cpi(curves, TlbConfig(n, a)) for n, a in tlb_keys]
    )
    t_power = np.array([tlb_power_mw(n, a) for n, a in tlb_keys])

    l1_keys = [k for k in cache_keys if k[0] <= l1_max_bytes]
    l2_keys = [k for k in cache_keys if k[0] >= l2_min_bytes]
    if not l1_keys or not l2_keys:
        raise ValueError(
            f"capacity split l1<={l1_max_bytes} / l2>={l2_min_bytes} "
            "leaves a cache level with no design points"
        )
    for _, line_words, _ in l2_keys:
        if model.cache_penalty(line_words) <= l2_hit_cycles:
            raise ValueError(
                f"memory penalty for {line_words}-word lines does not "
                f"exceed l2_hit_cycles={l2_hit_cycles}"
            )

    def cache_areas(keys):
        return np.array([cache_area_rbe(*k) for k in keys])

    def cache_powers(keys):
        return np.array([cache_power_mw(*k) for k in keys])

    lpi = curves.loads_per_instr
    i_miss = {k: curves.icache_miss_ratio(CacheConfig(*k)) for k in cache_keys}
    d_miss = {k: curves.dcache_miss_ratio(CacheConfig(*k)) for k in cache_keys}

    i_cpi = np.array([i_miss[k] * l2_hit_cycles for k in l1_keys])
    d_cpi = np.array([d_miss[k] * l2_hit_cycles * lpi for k in l1_keys])
    l2_cpi = np.array(
        [
            (i_miss[k] + d_miss[k] * lpi)
            * (model.cache_penalty(k[1]) - l2_hit_cycles)
            for k in l2_keys
        ]
    )

    l1_areas = cache_areas(l1_keys)
    l1_powers = cache_powers(l1_keys)
    structures = (
        StructureCurve("tlb", t_area, t_cpi, tuple(tlb_keys), t_power),
        StructureCurve("l1i", l1_areas, i_cpi, tuple(l1_keys), l1_powers),
        StructureCurve("l1d", l1_areas, d_cpi, tuple(l1_keys), l1_powers),
        StructureCurve(
            "l2", cache_areas(l2_keys), l2_cpi, tuple(l2_keys),
            cache_powers(l2_keys),
        ),
    )
    fixed_cpi = 1.0 + curves.other_cpi + curves.wb_stall_per_instr
    return TwoLevelSpace(
        structures=structures,
        fixed_cpi=fixed_cpi,
        l2_hit_cycles=l2_hit_cycles,
        os_name=curves.os_name,
        workload=(
            "suite" if isinstance(curves, BenefitCurves) else curves.workload
        ),
        frontier=build_frontier(list(structures), fixed_cpi),
    )
