"""Tests for CPI composition and the budgeted allocator."""

import pytest

from repro.core.allocator import Allocator
from repro.core.configs import CacheConfig, MemSystemConfig, TlbConfig
from repro.core.cpi import CpiModel
from repro.core.measure import measure_workload
from repro.errors import BudgetError
from repro.units import KB

SMALL_GRID = dict(
    capacities=(2 * KB, 4 * KB, 8 * KB),
    lines=(4, 8),
    assocs=(1, 2),
    tlb_entries=(64, 128),
    tlb_assocs=(1, 2),
    tlb_full_max=64,
    references=70_000,
)


@pytest.fixture(scope="module")
def curves():
    return measure_workload("ousterhout", "mach", **SMALL_GRID)


@pytest.fixture(scope="module")
def space_kwargs():
    from repro.core.space import enumerate_cache_configs, enumerate_tlb_configs

    return dict(
        tlbs=enumerate_tlb_configs(entries=(64, 128), assocs=(1, 2)),
        icaches=enumerate_cache_configs(
            capacities=(2 * KB, 4 * KB, 8 * KB), lines=(4, 8), assocs=(1, 2)
        ),
        dcaches=enumerate_cache_configs(
            capacities=(2 * KB, 4 * KB, 8 * KB), lines=(4, 8), assocs=(1, 2)
        ),
    )


class TestCpiModel:
    def test_cache_penalty(self):
        model = CpiModel()
        assert model.cache_penalty(1) == 6
        assert model.cache_penalty(8) == 13

    def test_total_is_sum_of_parts(self, curves):
        model = CpiModel()
        config = MemSystemConfig(
            TlbConfig(64, 2), CacheConfig(8 * KB, 4, 1), CacheConfig(4 * KB, 4, 1)
        )
        total = model.total_cpi(curves, config)
        parts = (
            1.0
            + curves.other_cpi
            + curves.wb_stall_per_instr
            + model.icache_cpi(curves, config.icache)
            + model.dcache_cpi(curves, config.dcache)
            + model.tlb_cpi(curves, config.tlb)
        )
        assert total == pytest.approx(parts)

    def test_include_fixed_false(self, curves):
        model = CpiModel()
        config = MemSystemConfig(
            TlbConfig(64, 2), CacheConfig(8 * KB, 4, 1), CacheConfig(4 * KB, 4, 1)
        )
        variable = model.total_cpi(curves, config, include_fixed=False)
        assert variable < model.total_cpi(curves, config)

    def test_penalties_are_parameters(self, curves):
        cheap = CpiModel(tlb_kernel_penalty=20)
        costly = CpiModel(tlb_kernel_penalty=800)
        config = TlbConfig(64, 1)
        assert costly.tlb_cpi(curves, config) >= cheap.tlb_cpi(curves, config)


class TestAllocator:
    def test_respects_budget(self, curves, space_kwargs):
        allocator = Allocator(curves, budget_rbes=80_000)
        for allocation in allocator.rank(**space_kwargs):
            assert allocation.area_rbe <= 80_000

    def test_sorted_by_cpi(self, curves, space_kwargs):
        allocator = Allocator(curves, budget_rbes=120_000)
        ranking = allocator.rank(**space_kwargs)
        cpis = [a.cpi for a in ranking]
        assert cpis == sorted(cpis)

    def test_best_is_first(self, curves, space_kwargs):
        allocator = Allocator(curves, budget_rbes=120_000)
        assert allocator.best(**space_kwargs) == allocator.rank(**space_kwargs)[0]

    def test_limit(self, curves, space_kwargs):
        allocator = Allocator(curves, budget_rbes=120_000)
        assert len(allocator.rank(limit=5, **space_kwargs)) == 5

    def test_assoc_restriction_never_improves_best(self, curves, space_kwargs):
        # Table 7's story: restricting cache associativity cannot beat
        # the unrestricted optimum.
        allocator = Allocator(curves, budget_rbes=120_000)
        free = allocator.best(**space_kwargs)
        restricted = allocator.best(max_cache_assoc=1, **space_kwargs)
        assert restricted.cpi >= free.cpi

    def test_bigger_budget_never_hurts(self, curves, space_kwargs):
        small = Allocator(curves, budget_rbes=60_000).best(**space_kwargs)
        large = Allocator(curves, budget_rbes=200_000).best(**space_kwargs)
        assert large.cpi <= small.cpi

    def test_impossible_budget_raises(self, curves, space_kwargs):
        allocator = Allocator(curves, budget_rbes=1_000)
        with pytest.raises(BudgetError):
            allocator.rank(**space_kwargs)

    def test_row_rendering(self, curves, space_kwargs):
        allocation = Allocator(curves, budget_rbes=120_000).best(**space_kwargs)
        row = allocation.row()
        assert {"tlb", "icache", "dcache", "total_cost_rbe", "total_cpi"} == set(row)


def _constant_curves(space_kwargs):
    """Synthetic curves where every same-line-size config scores the
    same CPI — a tie-heavy space for order-stability tests."""
    from repro.core.measure import StructureCurves

    icache = {
        (c.capacity_bytes, c.line_words, c.assoc): 0.01
        for c in space_kwargs["icaches"]
    }
    dcache = {
        (c.capacity_bytes, c.line_words, c.assoc): 0.02
        for c in space_kwargs["dcaches"]
    }
    tlb = {(t.entries, t.assoc): (50.0, 10.0) for t in space_kwargs["tlbs"]}
    return StructureCurves(
        workload="synthetic",
        os_name="mach",
        instructions=10_000,
        loads_per_instr=0.2,
        stores_per_instr=0.1,
        mapped_per_instr=1.1,
        other_cpi=0.3,
        wb_stall_per_instr=0.05,
        page_fault_per_instr=0.0,
        icache=icache,
        dcache=dcache,
        tlb=tlb,
    )


class TestAllocatorEdges:
    def test_budget_below_cheapest_raises(self, curves, space_kwargs):
        priced = Allocator(curves).price(**space_kwargs)
        cheapest = priced.min_area()
        allocator = Allocator(curves, budget_rbes=cheapest - 1.0)
        with pytest.raises(BudgetError):
            allocator.rank(**space_kwargs)

    def test_exact_budget_boundary_is_feasible(self, curves, space_kwargs):
        """A budget exactly equal to the cheapest configuration's area
        admits that configuration (<=, not <)."""
        priced = Allocator(curves).price(**space_kwargs)
        cheapest = priced.min_area()
        ranking = Allocator(curves, budget_rbes=cheapest).rank(**space_kwargs)
        assert len(ranking) >= 1
        assert all(a.area_rbe <= cheapest for a in ranking)
        assert any(a.area_rbe == cheapest for a in ranking)

    def test_exact_budget_admits_boundary_config(self, curves, space_kwargs):
        """Setting the budget to any mid-list configuration's exact
        area keeps that configuration feasible."""
        full = Allocator(curves, budget_rbes=float("inf")).rank(**space_kwargs)
        target = full[len(full) // 2]
        ranking = Allocator(curves, budget_rbes=target.area_rbe).rank(
            **space_kwargs
        )
        assert target in ranking
        assert all(a.area_rbe <= target.area_rbe for a in ranking)

    def test_cpi_ties_rank_in_stable_enumeration_order(self, space_kwargs):
        """With constant miss curves whole bands of configs tie on CPI;
        the vectorized rank must order them exactly like the reference
        loop (stable by enumeration order), run after run."""
        synthetic = _constant_curves(space_kwargs)
        allocator = Allocator(synthetic, budget_rbes=200_000)
        first = allocator.rank(**space_kwargs)
        second = allocator.rank(**space_kwargs)
        reference = allocator._rank_reference(**space_kwargs)
        assert first == second
        assert first == reference
        # The space really is tie-heavy — otherwise this tests nothing.
        cpis = [a.cpi for a in first]
        assert len(set(cpis)) < len(cpis)

    def test_priced_rank_matches_rank(self, curves, space_kwargs):
        from repro.core.allocator import rank_priced

        allocator = Allocator(curves, budget_rbes=120_000)
        priced = allocator.price(**space_kwargs)
        reference = allocator._rank_reference(**space_kwargs)
        assert rank_priced(priced, 120_000) == reference
        assert rank_priced(priced, 120_000, limit=1) == reference[:1]
