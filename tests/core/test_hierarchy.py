"""Tests for the two-level (L1/L2) allocation space builder.

A reduced measured grid (2-16KB caches, split at 8/16KB) keeps the
cross product small enough that the exhaustive reference can sweep
many budgets, so frontier-vs-exhaustive runs bitwise here; the slow
tests repeat it on the full ~10^7-point space of each OS.
"""

import numpy as np
import pytest

from repro.core.configs import CacheConfig, TlbConfig
from repro.core.cpi import CpiModel
from repro.core.hierarchy import (
    DEFAULT_L2_HIT_CYCLES,
    build_two_level_space,
)
from repro.core.measure import measure_workload
from repro.core.multiopt import exhaustive_best_many
from repro.errors import BudgetError
from repro.units import KB

GRID = dict(
    capacities=(2 * KB, 4 * KB, 8 * KB, 16 * KB),
    lines=(4, 8),
    assocs=(1, 2),
    tlb_entries=(64, 128),
    tlb_assocs=(1, 2),
    tlb_full_max=64,
    references=60_000,
)
L1_MAX = 8 * KB
L2_MIN = 16 * KB


def assert_matches_exhaustive(space, budget, power_budget):
    """space.best equals the exhaustive optimum bit for bit (choice,
    area, cpi, power), and both agree when nothing fits."""
    try:
        exact = space.best_exhaustive(budget, power_budget_mw=power_budget)
    except BudgetError:
        with pytest.raises(BudgetError):
            space.best(budget, power_budget_mw=power_budget)
        return
    assert space.best(budget, power_budget_mw=power_budget) == exact


@pytest.fixture(scope="module")
def curves():
    return measure_workload("ousterhout", "mach", **GRID)


@pytest.fixture(scope="module")
def space(curves):
    return build_two_level_space(
        curves, l1_max_bytes=L1_MAX, l2_min_bytes=L2_MIN
    )


class TestBuild:
    def test_structure_order_and_split(self, space):
        assert [s.name for s in space.structures] == [
            "tlb",
            "l1i",
            "l1d",
            "l2",
        ]
        tlb, l1i, l1d, l2 = space.structures
        assert all(cap <= L1_MAX for cap, _, _ in l1i.keys)
        assert all(cap <= L1_MAX for cap, _, _ in l1d.keys)
        assert all(cap >= L2_MIN for cap, _, _ in l2.keys)
        assert l1i.keys == l1d.keys

    def test_size_is_cross_product(self, space):
        expect = 1
        for s in space.structures:
            assert len(s.areas) == len(s.cpis) == len(s.keys)
            expect *= len(s.keys)
        assert space.size == expect

    def test_fixed_cpi_and_provenance(self, space, curves):
        assert space.fixed_cpi == pytest.approx(
            1.0 + curves.other_cpi + curves.wb_stall_per_instr
        )
        assert space.os_name == curves.os_name
        assert space.workload == curves.workload
        assert space.l2_hit_cycles == DEFAULT_L2_HIT_CYCLES

    def test_l1_terms_price_misses_at_l2_hit_time(self, space, curves):
        """L1 CPI terms are miss ratio x l2_hit_cycles (x loads/instr
        on the D-side); the L2 term carries the remaining penalty."""
        model = CpiModel()
        _, l1i, l1d, l2 = space.structures
        lpi = curves.loads_per_instr
        hit = space.l2_hit_cycles
        for j, key in enumerate(l1i.keys):
            miss = curves.icache_miss_ratio(CacheConfig(*key))
            assert l1i.cpis[j] == pytest.approx(miss * hit)
        for j, key in enumerate(l1d.keys):
            miss = curves.dcache_miss_ratio(CacheConfig(*key))
            assert l1d.cpis[j] == pytest.approx(miss * hit * lpi)
        for j, key in enumerate(l2.keys):
            mi = curves.icache_miss_ratio(CacheConfig(*key))
            md = curves.dcache_miss_ratio(CacheConfig(*key))
            remain = model.cache_penalty(key[1]) - hit
            assert l2.cpis[j] == pytest.approx((mi + md * lpi) * remain)

    def test_power_curves_present_and_optional(self, space):
        """Every curve carries power, so the one frontier answers both
        area-only and area x power queries (power is optional per
        query, not per space)."""
        for s in space.structures:
            assert s.powers.shape == s.areas.shape
            assert np.all(s.powers > 0)
        assert 0 < len(space.frontier) < space.size

    def test_empty_level_split_rejected(self, curves):
        with pytest.raises(ValueError, match="no design points"):
            build_two_level_space(
                curves, l1_max_bytes=1 * KB, l2_min_bytes=L2_MIN
            )
        with pytest.raises(ValueError, match="no design points"):
            build_two_level_space(
                curves, l1_max_bytes=L1_MAX, l2_min_bytes=64 * KB
            )

    def test_l2_hit_slower_than_memory_rejected(self, curves):
        with pytest.raises(ValueError, match="l2_hit_cycles"):
            build_two_level_space(
                curves,
                l1_max_bytes=L1_MAX,
                l2_min_bytes=L2_MIN,
                l2_hit_cycles=10_000,
            )


class TestSearch:
    def _budgets(self, space, n=25, seed=3):
        totals = [float(np.min(s.areas)) for s in space.structures]
        lo = sum(totals)
        hi = sum(float(np.max(s.areas)) for s in space.structures)
        rng = np.random.default_rng(seed)
        return rng.uniform(lo * 0.9, hi * 1.05, n)

    def test_greedy_matches_exhaustive(self, space):
        for budget in self._budgets(space):
            assert_matches_exhaustive(space, float(budget), None)

    def test_greedy_power_never_beats_exhaustive(self, space):
        """Joint budgets are exact too: the frontier equals the
        exhaustive optimum."""
        powers = [float(np.median(s.powers)) for s in space.structures]
        power_budget = sum(powers) * 1.1
        for budget in self._budgets(space, n=10, seed=5):
            assert_matches_exhaustive(space, float(budget), power_budget)

    def test_best_cpi_monotone_in_budget(self, space):
        budgets = np.sort(self._budgets(space, n=12, seed=9))
        last = np.inf
        for budget in budgets:
            try:
                result = space.best(float(budget))
            except BudgetError:
                continue
            assert result.cpi <= last or np.isclose(result.cpi, last)
            last = result.cpi

    def test_bigger_tlb_keys_sorted_after_smaller(self, space):
        tlb = space.structures[0]
        entries = [k[0] for k in tlb.keys]
        assert entries == sorted(entries)


@pytest.fixture(scope="module", params=["mach", "ultrix"])
def full_space(request):
    """The whole [TLB, L1I, L1D, L2] space (~10^7 points) of an OS."""
    return build_two_level_space(
        measure_workload("ousterhout", request.param, references=60_000)
    )


@pytest.mark.slow
def test_full_two_level_space_matches_exhaustive(full_space):
    """8 area budgets and 4 joint area x power budgets across the
    feasible range of each OS's whole space, each bit-identical to the
    exhaustive scan."""
    space = full_space
    assert space.size > 10**7

    def span(values):
        lo = float(sum(v.min() for v in values))
        return lo, float(sum(v.max() for v in values)) - lo

    area_lo, area_span = span([s.areas for s in space.structures])
    power_lo, power_span = span([s.powers for s in space.structures])
    budgets = [(area_lo + area_span * i / 9, None) for i in range(1, 9)]
    budgets += [
        (area_lo + area_span * area_frac, power_lo + power_span * power_frac)
        for area_frac, power_frac in ((0.2, 0.6), (0.4, 0.3), (0.6, 0.2), (0.8, 0.4))
    ]
    # One pass over the cross product answers all 12 budgets.
    exact = exhaustive_best_many(
        list(space.structures), budgets, fixed_cpi=space.fixed_cpi
    )
    for (budget, power_budget), want in zip(budgets, exact):
        if want is None:
            with pytest.raises(BudgetError):
                space.best(budget, power_budget_mw=power_budget)
        else:
            assert space.best(budget, power_budget_mw=power_budget) == want


@pytest.mark.slow
def test_every_frontier_point_answers_its_own_budgets(full_space):
    """Every point the frontier keeps is what a query at its own area
    and power budgets returns, so the frontier holds no dead point."""
    frontier = full_space.frontier
    sizes = [s.size for s in full_space.structures]
    for area, power, cpi, flat in zip(*frontier.points, frontier.flat):
        got = full_space.best(area, power_budget_mw=power)
        assert np.ravel_multi_index(got.choice, sizes) == flat
        assert (got.area, got.power, got.cpi) == (area, power, cpi)
