"""Boundary regression tests for the ordering contract.

The contract (documented above :class:`~repro.core.allocator.
Allocator`): rankings ascend by (cpi, area_rbe, flat enumeration
index), and feasibility at a budget uses the reference predicate
``budget_left = (B - t_area) - i_area; budget_left >= 0 and d_area <=
budget_left`` — float subtraction order included.  These tests pin the
contract at the adversarial points: budgets equal to an entry's exact
area and their one-ULP neighbours, where a wrong association order
admits or drops entries.

The frontier of :mod:`repro.core.multiopt` has its own boundary
obligation: at a budget exactly equal to a configuration's area, swap
combinations with bitwise-equal totals but different CPIs must still
resolve to the exhaustive optimum (a greedy allocator that once
answered here lost 2.3e-3 CPI on the small ultrix grid).
"""

import numpy as np
import pytest

from repro.core.allocator import Allocator, flat_index, rank_priced
from repro.core.measure import measure_workload
from repro.core.multiopt import build_frontier
from repro.core.space import enumerate_cache_configs, enumerate_tlb_configs
from repro.errors import BudgetError
from repro.units import KB

SMALL_GRID = dict(
    capacities=(2 * KB, 4 * KB, 8 * KB),
    lines=(4, 8),
    assocs=(1, 2),
    tlb_entries=(64, 128),
    tlb_assocs=(1, 2),
    tlb_full_max=64,
    references=60_000,
)


@pytest.fixture(scope="module", params=["mach", "ultrix"])
def fixture(request):
    curves = measure_workload("ousterhout", request.param, **SMALL_GRID)
    allocator = Allocator(curves)
    kwargs = dict(
        tlbs=enumerate_tlb_configs(
            SMALL_GRID["tlb_entries"],
            SMALL_GRID["tlb_assocs"],
            SMALL_GRID["tlb_full_max"],
        ),
        icaches=enumerate_cache_configs(
            SMALL_GRID["capacities"],
            SMALL_GRID["lines"],
            SMALL_GRID["assocs"],
        ),
        dcaches=enumerate_cache_configs(
            SMALL_GRID["capacities"],
            SMALL_GRID["lines"],
            SMALL_GRID["assocs"],
        ),
    )
    return allocator, allocator.price(**kwargs), kwargs


def _boundary_budgets(priced, n=12, seed=23):
    """Exact entry areas and their one-ULP neighbours."""
    areas = np.unique(np.asarray(priced.area_grid).ravel())
    rng = np.random.default_rng(seed)
    picks = rng.choice(areas, size=min(n, areas.size), replace=False)
    out = []
    for a in picks:
        out.extend([a, np.nextafter(a, -np.inf), np.nextafter(a, np.inf)])
    return out


def _rows(allocations):
    return [(a.config, a.area_rbe, a.cpi) for a in allocations]


class TestOrderingContract:
    def test_ranking_ascends_by_cpi_area_flat_index(self, fixture):
        """The documented sort key, verified against the flat index."""
        allocator, priced, kwargs = fixture
        budget = float(np.median(np.asarray(priced.area_grid).ravel()))
        ranked = rank_priced(priced, budget)
        keys = []
        for a in ranked:
            t = priced.tlb_keys.index(a.config.tlb)
            i = priced.icache_keys.index(a.config.icache)
            d = priced.dcache_keys.index(a.config.dcache)
            keys.append((a.cpi, a.area_rbe, flat_index(priced, t, i, d)))
        assert keys == sorted(keys)

    def test_reference_predicate_at_boundaries(self, fixture):
        """rank_priced == the interpreted triple loop, at exact entry
        areas and one ULP either side."""
        allocator, priced, kwargs = fixture
        for budget in _boundary_budgets(priced):
            allocator.budget_rbes = float(budget)
            expected = allocator._rank_reference(
                tlbs=list(kwargs["tlbs"]),
                icaches=list(kwargs["icaches"]),
                dcaches=list(kwargs["dcaches"]),
            )
            if not expected:
                with pytest.raises(BudgetError):
                    rank_priced(priced, float(budget))
                continue
            assert _rows(rank_priced(priced, float(budget))) == _rows(expected)

    def test_indexed_equals_priced_at_boundaries(self, fixture):
        """The answer-set lookup (``limit=1``) and the threshold filter
        (other limits) == the interpreted triple loop, at exact
        feasibility thresholds and one ULP either side."""
        allocator, priced, kwargs = fixture
        thresholds = np.unique(priced.thresholds)
        rng = np.random.default_rng(29)
        for threshold in rng.choice(thresholds, size=12, replace=False):
            for budget in (
                threshold,
                np.nextafter(threshold, -np.inf),
                np.nextafter(threshold, np.inf),
            ):
                allocator.budget_rbes = float(budget)
                expected = allocator._rank_reference(
                    tlbs=list(kwargs["tlbs"]),
                    icaches=list(kwargs["icaches"]),
                    dcaches=list(kwargs["dcaches"]),
                )
                for limit in (1, 7, None):
                    if not expected:
                        with pytest.raises(BudgetError):
                            rank_priced(priced, float(budget), limit)
                        continue
                    got = rank_priced(priced, float(budget), limit)
                    assert _rows(got) == _rows(expected[:limit])


def _frontier(priced):
    return build_frontier(priced.structure_curves(), priced.fixed_cpi)


def _same_top1(selection, allocation):
    c = allocation.config
    return (selection.keys, selection.cpi) == (
        (c.tlb, c.icache, c.dcache), allocation.cpi
    )


class TestGreedyBoundaries:
    """Boundaries first pinned for the greedy allocator, now held by
    the frontier."""

    def test_greedy_optimal_at_exact_total_areas(self, fixture):
        """At budgets bitwise-equal to a configuration's total area —
        where distinct configurations can share the total to the ULP —
        the frontier must return the optimum *under its documented
        feasibility predicate*, the grid comparison ``area_grid <=
        budget``.  ``rank_priced`` with an unbounded power budget ranks
        under exactly that predicate, so it is the reference
        here (the ordering contract documents that the reference
        subtraction predicate may differ by ULPs at these budgets)."""
        allocator, priced, kwargs = fixture
        frontier = _frontier(priced)
        grid = np.asarray(priced.area_grid).ravel()
        rng = np.random.default_rng(31)
        for budget in rng.choice(grid, size=min(40, grid.size), replace=False):
            best = rank_priced(
                priced, float(budget), limit=1, power_budget=float("inf")
            )[0]
            assert _same_top1(frontier.best(float(budget)), best)

    def test_greedy_matches_rank_priced_off_boundary(self, fixture):
        """Away from entry areas the two feasibility predicates admit
        the same set, so the frontier must equal the brute-force top-1
        bitwise.  Budgets are midpoints between well-separated entry
        areas — guaranteed more than a few ULPs from any boundary."""
        allocator, priced, kwargs = fixture
        frontier = _frontier(priced)
        grid = np.unique(np.asarray(priced.area_grid).ravel())
        gaps = np.flatnonzero(np.diff(grid) > 1.0)
        rng = np.random.default_rng(41)
        picks = rng.choice(gaps, size=min(20, gaps.size), replace=False)
        for g in picks:
            budget = float((grid[g] + grid[g + 1]) / 2.0)
            try:
                best = rank_priced(priced, budget, limit=1)[0]
            except BudgetError:
                continue
            assert _same_top1(frontier.best(budget), best)

    def test_power_ranking_at_power_boundaries(self, fixture):
        """rank_priced at power budgets equal to an entry's exact
        power: the mask is ``power_grid <= power_budget``, so the exact
        value is admitted and one ULP below is not."""
        allocator, priced, kwargs = fixture
        area_budget = float(np.asarray(priced.area_grid).max())
        powers = np.unique(np.asarray(priced.power_grid).ravel())
        rng = np.random.default_rng(37)
        for power in rng.choice(powers, size=min(8, powers.size), replace=False):
            at = rank_priced(priced, area_budget, power_budget=float(power))
            below = rank_priced(
                priced,
                area_budget,
                power_budget=float(np.nextafter(power, -np.inf)),
            )
            served_at = {a.config for a in at}
            served_below = {a.config for a in below}
            assert served_below <= served_at
            dropped = served_at - served_below
            # Everything dropped by the one-ULP-lower budget sits at
            # exactly the boundary power.
            power_grid = np.asarray(priced.power_grid)
            for a in at:
                if a.config in dropped:
                    t = priced.tlb_keys.index(a.config.tlb)
                    i = priced.icache_keys.index(a.config.icache)
                    d = priced.dcache_keys.index(a.config.dcache)
                    assert power_grid[flat_index(priced, t, i, d)] == power
