"""Differential tests: the budget index vs the brute-force ranking.

The :class:`~repro.core.allocator.BudgetIndex` answers point, batch
and Pareto queries without scanning the grid; these tests hold it
bit-identical to :func:`rank_priced` (itself held bit-identical to
``Allocator._rank_reference``) over adversarial budgets — random
sweeps, exact entry areas, exact feasibility thresholds, and their
one-ULP neighbours on either side, under both OS models.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import (
    Allocator,
    batch_best_indexed,
    pareto_indexed,
    rank_indexed,
    rank_priced,
    stable_order,
)
from repro.core.measure import measure_workload
from repro.core.space import enumerate_cache_configs, enumerate_tlb_configs
from repro.errors import BudgetError
from repro.service.engine import pareto_frontier
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
def priced(request):
    curves = measure_workload("ousterhout", request.param, **SMALL_GRID)
    caches = enumerate_cache_configs(
        capacities=SMALL_GRID["capacities"],
        lines=SMALL_GRID["lines"],
        assocs=SMALL_GRID["assocs"],
    )
    return Allocator(curves).price(
        tlbs=enumerate_tlb_configs(
            entries=SMALL_GRID["tlb_entries"],
            assocs=SMALL_GRID["tlb_assocs"],
            full_max_entries=SMALL_GRID["tlb_full_max"],
        ),
        icaches=caches,
        dcaches=caches,
    )


def _adversarial_budgets(priced, seed=7, n_random=120):
    """Random budgets plus every exact edge the index could get wrong."""
    rng = np.random.default_rng(seed)
    lo = 0.5 * priced.min_area()
    hi = 1.2 * float(priced.area_grid.max())
    budgets = list(rng.uniform(lo, hi, n_random))
    # Exact entry areas and exact index thresholds are the boundary
    # cases; their one-ULP neighbours catch any <= vs < slip.
    edges = np.concatenate(
        [np.unique(priced.area_grid), np.unique(priced.budget_index.thresholds)]
    )
    edges = rng.permutation(edges)[:40]
    for edge in edges.tolist():
        budgets.extend(
            [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
        )
    return budgets


def _rows(allocations):
    return [(a.config, a.area_rbe, a.cpi) for a in allocations]


class TestRankIndexed:
    def test_full_ranking_matches_reference(self, priced):
        for budget in _adversarial_budgets(priced, n_random=40):
            try:
                expected = rank_priced(priced, budget)
            except BudgetError:
                with pytest.raises(BudgetError):
                    rank_indexed(priced, budget)
                continue
            assert _rows(rank_indexed(priced, budget)) == _rows(expected)

    def test_top1_matches_reference(self, priced):
        for budget in _adversarial_budgets(priced, seed=11):
            try:
                expected = rank_priced(priced, budget, limit=1)
            except BudgetError:
                with pytest.raises(BudgetError):
                    rank_indexed(priced, budget, limit=1)
                continue
            assert _rows(rank_indexed(priced, budget, limit=1)) == _rows(expected)

    def test_limited_ranking_matches_reference(self, priced):
        for budget in _adversarial_budgets(priced, seed=13, n_random=25):
            for limit in (2, 5, 17):
                try:
                    expected = rank_priced(priced, budget, limit=limit)
                except BudgetError:
                    continue
                got = rank_indexed(priced, budget, limit=limit)
                assert _rows(got) == _rows(expected)


class TestBatchBestIndexed:
    def test_batch_equals_per_point_loop(self, priced):
        budgets = _adversarial_budgets(priced, seed=23)
        batched = batch_best_indexed(priced, budgets)
        for budget, got in zip(budgets, batched):
            try:
                expected = rank_priced(priced, budget, limit=1)
            except BudgetError:
                expected = []
            assert _rows(got) == _rows(expected)

    def test_empty_batch(self, priced):
        assert batch_best_indexed(priced, []) == []


class TestParetoIndexed:
    def test_unconstrained_frontier_matches_reference(self, priced):
        everything = rank_priced(priced, float(priced.area_grid.max()))
        expected = pareto_frontier(everything)
        assert _rows(pareto_indexed(priced)) == _rows(expected)

    def test_capped_frontier_matches_reference(self, priced):
        for budget in _adversarial_budgets(priced, seed=29, n_random=30):
            try:
                ranked = rank_priced(priced, budget)
            except BudgetError:
                with pytest.raises(BudgetError):
                    pareto_indexed(priced, budget)
                continue
            expected = pareto_frontier(ranked)
            assert _rows(pareto_indexed(priced, budget)) == _rows(expected)

    def test_cap_above_all_thresholds_is_the_cached_frontier(self, priced):
        cap = float(priced.area_grid.max()) * 2
        assert _rows(pareto_indexed(priced, cap)) == _rows(pareto_indexed(priced))


class TestIndexInternals:
    def test_thresholds_reproduce_feasibility_exactly(self, priced):
        """Each entry's threshold is the minimal budget at which the
        reference ``budget_left`` arithmetic admits it."""
        index = priced.budget_index
        rng = np.random.default_rng(31)
        sample = rng.choice(index.size, size=min(200, index.size), replace=False)
        n_d = len(priced.dcache_keys)
        n_i = len(priced.icache_keys)
        for flat in sample.tolist():
            t, rem = divmod(flat, n_i * n_d)
            i, d = divmod(rem, n_d)
            thr = index.thresholds[flat]
            for budget in (thr, np.nextafter(thr, -np.inf)):
                left = (budget - priced.t_area[t]) - priced.i_area[i]
                feasible = left >= 0 and priced.d_area[d] <= left
                assert feasible == (budget >= thr)

    def test_index_is_cached_per_space(self, priced):
        assert priced.budget_index is priced.budget_index

    def test_grid_orders_equal_stable_sorts(self, priced):
        """The rank order and the threshold order are the stable sorts
        they stand for."""
        assert np.array_equal(
            priced.sorted_order,
            np.lexsort((priced.area_grid, priced.cpi_grid)),
        )
        index = priced.budget_index
        by_threshold = np.argsort(index.thresholds, kind="stable")
        assert np.array_equal(index.thr_sorted, index.thresholds[by_threshold])
        rank = np.empty(index.size, dtype=np.intp)
        rank[priced.sorted_order] = np.arange(index.size)
        assert np.array_equal(
            index.best_prefix, np.minimum.accumulate(rank[by_threshold])
        )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from((0.0, -0.0, 1.0, 1.5, 2.0, 3.0)), max_size=60),
    st.data(),
)
def test_stable_order_is_a_stable_sort(keys, data):
    """Runs of equal keys (signed zeros included) come out by
    tiebreak, then index."""
    key = np.array(keys, dtype=np.float64)
    tiebreak = np.array(
        data.draw(st.lists(st.sampled_from((0.0, 1.0, 2.0)),
                           min_size=len(keys), max_size=len(keys))),
        dtype=np.float64,
    )
    assert np.array_equal(stable_order(key), np.argsort(key, kind="stable"))
    assert np.array_equal(
        stable_order(key, tiebreak), np.lexsort((tiebreak, key))
    )
