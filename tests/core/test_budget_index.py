"""Differential tests: the single-level query core vs its oracles.

:func:`rank_priced`, :func:`best_many` and :func:`pareto_priced` answer
from two cached properties of a priced space: the per-entry feasibility
thresholds in rank order and the answer set (``best_ranks``).  These
tests hold every answer bit-identical to the reference-predicate mask
oracle of :mod:`tests.core.oracles` (itself independent of both
properties and of ``sorted_order``) over adversarial budgets — random
sweeps, exact entry areas, exact feasibility thresholds, and their
one-ULP neighbours on either side — under both OS models, and over
hand-built spaces whose areas collide within one ULP.

The class names date from the budget index these cases first gated.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import (
    Allocator,
    PricedSpace,
    best_many,
    pareto_priced,
    rank_priced,
    stable_order,
)
from repro.core.measure import measure_workload
from repro.core.space import enumerate_cache_configs, enumerate_tlb_configs
from repro.errors import BudgetError
from repro.units import KB
from tests.core.oracles import mask_pareto, mask_rank, mask_rank_or_empty

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
    """Random budgets plus every exact edge the thresholds could get
    wrong."""
    rng = np.random.default_rng(seed)
    lo = 0.5 * priced.min_area()
    hi = 1.2 * float(priced.area_grid.max())
    budgets = list(rng.uniform(lo, hi, n_random))
    # Exact entry areas and exact thresholds are the boundary cases;
    # their one-ULP neighbours catch any <= vs < slip.
    edges = np.concatenate(
        [np.unique(priced.area_grid), np.unique(priced.thresholds)]
    )
    edges = rng.permutation(edges)[:40]
    for edge in edges.tolist():
        budgets.extend(
            [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
        )
    return budgets


def _rows(allocations):
    return [(a.config, a.area_rbe, a.cpi) for a in allocations]


def _assert_rank_matches(priced, budget, limit=None, power_budget=None):
    try:
        expected = mask_rank(priced, budget, limit, power_budget)
    except BudgetError:
        with pytest.raises(BudgetError):
            rank_priced(priced, budget, limit, power_budget)
        return
    got = rank_priced(priced, budget, limit, power_budget)
    assert _rows(got) == _rows(expected)


def _assert_pareto_matches(priced, budget):
    try:
        expected = mask_pareto(priced, budget)
    except BudgetError:
        with pytest.raises(BudgetError):
            pareto_priced(priced, budget)
        return
    assert _rows(pareto_priced(priced, budget)) == _rows(expected)


class TestRankIndexed:
    def test_full_ranking_matches_reference(self, priced):
        for budget in _adversarial_budgets(priced, n_random=40):
            _assert_rank_matches(priced, budget)

    def test_top1_matches_reference(self, priced):
        for budget in _adversarial_budgets(priced, seed=11):
            _assert_rank_matches(priced, budget, limit=1)

    def test_limited_ranking_matches_reference(self, priced):
        for budget in _adversarial_budgets(priced, seed=13, n_random=25):
            for limit in (2, 5, 17):
                _assert_rank_matches(priced, budget, limit=limit)


class TestBatchBestIndexed:
    def test_batch_equals_per_point_loop(self, priced):
        budgets = _adversarial_budgets(priced, seed=23)
        expected = [mask_rank_or_empty(priced, b, limit=1) for b in budgets]
        assert [_rows(r) for r in best_many(priced, budgets)] == [
            _rows(r) for r in expected
        ]

    def test_empty_batch(self, priced):
        assert best_many(priced, []) == []


class TestParetoIndexed:
    def test_unconstrained_frontier_matches_reference(self, priced):
        assert _rows(pareto_priced(priced)) == _rows(mask_pareto(priced))

    def test_capped_frontier_matches_reference(self, priced):
        for budget in _adversarial_budgets(priced, seed=29, n_random=30):
            _assert_pareto_matches(priced, budget)

    def test_cap_above_all_thresholds_is_the_cached_frontier(self, priced):
        cap = float(priced.area_grid.max()) * 2
        assert _rows(pareto_priced(priced, cap)) == _rows(pareto_priced(priced))


class TestIndexInternals:
    def test_thresholds_reproduce_feasibility_exactly(self, priced):
        """Each entry's threshold is the minimal budget at which the
        reference ``budget_left`` arithmetic admits it."""
        rng = np.random.default_rng(31)
        sample = rng.choice(priced.size, size=min(200, priced.size), replace=False)
        n_d = len(priced.dcache_keys)
        n_i = len(priced.icache_keys)
        for rank in sample.tolist():
            flat = int(priced.sorted_order[rank])
            t, rem = divmod(flat, n_i * n_d)
            i, d = divmod(rem, n_d)
            thr = priced.thresholds[rank]
            for budget in (thr, np.nextafter(thr, -np.inf)):
                left = (budget - priced.t_area[t]) - priced.i_area[i]
                feasible = left >= 0 and priced.d_area[d] <= left
                assert feasible == (budget >= thr)

    def test_index_is_cached_per_space(self, priced):
        assert priced.thresholds is priced.thresholds
        assert priced.best_ranks is priced.best_ranks

    def test_grid_orders_equal_stable_sorts(self, priced):
        """The rank order is the stable sort it stands for, and the
        answer set is every rank no earlier rank's threshold matches
        or beats."""
        assert np.array_equal(
            priced.sorted_order,
            np.lexsort((priced.area_grid, priced.cpi_grid)),
        )
        thresholds = priced.thresholds.tolist()
        expected, lowest = [], np.inf
        for rank, threshold in enumerate(thresholds):
            if threshold < lowest:
                expected.append(rank)
                lowest = threshold
        assert priced.best_ranks.tolist() == expected
        assert np.all(np.diff(priced.thresholds[priced.best_ranks]) < 0)


class TestEmptySpace:
    """A space with no structures (e.g. an access-time bound nothing
    meets) fits no budget, and every query says so."""

    @pytest.fixture
    def empty(self, priced):
        return PricedSpace(
            tlb_keys=priced.tlb_keys,
            icache_keys=(),
            dcache_keys=priced.dcache_keys,
            t_area=priced.t_area,
            i_area=np.empty(0),
            d_area=priced.d_area,
            fixed_cpi=priced.fixed_cpi,
            area_grid=np.empty(0),
            cpi_grid=np.empty(0),
        )

    def test_queries_raise_budget_error(self, empty):
        for limit in (1, 3, None):
            with pytest.raises(BudgetError):
                rank_priced(empty, 1e9, limit)
        with pytest.raises(BudgetError):
            rank_priced(empty, 1e9, 1, power_budget=1e9)
        for budget in (None, 1e9):
            with pytest.raises(BudgetError):
                pareto_priced(empty, budget)
        with pytest.raises(BudgetError):
            empty.min_area()

    def test_batch_is_all_empty_rows(self, empty):
        assert best_many(empty, [1.0, 1e9]) == [[], []]
        assert empty.best_ranks.size == 0


# Areas around values whose sums round (0.1 + 0.2 != 0.3), each
# optionally moved one ULP, so distinct entries' totals and thresholds
# collide or straddle each other within an ULP.
_AREA_BASES = (0.1, 0.2, 0.3, 0.6, 0.7, 1.0, 1.1, 2.2, 3.3)
_CPI_BASES = (0.0, 0.25, 0.5, 0.75)


@st.composite
def _areas(draw, max_size=4):
    values = draw(
        st.lists(
            st.tuples(st.sampled_from(_AREA_BASES), st.sampled_from((-1, 0, 1))),
            max_size=max_size,
        )
    )
    return np.array(
        [base if ulp == 0 else np.nextafter(base, ulp * np.inf)
         for base, ulp in values],
        dtype=np.float64,
    )


@st.composite
def _hand_built_space(draw):
    t_area, i_area, d_area = draw(_areas()), draw(_areas()), draw(_areas())
    t_cpi, i_cpi, d_cpi = (
        np.array(
            draw(st.lists(st.sampled_from(_CPI_BASES),
                          min_size=a.size, max_size=a.size)),
            dtype=np.float64,
        )
        for a in (t_area, i_area, d_area)
    )
    fixed_cpi = 1.0
    caches = enumerate_cache_configs()
    return PricedSpace(
        tlb_keys=tuple(enumerate_tlb_configs()[: t_area.size]),
        icache_keys=tuple(caches[: i_area.size]),
        dcache_keys=tuple(caches[-d_area.size:] if d_area.size else ()),
        t_area=t_area,
        i_area=i_area,
        d_area=d_area,
        fixed_cpi=fixed_cpi,
        area_grid=((t_area[:, None] + i_area[None, :])[:, :, None]
                   + d_area).ravel(),
        cpi_grid=(((fixed_cpi + t_cpi)[:, None] + i_cpi)[:, :, None]
                  + d_cpi).ravel(),
        t_cpi=t_cpi,
        i_cpi=i_cpi,
        d_cpi=d_cpi,
    )


def _probes(values):
    """Every value and its one-ULP neighbours, plus both extremes."""
    values = np.unique(values)
    return np.unique(np.concatenate([
        values,
        np.nextafter(values, -np.inf),
        np.nextafter(values, np.inf),
        [0.0, np.inf],
    ])).tolist()


@settings(max_examples=120, deadline=None)
@given(_hand_built_space())
def test_query_core_matches_oracles_at_ulp_collisions(priced):
    """Every query kind, at every threshold and area +-1 ULP, equals the
    reference-predicate oracle; power rankings equal the summed-total
    oracle at every power +-1 ULP."""
    budgets = _probes(np.concatenate([priced.area_grid, priced.thresholds]))
    for budget in budgets:
        for limit in (1, 2, 13, None):
            _assert_rank_matches(priced, budget, limit)
        _assert_pareto_matches(priced, budget)
    expected = [mask_rank_or_empty(priced, b, limit=1) for b in budgets]
    assert [_rows(r) for r in best_many(priced, budgets)] == [
        _rows(r) for r in expected
    ]
    _assert_pareto_matches(priced, None)
    powers = _probes(priced.power_grid)
    for budget in budgets[:: max(1, len(budgets) // 6)]:
        for power in powers[:: max(1, len(powers) // 6)]:
            for limit in (1, 13):
                _assert_rank_matches(priced, budget, limit, power)


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
