"""Differential tests: the query engine vs the brute-force allocator.

The service's promise is bit-identity — anything it answers must match
``Allocator.rank`` exactly, including tie order.  Curves here are
measured over the full Table 5 space (short trace) so the engine
prices exactly what production prices.
"""

import numpy as np
import pytest

from repro.core.allocator import DEFAULT_BUDGET_RBES, Allocator
from repro.core.measure import BenefitCurves, measure_workload
from repro.errors import BudgetError, RequestError, StoreError
from repro.service.engine import QueryEngine, maybe_engine, pareto_frontier
from repro.store import CurveStore, StoreKey

TEST_REFERENCES = 60_000


@pytest.fixture(scope="module")
def curves():
    """Full-Table-5 curves for one workload (short trace)."""
    single = measure_workload("ousterhout", "mach", references=TEST_REFERENCES)
    return BenefitCurves(os_name="mach", per_workload=[single])


@pytest.fixture(scope="module")
def store(tmp_path_factory, curves):
    store = CurveStore(tmp_path_factory.mktemp("svc-store") / "store")
    store.build(curves, StoreKey.current("mach", suite=("ousterhout",)))
    return store


@pytest.fixture(scope="module")
def engine(store):
    return QueryEngine(store)


class TestBitIdentity:
    def test_paper_budget_equals_brute_force(self, engine, curves):
        """The acceptance criterion: at 250k rbe the service's ranked
        list equals Allocator.rank output exactly."""
        direct = Allocator(curves, budget_rbes=DEFAULT_BUDGET_RBES).rank()
        served = engine.point("mach", DEFAULT_BUDGET_RBES)
        assert served == direct

    def test_restricted_assoc_equals_brute_force(self, engine, curves):
        direct = Allocator(curves, budget_rbes=DEFAULT_BUDGET_RBES).rank(
            max_cache_assoc=2
        )
        served = engine.point(
            "mach", DEFAULT_BUDGET_RBES, max_cache_assoc=2
        )
        assert served == direct

    def test_random_budget_sweep(self, engine, curves):
        """Differential sweep over >= 20 random budgets, spanning
        infeasible through unconstrained."""
        priced = engine.priced_space("mach")
        lo, hi = priced.min_area(), float(priced.area_grid.max())
        rng = np.random.default_rng(42)
        budgets = list(rng.uniform(lo * 0.8, hi * 1.2, size=24))
        assert len(budgets) >= 20
        for budget in budgets:
            allocator = Allocator(curves, budget_rbes=budget)
            try:
                direct = allocator.rank(limit=50)
            except BudgetError:
                with pytest.raises(BudgetError):
                    engine.point("mach", budget)
                continue
            assert engine.point("mach", budget, limit=50) == direct

    def test_store_round_trip_preserves_floats(self, engine, curves):
        """Curves loaded from disk score identically to in-memory ones."""
        loaded = engine.curves_for("mach")
        assert loaded == curves


class TestBatch:
    def test_batch_matches_point_queries(self, engine):
        budgets = [150_000.0, 250_000.0, 400_000.0]
        results = engine.batch(["mach"], budgets, limit=3)
        assert [b for _, b, _ in results] == budgets
        for os_name, budget, ranked in results:
            assert ranked == engine.point(os_name, budget, limit=3)

    def test_infeasible_budget_yields_empty(self, engine):
        results = engine.batch(["mach"], [1.0], limit=1)
        assert results[0][2] == []

    def test_priced_space_is_reused(self, engine):
        engine.batch(["mach"], [100_000.0, 200_000.0])
        assert ("mach", None, None) in engine._priced


class TestPareto:
    def test_frontier_is_nondominated(self, engine):
        frontier = engine.pareto("mach", max_budget=DEFAULT_BUDGET_RBES)
        full = engine.point("mach", DEFAULT_BUDGET_RBES)
        # Sorted by (area, cpi), some q dominates p iff a strictly
        # smaller area has cpi <= p's (prefix min), or p's own area
        # has a strictly smaller cpi (first in its area group).
        area = np.array([a.area_rbe for a in full])
        cpi = np.array([a.cpi for a in full])
        order = np.lexsort((cpi, area))
        area, cpi = area[order], cpi[order]
        prefix_min = np.minimum.accumulate(cpi)
        point_area = np.array([p.area_rbe for p in frontier])
        point_cpi = np.array([p.cpi for p in frontier])
        first = np.searchsorted(area, point_area, "left")
        left_min = np.where(
            first > 0, prefix_min[np.maximum(first - 1, 0)], np.inf
        )
        at = np.minimum(first, len(area) - 1)
        same_area_min = np.where(area[at] == point_area, cpi[at], np.inf)
        dominated = (left_min <= point_cpi) | (same_area_min < point_cpi)
        assert not dominated.any()

    def test_every_nondominated_point_is_on_frontier(self, engine):
        frontier = engine.pareto("mach", max_budget=DEFAULT_BUDGET_RBES)
        full = engine.point("mach", DEFAULT_BUDGET_RBES)
        frontier_set = {(a.area_rbe, a.cpi) for a in frontier}
        # Sorted by (area, cpi), a point is dominated iff a smaller
        # cpi shares its area (it is not first in its area group) or
        # some strictly smaller area has cpi <= its own (prefix min).
        area = np.array([a.area_rbe for a in full])
        cpi = np.array([a.cpi for a in full])
        order = np.lexsort((cpi, area))
        area, cpi = area[order], cpi[order]
        first = np.searchsorted(area, area, "left")
        prefix_min = np.minimum.accumulate(cpi)
        left_min = np.where(
            first > 0, prefix_min[np.maximum(first - 1, 0)], np.inf
        )
        nondominated = (cpi == cpi[first]) & (left_min > cpi)
        for a, c in zip(area[nondominated], cpi[nondominated]):
            assert (a, c) in frontier_set

    def test_ties_keep_rank_order(self, engine):
        """Among exact (area, cpi) ties the frontier keeps the config
        the brute-force ranking lists first."""
        frontier = engine.pareto("mach", max_budget=DEFAULT_BUDGET_RBES)
        full = engine.point("mach", DEFAULT_BUDGET_RBES)
        first_by_score = {}
        for allocation in full:
            first_by_score.setdefault(
                (allocation.cpi, allocation.area_rbe), allocation
            )
        for allocation in frontier:
            assert (
                first_by_score[(allocation.cpi, allocation.area_rbe)]
                == allocation
            )

    def test_frontier_monotone(self, engine):
        frontier = engine.pareto("mach")
        cpis = [a.cpi for a in frontier]
        areas = [a.area_rbe for a in frontier]
        assert cpis == sorted(cpis)
        assert areas == sorted(areas, reverse=True)

    def test_pareto_frontier_helper_empty(self):
        assert pareto_frontier([]) == []


class TestQueryApi:
    def test_point_response_shape(self, engine):
        response = engine.query(
            {"type": "point", "os": "mach", "budget": 250_000, "limit": 2}
        )
        assert response["count"] == 2
        row = response["allocations"][0]
        assert row["rank"] == 1
        assert {"tlb", "icache", "dcache", "area_rbe", "cpi"} <= set(row)

    def test_lru_cache_hit_on_respelled_request(self, engine):
        misses_before = engine.stats["misses"]
        r1 = engine.query({"type": "point", "os": "mach", "budget": 123_456})
        r2 = engine.query(
            {"type": "point", "os": "mach", "budget": 123_456.0, "limit": None}
        )
        assert r2 is r1
        assert engine.stats["misses"] == misses_before + 1
        assert engine.stats["hits"] >= 1

    def test_lru_eviction(self, store):
        engine = QueryEngine(store, result_cache_size=2)
        for budget in (101_000, 102_000, 103_000):
            engine.query(
                {"type": "point", "os": "mach", "budget": budget, "limit": 1}
            )
        assert len(engine._results) == 2

    def test_batch_response(self, engine):
        response = engine.query(
            {
                "type": "batch",
                "os": "mach",
                "budgets": [1.0, 250_000],
            }
        )
        assert response["count"] == 2
        assert response["results"][0]["feasible"] is False
        assert response["results"][1]["feasible"] is True
        assert len(response["results"][1]["allocations"]) == 1

    def test_invalid_requests_name_the_field(self, engine):
        with pytest.raises(RequestError, match="'budget'"):
            engine.query({"type": "point", "os": "mach"})
        with pytest.raises(RequestError, match="'type'"):
            engine.query({"type": "sideways"})
        with pytest.raises(RequestError, match="unknown field"):
            engine.query({"type": "point", "os": "mach", "budget": 1,
                          "bogus": True})

    def test_unknown_os_is_store_error(self, engine):
        with pytest.raises(StoreError, match="ultrix"):
            engine.query({"type": "point", "os": "ultrix", "budget": 250_000})


class TestMaybeEngine:
    def test_none_without_store(self, tmp_path):
        assert maybe_engine("mach", CurveStore(tmp_path / "nothing")) is None

    def test_engine_with_store(self, store):
        engine = maybe_engine("mach", store)
        assert engine is not None
        assert engine.point("mach", DEFAULT_BUDGET_RBES, limit=1)

    def test_none_for_unserved_os(self, store):
        assert maybe_engine("ultrix", store) is None
