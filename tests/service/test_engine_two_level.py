"""Service tests for the two-level space and power-budget queries.

The engine prices the full Table 5 enumeration, so the fixtures
measure the default grid on a short trace (as tests/service/
test_engine.py does) and the two-level space is built from the same
stored curves clients query.
"""

import numpy as np
import pytest

from repro.core.measure import BenefitCurves, measure_workload
from repro.errors import BudgetError, RequestError
from repro.service.engine import QueryEngine
from repro.service.requests import validate_request
from tests.core.oracles import mask_rank, mask_rank_or_empty

TEST_REFERENCES = 60_000

AREA_BUDGET = 250_000.0
POWER_BUDGET = 40.0


@pytest.fixture(scope="module")
def curves():
    single = measure_workload("ousterhout", "mach", references=TEST_REFERENCES)
    return BenefitCurves(os_name="mach", per_workload=[single])


@pytest.fixture(scope="module")
def engine(curves):
    return QueryEngine.from_curves(curves)


class TestSingleLevelPower:
    def test_point_power_matches_rank_priced_power(self, engine):
        priced = engine.priced_space("mach")
        expect = mask_rank(priced, AREA_BUDGET, 5, power_budget=POWER_BUDGET)
        served = engine.point(
            "mach", AREA_BUDGET, limit=5, power_budget=POWER_BUDGET
        )
        assert served == expect

    def test_power_ceiling_binds(self, engine):
        """A tight enough ceiling changes (or empties) the answer."""
        free = engine.point("mach", AREA_BUDGET, limit=1)[0]
        priced = engine.priced_space("mach")
        powers = np.asarray(priced.power_grid)
        tight = float(np.min(powers)) * 0.5
        with pytest.raises(BudgetError):
            engine.point("mach", AREA_BUDGET, limit=1, power_budget=tight)
        same = engine.point(
            "mach", AREA_BUDGET, limit=1, power_budget=float(np.max(powers))
        )[0]
        assert same == free

    def test_batch_power_matches_point(self, engine):
        budgets = [150_000.0, AREA_BUDGET]
        priced = engine.priced_space("mach")
        for limit in (1, 2):
            rows = engine.batch(
                ["mach"], budgets, limit=limit, power_budget=POWER_BUDGET
            )
            assert [b for _, b, _ in rows] == budgets
            for _, budget, ranked in rows:
                assert ranked == mask_rank_or_empty(
                    priced, budget, limit, power_budget=POWER_BUDGET
                )

    def test_batch_power_infeasible_is_empty_row(self, engine):
        rows = engine.batch(["mach"], [AREA_BUDGET], power_budget=1e-9)
        assert rows == [("mach", AREA_BUDGET, [])]


class TestTwoLevelQueries:
    def test_point_matches_space_best(self, engine):
        space = engine.two_level_space("mach")
        direct = space.best(AREA_BUDGET)
        served = engine.point_two_level("mach", AREA_BUDGET)
        assert served == direct

    def test_point_infeasible_raises(self, engine):
        with pytest.raises(BudgetError):
            engine.point_two_level("mach", 1.0)

    def test_point_with_power_budget(self, engine):
        space = engine.two_level_space("mach")
        direct = space.best(AREA_BUDGET, power_budget_mw=POWER_BUDGET)
        served = engine.point_two_level(
            "mach", AREA_BUDGET, power_budget=POWER_BUDGET
        )
        assert served == direct
        assert served.power <= POWER_BUDGET

    def test_batch_rows_match_point(self, engine):
        budgets = [1.0, 150_000.0, AREA_BUDGET]
        rows = engine.batch_two_level(["mach"], budgets)
        assert [(os, b) for os, b, _ in rows] == [
            ("mach", b) for b in budgets
        ]
        assert rows[0][2] is None
        for _, budget, result in rows[1:]:
            assert result == engine.point_two_level("mach", budget)

    def test_two_level_space_is_cached(self, engine):
        assert engine.two_level_space("mach") is engine.two_level_space(
            "mach"
        )

    def test_surface_cells_feasible_and_nondominated(self, engine):
        budgets = [100_000.0, AREA_BUDGET, 400_000.0]
        power_budgets = [25.0, POWER_BUDGET, 80.0]
        cells = engine.surface("mach", budgets, power_budgets)
        assert cells
        achieved = []
        for cell in cells:
            assert cell.result.area <= cell.area_budget
            assert cell.result.power <= cell.power_budget
            achieved.append(
                (cell.result.area, cell.result.power, cell.result.cpi)
            )
        for i, a in enumerate(achieved):
            for j, b in enumerate(achieved):
                if i == j:
                    continue
                dominates = all(x <= y for x, y in zip(b, a)) and any(
                    x < y for x, y in zip(b, a)
                )
                assert not dominates


class TestQueryApi:
    def test_two_level_point_response_shape(self, engine):
        out = engine.query(
            {"type": "point", "os": "mach", "budget": AREA_BUDGET,
             "space": "two_level"}
        )
        assert out["space"] == "two_level"
        assert out["count"] == 1
        (row,) = out["allocations"]
        assert set(row) >= {"rank", "tlb", "l1i", "l1d", "l2",
                            "area_rbe", "cpi", "power_mw"}
        direct = engine.point_two_level("mach", AREA_BUDGET)
        assert row["cpi"] == direct.cpi
        assert row["area_rbe"] == direct.area

    def test_two_level_batch_response_shape(self, engine):
        out = engine.query(
            {"type": "batch", "os": "mach", "budgets": [1.0, AREA_BUDGET],
             "space": "two_level", "power_budget": POWER_BUDGET}
        )
        assert out["space"] == "two_level"
        assert out["count"] == 2
        infeasible, feasible = out["results"]
        assert infeasible["feasible"] is False
        assert infeasible["allocations"] == []
        assert feasible["feasible"] is True
        assert feasible["allocations"][0]["power_mw"] <= POWER_BUDGET

    def test_two_level_pareto_response_shape(self, engine):
        budgets = [100_000.0, AREA_BUDGET]
        power_budgets = [25.0, 80.0]
        out = engine.query(
            {"type": "pareto", "os": "mach", "space": "two_level",
             "budgets": budgets, "power_budgets": power_budgets}
        )
        assert out["space"] == "two_level"
        assert out["count"] == len(out["surface"])
        for cell in out["surface"]:
            assert cell["area_budget"] in budgets
            assert cell["power_budget"] in power_budgets
            assert cell["area_rbe"] <= cell["area_budget"]

    def test_single_level_power_response(self, engine):
        out = engine.query(
            {"type": "point", "os": "mach", "budget": AREA_BUDGET,
             "limit": 1, "power_budget": POWER_BUDGET}
        )
        assert out["count"] == 1
        priced = engine.priced_space("mach")
        expect = mask_rank(priced, AREA_BUDGET, 1, power_budget=POWER_BUDGET)[0]
        assert out["allocations"][0]["cpi"] == expect.cpi

    def test_result_cache_hits_on_respelled_two_level(self, engine):
        req = {"type": "point", "os": "mach", "budget": 222_000,
               "space": "two_level"}
        first = engine.query(req)
        hits_before = engine.stats["hits"]
        again = engine.query(
            {"space": "two_level", "budget": 222_000.0, "os": "mach",
             "type": "point"}
        )
        assert again == first
        assert engine.stats["hits"] == hits_before + 1


class TestValidation:
    def test_rejects_unknown_space(self):
        with pytest.raises(RequestError, match="space"):
            validate_request({"os": "mach", "budget": 1.0, "space": "l3"})

    def test_two_level_rejects_single_level_knobs(self):
        with pytest.raises(RequestError, match="max_cache_assoc"):
            validate_request(
                {"os": "mach", "budget": 1.0, "space": "two_level",
                 "max_cache_assoc": 2}
            )

    def test_two_level_point_limit_must_be_one(self):
        with pytest.raises(RequestError, match="limit"):
            validate_request(
                {"os": "mach", "budget": 1.0, "space": "two_level",
                 "limit": 3}
            )

    def test_two_level_pareto_needs_grids(self):
        with pytest.raises(RequestError, match="power_budgets"):
            validate_request(
                {"type": "pareto", "os": "mach", "space": "two_level",
                 "budgets": [1.0]}
            )
        with pytest.raises(RequestError, match="max_budget"):
            validate_request(
                {"type": "pareto", "os": "mach", "space": "two_level",
                 "max_budget": 5.0, "budgets": [1.0],
                 "power_budgets": [1.0]}
            )

    def test_single_pareto_rejects_grids(self):
        with pytest.raises(RequestError, match="two_level"):
            validate_request(
                {"type": "pareto", "os": "mach", "budgets": [1.0],
                 "power_budgets": [1.0]}
            )

    def test_surface_cell_limit(self):
        with pytest.raises(RequestError, match="cells"):
            validate_request(
                {"type": "pareto", "os": "mach", "space": "two_level",
                 "budgets": [float(b) for b in range(1, 65)],
                 "power_budgets": [float(p) for p in range(1, 34)]}
            )

    def test_power_budget_must_be_positive(self):
        with pytest.raises(RequestError, match="power_budget"):
            validate_request(
                {"os": "mach", "budget": 1.0, "power_budget": 0}
            )
