"""Table 8 (extension): two-level allocations and the area x power surface.

The paper's Tables 6/7 stop at one cache level because exhaustive
ranking is already pushing ~250k design points.  The exact Pareto
frontier of :mod:`repro.core.multiopt` removes that wall, so this
experiment answers the question the paper could not ask:
*given the same measured curves, where does the area go when an
on-chip L2 joins the menu — and what does a power ceiling change?*

Three parts:

* **best** — the optimal two-level [TLB, L1I, L1D, L2] allocation at
  each of a sweep of area budgets;
* **power** — the same budgets re-run under a power ceiling (also
  exact: the frontier answers joint area x power budgets too);
* **surface** — the non-dominated cells of the area x power budget
  grid, i.e. the Pareto surface the service's two-level ``pareto``
  query serves.

Like Tables 6 and 7, curves come from the measurement cache, which
``python -m repro.service build`` fills too.
"""

from __future__ import annotations

from repro.core.hierarchy import build_two_level_space
from repro.core.measure import BenefitCurves
from repro.core.multiopt import Selection, pareto_surface
from repro.errors import BudgetError
from repro.experiments.common import format_table
from repro.service.engine import two_level_entry

DEFAULT_BUDGETS = (100_000.0, 175_000.0, 250_000.0, 400_000.0)
DEFAULT_POWER_BUDGET_MW = 25.0
SURFACE_POWER_BUDGETS_MW = (25.0, 35.0, 50.0, 80.0)


def _row(budget: float, result: Selection | None) -> dict:
    if result is None:
        return {
            "budget": int(budget),
            "feasible": False,
            **{k: "-" for k in ("tlb", "l1i", "l1d", "l2")},
            "area_rbe": "-",
            "cpi": "-",
            "power_mw": "-",
        }
    entry = two_level_entry(result)
    return {
        "budget": int(budget),
        "feasible": True,
        **{k: entry[k] for k in ("tlb", "l1i", "l1d", "l2")},
        "area_rbe": round(entry["area_rbe"], 1),
        "cpi": round(entry["cpi"], 4),
        "power_mw": round(entry["power_mw"], 2),
    }


def run(
    os_name: str = "mach",
    budgets: tuple[float, ...] = DEFAULT_BUDGETS,
    power_budget_mw: float = DEFAULT_POWER_BUDGET_MW,
) -> dict:
    """Return the three sections as JSON-ready rows."""
    space = build_two_level_space(BenefitCurves.for_suite(os_name))

    def rows(power: float | None) -> list[dict]:
        out = []
        for budget in budgets:
            try:
                result = space.best(budget, power_budget_mw=power)
            except BudgetError:
                result = None
            out.append(_row(budget, result))
        return out

    cells = pareto_surface(
        space.frontier, list(budgets), list(SURFACE_POWER_BUDGETS_MW)
    )
    surface_rows = [
        {
            "area_budget": int(cell.area_budget),
            "power_budget_mw": cell.power_budget,
            **_row(cell.area_budget, cell.result),
        }
        for cell in cells
    ]
    for row in surface_rows:
        row.pop("budget", None)
        row.pop("feasible", None)

    return {
        "os": os_name,
        "space_points": space.size,
        "power_budget_mw": power_budget_mw,
        "best": rows(None),
        "power": rows(power_budget_mw),
        "surface": surface_rows,
    }


def main() -> None:
    """Print the two-level extension tables."""
    result = run()
    print(
        f"Table 8 (extension): two-level allocations over "
        f"{result['space_points']:,} design points (suite under Mach)"
    )
    print("\nArea budget only:")
    print(format_table(result["best"]))
    print(f"\nWith a {result['power_budget_mw']} mW power ceiling:")
    print(format_table(result["power"]))
    print("\nArea x power Pareto surface (non-dominated cells):")
    print(format_table(result["surface"]))


if __name__ == "__main__":
    main()
