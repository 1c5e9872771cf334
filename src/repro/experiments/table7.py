"""Table 7: best allocations with caches restricted to 1- or 2-way.

The paper restricts cache associativity because 4-/8-way arrays may
not meet access-time goals; the headline observation is that the best
achievable CPI rises relative to Table 6 while the structural story
(large set-associative TLB, I-cache 2-4x the D-cache) is unchanged.
"""

from __future__ import annotations

from repro.core.allocator import DEFAULT_BUDGET_RBES, Allocator
from repro.core.measure import BenefitCurves
from repro.experiments.common import format_table


def run(
    os_name: str = "mach",
    budget: float = DEFAULT_BUDGET_RBES,
    limit: int = 13,
) -> list[dict]:
    """Return the best `limit` restricted allocations plus a bad one.

    The paper's Table 7 shows selected ranks from the restricted list
    and one deliberately poor configuration (#1529) for contrast; we
    return the top of the list plus the worst feasible configuration.
    Curves come from the measurement cache (see table6).
    """
    curves = BenefitCurves.for_suite(os_name)
    ranked = Allocator(curves, budget_rbes=budget).rank(max_cache_assoc=2)
    rows = []
    for rank, allocation in enumerate(ranked[:limit], start=1):
        row = {"rank": rank, **allocation.row()}
        rows.append(row)
    worst = ranked[-1]
    rows.append({"rank": len(ranked), **worst.row()})
    return rows


def main() -> None:
    """Print Table 7."""
    print(f"Table 7: best allocations under {DEFAULT_BUDGET_RBES:,} rbes with "
          "1-/2-way caches (suite under Mach)")
    print(format_table(run()))


if __name__ == "__main__":
    main()
