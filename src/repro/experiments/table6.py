"""Table 6: the ten best area allocations under 250,000 rbes (Mach)."""

from __future__ import annotations

from repro.core.allocator import DEFAULT_BUDGET_RBES, Allocator
from repro.core.measure import BenefitCurves
from repro.experiments.common import format_table


def run(
    os_name: str = "mach",
    budget: float = DEFAULT_BUDGET_RBES,
    limit: int = 10,
) -> list[dict]:
    """Return the best `limit` allocations as table rows.

    Curves come from the measurement cache, one object per pair, which
    ``python -m repro.service build`` fills too; pairs it lacks are
    measured.
    """
    curves = BenefitCurves.for_suite(os_name)
    ranked = Allocator(curves, budget_rbes=budget).rank(limit=limit)
    return [a.row() for a in ranked]


def main() -> None:
    """Print Table 6."""
    print(f"Table 6: ten best area allocations under {DEFAULT_BUDGET_RBES:,} rbes "
          "(benchmark suite under Mach)")
    print(format_table(run()))


if __name__ == "__main__":
    main()
