"""Figure 7: total TLB service time vs fully-associative TLB size.

Runs the whole benchmark suite under Mach through Tapeworm-style TLB
simulation and reports total service time (user + kernel + other),
projected to nominal full-length benchmark runs.  The paper's shape:
service time collapses between 64 and 256 entries and flattens after,
leaving only page-fault/compulsory ("Other") time.
"""

from __future__ import annotations

from repro.core.configs import TlbConfig
from repro.core.measure import measure_suite
from repro.experiments.common import (
    format_table,
    projection_factor,
    suite,
    R2000_CLOCK_HZ,
)
from repro.monitor.tapeworm import PAGE_FAULT_SERVICE_CYCLES

SIZES = (32, 64, 128, 256, 512)
USER_PENALTY = 20
KERNEL_PENALTY = 400


def run(os_name: str = "mach") -> list[dict]:
    """Return one row per FA TLB size with service-time components."""
    curves = measure_suite(
        os_name,
        tuple(suite()),
        tlb_entries=SIZES,
        tlb_full_max=max(SIZES),
    )
    rows = []
    for size in SIZES:
        user_s = kernel_s = other_s = 0.0
        config = TlbConfig(size, "full")
        for c in curves:
            factor = projection_factor(c.instructions)
            user, kernel = c.tlb[(size, "full")]
            user_s += user * USER_PENALTY * factor / R2000_CLOCK_HZ
            kernel_s += kernel * KERNEL_PENALTY * factor / R2000_CLOCK_HZ
            other_s += (
                c.page_fault_per_instr
                * c.instructions
                * PAGE_FAULT_SERVICE_CYCLES
                * factor
                / R2000_CLOCK_HZ
            )
        rows.append(
            {
                "tlb": config.label(),
                "user_s": round(user_s, 1),
                "kernel_s": round(kernel_s, 1),
                "other_s": round(other_s, 1),
                "total_s": round(user_s + kernel_s + other_s, 1),
            }
        )
    return rows


def main() -> None:
    """Print the Figure 7 series."""
    print("Figure 7: total TLB service time vs fully-associative TLB size "
          "(suite under Mach, projected to nominal full runs)")
    print(format_table(run()))


if __name__ == "__main__":
    main()
