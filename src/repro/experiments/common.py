"""Shared experiment infrastructure: traces, scaling and formatting."""

from __future__ import annotations

from functools import lru_cache

from repro.core.measure import DEFAULT_REFERENCES, scale
from repro.trace import tracestore
from repro.trace.events import ReferenceTrace
from repro.workloads.registry import workload_names

DEFAULT_SEED = 1
WARMUP_FRACTION = 0.4

R2000_CLOCK_HZ = 16.67e6
"""DECstation 3100 clock."""

NOMINAL_RUN_SECONDS = 150.0
"""The paper tunes benchmark inputs so each run takes 100-200 s under
Mach; service-time figures are projected to this nominal duration."""

NOMINAL_RUN_INSTRUCTIONS = NOMINAL_RUN_SECONDS * R2000_CLOCK_HZ / 2.0
"""Instructions in a nominal run, assuming CPI ~ 2 (Table 4 average)."""


def trace_references() -> int:
    """Per-trace reference target, honouring REPRO_SCALE."""
    return int(DEFAULT_REFERENCES * scale())


@lru_cache(maxsize=16)
def _cached_trace(
    workload: str, os_name: str, references: int, seed: int
) -> ReferenceTrace:
    # The trace plane (mmap-backed on-disk cache) sits behind the
    # in-process memo: warm entries load as shared memory maps, misses
    # generate once and publish for every later process.
    return tracestore.get_trace(workload, os_name, references, seed=seed)


def get_trace(workload: str, os_name: str, seed: int = DEFAULT_SEED) -> ReferenceTrace:
    """Load (trace plane) or generate one workload/OS trace, memoized.

    The memo key includes the REPRO_SCALE-derived reference count, so a
    scale change mid-process (tests flipping REPRO_SCALE, a notebook
    resizing its runs) regenerates instead of replaying a stale length.
    """
    return _cached_trace(workload, os_name, trace_references(), seed)


# Existing callers clear the memo through the public name.
get_trace.cache_clear = _cached_trace.cache_clear
get_trace.cache_info = _cached_trace.cache_info


def suite() -> list[str]:
    """Benchmark names in the paper's order."""
    return workload_names()


def projection_factor(measured_instructions: int) -> float:
    """Scale measured-window counts to a nominal full benchmark run."""
    return NOMINAL_RUN_INSTRUCTIONS / max(measured_instructions, 1)


def format_table(rows: list[dict], columns: list[str] | None = None) -> str:
    """Plain-text table for experiment output."""
    if not rows:
        return "(no rows)"
    columns = columns if columns is not None else list(rows[0].keys())
    widths = {
        c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows)) for c in columns
    }
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    divider = "  ".join("-" * widths[c] for c in columns)
    lines = [header, divider]
    for row in rows:
        lines.append("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)
