"""Memory-structure simulators.

This subpackage provides the benefit side of the paper's cost/benefit
analysis: trace-driven simulators for caches, TLBs and write buffers,
and a single-pass stack-distance engine (in the spirit of the Cheetah
simulator the paper cites) that yields miss counts for every
associativity of a family of nested set counts in one pass over the
trace.
"""

from repro.memsim.types import AccessKind
from repro.memsim.cache import Cache, CacheResult
from repro.memsim.tlb import Tlb, TlbResult
from repro.memsim.write_buffer import WriteBuffer, simulate_write_buffer
from repro.memsim.stackdist import (
    compulsory_miss_count,
    fully_associative_miss_curve,
    set_associative_hit_counts,
)
from repro.memsim.multiconfig import (
    cache_miss_ratio_grid,
    dedupe_consecutive,
    line_ids_for,
)
from repro.memsim.timing import SystemConfig, SystemTimingResult, simulate_system

__all__ = [
    "AccessKind",
    "Cache",
    "CacheResult",
    "Tlb",
    "TlbResult",
    "WriteBuffer",
    "simulate_write_buffer",
    "compulsory_miss_count",
    "fully_associative_miss_curve",
    "set_associative_hit_counts",
    "cache_miss_ratio_grid",
    "dedupe_consecutive",
    "line_ids_for",
    "SystemConfig",
    "SystemTimingResult",
    "simulate_system",
]
