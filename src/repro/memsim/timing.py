"""Full-system timing simulation (the engine behind the Monster substitute).

Combines an I-cache, a D-cache, a TLB and a write buffer over one
reference trace and attributes every stall cycle to the component that
caused it, reproducing the CPI-breakdown methodology of Tables 3 and 4:

* each instruction costs one base cycle (single-issue machine);
* an I-cache or D-cache (load) miss costs ``miss_first`` cycles for the
  first word plus ``miss_per_word`` for each additional word in the
  line (the paper uses 6 + 1/word);
* stores are write-through and stall only when the write buffer fills;
* TLB misses are handled in software: ``tlb_user_penalty`` cycles for
  user pages and ``tlb_kernel_penalty`` for mapped kernel pages
  (~20 vs ~400+ on the R2000, per the paper);
* "other" stalls (FP/integer interlocks) are a per-workload constant
  carried on the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from typing import TYPE_CHECKING

from repro.memsim.multiconfig import line_ids_for
from repro.memsim.stackdist import StreamingStackDistance
from repro.memsim.types import AccessKind
from repro.memsim.write_buffer import StreamingWriteBuffer
from repro.units import PAGE_SHIFT, VPN_BITS, WORD_BYTES

if TYPE_CHECKING:  # avoid a circular import; traces import memsim types
    from repro.trace.events import ReferenceTrace


@dataclass(frozen=True)
class SystemConfig:
    """A complete on-chip (or board-level) memory system configuration.

    Attributes:
        icache_bytes / icache_line_words / icache_assoc: I-cache geometry.
        dcache_bytes / dcache_line_words / dcache_assoc: D-cache geometry.
        tlb_entries / tlb_assoc: TLB geometry ('full' for CAM TLBs).
        wb_depth / wb_retire_cycles: write-buffer depth and memory write time.
        miss_first / miss_per_word: cache miss penalty model.
        tlb_user_penalty / tlb_kernel_penalty: software TLB-refill costs.
    """

    icache_bytes: int
    icache_line_words: int
    icache_assoc: int
    dcache_bytes: int
    dcache_line_words: int
    dcache_assoc: int
    tlb_entries: int
    tlb_assoc: int | str
    wb_depth: int = 4
    wb_retire_cycles: int = 3
    miss_first: int = 6
    miss_per_word: int = 1
    tlb_user_penalty: int = 20
    tlb_kernel_penalty: int = 400

    def cache_penalty(self, line_words: int) -> int:
        """Cycles to service one cache miss of the given line size."""
        return self.miss_first + self.miss_per_word * (line_words - 1)


DECSTATION_3100 = SystemConfig(
    icache_bytes=64 * 1024,
    icache_line_words=1,
    icache_assoc=1,
    dcache_bytes=64 * 1024,
    dcache_line_words=1,
    dcache_assoc=1,
    tlb_entries=64,
    tlb_assoc="full",
)
"""The measurement platform of the paper: 64-KB direct-mapped off-chip
I- and D-caches with 1-word lines and a 64-entry fully-associative TLB."""


@dataclass
class SystemTimingResult:
    """CPI breakdown produced by :func:`simulate_system`.

    ``cpi_components`` follows the paper's column layout: contributions
    above the base CPI of 1.0 from the TLB, I-cache, D-cache, write
    buffer and other (non-memory) stalls.
    """

    instructions: int
    cycles: float
    icache_misses: int
    dcache_misses: int
    tlb_user_misses: int
    tlb_kernel_misses: int
    wb_stall_cycles: int
    cpi_components: dict[str, float] = field(default_factory=dict)

    @property
    def cpi(self) -> float:
        """Total cycles per instruction."""
        return self.cycles / self.instructions if self.instructions else 0.0

    def component_fractions(self) -> dict[str, float]:
        """Each component's share of the CPI above 1.0 (the paper's
        parenthesised percentages)."""
        overhead = sum(self.cpi_components.values())
        if overhead <= 0:
            return {k: 0.0 for k in self.cpi_components}
        return {k: v / overhead for k, v in self.cpi_components.items()}


_SYSTEM_FIELDS = ("addresses", "physical", "kinds", "asids", "mapped", "kernel")


def simulate_system(
    trace: ReferenceTrace,
    config: SystemConfig,
    warmup_fraction: float = 0.0,
) -> SystemTimingResult:
    """Attribute every stall cycle in *trace* under *config*.

    A materialized trace fed to :func:`simulate_system_stream` as a
    single chunk.
    """
    return simulate_system_stream(
        [{name: getattr(trace, name) for name in _SYSTEM_FIELDS}],
        len(trace),
        trace.other_cpi,
        config,
        warmup_fraction=warmup_fraction,
    )


def simulate_system_stream(
    chunks,
    total_references: int,
    other_cpi: float,
    config: SystemConfig,
    warmup_fraction: float = 0.0,
) -> SystemTimingResult:
    """Attribute every stall cycle of a chunked trace under *config*.

    Args:
        chunks: dicts with the six reference-field arrays
            (``addresses``/``physical``/``kinds``/``asids``/``mapped``/
            ``kernel``) in program order, their lengths summing to
            ``total_references``; only one chunk is held at a time.
            All carried state — per-structure LRU stacks, the
            completion-time cursor and the write buffer's
            occupancy/slip — makes the result independent of how the
            trace is chunked.
        total_references: the trace length.
        other_cpi: the trace's non-memory stall CPI.
        config: the memory-system configuration.
        warmup_fraction: leading fraction of the trace used only to
            prime the caches/TLB; misses and cycles are counted over
            the remainder.  The paper's measurements come from long
            runs where cold-start is negligible, so steady-state
            experiments use a non-zero warmup here.

    Returns:
        A :class:`SystemTimingResult` whose ``cpi_components`` mirror the
        TLB / I-cache / D-cache / Write Buffer / Other columns of the
        paper's Tables 3 and 4.
    """
    n = int(total_references)
    warm = int(n * warmup_fraction)

    i_sets = config.icache_bytes // (
        config.icache_line_words * WORD_BYTES * config.icache_assoc
    )
    d_sets = config.dcache_bytes // (
        config.dcache_line_words * WORD_BYTES * config.dcache_assoc
    )
    if config.tlb_assoc == "full":
        t_sets, t_ways = 1, config.tlb_entries
    else:
        t_ways = int(config.tlb_assoc)
        t_sets = config.tlb_entries // t_ways
    i_sim = StreamingStackDistance(i_sets, config.icache_assoc)
    d_sim = StreamingStackDistance(d_sets, config.dcache_assoc)
    t_sim = StreamingStackDistance(t_sets, t_ways)
    wb_sim = StreamingWriteBuffer(
        depth=config.wb_depth, retire_cycles=config.wb_retire_cycles
    )
    i_penalty = config.cache_penalty(config.icache_line_words)
    d_penalty = config.cache_penalty(config.dcache_line_words)

    instructions = 0
    icache_misses = dcache_misses = 0
    tlb_user_misses = tlb_kernel_misses = 0
    completion_carry = 0
    consumed = 0

    for chunk in chunks:
        kinds = chunk["kinds"]
        size = len(kinds)
        if size == 0:
            continue
        # The warmup boundary, relative to this chunk.
        local_warm = warm - consumed
        consumed += size
        physical = chunk["physical"]
        ifetch_mask = kinds == AccessKind.IFETCH
        load_mask = kinds == AccessKind.LOAD
        store_mask = kinds == AccessKind.STORE
        penalties = np.zeros(size, dtype=np.int64)

        ifetch_idx = np.flatnonzero(ifetch_mask)
        # A depth at the cap is a miss.
        i_miss = i_sim.feed(
            line_ids_for(physical[ifetch_idx], config.icache_line_words)
        ) == config.icache_assoc
        penalties[ifetch_idx[i_miss]] += i_penalty
        measured_i = ifetch_idx >= local_warm
        instructions += int(measured_i.sum())
        icache_misses += int(i_miss[measured_i].sum())

        load_idx = np.flatnonzero(load_mask)
        d_miss = d_sim.feed(
            line_ids_for(physical[load_idx], config.dcache_line_words)
        ) == config.dcache_assoc
        penalties[load_idx[d_miss]] += d_penalty
        dcache_misses += int(d_miss[load_idx >= local_warm].sum())

        mapped_idx = np.flatnonzero(chunk["mapped"])
        if len(mapped_idx):
            vpns = np.asarray(chunk["addresses"], dtype=np.int64)[mapped_idx] >> PAGE_SHIFT
            asids = np.asarray(chunk["asids"])[mapped_idx]
            t_miss = t_sim.feed((asids.astype(np.int64) << VPN_BITS) | vpns) == t_ways
            kernel = np.asarray(chunk["kernel"], dtype=bool)[mapped_idx]
            tlb_pen = np.where(
                kernel, config.tlb_kernel_penalty, config.tlb_user_penalty
            )
            penalties[mapped_idx] += t_miss * tlb_pen
            measured = mapped_idx >= local_warm
            tlb_kernel_misses += int((t_miss & kernel & measured).sum())
            tlb_user_misses += int((t_miss & ~kernel & measured).sum())

        base = ifetch_mask.astype(np.int64)
        completion = np.cumsum(base + penalties)
        completion += completion_carry
        completion_carry = int(completion[-1])
        store_idx = np.flatnonzero(store_mask)
        wb_sim.feed(
            completion[store_idx],
            count_from=int((store_idx < local_warm).sum()),
        )

    if consumed != n:
        raise ValueError(f"chunks supplied {consumed} references, expected {n}")

    wb_result = wb_sim.result()
    other_cycles = other_cpi * instructions
    tlb_cycles = (
        tlb_user_misses * config.tlb_user_penalty
        + tlb_kernel_misses * config.tlb_kernel_penalty
    )
    icache_cycles = icache_misses * i_penalty
    dcache_cycles = dcache_misses * d_penalty
    total_cycles = (
        instructions
        + icache_cycles
        + dcache_cycles
        + tlb_cycles
        + wb_result.stall_cycles
        + other_cycles
    )
    per_instr = 1.0 / instructions if instructions else 0.0
    return SystemTimingResult(
        instructions=instructions,
        cycles=float(total_cycles),
        icache_misses=icache_misses,
        dcache_misses=dcache_misses,
        tlb_user_misses=tlb_user_misses,
        tlb_kernel_misses=tlb_kernel_misses,
        wb_stall_cycles=wb_result.stall_cycles,
        cpi_components={
            "tlb": tlb_cycles * per_instr,
            "icache": icache_cycles * per_instr,
            "dcache": dcache_cycles * per_instr,
            "write_buffer": wb_result.stall_cycles * per_instr,
            "other": other_cpi,
        },
    )
