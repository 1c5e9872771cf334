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

from repro.memsim.stackdist import StreamingStackDistance
from repro.memsim.types import AccessKind
from repro.memsim.write_buffer import StreamingWriteBuffer
from repro.units import PAGE_SHIFT, VPN_BITS, WORD_BYTES, log2i

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


def mapped_page_ids(chunk) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(positions, page_ids, kernel)`` of a chunk's mapped references:
    where they sit, the ``(asid << VPN_BITS) | vpn`` tag a TLB looks up,
    and their kernel flags."""
    positions = np.flatnonzero(chunk["mapped"])
    vpns = np.asarray(chunk["addresses"], dtype=np.int64)[positions] >> PAGE_SHIFT
    asids = np.asarray(chunk["asids"])[positions].astype(np.int64)
    kernel = np.asarray(chunk["kernel"], dtype=bool)[positions]
    return positions, (asids << VPN_BITS) | vpns, kernel


@dataclass(frozen=True)
class ChunkIndex:
    """Where each kind of reference sits in one chunk.

    Computed once per chunk and shared by every pass the chunk feeds:
    the positions of instruction fetches, loads and stores, and the
    :func:`mapped_page_ids` of the TLB-translated references.
    """

    ifetch: np.ndarray
    load: np.ndarray
    store: np.ndarray
    mapped: np.ndarray
    page_ids: np.ndarray
    kernel: np.ndarray

    @classmethod
    def of(cls, chunk) -> "ChunkIndex":
        kinds = chunk["kinds"]
        return cls(
            np.flatnonzero(kinds == AccessKind.IFETCH),
            np.flatnonzero(kinds == AccessKind.LOAD),
            np.flatnonzero(kinds == AccessKind.STORE),
            *mapped_page_ids(chunk),
        )


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
            They feed one :class:`StreamingSystemTiming`.
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
    timing = StreamingSystemTiming(config, warm=int(n * warmup_fraction))
    for chunk in chunks:
        timing.feed(chunk, ChunkIndex.of(chunk))
    if timing.consumed != n:
        raise ValueError(
            f"chunks supplied {timing.consumed} references, expected {n}"
        )
    return timing.result(other_cpi)


class StreamingSystemTiming:
    """The timing attribution of one trace, fed one chunk at a time.

    The first ``warm`` references only prime the caches and TLB.  All
    carried state (per-structure LRU stacks, the completion-time cursor
    and the write buffer's occupancy/slip) makes :meth:`result`
    independent of how the trace is chunked.
    """

    def __init__(self, config: SystemConfig, warm: int = 0):
        self.config = config
        self.warm = int(warm)
        self.consumed = 0
        i_sets = config.icache_bytes // (
            config.icache_line_words * WORD_BYTES * config.icache_assoc
        )
        d_sets = config.dcache_bytes // (
            config.dcache_line_words * WORD_BYTES * config.dcache_assoc
        )
        if config.tlb_assoc == "full":
            t_sets, self._t_ways = 1, config.tlb_entries
        else:
            self._t_ways = int(config.tlb_assoc)
            t_sets = config.tlb_entries // self._t_ways
        self._i_sim = StreamingStackDistance(
            i_sets,
            config.icache_assoc,
            shift=log2i(config.icache_line_words * WORD_BYTES),
        )
        self._d_sim = StreamingStackDistance(
            d_sets,
            config.dcache_assoc,
            shift=log2i(config.dcache_line_words * WORD_BYTES),
        )
        self._t_sim = StreamingStackDistance(t_sets, self._t_ways)
        self._wb_sim = StreamingWriteBuffer(
            depth=config.wb_depth, retire_cycles=config.wb_retire_cycles
        )
        self._i_penalty = config.cache_penalty(config.icache_line_words)
        self._d_penalty = config.cache_penalty(config.dcache_line_words)
        self.instructions = 0
        self.icache_misses = self.dcache_misses = 0
        self.tlb_user_misses = self.tlb_kernel_misses = 0
        self._completion_carry = 0

    def feed(self, chunk, index: ChunkIndex) -> None:
        """Step every structure over one chunk of the six fields."""
        size = len(chunk["kinds"])
        if size == 0:
            return
        config = self.config
        # The warmup boundary, relative to this chunk.
        local_warm = self.warm - self.consumed
        self.consumed += size
        physical = chunk["physical"]
        penalties = np.zeros(size, dtype=np.int64)

        ifetch_idx = index.ifetch
        # A depth at the cap is a miss.
        i_miss = self._i_sim.feed(physical[ifetch_idx]) == config.icache_assoc
        penalties[ifetch_idx[i_miss]] += self._i_penalty
        measured_i = ifetch_idx >= local_warm
        self.instructions += int(measured_i.sum())
        self.icache_misses += int(i_miss[measured_i].sum())

        load_idx = index.load
        d_miss = self._d_sim.feed(physical[load_idx]) == config.dcache_assoc
        penalties[load_idx[d_miss]] += self._d_penalty
        self.dcache_misses += int(d_miss[load_idx >= local_warm].sum())

        mapped_idx = index.mapped
        if len(mapped_idx):
            t_miss = self._t_sim.feed(index.page_ids) == self._t_ways
            kernel = index.kernel
            tlb_pen = np.where(
                kernel, config.tlb_kernel_penalty, config.tlb_user_penalty
            )
            penalties[mapped_idx] += t_miss * tlb_pen
            measured = mapped_idx >= local_warm
            self.tlb_kernel_misses += int((t_miss & kernel & measured).sum())
            self.tlb_user_misses += int((t_miss & ~kernel & measured).sum())

        base = np.zeros(size, dtype=np.int64)
        base[ifetch_idx] = 1
        completion = np.cumsum(base + penalties)
        completion += self._completion_carry
        self._completion_carry = int(completion[-1])
        store_idx = index.store
        self._wb_sim.feed(
            completion[store_idx],
            count_from=int((store_idx < local_warm).sum()),
        )

    def result(self, other_cpi: float) -> SystemTimingResult:
        """The CPI breakdown over the counted references."""
        config = self.config
        instructions = self.instructions
        wb_result = self._wb_sim.result()
        other_cycles = other_cpi * instructions
        tlb_cycles = (
            self.tlb_user_misses * config.tlb_user_penalty
            + self.tlb_kernel_misses * config.tlb_kernel_penalty
        )
        icache_cycles = self.icache_misses * self._i_penalty
        dcache_cycles = self.dcache_misses * self._d_penalty
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
            icache_misses=self.icache_misses,
            dcache_misses=self.dcache_misses,
            tlb_user_misses=self.tlb_user_misses,
            tlb_kernel_misses=self.tlb_kernel_misses,
            wb_stall_cycles=wb_result.stall_cycles,
            cpi_components={
                "tlb": tlb_cycles * per_instr,
                "icache": icache_cycles * per_instr,
                "dcache": dcache_cycles * per_instr,
                "write_buffer": wb_result.stall_cycles * per_instr,
                "other": other_cpi,
            },
        )
