"""Generation context: turns modelled code paths into trace references.

The OS and workload models describe *what* executes (a routine of N
instructions in some segment, with data references drawn from given
emitters); the context draws where each data reference falls in the
instruction stream and records the run in a trace builder, which
interleaves all recorded runs into program order at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.memsim.types import AccessKind
from repro.osmodel.addrspace import AddressSpace, Segment
from repro.trace.events import TraceChunkBuilder
from repro.units import WORD_BYTES


@dataclass
class DataPart:
    """One batch of data references to interleave into a code run.

    Attributes:
        addresses: word addresses, in the order they should appear.
        kind: AccessKind.LOAD or AccessKind.STORE.
        mapped / kernel: translation attributes of the touched pages.
        asid: address space the translation belongs to.
        run_words: spatial run length — consecutive addresses in a run
            stay adjacent in program order when interleaved.
    """

    addresses: np.ndarray
    kind: AccessKind
    mapped: bool
    kernel: bool
    asid: int
    run_words: int = 1


class GenerationContext:
    """Mutable state threaded through one trace generation run.

    Args:
        seed: seed for the private random generator.
        target_references: generation stops soon after the builder holds
            this many references.
        builder: optional pre-built trace builder (the streaming path
            injects a :class:`~repro.trace.events.ChunkedTraceBuilder`
            here); defaults to an in-memory :class:`TraceChunkBuilder`.
    """

    def __init__(
        self,
        seed: int,
        target_references: int,
        builder: TraceChunkBuilder | None = None,
    ):
        self.rng = np.random.default_rng(seed)
        self.builder = TraceChunkBuilder() if builder is None else builder
        self.target_references = target_references
        self.page_faults = 0

    @property
    def done(self) -> bool:
        """True once the target reference count has been reached."""
        return self.builder.count >= self.target_references

    # -- code-address construction ----------------------------------------

    def straight_code(
        self,
        segment: Segment,
        offset: int,
        n_instr: int,
        basic_block_mean: int = 16,
        gap_mean: int = 10,
    ) -> np.ndarray:
        """Fetch addresses for one pass over a code path.

        Code is not perfectly sequential: the fetch stream consists of
        executed basic blocks (geometric length, mean
        ``basic_block_mean``) separated by *skipped* words (mean
        ``gap_mean``) — untaken branches, error paths and alignment
        padding that occupy line words without ever being fetched.
        Those gaps are what limit the payoff of very long cache lines:
        once the line exceeds the block length, each fill drags in
        words that are never executed, reproducing the paper's CPI
        upturn at 16-word I-cache lines and the sub-1/L miss-ratio
        scaling of Figure 9.  Pass ``basic_block_mean=None`` for a
        perfectly sequential path.  Paths longer than the segment wrap.
        """
        size_words = max(segment.size // WORD_BYTES, 1)
        start_word = (offset // WORD_BYTES) % size_words
        if basic_block_mean is None or n_instr <= 8:
            words = (np.arange(n_instr, dtype=np.int64) + start_word) % size_words
            return segment.base + words * WORD_BYTES
        estimated = max(int(2 * n_instr / basic_block_mean), 4)
        lengths = self.rng.geometric(1.0 / basic_block_mean, size=estimated)
        while lengths.sum() < n_instr:
            lengths = np.concatenate(
                [lengths, self.rng.geometric(1.0 / basic_block_mean, size=estimated)]
            )
        n_blocks = min(
            int(lengths.cumsum().searchsorted(n_instr)) + 1, len(lengths)
        )
        lengths = lengths[:n_blocks]
        gaps = self.rng.geometric(1.0 / max(gap_mean, 1), size=n_blocks)
        # Heavy tail: some gaps are entire never-executed functions
        # (error paths, unused library entries), far longer than any
        # cache line — lines falling wholly inside them are never
        # fetched at any line size, which is what finally turns long
        # lines into pure overhead.
        cold_function = self.rng.random(n_blocks) < 0.12
        gaps += np.where(cold_function, self.rng.integers(32, 160, size=n_blocks), 0)
        gaps[0] = 0
        # The i-th fetch lies after i executed words and every gap
        # skipped so far, so it sits at start + i + (gaps up to its
        # block).
        skipped = gaps.cumsum().repeat(lengths)[:n_instr]
        words = (skipped + np.arange(n_instr) + start_word) % size_words
        return segment.base + words * WORD_BYTES

    def loop_code(
        self,
        segment: Segment,
        offset: int,
        body_instr: int,
        iterations: int,
        basic_block_mean: int = 16,
    ) -> np.ndarray:
        """Fetch addresses for a loop executed ``iterations`` times.

        The body's internal branch structure is generated once and
        repeated — a real loop body takes the same branches each pass.
        """
        body = self.straight_code(segment, offset, body_instr, basic_block_mean)
        return np.tile(body, iterations)

    # -- emission -----------------------------------------------------------

    def emit(
        self,
        space: AddressSpace,
        code_segment: Segment,
        code_addresses: np.ndarray,
        data_parts: list[DataPart] | None = None,
    ) -> None:
        """Interleave a code run with its data references and record it.

        Data runs are inserted at random instruction boundaries, with
        each spatial run kept contiguous, preserving program order
        within every part.  Only the boundaries are drawn here; the
        builder assembles recorded runs into columns in one pass.
        """
        n_code = len(code_addresses)
        parts = []
        for part in data_parts or ():
            n = len(part.addresses)
            if not n:
                continue
            run = max(1, part.run_words)
            n_runs = (n + run - 1) // run
            positions = self.rng.integers(0, n_code + 1, size=n_runs)
            positions.sort()
            positions = positions.repeat(run)[:n]
            parts.append(
                (
                    part.addresses,
                    positions,
                    int(part.kind),
                    part.asid,
                    part.mapped,
                    part.kernel,
                )
            )
        self.builder.append(
            code_addresses,
            int(AccessKind.IFETCH),
            space.asid,
            code_segment.mapped,
            code_segment.kernel,
            parts,
        )

    def split_loads_stores(
        self, n_instr: int, load_frac: float, store_frac: float
    ) -> tuple[int, int]:
        """Poisson-jittered load/store counts for a run of instructions."""
        loads = int(self.rng.poisson(max(n_instr * load_frac, 0.0)))
        stores = int(self.rng.poisson(max(n_instr * store_frac, 0.0)))
        return loads, stores
