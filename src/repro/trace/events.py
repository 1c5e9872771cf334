"""Numpy-backed memory-reference traces.

A trace is a sequence of references, each with a byte address, an
access kind (ifetch / load / store), the address-space identifier of
the running context, and two flags: whether the reference is *mapped*
(translated through the TLB — unmapped MIPS k0seg kernel references
bypass it) and whether a mapped reference belongs to *kernel* address
space (which changes its TLB miss cost).

Traces also carry the bookkeeping the Monster-style monitor needs to
produce full CPI numbers: the number of page faults that occurred
while generating the trace (the "Other" TLB service component of
Figure 7) and the workload's non-memory interlock CPI (the "Other"
column of Tables 3/4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import TraceError
from repro.memsim.types import AccessKind
from repro.units import PAGE_BYTES, PAGE_SHIFT

PHYSICAL_FRAME_SPACE = 1 << 20
"""Number of physical frames the mapper draws from (4 GB of frames —
large enough that frame collisions cannot occur for our traces)."""

FRAME_CHUNK_MEAN_PAGES = 6
"""Mean contiguous-frame chunk handed out by the modelled allocator
(geometric); smaller values mean a more fragmented free list and more
cache-colour conflicts between regions."""


def frames_for_pages(
    unique_pages: np.ndarray, page_mapped: np.ndarray, seed: int = 0
) -> np.ndarray:
    """Assign a physical frame to every page of a sorted unique-page set.

    This is the core of :func:`assign_physical_frames`, factored out so
    the streaming generator can collect the page set incrementally (one
    chunk at a time) and still draw *bit-identical* frames: the result
    depends only on the sorted unique pages, their first-occurrence
    mapped flags and the seed — never on how many references touched
    each page or in what order.
    """
    unique_pages = np.asarray(unique_pages, dtype=np.int64)
    page_mapped = np.asarray(page_mapped, dtype=bool)
    rng = np.random.default_rng(seed)
    frames = np.empty(len(unique_pages), dtype=np.int64)
    used_bases: set[int] = set()

    def place_run(start: int, stop: int) -> None:
        """Give pages [start, stop) consecutive frames at a random base."""
        run_len = stop - start
        while True:
            base = int(rng.integers(0, PHYSICAL_FRAME_SPACE - run_len))
            # Coarse overlap check at 256-frame granularity keeps runs
            # disjoint without tracking every frame.
            blocks = range(base >> 8, ((base + run_len) >> 8) + 1)
            if all(b not in used_bases for b in blocks):
                used_bases.update(blocks)
                break
        frames[start:stop] = base + np.arange(run_len)

    run_start = 0
    for i in range(1, len(unique_pages) + 1):
        is_break = (
            i == len(unique_pages)
            or unique_pages[i] != unique_pages[i - 1] + 1
            or page_mapped[i] != page_mapped[i - 1]
        )
        if not is_break:
            continue
        run_len = i - run_start
        if not page_mapped[run_start]:
            # k0seg: physical address == virtual address.
            frames[run_start:i] = unique_pages[run_start:i]
            run_start = i
            continue
        # The free list is fragmented on a live system: long virtual
        # runs are served in chunks of a few contiguous frames each,
        # so distinct regions do collide in cache-colour space — the
        # conflicts that set associativity then absorbs (Figure 10).
        chunk_start = run_start
        while chunk_start < i:
            chunk_len = min(int(rng.geometric(1.0 / FRAME_CHUNK_MEAN_PAGES)), i - chunk_start)
            place_run(chunk_start, chunk_start + chunk_len)
            chunk_start += chunk_len
        run_start = i
    return frames


def assign_physical_frames(
    addresses: np.ndarray, seed: int = 0, mapped: np.ndarray | None = None
) -> np.ndarray:
    """Map virtual byte addresses to physical byte addresses.

    Two regimes, as on the modelled MIPS machine:

    * Unmapped (k0seg) pages are identity-mapped — kernel text and the
      buffer cache sit at fixed, contiguous physical addresses, so the
      kernel's cache-colour layout is under the kernel's control.
    * Mapped pages model a mid-90s allocator without cache colouring:
      runs of consecutive virtual pages (text segments, buffers) get
      runs of consecutive physical frames at a random base, so
      sequential code never conflicts with itself, while unrelated
      segments land at uncorrelated colours.

    Page-offset bits are preserved.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    pages = addresses >> PAGE_SHIFT
    unique_pages, first_index, inverse = np.unique(
        pages, return_index=True, return_inverse=True
    )
    if mapped is None:
        page_mapped = np.ones(len(unique_pages), dtype=bool)
    else:
        page_mapped = np.asarray(mapped, dtype=bool)[first_index]
    frames = frames_for_pages(unique_pages, page_mapped, seed=seed)
    phys_pages = frames[inverse]
    return (phys_pages << PAGE_SHIFT) | (addresses & (PAGE_BYTES - 1))


class PageFrameTable:
    """Incrementally collected virtual-page → physical-frame mapping.

    The streaming generator cannot see all addresses at once, so it
    observes virtual pages chunk by chunk, then finalizes a frame
    assignment that is bit-identical to the batch path: the per-page
    mapped flag recorded is the flag of the page's *first occurrence*
    in stream order (matching ``np.unique(..., return_index=True)``),
    and :func:`frames_for_pages` depends only on the sorted unique
    page set, those flags, and the seed.
    """

    def __init__(self) -> None:
        self._page_mapped: dict[int, bool] = {}
        self._frames: dict[int, int] | None = None

    def observe(self, addresses: np.ndarray, mapped: np.ndarray) -> None:
        """Record the pages touched by one chunk (first flag wins)."""
        if self._frames is not None:
            raise TraceError("PageFrameTable already finalized")
        pages = np.asarray(addresses, dtype=np.int64) >> PAGE_SHIFT
        unique, first_index = np.unique(pages, return_index=True)
        flags = np.asarray(mapped, dtype=bool)[first_index]
        table = self._page_mapped
        for page, flag in zip(unique.tolist(), flags.tolist()):
            if page not in table:
                table[page] = flag

    def finalize(self, seed: int) -> None:
        """Assign frames; afterwards :meth:`physical_for` is usable."""
        unique_pages = np.fromiter(
            sorted(self._page_mapped), dtype=np.int64, count=len(self._page_mapped)
        )
        page_mapped = np.fromiter(
            (self._page_mapped[p] for p in unique_pages.tolist()),
            dtype=bool,
            count=len(unique_pages),
        )
        frames = frames_for_pages(unique_pages, page_mapped, seed=seed)
        self._lookup_pages = unique_pages
        self._lookup_frames = frames
        self._frames = {}

    def physical_for(self, addresses: np.ndarray) -> np.ndarray:
        """Physical byte addresses for one chunk of virtual addresses."""
        if self._frames is None:
            raise TraceError("PageFrameTable not finalized")
        addresses = np.asarray(addresses, dtype=np.int64)
        pages = addresses >> PAGE_SHIFT
        idx = np.searchsorted(self._lookup_pages, pages)
        phys_pages = self._lookup_frames[idx]
        return (phys_pages << PAGE_SHIFT) | (addresses & (PAGE_BYTES - 1))


@dataclass
class ReferenceTrace:
    """One synthetic workload execution as parallel numpy arrays.

    Attributes:
        addresses: virtual byte addresses (int64) — what the TLB sees.
        physical: physical byte addresses (int64) — what the
            physically indexed caches see.  Pages are scattered in
            physical memory by a seeded permutation, modelling a
            non-page-colouring allocator like the DECstation's.
        kinds: :class:`AccessKind` values (uint8).
        asids: address-space identifiers (uint8).
        mapped: True where the reference is translated by the TLB.
        kernel: True where a mapped reference is to kernel space.
        page_faults: page faults taken during generation.
        other_cpi: non-memory stall CPI (FP/integer interlocks).
        workload: workload name, e.g. "mpeg_play".
        os_name: operating system name, "ultrix" or "mach".
    """

    addresses: np.ndarray
    physical: np.ndarray
    kinds: np.ndarray
    asids: np.ndarray
    mapped: np.ndarray
    kernel: np.ndarray
    page_faults: int = 0
    other_cpi: float = 0.0
    workload: str = ""
    os_name: str = ""

    def __post_init__(self):
        n = len(self.addresses)
        for name in ("physical", "kinds", "asids", "mapped", "kernel"):
            if len(getattr(self, name)) != n:
                raise TraceError(f"trace field {name} length mismatch")
        # Per-instance cache of derived streams (physical ifetch/load
        # addresses): the hot measurement units all consume them, so
        # they are materialized once per trace, not once per unit.
        # Trace arrays are never mutated after construction, and the
        # trace cache pre-seeds this dict with memmapped streams.
        self._derived: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.addresses)

    @property
    def instructions(self) -> int:
        """Instruction count (= number of ifetch references)."""
        return int(np.count_nonzero(self.kinds == AccessKind.IFETCH))

    @property
    def loads(self) -> int:
        """Number of load references."""
        return int(np.count_nonzero(self.kinds == AccessKind.LOAD))

    @property
    def stores(self) -> int:
        """Number of store references."""
        return int(np.count_nonzero(self.kinds == AccessKind.STORE))

    def ifetch_addresses(self) -> np.ndarray:
        """Virtual addresses of instruction fetches, in order."""
        return self.addresses[self.kinds == AccessKind.IFETCH]

    def ifetch_physical(self) -> np.ndarray:
        """Physical addresses of instruction fetches (cache studies)."""
        stream = self._derived.get("ifetch_physical")
        if stream is None:
            stream = self.physical[self.kinds == AccessKind.IFETCH]
            self._derived["ifetch_physical"] = stream
        return stream

    def load_addresses(self) -> np.ndarray:
        """Virtual addresses of loads, in order."""
        return self.addresses[self.kinds == AccessKind.LOAD]

    def load_physical(self) -> np.ndarray:
        """Physical addresses of loads (cache studies)."""
        stream = self._derived.get("load_physical")
        if stream is None:
            stream = self.physical[self.kinds == AccessKind.LOAD]
            self._derived["load_physical"] = stream
        return stream

    def data_addresses(self) -> np.ndarray:
        """Virtual addresses of loads and stores, in order."""
        return self.addresses[self.kinds != AccessKind.IFETCH]

    def mapped_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(vpn, asid, kernel) arrays for TLB-translated references."""
        mask = self.mapped
        return (
            self.addresses[mask] >> PAGE_SHIFT,
            self.asids[mask],
            self.kernel[mask],
        )

    def slice(self, start: int, stop: int) -> "ReferenceTrace":
        """A contiguous sub-trace (used by the sampling machinery)."""
        return ReferenceTrace(
            addresses=self.addresses[start:stop],
            physical=self.physical[start:stop],
            kinds=self.kinds[start:stop],
            asids=self.asids[start:stop],
            mapped=self.mapped[start:stop],
            kernel=self.kernel[start:stop],
            page_faults=self.page_faults,
            other_cpi=self.other_cpi,
            workload=self.workload,
            os_name=self.os_name,
        )

    def _field(self, name: str) -> np.ndarray:
        if name in ("ifetch_physical", "load_physical"):
            return getattr(self, name)()
        return getattr(self, name)

    def count(self, name: str) -> int:
        """Element count of one field (as :class:`TraceStream` reports)."""
        return len(self._field(name))

    def chunks(self, fields):
        """The whole trace as one ``(start, stop, {field: array})`` window.

        The same iteration :meth:`repro.trace.tracestore.TraceStream.
        chunks` offers, so measurement reads a materialized trace as a
        single chunk of the streaming kernels.
        """
        yield 0, len(self), {name: self._field(name) for name in fields}

    def save(self, path: str | Path) -> None:
        """Persist the trace as a compressed .npz file."""
        np.savez_compressed(
            Path(path),
            addresses=self.addresses,
            physical=self.physical,
            kinds=self.kinds,
            asids=self.asids,
            mapped=self.mapped,
            kernel=self.kernel,
            meta=np.array(
                [self.page_faults, self.other_cpi], dtype=np.float64
            ),
            labels=np.array([self.workload, self.os_name]),
        )

    @classmethod
    def load(cls, path: str | Path) -> "ReferenceTrace":
        """Load a trace previously written by :meth:`save`."""
        with np.load(Path(path), allow_pickle=False) as data:
            meta = data["meta"]
            labels = data["labels"]
            return cls(
                addresses=data["addresses"],
                physical=data["physical"],
                kinds=data["kinds"],
                asids=data["asids"],
                mapped=data["mapped"],
                kernel=data["kernel"],
                page_faults=int(meta[0]),
                other_cpi=float(meta[1]),
                workload=str(labels[0]),
                os_name=str(labels[1]),
            )


@dataclass
class TraceChunkBuilder:
    """Accumulates reference chunks efficiently during generation.

    The generator produces runs of sequential fetches and batched data
    references as small numpy arrays; this builder concatenates them
    once at the end instead of growing arrays incrementally.
    """

    addresses: list[np.ndarray] = field(default_factory=list)
    kinds: list[np.ndarray] = field(default_factory=list)
    asids: list[np.ndarray] = field(default_factory=list)
    mapped: list[np.ndarray] = field(default_factory=list)
    kernel: list[np.ndarray] = field(default_factory=list)
    count: int = 0

    def append(
        self,
        addresses: np.ndarray,
        kind: int | np.ndarray,
        asid: int,
        mapped: bool,
        kernel: bool,
    ) -> None:
        """Add a chunk with uniform asid/mapped/kernel attributes."""
        n = len(addresses)
        if n == 0:
            return
        self.addresses.append(np.asarray(addresses, dtype=np.int64))
        if np.isscalar(kind):
            self.kinds.append(np.full(n, kind, dtype=np.uint8))
        else:
            self.kinds.append(np.asarray(kind, dtype=np.uint8))
        self.asids.append(np.full(n, asid, dtype=np.uint8))
        self.mapped.append(np.full(n, mapped, dtype=bool))
        self.kernel.append(np.full(n, kernel, dtype=bool))
        self.count += n

    def append_raw(
        self,
        addresses: np.ndarray,
        kinds: np.ndarray,
        asids: np.ndarray,
        mapped: np.ndarray,
        kernel: np.ndarray,
    ) -> None:
        """Add a chunk with fully per-reference attributes.

        Used by the generation context when a single program-order run
        interleaves references with different translation attributes
        (e.g. a kernel copy loop touching both unmapped kernel buffers
        and mapped user pages).
        """
        n = len(addresses)
        if n == 0:
            return
        self.addresses.append(np.asarray(addresses, dtype=np.int64))
        self.kinds.append(np.asarray(kinds, dtype=np.uint8))
        self.asids.append(np.asarray(asids, dtype=np.uint8))
        self.mapped.append(np.asarray(mapped, dtype=bool))
        self.kernel.append(np.asarray(kernel, dtype=bool))
        self.count += n

    def build(
        self,
        page_faults: int = 0,
        other_cpi: float = 0.0,
        workload: str = "",
        os_name: str = "",
        physical_seed: int = 0,
    ) -> ReferenceTrace:
        """Concatenate all chunks into a :class:`ReferenceTrace`.

        Virtual pages are assigned scattered physical frames by a
        seeded draw (``physical_seed``), so physically indexed cache
        behaviour does not depend on the virtual layout's contiguity.
        """
        if not self.addresses:
            empty = np.empty(0, dtype=np.int64)
            return ReferenceTrace(
                addresses=empty,
                physical=empty.copy(),
                kinds=np.empty(0, dtype=np.uint8),
                asids=np.empty(0, dtype=np.uint8),
                mapped=np.empty(0, dtype=bool),
                kernel=np.empty(0, dtype=bool),
                page_faults=page_faults,
                other_cpi=other_cpi,
                workload=workload,
                os_name=os_name,
            )
        addresses = np.concatenate(self.addresses)
        mapped = np.concatenate(self.mapped)
        return ReferenceTrace(
            addresses=addresses,
            physical=assign_physical_frames(
                addresses, seed=physical_seed, mapped=mapped
            ),
            kinds=np.concatenate(self.kinds),
            asids=np.concatenate(self.asids),
            mapped=mapped,
            kernel=np.concatenate(self.kernel),
            page_faults=page_faults,
            other_cpi=other_cpi,
            workload=workload,
            os_name=os_name,
        )


_CHUNK_FIELDS = ("addresses", "kinds", "asids", "mapped", "kernel")


class ChunkedTraceBuilder(TraceChunkBuilder):
    """A builder that drains fixed-size chunks to a sink as it fills.

    Generation models use the normal ``append``/``append_raw`` API;
    whenever at least ``chunk_references`` references are pending they
    are concatenated and handed to ``sink(addresses, kinds, asids,
    mapped, kernel)`` as full fixed-size chunks (the trailing partial
    chunk is emitted by :meth:`flush`).  Drained chunks are dropped, so
    generation RSS stays bounded by one chunk regardless of the target
    trace length.  ``count`` stays cumulative (the generation context
    uses it to decide when the target is reached).
    """

    def __init__(self, sink, chunk_references: int) -> None:
        super().__init__()
        if chunk_references <= 0:
            raise TraceError("chunk_references must be positive")
        self._sink = sink
        self._chunk_references = chunk_references
        self._pending = 0

    def append(self, addresses, kind, asid, mapped, kernel) -> None:
        before = self.count
        super().append(addresses, kind, asid, mapped, kernel)
        self._pending += self.count - before
        self._drain()

    def append_raw(self, addresses, kinds, asids, mapped, kernel) -> None:
        before = self.count
        super().append_raw(addresses, kinds, asids, mapped, kernel)
        self._pending += self.count - before
        self._drain()

    def flush(self) -> None:
        """Emit whatever is pending as one final (possibly short) chunk."""
        self._drain(final=True)

    def build(self, *args, **kwargs):
        raise TraceError(
            "ChunkedTraceBuilder streams to its sink; call flush(), not build()"
        )

    def _drain(self, final: bool = False) -> None:
        limit = self._chunk_references
        total = self._pending
        stop_at = total if final else (total // limit) * limit
        if stop_at == 0:
            return
        joined = {}
        for name in _CHUNK_FIELDS:
            parts = getattr(self, name)
            joined[name] = parts[0] if len(parts) == 1 else np.concatenate(parts)
        start = 0
        while start < stop_at:
            end = min(start + limit, stop_at)
            self._sink(*(joined[name][start:end] for name in _CHUNK_FIELDS))
            start = end
        for name in _CHUNK_FIELDS:
            rest = joined[name][stop_at:]
            # Copy so the remainder does not pin the drained chunk alive.
            setattr(self, name, [rest.copy()] if len(rest) else [])
        self._pending = total - stop_at
