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

from dataclasses import dataclass
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


def first_occurrences(pages: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(pages, return_index=True, return_inverse=True)``.

    A trace touches few distinct pages within a narrow span, so when
    the span is at most a few times the reference count the first
    occurrences come from a table over the span: each page's smallest
    reference index (``np.minimum.at``, which is exact under duplicate
    indices), then ranks by a cumulative sum.  Sparse page sets (e.g.
    imported din traces with stack pages near the top of the address
    space) fall back to sorting.
    """
    pages = np.asarray(pages, dtype=np.int64)
    n = len(pages)
    low = int(pages.min()) if n else 0
    span = int(pages.max()) - low + 1 if n else 0
    if span > 8 * n:
        return np.unique(pages, return_index=True, return_inverse=True)
    offsets = pages - low
    first = np.full(span, n, dtype=np.int64)
    np.minimum.at(first, offsets, np.arange(n, dtype=np.int64))
    present = first < n
    rank = np.cumsum(present) - 1
    return np.flatnonzero(present) + low, first[present], rank[offsets]


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
    unique_pages, first_index, inverse = first_occurrences(addresses >> PAGE_SHIFT)
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
    in stream order (see :func:`first_occurrences`),
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
        unique, first_index, _ = first_occurrences(pages)
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


_CHUNK_FIELDS = ("addresses", "kinds", "asids", "mapped", "kernel")
_ATTRIBUTE_DTYPES = (np.uint8, np.uint8, bool, bool)


class _Runs:
    """Recorded streams of one kind: address arrays plus a row of
    (kind, asid, mapped, kernel) per stream."""

    def __init__(self) -> None:
        self.addresses: list[np.ndarray] = []
        self.lengths: list[int] = []
        self.attributes: list[tuple[int, int, bool, bool]] = []

    def add(self, addresses: np.ndarray, kind, asid, mapped, kernel) -> None:
        self.addresses.append(addresses)
        self.lengths.append(len(addresses))
        self.attributes.append((kind, asid, mapped, kernel))

    def joined(self) -> np.ndarray:
        if not self.addresses:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self.addresses)

    def attribute_table(self) -> list[np.ndarray]:
        """One array per attribute, one entry per stream."""
        columns = zip(*self.attributes) if self.attributes else ((),) * 4
        return [
            np.array(column, dtype=dtype)
            for column, dtype in zip(columns, _ATTRIBUTE_DTYPES)
        ]


class TraceChunkBuilder:
    """Records generated runs and assembles them into columns once.

    A run is a stretch of program-ordered references with uniform
    attributes (an emitted code path), plus data parts that the
    generator interleaves into it.  Each data reference is recorded
    with a key: the number of run references, counted over the whole
    builder, that precede it.  So one stable sort of the keys puts all
    data references in program order (ties keep recording order, which
    is program order), data reference ``j`` of that order lands at
    output index ``key[j] + j``, and run references fill the remaining
    slots in order.  Attribute columns are expanded from per-run and
    per-part tables, never per reference during generation.
    """

    def __init__(self) -> None:
        self.count = 0
        self._reset_runs()

    def _reset_runs(self) -> None:
        self._code = _Runs()
        self._data = _Runs()
        self._keys: list[np.ndarray] = []
        self._code_count = 0

    def append(
        self,
        addresses: np.ndarray,
        kind: int,
        asid: int,
        mapped: bool,
        kernel: bool,
        parts=(),
    ) -> None:
        """Record one run of *addresses* with uniform attributes.

        ``parts`` holds the run's data as ``(addresses, positions,
        kind, asid, mapped, kernel)`` tuples.  ``positions`` is sorted
        and gives, for each data reference, the number of the run's
        own references that precede it (``0..len(addresses)``); within
        one position, earlier parts come first.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        offset = self._code_count
        for data, positions, *attributes in parts:
            if len(data):
                self._data.add(np.asarray(data, dtype=np.int64), *attributes)
                self._keys.append(positions + offset)
                self.count += len(data)
        if len(addresses):
            self._code.add(addresses, kind, asid, mapped, kernel)
            self._code_count += len(addresses)
            self.count += len(addresses)

    def _assemble(self) -> dict[str, np.ndarray]:
        """Interleave the recorded runs into columns and forget them."""
        code, data = self._code, self._data
        keys = np.concatenate(self._keys) if self._keys else np.empty(0, np.int64)
        order = np.argsort(keys, kind="stable")
        data_slots = keys[order] + np.arange(len(order))
        part_of = np.repeat(np.arange(len(data.lengths)), data.lengths)[order]
        code_addresses = code.joined()
        total = len(code_addresses) + len(order)
        is_code = np.ones(total, dtype=bool)
        is_code[data_slots] = False
        code_slots = np.flatnonzero(is_code)
        code_columns = [code_addresses] + [
            np.repeat(table, code.lengths) for table in code.attribute_table()
        ]
        data_columns = [data.joined()[order]] + [
            table[part_of] for table in data.attribute_table()
        ]
        self._reset_runs()
        columns = {}
        for name, code_column, data_column in zip(
            _CHUNK_FIELDS, code_columns, data_columns
        ):
            column = np.empty(total, dtype=code_column.dtype)
            column[code_slots] = code_column
            column[data_slots] = data_column
            columns[name] = column
        return columns

    def build(
        self,
        page_faults: int = 0,
        other_cpi: float = 0.0,
        workload: str = "",
        os_name: str = "",
        physical_seed: int = 0,
    ) -> ReferenceTrace:
        """Assemble all recorded runs into a :class:`ReferenceTrace`.

        Virtual pages are assigned scattered physical frames by a
        seeded draw (``physical_seed``), so physically indexed cache
        behaviour does not depend on the virtual layout's contiguity.
        """
        columns = self._assemble()
        return ReferenceTrace(
            physical=assign_physical_frames(
                columns["addresses"], seed=physical_seed, mapped=columns["mapped"]
            ),
            page_faults=page_faults,
            other_cpi=other_cpi,
            workload=workload,
            os_name=os_name,
            **columns,
        )


class ChunkedTraceBuilder(TraceChunkBuilder):
    """A builder that drains fixed-size chunks to a sink as it fills.

    Generation models use the normal ``append`` API; whenever at least
    ``chunk_references`` references are pending, the recorded runs are
    assembled and handed to ``sink(addresses, kinds, asids, mapped,
    kernel)`` as full fixed-size chunks (the trailing partial chunk is
    emitted by :meth:`flush`).  The part past the last full chunk is
    carried as assembled columns, ahead of the next runs.  Drained
    chunks are dropped, so generation RSS stays bounded by about one
    chunk regardless of the target trace length.  ``count`` stays
    cumulative (the generation context uses it to decide when the
    target is reached).
    """

    def __init__(self, sink, chunk_references: int) -> None:
        super().__init__()
        if chunk_references <= 0:
            raise TraceError("chunk_references must be positive")
        self._sink = sink
        self._chunk_references = chunk_references
        self._carry = self._assemble()  # empty columns
        self._drained = 0

    def append(self, addresses, kind, asid, mapped, kernel, parts=()) -> None:
        super().append(addresses, kind, asid, mapped, kernel, parts)
        if self.count - self._drained >= self._chunk_references:
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
        total = self.count - self._drained
        stop_at = total if final else (total // limit) * limit
        if stop_at == 0:
            return
        fresh = self._assemble()
        joined = {
            name: np.concatenate([self._carry[name], fresh[name]])
            for name in _CHUNK_FIELDS
        }
        for start in range(0, stop_at, limit):
            end = min(start + limit, stop_at)
            self._sink(*(joined[name][start:end] for name in _CHUNK_FIELDS))
        # Copy so the carried remainder does not pin the drained chunks.
        self._carry = {name: joined[name][stop_at:].copy() for name in _CHUNK_FIELDS}
        self._drained += stop_at
