"""Address spaces and segment layout.

Each process (task, server, kernel) owns an :class:`AddressSpace` with
a distinct ASID and a set of named segments.  Segment base addresses
are drawn from a seeded generator at page-group granularity so that
different spaces land at scattered "physical" locations — the caches of
the modelled machine are physically indexed, so this scattering is what
produces realistic cross-address-space cache interference.

Unmapped segments model the MIPS k0seg window: references through them
occupy the caches but never touch the TLB, which is how Ultrix runs
nearly TLB-free while Mach's user-level servers cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.units import PAGE_BYTES


@dataclass(frozen=True)
class Segment:
    """A contiguous address range with uniform translation attributes.

    Attributes:
        name: segment label ("text", "heap", "stack", ...).
        base: starting byte address (page aligned).
        size: length in bytes.
        mapped: whether references are translated through the TLB.
        kernel: whether TLB misses here take the kernel-space trap path.
    """

    name: str
    base: int
    size: int
    mapped: bool = True
    kernel: bool = False

    @property
    def end(self) -> int:
        """One past the last byte of the segment."""
        return self.base + self.size

    @property
    def pages(self) -> int:
        """Number of pages spanned."""
        return (self.size + PAGE_BYTES - 1) // PAGE_BYTES

    def page_base(self, index: int) -> int:
        """Byte address of the index-th page in the segment."""
        if index < 0 or index >= self.pages:
            raise ConfigurationError(
                f"page {index} outside segment {self.name!r} ({self.pages} pages)"
            )
        return self.base + index * PAGE_BYTES


class SegmentAllocator:
    """Hands out non-overlapping, scattered segment base addresses.

    Bases are allocated in a 1-GB arena in shuffled 64-KB granules so
    distinct segments (and distinct address spaces) interleave in
    physical cache index space the way scattered page allocations do on
    real hardware.
    """

    GRANULE = 64 * 1024
    ARENA_BYTES = 1 << 30

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        granules = self.ARENA_BYTES // self.GRANULE
        self._order = self._rng.permutation(granules).tolist()
        self._taken = np.zeros(granules, dtype=bool)

    def allocate(self, size: int) -> int:
        """Reserve *size* bytes; returns a granule-aligned base address."""
        needed = max(1, (size + self.GRANULE - 1) // self.GRANULE)
        if needed == 1:
            return self._pop_scattered() * self.GRANULE
        # Multi-granule segments take the lowest-numbered run of free
        # granules, so they stay contiguous; single granules skip the
        # entries such runs have taken.
        return self._take_lowest_run(needed) * self.GRANULE

    def _pop_scattered(self) -> int:
        """The last untaken granule of the shuffled order."""
        order, taken = self._order, self._taken
        while order and taken[order[-1]]:
            order.pop()
        if not order:
            raise ConfigurationError("address arena exhausted")
        granule = order.pop()
        taken[granule] = True
        return granule

    def _take_lowest_run(self, granules: int) -> int:
        """Reserve the lowest run of *granules* consecutive free granules."""
        free = np.concatenate(([0], np.cumsum(~self._taken)))
        starts = np.flatnonzero(free[granules:] - free[:-granules] == granules)
        if not len(starts):
            raise ConfigurationError("address arena exhausted (contiguous)")
        base = int(starts[0])
        self._taken[base : base + granules] = True
        return base


@dataclass
class AddressSpace:
    """A process/task address space with an ASID and named segments."""

    name: str
    asid: int
    segments: dict[str, Segment] = field(default_factory=dict)

    def add_segment(
        self,
        allocator: SegmentAllocator,
        name: str,
        size: int,
        mapped: bool = True,
        kernel: bool = False,
    ) -> Segment:
        """Allocate and register a new segment.

        Raises:
            ConfigurationError: if a segment of this name already exists.
        """
        if name in self.segments:
            raise ConfigurationError(
                f"segment {name!r} already exists in space {self.name!r}"
            )
        segment = Segment(
            name=name,
            base=allocator.allocate(size),
            size=size,
            mapped=mapped,
            kernel=kernel,
        )
        self.segments[name] = segment
        return segment

    def segment(self, name: str) -> Segment:
        """Look up a segment by name."""
        try:
            return self.segments[name]
        except KeyError:
            raise ConfigurationError(
                f"space {self.name!r} has no segment {name!r}"
            ) from None

    @property
    def mapped_pages(self) -> int:
        """Total mapped pages across all segments (TLB footprint bound)."""
        return sum(s.pages for s in self.segments.values() if s.mapped)
