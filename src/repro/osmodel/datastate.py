"""Data-reference emitters.

Each emitter owns a region of an address space and produces batches of
data addresses with a characteristic locality pattern:

* :class:`WorkingSet` — records scattered over a bounded page pool with
  reuse (heap structures, inode/proc tables).  Spatial runs are short
  (one record), temporal locality comes from the bounded pool.
* :class:`StreamBuffer` — a cursor marching through a large buffer
  (file data, video frames).  Long spatial runs, no temporal reuse;
  this is what makes long D-cache lines help — up to the point where
  record-structured data turns extra line words into pollution.
* :class:`StackModel` — very hot, very small (call frames).

Emitters return flat address arrays; the generation context interleaves
them into the instruction stream.
"""

from __future__ import annotations

import numpy as np

from repro.osmodel.addrspace import Segment
from repro.units import WORD_BYTES


class WorkingSet:
    """Record-grained accesses with reuse over a bounded page pool.

    Args:
        segment: the backing segment.
        pages: number of distinct pages in the active pool (the data
            working set the paper's D-cache/TLB results depend on).
        record_words: spatial run length per access (record size).
        rng: seeded generator.
    """

    def __init__(
        self,
        segment: Segment,
        pages: int,
        record_words: int,
        rng: np.random.Generator,
        locality: float = 0.6,
        hot_records: int = 16,
    ):
        self.segment = segment
        self.pages = min(pages, segment.pages)
        self.record_words = max(1, record_words)
        self.locality = locality
        self.hot_records = hot_records
        self._rng = rng
        self._recent = np.empty(0, dtype=np.int64)
        # The active pool is a random subset of the segment's pages,
        # re-drawn occasionally to model phase changes.
        self._pool = self._draw_pool()

    def _draw_pool(self) -> np.ndarray:
        chosen = self._rng.choice(self.segment.pages, size=self.pages, replace=False)
        return self.segment.base + chosen.astype(np.int64) * 4096

    def refresh(self, fraction: float = 0.25) -> None:
        """Replace a fraction of the pool (working-set drift)."""
        n_new = max(1, int(self.pages * fraction))
        replace_at = self._rng.choice(self.pages, size=n_new, replace=False)
        fresh = self._rng.choice(self.segment.pages, size=n_new, replace=False)
        self._pool[replace_at] = self.segment.base + fresh.astype(np.int64) * 4096

    def addresses(self, count: int) -> np.ndarray:
        """Emit *count* word addresses in record-sized runs.

        Record selection has temporal locality: a ``locality`` fraction
        of runs revisit one of the last ``hot_records`` records touched
        (live objects are accessed in bursts), the rest pick fresh
        random records from the pool.
        """
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        run = self.record_words
        n_runs = (count + run - 1) // run
        pages = self._pool[self._rng.integers(0, len(self._pool), size=n_runs)]
        # Record start offsets, aligned to the record size, within a page.
        slots = 4096 // (run * WORD_BYTES)
        starts = pages + self._rng.integers(0, max(slots, 1), size=n_runs) * (
            run * WORD_BYTES
        )
        recent = self._recent
        if len(recent):
            reuse = self._rng.random(n_runs) < self.locality
            picks = self._rng.integers(0, len(recent), size=n_runs)
            starts = np.where(reuse, recent[picks], starts)
        # Remember a sample of this batch's fresh records as the next
        # hot set.
        self._recent = starts[-self.hot_records:].copy()
        offsets = np.arange(run, dtype=np.int64) * WORD_BYTES
        addresses = (starts[:, None] + offsets[None, :]).ravel()
        return addresses[:count]


class StreamBuffer:
    """Sequential streaming through a large buffer with wraparound.

    Args:
        segment: the backing segment (sized like the streamed data).
        run_words: how many consecutive words each access burst touches.
        stride_words: cursor advance per burst (>= run_words leaves
            untouched gaps, modelling partially consumed lines).
        rng: seeded generator (used only for burst jitter).
    """

    def __init__(
        self,
        segment: Segment,
        run_words: int,
        rng: np.random.Generator,
        stride_words: int | None = None,
    ):
        self.segment = segment
        self.run_words = max(1, run_words)
        self.stride_words = stride_words if stride_words else self.run_words
        self._rng = rng
        self._cursor = 0

    def addresses(self, count: int) -> np.ndarray:
        """Emit *count* word addresses streaming through the buffer."""
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        run = self.run_words
        n_runs = (count + run - 1) // run
        size_words = self.segment.size // WORD_BYTES
        starts = (
            self._cursor + np.arange(n_runs, dtype=np.int64) * self.stride_words
        ) % max(size_words - run, 1)
        self._cursor = int(
            (self._cursor + n_runs * self.stride_words) % max(size_words - run, 1)
        )
        offsets = np.arange(run, dtype=np.int64)
        words = (starts[:, None] + offsets[None, :]).ravel()[:count]
        return self.segment.base + words * WORD_BYTES


class StackModel:
    """Call-frame accesses: a tiny, hot region near the stack top."""

    def __init__(self, segment: Segment, rng: np.random.Generator, hot_bytes: int = 512):
        self.segment = segment
        self.hot_bytes = min(hot_bytes, segment.size)
        self._rng = rng

    def addresses(self, count: int) -> np.ndarray:
        """Emit *count* word addresses within the hot frame region."""
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        words = self.hot_bytes // WORD_BYTES
        offsets = self._rng.integers(0, max(words, 1), size=count).astype(np.int64)
        return self.segment.base + offsets * WORD_BYTES
