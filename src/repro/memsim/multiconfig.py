"""Multi-configuration sweep helpers.

These functions turn one reference stream into miss ratios for a whole
grid of cache or TLB configurations, exploiting the LRU inclusion
property so each line size costs a single pass over the stream (see
:mod:`repro.memsim.stackdist`).  They are the workhorses behind
Figures 7-10 and the Table 6/7 allocation sweep.

The grid (:class:`StreamingCacheGrid`) consumes its stream in chunks
(a materialized stream is one chunk) and feeds each chunk, as byte
addresses, to one :class:`~repro.memsim.stackdist.StreamingStackDistance`
family per line size: one C call per chunk steps every set count of
that line size, each capped at the deepest associativity it actually
needs — the largest set counts are only ever direct-mapped or 2-way in
Table 5.  The original interpreted sweep remains as
:func:`cache_miss_ratio_grid_reference` and is held bit-identical by
the differential test suite.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.memsim.stackdist import StreamingStackDistance
from repro.units import WORD_BYTES, log2i


def line_ids_for(addresses: np.ndarray, line_words: int) -> np.ndarray:
    """Map byte addresses to global line identifiers for a line size."""
    offset_bits = log2i(line_words * WORD_BYTES)
    return np.asarray(addresses, dtype=np.int64) >> offset_bits


def dedupe_consecutive(
    ids: np.ndarray, *flags: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Drop references identical to their immediate predecessor.

    Consecutive references to the same line (or page) are guaranteed
    hits in any cache of that line size, so removing them changes no
    miss count while shrinking the stream several-fold for instruction
    streams.  Any *flags* arrays are filtered with the same mask.

    Returns:
        ``(deduped_ids, *deduped_flags)`` — always a tuple of arrays,
        including for empty and single-reference streams.
    """
    ids = np.asarray(ids)
    if len(ids) == 0:
        return (ids, *(np.asarray(f) for f in flags))
    keep = np.empty(len(ids), dtype=bool)
    keep[0] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return (ids[keep], *(np.asarray(f)[keep] for f in flags))


def miss_flags_lru_reference(
    ids: np.ndarray, n_sets: int, assoc: int
) -> np.ndarray:
    """Interpreted per-reference miss flags for one LRU structure.

    The set index is ``id & (n_sets - 1)`` and the full id is the tag;
    the oracle for the depth-at-cap misses of
    :class:`~repro.memsim.stackdist.StreamingStackDistance`.
    """
    if n_sets < 1 or n_sets & (n_sets - 1):
        raise ValueError("n_sets must be a positive power of two")
    flags = np.zeros(len(ids), dtype=bool)
    mask = n_sets - 1
    stacks: dict[int, list[int]] = defaultdict(list)
    for i, ref in enumerate(np.asarray(ids).tolist()):
        stack = stacks[ref & mask]
        try:
            depth = stack.index(ref)
        except ValueError:
            flags[i] = True
            stack.insert(0, ref)
            if len(stack) > assoc:
                stack.pop()
            continue
        if depth:
            del stack[depth]
            stack.insert(0, ref)
    return flags


def cache_miss_ratio_grid(
    addresses: np.ndarray,
    capacities: list[int],
    line_words_list: list[int],
    assocs: list[int],
    warmup_fraction: float = 0.0,
) -> dict[tuple[int, int, int], float]:
    """Miss ratios for every (capacity, line_words, assoc) combination.

    A materialized stream fed to :func:`cache_miss_ratio_grid_chunked`
    as a single chunk.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    return cache_miss_ratio_grid_chunked(
        [addresses],
        len(addresses),
        capacities,
        line_words_list,
        assocs,
        warmup_fraction=warmup_fraction,
    )


def cache_miss_ratio_grid_chunked(
    chunks,
    total_references: int,
    capacities: list[int],
    line_words_list: list[int],
    assocs: list[int],
    warmup_fraction: float = 0.0,
) -> dict[tuple[int, int, int], float]:
    """Miss ratios for every (capacity, line_words, assoc) combination.

    ``chunks`` is an iterable of address arrays in program order whose
    lengths sum to ``total_references``; only one chunk is held at a
    time, and a materialized stream is simply one chunk.  The leading
    ``warmup_fraction`` of the stream primes the stacks without being
    counted (steady-state measurement, as in the paper's long hardware
    runs); the boundary is the reference index
    ``int(total * warmup_fraction)``.  The chunks feed one
    :class:`StreamingCacheGrid`.

    Returns:
        Mapping ``(capacity_bytes, line_words, assoc) -> miss ratio``;
        combinations whose geometry is infeasible (fewer lines than
        ways) are omitted.
    """
    total = int(total_references)
    grid = StreamingCacheGrid(
        capacities, line_words_list, assocs, warm=int(total * warmup_fraction)
    )
    for chunk in chunks:
        grid.feed(chunk)
    if grid.consumed != total:
        raise ValueError(
            f"chunks supplied {grid.consumed} references, expected {total}"
        )
    return grid.result()


class StreamingCacheGrid:
    """A miss-ratio grid fed one address chunk at a time.

    The first ``warm`` references prime the stacks without being
    counted.  Each line size is one
    :class:`~repro.memsim.stackdist.StreamingStackDistance` family over
    the byte addresses (shifted to line ids in the kernel): one member
    per set count, each capped at the deepest associativity that set
    count needs.  The families carry their stacks exactly between
    chunks, so :meth:`result` does not depend on how the stream is
    chunked.
    """

    def __init__(self, capacities, line_words_list, assocs, warm: int = 0):
        self.capacities = list(capacities)
        self.assocs = list(assocs)
        self.warm = int(warm)
        self.consumed = 0
        self._families: dict[int, StreamingStackDistance] = {}
        for line_words in line_words_list:
            line_bytes = line_words * WORD_BYTES
            depth_needed: dict[int, int] = {}
            for capacity in self.capacities:
                for assoc in self.assocs:
                    n_sets = capacity // (line_bytes * assoc)
                    if n_sets >= 1:
                        depth_needed[n_sets] = max(
                            depth_needed.get(n_sets, 0), assoc
                        )
            if depth_needed:
                set_counts = sorted(depth_needed)
                self._families[line_words] = StreamingStackDistance(
                    set_counts,
                    [depth_needed[n] for n in set_counts],
                    shift=log2i(line_bytes),
                )

    def feed(self, addresses) -> None:
        """Step every family over the next chunk of byte addresses."""
        chunk = np.asarray(addresses, dtype=np.int64)
        count_from = self.warm - self.consumed
        self.consumed += len(chunk)
        for family in self._families.values():
            family.feed(chunk, count_from=count_from, depths=False)

    def result(self) -> dict[tuple[int, int, int], float]:
        """Misses per counted reference, keyed like
        :func:`cache_miss_ratio_grid_chunked`; empty for an empty stream."""
        grid: dict[tuple[int, int, int], float] = {}
        if self.consumed == 0:
            return grid
        counted_total = self.consumed - self.warm
        for line_words, family in self._families.items():
            line_bytes = line_words * WORD_BYTES
            for member, (n_sets, cap) in enumerate(
                zip(family.set_counts, family.caps)
            ):
                hits = family.hit_counts(member)
                for assoc in self.assocs:
                    capacity = n_sets * assoc * line_bytes
                    if assoc <= cap and capacity in self.capacities:
                        misses = family.counted - int(hits[assoc - 1])
                        grid[(capacity, line_words, assoc)] = misses / counted_total
        return grid


def cache_miss_ratio_grid_reference(
    addresses: np.ndarray,
    capacities: list[int],
    line_words_list: list[int],
    assocs: list[int],
    warmup_fraction: float = 0.0,
) -> dict[tuple[int, int, int], float]:
    """Interpreted twin of :func:`cache_miss_ratio_grid`.

    One seed-algorithm pass per (line size, set count), all at the
    deepest requested associativity; kept as the baseline for the
    differential tests and the perf benchmarks.
    """
    from repro.memsim.stackdist import set_associative_hit_counts_reference

    addresses = np.asarray(addresses, dtype=np.int64)
    total = len(addresses)
    max_assoc = max(assocs)
    grid: dict[tuple[int, int, int], float] = {}
    if total == 0:
        return grid
    warm = int(total * warmup_fraction)
    counted_total = total - warm
    for line_words in line_words_list:
        line_bytes = line_words * WORD_BYTES
        ids = line_ids_for(addresses, line_words)
        keep = np.empty(total, dtype=bool)
        keep[0] = True
        np.not_equal(ids[1:], ids[:-1], out=keep[1:])
        deduped = ids[keep]
        deduped_count_from = int(keep[:warm].sum())
        n_counted_deduped = len(deduped) - deduped_count_from
        set_counts = sorted(
            {
                capacity // (line_bytes * assoc)
                for capacity in capacities
                for assoc in assocs
                if capacity // (line_bytes * assoc) >= 1
            }
        )
        for n_sets in set_counts:
            hits = set_associative_hit_counts_reference(
                deduped, n_sets, max_assoc, count_from=deduped_count_from
            )
            for assoc in assocs:
                capacity = n_sets * assoc * line_bytes
                if capacity in capacities:
                    misses = n_counted_deduped - int(hits[assoc - 1])
                    grid[(capacity, line_words, assoc)] = misses / counted_total
    return grid
