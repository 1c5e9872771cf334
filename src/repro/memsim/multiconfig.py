"""Multi-configuration sweep helpers.

These functions turn one reference stream into miss ratios for a whole
grid of cache or TLB configurations, exploiting the LRU inclusion
property so each (line size, set count) pair costs a single pass
(see :mod:`repro.memsim.stackdist`).  They are the workhorses behind
Figures 7-10 and the Table 6/7 allocation sweep.

The grid consumes its stream in chunks (a materialized stream is one
chunk) and batches each chunk's passes through
:func:`repro.memsim.engine.multi_group_depths`, grouped by the deepest
associativity each set count actually needs — the largest set counts
are only ever direct-mapped or 2-way in Table 5, and those caps have
closed-form vectorized answers.  The original interpreted sweep
remains as :func:`cache_miss_ratio_grid_reference` and is held
bit-identical by the differential test suite.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.memsim.stackdist import StreamingStackDistance, feed_together
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
    engine: str | None = None,
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
        engine=engine,
    )


def cache_miss_ratio_grid_chunked(
    chunks,
    total_references: int,
    capacities: list[int],
    line_words_list: list[int],
    assocs: list[int],
    warmup_fraction: float = 0.0,
    engine: str | None = None,
) -> dict[tuple[int, int, int], float]:
    """Miss ratios for every (capacity, line_words, assoc) combination.

    ``chunks`` is an iterable of address arrays in program order whose
    lengths sum to ``total_references``; only one chunk is held at a
    time, and a materialized stream is simply one chunk.  The leading
    ``warmup_fraction`` of the stream primes the stacks without being
    counted (steady-state measurement, as in the paper's long hardware
    runs); the boundary is the reference index
    ``int(total * warmup_fraction)``.  Consecutive references to the
    same line are dropped before simulation (guaranteed hits; the last
    id is carried across chunk boundaries), and each (line size, set
    count) pass carries its stack state exactly between chunks, so
    results do not depend on how the stream is chunked.  Each chunk's
    passes go through the engine one call per depth cap.

    Returns:
        Mapping ``(capacity_bytes, line_words, assoc) -> miss ratio``;
        combinations whose geometry is infeasible (fewer lines than
        ways) are omitted.
    """
    total = int(total_references)
    grid: dict[tuple[int, int, int], float] = {}
    if total == 0:
        return grid
    warm = int(total * warmup_fraction)
    counted_total = total - warm

    per_line: dict[int, dict] = {}
    for line_words in line_words_list:
        line_bytes = line_words * WORD_BYTES
        depth_needed: dict[int, int] = {}
        for capacity in capacities:
            for assoc in assocs:
                n_sets = capacity // (line_bytes * assoc)
                if n_sets >= 1:
                    depth_needed[n_sets] = max(depth_needed.get(n_sets, 0), assoc)
        per_line[line_words] = {
            "depth_needed": depth_needed,
            "sims": {
                n_sets: StreamingStackDistance(n_sets, cap, engine=engine)
                for n_sets, cap in depth_needed.items()
            },
            "last_id": None,
            "deduped_counted": 0,
        }

    consumed = 0
    for chunk in chunks:
        chunk = np.asarray(chunk, dtype=np.int64)
        if len(chunk) == 0:
            continue
        start = consumed
        consumed += len(chunk)
        raw_count_from = min(max(warm - start, 0), len(chunk))
        feeds = []
        for line_words, state in per_line.items():
            ids = line_ids_for(chunk, line_words)
            keep = np.empty(len(ids), dtype=bool)
            keep[0] = state["last_id"] is None or ids[0] != state["last_id"]
            np.not_equal(ids[1:], ids[:-1], out=keep[1:])
            deduped = ids[keep]
            deduped_count_from = int(keep[:raw_count_from].sum())
            state["deduped_counted"] += len(deduped) - deduped_count_from
            state["last_id"] = int(ids[-1])
            feeds += [
                (sim, deduped, None, deduped_count_from)
                for sim in state["sims"].values()
            ]
        feed_together(feeds)
    if consumed != total:
        raise ValueError(
            f"chunks supplied {consumed} references, expected {total}"
        )

    for line_words in line_words_list:
        state = per_line[line_words]
        line_bytes = line_words * WORD_BYTES
        n_counted_deduped = state["deduped_counted"]
        for n_sets, cap in sorted(state["depth_needed"].items()):
            hits = state["sims"][n_sets].hit_counts()
            for assoc in assocs:
                capacity = n_sets * assoc * line_bytes
                if assoc <= cap and capacity in capacities:
                    misses = n_counted_deduped - int(hits[assoc - 1])
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
