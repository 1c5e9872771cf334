"""Single-pass stack-distance simulation (Mattson et al., Cheetah-style).

For LRU replacement, caches obey the inclusion property: a reference
that hits in a k-way set of an S-set cache also hits in any (k+n)-way
set of the same S sets.  One pass that tracks, per set, the LRU stack
position of each reference therefore yields hit counts for *every*
associativity at once.  The paper's configuration grid (Table 5) is a
few dozen such passes instead of hundreds of individual simulations;
the test suite cross-checks this engine against the reference
simulator in :mod:`repro.memsim.cache`.

The same idea with a single global stack gives the full miss-ratio
curve of a fully-associative structure (used for the TLB study of
Figure 7: one pass yields misses for every TLB size).

Every pass runs through :class:`StreamingStackDistance`, which feeds
a stream in chunks (a materialized stream is one chunk) and takes its
per-reference depths from :mod:`repro.memsim.engine` (native C kernel
or vectorized NumPy, selectable via ``REPRO_ENGINE``).  The original
interpreted loops remain as ``*_reference`` oracles, which the
differential tests hold bit-identical to it.
"""

from __future__ import annotations

import numpy as np

from repro.memsim.engine import multi_group_depths


def set_associative_hit_counts(
    line_ids: np.ndarray,
    n_sets: int,
    max_assoc: int,
    count_from: int = 0,
    engine: str | None = None,
) -> np.ndarray:
    """Count LRU hits for every associativity 1..max_assoc in one pass.

    Args:
        line_ids: global line identifiers (byte address >> line offset
            bits), any integer dtype.
        n_sets: number of sets (power of two).
        max_assoc: deepest associativity of interest.
        count_from: references before this index warm the stacks but
            are not counted.
        engine: optional engine override (see ``REPRO_ENGINE``).

    Returns:
        Array ``hits`` of length ``max_assoc`` where ``hits[k-1]`` is
        the number of references that hit in a k-way, ``n_sets``-set
        LRU cache (capacity = n_sets * k lines).
    """
    sim = StreamingStackDistance(n_sets, max_assoc, engine=engine)
    sim.feed(line_ids, count_from=count_from)
    return sim.hit_counts()


def set_associative_hit_counts_reference(
    line_ids: np.ndarray, n_sets: int, max_assoc: int, count_from: int = 0
) -> np.ndarray:
    """Interpreted twin of :func:`set_associative_hit_counts`."""
    if n_sets < 1 or n_sets & (n_sets - 1):
        raise ValueError("n_sets must be a positive power of two")
    if max_assoc < 1:
        raise ValueError("max_assoc must be >= 1")
    hits = np.zeros(max_assoc, dtype=np.int64)
    mask = n_sets - 1
    stacks: list[list[int]] = [[] for _ in range(n_sets)]
    counts = [0] * max_assoc
    for i, line in enumerate(line_ids.tolist()):
        stack = stacks[line & mask]
        try:
            depth = stack.index(line)
        except ValueError:
            stack.insert(0, line)
            if len(stack) > max_assoc:
                stack.pop()
            continue
        if depth:
            del stack[depth]
            stack.insert(0, line)
        if i >= count_from:
            counts[depth] += 1
    # counts[d] = refs with stack distance exactly d; hit in k-way iff d < k.
    hits[:] = np.cumsum(counts)
    return hits


def fully_associative_miss_curve(
    ids: np.ndarray,
    sizes: list[int] | np.ndarray,
    count_from: int = 0,
    engine: str | None = None,
) -> np.ndarray:
    """Miss counts of fully-associative LRU structures of several sizes.

    One global LRU stack pass yields the stack-distance histogram; the
    miss count for capacity c is the number of references with distance
    >= c, plus compulsory misses.

    Args:
        ids: the reference stream (e.g. virtual page numbers, already
            combined with ASIDs if translations are per-address-space).
        sizes: capacities of interest, in entries.

    Returns:
        Array of miss counts aligned with ``sizes``.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    sim = StreamingStackDistance(1, int(sizes.max()), engine=engine)
    sim.feed(ids, count_from=count_from)
    return sim.miss_counts()[sizes - 1]


def fully_associative_miss_curve_reference(
    ids: np.ndarray, sizes: list[int] | np.ndarray, count_from: int = 0
) -> np.ndarray:
    """Interpreted twin of :func:`fully_associative_miss_curve`."""
    sizes = np.asarray(sizes, dtype=np.int64)
    max_size = int(sizes.max())
    # histogram[d] = counted refs with stack distance exactly d
    # (d < max_size); deeper distances and compulsory misses miss in
    # every size of interest.
    histogram = [0] * max_size
    stack: list[int] = []
    seen: set[int] = set()
    counted = 0
    for i, ref in enumerate(ids.tolist()):
        in_window = i >= count_from
        if in_window:
            counted += 1
        if ref not in seen:
            seen.add(ref)
            stack.insert(0, ref)
            continue
        depth = stack.index(ref)
        if depth:
            del stack[depth]
            stack.insert(0, ref)
        if in_window and depth < max_size:
            histogram[depth] += 1
    cumulative_hits = np.cumsum(histogram)
    return counted - cumulative_hits[sizes - 1]


def compulsory_miss_count(ids: np.ndarray) -> int:
    """Number of distinct identifiers (first-touch / cold misses)."""
    return int(np.unique(np.asarray(ids)).size)


class StreamingStackDistance:
    """Chunk-streaming LRU stack-distance pass with carried state.

    Feeding a reference stream chunk by chunk produces depth statistics
    *bit-identical* to one :func:`~repro.memsim.engine.lru_depths`
    pass over the whole stream, while holding only one chunk (plus the
    stack state) in memory.  The trick is that an LRU stack under
    insert-at-top / move-to-front / pop-beyond-``max_assoc`` semantics
    is exactly the set's ``max_assoc`` most recently touched distinct
    ids ordered by last touch — so the state after a chunk can be
    reconstructed *inside the unmodified engines* by replaying each
    set's stack LRU-first as a synthetic priming prefix before the next
    chunk, then discarding the prefix's depths.  The fast native and
    vectorized kernels need no carried-state API at all.

    The stack state after a chunk is worked out only when it is next
    needed — by the following ``feed``, :meth:`export_stacks` or
    :meth:`import_stacks` — so a materialized trace fed as a single
    chunk costs one plain engine pass.

    ``n_sets == 1`` gives the fully-associative single-stack pass used
    by the TLB study.  With ``track_flags=True`` a per-reference class
    flag is accumulated alongside (the kernel/user miss split).
    """

    def __init__(
        self,
        n_sets: int,
        max_assoc: int,
        engine: str | None = None,
        track_flags: bool = False,
    ):
        if n_sets < 1 or n_sets & (n_sets - 1):
            raise ValueError("n_sets must be a positive power of two")
        if max_assoc < 1:
            raise ValueError("max_assoc must be >= 1")
        self.n_sets = n_sets
        self.max_assoc = max_assoc
        self.engine = engine
        self._mask = n_sets - 1
        self._track_flags = track_flags
        # Stack state, grouped by set in rank (MRU-first) order.
        self._stack_ids = np.empty(0, dtype=np.int64)
        self._stack_sets = np.empty(0, dtype=np.int64)
        # The last chunk fed, not yet folded into the stack state.
        self._pending: np.ndarray | None = None
        self._hist = np.zeros(max_assoc, dtype=np.int64)
        self._flag_hist = np.zeros(max_assoc, dtype=np.int64)
        self._counted = 0
        self._flagged_counted = 0

    @staticmethod
    def _ranks(sets: np.ndarray) -> np.ndarray:
        """Position of each element within its (contiguous) set group."""
        fresh = np.empty(len(sets), dtype=bool)
        fresh[0] = True
        np.not_equal(sets[1:], sets[:-1], out=fresh[1:])
        starts = np.flatnonzero(fresh)
        group = np.cumsum(fresh) - 1
        return np.arange(len(sets), dtype=np.int64) - starts[group]

    def _primed(self, ids: np.ndarray) -> np.ndarray:
        """``ids`` behind the priming prefix (each set's stack, LRU-first)."""
        self._settle()
        if not len(self._stack_ids):
            return ids
        rank = self._ranks(self._stack_sets)
        order = np.lexsort((-rank, self._stack_sets))
        return np.concatenate([self._stack_ids[order], ids])

    def _settle(self) -> None:
        if self._pending is not None:
            self._update_stacks(self._pending)
            self._pending = None

    def _update_stacks(self, ids: np.ndarray) -> None:
        # Distinct chunk ids, most recently touched first.
        rev = ids[::-1]
        uniq, rev_idx = np.unique(rev, return_index=True)
        last_pos = len(ids) - 1 - rev_idx
        new_sets = uniq & self._mask
        if len(self._stack_ids):
            survive = np.isin(self._stack_ids, uniq, invert=True)
            old_ids = self._stack_ids[survive]
            old_sets = self._stack_sets[survive]
        else:
            old_ids = old_sets = np.empty(0, dtype=np.int64)
        merged_sets = np.concatenate([new_sets, old_sets])
        merged_ids = np.concatenate([uniq, old_ids])
        # Chunk-touched ids outrank survivors; within each class the
        # order is by recency (new) / preserved rank (old).
        priority = np.concatenate(
            [np.zeros(len(uniq), dtype=np.int8), np.ones(len(old_ids), dtype=np.int8)]
        )
        sequence = np.concatenate(
            [-last_pos, np.arange(len(old_ids), dtype=np.int64)]
        )
        order = np.lexsort((sequence, priority, merged_sets))
        sorted_sets = merged_sets[order]
        sorted_ids = merged_ids[order]
        keep = self._ranks(sorted_sets) < self.max_assoc
        self._stack_sets = sorted_sets[keep]
        self._stack_ids = sorted_ids[keep]

    def feed(
        self,
        ids: np.ndarray,
        flags: np.ndarray | None = None,
        count_from: int = 0,
    ) -> np.ndarray:
        """Consume one chunk; returns the chunk's per-reference depths.

        ``count_from`` is chunk-relative: references before it warm the
        stacks without being counted in the accumulated histograms.
        The returned depths cover the whole chunk (a depth equal to
        ``max_assoc`` is a miss at every tracked associativity), so
        callers that need per-reference miss flags — the timing unit —
        can derive them without a second pass.
        """
        return feed_together([(self, ids, flags, count_from)])[0]

    def _absorb(
        self,
        ids: np.ndarray,
        depths: np.ndarray,
        flags: np.ndarray | None,
        count_from: int,
    ) -> np.ndarray:
        """Count one chunk's depths (behind its prefix) and keep the chunk."""
        chunk_depths = depths[len(depths) - len(ids):]
        window = chunk_depths[count_from:]
        self._hist += np.bincount(window, minlength=self.max_assoc + 1)[
            : self.max_assoc
        ]
        self._counted += len(window)
        if self._track_flags:
            if flags is None:
                raise ValueError("flags required when track_flags=True")
            flag_window = np.asarray(flags, dtype=bool)[count_from:]
            self._flag_hist += np.bincount(
                window[flag_window], minlength=self.max_assoc + 1
            )[: self.max_assoc]
            self._flagged_counted += int(flag_window.sum())
        self._pending = ids
        return chunk_depths

    def export_stacks(self) -> dict[int, list[int]]:
        """Carried per-set LRU stacks, MRU-first (stateful sets only).

        Together with :meth:`import_stacks` this lets a caller that
        owns equivalent per-set state in another representation — the
        reference :class:`~repro.memsim.tlb.Tlb`'s move-to-front lists
        — round-trip it through the vectorized engine and back, so
        interleaving scalar and batched accesses stays bit-identical.
        """
        self._settle()
        stacks: dict[int, list[int]] = {}
        for set_index, ident in zip(
            self._stack_sets.tolist(), self._stack_ids.tolist()
        ):
            stacks.setdefault(set_index, []).append(ident)
        return stacks

    def import_stacks(self, stacks: dict[int, list[int]]) -> None:
        """Replace the carried state with per-set MRU-first stacks.

        Each id must map to its claimed set (``id & (n_sets - 1)``);
        stacks deeper than ``max_assoc`` are truncated to the tracked
        depth, exactly as feeding would have capped them.  A chunk fed
        before the import no longer counts toward the state.
        """
        self._pending = None
        sets: list[int] = []
        ids: list[int] = []
        for set_index in sorted(stacks):
            stack = stacks[set_index][: self.max_assoc]
            for ident in stack:
                if ident & self._mask != set_index:
                    raise ValueError(
                        f"id {ident} does not belong to set {set_index}"
                    )
            sets.extend([set_index] * len(stack))
            ids.extend(stack)
        self._stack_sets = np.asarray(sets, dtype=np.int64)
        self._stack_ids = np.asarray(ids, dtype=np.int64)

    @property
    def counted(self) -> int:
        """Counted (post-warmup) references fed so far."""
        return self._counted

    @property
    def flagged_counted(self) -> int:
        """Counted references with the class flag set."""
        return self._flagged_counted

    def hit_counts(self) -> np.ndarray:
        """``hits[k-1]`` = counted references hitting k-way (≙ batch)."""
        return np.cumsum(self._hist)

    def miss_counts(self) -> np.ndarray:
        """Counted misses per associativity 1..max_assoc."""
        return self._counted - self.hit_counts()

    def flagged_miss_counts(self) -> np.ndarray:
        """Counted flagged-class misses per associativity."""
        return self._flagged_counted - np.cumsum(self._flag_hist)


def feed_together(feeds) -> list[np.ndarray]:
    """Feed one chunk to each of several simulators; returns the depths.

    ``feeds`` holds ``(sim, ids, flags, count_from)`` tuples, with the
    meaning of :meth:`StreamingStackDistance.feed`'s arguments.  The
    result equals feeding each in turn, but every pass sharing an
    engine and a depth cap goes through one :func:`multi_group_depths`
    call, so the vectorized engine batches a whole grid per chunk.
    Each ``ids`` array is kept until the next feed and must not be
    modified in between.
    """
    feeds = [
        (sim, np.asarray(ids, dtype=np.int64), flags, count_from)
        for sim, ids, flags, count_from in feeds
    ]
    out = [np.empty(0, dtype=np.int16) for _ in feeds]
    by_cap: dict[tuple, list[int]] = {}
    for index, (sim, ids, _flags, _from) in enumerate(feeds):
        if len(ids):
            by_cap.setdefault((sim.engine, sim.max_assoc), []).append(index)
    for (engine, cap), members in by_cap.items():
        groups = []
        for i in members:
            sim, ids = feeds[i][:2]
            groups.append((sim._primed(ids), [sim.n_sets]))
        results = multi_group_depths(groups, cap, engine=engine)
        for i, result in zip(members, results):
            sim, ids, flags, count_from = feeds[i]
            out[i] = sim._absorb(ids, result[sim.n_sets], flags, count_from)
    return out


def set_associative_miss_split_reference(
    ids: np.ndarray,
    n_sets: int,
    max_assoc: int,
    class_flags: np.ndarray,
    count_from: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Interpreted (total, flagged) misses per associativity.

    The oracle for :class:`StreamingStackDistance` with
    ``track_flags=True`` — the TLB study's user/kernel miss split.
    """
    if n_sets < 1 or n_sets & (n_sets - 1):
        raise ValueError("n_sets must be a positive power of two")
    hits_by_depth = [0] * max_assoc
    flagged_hits_by_depth = [0] * max_assoc
    total = 0
    flagged_total = 0
    mask = n_sets - 1
    stacks: dict[int, list[int]] = {}
    flags_list = np.asarray(class_flags, dtype=bool).tolist()
    for i, (ref, flagged) in enumerate(zip(np.asarray(ids).tolist(), flags_list)):
        in_window = i >= count_from
        if in_window:
            total += 1
            if flagged:
                flagged_total += 1
        stack = stacks.setdefault(ref & mask, [])
        try:
            depth = stack.index(ref)
        except ValueError:
            stack.insert(0, ref)
            if len(stack) > max_assoc:
                stack.pop()
            continue
        if depth:
            del stack[depth]
            stack.insert(0, ref)
        if in_window:
            hits_by_depth[depth] += 1
            if flagged:
                flagged_hits_by_depth[depth] += 1
    misses = total - np.cumsum(hits_by_depth)
    flagged_misses = flagged_total - np.cumsum(flagged_hits_by_depth)
    return misses, flagged_misses


def fully_associative_miss_split_reference(
    ids: np.ndarray,
    sizes: list[int] | np.ndarray,
    class_flags: np.ndarray,
    count_from: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Interpreted fully-associative (total, flagged) misses per size.

    Single-stack analogue of :func:`set_associative_miss_split_reference`.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    max_size = int(sizes.max())
    histogram = [0] * max_size
    flagged_histogram = [0] * max_size
    stack: list[int] = []
    seen: set[int] = set()
    total = 0
    flagged_total = 0
    flags_list = np.asarray(class_flags, dtype=bool).tolist()
    for i, (ref, flagged) in enumerate(zip(np.asarray(ids).tolist(), flags_list)):
        in_window = i >= count_from
        if in_window:
            total += 1
            if flagged:
                flagged_total += 1
        if ref not in seen:
            seen.add(ref)
            stack.insert(0, ref)
            continue
        depth = stack.index(ref)
        if depth:
            del stack[depth]
            stack.insert(0, ref)
        if in_window and depth < max_size:
            histogram[depth] += 1
            if flagged:
                flagged_histogram[depth] += 1
    cumulative = np.cumsum(histogram)
    flagged_cumulative = np.cumsum(flagged_histogram)
    return (
        total - cumulative[sizes - 1],
        flagged_total - flagged_cumulative[sizes - 1],
    )
