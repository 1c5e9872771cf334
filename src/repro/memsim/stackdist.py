"""Single-pass stack-distance simulation (Mattson et al., Cheetah-style).

For LRU replacement, caches obey the inclusion property: a reference
that hits in a k-way set of an S-set cache also hits in any (k+n)-way
set of the same S sets.  One pass that tracks, per set, the LRU stack
position of each reference therefore yields hit counts for *every*
associativity at once.  The paper's configuration grid (Table 5) is a
few dozen such passes instead of hundreds of individual simulations;
the test suite cross-checks this pass against the reference
simulator in :mod:`repro.memsim.cache`.

The same idea with a single global stack gives the full miss-ratio
curve of a fully-associative structure (used for the TLB study of
Figure 7: one pass yields misses for every TLB size).

Every pass runs through :class:`StreamingStackDistance`, which feeds
a stream in chunks (a materialized stream is one chunk) and carries
each set's stack between them.  The C loop in ``_native.c`` steps
those stacks and counts the depth histograms; without the C kernels an
interpreted per-set loop steps the same array.  The original
interpreted sweeps remain as ``*_reference`` oracles, which the
differential tests hold bit-identical to both.
"""

from __future__ import annotations

import numpy as np

from repro.memsim import _native

MAX_DEPTH_CAP = np.iinfo(np.int16).max
"""Deepest ``max_assoc`` a pass tracks: depths are stored as int16."""


def set_associative_hit_counts(
    line_ids: np.ndarray,
    n_sets: int,
    max_assoc: int,
    count_from: int = 0,
) -> np.ndarray:
    """Count LRU hits for every associativity 1..max_assoc in one pass.

    Args:
        line_ids: global line identifiers (byte address >> line offset
            bits), any integer dtype.
        n_sets: number of sets (power of two).
        max_assoc: deepest associativity of interest.
        count_from: references before this index warm the stacks but
            are not counted.

    Returns:
        Array ``hits`` of length ``max_assoc`` where ``hits[k-1]`` is
        the number of references that hit in a k-way, ``n_sets``-set
        LRU cache (capacity = n_sets * k lines).
    """
    sim = StreamingStackDistance(n_sets, max_assoc)
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
    sim = StreamingStackDistance(1, int(sizes.max()))
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

    The carried state is the per-set stack array the C loop steps: one
    row of ``max_assoc`` ids per set, MRU first, -1 marking an empty
    slot.  Feeding a stream chunk by chunk therefore gives the same
    depths and histograms as feeding it whole, while holding only one
    chunk (plus the stacks) in memory.

    ``n_sets == 1`` gives the fully-associative single-stack pass used
    by the TLB study.  With ``track_flags=True`` a per-reference class
    flag is accumulated alongside (the kernel/user miss split).
    """

    def __init__(self, n_sets: int, max_assoc: int, track_flags: bool = False):
        if n_sets < 1 or n_sets & (n_sets - 1):
            raise ValueError("n_sets must be a positive power of two")
        if max_assoc < 1:
            raise ValueError("max_assoc must be >= 1")
        if max_assoc > MAX_DEPTH_CAP:
            raise ValueError(f"max_assoc must be <= {MAX_DEPTH_CAP}")
        self.n_sets = n_sets
        self.max_assoc = max_assoc
        self._track_flags = track_flags
        self._stacks = np.full((n_sets, max_assoc), -1, dtype=np.int64)
        # Counted references per depth; index max_assoc counts misses.
        self._hist = np.zeros(max_assoc + 1, dtype=np.int64)
        self._flag_hist = np.zeros(max_assoc + 1, dtype=np.int64)

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
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        if self._track_flags:
            if flags is None:
                raise ValueError("flags required when track_flags=True")
            flags = np.ascontiguousarray(flags, dtype=bool)
        else:
            flags = None
        count_from = min(max(int(count_from), 0), len(ids))
        depths = np.empty(len(ids), dtype=np.int16)
        if not len(ids):
            return depths
        if int(ids.min()) < 0:
            raise ValueError("ids must be nonnegative")
        if _native.available():
            _native.lru_depths(
                ids, self._stacks, depths, count_from, self._hist,
                flags, self._flag_hist,
            )
        else:
            self._feed_scalar(ids, depths)
            window = depths[count_from:]
            self._hist += np.bincount(window, minlength=self.max_assoc + 1)
            if flags is not None:
                self._flag_hist += np.bincount(
                    window[flags[count_from:]], minlength=self.max_assoc + 1
                )
        return depths

    def _feed_scalar(self, ids: np.ndarray, depths: np.ndarray) -> None:
        """Step the carried stacks with per-set lists, one ref at a time."""
        cap = self.max_assoc
        mask = self.n_sets - 1
        stacks: dict[int, list[int]] = {}
        out = []
        for ref in ids.tolist():
            set_index = ref & mask
            stack = stacks.get(set_index)
            if stack is None:
                row = self._stacks[set_index].tolist()
                stack = stacks[set_index] = [x for x in row if x != -1]
            try:
                depth = stack.index(ref)
            except ValueError:
                out.append(cap)
                stack.insert(0, ref)
                if len(stack) > cap:
                    stack.pop()
                continue
            if depth:
                del stack[depth]
                stack.insert(0, ref)
            out.append(depth)
        depths[:] = out
        for set_index, stack in stacks.items():
            self._stacks[set_index, : len(stack)] = stack

    def export_stacks(self) -> dict[int, list[int]]:
        """Carried per-set LRU stacks, MRU-first (stateful sets only).

        Together with :meth:`import_stacks` this lets a caller that
        owns equivalent per-set state in another representation — the
        reference :class:`~repro.memsim.tlb.Tlb`'s move-to-front lists
        — round-trip it through this pass and back, so interleaving
        scalar and batched accesses stays bit-identical.
        """
        stacks: dict[int, list[int]] = {}
        for set_index in np.flatnonzero(self._stacks[:, 0] != -1).tolist():
            row = self._stacks[set_index].tolist()
            stacks[set_index] = [x for x in row if x != -1]
        return stacks

    def import_stacks(self, stacks: dict[int, list[int]]) -> None:
        """Replace the carried state with per-set MRU-first stacks.

        Each id must map to its claimed set (``id & (n_sets - 1)``);
        stacks deeper than ``max_assoc`` are truncated to the tracked
        depth, exactly as feeding would have capped them.
        """
        mask = self.n_sets - 1
        for set_index, stack in stacks.items():
            for ident in stack:
                if ident < 0 or ident & mask != set_index:
                    raise ValueError(
                        f"id {ident} does not belong to set {set_index}"
                    )
        self._stacks.fill(-1)
        for set_index, stack in stacks.items():
            stack = stack[: self.max_assoc]
            self._stacks[set_index, : len(stack)] = stack

    @property
    def counted(self) -> int:
        """Counted (post-warmup) references fed so far."""
        return int(self._hist.sum())

    @property
    def flagged_counted(self) -> int:
        """Counted references with the class flag set."""
        return int(self._flag_hist.sum())

    def hit_counts(self) -> np.ndarray:
        """``hits[k-1]`` = counted references hitting k-way (≙ batch)."""
        return np.cumsum(self._hist[: self.max_assoc])

    def miss_counts(self) -> np.ndarray:
        """Counted misses per associativity 1..max_assoc."""
        return self.counted - self.hit_counts()

    def flagged_miss_counts(self) -> np.ndarray:
        """Counted flagged-class misses per associativity."""
        return self.flagged_counted - np.cumsum(self._flag_hist[: self.max_assoc])


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
