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

Every pass runs through :class:`StreamingStackDistance`, a *family* of
passes over one id stream: one member per set count, set counts
ascending in powers of two, each member with its own cap.  It feeds a
stream in chunks (a materialized stream is one chunk) and carries
every member's per-set stacks between them.  One C call per chunk
(``repro_lru_family`` in ``_native.c``) steps the whole family: it
shifts byte addresses to line ids, counts a repeat of the previous id
as a depth-0 hit without touching a stack, walks the members from the
coarsest set count to the finest and stops at the first where the id
is already most recent (with nested sets it is then most recent in
every finer one, as Hill & Smith's set refinement shows), and writes
per-reference depths only when asked.  Without the C kernels an
interpreted loop steps the same family the same way.  The original
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
    """A family of chunk-streaming LRU stack-distance passes over one
    id stream, with carried state.

    Each pass (a *member*) simulates one set count with its own cap:
    ``n_sets`` and ``max_assoc`` are an int each for a single pass, or
    one entry per member (a single ``max_assoc`` is shared).  The set
    counts ascend in powers of two, so each set of a finer member lies
    inside one set of every coarser member, and a reference at the
    front of its set in one member is at the front in every finer one
    (Hill & Smith's set refinement).  A nonzero ``shift`` turns the fed
    values (byte addresses) into ids, ``value >> shift``.

    The carried state is the per-set stacks the C loop steps (one row
    of ``cap`` ids per set, MRU first, -1 marking an empty slot), each
    member's depth histogram, and the last id fed.  Feeding a stream
    chunk by chunk therefore gives the same depths and histograms as
    feeding it whole, while holding only one chunk (plus the stacks)
    in memory.

    ``n_sets == 1`` gives the fully-associative single-stack pass used
    by the TLB study.  With ``track_flags=True`` a per-reference class
    flag is accumulated alongside (the kernel/user miss split).
    """

    def __init__(
        self, n_sets, max_assoc, track_flags: bool = False, shift: int = 0
    ):
        self._single = np.ndim(n_sets) == 0
        counts = self.set_counts = tuple(int(n) for n in np.atleast_1d(n_sets))
        caps = np.broadcast_to(max_assoc, (len(counts),))
        self.caps = tuple(int(c) for c in caps)
        if not counts or any(n < 1 or n & (n - 1) for n in counts) or any(
            a >= b for a, b in zip(counts, counts[1:])
        ):
            raise ValueError("n_sets must be ascending positive powers of two")
        if min(self.caps) < 1:
            raise ValueError("max_assoc must be >= 1")
        if max(self.caps) > MAX_DEPTH_CAP:
            raise ValueError(f"max_assoc must be <= {MAX_DEPTH_CAP}")
        if not 0 <= shift < 63:
            raise ValueError("shift must be in [0, 63)")
        self.shift = int(shift)
        self._track_flags = track_flags
        self._masks = np.array(counts, dtype=np.int64) - 1
        self._caps = np.array(self.caps, dtype=np.int32)
        sizes = [n * cap for n, cap in zip(counts, self.caps)]
        self._stacks = np.full(sum(sizes), -1, dtype=np.int64)
        self._member_stacks = [
            part.reshape(n, -1)
            for part, n in zip(np.split(self._stacks, np.cumsum(sizes)[:-1]), counts)
        ]
        # Counted references per depth, member after member; index
        # ``cap`` of a member counts its misses.
        self._hist = np.zeros(sum(self.caps) + len(counts), dtype=np.int64)
        self._flag_hist = np.zeros_like(self._hist)
        edges = np.cumsum([cap + 1 for cap in self.caps])[:-1]
        self._hists = np.split(self._hist, edges)
        self._flag_hists = np.split(self._flag_hist, edges)
        self._last = np.full(1, -1, dtype=np.int64)

    def feed(
        self,
        ids: np.ndarray,
        flags: np.ndarray | None = None,
        count_from: int = 0,
        depths: bool = True,
    ) -> np.ndarray | None:
        """Consume one chunk; returns its per-reference depths.

        ``count_from`` is chunk-relative: references before it warm the
        stacks without being counted in the accumulated histograms.
        The returned depths cover the whole chunk (a depth equal to a
        member's cap is a miss at every associativity it tracks), so
        callers that need per-reference miss flags — the timing unit —
        can derive them without a second pass: an ``(n,)`` array for a
        single pass, one row per member for a family.  With
        ``depths=False`` none are written and None is returned.
        """
        refs = np.ascontiguousarray(ids, dtype=np.int64)
        if self._track_flags:
            if flags is None:
                raise ValueError("flags required when track_flags=True")
            flags = np.ascontiguousarray(flags, dtype=bool)
        else:
            flags = None
        n = len(refs)
        count_from = min(max(int(count_from), 0), n)
        out = np.zeros((len(self.caps), n), dtype=np.int16) if depths else None
        if n and _native.available():
            if not _native.lru_family(
                refs, self.shift, self._masks, self._caps, self._stacks,
                self._last, count_from, self._hist, flags, self._flag_hist, out,
            ):
                raise ValueError("ids must be nonnegative")
        elif n:
            if int(refs.min()) < 0:
                raise ValueError("ids must be nonnegative")
            rows = out if out is not None else np.zeros((len(self.caps), n), np.int16)
            self._feed_scalar(refs, rows)
            for row, cap, hist, flag_hist in zip(
                rows, self.caps, self._hists, self._flag_hists
            ):
                window = row[count_from:]
                hist += np.bincount(window, minlength=cap + 1)
                if flags is not None:
                    flag_hist += np.bincount(
                        window[flags[count_from:]], minlength=cap + 1
                    )
        if out is None:
            return None
        return out[0] if self._single else out

    def _feed_scalar(self, refs: np.ndarray, depths: np.ndarray) -> None:
        """Step the carried stacks with per-set lists, one member at a
        time, taking the C loop's two shortcuts (see ``_native.c``) and
        writing each walked member's depths into ``depths`` (zeros).

        Member by member gives the C loop's reference-by-reference
        result: a member's stacks see its references in order, and
        which references reach it depends only on coarser members.
        """
        ids = refs >> self.shift
        fresh = np.empty(len(ids), dtype=bool)
        fresh[0] = ids[0] != self._last[0]
        np.not_equal(ids[1:], ids[:-1], out=fresh[1:])
        self._last[0] = ids[-1]
        id_list = ids.tolist()
        # Repeats of the previous id stay at depth 0 in every member.
        walking = np.flatnonzero(fresh).tolist()
        for row, n_sets, cap, array in zip(
            depths, self.set_counts, self.caps, self._member_stacks
        ):
            mask = n_sets - 1
            lists: dict[int, list[int]] = {}
            moved, moved_depths = [], []
            for i in walking:
                ident = id_list[i]
                set_index = ident & mask
                stack = lists.get(set_index)
                if stack is None:
                    stack = lists[set_index] = [
                        x for x in array[set_index].tolist() if x != -1
                    ]
                if stack and stack[0] == ident:
                    continue  # most recent here and in every finer set
                try:
                    depth = stack.index(ident)
                    del stack[depth]
                except ValueError:
                    depth = cap
                    if len(stack) == cap:
                        stack.pop()
                stack.insert(0, ident)
                moved.append(i)
                moved_depths.append(depth)
            row[moved] = moved_depths
            for set_index, stack in lists.items():
                array[set_index, : len(stack)] = stack
            walking = moved

    def export_stacks(self) -> dict[int, list[int]]:
        """A single pass's carried per-set LRU stacks, MRU-first
        (stateful sets only).

        Together with :meth:`import_stacks` this lets a caller that
        owns equivalent per-set state in another representation — the
        reference :class:`~repro.memsim.tlb.Tlb`'s move-to-front lists
        — round-trip it through this pass and back, so interleaving
        scalar and batched accesses stays bit-identical.
        """
        array = self._single_pass_stacks()
        stacks: dict[int, list[int]] = {}
        for set_index in np.flatnonzero(array[:, 0] != -1).tolist():
            row = array[set_index].tolist()
            stacks[set_index] = [x for x in row if x != -1]
        return stacks

    def import_stacks(self, stacks: dict[int, list[int]]) -> None:
        """Replace a single pass's carried state with per-set MRU-first
        stacks.

        Each id must map to its claimed set (``id & (n_sets - 1)``);
        stacks deeper than ``max_assoc`` are truncated to the tracked
        depth, exactly as feeding would have capped them.
        """
        array = self._single_pass_stacks()
        mask = self.set_counts[0] - 1
        for set_index, stack in stacks.items():
            for ident in stack:
                if ident < 0 or ident & mask != set_index:
                    raise ValueError(
                        f"id {ident} does not belong to set {set_index}"
                    )
        array.fill(-1)
        for set_index, stack in stacks.items():
            stack = stack[: self.caps[0]]
            array[set_index, : len(stack)] = stack
        # The last id fed need no longer be at the front of its set.
        self._last[0] = -1

    def _single_pass_stacks(self) -> np.ndarray:
        """The stacks a single pass trades in and out; a family of
        several refuses, because imported stacks need not nest."""
        if len(self.set_counts) > 1:
            raise ValueError("only a single pass trades its stacks")
        return self._member_stacks[0]

    @property
    def counted(self) -> int:
        """Counted (post-warmup) references fed so far."""
        return int(self._hists[0].sum())

    @property
    def flagged_counted(self) -> int:
        """Counted references with the class flag set."""
        return int(self._flag_hists[0].sum())

    def hit_counts(self, member: int = 0) -> np.ndarray:
        """``hits[k-1]`` = counted references hitting k-way (≙ batch)."""
        return np.cumsum(self._hists[member][: self.caps[member]])

    def miss_counts(self, member: int = 0) -> np.ndarray:
        """Counted misses per associativity 1..cap of a member."""
        return self.counted - self.hit_counts(member)

    def flagged_miss_counts(self, member: int = 0) -> np.ndarray:
        """Counted flagged-class misses per associativity of a member."""
        return self.flagged_counted - np.cumsum(
            self._flag_hists[member][: self.caps[member]]
        )


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
