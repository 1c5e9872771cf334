"""A stack-distance family against one interpreted oracle per member.

:class:`~repro.memsim.stackdist.StreamingStackDistance` steps several
set counts over one id stream per call, stops each reference's walk at
the first member where it is already most recent, and counts a repeat
of the previous id as a depth-0 hit without touching the stacks.  None
of that may change a member's result: each must equal the independent
single-pass oracles run over the same (shifted) ids, on the C path and
on the interpreted fallback, however the stream is chunked.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memsim import _native
from repro.memsim.multiconfig import miss_flags_lru_reference
from repro.memsim.stackdist import (
    StreamingStackDistance,
    set_associative_hit_counts_reference,
    set_associative_miss_split_reference,
)
from tests.memsim.test_differential import on_path, reference_depths

PATHS = (["native"] if _native.available() else []) + ["python"]


@st.composite
def families(draw):
    """A nested family, a stream with runs of repeats, and a feed plan."""
    exponents = sorted(draw(st.sets(st.integers(0, 6), min_size=1, max_size=5)))
    caps = draw(
        st.lists(
            st.integers(1, 64), min_size=len(exponents), max_size=len(exponents)
        )
    )
    runs = draw(
        st.lists(
            st.tuples(st.integers(0, 95), st.integers(1, 4)), min_size=1, max_size=120
        )
    )
    ids = np.array([ident for ident, length in runs for _ in range(length)])
    shift = draw(st.integers(0, 3))
    # Byte-address-like values whose low bits the shift drops.
    values = (ids << shift) | draw(
        st.lists(
            st.integers(0, (1 << shift) - 1), min_size=len(ids), max_size=len(ids)
        )
    )
    flags = np.array(
        draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
    )
    cuts = sorted(draw(st.sets(st.integers(1, max(len(ids) - 1, 1)), max_size=4)))
    count_from = draw(st.integers(0, len(ids)))
    return (
        [1 << e for e in exponents],
        caps,
        shift,
        ids,
        np.asarray(values, dtype=np.int64),
        flags,
        [c for c in cuts if c < len(ids)],
        count_from,
    )


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("track_flags", [False, True])
@settings(max_examples=60, deadline=None)
@given(case=families())
def test_family_matches_per_member_oracles(path, track_flags, case):
    set_counts, caps, shift, ids, values, flags, cuts, count_from = case
    family = StreamingStackDistance(
        set_counts, caps, track_flags=track_flags, shift=shift
    )
    bounds = [0, *cuts, len(values)]
    rows = []
    with on_path(path):
        for start, stop in zip(bounds, bounds[1:]):
            rows.append(
                family.feed(
                    values[start:stop],
                    flags[start:stop] if track_flags else None,
                    count_from=count_from - start,
                )
            )
    depths = np.concatenate(rows, axis=1)
    assert depths.shape == (len(set_counts), len(ids))
    assert family.counted == len(ids) - count_from
    for member, (n_sets, cap) in enumerate(zip(set_counts, caps)):
        np.testing.assert_array_equal(
            family.hit_counts(member),
            set_associative_hit_counts_reference(ids, n_sets, cap, count_from),
        )
        np.testing.assert_array_equal(
            depths[member] == cap, miss_flags_lru_reference(ids, n_sets, cap)
        )
        np.testing.assert_array_equal(
            depths[member], reference_depths(ids, n_sets, cap)
        )
        if track_flags:
            misses, flagged = set_associative_miss_split_reference(
                ids, n_sets, cap, flags, count_from
            )
            np.testing.assert_array_equal(family.miss_counts(member), misses)
            np.testing.assert_array_equal(
                family.flagged_miss_counts(member), flagged
            )


@pytest.mark.parametrize("path", PATHS)
def test_depths_only_when_asked(rng, path):
    """``depths=False`` writes none and leaves the counts unchanged."""
    values = rng.integers(0, 1 << 12, size=3000)
    quiet = StreamingStackDistance([4, 16, 64], [8, 4, 1], shift=2)
    loud = StreamingStackDistance([4, 16, 64], [8, 4, 1], shift=2)
    with on_path(path):
        assert quiet.feed(values, count_from=500, depths=False) is None
        loud.feed(values, count_from=500)
    for member in range(3):
        np.testing.assert_array_equal(
            quiet.hit_counts(member), loud.hit_counts(member)
        )


@pytest.mark.parametrize(
    "set_counts", [[8, 4], [4, 4], [2, 6], [3], [], [1, 2, 8, 8]]
)
def test_non_nested_family_raises(set_counts):
    with pytest.raises(ValueError):
        StreamingStackDistance(set_counts, 2)


def test_family_refuses_to_trade_stacks():
    """Imported stacks need not nest, so only a single pass trades them."""
    family = StreamingStackDistance([1, 2], 2)
    with pytest.raises(ValueError, match="single pass"):
        family.import_stacks({0: [4]})
    with pytest.raises(ValueError, match="single pass"):
        family.export_stacks()


@pytest.mark.parametrize("path", PATHS)
def test_import_forgets_the_last_id(path):
    """After an import the last id fed need not be at the front of its
    set, so a repeat of it must be looked up, not assumed a hit."""
    sim = StreamingStackDistance(1, 2)
    with on_path(path):
        sim.feed(np.array([5]))
        sim.import_stacks({0: [7]})
        assert sim.feed(np.array([5])).tolist() == [2]
