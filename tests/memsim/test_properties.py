"""Cross-component property tests (hypothesis).

These pin down the structural invariants the experiments rely on:
LRU inclusion across both engines, TLB/stack-engine agreement, and
the physical-frame mapper's bijection property.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.memsim.multiconfig import dedupe_consecutive
from repro.memsim.stackdist import (
    StreamingStackDistance,
    fully_associative_miss_curve,
    set_associative_hit_counts,
)
from repro.memsim.tlb import Tlb
from repro.trace.events import assign_physical_frames
from repro.units import PAGE_BYTES, VPN_BITS

page_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),   # vpn
        st.integers(min_value=0, max_value=3),    # asid
        st.booleans(),                            # kernel
    ),
    min_size=1,
    max_size=200,
)


class TestTlbAgainstStackEngine:
    @settings(max_examples=30, deadline=None)
    @given(stream=page_streams, entries_log=st.integers(min_value=2, max_value=6))
    def test_fa_tlb_matches_fa_stack_curve(self, stream, entries_log):
        entries = 1 << entries_log
        vpns = np.array([s[0] for s in stream])
        asids = np.array([s[1] for s in stream])
        tlb = Tlb(entries, "full")
        tlb.simulate(vpns, asids.astype(np.uint8))
        ids = (asids.astype(np.int64) << VPN_BITS) | vpns
        misses = fully_associative_miss_curve(ids, [entries])
        assert tlb.result.misses == int(misses[0])

    @settings(max_examples=30, deadline=None)
    @given(stream=page_streams, assoc_log=st.integers(min_value=0, max_value=3))
    def test_sa_tlb_matches_miss_flags(self, stream, assoc_log):
        assoc = 1 << assoc_log
        entries = 16 * assoc
        vpns = np.array([s[0] for s in stream])
        asids = np.array([s[1] for s in stream])
        tlb = Tlb(entries, assoc)
        tlb.simulate(vpns, asids.astype(np.uint8))
        ids = (asids.astype(np.int64) << VPN_BITS) | vpns
        flags = StreamingStackDistance(16, assoc).feed(ids) == assoc
        assert tlb.result.misses == int(flags.sum())


class TestInclusionProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        ids=st.lists(
            st.integers(min_value=0, max_value=100), min_size=1, max_size=300
        ).map(lambda xs: np.array(xs, dtype=np.int64))
    )
    def test_fa_curve_monotone_in_size(self, ids):
        sizes = [1, 2, 4, 8, 16, 32]
        misses = fully_associative_miss_curve(ids, sizes)
        assert all(misses[i] >= misses[i + 1] for i in range(len(sizes) - 1))

    @settings(max_examples=30, deadline=None)
    @given(
        ids=st.lists(
            st.integers(min_value=0, max_value=100), min_size=1, max_size=300
        ).map(lambda xs: np.array(xs, dtype=np.int64)),
        sets_log=st.integers(min_value=0, max_value=3),
    )
    def test_dedupe_never_changes_stack_hits(self, ids, sets_log):
        n_sets = 1 << sets_log
        (deduped,) = dedupe_consecutive(ids)
        full = set_associative_hit_counts(ids, n_sets, 4)
        dd = set_associative_hit_counts(deduped, n_sets, 4)
        dropped = len(ids) - len(deduped)
        # Dropped refs are all guaranteed hits at every associativity.
        assert (full == dd + dropped).all()


class TestPhysicalFrames:
    @settings(max_examples=25, deadline=None)
    @given(
        pages=st.lists(
            st.integers(min_value=0, max_value=5000), min_size=1, max_size=200
        ),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_mapping_is_a_bijection_on_pages(self, pages, seed):
        addrs = np.array(pages, dtype=np.int64) * PAGE_BYTES
        phys = assign_physical_frames(addrs, seed=seed)
        virt_pages = np.unique(addrs >> 12)
        phys_pages = np.unique(phys >> 12)
        assert len(virt_pages) == len(phys_pages)

    @settings(max_examples=25, deadline=None)
    @given(
        offsets=st.lists(
            st.integers(min_value=0, max_value=PAGE_BYTES - 4), min_size=1, max_size=50
        ),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_offsets_survive_translation(self, offsets, seed):
        addrs = np.array(offsets, dtype=np.int64) + 7 * PAGE_BYTES
        phys = assign_physical_frames(addrs, seed=seed)
        assert ((phys & (PAGE_BYTES - 1)) == (addrs & (PAGE_BYTES - 1))).all()
