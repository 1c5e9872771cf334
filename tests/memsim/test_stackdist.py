"""Stack-distance engine tests, including hypothesis cross-checks
against the reference simulator (the paper's trace-driven simulators
were validated against hardware the same way)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memsim.cache import Cache
from repro.memsim.stackdist import (
    StreamingStackDistance,
    compulsory_miss_count,
    fully_associative_miss_curve,
    set_associative_hit_counts,
)

line_id_streams = st.lists(
    st.integers(min_value=0, max_value=63), min_size=1, max_size=300
).map(lambda xs: np.array(xs, dtype=np.int64))


class TestSetAssociativeHitCounts:
    def test_simple_stream(self):
        ids = np.array([0, 1, 0, 2, 0, 1])
        hits = set_associative_hit_counts(ids, 1, 3)
        # distances: 0:- 1:- 0:d1 2:- 0:d1 1:d2
        assert hits.tolist() == [0, 2, 3]

    def test_inclusion_property(self):
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 100, size=2000)
        hits = set_associative_hit_counts(ids, 4, 8)
        assert all(hits[i] <= hits[i + 1] for i in range(7))

    def test_rejects_bad_sets(self):
        with pytest.raises(ValueError):
            set_associative_hit_counts(np.array([1]), 3, 2)
        with pytest.raises(ValueError):
            set_associative_hit_counts(np.array([1]), 4, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        ids=line_id_streams,
        sets_log=st.integers(min_value=0, max_value=3),
        assoc_log=st.integers(min_value=0, max_value=3),
    )
    def test_matches_reference_cache(self, ids, sets_log, assoc_log):
        """One stack pass must agree with the per-config reference
        simulator at every associativity."""
        n_sets = 1 << sets_log
        assoc = 1 << assoc_log
        hits = set_associative_hit_counts(ids, n_sets, 8)
        line_bytes = 16
        cache = Cache(n_sets * assoc * line_bytes, 4, assoc)
        for line in ids:
            cache.access(int(line) * line_bytes)
        reference_hits = cache.result.accesses - cache.result.misses
        assert int(hits[assoc - 1]) == reference_hits

    @settings(max_examples=25, deadline=None)
    @given(ids=line_id_streams, warm=st.integers(min_value=0, max_value=50))
    def test_count_from_splits_cleanly(self, ids, warm):
        """Warm-window hits plus counted hits equal full-trace hits."""
        warm = min(warm, len(ids))
        full = set_associative_hit_counts(ids, 2, 4)
        counted = set_associative_hit_counts(ids, 2, 4, count_from=warm)
        # Hits in [0, warm) of the same run:
        head = set_associative_hit_counts(ids[:warm], 2, 4) if warm else np.zeros(4)
        assert (counted + head == full).all()


class TestMissFlags:
    @settings(max_examples=40, deadline=None)
    @given(
        ids=line_id_streams,
        sets_log=st.integers(min_value=0, max_value=3),
        assoc=st.sampled_from([1, 2, 4]),
    )
    def test_flags_sum_matches_stack_engine(self, ids, sets_log, assoc):
        n_sets = 1 << sets_log
        flags = StreamingStackDistance(n_sets, assoc).feed(ids) == assoc
        hits = set_associative_hit_counts(ids, n_sets, assoc)
        assert int(flags.sum()) == len(ids) - int(hits[assoc - 1])


class TestFullyAssociativeCurve:
    def test_monotone_in_size(self):
        rng = np.random.default_rng(5)
        ids = rng.integers(0, 200, size=3000)
        sizes = [8, 16, 32, 64, 128]
        misses = fully_associative_miss_curve(ids, sizes)
        assert all(misses[i] >= misses[i + 1] for i in range(len(sizes) - 1))

    def test_huge_structure_only_compulsory_misses(self):
        ids = np.array([1, 2, 3, 1, 2, 3, 4])
        misses = fully_associative_miss_curve(ids, [512])
        assert misses[0] == compulsory_miss_count(ids) == 4

    @settings(max_examples=30, deadline=None)
    @given(ids=line_id_streams, size_log=st.integers(min_value=0, max_value=6))
    def test_matches_reference_fa_cache(self, ids, size_log):
        """The FA stack curve must match a 1-set LRU reference."""
        size = 1 << size_log
        misses = fully_associative_miss_curve(ids, [size])
        flags = StreamingStackDistance(1, size).feed(ids) == size
        assert int(misses[0]) == int(flags.sum())


def _miss_split(ids, n_sets, max_assoc, flags):
    sim = StreamingStackDistance(n_sets, max_assoc, track_flags=True)
    sim.feed(ids, flags)
    return sim.miss_counts(), sim.flagged_miss_counts()


class TestClassSplits:
    def test_split_totals_match_unsplit(self):
        rng = np.random.default_rng(6)
        ids = rng.integers(0, 64, size=1500)
        flags = rng.random(1500) < 0.3
        misses, flagged = _miss_split(ids, 4, 8, flags)
        plain_hits = set_associative_hit_counts(ids, 4, 8)
        assert (misses == len(ids) - plain_hits).all()
        assert (flagged <= misses).all()

    def test_fa_split_totals_match_curve(self):
        rng = np.random.default_rng(7)
        ids = rng.integers(0, 64, size=1500)
        flags = rng.random(1500) < 0.5
        sizes = [4, 16, 64]
        misses, flagged = _miss_split(ids, 1, max(sizes), flags)
        index = np.asarray(sizes) - 1
        misses, flagged = misses[index], flagged[index]
        curve = fully_associative_miss_curve(ids, sizes)
        assert (misses == curve).all()
        assert (flagged <= misses).all()

    def test_all_flagged_equals_total(self):
        ids = np.array([0, 1, 2, 0, 1, 2, 3])
        flags = np.ones(len(ids), dtype=bool)
        misses, flagged = _miss_split(ids, 1, 2, flags)
        assert (misses == flagged).all()
