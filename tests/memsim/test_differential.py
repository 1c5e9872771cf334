"""Differential tests: the stack-distance pass vs the reference simulators.

:class:`~repro.memsim.stackdist.StreamingStackDistance` steps its
carried stacks in the C loop, or in an interpreted per-set loop when
the C kernels are unavailable.  The path the pass picks on its own and
each path forced — the fallback by making ``_native`` report the
kernels unavailable — must be *bit-identical* to the readable
per-access simulators in :mod:`repro.memsim.cache` and
:mod:`repro.memsim.tlb` and to the interpreted ``*_reference`` twins.
These tests sweep randomized traces through every path and compare
exact miss counts — no tolerances anywhere.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.memsim import _native
from repro.memsim.cache import Cache
from repro.memsim.multiconfig import (
    cache_miss_ratio_grid,
    cache_miss_ratio_grid_reference,
    miss_flags_lru_reference,
)
from repro.memsim.stackdist import (
    StreamingStackDistance,
    fully_associative_miss_curve,
    fully_associative_miss_curve_reference,
    fully_associative_miss_split_reference,
    set_associative_hit_counts,
    set_associative_hit_counts_reference,
    set_associative_miss_split_reference,
)
from repro.memsim.tlb import Tlb
from repro.units import VPN_BITS, WORD_BYTES

PATHS = ["auto"] + (["native"] if _native.available() else []) + ["python"]


def _no_fallback(self, ids, depths):
    raise AssertionError("the interpreted fallback ran on the native path")


@contextlib.contextmanager
def on_path(path):
    """Run the body on ``path``: ``auto`` leaves the choice to the
    pass (the C loop when it builds), ``native`` fails if the
    interpreted fallback runs, and ``python`` forces the fallback by
    making ``_native`` report the kernels unavailable."""
    with pytest.MonkeyPatch.context() as patch:
        if path == "native":
            patch.setattr(StreamingStackDistance, "_feed_scalar", _no_fallback)
        elif path == "python":
            patch.setattr(_native, "available", lambda: False)
        yield


def reference_depths(ids, n_sets, max_assoc):
    """Capped LRU stack depth of every reference, one ref at a time."""
    stacks: dict[int, list[int]] = {}
    depths = []
    for ref in np.asarray(ids).tolist():
        stack = stacks.setdefault(ref & (n_sets - 1), [])
        depth = stack.index(ref) if ref in stack else max_assoc
        if depth < max_assoc:
            del stack[depth]
        stack.insert(0, ref)
        del stack[max_assoc:]
        depths.append(depth)
    return np.asarray(depths)


# 24 cache geometries spanning the interesting shapes: direct-mapped to
# 8-way, 1- to 16-word lines, tiny caches (heavy conflict) to ones
# larger than the footprint (compulsory-only).
CACHE_CONFIGS = [
    (capacity, line_words, assoc)
    for capacity in (256, 1024, 4096, 16384)
    for line_words, assoc in (
        (1, 1), (1, 4), (4, 1), (4, 2), (4, 8), (16, 2),
    )
]


def synthetic_addresses(rng: np.random.Generator, n: int = 5000) -> np.ndarray:
    """A word-aligned mix of sequential runs, loops and random jumps."""
    chunks = []
    pos = int(rng.integers(0, 1 << 20))
    while sum(len(c) for c in chunks) < n:
        mode = rng.integers(0, 3)
        length = int(rng.integers(4, 120))
        if mode == 0:  # sequential run
            chunks.append(np.arange(pos, pos + length))
            pos += length
        elif mode == 1:  # loop over a small working set
            base = int(rng.integers(0, 1 << 16))
            span = int(rng.integers(2, 64))
            chunks.append(base + (np.arange(length) % span))
        else:  # random jumps
            chunks.append(rng.integers(0, 1 << 18, size=length))
            pos = int(chunks[-1][-1])
    words = np.concatenate(chunks)[:n]
    return words.astype(np.int64) * WORD_BYTES


def miss_split(ids, n_sets, max_assoc, flags, count_from=0):
    """(misses, flagged misses) per associativity from one flagged pass."""
    sim = StreamingStackDistance(n_sets, max_assoc, track_flags=True)
    sim.feed(ids, flags, count_from=count_from)
    return sim.miss_counts(), sim.flagged_miss_counts()


def fa_miss_split(ids, sizes, flags, count_from=0):
    """Fully-associative (misses, flagged misses) aligned with ``sizes``."""
    misses, flagged = miss_split(ids, 1, max(sizes), flags, count_from)
    index = np.asarray(sizes) - 1
    return misses[index], flagged[index]


@pytest.fixture(scope="module")
def trace_addresses():
    return synthetic_addresses(np.random.default_rng(42))


class TestGridVsCacheSimulator:
    @pytest.mark.slow
    @pytest.mark.parametrize("capacity,line_words,assoc", CACHE_CONFIGS)
    def test_miss_counts_match_cache(
        self, trace_addresses, capacity, line_words, assoc
    ):
        """Grid miss ratios equal the per-access Cache simulator's."""
        sim = Cache(capacity, line_words, assoc)
        sim.simulate(trace_addresses)
        grid = cache_miss_ratio_grid(
            trace_addresses, [capacity], [line_words], [assoc]
        )
        got = grid[(capacity, line_words, assoc)] * len(trace_addresses)
        assert round(got) == sim.result.misses

    @pytest.mark.parametrize("path", PATHS)
    def test_grid_engines_match_reference_grid(self, trace_addresses, path):
        """Every path reproduces the interpreted grid bit-for-bit."""
        capacities = [512, 2048, 8192]
        lines = [4, 8]
        assocs = [1, 2, 4]
        ref = cache_miss_ratio_grid_reference(
            trace_addresses, capacities, lines, assocs, warmup_fraction=0.3
        )
        with on_path(path):
            fast = cache_miss_ratio_grid(
                trace_addresses, capacities, lines, assocs, warmup_fraction=0.3
            )
        assert fast == ref

    def test_miss_flags_match_cache_flags(self, trace_addresses):
        """Per-reference miss flags agree with the simulator's flags."""
        sim = Cache(2048, 4, 2)
        result = sim.simulate(trace_addresses, record_flags=True)
        line_ids = trace_addresses >> 4  # 4 words = 16 bytes
        flags = StreamingStackDistance(sim.sets, 2).feed(line_ids) == 2
        np.testing.assert_array_equal(flags, result.miss_flags)
        np.testing.assert_array_equal(
            miss_flags_lru_reference(line_ids, sim.sets, 2), result.miss_flags
        )


class TestEngineModesAgree:
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("n_sets,max_assoc", [(1, 8), (16, 4), (256, 8), (1024, 1), (64, 2)])
    def test_depths_match_python(self, rng, path, n_sets, max_assoc):
        ids = rng.integers(0, 4096, size=6000).astype(np.int64)
        with on_path(path):
            got = StreamingStackDistance(n_sets, max_assoc).feed(ids)
        np.testing.assert_array_equal(
            got, reference_depths(ids, n_sets, max_assoc)
        )

    def test_stackdist_reference_twins(self, rng):
        ids = rng.integers(0, 300, size=4000).astype(np.int64)
        for path in PATHS:
            with on_path(path):
                hits = set_associative_hit_counts(ids, 16, 8, count_from=100)
                curve = fully_associative_miss_curve(
                    ids, [4, 16, 64], count_from=100
                )
            np.testing.assert_array_equal(
                hits,
                set_associative_hit_counts_reference(ids, 16, 8, count_from=100),
            )
            np.testing.assert_array_equal(
                curve,
                fully_associative_miss_curve_reference(
                    ids, [4, 16, 64], count_from=100
                ),
            )

    @pytest.mark.skipif(not _native.available(), reason="no C kernels")
    @pytest.mark.parametrize("n_sets,max_assoc", [(1, 16), (8, 4), (64, 1)])
    def test_paths_alternate_chunk_by_chunk(
        self, rng, monkeypatch, n_sets, max_assoc
    ):
        """The carried stacks pass between the native and the fallback
        path at every chunk boundary, and the result matches one feed."""
        ids = rng.integers(0, 500, size=9000).astype(np.int64)
        flags = rng.random(9000) < 0.3
        whole = StreamingStackDistance(n_sets, max_assoc, track_flags=True)
        whole_depths = whole.feed(ids, flags, count_from=1500)
        sim = StreamingStackDistance(n_sets, max_assoc, track_flags=True)
        native_available = _native.available
        depths = []
        for index, start in enumerate(range(0, len(ids), 700)):
            monkeypatch.setattr(
                _native,
                "available",
                native_available if index % 2 else (lambda: False),
            )
            stop = start + 700
            depths.append(
                sim.feed(
                    ids[start:stop],
                    flags[start:stop],
                    count_from=max(1500 - start, 0),
                )
            )
        np.testing.assert_array_equal(np.concatenate(depths), whole_depths)
        np.testing.assert_array_equal(sim.miss_counts(), whole.miss_counts())
        np.testing.assert_array_equal(
            sim.flagged_miss_counts(), whole.flagged_miss_counts()
        )
        assert sim.export_stacks() == whole.export_stacks()


class TestTlbDifferential:
    TLB_CONFIGS = [(16, 1), (16, 4), (64, 2), (64, 8), (128, 4)]

    @pytest.fixture(scope="class")
    def tlb_stream(self):
        rng = np.random.default_rng(7)
        n = 4000
        vpns = rng.integers(0, 200, size=n).astype(np.int64)
        asids = rng.integers(0, 4, size=n).astype(np.int64)
        kernel = rng.random(n) < 0.2
        return vpns, asids, kernel

    @pytest.mark.parametrize("entries,assoc", TLB_CONFIGS)
    def test_user_kernel_split_matches_tlb(self, tlb_stream, entries, assoc):
        """The one-pass split equals the per-access Tlb simulator,
        including the user/kernel miss classification."""
        vpns, asids, kernel = tlb_stream
        sim = Tlb(entries, assoc)
        result = sim.simulate(vpns, asids, kernel)
        ids = (asids << VPN_BITS) | vpns
        misses, kernel_misses = miss_split(ids, entries // assoc, assoc, kernel)
        assert int(misses[assoc - 1]) == result.misses
        assert int(kernel_misses[assoc - 1]) == result.kernel_misses
        assert int(misses[assoc - 1] - kernel_misses[assoc - 1]) == result.user_misses

    def test_fully_associative_split_matches_tlb(self, tlb_stream):
        vpns, asids, kernel = tlb_stream
        ids = (asids << VPN_BITS) | vpns
        sizes = [16, 64, 128]
        misses, kernel_misses = fa_miss_split(ids, sizes, kernel)
        for size, total, k in zip(sizes, misses, kernel_misses):
            sim = Tlb(size, "full")
            result = sim.simulate(vpns, asids, kernel)
            assert int(total) == result.misses
            assert int(k) == result.kernel_misses

    def test_split_reference_twins(self, tlb_stream):
        vpns, asids, kernel = tlb_stream
        ids = (asids << VPN_BITS) | vpns
        ref = set_associative_miss_split_reference(
            ids, 16, 4, kernel, count_from=500
        )
        ref_fa = fully_associative_miss_split_reference(
            ids, [8, 32], kernel, count_from=500
        )
        for path in PATHS:
            with on_path(path):
                fast = miss_split(ids, 16, 4, kernel, count_from=500)
                fast_fa = fa_miss_split(ids, [8, 32], kernel, count_from=500)
            np.testing.assert_array_equal(fast[0], ref[0])
            np.testing.assert_array_equal(fast[1], ref[1])
            np.testing.assert_array_equal(fast_fa[0], ref_fa[0])
            np.testing.assert_array_equal(fast_fa[1], ref_fa[1])


class TestRandomizedSweep:
    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(6))
    def test_random_traces_all_engines(self, seed):
        """Randomized end-to-end sweep on every path, every geometry
        class (caps 1 and 2 included), exact equality."""
        rng = np.random.default_rng(seed)
        addresses = synthetic_addresses(rng, n=3000)
        capacities = [256, 1024, 4096]
        lines = [1, 4]
        assocs = [1, 2, 8]
        ref = cache_miss_ratio_grid_reference(
            addresses, capacities, lines, assocs, warmup_fraction=0.25
        )
        for path in PATHS:
            with on_path(path):
                fast = cache_miss_ratio_grid(
                    addresses, capacities, lines, assocs, warmup_fraction=0.25
                )
            assert fast == ref, f"{path} path diverged"
