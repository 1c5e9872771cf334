"""Differential tests: the write buffer's production paths vs the spec.

``StreamingWriteBuffer`` feeds each chunk to the C loop
(``repro_write_buffer`` in ``_native.c``) and, when the C kernels are
unavailable, steps the same carried state through
:meth:`WriteBuffer.store`.  Every test here runs both paths — the
fallback forced by making ``_native`` report the kernels unavailable —
and asserts bit-identity against
:func:`simulate_write_buffer_reference` (the scalar event loop) across
stream shapes, chunkings, ``count_from`` values, out-of-order arrivals
and the store-arrival streams of real timing passes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import measure
from repro.memsim import _native, timing
from repro.memsim.write_buffer import (
    StreamingWriteBuffer,
    simulate_write_buffer,
    simulate_write_buffer_reference,
)
from repro.trace.generator import generate_trace


def _streams():
    rng = np.random.default_rng(17)
    n = 5_000
    return {
        "dense": np.arange(n, dtype=np.int64),
        "sparse": np.cumsum(rng.integers(8, 60, size=n).astype(np.int64)),
        "bursty": np.cumsum(
            np.where(
                rng.random(n) < 0.25,
                rng.integers(0, 3, size=n),
                rng.integers(6, 40, size=n),
            ).astype(np.int64)
        ),
        "mixed": np.cumsum(rng.integers(0, 14, size=n).astype(np.int64)),
        "plateaus": np.repeat(
            np.cumsum(rng.integers(0, 25, size=n // 8).astype(np.int64)), 8
        ),
    }


def _on_both_paths(run):
    """``run()`` on the native path, then with the scalar fallback forced."""
    results = [run()]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_native, "available", lambda: False)
        results.append(run())
    return results


def _assert_identical(got, ref):
    assert got.stores == ref.stores
    assert got.stall_cycles == ref.stall_cycles


def _assert_both_identical(run, ref):
    for got in _on_both_paths(run):
        _assert_identical(got, ref)


def _feed_chunks(times, cuts, depth=4, retire=6, count_from=0):
    """Feed ``times`` split at ``cuts``, with chunk-relative count_from."""
    sim = StreamingWriteBuffer(depth=depth, retire_cycles=retire)
    bounds = [0, *cuts, int(times.size)]
    for lo, hi in zip(bounds, bounds[1:]):
        sim.feed(times[lo:hi], count_from=max(count_from - lo, 0))
    return sim.result()


class TestVectorMatchesScalar:
    @pytest.mark.parametrize("name", sorted(_streams()))
    @pytest.mark.parametrize("depth,retire", [(1, 6), (4, 6), (4, 1), (8, 13)])
    def test_stream_shapes(self, name, depth, retire):
        times = _streams()[name]
        ref = simulate_write_buffer_reference(
            times, depth=depth, retire_cycles=retire
        )
        _assert_both_identical(
            lambda: simulate_write_buffer(
                times, depth=depth, retire_cycles=retire
            ),
            ref,
        )

    @pytest.mark.parametrize("count_from", [0, 1, 7, 500, 4_999, 5_000])
    def test_count_from(self, count_from):
        times = _streams()["bursty"]
        ref = simulate_write_buffer_reference(times, count_from=count_from)
        _assert_both_identical(
            lambda: simulate_write_buffer(times, count_from=count_from), ref
        )

    @pytest.mark.parametrize("chunk", [1, 3, 64, 1_000, 4_096])
    def test_chunked_equals_whole(self, chunk):
        """Feeding chunk by chunk carries slip and occupancy exactly."""
        times = _streams()["mixed"]
        cuts = list(range(chunk, times.size, chunk))
        _assert_both_identical(
            lambda: _feed_chunks(times, cuts),
            simulate_write_buffer_reference(times),
        )

    def test_chunked_count_from_is_chunk_relative(self):
        times = _streams()["dense"][:200]
        ref = simulate_write_buffer_reference(times, count_from=50)

        def run():
            sim = StreamingWriteBuffer()
            sim.feed(times[:100], count_from=50)
            sim.feed(times[100:])
            return sim.result()

        _assert_both_identical(run, ref)

    def test_empty_chunks_are_noops(self):
        times = _streams()["sparse"][:300]
        _assert_both_identical(
            lambda: _feed_chunks(times, [0, 150, 150]),
            simulate_write_buffer_reference(times),
        )

    def test_paths_share_the_carried_state(self):
        """Alternating native and fallback chunks hands the same state
        back and forth, bit-identically."""
        times = _streams()["bursty"]
        sim = StreamingWriteBuffer()
        for i, lo in enumerate(range(0, times.size, 700)):
            with pytest.MonkeyPatch.context() as patch:
                if i % 2:
                    patch.setattr(_native, "available", lambda: False)
                sim.feed(times[lo : lo + 700], count_from=max(100 - lo, 0))
        ref = simulate_write_buffer_reference(times, count_from=100)
        _assert_identical(sim.result(), ref)


class TestNativeKernel:
    @pytest.mark.skipif(not _native.available(), reason="no C kernels")
    def test_rejects_a_state_that_does_not_fit_the_depth(self):
        times = np.arange(4, dtype=np.int64)
        with pytest.raises(ValueError, match="4 \\+ depth"):
            _native.write_buffer(times, 4, 6, 0, np.zeros(7, dtype=np.int64))
        with pytest.raises(ValueError, match="4 \\+ depth"):
            _native.write_buffer(times, 2, 6, 0, np.zeros(6, dtype=np.int32))
        with pytest.raises(ValueError, match="at least one entry"):
            _native.write_buffer(times, 0, 6, 0, np.zeros(4, dtype=np.int64))


class TestNonMonotoneFallback:
    def test_out_of_order_stream_matches_scalar(self):
        rng = np.random.default_rng(5)
        times = rng.integers(0, 2_000, size=1_000).astype(np.int64)
        assert not bool((times[1:] >= times[:-1]).all())
        _assert_both_identical(
            lambda: simulate_write_buffer(times),
            simulate_write_buffer_reference(times),
        )

    def test_fallback_is_sticky_across_chunks(self):
        """A monotone chunk, an out-of-order one, then a monotone one:
        the loop needs no monotone arrivals, so every chunk stays
        bit-identical to the spec."""
        rng = np.random.default_rng(9)
        mono1 = np.cumsum(rng.integers(0, 10, size=400).astype(np.int64))
        disorder = mono1[-1] + rng.integers(0, 100, size=100).astype(np.int64)
        mono2 = disorder.max() + np.cumsum(
            rng.integers(0, 10, size=400).astype(np.int64)
        )
        whole = np.concatenate([mono1, disorder, mono2])
        _assert_both_identical(
            lambda: _feed_chunks(whole, [400, 500]),
            simulate_write_buffer_reference(whole),
        )

    def test_backwards_step_across_chunk_boundary(self):
        """A chunk that is internally monotone but starts before the
        previous chunk's last presented arrival."""
        whole = np.array([0, 1, 2, 50, 10, 11, 60], dtype=np.int64)
        ref = simulate_write_buffer_reference(whole, depth=2, retire_cycles=9)
        _assert_both_identical(
            lambda: _feed_chunks(whole, [4], depth=2, retire=9), ref
        )


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        gaps=st.lists(
            st.integers(min_value=0, max_value=30), min_size=1, max_size=300
        ),
        depth=st.integers(min_value=1, max_value=6),
        retire=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    def test_random_monotone_streams(self, gaps, depth, retire, data):
        times = np.cumsum(np.array(gaps, dtype=np.int64))
        count_from = data.draw(
            st.integers(min_value=0, max_value=len(gaps)), label="count_from"
        )
        ref = simulate_write_buffer_reference(
            times, depth=depth, retire_cycles=retire, count_from=count_from
        )
        _assert_both_identical(
            lambda: simulate_write_buffer(
                times, depth=depth, retire_cycles=retire, count_from=count_from
            ),
            ref,
        )

    @settings(max_examples=25, deadline=None)
    @given(
        gaps=st.lists(
            st.integers(min_value=0, max_value=30), min_size=2, max_size=200
        ),
        splits=st.lists(
            st.integers(min_value=1, max_value=199), max_size=4, unique=True
        ),
    )
    def test_random_chunkings(self, gaps, splits):
        times = np.cumsum(np.array(gaps, dtype=np.int64))
        cuts = sorted(s for s in splits if s < times.size)
        _assert_both_identical(
            lambda: _feed_chunks(times, cuts),
            simulate_write_buffer_reference(times),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        times=st.lists(
            st.integers(min_value=0, max_value=400), min_size=0, max_size=250
        ),
        depth=st.integers(min_value=1, max_value=8),
        retire=st.integers(min_value=1, max_value=16),
        data=st.data(),
    )
    def test_fuzz_any_order_any_chunking(self, times, depth, retire, data):
        """Arbitrary (non-monotone) arrivals, split anywhere, warmed
        for any prefix."""
        times = np.array(times, dtype=np.int64)
        n = int(times.size)
        cuts = sorted(
            data.draw(
                st.lists(st.integers(min_value=0, max_value=n), max_size=6),
                label="cuts",
            )
        )
        count_from = data.draw(
            st.integers(min_value=0, max_value=n + 2), label="count_from"
        )
        ref = simulate_write_buffer_reference(
            times, depth=depth, retire_cycles=retire, count_from=count_from
        )
        _assert_both_identical(
            lambda: _feed_chunks(times, cuts, depth, retire, count_from), ref
        )


def _recorded_store_stream(workload, os_name, references, warmup):
    """The store arrivals one timing pass feeds its write buffer."""
    fed = []

    class Recording(StreamingWriteBuffer):
        def feed(self, store_times, count_from=0):
            fed.append((np.array(store_times, dtype=np.int64), count_from))
            super().feed(store_times, count_from)

    trace = generate_trace(workload, os_name, references, seed=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(timing, "StreamingWriteBuffer", Recording)
        result = timing.simulate_system(
            trace, timing.DECSTATION_3100, warmup_fraction=warmup
        )
    ((times, count_from),) = fed
    return times, count_from, result


class TestRealTraceStreams:
    def test_stall_heavy_timing_pass(self):
        """video_play/ultrix: about one stall cycle per store."""
        config = timing.DECSTATION_3100
        times, count_from, system = _recorded_store_stream(
            "video_play", "ultrix", 50_000, 0.4
        )
        ref = simulate_write_buffer_reference(
            times, config.wb_depth, config.wb_retire_cycles, count_from
        )
        assert ref.stall_cycles == system.wb_stall_cycles
        assert ref.stall_cycles > ref.stores
        _assert_both_identical(
            lambda: _feed_chunks(
                times,
                list(range(777, times.size, 777)),
                config.wb_depth,
                config.wb_retire_cycles,
                count_from,
            ),
            ref,
        )

    def test_measure_workload_wb_stall_is_chunk_independent(
        self, tmp_path, monkeypatch
    ):
        """IOzone/mach's write-buffer CPI, in memory as one chunk and
        streamed from the trace plane in 4096-reference chunks, on both
        paths."""
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setattr(measure, "_worker_traces", {})
        kwargs = dict(
            capacities=(4096,),
            lines=(4,),
            assocs=(1,),
            tlb_entries=(16,),
            tlb_assocs=(1,),
            tlb_full_max=16,
            references=30_000,
            use_cache=False,
            jobs=1,
        )
        monkeypatch.setenv("REPRO_STREAM_CHUNK", str(1 << 30))
        whole = measure.measure_workload("IOzone", "mach", **kwargs)
        assert whole.wb_stall_per_instr > 0
        monkeypatch.setenv("REPRO_STREAM_CHUNK", "4096")
        assert measure._use_streaming(30_000)
        for curves in _on_both_paths(
            lambda: measure.measure_workload("IOzone", "mach", **kwargs)
        ):
            assert curves.wb_stall_per_instr == whole.wb_stall_per_instr
