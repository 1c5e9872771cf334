"""Chunked simulation kernels must not depend on the chunking.

Every chunked kernel carries its state (LRU stacks, dedupe boundary,
completion-time cursor, write-buffer occupancy) across chunk
boundaries; these tests drive each one in chunks sized to land
mid-pattern against the same data fed as a single chunk, and the
single chunk against the interpreted reference kernels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.memsim.multiconfig import (
    cache_miss_ratio_grid,
    cache_miss_ratio_grid_chunked,
    line_ids_for,
    miss_flags_lru_reference,
)
from repro.memsim.stackdist import (
    StreamingStackDistance,
    fully_associative_miss_curve,
    set_associative_hit_counts,
)
from repro.memsim.timing import (
    DECSTATION_3100,
    simulate_system,
    simulate_system_stream,
)
from repro.memsim.write_buffer import (
    StreamingWriteBuffer,
    simulate_write_buffer,
    simulate_write_buffer_reference,
)
from repro.units import PAGE_SHIFT, VPN_BITS, WORD_BYTES

CHUNKS = (64, 1000, 4096, 7104)


def _chunked(array: np.ndarray, size: int):
    for start in range(0, len(array), size):
        yield array[start : start + size]


class TestStreamingStackDistance:
    @pytest.mark.parametrize("n_sets", [1, 4, 16])
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_matches_batch_misses(self, rng, n_sets, chunk):
        ids = rng.integers(0, 400, size=20_000)
        max_assoc = 8
        count_from = 5_000
        sim = StreamingStackDistance(n_sets, max_assoc)
        consumed = 0
        for part in _chunked(ids, chunk):
            sim.feed(part, count_from=max(count_from - consumed, 0))
            consumed += len(part)
        expected = set_associative_hit_counts(
            ids, n_sets, max_assoc, count_from=count_from
        )
        assert np.array_equal(sim.hit_counts(), expected)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_fully_associative_with_flags(self, rng, chunk):
        ids = rng.integers(0, 300, size=15_000)
        flags = rng.random(15_000) < 0.3
        sizes = [4, 16, 64]
        sim = StreamingStackDistance(1, max(sizes), track_flags=True)
        for start in range(0, len(ids), chunk):
            sim.feed(ids[start : start + chunk], flags[start : start + chunk])
        expected = fully_associative_miss_curve(ids, sizes)
        got = sim.miss_counts()[np.asarray(sizes) - 1]
        assert np.array_equal(got, expected)
        # Flagged misses never exceed total misses.
        flagged = sim.flagged_miss_counts()[np.asarray(sizes) - 1]
        assert np.all(flagged <= got)

    def test_export_right_after_feed_is_settled(self, rng):
        ids = rng.integers(0, 200, size=3000)
        sim = StreamingStackDistance(8, 4)
        sim.feed(ids)
        expected: dict[int, list[int]] = {}
        for ref in ids.tolist():
            stack = expected.setdefault(ref & 7, [])
            if ref in stack:
                stack.remove(ref)
            stack.insert(0, ref)
            del stack[4:]
        assert sim.export_stacks() == expected

    def test_import_after_feed_drops_the_pending_chunk(self, rng):
        first = rng.integers(0, 200, size=3000)
        second = rng.integers(0, 200, size=3000)
        stacks = {1: [9, 1], 6: [14]}
        sim = StreamingStackDistance(8, 4)
        sim.feed(first)
        sim.import_stacks(stacks)
        assert sim.export_stacks() == stacks
        fresh = StreamingStackDistance(8, 4)
        fresh.import_stacks(stacks)
        assert np.array_equal(sim.feed(second), fresh.feed(second))


class TestChunkedCacheGrid:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("warmup", [0.0, 0.4])
    def test_matches_batch_grid(self, ultrix_trace, chunk, warmup):
        stream = ultrix_trace.ifetch_physical()
        capacities = [1024, 4096, 16384]
        lines = [4, 16]
        assocs = [1, 2, 4]
        batch = cache_miss_ratio_grid(
            stream, capacities, lines, assocs, warmup_fraction=warmup
        )
        chunked = cache_miss_ratio_grid_chunked(
            _chunked(stream, chunk),
            len(stream),
            capacities,
            lines,
            assocs,
            warmup_fraction=warmup,
        )
        assert chunked == batch

    def test_rejects_short_chunk_supply(self):
        with pytest.raises(ValueError, match="expected"):
            cache_miss_ratio_grid_chunked(
                iter([np.arange(10)]), 100, [1024], [4], [1]
            )


class TestStreamingWriteBuffer:
    @pytest.mark.parametrize("chunk", [7, 100, 999])
    def test_matches_batch(self, rng, chunk):
        gaps = rng.integers(1, 12, size=5_000)
        times = np.cumsum(gaps)
        count_from = 1_234
        batch = simulate_write_buffer(times, count_from=count_from)
        sim = StreamingWriteBuffer()
        consumed = 0
        for part in _chunked(times, chunk):
            sim.feed(part, count_from=max(count_from - consumed, 0))
            consumed += len(part)
        assert sim.result() == batch


class TestStreamingSystemTiming:
    @pytest.mark.parametrize("chunk", [4096, 7104])
    @pytest.mark.parametrize("warmup", [0.0, 0.4])
    def test_matches_batch(self, ultrix_trace, chunk, warmup):
        trace = ultrix_trace

        def chunks():
            for start in range(0, len(trace), chunk):
                stop = min(start + chunk, len(trace))
                yield {
                    "addresses": trace.addresses[start:stop],
                    "physical": trace.physical[start:stop],
                    "kinds": trace.kinds[start:stop],
                    "asids": trace.asids[start:stop],
                    "mapped": trace.mapped[start:stop],
                    "kernel": trace.kernel[start:stop],
                }

        batch = simulate_system(trace, DECSTATION_3100, warmup_fraction=warmup)
        streamed = simulate_system_stream(
            chunks(),
            len(trace),
            trace.other_cpi,
            DECSTATION_3100,
            warmup_fraction=warmup,
        )
        assert streamed == batch

    def test_one_chunk_matches_reference_kernels(self, ultrix_trace):
        """The attribution rebuilt from the interpreted per-structure
        kernels, over whole arrays, as the one-chunk pass must do it."""
        trace = ultrix_trace.slice(0, 30_000)
        config = DECSTATION_3100
        warm = int(len(trace) * 0.4)
        kinds = trace.kinds
        penalties = np.zeros(len(trace), dtype=np.int64)
        misses = {}
        caches = (
            ("icache", 0, config.icache_bytes, config.icache_line_words,
             config.icache_assoc),
            ("dcache", 1, config.dcache_bytes, config.dcache_line_words,
             config.dcache_assoc),
        )
        for name, kind, size, line_words, assoc in caches:
            idx = np.flatnonzero(kinds == kind)
            n_sets = size // (line_words * WORD_BYTES * assoc)
            ids = line_ids_for(trace.physical[idx], line_words)
            flags = miss_flags_lru_reference(ids, n_sets, assoc)
            penalties[idx[flags]] += config.cache_penalty(line_words)
            misses[name] = int(flags[idx >= warm].sum())
        mapped_idx = np.flatnonzero(trace.mapped)
        ids = (trace.asids[mapped_idx].astype(np.int64) << VPN_BITS) | (
            trace.addresses[mapped_idx] >> PAGE_SHIFT
        )
        t_miss = miss_flags_lru_reference(ids, 1, config.tlb_entries)
        kernel = trace.kernel[mapped_idx]
        penalties[mapped_idx] += t_miss * np.where(
            kernel, config.tlb_kernel_penalty, config.tlb_user_penalty
        )
        measured = mapped_idx >= warm
        completion = np.cumsum((kinds == 0).astype(np.int64) + penalties)
        store_idx = np.flatnonzero(kinds == 2)
        wb = simulate_write_buffer_reference(
            completion[store_idx],
            depth=config.wb_depth,
            retire_cycles=config.wb_retire_cycles,
            count_from=int((store_idx < warm).sum()),
        )
        result = simulate_system(trace, config, warmup_fraction=0.4)
        assert result.instructions == int((kinds[warm:] == 0).sum())
        assert result.icache_misses == misses["icache"]
        assert result.dcache_misses == misses["dcache"]
        assert result.tlb_kernel_misses == int((t_miss & kernel & measured).sum())
        assert result.tlb_user_misses == int((t_miss & ~kernel & measured).sum())
        assert result.wb_stall_cycles == wb.stall_cycles

    def test_rejects_short_chunk_supply(self, ultrix_trace):
        def one_chunk():
            yield {
                "addresses": ultrix_trace.addresses[:100],
                "physical": ultrix_trace.physical[:100],
                "kinds": ultrix_trace.kinds[:100],
                "asids": ultrix_trace.asids[:100],
                "mapped": ultrix_trace.mapped[:100],
                "kernel": ultrix_trace.kernel[:100],
            }

        with pytest.raises(ValueError, match="expected"):
            simulate_system_stream(
                one_chunk(), len(ultrix_trace), 0.0, DECSTATION_3100
            )
