"""A pair's curves must not depend on how its trace is chunked.

A pair is measured in one pass: one chunk loop feeds every I- and
D-cache grid, the TLB table and the timing pass, and a materialized
trace is a single chunk.  These tests compare whole-pair curves at
stream chunk sizes that hold the whole trace, divide it, and do not
divide it, under every tracestore codec, against the trace measured in
memory as one chunk; check that a streamed pair opens its entry once
and reads each column once; and pin the warm boundary each kind's
stream is measured from.
"""

from __future__ import annotations

import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import measure
from repro.memsim.multiconfig import (
    StreamingCacheGrid,
    cache_miss_ratio_grid_reference,
)
from repro.memsim.types import AccessKind
from repro.trace import tracestore
from repro.trace.generator import generate_trace

REFS = 40_000
SEED = 1
PAIR = ("mpeg_play", "mach")

CAPS = (4096, 16384)
LINES = (4, 16)
ASSOCS = (1, 2)
GRID = dict(
    capacities=CAPS,
    lines=LINES,
    assocs=ASSOCS,
    tlb_entries=(16, 64),
    tlb_assocs=(1, 2),
    tlb_full_max=64,
    references=REFS,
    seed=SEED,
    use_cache=False,
    jobs=1,
)

# Multiples of 64: at least the trace length (one chunk), a divisor of
# REFS, and a size that leaves a ragged last chunk.
CHUNKS = (40_064, 8_000, 4_096)
CODECS = ("raw", "zlib", "lzma")


def _measure():
    measure._worker_traces.clear()
    return measure.measure_workload(*PAIR, **GRID)


def _use_codec(patch, codec: str) -> None:
    if codec != "raw":
        patch.setenv("REPRO_TRACE_COMPRESS", codec)
        # Blocks that straddle chunk boundaries.
        patch.setenv("REPRO_TRACE_COMPRESS_BLOCK", "6000")


@pytest.fixture
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    measure._worker_traces.clear()
    yield
    measure._worker_traces.clear()


@pytest.fixture(scope="module")
def one_chunk_curves():
    """The pair's curves over the trace generated in memory (plane off)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_TRACE_CACHE", "off")
        try:
            yield _measure()
        finally:
            measure._worker_traces.clear()


class TestStreamingUnits:
    def test_streaming_dispatch_threshold(self, isolated, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_CHUNK", "4096")
        assert measure._use_streaming(REFS)
        monkeypatch.setenv("REPRO_STREAM_CHUNK", str(1 << 30))
        assert not measure._use_streaming(REFS)
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        monkeypatch.setenv("REPRO_STREAM_CHUNK", "4096")
        assert not measure._use_streaming(REFS)

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_every_unit_bit_identical(
        self, isolated, monkeypatch, one_chunk_curves, chunk, codec
    ):
        monkeypatch.setenv("REPRO_STREAM_CHUNK", str(chunk))
        _use_codec(monkeypatch, codec)
        streamed = _measure()
        assert measure._use_streaming(REFS) == (chunk < REFS)
        entry = tracestore.stream(*PAIR, REFS, seed=SEED)
        assert entry.codec == (None if codec == "raw" else codec)
        assert entry.chunk_references == chunk
        assert streamed == one_chunk_curves

    def test_lowered_chunk_applies_to_published_entry(
        self, isolated, monkeypatch, one_chunk_curves
    ):
        """An entry written in one large chunk is read in the current,
        smaller chunk, with unchanged results."""
        monkeypatch.setenv("REPRO_STREAM_CHUNK", str(1 << 30))
        assert tracestore.generate_stream(*PAIR, REFS, seed=SEED) is not None
        monkeypatch.setenv("REPRO_STREAM_CHUNK", "4096")
        entry = tracestore.stream(*PAIR, REFS, seed=SEED)
        assert entry.chunk_references == 1 << 30
        windows = []
        chunks = tracestore.TraceStream.chunks

        def spy(stream, fields, chunk_references=None):
            for start, stop, arrays in chunks(stream, fields, chunk_references):
                windows.append(stop - start)
                yield start, stop, arrays

        monkeypatch.setattr(tracestore.TraceStream, "chunks", spy)
        assert _measure() == one_chunk_curves
        assert windows and max(windows) == 4096

    def test_measure_workload_bit_identical(self, isolated, tmp_path, monkeypatch):
        kwargs = {**GRID, "use_cache": True}
        monkeypatch.setenv("REPRO_STREAM_CHUNK", str(1 << 30))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-batch"))
        whole = measure.measure_workload(*PAIR, **kwargs)
        measure._worker_traces.clear()
        monkeypatch.setenv("REPRO_STREAM_CHUNK", "4096")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-stream"))
        # A fresh plane, so the entry is written (and read) in 4096s.
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces-stream"))
        streamed = measure.measure_workload(*PAIR, **kwargs)
        assert whole == streamed


class TestOnePassPerPair:
    @pytest.mark.parametrize("codec", CODECS)
    def test_one_open_and_one_read_per_column(
        self, isolated, monkeypatch, one_chunk_curves, codec
    ):
        monkeypatch.setenv("REPRO_STREAM_CHUNK", "4096")
        _use_codec(monkeypatch, codec)
        reads = Counter()
        read = tracestore.TraceStream.read

        def spy(stream, field, start=0, stop=None):
            reads[(field, start, stop)] += 1
            return read(stream, field, start, stop)

        monkeypatch.setattr(tracestore.TraceStream, "read", spy)
        hits = tracestore.METRICS.counter("trace_plane_hits")
        before = hits.total
        assert _measure() == one_chunk_curves
        assert hits.total - before == 1
        length = len(tracestore.stream(*PAIR, REFS, seed=SEED))
        windows = [
            (start, min(start + 4096, length)) for start in range(0, length, 4096)
        ]
        for field in tracestore.REFERENCE_FIELDS:
            counts = [reads.pop((field, *window), 0) for window in windows]
            limit = 2 if field == "kinds" else 1
            assert 1 <= min(counts) and max(counts) <= limit, (field, counts)
        assert not reads


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    chunk=st.integers(1, REFS // 64 + 1).map(lambda k: 64 * k),
    codec=st.sampled_from(CODECS),
)
def test_fuzzed_chunking_is_invisible(one_chunk_curves, chunk, codec):
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_TRACE_CACHE", f"{root}/traces")
        patch.setenv("REPRO_CACHE_DIR", f"{root}/cache")
        patch.setenv("REPRO_STREAM_CHUNK", str(chunk))
        _use_codec(patch, codec)
        try:
            assert _measure() == one_chunk_curves
        finally:
            measure._worker_traces.clear()


# mpeg_play/mach, 20,000 references, seed 1 (found by scanning the
# workloads at 20k-40k references and seeds 1-3): the warm window holds
# s = 7,268 of the trace's n = 18,448 instruction fetches, and
# int(n * (s / n)) is 7,267.
BOUNDARY_REFS = 20_000
BOUNDARY_N, BOUNDARY_S = 18_448, 7_268


class TestKindStreamWarmBoundary:
    """Each kind's grid starts counting at ``int(n * (s / n))``.

    That is the boundary the grid over one kind's stream takes from the
    fraction ``s / n`` of its references that fall in the trace's warm
    window.  For some (s, n) it is one reference short of ``s``; moving
    it to ``s`` would change the measured curves.
    """

    def test_grids_match_the_stream_fraction(self, isolated):
        pair = ("mpeg_play", "mach")
        curves = measure.measure_workload(
            *pair, **{**GRID, "references": BOUNDARY_REFS}
        )
        trace = generate_trace(*pair, BOUNDARY_REFS, seed=SEED)
        warm = int(len(trace) * measure.DEFAULT_WARMUP)
        for kind, stream, measured in (
            (AccessKind.IFETCH, trace.ifetch_physical(), curves.icache),
            (AccessKind.LOAD, trace.load_physical(), curves.dcache),
        ):
            n = len(stream)
            s = int(np.count_nonzero(trace.kinds[:warm] == kind))
            expected = cache_miss_ratio_grid_reference(
                stream, list(CAPS), list(LINES), list(ASSOCS), warmup_fraction=s / n
            )
            assert measured == expected, kind

        n, s = len(trace.ifetch_physical()), BOUNDARY_S
        assert (n, int(np.count_nonzero(trace.kinds[:warm] == 0))) == (
            BOUNDARY_N,
            BOUNDARY_S,
        )
        assert int(n * (s / n)) == s - 1
        exact = StreamingCacheGrid(CAPS, LINES, ASSOCS, warm=s)
        exact.feed(trace.ifetch_physical())
        assert exact.result() != curves.icache
