"""Measurement units must not depend on how the trace is chunked.

Every unit reads its trace through one set of chunked kernels; a
materialized trace is a single chunk.  These tests compare each unit's
output — and a whole ``measure_workload`` — at stream chunk sizes that
hold the whole trace, divide it, and do not divide it, under every
tracestore codec, against the trace measured in memory as one chunk.
"""

from __future__ import annotations

import pytest

from repro.core import measure
from repro.trace import tracestore

REFS = 40_000
SEED = 1
PAIR = ("mpeg_play", "mach")

CAPS = (4096, 16384)
LINES = (4, 16)
ASSOCS = (1, 2)
TLB_ENTRIES = (16, 64)
TLB_ASSOCS = (1, 2)
TLB_FULL_MAX = 64

# Multiples of 64: at least the trace length (one chunk), a divisor of
# REFS, and a size that leaves a ragged last chunk.
CHUNKS = (40_064, 8_000, 4_096)
CODECS = ("raw", "zlib", "lzma")


@pytest.fixture
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    measure._worker_traces.clear()
    yield
    measure._worker_traces.clear()


def _unit_specs():
    common = (*PAIR, REFS, SEED, 0.4)
    specs = []
    for lw in LINES:
        specs.append(("icache", *common, (CAPS, lw, ASSOCS)))
        specs.append(("dcache", *common, (CAPS, lw, ASSOCS)))
    specs.append(("tlb", *common, (TLB_ENTRIES, TLB_ASSOCS, TLB_FULL_MAX)))
    specs.append(("timing", *common, None))
    return specs


@pytest.fixture(scope="module")
def one_chunk_outputs():
    """Every unit over the trace generated in memory (plane off)."""
    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_TRACE_CACHE", "off")
    measure._worker_traces.clear()
    try:
        yield [measure._measure_unit(s) for s in _unit_specs()]
    finally:
        patch.undo()
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
        self, isolated, monkeypatch, one_chunk_outputs, chunk, codec
    ):
        monkeypatch.setenv("REPRO_STREAM_CHUNK", str(chunk))
        if codec != "raw":
            monkeypatch.setenv("REPRO_TRACE_COMPRESS", codec)
            # Blocks that straddle chunk boundaries.
            monkeypatch.setenv("REPRO_TRACE_COMPRESS_BLOCK", "6000")
        streamed = [measure._measure_unit(s) for s in _unit_specs()]
        assert measure._use_streaming(REFS) == (chunk < REFS)
        entry = tracestore.stream(*PAIR, REFS, seed=SEED)
        assert entry.codec == (None if codec == "raw" else codec)
        assert entry.chunk_references == chunk
        for spec, want, got in zip(_unit_specs(), one_chunk_outputs, streamed):
            assert got == want, spec[0]

    def test_lowered_chunk_applies_to_published_entry(
        self, isolated, monkeypatch, one_chunk_outputs
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
        streamed = [measure._measure_unit(s) for s in _unit_specs()]
        assert windows and max(windows) == 4096
        for spec, want, got in zip(_unit_specs(), one_chunk_outputs, streamed):
            assert got == want, spec[0]

    def test_measure_workload_bit_identical(self, isolated, tmp_path, monkeypatch):
        kwargs = dict(
            capacities=CAPS,
            lines=LINES,
            assocs=ASSOCS,
            tlb_entries=TLB_ENTRIES,
            tlb_assocs=TLB_ASSOCS,
            tlb_full_max=TLB_FULL_MAX,
            references=REFS,
            seed=SEED,
        )
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
