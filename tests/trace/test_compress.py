"""Tests for format-3 compressed tracestore entries and compaction."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core.space import (
    TABLE5_CACHE_ASSOCS,
    TABLE5_CACHE_CAPACITIES,
    TABLE5_CACHE_LINES,
)
from repro.errors import ConfigError
from repro.memsim.multiconfig import cache_miss_ratio_grid_chunked
from repro.trace import tracestore
from repro.trace.generator import generate_trace

REPO_ROOT = Path(__file__).resolve().parents[2]

REFERENCES = 40_000

TRACE_FIELDS = ("addresses", "physical", "kinds", "asids", "mapped", "kernel")
ALL_FIELDS = TRACE_FIELDS + ("ifetch_physical", "load_physical")


@pytest.fixture
def plane(tmp_path, monkeypatch):
    """An empty, isolated trace cache with zlib compression on."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    monkeypatch.setenv("REPRO_TRACE_COMPRESS", "zlib")
    return tmp_path / "traces"


def _publish(workload: str, os_name: str, seed: int = 3):
    trace = generate_trace(workload, os_name, REFERENCES, seed=seed)
    key = tracestore.key_for(workload, os_name, REFERENCES, seed)
    path = tracestore.publish(trace, key)
    return trace, key, path


def _header(path) -> dict:
    return json.loads((path / tracestore.HEADER_NAME).read_text())


class TestFormat3Roundtrip:
    @pytest.mark.parametrize("codec", ["zlib", "lzma"])
    def test_every_field_bit_identical(self, plane, monkeypatch, codec):
        monkeypatch.setenv("REPRO_TRACE_COMPRESS", codec)
        trace, key, path = _publish("mpeg_play", "mach")
        header = _header(path)
        assert header["format"] == tracestore.STORE_FORMAT_COMPRESSED
        assert header["codec"] == codec
        loaded = tracestore.load(key)
        assert loaded is not None
        for name in TRACE_FIELDS:
            original = getattr(trace, name)
            restored = getattr(loaded, name)
            assert restored.dtype == original.dtype, name
            assert np.array_equal(restored, original), name
        assert np.array_equal(loaded.ifetch_physical(), trace.ifetch_physical())
        assert np.array_equal(loaded.load_physical(), trace.load_physical())
        assert loaded.page_faults == trace.page_faults
        assert loaded.other_cpi == trace.other_cpi

    def test_compressed_entry_is_smaller_than_raw(
        self, plane, tmp_path, monkeypatch
    ):
        _, key, path = _publish("mpeg_play", "mach")
        compressed = tracestore.entry_nbytes(path)
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "raw"))
        monkeypatch.delenv("REPRO_TRACE_COMPRESS")
        _, _, raw_path = _publish("mpeg_play", "mach")
        raw = tracestore.entry_nbytes(raw_path)
        assert compressed <= 0.6 * raw

    def test_windowed_reads_bit_identical(self, plane):
        trace, key, _ = _publish("mpeg_play", "ultrix")
        stream = tracestore.open_stream(key)
        assert stream.format == tracestore.STORE_FORMAT_COMPRESSED
        rng = np.random.default_rng(11)
        n = len(trace)
        for _ in range(40):
            start = int(rng.integers(0, n))
            stop = int(rng.integers(start, min(n, start + 5_000) + 1))
            assert np.array_equal(
                stream.read("addresses", start, stop),
                trace.addresses[start:stop],
            )
        # Windows that straddle block boundaries decode exactly.
        block = tracestore.compress_block_references()
        for start in (0, block - 1, block, block + 1, 2 * block - 7):
            stop = min(n, start + 3 * block // 2)
            assert np.array_equal(
                stream.read("physical", start, stop),
                trace.physical[start:stop],
            )

    def test_streamed_generation_matches_batch(self, plane, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_CHUNK", "4096")
        monkeypatch.setenv("REPRO_TRACE_COMPRESS_BLOCK", "1000")
        key = tracestore.key_for("mpeg_play", "mach", REFERENCES, seed=3)
        tracestore.generate_stream("mpeg_play", "mach", REFERENCES, seed=3)
        assert _header(tracestore.entry_path(key))["format"] == (
            tracestore.STORE_FORMAT_COMPRESSED
        )
        loaded = tracestore.load(key)
        expected = generate_trace("mpeg_play", "mach", REFERENCES, seed=3)
        for name in TRACE_FIELDS:
            assert np.array_equal(
                getattr(loaded, name), getattr(expected, name)
            ), name
        assert np.array_equal(
            loaded.ifetch_physical(), expected.ifetch_physical()
        )
        assert np.array_equal(
            loaded.load_physical(), expected.load_physical()
        )

    def test_mixed_cache_reads_are_format_driven(
        self, plane, monkeypatch
    ):
        # A raw entry published before compression was switched on must
        # keep serving (and vice versa): the knob only shapes writes.
        monkeypatch.setenv("REPRO_TRACE_COMPRESS", "off")
        trace, key, path = _publish("mpeg_play", "mach")
        assert _header(path)["format"] == tracestore.STORE_FORMAT
        monkeypatch.setenv("REPRO_TRACE_COMPRESS", "zlib")
        loaded = tracestore.load(key)
        assert np.array_equal(loaded.addresses, trace.addresses)

    def test_table5_grid_differential(self, plane, tmp_path, monkeypatch):
        """The full Table-5 grid is bit-identical from either format."""
        _, key, _ = _publish("mpeg_play", "mach")
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "raw"))
        monkeypatch.delenv("REPRO_TRACE_COMPRESS")
        _publish("mpeg_play", "mach")

        def grid_from_plane():
            stream = tracestore.open_stream(key)
            count = stream.count("ifetch_physical")
            step = 4_096
            chunks = (
                stream.read("ifetch_physical", s, min(s + step, count))
                for s in range(0, count, step)
            )
            return cache_miss_ratio_grid_chunked(
                chunks,
                count,
                list(TABLE5_CACHE_CAPACITIES),
                list(TABLE5_CACHE_LINES),
                list(TABLE5_CACHE_ASSOCS),
            )

        raw_grid = grid_from_plane()
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(plane))
        monkeypatch.setenv("REPRO_TRACE_COMPRESS", "zlib")
        assert grid_from_plane() == raw_grid


class TestCrashSafety:
    """A compressing writer killed mid-entry never publishes."""

    def _kill_compressing_writer(self, key) -> None:
        # Small blocks so several compressed blocks hit the disk before
        # the SIGKILL lands — the torn state is mid-entry, pre-header.
        script = textwrap.dedent(
            f"""
            import os, signal, sys
            import numpy as np
            sys.path.insert(0, {str(REPO_ROOT / "src")!r})
            os.environ["REPRO_TRACE_COMPRESS"] = "zlib"
            os.environ["REPRO_TRACE_COMPRESS_BLOCK"] = "64"
            from repro.trace import tracestore

            key = tracestore.key_for(
                {key.workload!r}, {key.os_name!r}, {key.references}, {key.seed}
            )
            writer = tracestore.StreamingTraceWriter(
                tracestore.entry_path(key), key, 64
            )
            for _ in range(3):
                writer.append_virtual(
                    np.zeros(64, dtype=np.int64),
                    np.zeros(64, dtype=np.uint8),
                    np.zeros(64, dtype=np.uint8),
                    np.zeros(64, dtype=bool),
                    np.zeros(64, dtype=bool),
                )
            writer.flush()
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ),
            cwd=REPO_ROOT,
        )
        assert result.returncode == -signal.SIGKILL

    def test_incomplete_compressed_entry_regenerated(self, plane):
        key = tracestore.key_for("mpeg_play", "mach", REFERENCES, seed=3)
        self._kill_compressing_writer(key)
        path = tracestore.entry_path(key)
        assert path.is_dir()
        assert not (path / tracestore.HEADER_NAME).exists()
        assert not tracestore.has(key)
        assert tracestore.open_stream(key) is None
        assert not path.exists()

        self._kill_compressing_writer(key)
        recovered = tracestore.get_trace(
            "mpeg_play", "mach", REFERENCES, seed=3
        )
        expected = generate_trace("mpeg_play", "mach", REFERENCES, seed=3)
        for name in TRACE_FIELDS:
            assert np.array_equal(
                getattr(recovered, name), getattr(expected, name)
            ), name
        assert _header(tracestore.entry_path(key))["format"] == (
            tracestore.STORE_FORMAT_COMPRESSED
        )


class TestCompaction:
    def test_recompresses_cold_raw_entries(self, plane, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_COMPRESS", "off")
        trace, key, path = _publish("mpeg_play", "mach")
        os.utime(path, ns=(10, 10))
        before = tracestore.entry_nbytes(path)
        report = tracestore.compact(hot=0, codec="zlib")
        assert report["compacted"] == 1
        assert report["bytes_after"] < report["bytes_before"] == before
        assert _header(path)["format"] == tracestore.STORE_FORMAT_COMPRESSED
        # LRU stamp survives the swap, so compaction never reorders
        # eviction.
        assert path.stat().st_mtime_ns == 10
        loaded = tracestore.load(key)
        for name in TRACE_FIELDS:
            assert np.array_equal(
                getattr(loaded, name), getattr(trace, name)
            ), name

    def test_hot_entries_are_skipped(self, plane, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_COMPRESS", "off")
        _, _, path = _publish("mpeg_play", "mach")
        report = tracestore.compact(hot=1, codec="zlib")
        assert report["compacted"] == 0
        assert report["hot"] == 1
        assert _header(path)["format"] == tracestore.STORE_FORMAT

    def test_already_compacted_entries_are_skipped(self, plane):
        _, _, path = _publish("mpeg_play", "mach")
        os.utime(path, ns=(10, 10))
        report = tracestore.compact(hot=0, codec="zlib")
        assert report["compacted"] == 0
        assert report["skipped"] == 1

    def test_concurrent_reader_survives_the_swap(self, plane, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_COMPRESS", "off")
        trace, key, path = _publish("mpeg_play", "ultrix")
        os.utime(path, ns=(10, 10))
        stream = tracestore.open_stream(key)
        assert np.array_equal(
            stream.read("addresses", 0, 100), trace.addresses[:100]
        )
        assert tracestore.compact(hot=0, codec="zlib")["compacted"] == 1
        # The pre-swap reader holds the old inode: reads stay correct.
        assert np.array_equal(
            stream.read("addresses", 5_000, 6_000),
            trace.addresses[5_000:6_000],
        )
        # A fresh reader sees the compressed replacement, bit-identical.
        fresh = tracestore.open_stream(key)
        assert fresh.format == tracestore.STORE_FORMAT_COMPRESSED
        assert np.array_equal(
            fresh.read("addresses", 5_000, 6_000),
            trace.addresses[5_000:6_000],
        )

    def test_headerless_entries_are_evicted(self, plane):
        _, _, path = _publish("mpeg_play", "mach")
        (path / tracestore.HEADER_NAME).unlink()
        report = tracestore.compact(hot=0)
        assert report["evicted"] == 1
        assert not path.exists()

    def test_disabled_plane_rejected(self, plane, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        with pytest.raises(ConfigError, match="REPRO_TRACE_CACHE"):
            tracestore.compact()

    def test_cli_compact_reports_json(self, plane, capsys):
        _, _, path = _publish("mpeg_play", "mach")
        assert tracestore._main(["compact", "--hot", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["entries"] == 1


class TestKnobs:
    def test_bad_codec_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_COMPRESS", "brotli")
        with pytest.raises(ConfigError, match="REPRO_TRACE_COMPRESS"):
            tracestore.compress_codec()

    def test_off_values_disable(self, monkeypatch):
        for value in ("", "off", "0", "none"):
            monkeypatch.setenv("REPRO_TRACE_COMPRESS", value)
            assert tracestore.compress_codec() is None

    def test_bad_level_rejected(self, monkeypatch):
        for bad in ("fast", "-1", "10"):
            monkeypatch.setenv("REPRO_TRACE_COMPRESS_LEVEL", bad)
            with pytest.raises(
                ConfigError, match="REPRO_TRACE_COMPRESS_LEVEL"
            ):
                tracestore.compress_level()
        monkeypatch.setenv("REPRO_TRACE_COMPRESS_LEVEL", "6")
        assert tracestore.compress_level() == 6

    def test_bad_block_rejected(self, monkeypatch):
        for bad in ("many", "0", "-5"):
            monkeypatch.setenv("REPRO_TRACE_COMPRESS_BLOCK", bad)
            with pytest.raises(
                ConfigError, match="REPRO_TRACE_COMPRESS_BLOCK"
            ):
                tracestore.compress_block_references()
        monkeypatch.setenv("REPRO_TRACE_COMPRESS_BLOCK", "512")
        assert tracestore.compress_block_references() == 512


class TestMetrics:
    def test_plane_counters_track_hits_and_generations(self, plane):
        def total(name):
            current = tracestore.METRICS.snapshot()["counters"]
            return current.get(name, {}).get("total", 0)

        hits0 = total("trace_plane_hits")
        gens0 = total("trace_plane_generations")
        tracestore.get_trace("mpeg_play", "mach", REFERENCES, seed=3)
        assert total("trace_plane_generations") == gens0 + 1
        tracestore.get_trace("mpeg_play", "mach", REFERENCES, seed=3)
        assert total("trace_plane_hits") == hits0 + 1

    def test_compaction_counter(self, plane, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_COMPRESS", "off")
        _, _, path = _publish("mpeg_play", "mach")
        os.utime(path, ns=(10, 10))

        def total():
            counters = tracestore.METRICS.snapshot()["counters"]
            return counters.get("trace_plane_compactions", {}).get("total", 0)

        before = total()
        tracestore.compact(hot=0, codec="zlib")
        assert total() == before + 1
