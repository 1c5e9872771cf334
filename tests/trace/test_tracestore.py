"""Tests for the chunk-streaming trace plane (repro.trace.tracestore)."""

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

from repro.errors import ConfigError, TraceError
from repro.trace import generator, tracestore
from repro.trace.generator import generate_trace

REPO_ROOT = Path(__file__).resolve().parents[2]

REFERENCES = 40_000

TRACE_FIELDS = ("addresses", "physical", "kinds", "asids", "mapped", "kernel")


@pytest.fixture
def plane(tmp_path, monkeypatch):
    """An empty, isolated trace cache for one test."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    return tmp_path / "traces"


def _publish(workload: str, os_name: str, seed: int = 3):
    trace = generate_trace(workload, os_name, REFERENCES, seed=seed)
    key = tracestore.key_for(workload, os_name, REFERENCES, seed)
    path = tracestore.publish(trace, key)
    return trace, key, path


class TestRoundtrip:
    @pytest.mark.parametrize(
        "workload,os_name",
        [
            ("mpeg_play", "ultrix"),
            ("mpeg_play", "mach"),
            ("IOzone", "ultrix"),
            ("IOzone", "mach"),
        ],
    )
    def test_every_field_bit_identical(self, plane, workload, os_name):
        trace, key, _ = _publish(workload, os_name)
        loaded = tracestore.load(key)
        assert loaded is not None
        for name in TRACE_FIELDS:
            original = getattr(trace, name)
            restored = getattr(loaded, name)
            assert restored.dtype == original.dtype, name
            assert np.array_equal(restored, original), name
        assert loaded.page_faults == trace.page_faults
        assert loaded.other_cpi == trace.other_cpi
        assert loaded.workload == trace.workload
        assert loaded.os_name == trace.os_name
        # Derived streams come back bit-identical too, pre-seeded so
        # they are never recomputed per measurement unit.
        assert np.array_equal(loaded.ifetch_physical(), trace.ifetch_physical())
        assert np.array_equal(loaded.load_physical(), trace.load_physical())
        assert loaded.ifetch_physical() is loaded._derived["ifetch_physical"]

    def test_loaded_arrays_are_memmaps(self, plane):
        _, key, _ = _publish("jpeg_play", "mach")
        loaded = tracestore.load(key)
        for name in TRACE_FIELDS:
            assert isinstance(getattr(loaded, name), np.memmap), name
        assert isinstance(loaded.ifetch_physical(), np.memmap)

    def test_missing_key_is_a_miss(self, plane):
        key = tracestore.key_for("mab", "ultrix", REFERENCES, seed=99)
        assert tracestore.load(key) is None


class TestDerivedStreamCache:
    def test_streams_materialize_once_per_trace(self):
        trace = generate_trace("mab", "mach", 10_000, seed=2)
        first = trace.ifetch_physical()
        assert trace.ifetch_physical() is first
        assert trace.load_physical() is trace.load_physical()

    def test_slice_does_not_share_the_cache(self):
        trace = generate_trace("mab", "mach", 10_000, seed=2)
        trace.ifetch_physical()
        sliced = trace.slice(0, 100)
        assert "ifetch_physical" not in sliced._derived


class TestCorruptionFallback:
    """Torn or corrupt entries must fall back to regeneration."""

    @pytest.mark.parametrize("keep_fraction", [0.0, 0.3, 0.9])
    def test_truncated_field_file_is_evicted(self, plane, keep_fraction):
        _, key, path = _publish("mpeg_play", "mach")
        blob = (path / "addresses.bin").read_bytes()
        (path / "addresses.bin").write_bytes(
            blob[: int(len(blob) * keep_fraction)]
        )
        assert tracestore.load(key) is None
        assert not path.exists()

    def test_truncated_entry_regenerates_and_republishes(self, plane):
        trace, key, path = _publish("mpeg_play", "mach")
        blob = (path / "physical.bin").read_bytes()
        (path / "physical.bin").write_bytes(blob[: len(blob) // 2])
        recovered = tracestore.get_trace("mpeg_play", "mach", REFERENCES, seed=3)
        assert np.array_equal(recovered.addresses, trace.addresses)
        # The entry was re-published and now loads cleanly again.
        assert path.exists()
        assert tracestore.load(key) is not None

    def test_missing_header_is_an_incomplete_entry(self, plane):
        _, key, path = _publish("IOzone", "ultrix")
        (path / tracestore.HEADER_NAME).unlink()
        assert tracestore.load(key) is None
        assert not path.exists()

    def test_garbage_header_is_evicted(self, plane):
        _, key, path = _publish("IOzone", "ultrix")
        (path / tracestore.HEADER_NAME).write_bytes(b"not json" * 8)
        assert tracestore.load(key) is None
        assert not path.exists()

    def test_foreign_magic_is_evicted(self, plane):
        _, key, path = _publish("IOzone", "ultrix")
        header = path / tracestore.HEADER_NAME
        header.write_text(
            header.read_text().replace("repro-tracestore", "other-tracestore")
        )
        assert tracestore.load(key) is None
        assert not path.exists()

    def test_stale_format_is_evicted(self, plane):
        _, key, path = _publish("IOzone", "mach")
        header = path / tracestore.HEADER_NAME
        blob = json.loads(header.read_text())
        blob["format"] = tracestore.STORE_FORMAT + 1
        header.write_text(json.dumps(blob))
        assert tracestore.load(key) is None
        assert not path.exists()

    def test_short_array_extent_never_served(self, plane):
        # Chop off exactly the last chunk of the derived stream: the
        # header still parses, but the data file is short — must be a
        # miss, never a short trace.
        trace, key, path = _publish("mpeg_play", "ultrix")
        blob = (path / "load_physical.bin").read_bytes()
        (path / "load_physical.bin").write_bytes(blob[:-8])
        assert tracestore.load(key) is None

    def test_publish_leaves_no_temp_entries(self, plane):
        _, _, path = _publish("mab", "mach")
        leftovers = [
            p for p in path.parent.iterdir() if p.name.startswith(".")
        ]
        assert leftovers == []


class TestCrashSafety:
    """A writer killed mid-append must never publish a readable entry."""

    def _kill_writer_mid_append(self, plane, key) -> None:
        # The child builds the entry *at its final path* (no temp-dir
        # rename to save it) and SIGKILLs itself between appends, i.e.
        # before the header.json commit record exists.
        script = textwrap.dedent(
            f"""
            import os, signal, sys
            import numpy as np
            sys.path.insert(0, {str(REPO_ROOT / "src")!r})
            from repro.trace import tracestore

            key = tracestore.key_for(
                {key.workload!r}, {key.os_name!r}, {key.references}, {key.seed}
            )
            writer = tracestore.StreamingTraceWriter(
                tracestore.entry_path(key), key, 64
            )
            chunk = 64
            for _ in range(3):
                writer.append_virtual(
                    np.zeros(chunk, dtype=np.int64),
                    np.zeros(chunk, dtype=np.uint8),
                    np.zeros(chunk, dtype=np.uint8),
                    np.zeros(chunk, dtype=bool),
                    np.zeros(chunk, dtype=bool),
                )
            writer.flush()
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        env = dict(os.environ)
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, cwd=REPO_ROOT
        )
        assert result.returncode == -signal.SIGKILL

    def test_incomplete_entry_detected_and_regenerated(self, plane):
        key = tracestore.key_for("mpeg_play", "mach", REFERENCES, seed=3)
        self._kill_writer_mid_append(plane, key)
        path = tracestore.entry_path(key)
        # The torn directory exists but has no commit record...
        assert path.is_dir()
        assert not (path / tracestore.HEADER_NAME).exists()
        # ...so every reader treats it as a miss and evicts it.
        assert not tracestore.has(key)
        assert tracestore.open_stream(key) is None
        assert not path.exists()

        # The high-level path regenerates and republishes cleanly.
        self._kill_writer_mid_append(plane, key)
        recovered = tracestore.get_trace("mpeg_play", "mach", REFERENCES, seed=3)
        expected = generate_trace("mpeg_play", "mach", REFERENCES, seed=3)
        assert np.array_equal(recovered.addresses, expected.addresses)
        assert tracestore.load(key) is not None


class TestStreaming:
    def test_generate_stream_matches_batch_generation(self, plane, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_CHUNK", "4096")
        key = tracestore.key_for("mpeg_play", "mach", REFERENCES, seed=3)
        assert tracestore.generate_stream(
            "mpeg_play", "mach", REFERENCES, seed=3
        ) == tracestore.entry_path(key)
        loaded = tracestore.load(key)
        expected = generate_trace("mpeg_play", "mach", REFERENCES, seed=3)
        for name in TRACE_FIELDS:
            assert np.array_equal(getattr(loaded, name), getattr(expected, name)), name
        assert np.array_equal(loaded.ifetch_physical(), expected.ifetch_physical())
        assert np.array_equal(loaded.load_physical(), expected.load_physical())
        assert loaded.page_faults == expected.page_faults
        assert loaded.other_cpi == expected.other_cpi

    def test_stream_reader_windows_and_chunks(self, plane, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_CHUNK", "4096")
        trace, key, _ = _publish("mpeg_play", "ultrix")
        stream = tracestore.open_stream(key)
        assert stream is not None
        assert len(stream) == len(trace)
        assert stream.count("ifetch_physical") == len(trace.ifetch_physical())
        assert np.array_equal(
            stream.read("addresses", 100, 300), trace.addresses[100:300]
        )
        # Chunk iteration covers the trace exactly once, in order.
        covered = []
        for start, stop, fields in stream.chunks(("addresses", "kinds")):
            covered.append((start, stop))
            assert np.array_equal(fields["addresses"], trace.addresses[start:stop])
            assert np.array_equal(fields["kinds"], trace.kinds[start:stop])
        assert covered[0][0] == 0
        assert covered[-1][1] == len(trace)
        assert all(a[1] == b[0] for a, b in zip(covered, covered[1:]))

    def test_window_trace_matches_slice(self, plane):
        trace, key, _ = _publish("IOzone", "mach")
        stream = tracestore.open_stream(key)
        window = stream.window_trace(1_000, 3_000)
        sliced = trace.slice(1_000, 3_000)
        for name in TRACE_FIELDS:
            assert np.array_equal(getattr(window, name), getattr(sliced, name)), name
        assert np.array_equal(window.ifetch_physical(), sliced.ifetch_physical())

    def test_stream_requires_the_plane(self, plane, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        with pytest.raises(TraceError, match="REPRO_TRACE_CACHE"):
            tracestore.stream("mab", "ultrix", 10_000, seed=5)

    def test_stream_generates_on_miss(self, plane, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_CHUNK", "4096")
        stream = tracestore.stream("mpeg_play", "mach", REFERENCES, seed=3)
        expected = generate_trace("mpeg_play", "mach", REFERENCES, seed=3)
        assert stream.references == len(expected)
        assert np.array_equal(stream.read("physical"), expected.physical)

    def test_get_trace_streams_large_misses(self, plane, monkeypatch):
        # A miss longer than one chunk is generated chunk-streaming and
        # served as a memmap of the published entry.
        monkeypatch.setenv("REPRO_STREAM_CHUNK", "4096")
        trace = tracestore.get_trace("mpeg_play", "mach", REFERENCES, seed=3)
        assert isinstance(trace.addresses, np.memmap)
        expected = generate_trace("mpeg_play", "mach", REFERENCES, seed=3)
        assert np.array_equal(trace.addresses, expected.addresses)

    def test_writer_rejects_unbalanced_finalize(self, plane, tmp_path):
        key = tracestore.key_for("mab", "mach", 128, seed=1)
        writer = tracestore.StreamingTraceWriter(tmp_path / "w.trace", key, 64)
        writer.append_virtual(
            np.zeros(64, dtype=np.int64),
            np.zeros(64, dtype=np.uint8),
            np.zeros(64, dtype=np.uint8),
            np.zeros(64, dtype=bool),
            np.zeros(64, dtype=bool),
        )
        # No physical appends: reference-field counts disagree.
        with pytest.raises(TraceError, match="unbalanced"):
            writer.finalize()
        writer.close()


class TestKeying:
    def test_generator_version_invalidates_cache(self, plane, monkeypatch):
        _, key, _ = _publish("mpeg_play", "mach")
        assert tracestore.load(key) is not None
        monkeypatch.setattr(
            generator,
            "TRACE_FORMAT_VERSION",
            generator.TRACE_FORMAT_VERSION + 1,
        )
        bumped = tracestore.key_for("mpeg_play", "mach", REFERENCES, seed=3)
        assert bumped != key
        assert tracestore.load(bumped) is None

    def test_scale_is_part_of_the_key(self, plane, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "1.0")
        base = tracestore.key_for("mpeg_play", "mach", REFERENCES, seed=3)
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert tracestore.key_for("mpeg_play", "mach", REFERENCES, seed=3) != base

    def test_key_mismatch_under_hash_collision_is_a_miss(self, plane):
        # Rename an entry onto another key's path: the embedded key no
        # longer matches, so the load must refuse to serve it.
        _, key_a, path_a = _publish("mpeg_play", "mach", seed=3)
        key_b = tracestore.key_for("IOzone", "ultrix", REFERENCES, seed=4)
        target = tracestore.entry_path(key_b)
        os.replace(path_a, target)
        assert tracestore.load(key_b) is None


class TestConfig:
    def test_disabled_plane_generates_without_writing(self, plane, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        assert not tracestore.enabled()
        trace = tracestore.get_trace("mab", "ultrix", 10_000, seed=5)
        assert len(trace) >= 10_000
        assert not plane.exists()

    def test_default_directory(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        assert tracestore.trace_cache_dir() is not None
        assert tracestore.trace_cache_dir().name == ".repro-trace-cache"

    def test_bad_max_entries_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_MAX", "many")
        with pytest.raises(ConfigError, match="REPRO_TRACE_CACHE_MAX"):
            tracestore.max_entries()
        monkeypatch.setenv("REPRO_TRACE_CACHE_MAX", "0")
        with pytest.raises(ConfigError, match="REPRO_TRACE_CACHE_MAX"):
            tracestore.max_entries()

    def test_bad_stream_chunk_rejected(self, monkeypatch):
        for bad in ("soon", "0", "-64", "100"):
            monkeypatch.setenv("REPRO_STREAM_CHUNK", bad)
            with pytest.raises(ConfigError, match="REPRO_STREAM_CHUNK"):
                tracestore.stream_chunk_references()
        monkeypatch.setenv("REPRO_STREAM_CHUNK", "128")
        assert tracestore.stream_chunk_references() == 128

    def test_prune_drops_oldest_beyond_cap(self, plane, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_MAX", "2")
        _, key_old, path_old = _publish("mpeg_play", "mach", seed=1)
        os.utime(path_old, ns=(1, 1))  # unambiguously the oldest
        _, key_mid, path_mid = _publish("mpeg_play", "mach", seed=2)
        os.utime(path_mid, ns=(2, 2))
        _, key_new, path_new = _publish("mpeg_play", "mach", seed=3)
        assert not path_old.exists()
        assert path_mid.exists() and path_new.exists()
        assert tracestore.load(key_old) is None
        assert tracestore.load(key_new) is not None

    def test_prune_is_lru_not_publish_order(self, plane, monkeypatch):
        # Regression: REPRO_TRACE_CACHE_MAX used to evict by *publish*
        # time because loads never refreshed the entry mtime, so the
        # hottest trace could be the first one dropped.
        monkeypatch.setenv("REPRO_TRACE_CACHE_MAX", "2")
        _, key_a, path_a = _publish("mpeg_play", "mach", seed=1)
        os.utime(path_a, ns=(1, 1))
        _, key_b, path_b = _publish("mpeg_play", "mach", seed=2)
        os.utime(path_b, ns=(2, 2))
        # A is oldest by publish order, but gets *used* now.
        assert tracestore.load(key_a) is not None
        _, key_c, path_c = _publish("mpeg_play", "mach", seed=3)
        # The untouched middle entry is evicted; the recently-used
        # oldest-published one survives.
        assert path_a.exists()
        assert not path_b.exists()
        assert path_c.exists()

    def test_open_stream_also_refreshes_lru(self, plane, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_MAX", "2")
        _, key_a, path_a = _publish("mpeg_play", "mach", seed=1)
        os.utime(path_a, ns=(1, 1))
        _, key_b, path_b = _publish("mpeg_play", "mach", seed=2)
        os.utime(path_b, ns=(2, 2))
        assert tracestore.open_stream(key_a) is not None
        _, key_c, path_c = _publish("mpeg_play", "mach", seed=3)
        assert path_a.exists()
        assert not path_b.exists()
        assert path_c.exists()
