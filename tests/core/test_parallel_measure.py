"""Tests for parallel measurement, the measurement cache and jobs resolution."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.allocator import Allocator
from repro.core import measure
from repro.core.configs import CacheConfig, TlbConfig
from repro.core.measure import (
    BenefitCurves,
    measure_suite,
    measure_workload,
    resolve_jobs,
    scale,
)
from repro.errors import ConfigError
from repro.store import SCHEMA_VERSION

SMALL_GRID = dict(
    capacities=(4096, 8192),
    lines=(4, 8),
    assocs=(1, 2),
    tlb_entries=(64, 128),
    tlb_assocs=(2, 4),
    tlb_full_max=64,
    references=60_000,
)


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_rejects_nonpositive(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        with pytest.raises(ValueError):
            resolve_jobs(0)


class TestEnvParsing:
    def test_non_integer_jobs_names_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigError, match="REPRO_JOBS"):
            resolve_jobs()

    def test_float_jobs_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2.5")
        with pytest.raises(ConfigError, match="REPRO_JOBS"):
            resolve_jobs()

    def test_nonpositive_env_jobs_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ConfigError, match="REPRO_JOBS"):
            resolve_jobs()

    def test_non_numeric_scale_names_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "fast")
        with pytest.raises(ConfigError, match="REPRO_SCALE"):
            scale()

    def test_nonpositive_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ConfigError, match="REPRO_SCALE"):
            scale()

    def test_valid_values_still_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        assert resolve_jobs() == 4
        assert scale() == 0.25


def _perfbench_digest(value) -> str:
    """perfbench's golden digest: SHA-256 of canonical JSON."""
    path = Path(__file__).resolve().parents[2] / "perfbench" / "harness.py"
    spec = importlib.util.spec_from_file_location("perfbench_harness", path)
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    return harness.digest(value)


class TestCacheRobustness:
    """The measurement cache: one curve-store object per measured pair.

    A missing, corrupt, old-schema or foreign entry is measured again
    and republished, never raised.
    """

    PAIR = ("IOzone", "mach")

    @pytest.fixture
    def cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        return tmp_path / "cache"

    @pytest.fixture
    def units(self, monkeypatch):
        """Pairs handed to ``_measure_unit`` from here on."""
        calls = []
        real = measure._measure_unit

        def counting(spec):
            calls.append(spec[:2])
            return real(spec)

        monkeypatch.setattr(measure, "_measure_unit", counting)
        return calls

    def _measure(self):
        return measure_workload(*self.PAIR, jobs=1, **SMALL_GRID)

    @staticmethod
    def _manifest(cache: Path) -> Path:
        (path,) = (cache / "pairs").glob("*.json")
        return path

    @staticmethod
    def _object(cache: Path) -> Path:
        (path,) = (cache / "objects").glob("*.bin")
        return path

    def test_round_trip(self, cache, units):
        """The curves read back equal the measured ones exactly, down
        to the canonical JSON perfbench's goldens digest."""
        measured = self._measure()
        assert (64, "full") in measured.tlb
        loaded = self._measure()
        assert units == [self.PAIR]
        assert loaded == measured
        assert _perfbench_digest(dataclasses.asdict(loaded)) == _perfbench_digest(
            dataclasses.asdict(measured)
        )

    def test_corrupt_entry_evicted(self, cache, units):
        measured = self._measure()
        obj = self._object(cache)
        data = bytearray(obj.read_bytes())
        data[len(data) // 2] ^= 0xFF
        obj.write_bytes(bytes(data))
        assert self._measure() == measured
        assert units == [self.PAIR, self.PAIR]
        # Republished under the same digest: the next call is a hit.
        assert hashlib.sha256(obj.read_bytes()).hexdigest() == obj.stem
        assert self._measure() == measured
        assert len(units) == 2

    def test_stale_version_evicted(self, cache, units):
        measured = self._measure()
        path = self._manifest(cache)
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps({**manifest, "schema": SCHEMA_VERSION - 1}))
        assert self._measure() == measured
        assert units == [self.PAIR, self.PAIR]
        assert json.loads(path.read_text())["schema"] == SCHEMA_VERSION
        # An object carrying the old payload schema is a miss too.
        payload = pickle.loads(self._object(cache).read_bytes())
        blob = pickle.dumps({**payload, "schema": SCHEMA_VERSION - 1})
        digest = hashlib.sha256(blob).hexdigest()
        (cache / "objects" / f"{digest}.bin").write_bytes(blob)
        path.write_text(json.dumps({**manifest, "objects": [digest]}))
        assert self._measure() == measured
        assert units == [self.PAIR] * 3

    def test_unversioned_payload_evicted(self, cache, units):
        """Foreign manifests and payloads are remeasured, never raised."""
        measured = self._measure()
        path = self._manifest(cache)
        blob = pickle.dumps(["a", "legacy", "payload"])
        digest = hashlib.sha256(blob).hexdigest()
        (cache / "objects" / f"{digest}.bin").write_bytes(blob)
        foreign = [
            b'{"not": "a manifest"}',
            b"\x80\x04 truncated garbage",
            json.dumps(
                {**json.loads(path.read_text()), "objects": [digest]}
            ).encode(),
        ]
        for data in foreign:
            path.write_bytes(data)
            assert self._measure() == measured
        assert units == [self.PAIR] * 4

    def test_store_leaves_no_temp_files(self, cache):
        self._measure()
        assert [p for p in cache.rglob("*") if p.suffix == ".tmp"] == []

    def test_hit_in_fresh_process(self, cache):
        """A pair measured here is a hit in a new process: no
        ``_measure_unit`` call and no new object file."""
        measured = self._measure()
        objects = sorted(p.name for p in (cache / "objects").iterdir())
        script = (
            "import dataclasses, json, sys\n"
            "from repro.core import measure\n"
            "def refuse(spec):\n"
            "    raise AssertionError(f'remeasured {spec[:2]}')\n"
            "measure._measure_unit = refuse\n"
            "curves = measure.measure_workload(*sys.argv[1:3], jobs=1, "
            "**json.loads(sys.argv[3]))\n"
            "print(curves.instructions, curves.wb_stall_per_instr.hex())\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, *self.PAIR, json.dumps(SMALL_GRID)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [
            str(measured.instructions),
            measured.wb_stall_per_instr.hex(),
        ]
        assert sorted(p.name for p in (cache / "objects").iterdir()) == objects


class TestParallelMeasurement:
    def test_jobs_bit_identical_to_serial(self):
        pairs = ("IOzone", "jpeg_play")
        serial = measure_suite(
            "mach", pairs, use_cache=False, jobs=1, **SMALL_GRID
        )
        parallel = measure_suite(
            "mach", pairs, use_cache=False, jobs=2, **SMALL_GRID
        )
        assert serial == parallel

    def test_lone_pair_is_measured_in_process(self, monkeypatch):
        def no_pool(*_args):
            raise AssertionError("a single pair went to the pool")

        monkeypatch.setattr(measure, "_pool_map", no_pool)
        curves = measure_workload(
            "IOzone", "mach", use_cache=False, jobs=2, **SMALL_GRID
        )
        assert curves.instructions > 0

    def test_suite_parallel_uses_one_pool(self):
        suite = measure_suite(
            "ultrix",
            workloads=("IOzone", "jpeg_play"),
            jobs=2,
            **SMALL_GRID,
        )
        assert [c.workload for c in suite] == ["IOzone", "jpeg_play"]
        # Cached results must satisfy a serial rerun identically.
        again = measure_suite(
            "ultrix", workloads=("IOzone", "jpeg_play"), jobs=1, **SMALL_GRID
        )
        assert suite == again

    def test_env_jobs_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        curves = measure_suite(
            "mach", ("jpeg_play", "IOzone"), use_cache=False, **SMALL_GRID
        )
        assert all(c.instructions > 0 for c in curves)


class TestVectorizedAllocator:
    # Structure points restricted to the measured SMALL_GRID space.
    TLBS = [TlbConfig(e, a) for e in (64, 128) for a in (2, 4)] + [
        TlbConfig(64, "full")
    ]
    CACHES = [
        CacheConfig(c, l, a)
        for c in (4096, 8192)
        for l in (4, 8)
        for a in (1, 2)
    ]

    @pytest.fixture(scope="class")
    def allocator(self):
        per = [
            measure_workload(w, "mach", **SMALL_GRID)
            for w in ("IOzone", "jpeg_play")
        ]
        return Allocator(
            BenefitCurves(os_name="mach", per_workload=per),
            budget_rbes=120_000,
        )

    def _both(self, allocator, **kwargs):
        points = dict(
            tlbs=self.TLBS, icaches=self.CACHES, dcaches=self.CACHES
        )
        return (
            allocator.rank(**points, **kwargs),
            allocator._rank_reference(**points, **kwargs),
        )

    def test_rank_matches_reference(self, allocator):
        fast, ref = self._both(allocator)
        assert fast == ref

    def test_rank_matches_reference_with_assoc_cap(self, allocator):
        fast, ref = self._both(allocator, max_cache_assoc=2)
        assert fast == ref

    def test_limit_is_a_prefix(self, allocator):
        assert (
            self._both(allocator, limit=5)[0]
            == self._both(allocator)[0][:5]
        )
