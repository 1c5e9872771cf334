"""Tests for parallel measurement, cache robustness and jobs resolution."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.core.allocator import Allocator
from repro.core import measure
from repro.core.configs import CacheConfig, TlbConfig
from repro.core.measure import (
    CACHE_FORMAT_VERSION,
    BenefitCurves,
    _load_cached,
    _store_cached,
    cache_dir,
    measure_suite,
    measure_workload,
    resolve_jobs,
    scale,
)
from repro.errors import ConfigError

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


class TestCacheRobustness:
    def test_round_trip(self):
        _store_cached("roundtrip-key", {"a": 1})
        assert _load_cached("roundtrip-key") == {"a": 1}

    def test_corrupt_entry_evicted(self):
        path = cache_dir() / "corrupt-key.pkl"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\x80\x04 truncated garbage")
        assert _load_cached("corrupt-key") is None
        assert not path.exists()

    def test_stale_version_evicted(self):
        path = cache_dir() / "stale-key.pkl"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            pickle.dump({"version": CACHE_FORMAT_VERSION - 1, "value": 1}, handle)
        assert _load_cached("stale-key") is None
        assert not path.exists()

    def test_unversioned_payload_evicted(self):
        path = cache_dir() / "legacy-key.pkl"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            pickle.dump(["a", "legacy", "payload"], handle)
        assert _load_cached("legacy-key") is None
        assert not path.exists()

    def test_store_leaves_no_temp_files(self):
        _store_cached("tidy-key", 42)
        leftovers = [
            name
            for name in os.listdir(cache_dir())
            if name.endswith(".tmp")
        ]
        assert leftovers == []


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
