"""Measurement through the zero-copy trace plane: identity and reuse."""

from __future__ import annotations

import pytest

from repro.core import measure
from repro.core.measure import (
    _measurement_pool,
    _trace_for,
    _worker_traces,
    measure_suite,
    measure_workload,
    shutdown_measurement_pool,
    warm_traces,
)
from repro.errors import ConfigError
from repro.trace import tracestore

SMALL_GRID = dict(
    capacities=(4096, 8192),
    lines=(4, 8),
    assocs=(1, 2),
    tlb_entries=(64, 128),
    tlb_assocs=(2, 4),
    tlb_full_max=64,
    references=60_000,
)


@pytest.fixture
def plane(tmp_path, monkeypatch):
    """An isolated, empty trace cache; clears the in-process memo."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    _worker_traces.clear()
    yield tmp_path / "traces"
    _worker_traces.clear()


class TestDifferential:
    @pytest.mark.slow
    def test_full_table5_grid_bit_identical(self, tmp_path, monkeypatch):
        """Acceptance: curves through the plane == in-process generation.

        Full Table 5 grid (every capacity, line size, associativity,
        and TLB point) for one workload/OS pair, measured once through
        a cold trace plane and once with the plane disabled.
        """
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
        _worker_traces.clear()
        via_plane = measure_workload(
            "mpeg_play", "mach", references=120_000, use_cache=False, jobs=1
        )
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        _worker_traces.clear()
        direct = measure_workload(
            "mpeg_play", "mach", references=120_000, use_cache=False, jobs=1
        )
        _worker_traces.clear()
        assert via_plane == direct

    def test_small_grid_bit_identical_and_warm_hit(self, plane, monkeypatch):
        via_plane = measure_workload(
            "IOzone", "mach", use_cache=False, jobs=1, **SMALL_GRID
        )
        # Second measurement hits the published entry (memmap load).
        _worker_traces.clear()
        warm = measure_workload(
            "IOzone", "mach", use_cache=False, jobs=1, **SMALL_GRID
        )
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        _worker_traces.clear()
        direct = measure_workload(
            "IOzone", "mach", use_cache=False, jobs=1, **SMALL_GRID
        )
        assert via_plane == direct == warm

    @pytest.mark.concurrency
    def test_parallel_on_warm_cache_bit_identical(self, plane):
        # Two pairs, so jobs=2 measures them in pool workers.
        pairs = ("jpeg_play", "IOzone")
        serial = measure_suite(
            "ultrix", pairs, use_cache=False, jobs=1, **SMALL_GRID
        )
        parallel = measure_suite(
            "ultrix", pairs, use_cache=False, jobs=2, **SMALL_GRID
        )
        shutdown_measurement_pool()
        assert serial == parallel


class TestWorkerTraceLru:
    """The per-process memo must evict by recency, not insertion order."""

    def test_hit_refreshes_recency(self, plane):
        refs = 5_000
        a = _trace_for("IOzone", "mach", refs, 1)
        b = _trace_for("jpeg_play", "mach", refs, 1)
        # Hit A: it becomes most-recent, so inserting C must evict B.
        assert _trace_for("IOzone", "mach", refs, 1) is a
        _trace_for("mab", "mach", refs, 1)
        assert ("jpeg_play", "mach", refs, 1) not in _worker_traces
        assert _trace_for("IOzone", "mach", refs, 1) is a

    def test_capacity_respected(self, plane):
        refs = 5_000
        for workload in ("IOzone", "jpeg_play", "mab"):
            _trace_for(workload, "ultrix", refs, 1)
        assert len(_worker_traces) <= measure._WORKER_TRACE_CAP


class TestPersistentPool:
    def test_pool_is_reused_for_same_jobs(self, plane):
        try:
            assert _measurement_pool(2) is _measurement_pool(2)
        finally:
            shutdown_measurement_pool()

    def test_env_change_retires_the_pool(self, plane, tmp_path, monkeypatch):
        try:
            first = _measurement_pool(2)
            monkeypatch.setenv(
                "REPRO_TRACE_CACHE", str(tmp_path / "other-traces")
            )
            assert _measurement_pool(2) is not first
        finally:
            shutdown_measurement_pool()

    def test_cache_dir_change_keeps_the_pool(self, plane, tmp_path, monkeypatch):
        """Workers never read the measurement cache (the parent loads
        and publishes every pair), so moving it keeps the warm pool."""
        try:
            first = _measurement_pool(2)
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "other-cache"))
            assert _measurement_pool(2) is first
        finally:
            shutdown_measurement_pool()

    def test_shutdown_is_idempotent(self):
        shutdown_measurement_pool()
        shutdown_measurement_pool()


class TestWarmTraces:
    def test_warm_then_cached(self, plane):
        first = warm_traces(
            os_names=("mach",),
            workloads=("IOzone", "jpeg_play"),
            references=20_000,
        )
        assert [(w, o) for w, o, _ in first] == [
            ("IOzone", "mach"),
            ("jpeg_play", "mach"),
        ]
        assert all(published for *_pair, published in first)
        again = warm_traces(
            os_names=("mach",),
            workloads=("IOzone", "jpeg_play"),
            references=20_000,
        )
        assert not any(published for *_pair, published in again)

    def test_disabled_plane_refuses(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        with pytest.raises(ConfigError, match="REPRO_TRACE_CACHE"):
            warm_traces(os_names=("mach",), workloads=("IOzone",))
