"""Shared fixtures: small, session-scoped traces and an isolated cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.trace.generator import generate_trace

SMALL_REFERENCES = 90_000


@pytest.fixture(scope="session")
def ultrix_trace():
    """A small deterministic mpeg_play/Ultrix trace shared by tests."""
    return generate_trace("mpeg_play", "ultrix", SMALL_REFERENCES, seed=11)


@pytest.fixture(scope="session")
def mach_trace():
    """A small deterministic mpeg_play/Mach trace shared by tests."""
    return generate_trace("mpeg_play", "mach", SMALL_REFERENCES, seed=11)


@pytest.fixture(scope="session")
def iozone_traces():
    """IOzone traces under both OSes (service-heavy workload)."""
    return {
        "ultrix": generate_trace("IOzone", "ultrix", SMALL_REFERENCES, seed=8),
        "mach": generate_trace("IOzone", "mach", SMALL_REFERENCES, seed=8),
    }


@pytest.fixture(scope="session", autouse=True)
def _isolated_measurement_cache(tmp_path_factory):
    """Point the measurement cache at a temp dir for the whole session
    so tests (including module-scoped fixtures, which instantiate
    before any function-scoped fixture) never read a developer's
    working cache."""
    import os

    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    # Same isolation for the curve store the query service opens by
    # default, so tests never see a developer's working store.
    old_store = os.environ.get("REPRO_STORE_DIR")
    os.environ["REPRO_STORE_DIR"] = str(tmp_path_factory.mktemp("repro-store"))
    # And for the zero-copy trace plane, which would otherwise publish
    # test-sized traces into the working tree's .repro-trace-cache.
    old_traces = os.environ.get("REPRO_TRACE_CACHE")
    os.environ["REPRO_TRACE_CACHE"] = str(
        tmp_path_factory.mktemp("repro-trace-cache")
    )
    yield
    for key, value in (
        ("REPRO_CACHE_DIR", old),
        ("REPRO_STORE_DIR", old_store),
        ("REPRO_TRACE_CACHE", old_traces),
    ):
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


@pytest.fixture
def rng():
    """A seeded generator for test-local randomness."""
    return np.random.default_rng(1234)
