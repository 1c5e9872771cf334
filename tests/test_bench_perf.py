"""The bench harness updates an existing output file section by section."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_perf.py"


@pytest.fixture(scope="module")
def bench_perf():
    spec = importlib.util.spec_from_file_location("bench_perf", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PREVIOUS = {
    "machine": {"python": "old"},
    "grid_sweep": {"seconds": 2.0, "history": [{"seconds": 3.0}]},
    "alloc_scaling": {"median_speedup": 500.0, "history": [{"x": 1}]},
    "write_buffer": {"streams": {}},
    "notes": "kept",
}


def test_merge_replaces_only_the_sections_that_ran(bench_perf):
    merged = bench_perf.merge_sections(
        PREVIOUS,
        {"machine": {"python": "new"}, "grid_sweep": {"seconds": 1.0}},
    )
    assert merged["machine"] == {"python": "new"}
    assert merged["grid_sweep"] == {
        "seconds": 1.0,
        "history": [{"seconds": 3.0}, {"seconds": 2.0}],
    }
    for key in ("alloc_scaling", "write_buffer", "notes"):
        assert merged[key] == PREVIOUS[key]
    # The earlier file's dicts are not modified in place.
    assert PREVIOUS["grid_sweep"]["history"] == [{"seconds": 3.0}]


def test_merge_adds_a_new_section_without_history(bench_perf):
    merged = bench_perf.merge_sections(PREVIOUS, {"trace_plane": {"s": 1}})
    assert merged["trace_plane"] == {"s": 1}
    assert merged["grid_sweep"] == PREVIOUS["grid_sweep"]


def test_main_keeps_other_sections_of_the_output(bench_perf, tmp_path,
                                                 monkeypatch):
    output = tmp_path / "bench.json"
    output.write_text(json.dumps(PREVIOUS))
    monkeypatch.setattr(
        bench_perf, "bench_write_buffer",
        lambda: {"native_kernel": True, "streams": {}, "trace_streams": {},
                 "run": "new"},
    )
    assert bench_perf.main(
        ["--section", "write_buffer", "--output", str(output)]
    ) == 0
    written = json.loads(output.read_text())
    assert written["write_buffer"]["run"] == "new"
    assert written["write_buffer"]["history"] == [{"streams": {}}]
    for key in ("grid_sweep", "alloc_scaling", "notes"):
        assert written[key] == PREVIOUS[key]
