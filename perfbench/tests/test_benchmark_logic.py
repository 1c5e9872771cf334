"""Rules the benchmark's numbers rest on, checked without the program.

Run with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fleet
import harness
import offline
import stats
import sweep
from layers import Tracer


# -- percentiles need ten samples beyond them --------------------------------


@pytest.mark.parametrize("q, needed", [(0.5, 20), (0.9, 100), (0.99, 1000)])
def test_percentile_refuses_thin_tails(q, needed):
    assert stats.samples_needed(q) == needed
    assert stats.percentile(range(needed - 1), q) is None
    value = stats.percentile(range(needed), q)
    assert value is not None
    beyond = sum(1 for v in range(needed) if v > value)
    assert beyond >= stats.MIN_TAIL_SAMPLES


def test_percentile_is_nearest_rank():
    assert stats.percentile(list(range(1, 101)), 0.9) == 90.0
    assert stats.percentile(list(range(1, 21))[::-1], 0.5) == 10.0


def test_bucket_percentile_refuses_and_interpolates():
    thin = {"le_1": 5, "le_2.5": 4, "le_inf": 0}
    assert stats.bucket_percentile(thin, 0.5) is None
    buckets = {"le_1": 0, "le_2.5": 20, "le_5": 0, "le_inf": 0}
    assert stats.bucket_percentile(buckets, 0.5) == pytest.approx(1.75)


# -- ladder and backlog ------------------------------------------------------


def test_backlog_flat_queue_is_not_growing():
    assert not stats.backlog_growing([2.0, 3.0, 2.5, 2.2] * 250)


def test_backlog_growing_queue_is_detected():
    assert stats.backlog_growing([2.0 + 0.5 * i for i in range(1000)])


def test_backlog_small_drift_under_floor_is_not_growing():
    assert not stats.backlog_growing([2.0 + 0.001 * i for i in range(1000)])


def test_backlog_one_short_stall_is_not_growing():
    latencies = [2.0] * 1000
    for i in range(800, 950):  # a 150 ms stall late in the step
        latencies[i] = 150.0 - (i - 800)
    assert not stats.backlog_growing(latencies)


def _step(rate, p99=5.0, failed=0, backlog=False):
    return {"rate": rate, "p99_ms": p99, "failed": failed, "backlog": backlog}


def test_slo_rate_is_top_passing_step():
    steps = [_step(250), _step(500), _step(1000), _step(2000, p99=900.0, backlog=True)]
    assert stats.slo_rate(steps, 100.0) == 1000


def test_slo_rate_stops_at_first_failure():
    steps = [_step(250), _step(500, failed=1), _step(1000)]
    assert stats.slo_rate(steps, 100.0) == 250


def test_slo_step_fails_on_backlog_or_unreportable_p99():
    assert not stats.step_passes(_step(1000, backlog=True), 100.0)
    assert not stats.step_passes(_step(1000, p99=None), 100.0)
    assert stats.slo_rate([_step(250, p99=150.0)], 100.0) is None


# -- ok_ratio counts every kind of failure -----------------------------------


def _record(status, body, sched=0.0, done=0.002):
    return {"sched": sched, "sent": sched, "done": done if status else None,
            "status": status, "body": body}


def test_ok_ratio_counts_429_timeout_and_wrong_body():
    good = b'{"ok": true}'
    records = [
        _record(200, good),
        _record(429, b'{"ok": false}'),
        _record(None, None),
        _record(200, b'{"ok": true, "other": 1}'),
        _record(503, b""),
    ]
    step = fleet.summarize_step(500, records, [good] * len(records))
    tally = step["tally"]
    assert tally.attempted == 5
    assert tally.failures == {
        "shed_429": 1, "timeout": 1, "wrong_body": 1, "server_error": 1,
    }
    assert tally.ok_ratio == pytest.approx(0.2)
    assert step["failed"] == 4


# -- a corrupted golden drives ok_ratio below 1 ------------------------------


@dataclasses.dataclass
class _Curves:
    workload: str
    os_name: str
    icache: dict


def test_corrupted_curve_golden_fails_that_pair(monkeypatch):
    a = _Curves("mab", "mach", {(1024, 4, 1): 0.25})
    b = _Curves("mab", "ultrix", {(1024, 4, 1): 0.5})
    golden = {
        "references": offline.CONFIGS["characterize"]["references"],
        "digests": {"3": {
            "mab/mach": offline.curves_digest(a),
            "mab/ultrix": offline.curves_digest(b)[::-1],  # corrupted
        }},
    }
    monkeypatch.setattr(offline, "load_golden", lambda name: golden)
    ctx = type("Ctx", (), {"seed": 1, "seconds": 10.0})()
    tally = stats.Tally()
    offline.Offline("characterize", ctx).check(
        ([("mab", "mach", 3), ("mab", "ultrix", 3)], [a, b]), tally
    )
    assert tally.failures == {"wrong_curves": 1}
    assert tally.ok_ratio == 0.5


class _Space:
    """A two-point-per-structure space with labelled keys."""

    def __init__(self):
        curve = type("C", (), {})
        self.structures = []
        for keys in (((64, 2), (128, 4)),) + (((1024, 4, 1), (2048, 4, 1)),) * 3:
            c = curve()
            c.keys = keys
            self.structures.append(c)


def _row():
    from repro.core.configs import CacheConfig, TlbConfig

    return {
        "tlb": TlbConfig(128, 4).label(), "l1i": CacheConfig(1024, 4, 1).label(),
        "l1d": CacheConfig(2048, 4, 1).label(), "l2": CacheConfig(2048, 4, 1).label(),
        "area_rbe": 900.0, "cpi": 1.5, "power_mw": 20.0,
    }


def test_flat_index_is_mixed_radix_in_structure_order():
    assert sweep.flat_index(_Space(), _row()) == 0b1011


def test_corrupted_sweep_golden_fails_the_query():
    space, row = _Space(), _row()
    area_q = {"budget": 1000.0, "power_budget": None}
    assert sweep.judge(area_q, row, {"flat": 11, "cpi": 1.5}, space) is None
    assert sweep.judge(area_q, row, {"flat": 10, "cpi": 1.5}, space) == "not_optimal"
    assert sweep.judge(area_q, row, {"flat": 11, "cpi": 1.4}, space) == "not_optimal"
    power_q = {"budget": 1000.0, "power_budget": 25.0}
    assert sweep.judge(power_q, row, {"cpi": 1.6}, space) is None
    assert sweep.judge(power_q, row, {"cpi": 1.4}, space) == "worse_cpi"
    assert sweep.judge(dict(power_q, power_budget=10.0), row, {"cpi": 1.6}, space) == "infeasible"
    assert sweep.judge(area_q, row, None, space) == "no_golden"


# -- inputs come from the seed -----------------------------------------------


def test_plans_are_seeded_and_distinct():
    assert sweep.plan(1) == sweep.plan(1)
    assert sweep.plan(1) != sweep.plan(2)
    ids = [q["id"] for q in sweep.plan(5)]
    assert len(ids) == len(set(ids)) == 2 * sweep.BINS * 2
    assert sorted(ids) == sorted(q["id"] for q in sweep.universe())
    steps, warmup = fleet.plan(1, 10)
    assert (steps, warmup) == fleet.plan(1, 10)
    measured = {json.dumps(q, sort_keys=True) for step in steps for q in step}
    assert not measured & {json.dumps(q, sort_keys=True) for q in warmup}
    assert all(len(step) >= 1000 for step in steps)


def test_offline_trace_seeds_stay_in_the_recorded_set():
    for seed in (-3, 0, 1, 2, 11, 10**9):
        assert 1 <= offline.trace_seed(seed, 10) <= 10
    assert offline.trace_seed(1, 10) != offline.trace_seed(2, 10)


def test_best_round_takes_each_operation_at_its_fastest():
    rounds = [[1.0, 2.0, 3.0], [1.5, 2.0, 3.0], [1.0, 2.0, 4.5]]
    assert stats.best_round(rounds) == 6.0
    assert stats.best_round([[1.0, 2.5], [2.0, 2.0], [3.0, 9.0]]) == 3.0


def test_pinning_leaves_the_process_on_one_of_its_cpus():
    before = os.sched_getaffinity(0)
    try:
        probe_s = harness.pin_to_quietest_cpu()
        if len(harness.CPUS) < 2:
            assert probe_s is None
        else:
            (cpu,) = os.sched_getaffinity(0)
            assert cpu in harness.CPUS and probe_s > 0
    finally:
        os.sched_setaffinity(0, before)


def test_sweep_times_scale_to_the_reference_probe():
    ref = sweep.REFERENCE_PROBE_S
    assert sweep.to_reference([ref, ref]) == 1.0
    assert sweep.to_reference([2 * ref, 2 * ref, 9 * ref, None]) == 0.5
    assert sweep.to_reference([None]) == 1.0


def test_rounds_repeat_at_least_three_times():
    assert stats.rounds_for(1, 7.5) == 3
    assert stats.rounds_for(40, 7.5) == 5


# -- outside-in self time ----------------------------------------------------


class _Layered:
    @staticmethod
    def inner():
        sum(range(20000))

    @staticmethod
    def outer():
        _Layered.inner()
        _Layered.inner()


def test_tracer_self_times_partition_the_root_span():
    tracer = Tracer()
    tracer.wrap(_Layered, "outer", "a")
    tracer.wrap(_Layered, "inner", "b")
    try:
        _Layered.outer()
    finally:
        tracer.restore()
    root = [s for s in tracer.spans if s[4] == -1]
    assert len(root) == 1 and len(tracer.spans) == 3
    total = root[0][3] - root[0][2]
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=1e-9)
    assert tracer.calls_of(_Layered, "inner") == 2
    assert _Layered.inner.__name__ == "inner" and not hasattr(_Layered.inner, "__wrapped__")


# -- refuses to run without the program --------------------------------------


def test_exits_nonzero_without_program(tmp_path):
    here = Path(__file__).resolve().parent.parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "characterize",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- the declared metrics are the printed ones -------------------------------


def test_benchmark_json_matches_the_runner():
    import run

    declared = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
