"""The repository benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload characterize --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each was chosen):

* ``characterize`` -- cold suite characterization, 6 pairs at 700k refs;
* ``design_sweep`` -- two-level design-space queries on a cold engine;
* ``serve_fleet``  -- open-loop point queries through a one-node fleet;
* ``long_trace``   -- one 2.5M-reference pair through the chunked, zlib
  path (for comparisons by hand: not in BENCHMARK.json, see README.md).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced (each in a fresh process) and prints
the per-layer metrics, with the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every run works in a fresh directory under
``.perfbench-work/`` in the checkout and removes it when it ends; the
traced run's spans are kept under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import stats
from harness import ROOT, isolated_env, processes_mentioning, program_present

WORKLOADS = ("characterize", "design_sweep", "serve_fleet")
BY_HAND = ("long_trace",)
"""Runnable, but not in BENCHMARK.json (too unsteady; see README.md)."""
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 80

END_TO_END = {
    "setup_s": "s",
    "ok_ratio": "ratio",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Reported with the end-to-end metrics where they apply, but not in the
# JSON line, which carries the same metrics on every workload.
WORKLOAD_EXTRAS = {
    "design_sweep": {"p50_ms": "ms", "p90_ms": "ms"},
    "serve_fleet": {"p50_ms": "ms", "p99_ms": "ms", "slo_qps": "1/s"},
}

PER_LAYER = {
    "trace.generate_s": "s",
    "trace.generate_refs_per_s": "1/s",
    "tracestore.write_s": "s",
    "tracestore.read_s": "s",
    "tracestore.raw_bytes": "B",
    "tracestore.disk_bytes": "B",
    "tracestore.hits": "count",
    "tracestore.generations": "count",
    "memsim.cache_grid_s": "s",
    "memsim.tlb_s": "s",
    "memsim.timing_s": "s",
    "memsim.refs_per_s": "1/s",
    "measure.self_s": "s",
    "measure.units": "count",
    "store.load_s": "s",
    "hierarchy.build_s": "s",
    "multiopt.greedy_s": "s",
    "multiopt.greedy_calls": "count",
    "engine.self_s": "s",
    "engine.result_cache_hit_ratio": "ratio",
    "query.p50_ms": "ms",
    "shard.latency_p50_ms": "ms",
    "shard.latency_p99_ms": "ms",
    "shard.cpu_s": "s",
    "shard.byte_cache_hit_ratio": "ratio",
    "shard.shed_429": "count",
    "router.latency_p50_ms": "ms",
    "router.hop_p50_ms": "ms",
    "router.cpu_s": "s",
    "router.failovers": "count",
    "loadgen.sent": "count",
    "loadgen.failed": "count",
    "loadgen.lateness_p99_ms": "ms",
    "request.p50_ms": "ms",
    "request.p99_ms": "ms",
    "request.slo_qps": "1/s",
    "tracing.wall_s": "s",
    "tracing.overhead_s": "s",
    "tracing.layer_coverage": "ratio",
}


class ChildFailed(RuntimeError):
    pass


def workload_env(name: str) -> dict[str, str]:
    """Program settings a workload runs under, on top of isolation."""
    from fleet import ServeFleet
    from offline import CONFIGS
    from sweep import DesignSweep

    if name in CONFIGS:
        return CONFIGS[name]["env"]
    return {"design_sweep": DesignSweep.env, "serve_fleet": ServeFleet.env}[name]


def spawn(role: str, args, work: Path, trace: int = 0) -> dict:
    """Run one child process to completion and return what it wrote."""
    env = isolated_env(work, workload_env(args.workload))
    out = work / "out.json"
    here = Path(__file__).resolve().parent
    cmd = [
        sys.executable, str(here / "child.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--work", str(work), "--out", str(out),
    ]
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=SETUP_TIMEOUT_S if role == "setup" else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = "timeout"
    # Anything still running with this child's directory on its command
    # line (a fleet the child failed to stop) is killed and reported.
    stray = processes_mentioning(str(work))
    for pid in stray:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0 or not out.exists():
        raise ChildFailed(f"{role} process for {args.workload} ended with {code}")
    result = json.loads(out.read_text())
    result["leaked"] = sorted(set(result.get("leaked", [])) | set(stray))
    return result


def end_to_end(args, run_dir: Path) -> tuple[dict, list]:
    """Set up ``SETUP_SAMPLES`` times (the last one also times the run)."""
    runs = [spawn("setup", args, run_dir / f"setup{i}") for i in range(SETUP_SAMPLES - 1)]
    timed = spawn("run", args, run_dir / "run")
    runs.append(timed)
    metrics = {
        "setup_s": stats.median([run["setup_s"] for run in runs]),
        "wall_s": timed["wall_s"],
        "work_per_s": timed["work_per_s"],
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    return metrics, runs


def traced(args, run_dir: Path) -> tuple[dict, list]:
    plain = spawn("run", args, run_dir / "plain")
    run = spawn("run", args, run_dir / "traced", trace=1)
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update(run["layers"])
    extra = run["extra"]
    if args.workload == "design_sweep":
        layers["query.p50_ms"] = extra.get("p50_ms") or 0.0
    if args.workload == "serve_fleet":
        layers["request.p50_ms"] = extra.get("p50_ms") or 0.0
        layers["request.p99_ms"] = extra.get("p99_ms") or 0.0
        layers["request.slo_qps"] = extra.get("slo_qps") or 0.0
    layers["tracing.wall_s"] = run["wall_s"]
    layers["tracing.overhead_s"] = run["wall_s"] - plain["wall_s"]
    return layers, [plain, run]


def render(name: str, value, unit: str) -> str:
    shown = "n/a (too few samples)" if value is None else f"{value:.6g} {unit}"
    return f"  {name:32s} {shown}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + BY_HAND, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not program_present():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        if args.trace:
            metrics, runs = traced(args, run_dir)
            units = PER_LAYER
            spans = run_dir / "traced" / "spans.jsonl"
            if spans.exists():
                out_dir = ROOT / ".perfbench-out"
                out_dir.mkdir(exist_ok=True)
                shutil.copy(spans, out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")
        else:
            metrics, runs = end_to_end(args, run_dir)
            units = END_TO_END
        leaked = sorted({pid for run in runs for pid in run["leaked"]})
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(run.get("attempted", 0) for run in runs)
    failures: dict[str, int] = {}
    for run in runs:
        for kind, count in run.get("failures", {}).items():
            failures[kind] = failures.get(kind, 0) + count
    if leaked:
        failures["leaked_process"] = len(leaked)
    failed = sum(failures.values())
    if not args.trace:
        metrics["ok_ratio"] = max(0.0, (attempted - failed) / attempted) if attempted else 0.0

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, unit in units.items():
        print(render(name, metrics[name], unit))
    if not args.trace:
        for name, unit in WORKLOAD_EXTRAS.get(args.workload, {}).items():
            print(render(name, runs[-1]["extra"].get(name), unit))
    if runs[-1].get("rounds"):
        print("  rounds_s: " + ", ".join(f"{x:.3f}" for x in runs[-1]["rounds"]))
    if failures:
        print(f"  failures: {json.dumps(failures, sort_keys=True)}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
