"""One benchmark process: set up a workload, and optionally time it.

Started by ``run.py`` in a fresh interpreter for every sample, so each
timed run's peak RSS is its own::

    python3 perfbench/child.py --role setup|run --workload NAME \\
        --seed N --seconds S --trace 0|1 --work DIR --t0 MONOTONIC --out FILE

``--t0`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` includes interpreter start-up and imports.
The JSON written to ``--out`` carries the set-up time and, for
``--role run``, the timed run's measurements and checked outcomes.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import stats
from harness import peak_rss_mb, reset_peak_rss
from layers import Tracer


@dataclass(frozen=True)
class Context:
    seed: int
    seconds: float
    work: Path


def make_workload(name: str, ctx: Context):
    if name in ("characterize", "long_trace"):
        from offline import Offline

        return Offline(name, ctx)
    if name == "design_sweep":
        from sweep import DesignSweep

        return DesignSweep(ctx)
    if name == "serve_fleet":
        from fleet import ServeFleet

        return ServeFleet(ctx)
    raise ValueError(f"unknown workload {name!r}")


def timed_run(workload, trace: bool, ctx: Context) -> dict:
    tracer = Tracer() if trace else None
    if tracer is not None:
        workload.instrument(tracer)
    reset_peak_rss()
    try:
        result = workload.run(tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    peak = result.get("peak_rss_mb") or peak_rss_mb()
    tally = stats.Tally()
    workload.check(result["outputs"], tally)
    if "rounds" in result:
        result["wall_s"] = stats.best_round(result["rounds"]) * result.get("scale", 1.0)
        result["work_per_s"] = result["work"] / result["wall_s"]
    out = {
        "wall_s": result["wall_s"],
        "work_per_s": result["work_per_s"],
        "peak_rss_mb": peak,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "extra": dict(result.get("extra", {})),
        "rounds": [sum(r) for r in result.get("rounds", [])],
    }
    if "latencies_ms" in result:
        for q in (0.5, 0.9):
            out["extra"][f"p{round(q * 100)}_ms"] = stats.percentile(result["latencies_ms"], q)
    if tracer is not None:
        layers = workload.layers(tracer, result)
        timed = sum(map(sum, result["rounds"])) if "rounds" in result else result["wall_s"]
        layers["tracing.layer_coverage"] = sum(tracer.self_s.values()) / timed
        out["layers"] = layers
        tracer.dump(ctx.work / "spans.jsonl")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    # A parent that ignores SIGINT would pass that on to the fleet,
    # which stops on SIGINT; restore the default for everything below.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    ctx = Context(seed=args.seed, seconds=args.seconds, work=args.work)
    workload = make_workload(args.workload, ctx)
    out: dict = {}
    try:
        workload.setup()
        out["setup_s"] = time.monotonic() - args.t0
        if args.role == "run":
            out.update(timed_run(workload, bool(args.trace), ctx))
    finally:
        workload.teardown()
    out["leaked"] = getattr(workload, "leaked", [])
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
