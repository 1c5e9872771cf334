"""serve_fleet: open-loop point queries through a one-node fleet.

The fleet runs as a child process (``python -m repro.fleet``): router
plus one shard, each with its own interpreter, so the router never
shares the load generator's interpreter lock.  Set-up builds the curve
store, starts the fleet, computes every expected response body with an
in-process engine over the same store, and warms each priced space with
requests outside the measured set.

The timed run climbs a fixed ladder of offered rates, each step
``requests_per_step`` seeded single-level point queries over both OSes
and ``max_cache_assoc`` in {none, 2}.  ``HOT_SHARE`` of them repeat a
few hot budgets (byte-cache hits in the shard); the rest are distinct
budgets (engine misses).  The ladder stops at the first step that
misses the service level.  ``p50_ms`` and ``p99_ms`` are read at the
first step, below capacity.

The fleet's capacity for this mix ranged from 535 to 1,600 q/s between
runs of the same code on a 2-core x86 host shared with other machines
(once, briefly, ~270 q/s), so any doubling ladder had a step inside
that range and its top passing step flipped between runs.  The first
step, 375 q/s, is under the slowest usual capacity and the second,
2,000 q/s, 25% over the fastest.  ``work_per_s`` is the completion rate at the top passing step
(the first step's when none passes, which is still its offered rate
while capacity exceeds it), so it holds still, and a router fast enough
to pass 2,000 q/s moves it and ``slo_qps`` up.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
import urllib.request

import stats
from harness import alive, children_of, cpu_seconds, peak_rss_mb, reset_peak_rss
from loadgen import render_post, run_open_loop
from sweep import STORE_SCALE, build_store

RATES = (375, 2000, 10000)  # offered q/s
FIXED_RATE = RATES[0]
P99_LIMIT_MS = 200.0
HOT_SHARE = 0.5
HOT_PER_SPACE = 4
BUDGET_RANGE = (120_000.0, 400_000.0)  # every budget here fits a design
SPACES = tuple((os_name, assoc) for os_name in ("mach", "ultrix") for assoc in (None, 2))
WARMUP_PER_SPACE = 25
CONNECTIONS = 2
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


def requests_per_step(seconds: float) -> int:
    """Requests per ladder step: enough for a reportable p99."""
    return max(stats.samples_needed(0.99), int(seconds * 50))


def query(os_name: str, assoc, budget: float) -> dict:
    return {"type": "point", "os": os_name, "budget": budget, "limit": 1,
            "max_cache_assoc": assoc}


def plan(seed: int, seconds: float) -> tuple[list[list[dict]], list[dict]]:
    """(per-step measured queries, warm-up queries), drawn from ``seed``."""
    rng = random.Random(seed)
    used: set[tuple] = set()

    def fresh(os_name, assoc) -> dict:
        while True:
            q = query(os_name, assoc, round(rng.uniform(*BUDGET_RANGE), 3))
            key = (os_name, assoc, q["budget"])
            if key not in used:
                used.add(key)
                return q

    hot = [fresh(*space) for space in SPACES for _ in range(HOT_PER_SPACE)]
    steps = []
    for _ in RATES:
        step = []
        for _ in range(requests_per_step(seconds)):
            if rng.random() < HOT_SHARE:
                step.append(rng.choice(hot))
            else:
                step.append(fresh(*rng.choice(SPACES)))
        steps.append(step)
    warmup = [fresh(*space) for space in SPACES for _ in range(WARMUP_PER_SPACE)]
    return steps, warmup


def encode(q: dict) -> bytes:
    return json.dumps(q, sort_keys=True).encode()


def get_json(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=10) as resp:
        return json.loads(resp.read())["result"]


def summarize_step(rate: int, records: list[dict], expected: list[bytes]) -> dict:
    """Outcome of one ladder step from its per-request records."""
    tally = stats.Tally()
    latencies, lateness = [], []
    for record, want in zip(records, expected):
        failure = stats.classify_response(record["status"], record["body"], want)
        if failure is None:
            tally.ok()
        else:
            tally.fail(failure)
        if record["done"] is not None:
            latencies.append((record["done"] - record["sched"]) * 1000.0)
        if record["sent"] is not None:
            lateness.append((record["sent"] - record["sched"]) * 1000.0)
    done = [r["done"] for r in records if r["done"] is not None]
    span = (max(done) - records[0]["sched"]) if done else 0.0
    return {
        "rate": rate,
        "tally": tally,
        "failed": tally.failed,
        "p50_ms": stats.percentile(latencies, 0.50),
        "p99_ms": stats.percentile(latencies, 0.99),
        "backlog": stats.backlog_growing(latencies),
        "lateness_ms": lateness,
        "completed_per_s": (tally.attempted - tally.failed) / span if span else 0.0,
    }


class ServeFleet:
    name = "serve_fleet"
    env = {"REPRO_SCALE": STORE_SCALE}

    def __init__(self, ctx):
        self.ctx = ctx
        self.store = str(ctx.work / "store")
        self.proc: subprocess.Popen | None = None
        self.pids: list[int] = []
        self.leaked: list[int] = []

    # -- set-up ---------------------------------------------------------

    def setup(self) -> None:
        from repro.memsim import _native
        from repro.service.engine import QueryEngine
        from repro.store import CurveStore

        _native.available()
        build_store(self.store)
        self._start_fleet()
        steps, warmup = plan(self.ctx.seed, self.ctx.seconds)
        engine = QueryEngine(CurveStore(self.store))
        bodies: dict[bytes, bytes] = {}
        for q in [q for step in steps for q in step] + warmup:
            raw = encode(q)
            if raw not in bodies:
                bodies[raw] = engine.query_bytes(q)[0]
        self.expected = [[bodies[encode(q)] for q in step] for step in steps]
        self.wire = [[render_post("/v1/query", encode(q)) for q in step] for step in steps]
        records = run_open_loop(
            "127.0.0.1", self.port,
            [render_post("/v1/query", encode(q)) for q in warmup],
            rate=FIXED_RATE, connections=CONNECTIONS,
        )
        wrong = [
            r for r, q in zip(records, warmup)
            if stats.classify_response(r["status"], r["body"], bodies[encode(q)])
        ]
        if wrong:
            raise RuntimeError(f"{len(wrong)} of {len(warmup)} warm-up requests failed")

    def _start_fleet(self) -> None:
        log_path = self.ctx.work / "fleet.log"
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.fleet", "--store", self.store,
                 "--port", "0", "--nodes", "1", "--replicas", "1", "--quiet"],
                stdout=log, stderr=subprocess.STDOUT, env=env,
                start_new_session=True,
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            text = log_path.read_text()
            if "router on http://" in text:
                address = text.split("router on http://", 1)[1].split("/", 1)[0]
                self.port = int(address.rsplit(":", 1)[1])
                self.base = f"http://127.0.0.1:{self.port}"
                self.pids = [self.proc.pid] + children_of(self.proc.pid)
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(f"fleet did not start:\n{log_path.read_text()[-2000:]}")

    # -- timed run ------------------------------------------------------

    def instrument(self, tracer) -> None:
        """Nothing to wrap: the fleet's layers are other processes, so the
        traced run scrapes their metrics instead."""

    def run(self, tracer) -> dict:
        router, shards = self.pids[0], self.pids[1:]
        for pid in self.pids:
            reset_peak_rss(pid)
        before = get_json(self.base, "/v1/metrics") if tracer else None
        cpu0 = {pid: cpu_seconds(pid) for pid in self.pids}
        steps = []
        start = time.perf_counter()
        for rate, wire, expected in zip(RATES, self.wire, self.expected):
            records = run_open_loop(
                "127.0.0.1", self.port, wire, rate=rate, connections=CONNECTIONS,
            )
            step = summarize_step(rate, records, expected)
            steps.append(step)
            print(
                f"serve_fleet step {rate} q/s: p50={step['p50_ms']} p99={step['p99_ms']} "
                f"failed={step['failed']} backlog={step['backlog']} "
                f"completed={step['completed_per_s']:.1f}/s",
                file=sys.stderr,
            )
            if not stats.step_passes(step, P99_LIMIT_MS):
                break
        wall = time.perf_counter() - start
        cpu = {pid: cpu_seconds(pid) - cpu0[pid] for pid in self.pids}
        after = get_json(self.base, "/v1/metrics") if tracer else None
        rss = sum(peak_rss_mb(pid) for pid in self.pids)
        slo = stats.slo_rate(steps, P99_LIMIT_MS)
        top = next((s for s in steps if s["rate"] == slo), steps[0])
        fixed = next(s for s in steps if s["rate"] == FIXED_RATE)
        self.scrapes = (before, after)
        self.cpu = (cpu[router], sum(cpu[pid] for pid in shards))
        return {
            "wall_s": wall,
            "work_per_s": top["completed_per_s"],
            "peak_rss_mb": rss,
            "extra": {
                "p50_ms": fixed["p50_ms"],
                "p99_ms": fixed["p99_ms"],
                "slo_qps": float(slo or 0),
            },
            "outputs": steps,
        }

    def check(self, outputs, tally) -> None:
        for step in outputs:
            tally.attempted += step["tally"].attempted
            for kind, count in step["tally"].failures.items():
                tally.failures[kind] = tally.failures.get(kind, 0) + count

    def layers(self, tracer, result) -> dict:
        before, after = self.scrapes
        steps = result["outputs"]

        def delta(path_before, path_after):
            return {k: path_after.get(k, 0) - path_before.get(k, 0) for k in path_after}

        shard_hist = delta(before["histograms"]["http_latency_ms"]["buckets"],
                           after["histograms"]["http_latency_ms"]["buckets"])
        router_hist = delta(before["router"]["histograms"]["http_latency_ms"]["buckets"],
                            after["router"]["histograms"]["http_latency_ms"]["buckets"])
        cache = delta(before["engine_cache"], after["engine_cache"])
        responses = delta(before["counters"]["http_responses"].get("by_label", {}),
                          after["counters"]["http_responses"].get("by_label", {}))
        shard_p50 = stats.bucket_percentile(shard_hist, 0.50)
        router_p50 = stats.bucket_percentile(router_hist, 0.50)
        lookups = cache.get("byte_hits", 0) + cache.get("byte_misses", 0)
        # The generator must keep up where figures are read: the passing
        # steps.  Past capacity, full pipelines make every send late.
        slo = stats.slo_rate(steps, P99_LIMIT_MS) or 0
        lateness = [x for s in steps if s["rate"] <= slo for x in s["lateness_ms"]]
        sent = sum(len(s["lateness_ms"]) for s in steps)
        return {
            "shard.latency_p50_ms": shard_p50 or 0.0,
            "shard.latency_p99_ms": stats.bucket_percentile(shard_hist, 0.99) or 0.0,
            "shard.cpu_s": self.cpu[1],
            "shard.byte_cache_hit_ratio": cache.get("byte_hits", 0) / lookups if lookups else 0.0,
            "shard.shed_429": responses.get("429", 0),
            "router.latency_p50_ms": router_p50 or 0.0,
            "router.hop_p50_ms": (router_p50 - shard_p50) if router_p50 and shard_p50 else 0.0,
            "router.cpu_s": self.cpu[0],
            "router.failovers": (after["router"]["proxy"]["failovers"]
                                 - before["router"]["proxy"]["failovers"]),
            "loadgen.sent": sent,
            "loadgen.failed": sum(s["failed"] for s in steps),
            "loadgen.lateness_p99_ms": stats.percentile(lateness, 0.99) or 0.0,
        }

    # -- teardown -------------------------------------------------------

    def teardown(self) -> None:
        """SIGINT the fleet, then reap: any process left is a leak."""
        if self.proc is None:
            return
        pids = self.pids or [self.proc.pid]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and any(alive(p) for p in pids):
            time.sleep(0.05)
        self.leaked = [p for p in pids if alive(p)]
        for pid in self.leaked:
            try:
                os.killpg(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if self.proc.poll() is None:
            self.proc.wait(timeout=5)
        self.proc = None
