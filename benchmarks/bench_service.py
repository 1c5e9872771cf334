"""Benchmark: query-service latency over a built curve store.

Separating characterization from queries only pays off if queries are
actually interactive.  This bench builds a reduced-scale store once
(the expensive step every query then skips), and times:

* **cold** — open the store, load + integrity-check the curves, price
  the space, answer one point query: the first-request cost of a
  fresh process.  Held under 100 ms at reduced scale.
* **warm point** — random-budget point queries against a warm engine
  (priced space reused, LRU missed on purpose).
* **cached** — the same query repeated (LRU hit).
* **threaded** — the same warm mix fired from 8 threads at once
  against one shared engine, the shape the HTTP server produces; the
  locked cache must not lose throughput or answers under contention.
* **batch vs point** — a 256-budget sweep answered by ``best_many``
  in one pass over the priced space's answer set, against the same
  sweep as 256 separate reference-predicate mask rankings (the
  pre-index engine's per-point path, kept here as ``_rank_mask``); the
  answers are required to match exactly.
* **HTTP workers** — sustained keep-alive POST throughput over
  loopback against pre-fork fleets.  Worker counts are capped at the
  host's CPU count: benchmarking 4 workers on 1 core measures fork
  overhead plus scheduler churn, not scaling, and earlier runs
  recorded exactly that misleading "slowdown" (``speedup_4v1: 0.53``
  with ``cpu_count: 1``).  Oversubscribed shapes are now flagged and
  skipped instead of reported as regressions.
* **event loop** — closed-loop (depth-1) and pipelined saturation
  capacity of one event-loop worker measured with the open-loop
  generator (``benchmarks/loadgen.py``), and the ratio against the
  PR-5 threaded-server baseline.
* **latency vs offered load** — the open-loop sweep: fixed offered
  rates at 0.25x / 0.5x / 1x / 2x of measured saturation, recording
  tail latency *from scheduled fire time* and the 429 shed rate.
  Closed-loop clients cannot see queueing collapse (they slow their
  own offered rate to match the server); the open-loop curve makes
  the saturation knee and graceful-shedding behavior visible.
* **overload shedding** — a cache-busting miss mix offered at 2x its
  capacity against a small in-flight budget: every answer must be a
  200 or a structured 429 (with ``Retry-After``), never a hang or a
  malformed response.
* **fleet** — the routing-tier tax and payoff: closed-loop p50/p99 and
  saturation q/s for one direct event-loop worker vs the
  consistent-hash router fronting 1-node and 3-node shard fleets
  (R=2, ``repro.fleet``).  Topologies wider than the host are flagged
  ``oversubscribed`` and recorded without assertions, mirroring the
  HTTP-workers policy.

p50/p95 latencies land in ``BENCH_service.json`` at the repo root.
Runs as pytest (``pytest benchmarks/bench_service.py -q -s``) or
standalone (``PYTHONPATH=src python benchmarks/bench_service.py``).
"""

from __future__ import annotations

import http.client
import json
import os
import platform
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

try:
    import loadgen
except ImportError:  # standalone invocation from another cwd
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import loadgen

from repro.core.allocator import (
    DEFAULT_BUDGET_RBES,
    Allocator,
    allocations_from_flat,
    best_many,
)
from repro.errors import BudgetError
from repro.fleet.local import FleetSupervisor
from repro.service.engine import QueryEngine
from repro.service.http import make_server, shutdown_gracefully
from repro.service.workers import PreforkServer
from repro.store import CurveStore

OS_NAME = "mach"
COLD_BUDGET_MS = 100.0
WARM_QUERIES = 200
BENCH_THREADS = 8
QUERIES_PER_THREAD = 50
BATCH_BUDGETS = 256
BATCH_SPEEDUP_FLOOR = 10.0
HTTP_CLIENT_THREADS = 8
HTTP_QUERIES_PER_THREAD = 120
WORKER_SPEEDUP_FLOOR = 3.0
WORKER_SPEEDUP_MIN_CORES = 4
WORKER_TARGET = 4

# PR 5's threaded single-worker throughput on this benchmark's own
# `_http_hammer` (BENCH_service.json @ commit 4f1fbec, cpu_count: 1).
# The event-loop acceptance target is >= 5x this number.
PR5_WORKERS_1_QPS = 2858.7
EVENT_LOOP_SPEEDUP_FLOOR = 5.0

SWEEP_FRACTIONS = (0.25, 0.5, 1.0, 2.0)
SWEEP_DURATION_S = 1.5
SATURATION_PROBE_RATE = 80_000.0
OVERLOAD_MAX_INFLIGHT = 16
# Pipelined requests on one connection are answered in order, so each
# connection holds at most ONE in-flight engine miss; the overload
# phase needs more connections than the in-flight budget or the 429
# path can never trigger.
OVERLOAD_CONNECTIONS = 64

FLEET_TOPOLOGIES = (1, 3)
FLEET_REPLICAS = 2
FLEET_CLOSED_TOTAL = 3000
# Router + 3 shards + the load generator each want a core; below this
# the 3-node numbers measure scheduler churn, not fleet scaling.
FLEET_MIN_CORES = 4

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def _quantiles_ms(samples: list[float]) -> dict:
    arr = np.asarray(samples) * 1e3
    return {
        "p50_ms": round(float(np.percentile(arr, 50)), 3),
        "p95_ms": round(float(np.percentile(arr, 95)), 3),
        "max_ms": round(float(arr.max()), 3),
        "samples": len(samples),
    }


def build_store(root: Path) -> CurveStore:
    """Characterize the suite once (measurement-cache assisted)."""
    store = CurveStore(root)
    if store.find_current(OS_NAME) is None:
        store.build_for_os(OS_NAME)
    return store


def bench_cold(root: Path, reps: int = 3) -> tuple[dict, list]:
    """Fresh store handle + engine per rep: load, price, one query."""
    best = float("inf")
    top = None
    for _ in range(reps):
        t0 = time.perf_counter()
        engine = QueryEngine(CurveStore(root))
        top = engine.point(OS_NAME, DEFAULT_BUDGET_RBES, limit=10)
        best = min(best, time.perf_counter() - t0)
    return {"best_ms": round(best * 1e3, 3), "reps": reps}, top


def bench_warm(root: Path) -> tuple[dict, dict]:
    engine = QueryEngine(CurveStore(root))
    priced = engine.priced_space(OS_NAME)
    rng = np.random.default_rng(7)
    budgets = rng.uniform(
        priced.min_area() * 1.05, float(priced.area_grid.max()), WARM_QUERIES
    )
    warm = []
    for budget in budgets:
        t0 = time.perf_counter()
        engine.query(
            {"type": "point", "os": OS_NAME, "budget": float(budget),
             "limit": 10}
        )
        warm.append(time.perf_counter() - t0)
    cached = []
    request = {"type": "point", "os": OS_NAME,
               "budget": float(DEFAULT_BUDGET_RBES), "limit": 10}
    engine.query(request)
    for _ in range(WARM_QUERIES):
        t0 = time.perf_counter()
        engine.query(request)
        cached.append(time.perf_counter() - t0)
    return _quantiles_ms(warm), _quantiles_ms(cached)


def bench_threaded(root: Path) -> dict:
    """One shared warm engine, hammered from BENCH_THREADS threads.

    Reports aggregate throughput plus per-query latency quantiles; the
    stats invariant (hits + misses == queries issued) doubles as a
    correctness probe on the locked counters.
    """
    engine = QueryEngine(CurveStore(root), result_cache_size=32)
    priced = engine.priced_space(OS_NAME)  # pay pricing up front
    low, high = priced.min_area() * 1.05, float(priced.area_grid.max())
    barrier = threading.Barrier(BENCH_THREADS)
    samples: list[list[float]] = [[] for _ in range(BENCH_THREADS)]

    def worker(tid: int) -> None:
        rng = np.random.default_rng(100 + tid)
        # A small shared budget pool so threads collide on cache keys.
        budgets = rng.choice(
            np.linspace(low, high, 16), size=QUERIES_PER_THREAD
        )
        barrier.wait()
        for budget in budgets:
            t0 = time.perf_counter()
            engine.query(
                {"type": "point", "os": OS_NAME, "budget": float(budget),
                 "limit": 10}
            )
            samples[tid].append(time.perf_counter() - t0)

    pool = [
        threading.Thread(target=worker, args=(tid,))
        for tid in range(BENCH_THREADS)
    ]
    t0 = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    wall_s = time.perf_counter() - t0

    total = BENCH_THREADS * QUERIES_PER_THREAD
    stats = engine.stats
    merged = [s for per_thread in samples for s in per_thread]
    result = _quantiles_ms(merged)
    result.update(
        threads=BENCH_THREADS,
        queries=total,
        wall_s=round(wall_s, 4),
        queries_per_s=round(total / wall_s, 1),
        cache_hits=stats["hits"],
        cache_misses=stats["misses"],
        stats_consistent=(stats["hits"] + stats["misses"] == total),
    )
    return result


def _rank_mask(priced, budget_rbes: float, limit: int | None = None) -> list:
    """The per-budget ranking the engine ran before budget indexing: the
    reference predicate as a 3-D broadcast mask, filtered through the
    rank order.

    Raises:
        BudgetError: if no combination fits the budget.
    """
    t_area, i_area, d_area = priced.t_area, priced.i_area, priced.d_area
    budget_left = budget_rbes - t_area[:, None] - i_area[None, :]
    feasible_mask = (budget_left[:, :, None] >= 0) & (
        d_area[None, None, :] <= budget_left[:, :, None]
    )
    order_all = priced.sorted_order
    ranked = order_all[feasible_mask.ravel()[order_all]]
    if ranked.size == 0:
        raise BudgetError(f"no configuration fits within {budget_rbes} rbes")
    if limit is not None:
        ranked = ranked[:limit]
    return allocations_from_flat(priced, ranked)


def bench_batch_vs_point(root: Path) -> dict:
    """One vectorized 256-budget batch vs 256 per-point rankings.

    The per-point baseline is :func:`_rank_mask` — the kernel the
    engine used for every point before budget indexing — so the ratio
    is the real algorithmic win, and the two answer sets must match
    exactly (infeasible budgets map to empty lists both ways).
    """
    engine = QueryEngine(CurveStore(root))
    priced = engine.priced_space(OS_NAME)
    rng = np.random.default_rng(17)
    budgets = rng.uniform(
        priced.min_area() * 0.9, float(priced.area_grid.max()) * 1.1,
        BATCH_BUDGETS,
    ).tolist()

    # The rank order, thresholds and answer set are built once per
    # priced space and amortized over every query the server ever
    # answers; time them separately, not inside the per-batch window.
    t0 = time.perf_counter()
    priced.best_ranks  # builds sorted_order and thresholds on the way
    index_build_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = best_many(priced, budgets)
    batch_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    per_point = []
    for budget in budgets:
        try:
            per_point.append(_rank_mask(priced, budget, limit=1))
        except BudgetError:
            per_point.append([])
    loop_s = time.perf_counter() - t0

    identical = all(
        [(a.config, a.area_rbe, a.cpi) for a in got]
        == [(a.config, a.area_rbe, a.cpi) for a in want]
        for got, want in zip(batched, per_point)
    )
    return {
        "budgets": BATCH_BUDGETS,
        "index_build_ms": round(index_build_s * 1e3, 3),
        "batch_ms": round(batch_s * 1e3, 3),
        "per_point_loop_ms": round(loop_s * 1e3, 3),
        "batch_us_per_budget": round(batch_s / BATCH_BUDGETS * 1e6, 2),
        "loop_us_per_budget": round(loop_s / BATCH_BUDGETS * 1e6, 2),
        "speedup": round(loop_s / batch_s, 1),
        "identical_answers": identical,
    }


def _http_hammer(host: str, port: int, budgets: list[float]) -> dict:
    """Sustained keep-alive POST load from HTTP_CLIENT_THREADS threads."""
    barrier = threading.Barrier(HTTP_CLIENT_THREADS)
    latencies: list[list[float]] = [[] for _ in range(HTTP_CLIENT_THREADS)]
    failures = [0] * HTTP_CLIENT_THREADS

    def _connect() -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(host, port, timeout=30)
        conn.connect()
        # Header and body go out as separate writes; without NODELAY
        # the body segment waits ~40 ms on the server's delayed ACK.
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def worker(tid: int) -> None:
        rng = np.random.default_rng(900 + tid)
        conn = _connect()
        picks = rng.choice(len(budgets), size=HTTP_QUERIES_PER_THREAD)
        barrier.wait()
        for pick in picks:
            body = json.dumps(
                {"type": "point", "os": OS_NAME,
                 "budget": budgets[int(pick)], "limit": 5}
            )
            t0 = time.perf_counter()
            try:
                conn.request(
                    "POST", "/v1/query", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                response.read()
                if response.status != 200:
                    failures[tid] += 1
            except (OSError, http.client.HTTPException):
                failures[tid] += 1
                conn.close()
                conn = _connect()
            latencies[tid].append(time.perf_counter() - t0)
        conn.close()

    pool = [
        threading.Thread(target=worker, args=(tid,))
        for tid in range(HTTP_CLIENT_THREADS)
    ]
    t0 = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    wall_s = time.perf_counter() - t0

    total = HTTP_CLIENT_THREADS * HTTP_QUERIES_PER_THREAD
    result = _quantiles_ms([s for per in latencies for s in per])
    result.update(
        client_threads=HTTP_CLIENT_THREADS,
        queries=total,
        failures=sum(failures),
        wall_s=round(wall_s, 4),
        queries_per_s=round(total / wall_s, 1),
    )
    return result


def bench_http_workers(root: Path) -> dict:
    """Keep-alive POST throughput against pre-fork fleets.

    Worker counts are capped at ``os.cpu_count()``: a 4-worker fleet on
    a 1-core host is pure oversubscription — the hammer then measures
    context-switch churn and reports a "slowdown" that says nothing
    about the server.  The requested shape is still recorded (with
    ``oversubscribed: true``) so the JSON explains itself, but the
    oversubscribed run is skipped and never asserted against.
    """
    engine_factory = lambda: QueryEngine(CurveStore(root))  # noqa: E731
    priced = QueryEngine(CurveStore(root)).priced_space(OS_NAME)
    rng = np.random.default_rng(23)
    budgets = rng.uniform(
        priced.min_area() * 1.05, float(priced.area_grid.max()), 64
    ).tolist()

    cpu_count = os.cpu_count() or 1
    benched = max(1, min(WORKER_TARGET, cpu_count))
    out: dict = {
        "cpu_count": cpu_count,
        "workers_requested": WORKER_TARGET,
        "workers_benched": benched,
        "oversubscribed": benched < WORKER_TARGET,
    }
    for workers in sorted({1, benched}):
        pool = PreforkServer(engine_factory, workers=workers, verbose=False)
        pool.start()
        try:
            _wait_serving(pool.host, pool.port)
            # One warmup pass primes every worker's priced space so the
            # measured window times serving, not first-touch pricing.
            _http_hammer(pool.host, pool.port, budgets[:8])
            out[f"workers_{workers}"] = _http_hammer(
                pool.host, pool.port, budgets
            )
        finally:
            pool.stop()
    if benched > 1:
        out[f"speedup_{benched}v1"] = round(
            out[f"workers_{benched}"]["queries_per_s"]
            / out["workers_1"]["queries_per_s"],
            2,
        )
    else:
        out["multi_worker_note"] = (
            f"host has {cpu_count} CPU(s); a {WORKER_TARGET}-worker fleet "
            "would oversubscribe the core and report scheduler churn as a "
            "slowdown, so only workers_1 is measured"
        )
    return out


def _wait_serving(host: str, port: int, deadline_s: float = 30.0) -> None:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            conn = http.client.HTTPConnection(host, port, timeout=2)
            conn.request("GET", "/v1/health")
            conn.getresponse().read()
            conn.close()
            return
        except OSError:
            time.sleep(0.05)
    raise TimeoutError("pre-fork fleet never started serving")


def _start_loop_server(engine: QueryEngine, **kwargs):
    """One in-process event-loop worker on an ephemeral port."""
    server = make_server(engine, port=0, verbose=False, **kwargs)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _wait_serving(host, port)
    return server, thread, f"http://{host}:{port}"


def _stop_loop_server(server, thread) -> None:
    shutdown_gracefully(server, deadline_s=5.0)
    thread.join(timeout=10.0)


def _point_payloads(priced, count: int, seed: int) -> list[bytes]:
    rng = np.random.default_rng(seed)
    budgets = rng.uniform(
        priced.min_area() * 1.05, float(priced.area_grid.max()), count
    )
    return [
        json.dumps(
            {"type": "point", "os": OS_NAME, "budget": float(b), "limit": 5}
        ).encode()
        for b in budgets
    ]


def _sweep_point(result: loadgen.OpenLoopResult, fraction: float) -> dict:
    return {
        "fraction_of_saturation": fraction,
        "offered_qps": result["offered_rate_qps"],
        "achieved_qps": result["achieved_qps"],
        "completed": result["completed"],
        "statuses": result["statuses"],
        "shed_rate": result["shed_rate"],
        "dropped_conns": result["dropped_conns"],
        "latency_ms": result["latency_ms"],
        "ok_latency_ms": result["ok_latency_ms"],
    }


def bench_event_loop(root: Path) -> dict:
    """Single event-loop worker: capacity plus the open-loop sweep.

    Saturation is anchored by a deliberately unreachable offered rate
    (the generator pipelines, the server caps out — the achieved q/s
    *is* the capacity); the sweep then revisits fixed fractions of that
    anchor so the tail-vs-load curve has an interpretable x-axis.  The
    traffic is a 16-budget hot mix, the shape the byte cache serves.
    """
    engine = QueryEngine(CurveStore(root))
    priced = engine.priced_space(OS_NAME)
    payloads = _point_payloads(priced, 16, seed=31)

    server, thread, base = _start_loop_server(engine)
    try:
        # Warm every payload through the full stack first.
        loadgen.run_load(base, payloads, rate=None, total=len(payloads) * 2,
                         connections=2)
        closed = loadgen.run_load(base, payloads, rate=None, total=6000)
        probe = loadgen.run_load(
            base, payloads, rate=SATURATION_PROBE_RATE, duration_s=1.0
        )
        saturation = probe["achieved_qps"]

        sweep = []
        for fraction in SWEEP_FRACTIONS:
            rate = max(100.0, saturation * fraction)
            result = loadgen.run_load(
                base, payloads, rate=rate, duration_s=SWEEP_DURATION_S
            )
            sweep.append(_sweep_point(result, fraction))
    finally:
        _stop_loop_server(server, thread)

    return {
        "baseline_pr5_workers_1_qps": PR5_WORKERS_1_QPS,
        "closed_loop_depth1_qps": closed["achieved_qps"],
        "closed_loop_latency_ms": closed["latency_ms"],
        "saturation_qps": saturation,
        "speedup_vs_pr5_workers_1": round(saturation / PR5_WORKERS_1_QPS, 2),
        "closed_loop_speedup_vs_pr5": round(
            closed["achieved_qps"] / PR5_WORKERS_1_QPS, 2
        ),
        "latency_vs_offered_load": sweep,
    }


def bench_overload_shedding(root: Path) -> dict:
    """Graceful degradation: a miss mix offered at 2x its capacity.

    Unique budgets against a tiny result cache keep every request off
    the fast path and inside the bounded executor, and a small
    ``max_inflight`` forces the loop to choose: queue or shed.  The
    contract under that pressure is *no third outcome* — every answer
    is a 200 or a structured 429 carrying ``Retry-After``, and no
    connection is torn down mid-response.
    """
    engine = QueryEngine(CurveStore(root), result_cache_size=8)
    priced = engine.priced_space(OS_NAME)
    payloads = _point_payloads(priced, 6000, seed=47)

    server, thread, base = _start_loop_server(
        engine, max_inflight=OVERLOAD_MAX_INFLIGHT
    )
    try:
        capacity = loadgen.run_load(
            base, payloads[:2000], rate=None, total=2000
        )["achieved_qps"]
        overload = loadgen.run_load(
            base, payloads[2000:], rate=max(200.0, capacity * 2.0),
            duration_s=SWEEP_DURATION_S,
            connections=OVERLOAD_CONNECTIONS, pipeline_depth=8,
        )
    finally:
        _stop_loop_server(server, thread)

    statuses = {int(k) for k in overload["statuses"]}
    return {
        "max_inflight": OVERLOAD_MAX_INFLIGHT,
        "miss_capacity_qps": capacity,
        "offered_qps": overload["offered_rate_qps"],
        "achieved_qps": overload["achieved_qps"],
        "completed": overload["completed"],
        "statuses": overload["statuses"],
        "shed_rate": overload["shed_rate"],
        "retry_after_seen": overload["retry_after_seen"],
        "dropped_conns": overload["dropped_conns"],
        "ok_latency_ms": overload["ok_latency_ms"],
        "only_200_or_429": statuses <= {200, 429},
        "shed_engaged": overload["shed_429"] > 0,
        "all_429_carry_retry_after": (
            overload["retry_after_seen"] == overload["shed_429"]
        ),
    }


def _fleet_load_point(base: str, payloads: list[bytes]) -> dict:
    """Warm, closed-loop measure, then probe saturation on one target."""
    loadgen.run_load(base, payloads, rate=None, total=len(payloads) * 2,
                     connections=2)
    closed = loadgen.run_load(
        base, payloads, rate=None, total=FLEET_CLOSED_TOTAL
    )
    probe = loadgen.run_load(
        base, payloads, rate=SATURATION_PROBE_RATE, duration_s=1.0
    )
    ok = probe["statuses"].get("200", 0) + probe["statuses"].get("304", 0)
    return {
        "closed_loop_qps": closed["achieved_qps"],
        "closed_loop_latency_ms": closed["latency_ms"],
        "saturation_qps": probe["achieved_qps"],
        "saturation_ok_qps": round(
            probe["achieved_qps"] * ok / max(probe["completed"], 1), 1
        ),
        "statuses": probe["statuses"],
        "dropped_conns": closed["dropped_conns"] + probe["dropped_conns"],
    }


def bench_fleet(root: Path) -> dict:
    """Router overhead vs direct engine calls, 1-node vs 3-node.

    ``direct`` is one event-loop worker answering for itself — the
    PR-6 serving shape.  ``fleet_N`` puts the consistent-hash router
    in front of N forked pre-fork shards (R=2) and drives the *router*
    with the identical hot mix, so the deltas are pure routing-tier
    cost: one extra loopback hop plus proxy bookkeeping per miss.
    Like the worker bench, topologies wider than the host are recorded
    but flagged ``oversubscribed`` and never asserted against.
    """
    engine = QueryEngine(CurveStore(root))
    priced = engine.priced_space(OS_NAME)
    payloads = _point_payloads(priced, 16, seed=53)

    cpu_count = os.cpu_count() or 1
    out: dict = {
        "cpu_count": cpu_count,
        "replicas": FLEET_REPLICAS,
        "topologies": list(FLEET_TOPOLOGIES),
        "oversubscribed": cpu_count < FLEET_MIN_CORES,
    }

    server, thread, base = _start_loop_server(engine)
    try:
        out["direct"] = _fleet_load_point(base, payloads)
    finally:
        _stop_loop_server(server, thread)

    for nodes in FLEET_TOPOLOGIES:
        fleet = FleetSupervisor(root, nodes=nodes, replicas=FLEET_REPLICAS)
        fleet.start()
        try:
            out[f"fleet_{nodes}"] = _fleet_load_point(
                fleet.base_url, payloads
            )
        finally:
            fleet.stop()

    direct_lat = out["direct"]["closed_loop_latency_ms"]
    router_lat = out["fleet_1"]["closed_loop_latency_ms"]
    out["router_overhead_p50_ms"] = round(
        router_lat["p50"] - direct_lat["p50"], 3
    )
    out["router_overhead_p99_ms"] = round(
        router_lat["p99"] - direct_lat["p99"], 3
    )
    out["scaling_3v1"] = round(
        out["fleet_3"]["saturation_ok_qps"]
        / max(out["fleet_1"]["saturation_ok_qps"], 1.0),
        2,
    )
    if out["oversubscribed"]:
        out["note"] = (
            f"host has {cpu_count} CPU(s); router, shards and the load "
            "generator time-share cores, so latency deltas and the 3v1 "
            "scaling ratio measure scheduler churn and are not asserted"
        )
    return out


def run_bench(root: Path | None = None) -> dict:
    if root is None:
        root = Path(tempfile.mkdtemp(prefix="repro-store-bench-")) / "store"
    store = build_store(root)
    cold, served_top = bench_cold(root)
    warm, cached = bench_warm(root)
    threaded = bench_threaded(root)
    batch = bench_batch_vs_point(root)
    http_workers = bench_http_workers(root)
    event_loop = bench_event_loop(root)
    overload = bench_overload_shedding(root)
    fleet = bench_fleet(root)

    # The service must agree with the interpreted triple loop
    # bit-for-bit.
    curves = store.load(store.find_current(OS_NAME))
    direct = Allocator(
        curves, budget_rbes=DEFAULT_BUDGET_RBES
    )._rank_reference(limit=10)
    identical = served_top == direct

    payload = {
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "os_name": OS_NAME,
        "store_root": str(root),
        "cold_load_plus_point_query": cold,
        "warm_point_query": warm,
        "cached_point_query": cached,
        "threaded_point_query": threaded,
        "batch_vs_point": batch,
        "http_workers": http_workers,
        "event_loop": event_loop,
        "latency_vs_offered_load": event_loop["latency_vs_offered_load"],
        "overload_shedding": overload,
        "fleet": fleet,
        "identical_to_bruteforce": identical,
        "recorded": time.strftime("%Y-%m-%d"),
    }
    payload["history"] = _history()
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _history() -> list[dict]:
    """Every earlier run recorded in ``BENCH_service.json``, oldest first.

    The figures are a trajectory across server designs and hosts, so a
    re-run keeps the runs already recorded instead of replacing them.
    """
    try:
        previous = json.loads(OUTPUT.read_text())
    except (OSError, ValueError):
        return []
    history = previous.pop("history", [])
    return history + [previous]


def test_service_latency(show):
    payload = run_bench()
    show(
        "Service query latency",
        json.dumps(
            {k: payload[k] for k in (
                "cold_load_plus_point_query",
                "warm_point_query",
                "cached_point_query",
                "threaded_point_query",
                "batch_vs_point",
                "http_workers",
                "event_loop",
                "overload_shedding",
                "fleet",
            )},
            indent=2,
        ),
    )
    assert payload["identical_to_bruteforce"]
    assert payload["cold_load_plus_point_query"]["best_ms"] < COLD_BUDGET_MS
    assert payload["warm_point_query"]["p95_ms"] < COLD_BUDGET_MS
    assert payload["threaded_point_query"]["stats_consistent"]

    batch = payload["batch_vs_point"]
    assert batch["identical_answers"]
    assert batch["speedup"] >= BATCH_SPEEDUP_FLOOR

    workers = payload["http_workers"]
    benched = workers["workers_benched"]
    assert workers["workers_1"]["failures"] == 0
    assert workers[f"workers_{benched}"]["failures"] == 0
    if benched >= WORKER_SPEEDUP_MIN_CORES:
        # Worker scaling is a hardware claim; on fewer cores the fleet
        # can't beat one process, so only record the numbers there.
        assert workers[f"speedup_{benched}v1"] >= WORKER_SPEEDUP_FLOOR

    loop = payload["event_loop"]
    # The PR's headline number: one event-loop worker must beat PR 5's
    # threaded single worker by >= 5x at saturation.
    assert loop["speedup_vs_pr5_workers_1"] >= EVENT_LOOP_SPEEDUP_FLOOR
    # At half of saturation the tail must stay near the median: p95
    # within 10x of p50 (with a small absolute floor so microsecond
    # medians don't turn scheduler jitter into a failure).
    half = next(
        point for point in loop["latency_vs_offered_load"]
        if point["fraction_of_saturation"] == 0.5
    )
    assert half["latency_ms"]["p95"] <= max(
        10.0 * half["latency_ms"]["p50"], 5.0
    )
    for point in loop["latency_vs_offered_load"]:
        assert point["dropped_conns"] == 0

    shed = payload["overload_shedding"]
    assert shed["only_200_or_429"]
    assert shed["shed_engaged"]
    assert shed["all_429_carry_retry_after"]
    assert shed["dropped_conns"] == 0

    fleet = payload["fleet"]
    for key in ("direct", "fleet_1", "fleet_3"):
        assert fleet[key]["dropped_conns"] == 0
        assert {int(s) for s in fleet[key]["statuses"]} <= {200, 304, 429}
    if not fleet["oversubscribed"]:
        # Scaling and overhead are hardware claims — only asserted when
        # router, shards and the generator get their own cores.
        assert fleet["scaling_3v1"] >= 1.0
        assert fleet["router_overhead_p50_ms"] < 50.0


if __name__ == "__main__":
    result = run_bench()
    print(json.dumps(result, indent=2))
    print(f"wrote {OUTPUT}")
