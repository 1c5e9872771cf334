"""End-to-end smoke of the allocation query service (CI job).

Exercises the whole subsystem the way a user would:

1. builds a curve store through the real CLI (``python -m
   repro.service build``) at whatever REPRO_SCALE is set;
2. runs a batch of CLI queries (point, batch sweep, pareto) and
   checks their shapes;
3. performs one HTTP round-trip against a live server;
4. asserts the service's top-ranked allocations are identical — exact
   floats — to the interpreted ``Allocator._rank_reference`` loop over
   the same curves;
5. re-serves the store with fault injection armed (corrupted store
   reads, injected latency, dropped connections) and hammers it
   through the retrying client — the chaos lands on the event-loop
   server's full dispatch path (fault-active requests skip the raw
   memo), and every request must either succeed with the same
   bit-exact answer or fail with a typed 503, with no 500-class
   response in the metrics;
6. brings up a 2-worker pre-fork fleet with the same faults armed and
   requires (a) a batch sweep bit-identical to the same budgets asked
   point-by-point — whichever worker answers — (b) a working
   ``If-None-Match`` → 304 revalidation, and (c) zero 500-class
   responses in the fleet-aggregated metrics;
7. fires a fixed-rate **open-loop** burst (``benchmarks/loadgen.py``)
   at a single event-loop worker: every response must be a 200, 304
   or structured 429, no connection may be torn down, and open-loop
   p99 (measured from scheduled fire time) must stay under a generous
   ceiling — the \"no hangs, no garbage under load\" gate;
8. launches a 3-shard / R=2 **fleet** (``repro.fleet``: consistent-hash
   router + pre-fork shards) with latency/drop faults armed inside the
   shard workers, SIGKILLs one whole shard mid-stream, and requires
   the retrying client to see zero failed and zero wrong answers —
   every response bit-identical to the ``Allocator._rank_reference`` rows
   — plus per-node labels in the router's merged metrics and no
   unstructured 5xx from the router;
9. runs the fleet in trace warm-up mode against an isolated,
   compressing trace plane: one warm-up pass must publish every
   ring-assigned entry, a re-warm must publish zero, and the merged
   metrics must show exactly one trace generation — warm restarts
   never regenerate.

Usage::

    REPRO_SCALE=0.1 PYTHONPATH=src python scripts/service_smoke.py \
        [--store DIR] [--os mach] [--jobs 2] [--faults SPEC]

Pass ``--faults none`` to skip the chaos phase. Exits non-zero with a
message on the first discrepancy.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(
    0, str(Path(__file__).resolve().parent.parent / "benchmarks")
)
import loadgen  # noqa: E402

from repro.core.allocator import DEFAULT_BUDGET_RBES, Allocator
from repro.fleet.local import FleetSupervisor
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.engine import QueryEngine
from repro.service.faults import parse_faults, set_injector
from repro.service.http import make_server, shutdown_gracefully
from repro.service.workers import PreforkServer
from repro.store import CurveStore

# Trip limits keep the chaos bounded so the retrying client always
# gets through eventually; the seed makes CI runs reproducible.
DEFAULT_FAULT_SPEC = (
    "corrupt_store=0.5,corrupt_store_limit=4,"
    "latency_ms=10,latency_prob=0.3,"
    "drop_conn=0.25,drop_conn_limit=6,seed=13"
)

# The fleet phase is a *zero failed answers* gate, so its fault spec
# deliberately omits corrupt_store (which legitimately degrades to a
# typed 503 once retries exhaust): latency and dropped connections are
# the failures failover must fully absorb.
FLEET_FAULT_SPEC = (
    "latency_ms=5,latency_prob=0.3,drop_conn=0.2,drop_conn_limit=8,seed=11"
)
FLEET_QUERIES = 60
FLEET_KILL_AT = 20

# Open-loop gate: modest fixed rate, generous tail ceiling — this is a
# correctness-under-load check for CI's shared runners, not a capacity
# benchmark (BENCH_service.json is where capacity numbers live).
OPENLOOP_RATE_QPS = 1500.0
OPENLOOP_DURATION_S = 2.0
OPENLOOP_P99_CEILING_MS = 1000.0
OPENLOOP_ALLOWED_STATUSES = {200, 304, 429}


def run_cli(*args: str) -> dict:
    """Run one ``python -m repro.service`` command, parsing its JSON."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.service", *args],
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        raise SystemExit(
            f"CLI {' '.join(args)} failed ({result.returncode}):\n"
            f"{result.stdout}\n{result.stderr}"
        )
    return json.loads(result.stdout)


def chaos_phase(store_path: str, os_name: str, spec: str,
                want_rows: list[tuple]) -> None:
    """Serve the store with faults armed; hammer it via the retrying
    client and require structured degradation only."""
    injector = parse_faults(spec)
    previous = set_injector(injector)  # arms the store-read seam
    engine = QueryEngine(CurveStore(store_path))
    server = make_server(engine, port=0, faults=injector)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        client = ServiceClient(
            f"http://{host}:{port}", retries=6, backoff_s=0.02
        )
        ok, degraded = 0, 0
        for i in range(40):
            request = {"type": "point", "os": os_name,
                       "budget": DEFAULT_BUDGET_RBES, "limit": 10}
            try:
                result = client.query(request)
            except ServiceClientError as exc:
                # Retries exhausted against a typed 503 is acceptable
                # degradation; anything else fails the smoke.
                if exc.status not in (None, 503):
                    raise SystemExit(
                        f"chaos query {i} failed non-degraded: {exc}"
                    )
                degraded += 1
                continue
            got = [(a["area_rbe"], a["cpi"], a["tlb"]) for a in
                   result["allocations"]]
            if got != want_rows:
                raise SystemExit(
                    f"chaos query {i} returned a wrong answer: "
                    f"{got[:2]} != {want_rows[:2]}"
                )
            ok += 1
        health = client.health()
        metrics = client.metrics()
        responses = metrics["counters"]["http_responses"]["by_label"]
        fives = [k for k in responses if k.startswith("5") and k != "503"]
        if fives:
            raise SystemExit(
                f"chaos produced 500-class responses: "
                f"{ {k: responses[k] for k in fives} }"
            )
        trips = metrics["faults"]
        print(
            f"    chaos: {ok} ok, {degraded} degraded-503, "
            f"faults tripped {trips}, health={health['status']}",
            flush=True,
        )
        if ok == 0:
            raise SystemExit("chaos phase never succeeded a query")
        if sum(trips.values()) == 0:
            raise SystemExit("fault injector never tripped — spec inert?")
    finally:
        set_injector(previous)
        shutdown_gracefully(server)


def prefork_phase(store_path: str, os_name: str, spec: str) -> None:
    """A faulted 2-worker fleet: batch must equal point-by-point
    answers bit-exactly regardless of worker routing, revalidation
    must 304, and the fleet metrics must show no 500-class response."""

    def engine_factory() -> QueryEngine:
        if spec != "none":
            set_injector(parse_faults(spec))  # per-worker chaos
        return QueryEngine(CurveStore(store_path))

    pool = PreforkServer(engine_factory, workers=2, verbose=False)
    pool.start()
    try:
        base = f"http://{pool.host}:{pool.port}"
        client = ServiceClient(base, retries=8, backoff_s=0.02)
        budgets = [120_000.0, 180_000.0, 250_000.0, 380_000.0, 520_000.0]

        batch = client.query(
            {"type": "batch", "os_names": [os_name], "budgets": budgets,
             "limit": 1}
        )
        for row in batch["results"]:
            point = client.query(
                {"type": "point", "os": os_name, "budget": row["budget"],
                 "limit": 1}
            )
            if point["allocations"] != row["allocations"]:
                raise SystemExit(
                    f"prefork batch/point mismatch at budget "
                    f"{row['budget']}: {row['allocations']} != "
                    f"{point['allocations']}"
                )

        # Conditional revalidation: any worker must honour the ETag the
        # fleet handed out (identical stores => identical validators).
        request_body = json.dumps(
            {"type": "point", "os": os_name, "budget": DEFAULT_BUDGET_RBES,
             "limit": 10}
        ).encode()
        etag = None
        revalidated = False
        for _ in range(12):
            headers = {"Content-Type": "application/json"}
            if etag is not None:
                headers["If-None-Match"] = etag
            request = urllib.request.Request(
                base + "/v1/query", data=request_body, headers=headers
            )
            try:
                with urllib.request.urlopen(request, timeout=30) as response:
                    etag = response.headers.get("ETag") or etag
            except urllib.error.HTTPError as exc:
                if exc.code == 304:
                    revalidated = True
                elif exc.code != 503:
                    raise SystemExit(
                        f"prefork revalidation got HTTP {exc.code}"
                    )
            except (OSError, urllib.error.URLError):
                continue  # injected drop; the loop retries
        if not revalidated:
            raise SystemExit("prefork fleet never answered 304 to a "
                             "matching If-None-Match")

        metrics = client.metrics()
        if sorted(metrics["workers"]) != ["w0", "w1"]:
            raise SystemExit(
                f"fleet metrics missing workers: {metrics['workers']}"
            )
        responses = metrics["counters"]["http_responses"]["by_label"]
        fives = [k for k in responses if k.startswith("5") and k != "503"]
        if fives:
            raise SystemExit(
                f"prefork fleet produced 500-class responses: "
                f"{ {k: responses[k] for k in fives} }"
            )
        print(
            f"    prefork: batch == point over {len(budgets)} budgets, "
            f"304 revalidation ok, responses={responses}",
            flush=True,
        )
    finally:
        pool.stop()


def openloop_phase(store_path: str, os_name: str) -> None:
    """Fixed-rate open-loop burst against one event-loop worker."""
    engine = QueryEngine(CurveStore(store_path))
    priced = engine.priced_space(os_name)
    budgets = [
        priced.min_area() * 1.1 + frac * (
            float(priced.area_grid.max()) - priced.min_area() * 1.1
        )
        for frac in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    ]
    payloads = [
        json.dumps({"type": "point", "os": os_name, "budget": b,
                    "limit": 5}).encode()
        for b in budgets
    ]
    server = make_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        # Warm the byte cache, then offer the fixed open-loop rate.
        loadgen.run_load(base, payloads, rate=None,
                         total=len(payloads) * 2, connections=2)
        result = loadgen.run_load(
            base, payloads, rate=OPENLOOP_RATE_QPS,
            duration_s=OPENLOOP_DURATION_S,
        )
    finally:
        shutdown_gracefully(server)

    bad = {
        status: count for status, count in result["statuses"].items()
        if int(status) not in OPENLOOP_ALLOWED_STATUSES
    }
    if bad:
        raise SystemExit(f"open-loop burst got non-200/304/429: {bad}")
    if result["dropped_conns"]:
        raise SystemExit(
            f"open-loop burst tore down {result['dropped_conns']} "
            "connections"
        )
    p99 = result["latency_ms"]["p99"]
    if p99 > OPENLOOP_P99_CEILING_MS:
        raise SystemExit(
            f"open-loop p99 {p99}ms exceeds the "
            f"{OPENLOOP_P99_CEILING_MS}ms ceiling"
        )
    print(
        f"    open-loop: {result['completed']} answers at "
        f"{result['achieved_qps']} q/s (offered "
        f"{result['offered_rate_qps']}), statuses={result['statuses']}, "
        f"p99={p99}ms, shed={result['shed_429']}",
        flush=True,
    )


def fleet_phase(store_path: str, os_name: str,
                want_rows: list[tuple]) -> None:
    """3-shard / R=2 fleet chaos gate: kill a shard mid-stream, demand
    zero failed and zero wrong answers through the retrying client."""
    fleet = FleetSupervisor(
        store_path, nodes=3, replicas=2,
        faults=FLEET_FAULT_SPEC, probe_interval_s=0.2,
    )
    fleet.start()
    killed = None
    try:
        client = ServiceClient(fleet.base_url, retries=8, backoff_s=0.05)
        request = {"type": "point", "os": os_name,
                   "budget": DEFAULT_BUDGET_RBES, "limit": 10}
        for i in range(FLEET_QUERIES):
            if i == FLEET_KILL_AT:
                killed = "n1"
                fleet.kill_shard(killed)  # SIGKILL: master + workers
            result = client.query(dict(request))  # a failure here fails CI
            got = [(a["area_rbe"], a["cpi"], a["tlb"])
                   for a in result["allocations"]]
            if got != want_rows:
                raise SystemExit(
                    f"fleet query {i} returned a wrong answer "
                    f"{'after' if killed else 'before'} the kill: "
                    f"{got[:2]} != {want_rows[:2]}"
                )

        with urllib.request.urlopen(
            fleet.base_url + "/v1/metrics", timeout=30
        ) as response:
            view = json.loads(response.read())["result"]
        if set(view["nodes"]) != {"n0", "n1", "n2"}:
            raise SystemExit(
                f"fleet metrics missing node labels: {sorted(view['nodes'])}"
            )
        if view["nodes"][killed]["status"] != "down":
            raise SystemExit(
                f"killed shard {killed} not reported down: "
                f"{view['nodes'][killed]}"
            )
        router_responses = (
            view["router"]["counters"]["http_responses"]["by_label"]
        )
        fives = [k for k in router_responses
                 if k.startswith("5") and k != "503"]
        if fives:
            raise SystemExit(
                f"router produced unstructured 5xx: "
                f"{ {k: router_responses[k] for k in fives} }"
            )
        proxy = view["router"]["proxy"]
        if proxy["failovers"] == 0:
            raise SystemExit(
                "shard kill never exercised failover — gate inert? "
                f"proxy={proxy}"
            )
        print(
            f"    fleet: {FLEET_QUERIES} queries, {killed} SIGKILLed at "
            f"#{FLEET_KILL_AT}, zero failed, zero wrong, "
            f"failovers={proxy['failovers']}, "
            f"router responses={router_responses}",
            flush=True,
        )
    finally:
        fleet.stop()


def warm_phase(store_path: str, os_name: str) -> None:
    """Fleet trace warm-up gate: every assigned entry published once,
    re-warm publishes nothing, no trace generation after warm-up."""
    import os
    import shutil
    import tempfile

    cache_dir = tempfile.mkdtemp(prefix="repro-smoke-traces-")
    saved = {
        key: os.environ.get(key)
        for key in ("REPRO_TRACE_CACHE", "REPRO_TRACE_COMPRESS")
    }
    # Set before start() so the forked shards inherit an isolated,
    # compressing trace plane.
    os.environ["REPRO_TRACE_CACHE"] = cache_dir
    os.environ["REPRO_TRACE_COMPRESS"] = "zlib"
    fleet = FleetSupervisor(store_path, nodes=2, replicas=1)
    try:
        fleet.start()
        warm_kwargs = dict(
            references=40_000, workloads=("ousterhout",),
            os_names=(os_name,),
        )
        report = fleet.warm_traces(**warm_kwargs)
        if report["errors"]:
            raise SystemExit(f"warm-up reported errors: {report['errors']}")
        if report["published"] != 1 or report["entries"] != 1:
            raise SystemExit(f"expected exactly one warmed entry: {report}")

        from repro.trace import tracestore
        key = tracestore.key_for("ousterhout", os_name, 40_000, 1)
        if not tracestore.has(key):
            raise SystemExit(
                f"warmed entry missing from the shared cache: {key}"
            )

        again = fleet.warm_traces(**warm_kwargs)
        if again["published"] != 0 or again["entries"] != 1:
            raise SystemExit(f"re-warm regenerated entries: {again}")

        with urllib.request.urlopen(
            fleet.base_url + "/v1/metrics", timeout=30
        ) as response:
            view = json.loads(response.read())["result"]
        generations = (
            view.get("counters", {})
            .get("trace_plane_generations", {})
            .get("total", 0)
        )
        if generations != 1:
            raise SystemExit(
                "trace plane generated "
                f"{generations} times across warm-up + re-warm "
                "(want exactly 1: warm restarts must not regenerate)"
            )
        print(
            f"    warm-up: {report['published']} entry published, "
            f"re-warm published 0, generations={generations}",
            flush=True,
        )
    finally:
        fleet.stop()
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(cache_dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", default=".repro-store-smoke")
    parser.add_argument("--os", default="mach", dest="os_name")
    parser.add_argument("--jobs", default=None)
    parser.add_argument(
        "--faults", default=DEFAULT_FAULT_SPEC, metavar="SPEC",
        help="fault spec for the chaos phase, or 'none' to skip "
             f"(default: {DEFAULT_FAULT_SPEC})",
    )
    args = parser.parse_args(argv)
    store_args = ["--store", args.store]

    print(f"[1/9] building store at {args.store} ...", flush=True)
    build_args = ["build", "--os", args.os_name, *store_args]
    if args.jobs is not None:
        build_args += ["--jobs", str(args.jobs)]
    built = run_cli(*build_args)
    assert built["ok"] and built["built"], f"build failed: {built}"

    print("[2/9] CLI query batch ...", flush=True)
    point = run_cli(
        "query", *store_args, "--request",
        json.dumps({"type": "point", "os": args.os_name,
                    "budget": DEFAULT_BUDGET_RBES, "limit": 10}),
    )
    assert point["result"]["count"] == 10, point
    sweep = run_cli(
        "query", *store_args, "--request",
        json.dumps({"type": "batch", "os": args.os_name,
                    "budgets": [100_000, 250_000, 500_000]}),
    )
    assert sweep["result"]["count"] == 3, sweep
    assert all(r["feasible"] for r in sweep["result"]["results"]), sweep
    pareto = run_cli(
        "query", *store_args, "--request",
        json.dumps({"type": "pareto", "os": args.os_name,
                    "max_budget": DEFAULT_BUDGET_RBES}),
    )
    frontier = pareto["result"]["frontier"]
    assert frontier, "empty pareto frontier"
    cpis = [p["cpi"] for p in frontier]
    assert cpis == sorted(cpis), "pareto frontier not CPI-sorted"
    info = run_cli("info", *store_args)
    assert info["exists"] and len(info["entries"]) == 1, info

    print("[3/9] HTTP round-trip ...", flush=True)
    server = make_server(QueryEngine(CurveStore(args.store)), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/query",
            data=json.dumps({"type": "point", "os": args.os_name,
                             "budget": DEFAULT_BUDGET_RBES,
                             "limit": 10}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            http_payload = json.loads(response.read())
    finally:
        server.shutdown()
        server.server_close()
    assert http_payload["ok"], http_payload
    if http_payload["result"] != point["result"]:
        raise SystemExit("HTTP and CLI answers differ for the same query")

    print("[4/9] differential check vs direct Allocator path ...", flush=True)
    store = CurveStore(args.store)
    curves = store.load(store.find_current(args.os_name))
    direct = Allocator(
        curves, budget_rbes=DEFAULT_BUDGET_RBES
    )._rank_reference(limit=10)
    served = point["result"]["allocations"]
    for rank, (got, want) in enumerate(zip(served, direct), start=1):
        if (got["area_rbe"], got["cpi"]) != (want.area_rbe, want.cpi):
            raise SystemExit(
                f"rank {rank} differs: service ({got['area_rbe']}, "
                f"{got['cpi']}) vs allocator ({want.area_rbe}, {want.cpi})"
            )
        if got["tlb"] != want.config.tlb.label():
            raise SystemExit(f"rank {rank} config differs: {got} vs {want}")

    want_rows = [(a["area_rbe"], a["cpi"], a["tlb"]) for a in served]
    if args.faults != "none":
        print(f"[5/9] chaos phase with faults: {args.faults} ...", flush=True)
        chaos_phase(args.store, args.os_name, args.faults, want_rows)
    else:
        print("[5/9] chaos phase skipped (--faults none)", flush=True)

    print(f"[6/9] 2-worker pre-fork fleet (faults: {args.faults}) ...",
          flush=True)
    prefork_phase(args.store, args.os_name, args.faults)

    print("[7/9] open-loop burst ...", flush=True)
    openloop_phase(args.store, args.os_name)

    print(f"[8/9] fleet chaos gate (3 shards, R=2, faults: "
          f"{FLEET_FAULT_SPEC}) ...", flush=True)
    fleet_phase(args.store, args.os_name, want_rows)

    print("[9/9] fleet trace warm-up ...", flush=True)
    warm_phase(args.store, args.os_name)
    print("service smoke OK: CLI, HTTP, direct, chaos, pre-fork, "
          "open-loop, fleet and warm-up paths agree")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
