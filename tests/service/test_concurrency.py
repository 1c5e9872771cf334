"""Concurrency hammer tests: the engine under 32 threads of fire.

The LRU ``OrderedDict`` and stats counters used to be mutated from
``ThreadingHTTPServer`` handler threads with no lock — concurrent
``move_to_end``/``popitem`` raise ``KeyError`` and drop entries, and
the counters under-count.  These tests drive the shared engine (and
the full HTTP stack) with mixed point/batch/pareto traffic from many
threads, with a deliberately tiny result cache so eviction churns, and
require every single answer to be bit-identical to the brute-force
``Allocator.rank`` path while the stats add up exactly.
"""

import json
import random
import threading

import pytest

from repro.core.allocator import Allocator
from repro.core.measure import BenefitCurves, measure_workload
from repro.errors import StoreError
from repro.service.client import ServiceClient
from repro.service.engine import QueryEngine, allocation_entry
from repro.service.http import make_server
from repro.store import CurveStore, StoreKey
from tests.core.oracles import mask_pareto, mask_rank

pytestmark = pytest.mark.concurrency

TEST_REFERENCES = 60_000
THREADS = 32
QUERIES_PER_THREAD = 64  # 32 x 64 = 2048 >= the 2k acceptance floor

POINT_BUDGETS = [
    120_000.0, 150_000.0, 180_000.0, 210_000.0, 250_000.0,
    300_000.0, 350_000.0, 400_000.0, 500_000.0, 650_000.0,
]
PARETO_BUDGETS = [200_000.0, 400_000.0, None]
BATCH_SWEEPS = [
    [100_000.0, 250_000.0],
    [150_000.0, 300_000.0, 450_000.0],
]


@pytest.fixture(scope="module")
def curves():
    single = measure_workload("ousterhout", "mach", references=TEST_REFERENCES)
    return BenefitCurves(os_name="mach", per_workload=[single])


@pytest.fixture(scope="module")
def store(tmp_path_factory, curves):
    store = CurveStore(tmp_path_factory.mktemp("hammer-store") / "store")
    store.build(curves, StoreKey.current("mach", suite=("ousterhout",)))
    return store


def _rows(allocations):
    """The bit-identity projection: exact floats plus the config label."""
    return [
        (a["area_rbe"], a["cpi"], a["tlb"], a["icache"], a["dcache"])
        for a in allocations
    ]


@pytest.fixture(scope="module")
def expected(curves):
    """Reference-predicate answers for every request the hammer can
    issue."""
    priced = Allocator(curves).price()
    point = {}
    for budget in POINT_BUDGETS:
        ranked = mask_rank(priced, budget, limit=5)
        point[budget] = _rows(
            allocation_entry(i, a) for i, a in enumerate(ranked, 1)
        )
    pareto = {}
    for budget in PARETO_BUDGETS:
        pareto[budget] = _rows(
            allocation_entry(i, a)
            for i, a in enumerate(mask_pareto(priced, budget), 1)
        )
    batch = {}
    for budget in {b for sweep in BATCH_SWEEPS for b in sweep}:
        ranked = mask_rank(priced, budget, limit=1)
        batch[budget] = _rows(
            allocation_entry(i, a) for i, a in enumerate(ranked, 1)
        )
    return {"point": point, "pareto": pareto, "batch": batch}


def _make_request(rng):
    kind = rng.choice(("point", "point", "point", "batch", "pareto"))
    if kind == "point":
        return {
            "type": "point",
            "os": "mach",
            "budget": rng.choice(POINT_BUDGETS),
            "limit": 5,
        }
    if kind == "batch":
        return {"type": "batch", "os": "mach", "budgets": rng.choice(BATCH_SWEEPS)}
    return {
        "type": "pareto",
        "os": "mach",
        "max_budget": rng.choice(PARETO_BUDGETS),
    }


def _check_response(request, response, expected):
    """One response against its brute-force answer; returns an error
    string or None."""
    if request["type"] == "point":
        want = expected["point"][request["budget"]]
        got = _rows(response["allocations"])
    elif request["type"] == "pareto":
        want = expected["pareto"][request["max_budget"]]
        got = _rows(response["frontier"])
    else:
        want = [expected["batch"][b] for b in request["budgets"]]
        got = [_rows(r["allocations"]) for r in response["results"]]
    if got != want:
        return f"mismatch for {request}: {got[:2]} != {want[:2]}"
    return None


def _hammer(issue, expected, threads=THREADS, per_thread=QUERIES_PER_THREAD):
    """Fire mixed queries from many threads; returns collected errors."""
    barrier = threading.Barrier(threads)
    errors: list[str] = []
    errors_lock = threading.Lock()

    def worker(tid: int) -> None:
        rng = random.Random(1000 + tid)
        barrier.wait()
        for _ in range(per_thread):
            request = _make_request(rng)
            try:
                response = issue(request)
            except Exception as exc:
                with errors_lock:
                    errors.append(f"{type(exc).__name__}: {exc} for {request}")
                continue
            problem = _check_response(request, response, expected)
            if problem:
                with errors_lock:
                    errors.append(problem)

    pool = [
        threading.Thread(target=worker, args=(tid,)) for tid in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    return errors


class TestEngineHammer:
    def test_hammer_bit_identical_and_stats_consistent(self, store, expected):
        # A tiny LRU forces constant eviction + reinsertion — the exact
        # churn that corrupted the unlocked OrderedDict.
        engine = QueryEngine(store, result_cache_size=8)
        errors = _hammer(engine.query, expected)
        assert errors == [], errors[:5]

        stats = engine.stats
        total = THREADS * QUERIES_PER_THREAD
        assert stats["hits"] + stats["misses"] == total
        assert stats["hits"] >= stats["coalesced"]
        assert len(engine._results) <= 8
        assert engine._inflight == {}

    def test_single_flight_coalesces_identical_misses(self, store):
        """N threads missing on the same cold key compute it once."""
        engine = QueryEngine(store)
        barrier = threading.Barrier(16)
        responses = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            response = engine.query(
                {"type": "point", "os": "mach", "budget": 222_000, "limit": 3}
            )
            with lock:
                responses.append(response)

        pool = [threading.Thread(target=worker) for _ in range(16)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert len(responses) == 16
        first = responses[0]
        assert all(r is first for r in responses)
        stats = engine.stats
        assert stats["misses"] == 1
        assert stats["hits"] == 15
        assert stats["coalesced"] + (stats["hits"] - stats["coalesced"]) == 15


class TestHttpHammer:
    def test_http_hammer_and_metrics_agree(self, store, expected):
        threads, per_thread = 12, 24
        engine = QueryEngine(store, result_cache_size=8)
        server = make_server(engine, port=0, max_inflight=threads + 4)
        server_thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        server_thread.start()
        try:
            host, port = server.server_address[:2]

            def issue(request):
                # A fresh client per call: threads must not share one.
                client = ServiceClient(f"http://{host}:{port}", retries=0)
                return client.query(request)

            errors = _hammer(
                issue, expected, threads=threads, per_thread=per_thread
            )
            assert errors == [], errors[:5]

            total = threads * per_thread
            client = ServiceClient(f"http://{host}:{port}")
            # Handler threads do their metrics bookkeeping after the
            # response bytes go out, so give the last ones a moment.
            import time as _time

            for _ in range(100):
                metrics = client.metrics()
                requests = metrics["counters"]["http_requests"]["by_label"]
                if requests.get("POST query", 0) >= total:
                    break
                _time.sleep(0.02)
        finally:
            server.shutdown()
            server.server_close()

        # Request counts are split by route, so the settle loop's own
        # metrics GETs don't blur the POST tally.
        assert metrics["counters"]["http_requests"]["by_label"][
            "POST query"
        ] == total
        responses = metrics["counters"]["http_responses"]["by_label"]
        assert [k for k in responses if k.startswith("5")] == []
        assert responses.get("200", 0) >= total
        cache = metrics["engine_cache"]
        # The byte-level response cache fronts the result cache: every
        # POST is exactly one byte-cache lookup, and only byte-cache
        # misses fall through to a full query().  Racing byte misses
        # that lose the publish are tallied as byte hits, so query()
        # traffic sits between byte_misses and total.
        assert cache["byte_hits"] + cache["byte_misses"] == total
        assert cache["byte_misses"] <= cache["hits"] + cache["misses"] <= total
        assert metrics["histograms"]["http_latency_ms"]["count"] >= total


class TestPublishWhileServing:
    def test_store_publish_racing_loads_never_tears(self, tmp_path, curves):
        """Republishing under the served key must never produce a torn
        read: every concurrent load yields one of the two published
        payloads bit-exactly, or (at worst) a StoreError — never a
        deserialization crash."""
        import dataclasses

        store_root = tmp_path / "race-store"
        key = StoreKey.current("mach", suite=("ousterhout",))
        variant_a = curves
        variant_b = BenefitCurves(
            os_name="mach",
            per_workload=[
                dataclasses.replace(
                    curves.per_workload[0],
                    other_cpi=curves.per_workload[0].other_cpi + 1e-3,
                )
            ],
        )
        writer_store = CurveStore(store_root)
        writer_store.build(variant_a, key)

        stop = threading.Event()
        problems: list[str] = []
        loads = 0
        loads_lock = threading.Lock()

        def reader():
            nonlocal loads
            store = CurveStore(store_root)
            while not stop.is_set():
                try:
                    loaded = store.load(key)
                except StoreError:
                    continue  # acceptable: surfaced, typed, retryable
                except Exception as exc:  # torn read crashed the decoder
                    problems.append(f"{type(exc).__name__}: {exc}")
                    return
                if loaded not in (variant_a, variant_b):
                    problems.append("load returned a franken-payload")
                    return
                with loads_lock:
                    loads += 1

        readers = [threading.Thread(target=reader) for _ in range(8)]
        for thread in readers:
            thread.start()
        for i in range(30):
            writer_store.build(variant_b if i % 2 else variant_a, key)
        stop.set()
        for thread in readers:
            thread.join()
        assert problems == []
        assert loads > 0

    def test_corrupt_read_surfaces_as_503_not_500(self, store):
        """The HTTP contract under store trouble: a structured 503."""
        from repro.service.faults import FaultInjector, set_injector

        # The store-read seam draws from the process injector.
        previous = set_injector(FaultInjector(corrupt_store=1.0, seed=3))
        engine = QueryEngine(store)  # cold: the query will hit the store
        server = make_server(engine, port=0)
        server_thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        server_thread.start()
        try:
            host, port = server.server_address[:2]
            import urllib.error
            import urllib.request

            request = urllib.request.Request(
                f"http://{host}:{port}/v1/query",
                data=json.dumps(
                    {"type": "point", "os": "mach", "budget": 250_000}
                ).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 503
            payload = json.loads(excinfo.value.read())
            assert payload["ok"] is False
            assert payload["error"]["code"] == "store_corrupt"
        finally:
            set_injector(previous)
            server.shutdown()
            server.server_close()
