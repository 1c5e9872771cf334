"""The observability layer: metrics, tracing, structured logs.

Unit tests for the instruments plus end-to-end checks that the HTTP
layer actually emits them: one JSON log line per request carrying the
request ID the response header echoes, spans nesting http.request →
engine.query → store.load, and a /v1/metrics payload whose counters
agree with the traffic sent.
"""

import io
import json
import threading
import urllib.request

import pytest

from repro.core.measure import BenefitCurves, measure_workload
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    JsonLogger,
    MetricsRegistry,
    NullLogger,
    Tracer,
    merge_registry_snapshots,
    set_tracer,
)
from repro.service.client import ServiceClient
from repro.service.engine import QueryEngine
from repro.service.http import make_server
from repro.store import CurveStore, StoreKey

TEST_REFERENCES = 60_000


@pytest.fixture(scope="module")
def curves():
    single = measure_workload("ousterhout", "mach", references=TEST_REFERENCES)
    return BenefitCurves(os_name="mach", per_workload=[single])


@pytest.fixture(scope="module")
def store(tmp_path_factory, curves):
    store = CurveStore(tmp_path_factory.mktemp("obs-store") / "store")
    store.build(curves, StoreKey.current("mach", suite=("ousterhout",)))
    return store


class TestCounterGauge:
    def test_counter_totals_and_labels(self):
        counter = Counter()
        counter.inc()
        counter.inc(2, label="200")
        counter.inc(label="503")
        assert counter.total == 4
        snapshot = counter.snapshot()
        assert snapshot["total"] == 4
        assert snapshot["by_label"] == {"200": 2, "503": 1}

    def test_counter_threaded_increments_all_land(self):
        counter = Counter()
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for _ in range(1000)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.total == 8000

    def test_gauge_high_water(self):
        gauge = Gauge()
        gauge.add(3)
        gauge.sub(1)
        gauge.add(1)
        snapshot = gauge.snapshot()
        assert snapshot["current"] == 3
        assert snapshot["high_water"] == 3


class TestHistogram:
    def test_quantiles_read_off_buckets(self):
        histogram = Histogram(bounds_ms=(1.0, 10.0, 100.0))
        for _ in range(90):
            histogram.observe(0.5)
        for _ in range(10):
            histogram.observe(50.0)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 100
        assert snapshot["p50_ms"] == 1.0  # upper bound of the 0.5 bucket
        assert snapshot["p95_ms"] == 100.0
        assert snapshot["min_ms"] == 0.5
        assert snapshot["max_ms"] == 50.0
        assert snapshot["buckets"] == {
            "le_1": 90, "le_10": 0, "le_100": 10, "le_inf": 0,
        }

    def test_overflow_lands_in_inf_bucket(self):
        histogram = Histogram(bounds_ms=(1.0,))
        histogram.observe(99.0)
        snapshot = histogram.snapshot()
        assert snapshot["buckets"]["le_inf"] == 1
        assert snapshot["p50_ms"] == 99.0  # capped at the observed max

    def test_empty_snapshot(self):
        snapshot = Histogram().snapshot()
        assert snapshot["count"] == 0
        assert snapshot["p50_ms"] is None
        assert snapshot["min_ms"] is None

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram(bounds_ms=(10.0, 1.0))


class TestRegistry:
    def test_instruments_are_memoized(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.gauge("g") is registry.gauge("g")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("reqs").inc(label="200")
        registry.histogram("lat").observe(2.0)
        registry.gauge("inflight").add(1)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["reqs"]["total"] == 1
        assert snapshot["histograms"]["lat"]["count"] == 1
        assert snapshot["gauges"]["inflight"]["current"] == 1


class TestMergeSnapshots:
    def _registry(self, latencies, statuses, inflight):
        registry = MetricsRegistry()
        for status in statuses:
            registry.counter("http_responses").inc(label=status)
        for value in latencies:
            registry.histogram("http_latency_ms").observe(value)
        registry.gauge("http_inflight").add(inflight)
        return registry

    def test_counters_and_buckets_sum_exactly(self):
        a = self._registry([0.2, 3.0], ["200", "200"], 1)
        b = self._registry([0.3, 40.0, 9000.0], ["200", "429", "200"], 2)
        merged = merge_registry_snapshots([a.snapshot(), b.snapshot()])

        responses = merged["counters"]["http_responses"]
        assert responses["total"] == 5
        assert responses["by_label"] == {"200": 4, "429": 1}

        latency = merged["histograms"]["http_latency_ms"]
        assert latency["count"] == 5
        assert latency["min_ms"] == 0.2
        assert latency["max_ms"] == 9000.0
        assert latency["buckets"]["le_inf"] == 1  # the 9 s outlier
        # Percentiles re-read off the merged buckets match a single
        # registry fed the union of samples.
        union = self._registry(
            [0.2, 3.0, 0.3, 40.0, 9000.0], [], 0
        ).snapshot()["histograms"]["http_latency_ms"]
        for q in ("p50_ms", "p95_ms", "p99_ms"):
            assert latency[q] == union[q]

        assert merged["gauges"]["http_inflight"]["current"] == 3

    def test_instrument_missing_from_one_worker(self):
        a = MetricsRegistry()
        a.counter("only_in_a").inc(5)
        b = MetricsRegistry()
        b.histogram("only_in_b").observe(1.0)
        merged = merge_registry_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["only_in_a"]["total"] == 5
        assert merged["histograms"]["only_in_b"]["count"] == 1

    def test_empty_input(self):
        merged = merge_registry_snapshots([])
        assert merged == {"counters": {}, "histograms": {}, "gauges": {}}


class TestTracer:
    def test_nesting_links_parents(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        finished = tracer.finished()
        assert [s["name"] for s in finished] == ["inner", "outer"]
        assert finished[1]["dur_ms"] >= finished[0]["dur_ms"]

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (record,) = tracer.finished()
        assert record["error"] == "ValueError: nope"

    def test_threads_do_not_share_parents(self):
        tracer = Tracer()
        seen = {}

        def worker(name):
            with tracer.span(name) as span:
                seen[name] = span.parent_id

        with tracer.span("main"):
            thread = threading.Thread(target=worker, args=("side",))
            thread.start()
            thread.join()
        assert seen["side"] is None  # not parented under "main"

    def test_ring_buffer_bounded(self):
        tracer = Tracer(buffer_size=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        names = [s["name"] for s in tracer.finished()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_attrs_and_set(self):
        tracer = Tracer()
        with tracer.span("q", os="mach") as span:
            span.set(count=3)
        (record,) = tracer.finished()
        assert record["attrs"] == {"os": "mach", "count": 3}


class TestJsonLogger:
    def test_one_json_object_per_line(self):
        stream = io.StringIO()
        logger = JsonLogger(stream)
        logger.log("request", request_id="abc", status=200, skipped=None)
        logger.log("request", request_id="def", status=404)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["event"] == "request"
        assert first["request_id"] == "abc"
        assert "skipped" not in first  # None fields are elided
        assert first["ts"] > 0

    def test_null_logger_emits_nothing(self):
        assert NullLogger().log("request", status=200) == {}

    def test_closed_stream_never_raises(self):
        stream = io.StringIO()
        stream.close()
        JsonLogger(stream).log("request", status=200)


class TestServedObservability:
    @pytest.fixture
    def served(self, store):
        log_stream = io.StringIO()
        server = make_server(
            QueryEngine(store), port=0, log_stream=log_stream
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield server, f"http://{host}:{port}", log_stream
        server.shutdown()
        server.server_close()

    def test_request_log_line_and_header_id_agree(self, served):
        _, base, log_stream = served
        request = urllib.request.Request(
            f"{base}/v1/query",
            data=json.dumps(
                {"type": "point", "os": "mach", "budget": 250_000,
                 "limit": 1}
            ).encode(),
            headers={"X-Request-Id": "req-test-42"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers["X-Request-Id"] == "req-test-42"
            assert json.loads(response.read())["ok"] is True
        lines = [
            json.loads(line)
            for line in log_stream.getvalue().splitlines()
        ]
        (entry,) = [
            line for line in lines
            if line["event"] == "request" and line["method"] == "POST"
        ]
        assert entry["request_id"] == "req-test-42"
        assert entry["status"] == 200
        assert entry["path"] == "/v1/query"
        assert entry["dur_ms"] > 0

    def test_generated_request_id_on_errors(self, served):
        import urllib.error

        _, base, _ = served
        request = urllib.request.Request(
            f"{base}/v1/query", data=b"{nope", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        generated = excinfo.value.headers["X-Request-Id"]
        assert generated and generated != "-"
        payload = json.loads(excinfo.value.read())
        assert payload["request_id"] == generated

    def test_metrics_endpoint_counts_traffic(self, served):
        _, base, _ = served
        client = ServiceClient(base, retries=0)
        for budget in (150_000, 150_000, 250_000):
            client.query({"type": "point", "os": "mach", "budget": budget})
        metrics = client.metrics()
        assert metrics["counters"]["http_requests"]["by_label"][
            "POST query"
        ] == 3
        # The client revalidates the repeated budget with If-None-Match
        # and the server's byte cache answers it with a body-less 304.
        responses = metrics["counters"]["http_responses"]["by_label"]
        assert responses["200"] >= 2
        assert responses["304"] == 1
        assert metrics["counters"]["http_not_modified"]["total"] == 1
        cache = metrics["engine_cache"]
        assert cache["byte_hits"] == 1 and cache["byte_misses"] == 2
        assert cache["hits"] == 0 and cache["misses"] == 2
        assert cache["hit_rate"] == 0.0
        assert metrics["uptime_s"] >= 0
        assert metrics["faults"] == {
            "corrupt_store": 0, "latency": 0, "drop_conn": 0,
        }
        assert metrics["histograms"]["http_latency_ms"]["count"] >= 3

    def test_spans_nest_through_the_stack(self, store):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            engine = QueryEngine(store)
            engine.query(
                {"type": "point", "os": "mach", "budget": 250_000,
                 "limit": 1}
            )
        finally:
            set_tracer(previous)
        spans = tracer.finished()
        by_name = {s["name"]: s for s in spans}
        assert {"store.load", "engine.price", "engine.point",
                "engine.query"} <= set(by_name)
        query = by_name["engine.query"]
        assert by_name["engine.point"]["trace"] == query["trace"]
        assert by_name["store.load"]["trace"] == query["trace"]
