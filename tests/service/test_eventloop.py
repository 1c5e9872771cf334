"""Event-loop server: overload bursts, pipelining, and buffer bounds.

The contract tests in ``test_http_cli.py`` already pin the HTTP
surface (routes, errors, ETags, drain) — this file exercises the
behaviors that only exist because the server is a non-blocking loop:

* an **open-loop burst past saturation** answers every request with
  either the bit-identical 200 body or a structured 429 carrying
  ``Retry-After`` — no third outcome, no torn connections;
* **pipelined** requests on one connection come back in order;
* oversized request heads are cut off with a **431** before they can
  grow the read buffer without bound;
* a client that stops reading has its pipelined work **paused** (the
  write-buffer cap), then served completely once it drains;
* idle connections are reaped after ``request_timeout``, and the
  :class:`ServiceClient` transparently replays an idempotent GET when
  its kept-alive socket was reaped between requests.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
import loadgen  # noqa: E402

from repro.core.measure import BenefitCurves, measure_workload  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.engine import QueryEngine  # noqa: E402
from repro.service.http import (  # noqa: E402
    MAX_HEADER_BYTES,
    make_server,
    shutdown_gracefully,
)
from repro.store import CurveStore, StoreKey  # noqa: E402

TEST_REFERENCES = 60_000


@pytest.fixture(scope="module")
def curves():
    single = measure_workload("ousterhout", "mach", references=TEST_REFERENCES)
    return BenefitCurves(os_name="mach", per_workload=[single])


@pytest.fixture(scope="module")
def store(tmp_path_factory, curves):
    store = CurveStore(tmp_path_factory.mktemp("loop-store") / "store")
    store.build(curves, StoreKey.current("mach", suite=("ousterhout",)))
    return store


def _serve(engine, **kwargs):
    server = make_server(engine, port=0, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop(server, thread):
    shutdown_gracefully(server, deadline_s=5.0)
    thread.join(timeout=10.0)


def _base(server) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def _budget_payloads(engine, count: int, seed: int) -> list[bytes]:
    import numpy as np

    priced = engine.priced_space("mach")
    rng = np.random.default_rng(seed)
    budgets = rng.uniform(
        priced.min_area() * 1.05, float(priced.area_grid.max()), count
    )
    return [
        json.dumps(
            {"type": "point", "os": "mach", "budget": float(b), "limit": 3}
        ).encode()
        for b in budgets
    ]


def _read_responses(sock: socket.socket, n: int, deadline_s: float = 30.0):
    """Read exactly n HTTP responses off a blocking socket; returns
    [(status, body_bytes)]."""
    sock.settimeout(deadline_s)
    buf = bytearray()
    out = []
    while len(out) < n:
        head_end = buf.find(b"\r\n\r\n")
        if head_end < 0:
            chunk = sock.recv(262144)
            if not chunk:
                raise AssertionError(
                    f"connection closed after {len(out)}/{n} responses"
                )
            buf += chunk
            continue
        head = bytes(buf[:head_end]).decode("latin-1")
        del buf[:head_end + 4]
        status = int(head.split("\r\n")[0].split()[1])
        length = 0
        for line in head.split("\r\n")[1:]:
            if line.lower().startswith("content-length:"):
                length = int(line.split(":", 1)[1])
        while len(buf) < length:
            chunk = sock.recv(262144)
            if not chunk:
                raise AssertionError("connection closed mid-body")
            buf += chunk
        out.append((status, bytes(buf[:length])))
        del buf[:length]
    return out


class TestOverloadBurst:
    def test_burst_past_saturation_bit_identical_or_shed(self, store):
        """2x-saturation open-loop burst of cache-busting queries:
        every answer is the exact 200 bytes or a structured 429."""
        engine = QueryEngine(store, result_cache_size=8)
        engine.priced_space("mach")
        payloads = _budget_payloads(engine, 1200, seed=91)
        server, thread = _serve(engine, max_inflight=4)
        try:
            capacity = loadgen.run_load(
                _base(server), payloads[:200], rate=None, total=200,
                connections=8,
            )["achieved_qps"]
            burst = loadgen.run_load(
                _base(server), payloads[200:],
                rate=max(100.0, capacity * 2.0), duration_s=1.5,
                connections=32, pipeline_depth=4, collect_bodies=True,
            )
        finally:
            _stop(server, thread)

        assert burst["completed"] > 0
        assert burst["dropped_conns"] == 0
        statuses = {int(k) for k in burst["statuses"]}
        assert statuses <= {200, 429}, f"unexpected statuses: {statuses}"
        assert burst["shed_429"] > 0, "overload never engaged shedding"
        # Every 429 carries Retry-After.
        assert burst["retry_after_seen"] == burst["shed_429"]

        # Differential: a fresh engine over the same store produces the
        # canonical body bytes for each request; every served 200 must
        # match them bit-for-bit, overload or not.
        reference = QueryEngine(store)
        burst_payloads = payloads[200:]
        for payload_idx, status, body in burst["bodies"]:
            request_bytes = burst_payloads[payload_idx % len(burst_payloads)]
            if status == 200:
                want, _etag = reference.query_bytes(
                    json.loads(request_bytes)
                )
                assert body == want
            else:
                shed = json.loads(body)
                assert shed["ok"] is False
                assert shed["error"]["code"] == "overloaded"
                assert shed["request_id"]


class TestPipelining:
    def test_pipelined_requests_answered_in_order(self, store):
        engine = QueryEngine(store)
        engine.priced_space("mach")
        payloads = _budget_payloads(engine, 6, seed=13)
        server, thread = _serve(engine)
        try:
            host, port = server.server_address[:2]
            wire = b"".join(
                loadgen.build_post("/v1/query", p) for p in payloads
            )
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(wire)
                responses = _read_responses(sock, len(payloads))
        finally:
            _stop(server, thread)

        reference = QueryEngine(store)
        for (status, body), payload in zip(responses, payloads):
            assert status == 200
            assert body == reference.query_bytes(json.loads(payload))[0]

    def test_stalled_reader_is_paused_then_served(self, store):
        """Pipelining big responses into a non-reading client must cap
        the write buffer (pause, don't balloon), then finish cleanly
        once the client drains."""
        engine = QueryEngine(store)
        priced = engine.priced_space("mach")
        budgets = [float(b) for b in priced.area_grid[:400]]
        body = json.dumps(
            {"type": "batch", "os": "mach", "budgets": budgets, "limit": 5}
        ).encode()
        count = 24
        server, thread = _serve(engine, max_write_buffer=256 * 1024)
        try:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=30) as sock:
                sock.sendall(
                    loadgen.build_post("/v1/query", body) * count
                )
                time.sleep(0.6)  # let the server hit the buffer cap
                responses = _read_responses(sock, count)
        finally:
            _stop(server, thread)
        assert [status for status, _ in responses] == [200] * count
        first = responses[0][1]
        assert all(body == first for _, body in responses)


class TestReadBounds:
    def test_oversized_header_rejected_431(self, store):
        engine = QueryEngine(store)
        server, thread = _serve(engine)
        try:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b"GET /v1/health HTTP/1.1\r\nHost: x\r\n")
                filler = b"X-Filler: " + b"y" * 4096 + b"\r\n"
                sent = 0
                try:
                    while sent <= MAX_HEADER_BYTES + len(filler):
                        sock.sendall(filler)
                        sent += len(filler)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # server may cut us off mid-send; fine
                status, body = _read_responses(sock, 1)[0]
                assert status == 431
                payload = json.loads(body)
                assert payload["ok"] is False
                # And the connection is closed behind the 431.
                assert sock.recv(4096) == b""
        finally:
            _stop(server, thread)

    def test_idle_connection_reaped_after_timeout(self, store):
        engine = QueryEngine(store)
        server, thread = _serve(engine, request_timeout=0.4)
        try:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.settimeout(10)
                deadline = time.monotonic() + 5.0
                while True:  # sweep cadence is 0.25s; poll until reaped
                    try:
                        if sock.recv(4096) == b"":
                            break
                    except socket.timeout:
                        pass
                    assert time.monotonic() < deadline, "never reaped"
        finally:
            _stop(server, thread)


class TestClientKeepAlive:
    def test_stale_kept_alive_socket_replayed_transparently(self, store):
        engine = QueryEngine(store)
        server, thread = _serve(engine, request_timeout=0.4)
        client = ServiceClient(_base(server))
        try:
            assert client.health()["status"] == "serving"
            assert client.stale_retries == 0
            time.sleep(1.0)  # idle past request_timeout: socket reaped
            assert client.health()["status"] == "serving"
            assert client.stale_retries == 1
            # The replay is invisible to the retry budget.
            assert client.retries_used == 0
        finally:
            client.close()
            _stop(server, thread)

    def test_keep_alive_reuses_one_connection(self, store):
        engine = QueryEngine(store)
        engine.priced_space("mach")
        server, thread = _serve(engine)
        client = ServiceClient(_base(server))
        try:
            client.health()
            first_conn = client._conn
            assert first_conn is not None
            for _ in range(5):
                client.health()
            client.query(
                {"type": "point", "os": "mach", "budget": 250_000.0}
            )
            # Same kept-alive HTTPConnection object across all of it.
            assert client._conn is first_conn
            assert client.stale_retries == 0
            assert client.attempts_made == 7
        finally:
            client.close()
            _stop(server, thread)


class TestInlineAnswers:
    """Warm-space point queries are answered on the loop thread; the
    rest still go to the executor.  Either way the bytes and the cache
    accounting are the executor path's."""

    def _sequence(self, engine) -> list[dict]:
        """``limit: 1`` points over the warm space (repeats included),
        plus shapes that stay off-loop: deeper, unlimited,
        power-budgeted, batch."""
        points = [
            dict(json.loads(p), limit=1)
            for p in _budget_payloads(engine, 12, seed=5)
        ]
        return points + points[:4] + [
            dict(points[0], limit=2),
            {"type": "point", "os": "mach", "budget": 250_000.0},
            {"type": "point", "os": "mach", "budget": 250_000.0,
             "limit": 2, "power_budget": 1e12},
            {"type": "batch", "os": "mach", "budgets": [200_000.0]},
        ]

    def test_inline_bytes_equal_executor_bytes(self, store):
        warm = QueryEngine(store)
        warm.priced_space("mach")
        cold = QueryEngine(store)
        for request in self._sequence(warm)[:12]:
            inline = warm.try_cached_bytes(dict(request))
            assert inline is not None  # answered without the executor
            assert inline == cold.query_bytes(dict(request))
        unlimited = {"type": "point", "os": "mach", "budget": 250_000.0}
        assert warm.try_cached_bytes(unlimited) is None
        assert QueryEngine(store).try_cached_bytes(
            {"type": "point", "os": "mach", "budget": 250_000.0, "limit": 1}
        ) is None  # cold space: the executor prices it

    def test_stats_match_the_executor_path(self, store):
        served = QueryEngine(store)
        served.priced_space("mach")
        reference = QueryEngine(store)
        reference.priced_space("mach")
        sequence = self._sequence(served)
        server, thread = _serve(served)
        submitted = []
        real_submit = server._executor.submit

        def counting_submit(fn, *args):
            submitted.append(fn)
            return real_submit(fn, *args)

        server._executor.submit = counting_submit
        client = ServiceClient(_base(server))
        try:
            for request in sequence:
                client.query(dict(request))
        finally:
            client.close()
            _stop(server, thread)
        for request in sequence:
            reference.query_bytes(dict(request))
        keys = ("byte_hits", "byte_misses", "hits", "misses")
        assert {k: served.stats[k] for k in keys} == {
            k: reference.stats[k] for k in keys
        }
        assert len(submitted) == 4  # only the off-loop shapes

    def test_cold_pricing_stays_off_the_loop(self, store):
        engine = QueryEngine(store)
        real_price = engine.priced_space
        pricing = threading.Event()

        def slow_price(*args, **kwargs):
            pricing.set()
            time.sleep(1.0)
            return real_price(*args, **kwargs)

        engine.priced_space = slow_price
        server, thread = _serve(engine)
        outcome = {}

        def cold_query():
            outcome["result"] = ServiceClient(_base(server)).query(
                {"type": "point", "os": "mach", "budget": 250_000.0,
                 "limit": 1}
            )

        querier = threading.Thread(target=cold_query)
        try:
            querier.start()
            assert pricing.wait(timeout=10.0)
            start = time.monotonic()
            health = ServiceClient(_base(server)).health()
            elapsed = time.monotonic() - start
            querier.join(timeout=30.0)
        finally:
            _stop(server, thread)
        assert health["status"] == "serving"
        assert elapsed < 0.5  # answered while the pricing sleeps
        assert outcome["result"]["count"] == 1
