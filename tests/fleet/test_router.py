"""Router tests: transparent proxying, failover, and the fleet view.

These drive a real :class:`RouterHTTPServer` over loopback against
in-process event-loop shards (threads, not forks — process-level chaos
lives in ``test_failover.py``).  The contract under test is the
ISSUE's: the router speaks the *exact* HTTP surface of a single
server, so every answer through it must be bit-identical to the
engine's — including ETags, the binary protocol, and 304 revalidation
— no matter which replica answers or dies.  The router forwards on its
own event loop, so the pipelining, request-order, request-id and
upstream-timeout behavior of that loop is pinned here too.
"""

import io
import json
import http.client
import socket
import threading
import time

import pytest

from repro.errors import BudgetError, RequestError
from repro.service import binproto
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.engine import QueryEngine
from repro.service.faults import FaultInjector
from repro.service.http import make_server, shutdown_gracefully
from repro.fleet import HealthChecker, Ring, make_router
from repro.fleet.ring import shard_key
from repro.fleet.router import RouterEngine
from repro.service.requests import validate_request
from repro.store import CurveStore

pytestmark = pytest.mark.fleet


def _start(server) -> threading.Thread:
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def _stop(server, thread) -> None:
    try:
        shutdown_gracefully(server, deadline_s=2.0)
    except OSError:
        pass
    thread.join(timeout=5.0)


def _cluster(store, shard_faults=(None, None, None)):
    """Three thread-shards (each logging requests to its own buffer)
    behind a router; yields the pieces, torn down in reverse order."""
    shards, logs = [], []
    for faults in shard_faults:
        log = io.StringIO()
        server = make_server(
            QueryEngine(CurveStore.open(store.root)), port=0,
            log_stream=log,
            faults=faults if faults is not None else FaultInjector(),
        )
        shards.append((server, _start(server)))
        logs.append(log)
    topology = {
        f"n{i}": server.server_address[:2]
        for i, (server, _) in enumerate(shards)
    }
    health = HealthChecker(topology)
    health.probe_all()
    router = make_router(topology, replicas=2, health=health)
    router_thread = _start(router)
    host, port = router.server_address[:2]
    yield {
        "router": router,
        "base": f"http://{host}:{port}",
        "shards": shards,
        "logs": logs,
        "topology": topology,
        "health": health,
    }
    _stop(router, router_thread)
    for server, thread in shards:
        _stop(server, thread)


@pytest.fixture()
def cluster(store):
    """Three thread-shards + router, torn down in reverse order."""
    yield from _cluster(store)


def _direct(store):
    return QueryEngine(CurveStore.open(store.root))


POINT = {"type": "point", "os": "mach", "budget": 250_000, "limit": 5}
BATCH = {
    "type": "batch", "os_names": ["mach"],
    "budgets": [150_000.0, 250_000.0, 350_000.0], "limit": 3,
}
PARETO = {"type": "pareto", "os": "mach", "max_budget": 400_000}


class TestTransparentProxy:
    def test_point_batch_pareto_identical_to_engine(self, cluster, store):
        client = ServiceClient(cluster["base"])
        engine = _direct(store)
        for request in (POINT, BATCH, PARETO):
            assert client.query(dict(request)) == engine.query(dict(request))

    def test_binary_batch_identical(self, cluster, store):
        client = ServiceClient(cluster["base"], binary_batch=True)
        assert client.query(dict(BATCH)) == _direct(store).query(dict(BATCH))

    def test_etag_revalidation_at_router_edge(self, cluster):
        client = ServiceClient(cluster["base"])
        first = client.query(dict(POINT))
        again = client.query(dict(POINT))
        assert again == first
        # The repeat was a 304: the router compared the client's
        # validator against the upstream ETag and sent no body.
        assert client.not_modified_hits == 1

    def test_bad_request_is_not_retried_and_keeps_shape(self, cluster):
        client = ServiceClient(cluster["base"], retries=3)
        before = client.attempts_made
        with pytest.raises(ServiceClientError) as excinfo:
            client.query({"type": "point", "os": "mach"})  # no budget
        assert excinfo.value.status == 400
        assert client.attempts_made == before + 1  # definitive, no retry

    def test_router_health_names_nodes(self, cluster):
        host, port = cluster["router"].server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=5)
        conn.request("GET", "/v1/health")
        payload = json.loads(conn.getresponse().read())
        conn.close()
        result = payload["result"]
        assert result["role"] == "router"
        assert result["replicas"] == 2
        assert set(result["nodes"]) == {"n0", "n1", "n2"}
        for info in result["nodes"].values():
            assert info["alive"] is True


class TestFailover:
    def _key_owned_by(self, cluster, label):
        """A point request whose shard's primary owner is ``label``."""
        ring = cluster["router"].engine.ring
        for assoc in (None, 1, 2, 4, 8, 16):
            request = dict(POINT, max_cache_assoc=assoc)
            key = shard_key(validate_request(request))
            if ring.preference(key, 2)[0] == label:
                return request
        pytest.skip(f"no probe key owned by {label}")

    def test_dead_primary_fails_over_with_identical_answer(
        self, cluster, store
    ):
        victim = "n1"
        request = self._key_owned_by(cluster, victim)
        expected = _direct(store).query(dict(request))
        index = int(victim[1:])
        server, thread = cluster["shards"][index]
        shutdown_gracefully(server, deadline_s=2.0)
        thread.join(timeout=5.0)
        client = ServiceClient(cluster["base"])
        assert client.query(dict(request)) == expected
        stats = cluster["router"].engine.stats
        assert stats["failovers"] >= 1

    def test_all_replicas_down_yields_503_with_retry_after(self, cluster):
        for server, thread in cluster["shards"]:
            shutdown_gracefully(server, deadline_s=2.0)
            thread.join(timeout=5.0)
        host, port = cluster["router"].server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.request(
            "POST", "/v1/query", body=json.dumps(POINT).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        raw = response.read()
        assert response.status == 503
        assert response.headers.get("Retry-After") is not None
        assert json.loads(raw)["error"]["code"] == "no_shard_available"
        conn.close()

    def test_client_sees_definitive_error_when_fleet_is_gone(self, cluster):
        for server, thread in cluster["shards"]:
            shutdown_gracefully(server, deadline_s=2.0)
            thread.join(timeout=5.0)
        client = ServiceClient(cluster["base"], retries=1, backoff_s=0.01)
        with pytest.raises(ServiceClientError) as excinfo:
            client.query(dict(POINT))
        assert excinfo.value.status == 503
        assert excinfo.value.code == "no_shard_available"


class TestFleetMetrics:
    def test_exact_merge_with_node_labels(self, cluster, store):
        client = ServiceClient(cluster["base"])
        engine = _direct(store)
        for request in (POINT, BATCH, PARETO):
            assert client.query(dict(request)) == engine.query(dict(request))
        host, port = cluster["router"].server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.request("GET", "/v1/metrics")
        view = json.loads(conn.getresponse().read())["result"]
        conn.close()
        assert set(view["nodes"]) == {"n0", "n1", "n2"}
        assert view["nodes_up"] == ["n0", "n1", "n2"]
        for info in view["nodes"].values():
            assert info["status"] == "up"
        # Exact counter merge: the fleet served exactly the requests
        # the shards served, so summed per-node 200s equal the merged
        # http_responses counter for label "200".
        merged = view["counters"]["http_responses"]["by_label"].get("200", 0)
        summed = sum(
            (info.get("responses") or {}).get("200", 0)
            for info in view["nodes"].values()
        )
        assert merged == summed >= 3
        assert view["router"]["proxy"]["proxied"] >= 3

    def test_down_node_is_labelled_not_dropped(self, cluster):
        server, thread = cluster["shards"][0]
        shutdown_gracefully(server, deadline_s=2.0)
        thread.join(timeout=5.0)
        host, port = cluster["router"].server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.request("GET", "/v1/metrics")
        view = json.loads(conn.getresponse().read())["result"]
        conn.close()
        assert view["nodes"]["n0"]["status"] == "down"
        assert "error" in view["nodes"]["n0"]
        assert view["nodes_up"] == ["n1", "n2"]


class TestRouterEngineUnit:
    def test_candidates_order_alive_first_but_keep_everyone(self):
        topology = {
            "n0": ("127.0.0.1", 1), "n1": ("127.0.0.1", 2),
            "n2": ("127.0.0.1", 3),
        }
        health = HealthChecker(topology, fail_threshold=1, timeout_s=0.05)
        ring = Ring(topology)
        engine = RouterEngine(
            topology, replicas=3, ring=ring, health=health
        )
        health.probe_all()  # nothing listens: everyone marks down
        key = "mach|assoc=None|t=None"
        candidates = engine.candidates(key)
        # All replicas still present — a stale health view must never
        # remove a node from consideration, only deprioritize it.
        assert sorted(candidates) == ["n0", "n1", "n2"]
        assert candidates == ring.preference(key, 3)[:0] + candidates

    def test_validation_happens_before_any_upstream_call(self):
        engine = RouterEngine({"n0": ("127.0.0.1", 1)})
        with pytest.raises(RequestError):
            engine.route({"type": "nope"})
        assert engine.stats["upstream_errors"] == 0

    def test_replicas_clamped_to_node_count(self):
        engine = RouterEngine({"n0": ("127.0.0.1", 1)}, replicas=5)
        assert engine.replicas == 1


def _wire(body: bytes, binary: bool = False, request_id: str | None = None):
    """One keep-alive query POST, ready to pipeline on a raw socket."""
    ctype = binproto.CONTENT_TYPE if binary else "application/json"
    head = (
        f"POST /v1/query HTTP/1.1\r\nHost: test\r\n"
        f"Content-Type: {ctype}\r\nContent-Length: {len(body)}\r\n"
    )
    if request_id is not None:
        head += f"X-Request-Id: {request_id}\r\n"
    return (head + "\r\n").encode() + body


def _read_responses(sock: socket.socket, n: int, deadline_s: float = 30.0):
    """Exactly ``n`` responses off a blocking socket, in arrival order:
    ``[(status, lower-cased headers, body)]``."""
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
        lines = bytes(buf[:head_end]).decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        while len(buf) < head_end + 4 + length:
            chunk = sock.recv(262144)
            if not chunk:
                raise AssertionError("connection closed mid-body")
            buf += chunk
        body = bytes(buf[head_end + 4:head_end + 4 + length])
        del buf[:head_end + 4 + length]
        out.append((int(lines[0].split()[1]), headers, body))
    return out


def _expected(engine: QueryEngine, request=None, frame=None):
    """The in-process engine's status and answer for one query: the
    exact body bytes, or the error code and message."""
    try:
        if frame is not None:
            payload = binproto.split_frame(frame, binproto.REQUEST_MAGIC)
            return 200, engine.query_binary(payload)[0]
        return 200, engine.query_bytes(request)[0]
    except BudgetError as exc:
        return 422, ("budget_unsatisfiable", str(exc))
    except RequestError as exc:
        return 400, ("invalid_request", str(exc))


@pytest.fixture()
def slow_shard_cluster(store):
    """The three-shard cluster with 10 ms of injected latency on n2,
    which owns most of the probe keys used below."""
    yield from _cluster(
        store, shard_faults=(None, None, FaultInjector(latency_ms=10))
    )


class TestPipelinedForwarding:
    ASSOCS = (None, 1, 2, 4, 8, 16)

    def _mix(self, count: int) -> list[tuple[bytes, dict | None, bytes | None]]:
        """``count`` mixed queries: points, batches, Pareto, binary batch
        frames, and one 400 and one 422 mid-pipeline."""
        import random

        rng = random.Random(7)
        mix = []
        for i in range(count):
            assoc = self.ASSOCS[i % len(self.ASSOCS)]
            budget = round(rng.uniform(150_000, 400_000), 3)
            frame = None
            if i == 60:
                request = {"type": "point", "os": "mach"}  # 400
            elif i == 130:
                request = {"type": "point", "os": "mach", "budget": 1.0,
                           "limit": 1}  # 422: fits nothing
            elif i % 10 == 3:
                request = None
                frame = binproto.encode_batch_request({
                    "os": "mach", "limit": 2, "max_cache_assoc": assoc,
                    "budgets": [budget, budget + 25_000.0],
                })
            elif i % 10 == 7:
                request = {"type": "batch", "os": "mach", "limit": 2,
                           "budgets": [budget, budget / 2 + 100_000.0],
                           "max_cache_assoc": assoc}
            elif i % 25 == 11:
                request = {"type": "pareto", "os": "mach",
                           "max_budget": budget, "max_cache_assoc": assoc}
            else:
                request = {"type": "point", "os": "mach", "budget": budget,
                           "limit": 1 + i % 3, "max_cache_assoc": assoc}
            body = frame if frame is not None else json.dumps(request).encode()
            mix.append((_wire(body, binary=frame is not None), request, frame))
        return mix

    def test_pipeline_answers_in_order_bit_identical(
        self, slow_shard_cluster, store
    ):
        cluster = slow_shard_cluster
        ring = cluster["router"].engine.ring
        owners = {
            ring.preference(
                shard_key(validate_request(
                    {"type": "point", "os": "mach", "budget": 1.0,
                     "max_cache_assoc": assoc}
                )), 2,
            )[0]
            for assoc in self.ASSOCS
        }
        assert owners == {"n0", "n1", "n2"}  # the pipeline spans shards
        mix = self._mix(200)
        engine = _direct(store)
        expected = [_expected(engine, request, frame)
                    for _, request, frame in mix]
        host, port = cluster["router"].server_address[:2]
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(b"".join(wire for wire, _, _ in mix))
            responses = _read_responses(sock, len(mix))
        for i, ((status, _, body), (want_status, want)) in enumerate(
            zip(responses, expected)
        ):
            assert status == want_status, (i, status, body[:200])
            if status == 200:
                assert body == want, i
            else:
                error = json.loads(body)["error"]
                assert (error["code"], error["message"]) == want, i
        assert sorted({status for status, _ in expected}) == [200, 400, 422]
        stats = cluster["router"].engine.stats
        assert stats["failovers"] == 0 and stats["exhausted"] == 0


class TestRequestIds:
    def test_client_visible_id_is_the_shards_logged_id(self, cluster):
        host, port = cluster["router"].server_address[:2]
        body = json.dumps(POINT).encode()
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                _wire(body, request_id="client-chosen-7")
                + _wire(body) + _wire(json.dumps(BATCH).encode())
            )
            responses = _read_responses(sock, 3)
        seen = [headers["x-request-id"] for _, headers, _ in responses]
        assert seen[0] == "client-chosen-7"
        assert all(seen) and len(set(seen)) == 3
        logged = set()
        for log in cluster["logs"]:
            for line in log.getvalue().splitlines():
                record = json.loads(line)
                if record.get("event") == "request":
                    logged.add(record["request_id"])
        assert set(seen) <= logged


@pytest.fixture()
def silent_node():
    """An address that completes the TCP handshake (the kernel's accept
    backlog) and never answers a byte."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(16)
    yield listener.getsockname()[:2]
    listener.close()


class TestUpstreamTimeout:
    TIMEOUT_S = 0.5

    def _post(self, router, request):
        host, port = router.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=15)
        start = time.monotonic()
        conn.request(
            "POST", "/v1/query", body=json.dumps(request).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        raw = response.read()
        elapsed = time.monotonic() - start
        conn.close()
        return response, raw, elapsed

    def test_silent_only_replica_yields_503_after_the_timeout(
        self, silent_node
    ):
        router = make_router(
            {"n0": silent_node}, replicas=1,
            upstream_timeout_s=self.TIMEOUT_S,
        )
        thread = _start(router)
        try:
            response, raw, elapsed = self._post(router, POINT)
        finally:
            _stop(router, thread)
        assert response.status == 503
        assert response.headers.get("Retry-After") is not None
        error = json.loads(raw)["error"]
        assert error["code"] == "no_shard_available"
        assert "no answer within" in error["message"]
        # The loop's sweep enforces the timeout at its own cadence.
        assert self.TIMEOUT_S <= elapsed < self.TIMEOUT_S + 2.0

    def test_silent_primary_fails_over_after_the_timeout(
        self, silent_node, store
    ):
        shard = make_server(QueryEngine(CurveStore.open(store.root)), port=0)
        shard_thread = _start(shard)
        topology = {"n0": silent_node, "n1": shard.server_address[:2]}
        ring = Ring(topology)
        request = next(
            dict(POINT, max_cache_assoc=assoc)
            for assoc in (None, 1, 2, 4, 8, 16)
            if ring.preference(
                shard_key(validate_request(
                    dict(POINT, max_cache_assoc=assoc)
                )), 2,
            )[0] == "n0"
        )
        router = make_router(
            topology, replicas=2, upstream_timeout_s=self.TIMEOUT_S
        )
        thread = _start(router)
        try:
            response, raw, elapsed = self._post(router, request)
            stats = router.engine.stats
        finally:
            _stop(router, thread)
            _stop(shard, shard_thread)
        assert response.status == 200
        assert raw == _direct(store).query_bytes(dict(request))[0]
        assert elapsed >= self.TIMEOUT_S
        assert stats["failovers"] == 1 and stats["upstream_errors"] == 1


def _primary_on(ring: Ring, label: str) -> dict:
    """A ``POINT`` variant whose shard key's first replica is ``label``."""
    return next(
        dict(POINT, max_cache_assoc=assoc)
        for assoc in (None, 1, 2, 4, 8, 16)
        if ring.preference(
            shard_key(validate_request(dict(POINT, max_cache_assoc=assoc))),
            2,
        )[0] == label
    )


@pytest.fixture()
def hang_first_node(store):
    """``(address, shard)``: a node whose first upstream connection is
    accepted and never answered; later connections are piped to a real
    shard, which is also returned."""
    shard = make_server(QueryEngine(CurveStore.open(store.root)), port=0)
    shard_thread = _start(shard)
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(16)
    listener.settimeout(0.1)
    stop = threading.Event()
    held: list[socket.socket] = []

    def pump(src, dst):
        try:
            while data := src.recv(65536):
                dst.sendall(data)
        except OSError:
            pass

    def accept():
        accepted = 0
        while not stop.is_set():
            try:
                client, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            client.settimeout(None)
            held.append(client)
            accepted += 1
            if accepted == 1:
                continue  # the silent one
            upstream = socket.create_connection(shard.server_address[:2])
            held.append(upstream)
            for src, dst in ((client, upstream), (upstream, client)):
                threading.Thread(
                    target=pump, args=(src, dst), daemon=True
                ).start()

    acceptor = threading.Thread(target=accept, daemon=True)
    acceptor.start()
    yield listener.getsockname()[:2], shard
    stop.set()
    acceptor.join(timeout=5.0)
    listener.close()
    for sock in held:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        sock.close()
    _stop(shard, shard_thread)


class TestUpstreamTimeoutIsPerRequest:
    TIMEOUT_S = 0.5

    def test_only_the_late_request_fails_over(self, hang_first_node, store):
        """Requests queued behind a late one on the same upstream
        connection are replayed on the same node, not failed over."""
        address, shard = hang_first_node
        topology = {"n0": address, "n1": shard.server_address[:2]}
        base = _primary_on(Ring(topology), "n0")
        requests = [
            dict(base, budget=200_000 + 10_000 * i, limit=1)
            for i in range(8)
        ]
        router = make_router(
            topology, replicas=2, upstream_timeout_s=self.TIMEOUT_S
        )
        thread = _start(router)
        host, port = router.server_address[:2]
        try:
            with socket.create_connection((host, port), timeout=30) as sock:
                sock.sendall(b"".join(
                    _wire(json.dumps(r).encode()) for r in requests
                ))
                responses = _read_responses(sock, len(requests))
            stats = router.engine.stats
        finally:
            _stop(router, thread)
        engine = _direct(store)
        for (status, _, body), request in zip(responses, requests):
            assert status == 200
            assert body == engine.query_bytes(dict(request))[0]
        assert stats["failovers"] == 1
        assert stats["upstream_errors"] == 1


class TestBackPressure:
    CONNECTIONS = 4
    DEPTH = 32

    def test_pipelining_past_max_inflight_is_slowed_not_shed(self, store):
        """4 connections x 32 pipelined queries against a router that
        holds 8 upstream: every answer is a 200, none a 429."""
        shard = make_server(QueryEngine(CurveStore.open(store.root)), port=0)
        shard_thread = _start(shard)
        router = make_router(
            {"n0": shard.server_address[:2]}, replicas=1, max_inflight=8
        )
        thread = _start(router)
        host, port = router.server_address[:2]
        batches = [
            [
                dict(POINT, budget=150_000 + 1_000 * (c * self.DEPTH + i),
                     limit=1)
                for i in range(self.DEPTH)
            ]
            for c in range(self.CONNECTIONS)
        ]
        socks = [
            socket.create_connection((host, port), timeout=30)
            for _ in batches
        ]
        try:
            for sock, batch in zip(socks, batches):
                sock.sendall(b"".join(
                    _wire(json.dumps(r).encode()) for r in batch
                ))
            answers = [_read_responses(sock, self.DEPTH) for sock in socks]
        finally:
            for sock in socks:
                sock.close()
            _stop(router, thread)
            _stop(shard, shard_thread)
        engine = _direct(store)
        for responses, batch in zip(answers, batches):
            for (status, _, body), request in zip(responses, batch):
                assert status == 200, body[:200]
                assert body == engine.query_bytes(dict(request))[0]
        assert not router._stalled


class TestConnectionClose:
    @pytest.mark.parametrize("closing", ["connection-close", "http-1.0"])
    def test_nothing_pipelined_after_a_closing_request_is_answered(
        self, cluster, closing
    ):
        first = _wire(json.dumps(POINT).encode())
        if closing == "http-1.0":
            first = first.replace(b"HTTP/1.1", b"HTTP/1.0", 1)
        else:
            first = first.replace(
                b"Host: test\r\n", b"Host: test\r\nConnection: close\r\n", 1
            )
        host, port = cluster["router"].server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(first + _wire(json.dumps(BATCH).encode()))
            received = bytearray()
            while chunk := sock.recv(65536):
                received += chunk
        head_end = received.find(b"\r\n\r\n")
        head = bytes(received[:head_end]).decode("latin-1").lower()
        assert head.startswith("http/1.1 200")
        assert "connection: close" in head
        length = int(head.split("content-length:")[1].split("\r\n")[0])
        assert len(received) == head_end + 4 + length  # one answer, then EOF
