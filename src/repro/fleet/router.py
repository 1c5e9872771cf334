"""Stateless consistent-hash router for the serving fleet.

The router is an :class:`~repro.service.eventloop.EventLoopHTTPServer`
that forwards instead of computing, and it forwards on its own loop:
no executor thread and no blocking client sits on the query path.
``POST /v1/query`` (JSON, batch, and binary-batch) is validated once
on-loop, hashed to its priced-space shard key, and the client's raw
body bytes are written to a non-blocking keep-alive connection to the
key's first replica, registered on the same selector.  Upstream writes
are flushed once per event batch; responses are framed by
``Content-Length`` on-loop and leave through the loop's completion
path with the shard's ETag.  The router's ``X-Request-Id`` travels in
the upstream head, so a shard logs and answers under the id the client
sees.

A client connection keeps being read while its earlier requests are
upstream, up to :data:`PIPELINE_DEPTH` unanswered requests; past that
it is simply not read (back-pressure, not an error).  The loop-wide
``max_inflight`` bound is back-pressure too: while that many requests
are upstream no client connection is read, and reading resumes, oldest
stalled connection first, as answers drain.  Answers leave in request
order even when one connection's requests route to different shards:
each request holds a place in the connection's response FIFO.

Failover tries every replica in preference order — alive nodes first,
but a stale health view can slow an answer, never lose one.  A request
moves to the next replica on a connect error, a torn connection, no
answer within ``upstream_timeout_s``, 429, or any 5xx.  Requests still
unanswered on a torn kept-alive connection are replayed once on the
same node first (queries are pure reads, so replay is safe).  The
timeout clocks only the request at the head of an upstream connection
(shards answer a connection in order), from when it is both at the
head and fully sent; the loop's sweep checks it.  On expiry that
request alone moves to its next replica, and the connection is closed
with the requests behind it replayed once on the same node.  400/422 answers are the request's own
fault and re-map to the same typed errors (the client sees exactly
the status a single server would have sent).  When every replica
fails the client gets a structured ``503`` ``no_shard_available``
carrying ``Retry-After`` (:class:`NoShardAvailableError`), the signal
the retrying :class:`ServiceClient` already backs off on.

Reusing the event-loop machinery buys the router every data-plane
property of a worker: bounded buffers with 431/413 rejection,
pipelining, idle reaping, graceful drain, and the ETag contract —
upstream validators pass through untouched, so a client's
``If-None-Match`` revalidates *at the router* (shards compute the same
strong ETag over the same bytes, which is also why failover cannot
change an answer: every shard opens the same immutable
content-addressed store).  A ``429`` from the router itself means its
response buffers hold ``max_total_buffered`` bytes that clients have
not read; a shard's own 429 is failed over, not passed on.

What the router deliberately does **not** do is cache: the raw-body
memo is disabled, every query consults a shard.  Statelessness is the
property that makes N routers interchangeable.

``GET /v1/metrics`` on the router is the fleet view: it scrapes every
shard off-loop over one-shot connections, merges counters and
histogram buckets *exactly* (:func:`~repro.obs.merge_registry_snapshots`
— sums, not averages of percentiles), sums the engine-cache and fault
counters, and labels each node's contribution, alongside the router's
own proxy counters.  ``GET /v1/health`` reports topology, ring
membership, per-node health state, and replica factor without touching
the network.
"""

from __future__ import annotations

import errno
import hashlib
import http.client
import json
import os
import selectors
import socket
import time
from collections import deque

from repro.errors import BudgetError, RequestError, StoreError
from repro.obs import merge_registry_snapshots
from repro.service import binproto
from repro.service.eventloop import EventLoopHTTPServer
from repro.service.http import make_server
from repro.service.requests import validate_request
from repro.fleet.health import HealthChecker
from repro.fleet.ring import Ring, shard_key

DEFAULT_REPLICAS = 2
DEFAULT_UPSTREAM_TIMEOUT_S = 10.0
SCRAPE_TIMEOUT_S = 5.0
PIPELINE_DEPTH = 32
"""Unanswered requests one client connection may have upstream before
the router stops reading it."""
UPSTREAM_CONNS = 4
"""Keep-alive connections the router opens to one shard node at most;
a new one opens only while every existing one has requests in flight.
A shard works on one off-loop request per connection at a time, so a
single connection queues warm answers behind a cold pricing (on a
2-vCPU host: up to 140 ms behind a 130 ms pricing, against 8 ms with
four); on an all-warm ``limit: 1`` mix one and four perform alike."""
RECV_BYTES = 262144

# Upstream statuses that mean "this replica can't answer right now but
# another might": overload shedding and store trouble.  Any other 5xx
# is treated the same way — failover is the router's whole job.
_FAILOVER_STATUS = (429, 503)

_UPSTREAM_HEAD = (
    b"POST /v1/query HTTP/1.1\r\n"
    b"Host: repro-fleet\r\n"
    b"Content-Type: %s\r\n"
    b"Content-Length: %d\r\n"
    b"X-Request-Id: %s\r\n"
    b"\r\n"
)
_CTYPE = {False: b"application/json", True: binproto.CONTENT_TYPE.encode()}


class NoShardAvailableError(StoreError):
    """Every replica of a shard failed; maps to 503 + ``Retry-After``."""


class RouterEngine:
    """The router's routing table and proxy counters.

    Stands where a worker's :class:`~repro.service.engine.QueryEngine`
    stands (``server.engine``), but answers nothing itself: it
    validates a request, names the replicas to try, and scrapes the
    fleet's metrics.

    Args:
        topology: node label -> ``(host, port)`` of each shard.
        replicas: R — how many distinct nodes hold each shard key
            (clamped to the node count).
        ring: the consistent-hash ring (default: one over the
            topology's labels at 128 vnodes).
        health: optional :class:`HealthChecker`; used to order replica
            attempts, never to skip them.
        timeout_s: how long one upstream request may go unanswered
            before it moves to the next replica.

    The counters are written only by the router's loop thread; ``stats``
    hands other threads a copy.
    """

    def __init__(
        self,
        topology: dict[str, tuple[str, int]],
        replicas: int = DEFAULT_REPLICAS,
        ring: Ring | None = None,
        health: HealthChecker | None = None,
        timeout_s: float = DEFAULT_UPSTREAM_TIMEOUT_S,
    ):
        if not topology:
            raise ValueError("router needs at least one shard node")
        self.topology = {label: tuple(addr) for label, addr in topology.items()}
        self.ring = ring if ring is not None else Ring(self.topology)
        self.replicas = max(1, min(int(replicas), len(self.topology)))
        self.health = health
        self.timeout_s = timeout_s
        self.store = None  # the router holds no store; shards do
        self._counters = {
            "proxied": 0,
            "failovers": 0,
            "upstream_errors": 0,
            "exhausted": 0,
        }

    @property
    def stats(self) -> dict:
        """Proxy counters (the router's analogue of cache stats)."""
        return dict(self._counters)

    def count(self, name: str) -> None:
        self._counters[name] += 1

    def route(self, request) -> list[str]:
        """Validate one decoded request and name the replicas to try.

        Raises:
            RequestError: malformed request (400 at the edge, without
                an upstream round-trip).
        """
        return self.candidates(shard_key(validate_request(request)))

    def candidates(self, key: str) -> list[str]:
        """The key's replica set, alive nodes first.

        Marked-down nodes are *appended*, not dropped: health ordering
        is latency advice, and a key's answer must survive a health
        view that is stale in either direction.
        """
        preference = self.ring.preference(key, self.replicas)
        if self.health is None:
            return preference
        alive = self.health.alive()
        up = [label for label in preference if label in alive]
        down = [label for label in preference if label not in alive]
        return up + down

    # -- fleet metrics --------------------------------------------------

    def _scrape(self, label: str) -> dict:
        host, port = self.topology[label]
        conn = http.client.HTTPConnection(host, port, timeout=SCRAPE_TIMEOUT_S)
        try:
            conn.request("GET", "/v1/metrics")
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise OSError(f"HTTP {response.status}")
        return json.loads(raw).get("result", {})

    def fleet_metrics(self) -> dict:
        """Scrape every shard and merge the fleet view exactly.

        Blocking network IO over one-shot connections: the router runs
        it on its executor, never on the loop.  Counters and histogram
        buckets sum across nodes (percentiles are re-read from the
        merged buckets by :func:`merge_registry_snapshots`, never
        averaged); engine-cache and fault trip counts sum; each node's
        own contribution stays visible under its label, with
        unreachable nodes reported as ``down`` rather than silently
        omitted.
        """
        nodes: dict[str, dict] = {}
        views: list[dict] = []
        engine_cache: dict[str, int] = {}
        faults: dict[str, int] = {}
        for label in sorted(self.topology):
            try:
                view = self._scrape(label)
            except (OSError, ValueError, http.client.HTTPException) as exc:
                nodes[label] = {
                    "status": "down",
                    "error": f"{type(exc).__name__}: {exc}",
                }
                continue
            views.append(view)
            for key, value in view.get("engine_cache", {}).items():
                if isinstance(value, (int, float)) and key != "hit_rate":
                    engine_cache[key] = engine_cache.get(key, 0) + value
            for key, value in view.get("faults", {}).items():
                faults[key] = faults.get(key, 0) + value
            nodes[label] = {
                "status": "up",
                "uptime_s": view.get("uptime_s"),
                "workers": view.get("workers"),
                "engine_cache": view.get("engine_cache"),
                "responses": view.get("counters", {})
                .get("http_responses", {})
                .get("by_label"),
            }
        merged = merge_registry_snapshots(
            [
                {
                    kind: view[kind]
                    for kind in ("counters", "histograms", "gauges")
                    if kind in view
                }
                for view in views
            ]
        )
        result: dict = {
            "role": "router",
            "nodes": nodes,
            "nodes_up": sorted(
                label for label, info in nodes.items()
                if info["status"] == "up"
            ),
            "engine_cache": engine_cache,
            "faults": faults,
        }
        result.update(merged)
        return result


def _upstream_message(raw: bytes, status: int) -> str:
    try:
        payload = json.loads(raw)
        return payload["error"]["message"]
    except (ValueError, KeyError, TypeError):
        return f"upstream shard answered HTTP {status}"


class _Forward:
    """One client query on its way through the replica set."""

    __slots__ = (
        "conn", "req", "body", "binary", "candidates", "position",
        "failures", "replayed", "end", "clock",
    )

    def __init__(self, conn, req, body: bytes, binary: bool, candidates):
        self.conn = conn
        self.req = req
        self.body = body
        self.binary = binary
        self.candidates = candidates
        self.position = 0  # index into candidates of the replica asked
        self.failures: list[str] = []
        self.replayed = False
        self.end = 0  # the upstream's byte count once this is sent
        self.clock = 0.0  # when it was at the head and sent; 0 = not yet


class _Upstream:
    """One non-blocking keep-alive connection to a shard node."""

    __slots__ = (
        "label", "sock", "connected", "wbuf", "rbuf", "inflight",
        "events", "closed", "answered", "handler", "queued", "sent",
        "opened",
    )

    def __init__(self, label: str, sock: socket.socket, connected: bool):
        self.label = label
        self.sock = sock
        self.connected = connected
        self.wbuf = bytearray()
        self.rbuf = bytearray()
        self.inflight: deque[_Forward] = deque()  # in write order
        self.events = 0
        self.closed = False
        self.answered = 0
        self.handler = None
        self.queued = 0  # bytes ever appended to wbuf
        self.sent = 0  # bytes ever written to the socket
        self.opened = time.monotonic()

    def start_clock(self, now: float) -> None:
        """Start the head request's timeout once it is fully sent."""
        if self.inflight:
            head = self.inflight[0]
            if not head.clock and self.sent >= head.end:
                head.clock = now


class RouterHTTPServer(EventLoopHTTPServer):
    """The event-loop server specialized for routing.

    Differences from a worker: queries are forwarded on-loop over
    pipelined upstream connections instead of answered by an engine,
    503s carry ``Retry-After`` (a fleet with a dead shard set *is* a
    retry-later condition), the raw-body memo is disabled (stateless:
    every query consults a shard), and the GET endpoints answer for
    the fleet — health from local state, metrics via an off-loop
    cross-node scrape.
    """

    retry_after_statuses = (429, 503)
    pipeline_depth = PIPELINE_DEPTH

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._upstreams: dict[str, list[_Upstream]] = {}
        self._dirty: set[_Upstream] = set()
        # Client connections not read because max_inflight requests are
        # upstream, oldest first (a dict as an ordered set).
        self._stalled: dict = {}

    def _memoize_raw(self, body: bytes, entry: tuple[bytes, str]) -> None:
        pass  # stateless by construction

    def _room(self, conn) -> bool:
        if not super()._room(conn):
            return False
        if self._inflight_count < self.max_inflight:
            return True
        self._stalled[conn] = None
        return False

    def _run_completions(self) -> None:
        super()._run_completions()
        stalled = self._stalled
        while stalled and self._inflight_count < self.max_inflight:
            conn = next(iter(stalled))
            del stalled[conn]
            self._resume(conn)  # may stall it again, at the back

    def _respond_mapped_error(self, conn, req, exc) -> None:
        if isinstance(exc, NoShardAvailableError):
            self._respond_error(conn, req, 503, "no_shard_available", str(exc))
            return
        super()._respond_mapped_error(conn, req, exc)

    # -- forwarding ------------------------------------------------------

    def _serve_query(self, conn, req, body: bytes, binary: bool, task) -> None:
        try:
            request = (
                binproto.decode_batch_request(task) if binary else task
            )
            candidates = self.engine.route(request)
        except Exception as exc:
            self._respond_mapped_error(conn, req, exc)
            return
        if self._shed(conn, req):
            return
        self._begin_offloop(conn, req)
        self._forward(_Forward(conn, req, body, binary, candidates))

    def _forward(self, fwd: _Forward) -> None:
        """Queue ``fwd`` on a connection to its current candidate."""
        label = fwd.candidates[fwd.position]
        try:
            upstream = self._upstream_for(label)
        except OSError as exc:
            self.engine.count("upstream_errors")
            self._next_replica(fwd, f"{label}: {type(exc).__name__}: {exc}")
            return
        body = fwd.body
        head = _UPSTREAM_HEAD % (
            _CTYPE[fwd.binary], len(body),
            fwd.req.request_id.encode("latin-1"),
        )
        upstream.wbuf += head
        upstream.wbuf += body
        upstream.queued += len(head) + len(body)
        fwd.end = upstream.queued
        fwd.clock = 0.0
        upstream.inflight.append(fwd)
        self._dirty.add(upstream)

    def _next_replica(self, fwd: _Forward, failure: str) -> None:
        fwd.failures.append(failure)
        fwd.position += 1
        if fwd.position < len(fwd.candidates):
            self._forward(fwd)
            return
        self.engine.count("exhausted")
        self._complete(fwd, "err", NoShardAvailableError(
            f"all {len(fwd.candidates)} replica(s) of the shard failed: "
            + "; ".join(fwd.failures)
        ))

    def _complete(self, fwd: _Forward, kind: str, value) -> None:
        self._completions.append(
            (fwd.conn, fwd.req, (kind, value, fwd.binary, b""))
        )

    def _answered(
        self, fwd: _Forward, label: str, status: int, body: bytes,
        etag: str | None,
    ) -> None:
        engine = self.engine
        if status == 200:
            engine.count("proxied")
            if fwd.position:
                engine.count("failovers")
            if etag is None:  # defensive: recompute the shard formula
                etag = '"' + hashlib.sha256(body).hexdigest()[:20] + '"'
            self._complete(fwd, "ok", (body, etag))
        elif status not in _FAILOVER_STATUS and status < 500:
            # The request itself is wrong; every replica would say the
            # same.  Re-raise as the matching typed error so the loop's
            # mapper regenerates the shard's status.
            engine.count("proxied")
            message = _upstream_message(body, status)
            error = (
                BudgetError(message) if status == 422
                else RequestError(message)
            )
            self._complete(fwd, "err", error)
        else:
            engine.count("upstream_errors")
            self._next_replica(fwd, f"{label}: HTTP {status}")

    # -- upstream connections --------------------------------------------

    def _upstream_for(self, label: str) -> _Upstream:
        """The least-loaded open connection to ``label``, or a new one
        while every open one is busy and the node is under its cap."""
        pool = self._upstreams.setdefault(label, [])
        best = min(pool, key=lambda u: len(u.inflight), default=None)
        if best is not None and (
            not best.inflight or len(pool) >= UPSTREAM_CONNS
        ):
            return best
        return self._connect(label, pool)

    def _connect(self, label: str, pool: list[_Upstream]) -> _Upstream:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        code = sock.connect_ex(self.engine.topology[label])
        if code not in (0, errno.EINPROGRESS, errno.EWOULDBLOCK):
            sock.close()
            raise OSError(code, os.strerror(code))
        upstream = _Upstream(label, sock, connected=code == 0)

        def handler(mask, upstream=upstream):
            self._on_upstream_event(upstream, mask)

        upstream.handler = handler
        pool.append(upstream)
        self._upstream_interest(upstream)
        return upstream

    def _upstream_interest(self, upstream: _Upstream) -> None:
        events = selectors.EVENT_READ
        if upstream.wbuf or not upstream.connected:
            events |= selectors.EVENT_WRITE
        if events == upstream.events or self._selector is None:
            return
        if upstream.events:
            self._selector.modify(upstream.sock, events, upstream.handler)
        else:
            self._selector.register(upstream.sock, events, upstream.handler)
        upstream.events = events

    def _on_upstream_event(self, upstream: _Upstream, mask: int) -> None:
        if upstream.closed:
            return
        if mask & selectors.EVENT_WRITE:
            if not upstream.connected:
                code = upstream.sock.getsockopt(
                    socket.SOL_SOCKET, socket.SO_ERROR
                )
                if code:
                    self._tear(upstream, os.strerror(code), replay=False)
                    return
                upstream.connected = True
            self._flush_upstream(upstream)
            if upstream.closed:
                return
        if mask & selectors.EVENT_READ:
            self._read_upstream(upstream)

    def _flush_upstream(self, upstream: _Upstream) -> None:
        if upstream.connected:
            wbuf = upstream.wbuf
            while wbuf:
                try:
                    sent = upstream.sock.send(wbuf)
                except (BlockingIOError, InterruptedError):
                    break
                except OSError as exc:
                    self._tear(upstream, f"{type(exc).__name__}: {exc}")
                    return
                del wbuf[:sent]
                upstream.sent += sent
            upstream.start_clock(time.monotonic())
        self._upstream_interest(upstream)

    def _read_upstream(self, upstream: _Upstream) -> None:
        try:
            chunk = upstream.sock.recv(RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._tear(upstream, f"{type(exc).__name__}: {exc}")
            return
        if not chunk:
            self._tear(upstream, "connection closed")
            return
        rbuf = upstream.rbuf
        rbuf += chunk
        pos = 0
        while True:
            head_end = rbuf.find(b"\r\n\r\n", pos)
            if head_end < 0:
                break
            try:
                status, length, etag, close = _parse_response_head(
                    bytes(rbuf[pos:head_end])
                )
            except ValueError:
                self._tear(upstream, "malformed response head")
                return
            start = head_end + 4
            end = start + length
            if len(rbuf) < end:
                break
            if not upstream.inflight:
                self._tear(upstream, "unsolicited response")
                return
            body = bytes(rbuf[start:end])
            pos = end
            upstream.answered += 1
            self._answered(
                upstream.inflight.popleft(), upstream.label, status, body,
                etag,
            )
            if close:
                self._tear(upstream, "shard closed the connection")
                return
        if pos:
            del rbuf[:pos]
            upstream.start_clock(time.monotonic())

    def _tear(
        self, upstream: _Upstream, reason: str, replay: bool | None = None
    ) -> None:
        """Close ``upstream`` and move every request on it along.

        With ``replay`` each request is replayed once on the same node
        before it fails over; by default only on a connection that had
        answered before (a kept-alive socket the shard may have reaped).
        Otherwise each request goes to its next replica.
        """
        if upstream.closed:
            return
        upstream.closed = True
        if upstream.events and self._selector is not None:
            try:
                self._selector.unregister(upstream.sock)
            except (KeyError, ValueError, OSError):
                pass
        try:
            upstream.sock.close()
        except OSError:
            pass
        pool = self._upstreams.get(upstream.label, [])
        if upstream in pool:
            pool.remove(upstream)
        self._dirty.discard(upstream)
        if replay is None:
            replay = upstream.answered > 0
        pending = list(upstream.inflight)
        upstream.inflight.clear()
        for fwd in pending:
            if replay and not fwd.replayed:
                fwd.replayed = True
                self._forward(fwd)
            else:
                self.engine.count("upstream_errors")
                self._next_replica(fwd, f"{upstream.label}: {reason}")

    def _end_batch(self) -> None:
        # One send per dirty upstream per loop iteration; a failed send
        # re-routes its requests, which may dirty other upstreams.
        while self._dirty:
            dirty, self._dirty = self._dirty, set()
            for upstream in dirty:
                if not upstream.closed:
                    self._flush_upstream(upstream)

    def _sweep(self, now: float) -> None:
        super()._sweep(now)
        timeout = self.engine.timeout_s
        reason = f"no answer within {timeout}s"
        # Snapshot: re-routing may open connections in any pool.
        for upstream in [u for pool in self._upstreams.values() for u in pool]:
            if not upstream.connected:
                if now - upstream.opened > timeout:
                    self._tear(
                        upstream, f"no connection within {timeout}s",
                        replay=False,
                    )
                continue
            inflight = upstream.inflight
            if not (
                inflight and inflight[0].clock
                and now - inflight[0].clock > timeout
            ):
                continue
            late = inflight.popleft()
            # The requests behind it were never the slow one: each is
            # replayed once on the same node, over a fresh connection.
            self._tear(upstream, reason, replay=True)
            self.engine.count("upstream_errors")
            self._next_replica(late, f"{upstream.label}: {reason}")

    def _on_loop_exit(self) -> None:
        for pool in self._upstreams.values():
            for upstream in pool:
                upstream.closed = True
                try:
                    upstream.sock.close()
                except OSError:
                    pass
        self._upstreams.clear()
        self._dirty.clear()

    # -- GET endpoints ----------------------------------------------------

    def _router_health_view(self) -> dict:
        engine: RouterEngine = self.engine
        states = (
            engine.health.snapshot() if engine.health is not None else {}
        )
        nodes = {}
        for label, (host, port) in sorted(engine.topology.items()):
            nodes[label] = {"address": f"{host}:{port}"}
            nodes[label].update(states.get(label, {"alive": None}))
        return {
            "status": "serving",
            "role": "router",
            "replicas": engine.replicas,
            "ring": {
                "nodes": list(engine.ring.nodes),
                "vnodes": engine.ring.vnodes,
            },
            "nodes": nodes,
            "proxy": engine.stats,
            "inflight": self.metrics.gauge("http_inflight").snapshot(),
        }

    def _fleet_metrics_view(self) -> dict:
        view = self.engine.fleet_metrics()
        view["uptime_s"] = round(
            time.monotonic() - self.started_monotonic, 3
        )
        view["router"] = {
            "proxy": self.engine.stats,
            **self.metrics.snapshot(),
        }
        return view

    def _do_get(self, conn, req) -> None:
        if req.path in ("/v1/health", "/health"):
            self._respond_json(
                conn, req, 200,
                {"ok": True, "result": self._router_health_view()},
            )
            return
        if req.path in ("/v1/metrics", "/metrics"):
            # The scrape is blocking network IO: run it off-loop with
            # the same inflight bookkeeping as a forwarded query so a
            # hung shard can't stall query traffic.
            self._begin_offloop(conn, req)

            def _scrape(conn=conn, req=req):
                try:
                    body = json.dumps(
                        {"ok": True, "result": self._fleet_metrics_view()}
                    ).encode()
                    etag = (
                        '"' + hashlib.sha256(body).hexdigest()[:20] + '"'
                    )
                    outcome = ("ok", (body, etag), False, b"")
                except BaseException as exc:
                    outcome = ("err", exc, False, b"")
                self._completions.append((conn, req, outcome))
                self._wake()

            self._executor.submit(_scrape)
            return
        self._respond_error(
            conn, req, 404, "not_found", f"unknown path {req.path}"
        )


def _parse_response_head(head: bytes) -> tuple[int, int, str | None, bool]:
    """``(status, content_length, etag, close)`` of one response head.

    Raises:
        ValueError: not an HTTP/1.x response head.
    """
    lines = head.split(b"\r\n")
    status_line = lines[0].split(None, 2)
    if len(status_line) < 2 or not status_line[0].startswith(b"HTTP/1."):
        raise ValueError("not an HTTP/1.x response")
    status = int(status_line[1])
    length = 0
    etag = None
    close = status_line[0] == b"HTTP/1.0"
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        name = name.strip().lower()
        if name == b"content-length":
            length = int(value)
        elif name == b"etag":
            etag = value.strip().decode("latin-1")
        elif name == b"connection":
            close = b"close" in value.lower()
    if length < 0:
        raise ValueError("negative Content-Length")
    return status, length, etag, close


def make_router(
    topology: dict[str, tuple[str, int]],
    replicas: int = DEFAULT_REPLICAS,
    host: str = "127.0.0.1",
    port: int = 0,
    ring: Ring | None = None,
    health: HealthChecker | None = None,
    upstream_timeout_s: float = DEFAULT_UPSTREAM_TIMEOUT_S,
    **server_kwargs,
) -> RouterHTTPServer:
    """A ready-to-run router server over a shard topology.

    The caller owns the :class:`HealthChecker` lifecycle (``start()``
    it alongside ``serve_forever``, ``stop()`` it on shutdown); extra
    keyword arguments flow to :func:`repro.service.http.make_server`
    (``verbose``, ``max_inflight``, ``executor_threads``, ...).
    """
    engine = RouterEngine(
        topology,
        replicas=replicas,
        ring=ring,
        health=health,
        timeout_s=upstream_timeout_s,
    )
    return make_server(
        engine,
        host=host,
        port=port,
        server_cls=RouterHTTPServer,
        **server_kwargs,
    )
