"""Selectors-based non-blocking HTTP data plane for the query service.

One thread, one ``selectors`` loop, zero per-connection threads.  Each
pre-fork worker (or a bare ``make_server``) runs exactly one
:class:`EventLoopHTTPServer`:

* **accept** — the listening socket is non-blocking; one ready event
  drains the whole accept backlog;
* **read** — per-connection bounded read buffers; request heads are
  hand-parsed (no ``http.server`` machinery), oversized heads get a
  431 and oversized bodies a 413, both with ``Connection: close``;
  pipelined requests in one buffer are answered back-to-back;
* **serve** — the hot path is a byte-cache probe against
  :meth:`QueryEngine.try_cached_bytes` (or the raw-frame probe for the
  binary batch protocol): a hit writes the cached body bytes straight
  to the socket as ``memoryview`` slices — no re-validation loops, no
  re-serialization, no copies of the body;
* **miss** — cold queries run in a small bounded ``ThreadPoolExecutor``
  so pricing a space or loading curves never stalls the loop; the
  worker thread queues the outcome and wakes the loop via a socketpair;
* **shed** — when the in-flight executor budget is exhausted, or the
  loop's total buffered response bytes pass their cap (slow clients),
  query POSTs get a structured 429 + ``Retry-After`` instead of
  queueing without bound;
* **back-pressure** — a connection whose write buffer is full stops
  being read until it drains; a connection waiting on an off-loop
  query stops being read until the answer is written (no unbounded
  pipelining into a stalled engine).

Fault injection keeps working on this path: injected latency parks the
request on a loop timer (same draws and trip counts as the blocking
seam), and ``drop_conn`` closes before writing, exactly like the
threaded server did.

Graceful drain: ``shutdown()`` stops the accept loop, lets in-flight
queries finish and write buffers flush (bounded by ``drain_grace_s``),
then returns — so the SIGTERM path of the pre-fork workers behaves as
before.  The public object model (``serve_forever`` / ``shutdown`` /
``server_close`` / ``server_address``) matches the stdlib server the
rest of the repo was written against.
"""

from __future__ import annotations

import heapq
import json
import os
import selectors
import socket
import time
import uuid
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.errors import (
    BudgetError,
    RequestError,
    StaleStoreError,
    StoreError,
    StoreIntegrityError,
)
from repro.obs import merge_registry_snapshots, trace_span
from repro.service import binproto

MAX_BODY_BYTES = 4 * 1024 * 1024
MAX_HEADER_BYTES = 32 * 1024
MAX_WRITE_BUFFER_BYTES = 1 * 1024 * 1024
"""Per-connection cap on unflushed response bytes; past it the
connection is not read (back-pressure) until the client drains."""
MAX_TOTAL_BUFFERED_BYTES = 32 * 1024 * 1024
"""Loop-wide cap on buffered response bytes; past it query POSTs are
shed with 429 — a fleet of stalled readers cannot OOM a worker."""
DEFAULT_REQUEST_TIMEOUT_S = 30.0
DEFAULT_MAX_INFLIGHT = 64
DEFAULT_EXECUTOR_THREADS = 4
DEFAULT_DRAIN_S = 5.0
RETRY_AFTER_S = 1
METRICS_EXPORT_INTERVAL_S = 0.25
SWEEP_INTERVAL_S = 0.25
LINGER_BYTES = 256 * 1024
LINGER_S = 1.0
"""After a 413 or 431 with ``Connection: close`` the socket is
half-closed and up to ``LINGER_BYTES`` of unread request bytes are
discarded, for at most ``LINGER_S``, before it closes: closing with
input still unread makes the kernel reset the connection, and the
client then sees an error instead of the response and a clean end."""
_LINGER_STATUSES = (413, 431)
ACCEPT_BATCH = 64

# Ordered most-specific first: subclasses must precede their bases.
_ERROR_STATUS = (
    (RequestError, 400, "invalid_request"),
    (BudgetError, 422, "budget_unsatisfiable"),
    (StaleStoreError, 503, "stale_store"),
    (StoreIntegrityError, 503, "store_corrupt"),
    (StoreError, 503, "store_unavailable"),
)

_KNOWN_ROUTES = {
    "/v1/health": "health",
    "/health": "health",
    "/v1/metrics": "metrics",
    "/metrics": "metrics",
    "/v1/query": "query",
    "/query": "query",
    "/v1/warm_traces": "warm_traces",
    "/warm_traces": "warm_traces",
}

_REASONS = {
    200: "OK", 304: "Not Modified", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 411: "Length Required",
    413: "Payload Too Large", 422: "Unprocessable Entity",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}

RAW_MEMO_SIZE = 1024
"""Entries in the per-loop raw-body memo: exact request bytes →
cached (body, etag).  A memo hit answers without JSON parsing,
validation, or normalization — the hot path of a steady query mix."""

# Pre-rendered header template for the dominant response shape.
_HEAD_200 = (
    b"HTTP/1.1 200 OK\r\n"
    b"Server: repro-service/3\r\n"
    b"Content-Type: %s\r\n"
    b"Content-Length: %d\r\n"
    b"X-Request-Id: %s\r\n"
    b"ETag: %s\r\n"
    b"\r\n"
)
_CTYPE_JSON = b"application/json"
_CTYPE_BINARY = binproto.CONTENT_TYPE.encode()


class _Request:
    """One parsed request head, carried through dispatch/completion."""

    __slots__ = (
        "method", "path", "route", "headers", "body_len", "reject",
        "request_id", "started", "keep_alive",
    )

    def __init__(self):
        self.method = ""
        self.path = ""
        self.route = "other"
        self.headers: dict[str, str] = {}
        self.body_len = 0
        self.reject: tuple[int, str, str] | None = None
        self.request_id = "-"
        self.started = 0.0
        self.keep_alive = True


class _Connection:
    """Per-socket state machine: read buffer, parse cursor, write queue."""

    __slots__ = (
        "sock", "fd", "addr", "rbuf", "wq", "wbytes", "last_activity",
        "cur", "head_len", "pending", "close_after_flush", "closed",
        "read_eof", "events", "parsing", "linger_left", "linger_until",
    )

    def __init__(self, sock: socket.socket, addr):
        self.sock = sock
        self.fd = sock.fileno()
        self.addr = addr
        self.rbuf = bytearray()
        self.wq: deque = deque()  # memoryviews awaiting send
        self.wbytes = 0
        self.last_activity = time.monotonic()
        self.cur: _Request | None = None
        self.head_len = 0
        self.pending = False  # a query is off-loop (or on a fault timer)
        self.close_after_flush = False
        self.closed = False
        self.read_eof = False
        self.events = 0  # currently registered selector mask
        self.parsing = False  # re-entrancy guard: inside _process_rbuf
        self.linger_left = 0  # discard budget once the reject is flushed
        self.linger_until = 0.0  # nonzero while half-closed and draining


class EventLoopHTTPServer:
    """The non-blocking server behind :func:`repro.service.http.make_server`.

    Construction binds (or adopts) the listening socket only; the loop
    runs inside :meth:`serve_forever`.  All ``server.*`` attributes the
    repo's tooling reads (``engine``, ``metrics``, ``faults``,
    ``obs_logger``, ``worker_metrics_dir`` ...) are plain attributes
    assigned by ``make_server``, exactly as before.
    """

    allow_reuse_address = True
    # Statuses that carry a Retry-After header.  Subclasses widen this:
    # the fleet router adds 503 (all replicas of a shard down is a
    # retry-later condition, not a permanent failure).
    retry_after_statuses: tuple[int, ...] = (429,)

    def __init__(
        self,
        address: tuple[str, int],
        sock: socket.socket | None = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT_S,
        executor_threads: int = DEFAULT_EXECUTOR_THREADS,
        drain_grace_s: float = DEFAULT_DRAIN_S,
        max_write_buffer: int = MAX_WRITE_BUFFER_BYTES,
        max_total_buffered: int = MAX_TOTAL_BUFFERED_BYTES,
    ):
        import threading

        if sock is not None:
            self.socket = sock
        else:
            self.socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                self.socket.setsockopt(
                    socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
                )
                self.socket.bind(address)
                self.socket.listen(256)
            except BaseException:
                self.socket.close()
                raise
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self.server_port = self.server_address[1]
        self.max_inflight = max_inflight
        self.request_timeout = request_timeout
        self.drain_grace_s = drain_grace_s
        self.max_write_buffer = max_write_buffer
        self.max_total_buffered = max_total_buffered

        self._selector: selectors.BaseSelector | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, executor_threads),
            thread_name_prefix="repro-query",
        )
        self._conns: dict[int, _Connection] = {}
        self._completions: deque = deque()  # (conn, req, kind, value)
        self._timers: list = []  # (deadline, seq, conn, req, body)
        self._timer_seq = 0
        self._inflight_count = 0
        self._buffered_total = 0
        self._raw_memo: OrderedDict[bytes, tuple[bytes, str]] = OrderedDict()
        self._rid_prefix = uuid.uuid4().hex[:4]
        self._rid_counter = 0
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._shutdown_requested = False
        self._draining = False
        self._closed = False
        self._stopped = threading.Event()
        self._stopped.set()  # not running yet

    # -- lifecycle -----------------------------------------------------

    def serve_forever(self, poll_interval: float | None = None) -> None:
        """Run the loop until :meth:`shutdown` drains it."""
        self._stopped.clear()
        selector = self._selector = selectors.DefaultSelector()
        listener_open = True
        selector.register(self.socket, selectors.EVENT_READ, "accept")
        selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        next_sweep = time.monotonic() + SWEEP_INTERVAL_S
        drain_deadline = None
        try:
            while True:
                now = time.monotonic()
                if self._shutdown_requested and not self._draining:
                    self._draining = True
                    drain_deadline = now + self.drain_grace_s
                    if listener_open:
                        selector.unregister(self.socket)
                        listener_open = False
                    # Idle connections have nothing to drain.
                    for conn in list(self._conns.values()):
                        if not conn.pending and not conn.wq:
                            self._close_conn(conn)
                if self._draining:
                    busy = [
                        c for c in self._conns.values()
                        if c.pending or c.wq
                    ]
                    if not busy or now >= drain_deadline:
                        break
                timeout = min(SWEEP_INTERVAL_S, max(next_sweep - now, 0.0))
                if self._timers:
                    timeout = min(
                        timeout, max(self._timers[0][0] - now, 0.0)
                    )
                if self._draining:
                    timeout = min(timeout, max(drain_deadline - now, 0.01))
                try:
                    events = selector.select(timeout)
                except OSError:
                    if self._closed:
                        break
                    raise
                for key, mask in events:
                    kind = key.data
                    if kind == "accept":
                        self._accept_batch()
                    elif kind == "wake":
                        try:
                            while self._wake_r.recv(4096):
                                pass
                        except (BlockingIOError, InterruptedError):
                            pass
                    else:
                        conn = kind
                        if conn.closed:
                            continue
                        if mask & selectors.EVENT_WRITE:
                            self._flush(conn)
                        if not conn.closed and mask & selectors.EVENT_READ:
                            self._on_readable(conn)
                self._run_completions()
                self._run_timers()
                now = time.monotonic()
                if now >= next_sweep:
                    next_sweep = now + SWEEP_INTERVAL_S
                    self._sweep(now)
        finally:
            for conn in list(self._conns.values()):
                self._close_conn(conn, quiet=True)
            if listener_open:
                try:
                    selector.unregister(self.socket)
                except (KeyError, ValueError):
                    pass
            try:
                selector.unregister(self._wake_r)
            except (KeyError, ValueError):
                pass
            selector.close()
            self._selector = None
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop accepting, drain in-flight work, and stop the loop.

        Callable from any thread; blocks until the loop exits (bounded
        by ``drain_grace_s`` plus margin).  Safe to call repeatedly or
        on a server that never served.
        """
        self._shutdown_requested = True
        self._wake()
        self._stopped.wait(timeout=self.drain_grace_s + 5.0)

    def server_close(self) -> None:
        """Release sockets and the executor.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._shutdown_requested = True
        self._wake()
        self._stopped.wait(timeout=self.drain_grace_s + 5.0)
        for sock in (self.socket, self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass
        self._executor.shutdown(wait=False, cancel_futures=True)

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x01")
        except (BlockingIOError, BrokenPipeError, OSError):
            pass  # pipe full means the loop is already waking

    # -- accept / read / write ----------------------------------------

    def _accept_batch(self) -> None:
        for _ in range(ACCEPT_BATCH):
            try:
                sock, addr = self.socket.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed under us mid-drain
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn = _Connection(sock, addr)
            self._conns[conn.fd] = conn
            self._register(conn, selectors.EVENT_READ)

    def _register(self, conn: _Connection, events: int) -> None:
        if conn.closed or events == conn.events:
            return
        selector = self._selector
        if selector is None:
            return
        if conn.events == 0:
            if events:
                selector.register(conn.sock, events, conn)
        elif events == 0:
            selector.unregister(conn.sock)
        else:
            selector.modify(conn.sock, events, conn)
        conn.events = events

    def _wanted_events(self, conn: _Connection) -> int:
        if conn.linger_until:
            return selectors.EVENT_READ
        events = 0
        if conn.wq:
            events |= selectors.EVENT_WRITE
        if (
            not conn.read_eof
            and not conn.pending
            and not conn.close_after_flush
            and conn.wbytes < self.max_write_buffer
        ):
            events |= selectors.EVENT_READ
        return events

    def _update_interest(self, conn: _Connection) -> None:
        self._register(conn, self._wanted_events(conn))

    def _on_readable(self, conn: _Connection) -> None:
        if conn.linger_until:
            self._discard_input(conn)
            return
        try:
            chunk = conn.sock.recv(262144)
        except (BlockingIOError, InterruptedError):
            return
        except (ConnectionResetError, OSError):
            self._client_gone(conn)
            return
        conn.last_activity = time.monotonic()
        if not chunk:
            conn.read_eof = True
            self._on_read_eof(conn)
            return
        conn.rbuf += chunk
        self._process_rbuf(conn)

    def _on_read_eof(self, conn: _Connection) -> None:
        if conn.pending:
            conn.close_after_flush = True
            self._update_interest(conn)
            return
        self._process_rbuf(conn)
        if conn.closed:
            return
        if conn.pending:
            # The leftover buffer started a query; answer it, then close.
            conn.close_after_flush = True
            self._update_interest(conn)
            return
        if conn.cur is not None:
            # Head parsed, body never finished: the client half-closed
            # mid-body.  Answer structurally, then close.
            req = conn.cur
            conn.cur = None
            req.started = time.perf_counter()
            got = len(conn.rbuf) - conn.head_len
            self._respond_error(
                conn, req, 400, "invalid_request",
                f"body truncated: got {got} of {req.body_len} bytes",
                close=True,
            )
            return
        if conn.wq:
            conn.close_after_flush = True
            self._update_interest(conn)
        else:
            self._close_conn(conn)

    def _client_gone(self, conn: _Connection) -> None:
        if conn.cur is not None or conn.pending:
            self.metrics.counter("http_responses").inc(label="client_gone")
        self._close_conn(conn)

    def _flush(self, conn: _Connection) -> None:
        wq = conn.wq
        sock = conn.sock
        while wq:
            try:
                if len(wq) == 1:
                    sent = sock.send(wq[0])
                else:
                    # writev the queued header+body views in one syscall;
                    # cap the iovec well under IOV_MAX.
                    if len(wq) <= 64:
                        bufs = list(wq)
                    else:
                        bufs = [wq[i] for i in range(64)]
                    sent = sock.sendmsg(bufs)
            except (BlockingIOError, InterruptedError):
                break
            except (BrokenPipeError, ConnectionResetError, OSError):
                self._client_gone(conn)
                return
            conn.wbytes -= sent
            self._buffered_total -= sent
            while sent:
                first = wq[0]
                if sent >= len(first):
                    sent -= len(first)
                    wq.popleft()
                else:
                    wq[0] = first[sent:]
                    sent = 0
        conn.last_activity = time.monotonic()
        if not wq and conn.close_after_flush:
            if conn.linger_left:
                self._linger(conn)
            else:
                self._close_conn(conn)
            return
        self._update_interest(conn)
        if not wq and not conn.pending and conn.rbuf and not conn.parsing:
            # Back-pressure released: resume parsing pipelined input.
            self._process_rbuf(conn)

    def _linger(self, conn: _Connection) -> None:
        """Half-close behind a flushed reject; read on until the client
        closes too (see ``LINGER_BYTES``)."""
        try:
            conn.sock.shutdown(socket.SHUT_WR)
        except OSError:
            self._close_conn(conn)
            return
        conn.linger_until = time.monotonic() + LINGER_S
        conn.rbuf.clear()
        self._update_interest(conn)

    def _discard_input(self, conn: _Connection) -> None:
        try:
            chunk = conn.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            chunk = b""
        conn.linger_left -= len(chunk)
        if not chunk or conn.linger_left <= 0:
            self._close_conn(conn)

    def _enqueue(self, conn: _Connection, data) -> None:
        if conn.closed:
            return
        view = memoryview(data) if not isinstance(data, memoryview) else data
        conn.wq.append(view)
        conn.wbytes += len(view)
        self._buffered_total += len(view)

    def _close_conn(self, conn: _Connection, quiet: bool = False) -> None:
        if conn.closed:
            return
        conn.closed = True
        self._buffered_total -= conn.wbytes
        conn.wbytes = 0
        conn.wq.clear()
        if conn.events and self._selector is not None:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass
        conn.events = 0
        self._conns.pop(conn.fd, None)
        try:
            conn.sock.close()
        except OSError:
            pass

    # -- parsing -------------------------------------------------------

    def _process_rbuf(self, conn: _Connection) -> None:
        # Responses produced inside the loop are queued, then flushed
        # once at the end — pipelined cache hits leave in one writev.
        conn.parsing = True
        try:
            while not conn.closed and not conn.pending:
                if conn.wbytes >= self.max_write_buffer:
                    break
                rbuf = conn.rbuf
                if conn.cur is None:
                    head_end = rbuf.find(b"\r\n\r\n")
                    if head_end < 0:
                        if len(rbuf) > MAX_HEADER_BYTES:
                            req = _Request()
                            req.started = time.perf_counter()
                            self._respond_error(
                                conn, req, 431, "headers_too_large",
                                f"request head exceeds "
                                f"{MAX_HEADER_BYTES} bytes",
                                close=True,
                            )
                        break
                    req = self._parse_head(bytes(rbuf[:head_end]))
                    if req is None:
                        bad = _Request()
                        bad.started = time.perf_counter()
                        self._respond_error(
                            conn, bad, 400, "invalid_request",
                            "malformed request head", close=True,
                        )
                        break
                    conn.cur = req
                    conn.head_len = head_end + 4
                req = conn.cur
                total = conn.head_len + req.body_len
                if len(rbuf) < total:
                    break  # body still arriving (bounded: reject set if huge)
                body = bytes(rbuf[conn.head_len:total])
                del rbuf[:total]
                conn.cur = None
                conn.head_len = 0
                self._dispatch(conn, req, body)
        finally:
            conn.parsing = False
        if not conn.closed:
            if conn.wq:
                self._flush(conn)
            else:
                self._update_interest(conn)

    def _parse_head(self, raw: bytes) -> _Request | None:
        lines = raw.split(b"\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            return None
        req = _Request()
        try:
            req.method = parts[0].decode("latin-1")
            req.path = parts[1].decode("latin-1")
            version = parts[2].decode("latin-1")
        except UnicodeDecodeError:
            return None
        req.keep_alive = version == "HTTP/1.1"
        headers = req.headers
        for line in lines[1:]:
            name, sep, value = line.partition(b":")
            if not sep:
                continue
            headers[name.strip().lower().decode("latin-1")] = (
                value.strip().decode("latin-1")
            )
        connection = headers.get("connection", "").lower()
        if "close" in connection:
            req.keep_alive = False
        elif not req.keep_alive and "keep-alive" in connection:
            req.keep_alive = True
        req.route = _KNOWN_ROUTES.get(req.path, "other")
        req.request_id = headers.get("x-request-id") or ""
        if req.method == "POST":
            if "chunked" in headers.get("transfer-encoding", "").lower():
                req.reject = (
                    411, "length_required",
                    "chunked transfer encoding is not supported; "
                    "send Content-Length",
                )
            else:
                try:
                    req.body_len = int(headers.get("content-length", "0"))
                except ValueError:
                    req.body_len = 0
                    req.reject = (
                        400, "invalid_request",
                        "malformed Content-Length header",
                    )
                else:
                    if req.body_len > MAX_BODY_BYTES:
                        # Never buffer it: reject on the head alone.
                        req.body_len = 0
                        req.reject = (
                            413, "payload_too_large",
                            f"request body exceeds {MAX_BODY_BYTES} bytes",
                        )
                    elif req.body_len < 0:
                        req.body_len = 0
                        req.reject = (
                            400, "invalid_request",
                            "negative Content-Length",
                        )
        return req

    # -- dispatch ------------------------------------------------------

    def _next_request_id(self) -> str:
        self._rid_counter += 1
        return f"{self._rid_prefix}{self._rid_counter:08x}"

    def _dispatch(self, conn: _Connection, req: _Request, body: bytes) -> None:
        req.started = time.perf_counter()
        injector = self.faults
        if not injector.active and req.method == "POST" and body:
            # Hot path: exact raw bytes seen before → serve the cached
            # response without parsing, validating, or tracing.  The
            # engine still tallies the hit so the byte-cache accounting
            # contract (one counted lookup per query POST) holds.
            memo = self._raw_memo.get(body)
            if memo is not None and req.reject is None and req.route == "query":
                self._raw_memo.move_to_end(body)
                if not req.request_id:
                    req.request_id = self._next_request_id()
                self.engine.count_byte_hit()
                self._respond_query(conn, req, memo, False)
                return
        if not req.request_id:
            req.request_id = self._next_request_id()
        if injector.active:
            delay_ms = injector.draw_latency()
            if delay_ms:
                self.metrics.counter("faults_injected_latency").inc()
                self._timer_seq += 1
                heapq.heappush(
                    self._timers,
                    (
                        time.monotonic() + delay_ms / 1e3,
                        self._timer_seq, conn, req, body,
                    ),
                )
                conn.pending = True
                self._update_interest(conn)
                return
        self._dispatch_faulted(conn, req, body)

    def _dispatch_faulted(
        self, conn: _Connection, req: _Request, body: bytes
    ) -> None:
        """Post-latency dispatch: the drop seam, then the real route."""
        injector = self.faults
        if (
            injector.active
            and req.method == "POST"
            and injector.trip("drop_conn")
        ):
            self.metrics.counter("faults_dropped_connections").inc()
            self._finish_request(conn, req, "dropped")
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._close_conn(conn)
            return
        try:
            with trace_span(
                "http.request",
                method=req.method,
                path=req.path,
                request_id=req.request_id,
            ):
                if req.method == "GET":
                    self._do_get(conn, req)
                elif req.method == "POST":
                    self._do_post(conn, req, body)
                else:
                    self._respond_error(
                        conn, req, 405, "method_not_allowed",
                        f"unsupported method {req.method}", close=True,
                    )
        except Exception as exc:  # last-ditch: structured, never a page
            if not conn.closed:
                self._respond_error(
                    conn, req, 500, "internal",
                    f"{type(exc).__name__}: {exc}", close=True,
                )

    def _do_get(self, conn: _Connection, req: _Request) -> None:
        engine = self.engine
        if req.path in ("/v1/health", "/health"):
            store = engine.store
            result = {
                "status": "serving",
                "store": str(store.root) if store is not None else None,
                "entries": engine.entry_count(),
                "cache": engine.stats,
                "inflight": self.metrics.gauge("http_inflight").snapshot(),
            }
            if self.worker_metrics_dir is not None:
                result["worker"] = self.worker_label
            self._respond_json(conn, req, 200, {"ok": True, "result": result})
            return
        if req.path in ("/v1/metrics", "/metrics"):
            self._respond_json(
                conn, req, 200, {"ok": True, "result": _metrics_view(self)}
            )
            return
        self._respond_error(
            conn, req, 404, "not_found", f"unknown path {req.path}"
        )

    def _do_post(self, conn: _Connection, req: _Request, body: bytes) -> None:
        if req.path in ("/v1/warm_traces", "/warm_traces"):
            self._do_warm_traces(conn, req, body)
            return
        if req.path not in ("/v1/query", "/query"):
            self._respond_error(
                conn, req, 404, "not_found", f"unknown path {req.path}"
            )
            return
        if req.reject is not None:
            status, code, message = req.reject
            # An unread/undrainable body would desync keep-alive: close.
            self._respond_error(conn, req, status, code, message, close=True)
            return
        if len(body) == 0:
            self._respond_error(
                conn, req, 400, "invalid_request", "request body is required"
            )
            return
        content_type = req.headers.get("content-type", "")
        binary = content_type.startswith(binproto.CONTENT_TYPE)
        if binary:
            declared = binproto.frame_payload_length(
                body, binproto.REQUEST_MAGIC
            )
            if declared is not None and declared > binproto.MAX_FRAME_PAYLOAD:
                self._respond_error(
                    conn, req, 413, "payload_too_large",
                    f"binary frame payload exceeds "
                    f"{binproto.MAX_FRAME_PAYLOAD} bytes",
                    close=True,
                )
                return
            try:
                payload = binproto.split_frame(body, binproto.REQUEST_MAGIC)
            except RequestError as exc:
                self._respond_error(conn, req, 400, "invalid_frame", str(exc))
                return
            probe = self.engine.try_cached_binary(payload)
            task = payload
        else:
            try:
                request = json.loads(body)
            except ValueError as exc:
                self._respond_error(
                    conn, req, 400, "invalid_json", f"body is not JSON: {exc}"
                )
                return
            try:
                probe = self.engine.try_cached_bytes(request)
            except Exception as exc:
                self._respond_mapped_error(conn, req, exc)
                return
            task = request
        if probe is not None:
            if not binary:
                self._memoize_raw(body, probe)
            self._respond_query(conn, req, probe, binary)
            return
        # Cache miss: the engine may price a space or hit the store —
        # blocking work that must not stall the loop.  Shed instead of
        # queueing without bound.
        if (
            self._inflight_count >= self.max_inflight
            or self._buffered_total >= self.max_total_buffered
        ):
            self.metrics.counter("http_overload_rejections").inc()
            self._respond_error(
                conn, req, 429, "overloaded",
                f"server is at its {self.max_inflight}-request "
                f"concurrency limit; retry after {RETRY_AFTER_S}s",
            )
            return
        self._inflight_count += 1
        self.metrics.gauge("http_inflight").add(1)
        conn.pending = True
        self._update_interest(conn)
        engine = self.engine
        compute = engine.query_binary if binary else engine.query_bytes

        def _run(task=task, conn=conn, req=req, binary=binary, raw=body):
            try:
                outcome = ("ok", compute(task), binary, raw)
            except BaseException as exc:
                outcome = ("err", exc, binary, raw)
            self._completions.append((conn, req, outcome))
            self._wake()

        self._executor.submit(_run)

    def _do_warm_traces(self, conn: _Connection, req: _Request, body: bytes) -> None:
        """Pre-populate this shard's trace-plane entries (blocking, off-loop).

        Trace generation is minutes of CPU at fleet scale, so it runs on
        the executor like a cold query and is subject to the same
        in-flight shedding; the loop keeps serving cached queries while
        the plane warms.
        """
        if req.reject is not None:
            status, code, message = req.reject
            self._respond_error(conn, req, status, code, message, close=True)
            return
        if len(body) == 0:
            request: dict = {}
        else:
            try:
                request = json.loads(body)
            except ValueError as exc:
                self._respond_error(
                    conn, req, 400, "invalid_json", f"body is not JSON: {exc}"
                )
                return
        if not isinstance(request, dict):
            self._respond_error(
                conn, req, 400, "invalid_request",
                "warm_traces body must be a JSON object",
            )
            return
        if self._inflight_count >= self.max_inflight:
            self.metrics.counter("http_overload_rejections").inc()
            self._respond_error(
                conn, req, 429, "overloaded",
                f"server is at its {self.max_inflight}-request "
                f"concurrency limit; retry after {RETRY_AFTER_S}s",
            )
            return
        self._inflight_count += 1
        self.metrics.gauge("http_inflight").add(1)
        conn.pending = True
        self._update_interest(conn)

        def _run(request=request, conn=conn, req=req):
            try:
                outcome = ("warm", _warm_traces_result(request), False, b"")
            except BaseException as exc:
                outcome = ("err", exc, False, b"")
            self._completions.append((conn, req, outcome))
            self._wake()

        self._executor.submit(_run)

    def _memoize_raw(self, body: bytes, entry: tuple[bytes, str]) -> None:
        memo = self._raw_memo
        if body not in memo:
            memo[body] = entry
            while len(memo) > RAW_MEMO_SIZE:
                memo.popitem(last=False)

    # -- completions / timers / sweep ---------------------------------

    def _run_completions(self) -> None:
        completions = self._completions
        while completions:
            try:
                conn, req, (kind, value, binary, raw) = completions.popleft()
            except IndexError:
                break
            self._inflight_count -= 1
            self.metrics.gauge("http_inflight").sub(1)
            if conn.closed:
                self._finish_request(conn, req, "client_gone")
                continue
            conn.pending = False
            if kind == "ok":
                if not binary:
                    self._memoize_raw(raw, value)
                self._respond_query(conn, req, value, binary)
            elif kind == "warm":
                self._respond_json(
                    conn, req, 200, {"ok": True, "result": value}
                )
            else:
                self._respond_mapped_error(conn, req, value)
            if not conn.closed:
                self._update_interest(conn)
                if not conn.pending and conn.rbuf:
                    self._process_rbuf(conn)
                elif conn.read_eof:
                    self._on_read_eof(conn)

    def _run_timers(self) -> None:
        now = time.monotonic()
        while self._timers and self._timers[0][0] <= now:
            _, _, conn, req, body = heapq.heappop(self._timers)
            if conn.closed:
                continue
            conn.pending = False
            self._dispatch_faulted(conn, req, body)
            if not conn.closed:
                self._update_interest(conn)
                if not conn.pending and conn.rbuf:
                    self._process_rbuf(conn)

    def _sweep(self, now: float) -> None:
        """Periodic housekeeping: idle and linger timeouts, loop gauges."""
        timeout = self.request_timeout
        for conn in list(self._conns.values()):
            if conn.linger_until:
                if now >= conn.linger_until:
                    self._close_conn(conn)
                continue
            if conn.pending:
                continue  # an engine answer is coming; don't kill it
            if timeout and timeout > 0 and now - conn.last_activity > timeout:
                if conn.cur is not None or conn.wq:
                    self.metrics.counter("http_responses").inc(
                        label="timeout"
                    )
                self._close_conn(conn)
        self.metrics.gauge("loop_connections").set(len(self._conns))
        self.metrics.gauge("loop_ready_queue").set(len(self._completions))
        self.metrics.gauge("loop_buffered_bytes").set(
            max(self._buffered_total, 0)
        )
        if self.worker_metrics_dir is not None:
            export_worker_metrics(self)

    # -- responses -----------------------------------------------------

    def _respond_query(
        self,
        conn: _Connection,
        req: _Request,
        entry: tuple[bytes, str],
        binary: bool,
    ) -> None:
        body, etag = entry
        if req.headers.get("if-none-match") == etag:
            self.metrics.counter("http_not_modified").inc()
            self._respond(conn, req, 304, b"", etag=etag)
            return
        content_type = binproto.CONTENT_TYPE if binary else "application/json"
        self._respond(
            conn, req, 200, body, etag=etag, content_type=content_type
        )

    def _respond_mapped_error(
        self, conn: _Connection, req: _Request, exc: BaseException
    ) -> None:
        for exc_type, status, code in _ERROR_STATUS:
            if isinstance(exc, exc_type):
                self._respond_error(conn, req, status, code, str(exc))
                return
        self._respond_error(
            conn, req, 500, "internal", f"{type(exc).__name__}: {exc}"
        )

    def _respond_json(
        self, conn: _Connection, req: _Request, status: int, payload: dict,
        close: bool = False,
    ) -> None:
        self._respond(
            conn, req, status, json.dumps(payload).encode(), close=close
        )

    def _respond_error(
        self, conn: _Connection, req: _Request, status: int, code: str,
        message: str, close: bool = False,
    ) -> None:
        self._respond_json(
            conn, req, status,
            {
                "ok": False,
                "error": {"code": code, "message": message},
                "request_id": req.request_id,
            },
            close=close,
        )

    def _respond(
        self,
        conn: _Connection,
        req: _Request,
        status: int,
        body: bytes,
        etag: str | None = None,
        content_type: str = "application/json",
        close: bool = False,
    ) -> None:
        if conn.closed:
            self._finish_request(conn, req, "client_gone")
            return
        close = close or not req.keep_alive or conn.close_after_flush
        if status == 200 and etag is not None and not close:
            # The dominant shape (200, keep-alive, tagged): one bytes
            # interpolation instead of string assembly + encode.
            ctype = (
                _CTYPE_JSON
                if content_type == "application/json"
                else content_type.encode("latin-1")
            )
            head = _HEAD_200 % (
                ctype, len(body),
                req.request_id.encode("latin-1"),
                etag.encode("latin-1"),
            )
            self._enqueue(conn, head)
            if body:
                self._enqueue(conn, body)
            self._finish_request(conn, req, 200)
            if not conn.parsing:
                self._flush(conn)
            return
        parts = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Server: repro-service/3",
        ]
        if status != 304:
            parts.append(f"Content-Type: {content_type}")
            parts.append(f"Content-Length: {len(body)}")
        parts.append(f"X-Request-Id: {req.request_id}")
        if etag is not None:
            parts.append(f"ETag: {etag}")
        if status in self.retry_after_statuses:
            parts.append(f"Retry-After: {RETRY_AFTER_S}")
        if close:
            parts.append("Connection: close")
        head = ("\r\n".join(parts) + "\r\n\r\n").encode("latin-1")
        self._enqueue(conn, head)
        if body and status != 304:
            self._enqueue(conn, body)
        if close:
            conn.close_after_flush = True
            conn.read_eof = True  # no further requests on this socket
            if status in _LINGER_STATUSES:
                conn.linger_left = LINGER_BYTES
        self._finish_request(conn, req, status)
        if not conn.parsing:
            self._flush(conn)

    def _finish_request(
        self, conn: _Connection, req: _Request, status: int | str
    ) -> None:
        dur_ms = (time.perf_counter() - req.started) * 1e3
        self.metrics.counter("http_requests").inc(
            label=f"{req.method} {req.route}"
        )
        self.metrics.counter("http_responses").inc(label=str(status))
        self.metrics.histogram("http_latency_ms").observe(dur_ms)
        self.obs_logger.log(
            "request",
            request_id=req.request_id,
            method=req.method,
            path=req.path,
            status=status,
            dur_ms=round(dur_ms, 3),
            remote=conn.addr[0] if conn.addr else "-",
        )
        if self.worker_metrics_dir is not None:
            export_worker_metrics(self)


def _warm_traces_result(request: dict) -> dict:
    """Run a ``/v1/warm_traces`` body through :func:`measure.warm_traces`.

    Executes on an executor thread.  A disabled trace plane is the
    caller's mistake (there is nowhere to warm), so ``ConfigError``
    maps to a 400 via :class:`RequestError`.
    """
    from repro.core import measure
    from repro.errors import ConfigError

    allowed = {"os_names", "workloads", "references", "seed", "jobs"}
    unknown = set(request) - allowed
    if unknown:
        raise RequestError(
            f"unknown warm_traces fields: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    os_names = request.get("os_names")
    workloads = request.get("workloads")
    for name, value in (("os_names", os_names), ("workloads", workloads)):
        if value is not None and (
            not isinstance(value, list)
            or not all(isinstance(item, str) for item in value)
        ):
            raise RequestError(f"{name} must be a list of strings")
    references = request.get("references")
    if references is not None and (
        not isinstance(references, int) or references < 1
    ):
        raise RequestError("references must be a positive integer")
    seed = request.get("seed", 1)
    if not isinstance(seed, int):
        raise RequestError("seed must be an integer")
    jobs = request.get("jobs")
    if jobs is not None and (not isinstance(jobs, int) or jobs < 1):
        raise RequestError("jobs must be a positive integer")
    try:
        outcomes = measure.warm_traces(
            os_names=tuple(os_names) if os_names is not None else None,
            workloads=tuple(workloads) if workloads is not None else None,
            references=references,
            seed=seed,
            jobs=jobs,
        )
    except ConfigError as exc:
        raise RequestError(str(exc)) from exc
    return {
        "warmed": [
            {"workload": workload, "os": os_name, "published": published}
            for workload, os_name, published in outcomes
        ],
        "entries": len(outcomes),
        "published": sum(1 for _, _, published in outcomes if published),
    }


# -- fleet metrics plumbing (shared with the pre-fork master) ----------


def _metrics_view(server) -> dict:
    """The ``/v1/metrics`` payload, fleet-aggregated when pre-forked.

    Single-process servers render their own registry.  A pre-fork
    worker first force-exports its own snapshot, then merges every
    sibling's last export from the shared metrics directory, so any
    worker can answer for the whole fleet (load balancing means the
    scrape may land anywhere).
    """
    engine = server.engine
    view: dict = {
        "uptime_s": round(time.monotonic() - server.started_monotonic, 3),
    }
    if server.worker_metrics_dir is None:
        stats = engine.stats
        view["engine_cache"] = _with_hit_rate(stats)
        view["faults"] = server.faults.trip_counts()
        view.update(_instrument_snapshot(server))
        return view

    export_worker_metrics(server, force=True)
    snapshots = read_worker_snapshots(server.worker_metrics_dir)
    engine_cache: dict[str, int] = {}
    faults: dict[str, int] = {}
    for snap in snapshots.values():
        for key, value in snap.get("engine_cache", {}).items():
            engine_cache[key] = engine_cache.get(key, 0) + value
        for key, value in snap.get("faults", {}).items():
            faults[key] = faults.get(key, 0) + value
    view["worker"] = server.worker_label
    view["workers"] = sorted(snapshots)
    view["engine_cache"] = _with_hit_rate(engine_cache)
    view["faults"] = faults
    view.update(
        merge_registry_snapshots(
            [snap.get("instruments", {}) for snap in snapshots.values()]
        )
    )
    return view


def _with_hit_rate(stats: dict) -> dict:
    lookups = stats.get("hits", 0) + stats.get("misses", 0)
    return {
        **stats,
        "hit_rate": round(stats["hits"] / lookups, 4) if lookups else None,
    }


def _instrument_snapshot(server) -> dict:
    """The server's registry merged with the trace plane's counters.

    The tracestore keeps its own module-level registry (it is used far
    from any server), so the trace_plane_* counters — hits,
    generations, evictions, compactions — ride along in every metrics
    export and scrape rather than needing their own endpoint.
    """
    from repro.trace import tracestore

    return merge_registry_snapshots(
        [server.metrics.snapshot(), tracestore.METRICS.snapshot()]
    )


def _worker_snapshot(server) -> dict:
    return {
        "worker": server.worker_label,
        "pid": os.getpid(),
        "engine_cache": server.engine.stats,
        "faults": server.faults.trip_counts(),
        "instruments": _instrument_snapshot(server),
    }


def export_worker_metrics(server, force: bool = False) -> None:
    """Write this worker's snapshot to the shared metrics directory.

    Time-gated (``METRICS_EXPORT_INTERVAL_S``) so the per-request
    epilogue stays cheap under load; the write is atomic (tmp +
    ``os.replace``) so a sibling aggregating mid-write never reads a
    torn JSON file.
    """
    now = time.monotonic()
    if not force and now - server.last_metrics_export < METRICS_EXPORT_INTERVAL_S:
        return
    server.last_metrics_export = now
    directory = Path(server.worker_metrics_dir)
    target = directory / f"worker-{server.worker_label}.json"
    tmp = directory / f".worker-{server.worker_label}.json.tmp"
    try:
        tmp.write_text(json.dumps(_worker_snapshot(server)))
        os.replace(tmp, target)
    except OSError:
        pass  # metrics export must never take down a request


def read_worker_snapshots(directory: str | os.PathLike) -> dict[str, dict]:
    """All workers' last exported snapshots, keyed by worker label."""
    snapshots: dict[str, dict] = {}
    for path in sorted(Path(directory).glob("worker-*.json")):
        try:
            snap = json.loads(path.read_text())
        except (OSError, ValueError):
            continue  # sibling died mid-replace or file vanished
        label = snap.get("worker") or path.stem.removeprefix("worker-")
        snapshots[str(label)] = snap
    return snapshots
