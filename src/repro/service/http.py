"""HTTP front end for the allocation query engine.

The public surface of the service's data plane:

* ``GET /v1/health`` — liveness plus store metadata;
* ``GET /v1/metrics`` — request counts, latency histograms, cache
  hit-rate, responses by status code, fault-injection trip counts,
  event-loop gauges (ready-queue depth, buffered bytes, connections);
* ``POST /v1/query`` — one JSON request (see
  :mod:`repro.service.requests`) answered by the shared
  :class:`~repro.service.engine.QueryEngine`, or one framed binary
  batch request (``Content-Type: application/x-repro-batch``, see
  :mod:`repro.service.binproto`) answered in kind.

Every response carries an ``X-Request-Id`` header (echoed from the
client's, or generated).  Success wraps the engine's answer as
``{"ok": true, "result": ...}``; failures return a structured error
``{"ok": false, "error": {"code", "message"}, "request_id": ...}``
with a status code matched to the failure class (400 malformed, 404
unknown path, 411 chunked body, 413 oversized body, 422 unsatisfiable
budget, 429 overload, 431 oversized head, 503 store problems) — an
unexpected exception still produces a structured 500, never a bare
traceback page.

Since PR 6 the implementation behind :func:`make_server` is a
``selectors``-based non-blocking event loop
(:class:`~repro.service.eventloop.EventLoopHTTPServer`) rather than a
thread-per-connection ``http.server``: cached answers are written as
zero-copy ``memoryview`` slices, warm-space ``limit: 1`` points are
answered on the loop too, other engine misses run in a small bounded
executor off the loop, slow clients are bounded by per-connection and
loop-wide buffer caps, and overload is shed with structured 429 +
``Retry-After`` instead of queueing without bound.  The object model
(``serve_forever`` / ``shutdown`` / ``server_close`` /
``server_address``) and every constant below are unchanged, so the
pre-fork workers, CLI, tests, and benchmarks run on either mental
model without edits.
"""

from __future__ import annotations

import os
import socket
import sys
import time

from repro.obs import JsonLogger, MetricsRegistry, NullLogger
from repro.service.engine import QueryEngine
from repro.service.eventloop import (  # noqa: F401  (re-exported surface)
    DEFAULT_DRAIN_S,
    DEFAULT_EXECUTOR_THREADS,
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_REQUEST_TIMEOUT_S,
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    MAX_TOTAL_BUFFERED_BYTES,
    MAX_WRITE_BUFFER_BYTES,
    METRICS_EXPORT_INTERVAL_S,
    RETRY_AFTER_S,
    EventLoopHTTPServer,
    _ERROR_STATUS,
    _KNOWN_ROUTES,
    _metrics_view,
    _with_hit_rate,
    export_worker_metrics,
    read_worker_snapshots,
)
from repro.service.faults import FaultInjector, get_injector


def make_server(
    engine: QueryEngine,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT_S,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    log_stream=None,
    faults: FaultInjector | None = None,
    metrics: MetricsRegistry | None = None,
    sock: socket.socket | None = None,
    worker_metrics_dir: str | os.PathLike | None = None,
    worker_label: str | None = None,
    executor_threads: int = DEFAULT_EXECUTOR_THREADS,
    drain_grace_s: float = DEFAULT_DRAIN_S,
    max_write_buffer: int = MAX_WRITE_BUFFER_BYTES,
    max_total_buffered: int = MAX_TOTAL_BUFFERED_BYTES,
    server_cls: type[EventLoopHTTPServer] = EventLoopHTTPServer,
) -> EventLoopHTTPServer:
    """A ready-to-run event-loop server; ``port=0`` binds ephemeral.

    Args:
        request_timeout: idle-connection timeout in seconds — a stalled
            client gets disconnected by the loop's sweep, not a parked
            thread.
        max_inflight: concurrent engine-miss bound (queued + executing
            off-loop queries); excess gets 429.  Cache hits are served
            on-loop and never consume it.
        log_stream: stream for JSON request logs (None + verbose →
            stderr; None + quiet → no logs).
        faults: fault injector (default: the process one, usually off).
        metrics: share a registry across servers (default: fresh).
        sock: an already-bound listening socket to adopt instead of
            binding ``(host, port)`` — how pre-fork workers share one
            address (SO_REUSEPORT siblings or an inherited socket).
        worker_metrics_dir: directory for per-worker metric snapshots;
            enables fleet aggregation on ``/v1/metrics``.
        worker_label: this worker's name in exported snapshots.
        executor_threads: size of the off-loop executor that runs
            engine misses (cold queries, store loads).
        drain_grace_s: how long ``shutdown()`` waits for in-flight
            queries and unflushed responses before giving up.
        max_write_buffer: per-connection buffered-response cap; a
            connection past it stops being read until it drains.
        max_total_buffered: loop-wide buffered-response cap; past it
            query POSTs are shed with 429.
        server_cls: the loop class to instantiate — lets the fleet
            router substitute its own subclass while reusing all of
            this wiring.
    """
    server = server_cls(
        (host, port),
        sock=sock,
        max_inflight=max_inflight,
        request_timeout=request_timeout,
        executor_threads=executor_threads,
        drain_grace_s=drain_grace_s,
        max_write_buffer=max_write_buffer,
        max_total_buffered=max_total_buffered,
    )
    server.engine = engine
    server.verbose = verbose
    server.metrics = metrics if metrics is not None else MetricsRegistry()
    server.faults = faults if faults is not None else get_injector()
    server.started_monotonic = time.monotonic()
    server.worker_metrics_dir = worker_metrics_dir
    server.worker_label = worker_label or str(os.getpid())
    server.last_metrics_export = 0.0
    if log_stream is not None:
        server.obs_logger = JsonLogger(log_stream)
    elif verbose:
        server.obs_logger = JsonLogger(sys.stderr)
    else:
        server.obs_logger = NullLogger()
    return server


def drain(server: EventLoopHTTPServer, deadline_s: float = DEFAULT_DRAIN_S) -> bool:
    """Graceful shutdown: wait for in-flight queries, then close.

    The caller must already have stopped the accept loop
    (``serve_forever`` returned or ``server.shutdown()`` was called
    from another thread; the loop's shutdown path itself waits for
    in-flight queries).  Returns True if the server drained fully
    inside the deadline.
    """
    deadline = time.monotonic() + deadline_s
    gauge = server.metrics.gauge("http_inflight")
    drained = False
    while time.monotonic() < deadline:
        if gauge.snapshot()["current"] == 0:
            drained = True
            break
        time.sleep(0.01)
    server.server_close()
    server.obs_logger.log("shutdown", drained=drained)
    return drained


def shutdown_gracefully(
    server: EventLoopHTTPServer, deadline_s: float = DEFAULT_DRAIN_S
) -> bool:
    """Stop accepting, drain in-flight queries, close.  Call from a
    thread other than the one running ``serve_forever``."""
    server.drain_grace_s = min(server.drain_grace_s, deadline_s)
    server.shutdown()
    return drain(server, deadline_s)


def serve(
    engine: QueryEngine,
    host: str = "127.0.0.1",
    port: int = 8023,
    verbose: bool = True,
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT_S,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    faults: FaultInjector | None = None,
    executor_threads: int = DEFAULT_EXECUTOR_THREADS,
) -> None:
    """Serve until interrupted (the CLI's ``serve`` subcommand)."""
    server = make_server(
        engine,
        host,
        port,
        verbose=verbose,
        request_timeout=request_timeout,
        max_inflight=max_inflight,
        faults=faults,
        executor_threads=executor_threads,
    )
    bound_host, bound_port = server.server_address[:2]
    print(f"repro.service listening on http://{bound_host}:{bound_port}/v1/query")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        drain(server)
