"""Lightweight span tracing for the query path.

A :class:`Tracer` hands out context-manager spans; closed spans carry
``(trace_id, span_id, parent_id, name, dur_ms, attrs)`` and land in a
bounded ring buffer (and, optionally, a callback — the HTTP layer
feeds them to the structured log).  Parenting is thread-local, so the
engine's ``store.load`` span nests under the request's ``query`` span
on the same handler thread without any explicit context passing.

The default tracer is process-global and always on — recording a span
is two ``perf_counter`` calls and a deque append, cheap enough to keep
in production paths.  ``repro.store`` and ``repro.service.engine``
trace through this module, so a request decomposes into
``http.request → engine.query → store.load → engine.price →
engine.point`` with per-stage durations.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque

DEFAULT_SPAN_BUFFER = 512

_ids = itertools.count(1)
_id_lock = threading.Lock()


def _next_id() -> int:
    with _id_lock:
        return next(_ids)


class Span:
    """One timed operation; use as a context manager.

    Attributes are free-form JSON-compatible values; ``set`` adds them
    mid-flight (e.g. the number of allocations an answer returned).
    """

    __slots__ = (
        "tracer", "name", "trace_id", "span_id", "parent_id",
        "attrs", "start", "dur_ms", "error",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: int,
        parent_id: int | None,
        attrs: dict,
    ):
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = _next_id()
        self.parent_id = parent_id
        self.attrs = attrs
        self.start = 0.0
        self.dur_ms = 0.0
        self.error: str | None = None

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.start = time.perf_counter()
        self.tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.dur_ms = (time.perf_counter() - self.start) * 1e3
        if exc is not None:
            self.error = f"{type(exc).__name__}: {exc}"
        self.tracer._pop(self)

    def to_dict(self) -> dict:
        out = {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "dur_ms": round(self.dur_ms, 3),
        }
        if self.attrs:
            out["attrs"] = self.attrs
        if self.error is not None:
            out["error"] = self.error
        return out


class Tracer:
    """Produces spans; keeps the last ``buffer_size`` finished ones."""

    def __init__(
        self,
        buffer_size: int = DEFAULT_SPAN_BUFFER,
        on_finish=None,
    ):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._finished: deque[dict] = deque(maxlen=buffer_size)
        self.on_finish = on_finish

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = _next_id(), None
        return Span(self, name, trace_id, parent_id, attrs)

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        record = span.to_dict()
        with self._lock:
            self._finished.append(record)
        if self.on_finish is not None:
            self.on_finish(record)

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def finished(self) -> list[dict]:
        """Finished spans, oldest first (a snapshot of the ring)."""
        with self._lock:
            return list(self._finished)


_default_tracer = Tracer()
_default_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide tracer the service components record into."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide tracer (tests); returns the previous one."""
    global _default_tracer
    with _default_lock:
        previous, _default_tracer = _default_tracer, tracer
    return previous


def trace_span(name: str, **attrs) -> Span:
    """A span on the default tracer — the one-liner call sites use."""
    return _default_tracer.span(name, **attrs)
