"""Length-prefixed binary batch protocol for the query service.

High-QPS batch clients spend most of their cycles JSON-encoding budget
sweeps and JSON-decoding allocation tables.  This module defines a
compact binary framing for exactly the ``batch`` query shape, spoken
over the normal ``POST /v1/query`` endpoint with::

    Content-Type: application/x-repro-batch

Every frame is ``magic (4 bytes) + u32 payload length (LE) + payload``;
a frame whose declared length disagrees with the bytes on the wire is
rejected (truncated frames get a structured 400, oversized ones a 413)
instead of being guessed at.  All floats cross the wire as raw IEEE-754
little-endian doubles, so ``area_rbe``/``cpi`` round-trip **bit-exactly**
— the decoded response reconstructs the same dict the JSON path
produces, including the derived ``total_cost_rbe``/``total_cpi`` columns
(``round`` over an identical double is deterministic), which is what the
differential tests hold.

Request payload::

    u16 n_os     + n_os x (u16 len, utf-8 os name)
    u32 n_budget + n_budget x f64 budget
    u32 limit            (0 encodes "unset" -> server default of 1)
    u32 max_cache_assoc  (0 encodes None)
    f64 max_access_time_ns (NaN encodes None)

Response payload::

    u32 n_results
    per result: u16 os len + os, f64 budget, u8 feasible,
                u32 n_alloc, per allocation:
                    f64 area_rbe, f64 cpi,
                    3 x (u16 len + label) for tlb / icache / dcache

Frame errors raise :class:`~repro.errors.RequestError` (mapped to a
structured 400 by the HTTP layer); the server bounds accepted payloads
with :data:`MAX_FRAME_PAYLOAD` (413 past it).
"""

from __future__ import annotations

import math
import struct

from repro.errors import RequestError

CONTENT_TYPE = "application/x-repro-batch"
REQUEST_MAGIC = b"RBQ1"
RESPONSE_MAGIC = b"RBR1"
MAX_FRAME_PAYLOAD = 4 * 1024 * 1024
"""Hard cap on a frame's declared payload length (matches the JSON
body cap; anything larger is shed with a 413 before it is parsed)."""

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_ALLOC_FIXED = struct.Struct("<dd")


class _Reader:
    """Bounds-checked cursor over one frame payload."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise RequestError(
                f"binary frame truncated: needed {n} bytes at offset "
                f"{self.pos}, payload is {len(self.data)} bytes"
            )
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def f64(self) -> float:
        return _F64.unpack(self.take(8))[0]

    def string(self) -> str:
        raw = self.take(self.u16())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise RequestError(f"binary frame string is not UTF-8: {exc}")

    def done(self) -> None:
        if self.pos != len(self.data):
            raise RequestError(
                f"binary frame has {len(self.data) - self.pos} trailing "
                "bytes after the payload"
            )


def _frame(magic: bytes, payload: bytes) -> bytes:
    return magic + _U32.pack(len(payload)) + payload


def split_frame(body: bytes, magic: bytes) -> bytes:
    """Strip and verify the ``magic + u32 length`` prefix.

    Raises:
        RequestError: bad magic, or declared length disagreeing with
            the actual body (truncated or trailing bytes).
    """
    if len(body) < 8:
        raise RequestError(
            f"binary frame too short for a header: {len(body)} bytes"
        )
    if body[:4] != magic:
        raise RequestError(
            f"binary frame magic {body[:4]!r} != expected {magic!r}"
        )
    declared = _U32.unpack(body[4:8])[0]
    actual = len(body) - 8
    if declared != actual:
        kind = "truncated" if actual < declared else "oversized"
        raise RequestError(
            f"binary frame {kind}: header declares {declared} payload "
            f"bytes, got {actual}"
        )
    return body[8:]


def frame_payload_length(body: bytes, magic: bytes) -> int | None:
    """The declared payload length, or None if the header is malformed.

    Used by the server to shed oversized frames (413) *before* parsing.
    """
    if len(body) < 8 or body[:4] != magic:
        return None
    return _U32.unpack(body[4:8])[0]


def _string(value: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise RequestError(f"string field too long for the wire: {len(raw)}")
    return _U16.pack(len(raw)) + raw


# -- requests ----------------------------------------------------------


def encode_batch_request(request: dict) -> bytes:
    """One JSON-shaped batch request dict -> a framed binary request.

    Accepts the same spellings as the JSON endpoint (``os`` or
    ``os_names``); validation proper stays server-side.
    """
    os_names = request.get("os_names")
    if os_names is None:
        os_name = request.get("os")
        os_names = [os_name] if isinstance(os_name, str) else []
    budgets = request.get("budgets") or []
    limit = request.get("limit")
    max_cache_assoc = request.get("max_cache_assoc")
    max_access_time_ns = request.get("max_access_time_ns")
    parts = [_U16.pack(len(os_names))]
    parts += [_string(name) for name in os_names]
    parts.append(_U32.pack(len(budgets)))
    parts += [_F64.pack(float(b)) for b in budgets]
    parts.append(_U32.pack(int(limit) if limit else 0))
    parts.append(_U32.pack(int(max_cache_assoc) if max_cache_assoc else 0))
    parts.append(
        _F64.pack(
            float(max_access_time_ns)
            if max_access_time_ns is not None
            else math.nan
        )
    )
    return _frame(REQUEST_MAGIC, b"".join(parts))


def decode_batch_request(payload: bytes) -> dict:
    """A binary request payload -> the JSON-shaped batch request dict.

    The result goes through the same ``validate_request`` as JSON
    input, so limits (batch size, positivity) are enforced identically.
    """
    reader = _Reader(payload)
    os_names = [reader.string() for _ in range(reader.u16())]
    budgets = [reader.f64() for _ in range(reader.u32())]
    limit = reader.u32()
    max_cache_assoc = reader.u32()
    max_access_time_ns = reader.f64()
    reader.done()
    request: dict = {
        "type": "batch",
        "os_names": os_names,
        "budgets": budgets,
    }
    if limit:
        request["limit"] = limit
    if max_cache_assoc:
        request["max_cache_assoc"] = max_cache_assoc
    if not math.isnan(max_access_time_ns):
        request["max_access_time_ns"] = max_access_time_ns
    return request


# -- responses ---------------------------------------------------------


def encode_batch_response(result: dict) -> bytes:
    """The engine's batch result dict -> a framed binary response."""
    parts = [_U32.pack(len(result["results"]))]
    for row in result["results"]:
        parts.append(_string(row["os"]))
        parts.append(_F64.pack(row["budget"]))
        parts.append(bytes((1 if row["feasible"] else 0,)))
        allocations = row["allocations"]
        parts.append(_U32.pack(len(allocations)))
        for alloc in allocations:
            parts.append(_ALLOC_FIXED.pack(alloc["area_rbe"], alloc["cpi"]))
            parts.append(_string(alloc["tlb"]))
            parts.append(_string(alloc["icache"]))
            parts.append(_string(alloc["dcache"]))
    return _frame(RESPONSE_MAGIC, b"".join(parts))


def decode_batch_response(body: bytes) -> dict:
    """A framed binary response -> the JSON path's result dict.

    ``rank``/``total_cost_rbe``/``total_cpi`` are re-derived exactly as
    :func:`repro.service.engine.allocation_entry` derives them, from
    bit-identical doubles — so the decoded dict compares equal to the
    JSON endpoint's answer for the same question.
    """
    reader = _Reader(split_frame(body, RESPONSE_MAGIC))
    results = []
    for _ in range(reader.u32()):
        os_name = reader.string()
        budget = reader.f64()
        feasible = bool(reader.take(1)[0])
        allocations = []
        for rank in range(1, reader.u32() + 1):
            area_rbe, cpi = _ALLOC_FIXED.unpack(reader.take(16))
            allocations.append(
                {
                    "rank": rank,
                    "tlb": reader.string(),
                    "icache": reader.string(),
                    "dcache": reader.string(),
                    "total_cost_rbe": round(area_rbe),
                    "total_cpi": round(cpi, 3),
                    "area_rbe": area_rbe,
                    "cpi": cpi,
                }
            )
        results.append(
            {
                "os": os_name,
                "budget": budget,
                "feasible": feasible,
                "allocations": allocations,
            }
        )
    reader.done()
    return {"type": "batch", "count": len(results), "results": results}
