"""Binary batch protocol: codec contracts and the wire differential.

Two layers of guarantee:

* **codec** — encode/decode are exact inverses for the batch request
  shape, floats cross the wire as raw doubles (bit-exact round-trip),
  and malformed frames (bad magic, truncation, trailing garbage,
  oversized declarations) are *rejected with a structured error*, never
  guessed at;
* **differential** — the binary path through a live event-loop server
  answers the full Table 5 area grid identically to the JSON path, and
  both agree with the in-process :class:`Allocator` ground truth.
"""

from __future__ import annotations

import http.client
import json
import struct
import threading

import pytest

from repro.core.measure import BenefitCurves, measure_workload
from repro.errors import BudgetError, RequestError
from repro.service import binproto
from repro.service.client import ServiceClient
from repro.service.engine import QueryEngine
from repro.service.http import make_server, shutdown_gracefully
from repro.store import CurveStore, StoreKey
from tests.core.oracles import mask_rank

TEST_REFERENCES = 60_000


@pytest.fixture(scope="module")
def curves():
    single = measure_workload("ousterhout", "mach", references=TEST_REFERENCES)
    return BenefitCurves(os_name="mach", per_workload=[single])


@pytest.fixture(scope="module")
def store(tmp_path_factory, curves):
    store = CurveStore(tmp_path_factory.mktemp("binproto-store") / "store")
    store.build(curves, StoreKey.current("mach", suite=("ousterhout",)))
    return store


@pytest.fixture(scope="module")
def engine(store):
    return QueryEngine(store)


@pytest.fixture(scope="module")
def server(store):
    server = make_server(QueryEngine(store), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    shutdown_gracefully(server, deadline_s=5.0)
    thread.join(timeout=10.0)


GRID_POINTS = 2000


def _grid_budgets(engine) -> list[float]:
    """Budgets spanning the Table 5 configuration space's area grid.

    The raw grid has one area per configuration (~240k points, far
    past the 10k batch cap), so distinct areas are strided down to
    :data:`GRID_POINTS` evenly spaced picks that still cover the full
    span, bracketed by an infeasible low point and a covers-everything
    high point.
    """
    import numpy as np

    priced = engine.priced_space("mach")
    distinct = np.unique(priced.area_grid)
    stride = max(1, len(distinct) // GRID_POINTS)
    picks = [float(a) for a in distinct[::stride][:GRID_POINTS]]
    return [float(distinct[0]) * 0.5] + picks + [float(distinct[-1]) * 2.0]


class TestCodec:
    def test_request_round_trip_is_exact(self):
        request = {
            "type": "batch",
            "os_names": ["mach", "ultrix"],
            "budgets": [1.0, 250_000.3, 7.25e5],
            "limit": 3,
            "max_cache_assoc": 2,
            "max_access_time_ns": 14.5,
        }
        decoded = binproto.decode_batch_request(
            binproto.split_frame(
                binproto.encode_batch_request(request),
                binproto.REQUEST_MAGIC,
            )
        )
        assert decoded == request

    def test_request_optional_fields_default_off(self):
        request = {"type": "batch", "os": "mach", "budgets": [2.5e5]}
        decoded = binproto.decode_batch_request(
            binproto.split_frame(
                binproto.encode_batch_request(request),
                binproto.REQUEST_MAGIC,
            )
        )
        assert decoded == {
            "type": "batch", "os_names": ["mach"], "budgets": [2.5e5],
        }
        assert "limit" not in decoded
        assert "max_access_time_ns" not in decoded

    def test_budgets_round_trip_bit_exact(self):
        # Adversarial doubles: denormal-adjacent, repeating fractions,
        # and a value that decimal text would rewrite.
        budgets = [0.1 + 0.2, 1e-300, 123456.789012345678, 2.5e5]
        frame = binproto.encode_batch_request(
            {"type": "batch", "os": "mach", "budgets": budgets}
        )
        decoded = binproto.decode_batch_request(
            binproto.split_frame(frame, binproto.REQUEST_MAGIC)
        )
        assert [
            struct.pack("<d", b) for b in decoded["budgets"]
        ] == [struct.pack("<d", b) for b in budgets]

    def test_response_round_trip(self, engine):
        result = engine.query(
            {"type": "batch", "os": "mach",
             "budgets": [150_000.0, 250_000.0], "limit": 4}
        )
        decoded = binproto.decode_batch_response(
            binproto.encode_batch_response(result)
        )
        assert decoded == result

    def test_bad_magic_rejected(self):
        frame = binproto.encode_batch_request(
            {"type": "batch", "os": "mach", "budgets": [1.0]}
        )
        with pytest.raises(RequestError, match="magic"):
            binproto.split_frame(b"XXXX" + frame[4:], binproto.REQUEST_MAGIC)

    def test_truncated_frame_rejected(self):
        frame = binproto.encode_batch_request(
            {"type": "batch", "os": "mach", "budgets": [1.0, 2.0, 3.0]}
        )
        with pytest.raises(RequestError, match="truncated"):
            binproto.split_frame(frame[:-5], binproto.REQUEST_MAGIC)

    def test_trailing_bytes_rejected(self):
        frame = binproto.encode_batch_request(
            {"type": "batch", "os": "mach", "budgets": [1.0]}
        )
        # Padding the body without fixing the length header is caught
        # by the frame check...
        with pytest.raises(RequestError, match="oversized"):
            binproto.split_frame(frame + b"\x00" * 4, binproto.REQUEST_MAGIC)
        # ...and padding *with* a fixed-up header is caught by the
        # payload cursor at decode time.
        padded = frame[:4] + struct.pack(
            "<I", len(frame) - 8 + 4
        ) + frame[8:] + b"\x00" * 4
        with pytest.raises(RequestError, match="trailing"):
            binproto.decode_batch_request(
                binproto.split_frame(padded, binproto.REQUEST_MAGIC)
            )

    def test_truncated_payload_inside_frame_rejected(self):
        # A self-consistent frame whose payload lies about its own
        # contents: declares 3 budgets but carries 1.
        payload = (
            struct.pack("<H", 1) + struct.pack("<H", 4) + b"mach"
            + struct.pack("<I", 3) + struct.pack("<d", 1.0)
        )
        frame = binproto.REQUEST_MAGIC + struct.pack("<I", len(payload)) \
            + payload
        with pytest.raises(RequestError, match="truncated"):
            binproto.decode_batch_request(
                binproto.split_frame(frame, binproto.REQUEST_MAGIC)
            )

    def test_header_too_short_rejected(self):
        with pytest.raises(RequestError, match="too short"):
            binproto.split_frame(b"RBQ1\x00", binproto.REQUEST_MAGIC)

    def test_frame_payload_length_reads_header_only(self):
        frame = binproto.REQUEST_MAGIC + struct.pack("<I", 99) + b"x"
        assert binproto.frame_payload_length(
            frame, binproto.REQUEST_MAGIC
        ) == 99
        assert binproto.frame_payload_length(
            b"JUNKJUNK", binproto.REQUEST_MAGIC
        ) is None


class TestWireDifferential:
    def _post(self, server, body: bytes, content_type: str):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request(
                "POST", "/v1/query", body=body,
                headers={"Content-Type": content_type},
            )
            response = conn.getresponse()
            return response.status, response.getheader("Content-Type"), \
                response.read()
        finally:
            conn.close()

    def test_full_table5_grid_binary_equals_json_equals_allocator(
        self, server, engine
    ):
        budgets = _grid_budgets(engine)
        request = {
            "type": "batch", "os": "mach", "budgets": budgets, "limit": 3,
        }

        status, ctype, raw_json = self._post(
            server, json.dumps(request).encode(), "application/json"
        )
        assert status == 200 and ctype == "application/json"
        via_json = json.loads(raw_json)["result"]

        status, ctype, raw_bin = self._post(
            server, binproto.encode_batch_request(request),
            binproto.CONTENT_TYPE,
        )
        assert status == 200 and ctype == binproto.CONTENT_TYPE
        via_binary = binproto.decode_batch_response(raw_bin)

        assert via_binary == via_json

        # A spread of rows must agree with the in-process ground-truth
        # ranking (every row through the slow path would take minutes;
        # JSON-vs-binary equality above already covers all of them).
        priced = engine.priced_space("mach")
        paired = list(zip(via_binary["results"], budgets))
        sampled = paired[::40] + [paired[0], paired[-1]]
        for row, budget in sampled:
            try:
                expected = mask_rank(priced, budget, limit=3)
            except BudgetError:
                expected = []
            assert row["feasible"] == bool(expected)
            got = [
                (a["tlb"], a["icache"], a["dcache"], a["area_rbe"], a["cpi"])
                for a in row["allocations"]
            ]
            want = [
                (e.config.tlb.label(), e.config.icache.label(),
                 e.config.dcache.label(), e.area_rbe, e.cpi)
                for e in expected
            ]
            assert got == want

    def test_truncated_frame_gets_structured_400(self, server):
        frame = binproto.encode_batch_request(
            {"type": "batch", "os": "mach", "budgets": [2.5e5]}
        )
        status, _, body = self._post(
            server, frame[:-3], binproto.CONTENT_TYPE
        )
        payload = json.loads(body)
        assert status == 400
        assert payload["ok"] is False
        assert payload["error"]["code"] == "invalid_frame"

    def test_oversized_declared_frame_gets_413(self, server):
        # Header declares a payload past MAX_FRAME_PAYLOAD; the server
        # must shed on the header alone, before any parsing.
        frame = binproto.REQUEST_MAGIC + struct.pack(
            "<I", binproto.MAX_FRAME_PAYLOAD + 1
        ) + b"x"
        status, _, body = self._post(server, frame, binproto.CONTENT_TYPE)
        payload = json.loads(body)
        assert status == 413
        assert payload["ok"] is False

    def test_client_binary_flag_matches_json_client(self, server):
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        request = {
            "type": "batch", "os": "mach",
            "budgets": [140_000.0, 250_000.0, 9e9], "limit": 2,
        }
        json_client = ServiceClient(base)
        bin_client = ServiceClient(base, binary_batch=True)
        try:
            assert bin_client.query(request) == json_client.query(request)
        finally:
            json_client.close()
            bin_client.close()
