"""The service front ends: HTTP endpoint and the JSON CLI."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.allocator import DEFAULT_BUDGET_RBES, Allocator
from repro.core.measure import BenefitCurves, measure_workload
from repro.service.__main__ import main as cli_main
from repro.service.engine import QueryEngine
from repro.service.http import MAX_BODY_BYTES, make_server, shutdown_gracefully
from repro.store import CurveStore, StoreKey
from tests.core.oracles import mask_rank

TEST_REFERENCES = 60_000


@pytest.fixture(scope="module")
def curves():
    single = measure_workload("ousterhout", "mach", references=TEST_REFERENCES)
    return BenefitCurves(os_name="mach", per_workload=[single])


@pytest.fixture(scope="module")
def store(tmp_path_factory, curves):
    store = CurveStore(tmp_path_factory.mktemp("svc-store") / "store")
    store.build(curves, StoreKey.current("mach", suite=("ousterhout",)))
    return store


@pytest.fixture(scope="module")
def server(store):
    server = make_server(QueryEngine(store), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _post(server, path, payload, raw: bytes | None = None):
    host, port = server.server_address[:2]
    body = raw if raw is not None else json.dumps(payload).encode()
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _get(server, path):
    host, port = server.server_address[:2]
    try:
        with urllib.request.urlopen(
            f"http://{host}:{port}{path}", timeout=10
        ) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestHttp:
    def test_health(self, server):
        status, payload = _get(server, "/v1/health")
        assert status == 200
        assert payload["ok"] is True
        assert payload["result"]["status"] == "serving"
        assert payload["result"]["entries"] == 1

    def test_point_round_trip_matches_allocator(self, server, curves):
        status, payload = _post(
            server,
            "/v1/query",
            {"type": "point", "os": "mach", "budget": DEFAULT_BUDGET_RBES,
             "limit": 5},
        )
        assert status == 200 and payload["ok"] is True
        direct = mask_rank(Allocator(curves).price(), DEFAULT_BUDGET_RBES, 5)
        served = payload["result"]["allocations"]
        assert [(a["area_rbe"], a["cpi"]) for a in served] == [
            (a.area_rbe, a.cpi) for a in direct
        ]
        assert served[0]["tlb"] == direct[0].config.tlb.label()

    def test_pareto_round_trip(self, server):
        status, payload = _post(
            server,
            "/v1/query",
            {"type": "pareto", "os": "mach", "max_budget": DEFAULT_BUDGET_RBES},
        )
        assert status == 200
        frontier = payload["result"]["frontier"]
        assert frontier
        cpis = [p["cpi"] for p in frontier]
        assert cpis == sorted(cpis)

    def test_invalid_json_is_400(self, server):
        status, payload = _post(server, "/v1/query", None, raw=b"{nope")
        assert status == 400
        assert payload["error"]["code"] == "invalid_json"

    def test_invalid_request_is_400(self, server):
        status, payload = _post(server, "/v1/query", {"type": "point"})
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert "os" in payload["error"]["message"]

    def test_unsatisfiable_budget_is_422(self, server):
        status, payload = _post(
            server, "/v1/query", {"type": "point", "os": "mach", "budget": 1}
        )
        assert status == 422
        assert payload["error"]["code"] == "budget_unsatisfiable"

    def test_access_time_bound_fitting_nothing_is_422(self, server):
        """No structure meets the bound, so the priced space is empty."""
        status, payload = _post(
            server, "/v1/query",
            {"type": "point", "os": "mach", "budget": 250_000,
             "max_access_time_ns": 0.001},
        )
        assert status == 422
        assert payload["error"]["code"] == "budget_unsatisfiable"

    def test_unserved_os_is_503(self, server):
        status, payload = _post(
            server, "/v1/query",
            {"type": "point", "os": "ultrix", "budget": 250_000},
        )
        assert status == 503
        assert payload["error"]["code"] == "store_unavailable"

    def test_unknown_path_is_404(self, server):
        status, payload = _get(server, "/v2/everything")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_empty_body_is_400(self, server):
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/query", data=b"", method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                status = response.status
        except urllib.error.HTTPError as exc:
            status = exc.code
        assert status == 400

    def test_success_carries_request_id_header(self, server):
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/query",
            data=json.dumps(
                {"type": "point", "os": "mach", "budget": DEFAULT_BUDGET_RBES,
                 "limit": 1, "request_id": "corr-7"}
            ).encode(),
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers["X-Request-Id"]
            assert json.loads(response.read())["ok"] is True

    def test_health_inflight_gauge_present(self, server):
        status, payload = _get(server, "/v1/health")
        assert status == 200
        assert payload["result"]["inflight"]["current"] == 0


def _raw_request(server, head: str, body: bytes = b"") -> tuple[int, bool]:
    """Send a hand-rolled request; returns (status, conn_closed_after).

    Reads the full response (headers + declared body), then probes
    whether the server closed the connection — the keep-alive question
    the chunked/413 paths must answer correctly.
    """
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=10) as conn:
        conn.sendall(head.encode() + body)
        conn_file = conn.makefile("rb")
        status_line = conn_file.readline().decode()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = conn_file.readline().decode().strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.lower() == "content-length":
                length = int(value)
        conn_file.read(length)
        conn.settimeout(2.0)
        try:
            closed = conn.recv(1) == b""
        except TimeoutError:
            closed = False
    return status, closed


class TestProtocolEdges:
    def test_chunked_body_rejected_411_and_closed(self, server):
        head = (
            "POST /v1/query HTTP/1.1\r\n"
            "Host: test\r\n"
            "Transfer-Encoding: chunked\r\n"
            "\r\n"
        )
        status, closed = _raw_request(server, head)
        assert status == 411
        assert closed, "connection must close after refusing a chunked body"

    def test_oversized_body_413_closes_connection(self, server):
        head = (
            "POST /v1/query HTTP/1.1\r\n"
            "Host: test\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n"
            "\r\n"
        )
        status, closed = _raw_request(server, head)
        assert status == 413
        assert closed, "connection must close instead of draining 4 MiB"

    def test_within_limit_body_keeps_connection_alive(self, server):
        body = json.dumps(
            {"type": "point", "os": "mach", "budget": DEFAULT_BUDGET_RBES,
             "limit": 1}
        ).encode()
        head = (
            "POST /v1/query HTTP/1.1\r\n"
            "Host: test\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        )
        status, closed = _raw_request(server, head, body)
        assert status == 200
        assert not closed, "HTTP/1.1 keep-alive must survive a good request"

    def test_truncated_body_is_400(self, server):
        """A client that half-closes mid-body gets a structured 400."""
        body = b'{"type": "point"'
        head = (
            "POST /v1/query HTTP/1.1\r\n"
            "Host: test\r\n"
            f"Content-Length: {len(body) + 40}\r\n"
            "\r\n"
        )
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as conn:
            conn.sendall(head.encode() + body)
            conn.shutdown(socket.SHUT_WR)  # EOF: the rest never comes
            response = b""
            while chunk := conn.recv(4096):
                response += chunk
        assert response.split(b" ", 2)[1] == b"400"
        assert b'"invalid_request"' in response


class TestOverloadAndDrain:
    @pytest.fixture
    def slow_server(self, store):
        """max_inflight=1 over an engine that answers slowly."""
        engine = QueryEngine(store)
        real_query = engine.query

        def slow_query(request):
            time.sleep(0.4)
            return real_query(request)

        engine.query = slow_query
        server = make_server(engine, port=0, max_inflight=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        # The drain test has already shut the server down; both calls
        # are no-ops / idempotent then.
        server.shutdown()
        try:
            server.server_close()
        except OSError:
            pass

    def test_excess_load_sheds_429_with_retry_after(self, slow_server):
        first_status = {}

        def occupy():
            status, payload = _post(
                slow_server, "/v1/query",
                {"type": "point", "os": "mach", "budget": DEFAULT_BUDGET_RBES},
            )
            first_status["status"] = status

        occupier = threading.Thread(target=occupy)
        occupier.start()
        time.sleep(0.1)  # let the slow query take the only slot
        host, port = slow_server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/query",
            data=json.dumps(
                {"type": "point", "os": "mach", "budget": DEFAULT_BUDGET_RBES}
            ).encode(),
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        occupier.join()
        assert excinfo.value.code == 429
        assert excinfo.value.headers["Retry-After"] == "1"
        payload = json.loads(excinfo.value.read())
        assert payload["error"]["code"] == "overloaded"
        assert first_status["status"] == 200
        rejections = slow_server.metrics.counter(
            "http_overload_rejections"
        ).total
        assert rejections == 1

    def test_graceful_shutdown_waits_for_inflight(self, slow_server):
        result = {}

        def issue():
            result["status"], result["payload"] = _post(
                slow_server, "/v1/query",
                {"type": "point", "os": "mach", "budget": DEFAULT_BUDGET_RBES,
                 "limit": 1},
            )

        requester = threading.Thread(target=issue)
        requester.start()
        time.sleep(0.1)  # the request is now mid-flight
        drained = shutdown_gracefully(slow_server, deadline_s=5.0)
        requester.join()
        assert drained is True
        assert result["status"] == 200
        assert result["payload"]["ok"] is True


class TestCli:
    def test_query_request_flag(self, store, curves, capsys):
        request = json.dumps(
            {"type": "point", "os": "mach", "budget": DEFAULT_BUDGET_RBES,
             "limit": 3}
        )
        code = cli_main(
            ["query", "--store", str(store.root), "--request", request]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        direct = mask_rank(Allocator(curves).price(), DEFAULT_BUDGET_RBES, 3)
        assert [a["cpi"] for a in payload["result"]["allocations"]] == [
            a.cpi for a in direct
        ]

    def test_query_stdin(self, store, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO('{"type": "point", "os": "mach", "budget": 250000, '
                        '"limit": 1}'),
        )
        assert cli_main(["query", "--store", str(store.root)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_bad_json_exits_2(self, store, capsys):
        code = cli_main(
            ["query", "--store", str(store.root), "--request", "{nope"]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "invalid_json"

    def test_bad_request_exits_2(self, store, capsys):
        code = cli_main(
            ["query", "--store", str(store.root), "--request",
             '{"type": "point", "os": "mach"}']
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]["code"] == (
            "invalid_request"
        )

    def test_missing_store_exits_3(self, tmp_path, capsys):
        code = cli_main(
            ["query", "--store", str(tmp_path / "void"), "--request",
             '{"type": "point", "os": "mach", "budget": 250000}']
        )
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"]["code"] == (
            "store_unavailable"
        )

    def test_impossible_budget_exits_4(self, store, capsys):
        code = cli_main(
            ["query", "--store", str(store.root), "--request",
             '{"type": "point", "os": "mach", "budget": 2}']
        )
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"]["code"] == (
            "budget_unsatisfiable"
        )

    def test_info(self, store, capsys):
        assert cli_main(["info", "--store", str(store.root)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exists"] is True
        assert len(payload["entries"]) == 1
