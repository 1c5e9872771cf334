"""Process-level chaos: shard kill mid-query, promotion, flapping.

This is the ISSUE's chaos gate, run as a test: a 3-shard / R=2 fleet
of real forked :class:`PreforkServer` pools under threaded client
load, one shard SIGKILLed (whole process group) mid-stream.  The
retrying :class:`ServiceClient` must see **zero failed and zero wrong
answers** — every response bit-identical to ``Allocator.rank`` ground
truth computed before the fleet ever started.

The fleet earns that structurally, not probabilistically: every shard
serves the same immutable store, so the router's next-replica retry
can only change *who* answers, never *what*.
"""

import json
import socket
import threading
import time

import pytest

from repro.core.allocator import Allocator
from repro.fleet.health import HealthChecker
from repro.fleet.local import FleetSupervisor, resolve_nodes, resolve_replicas
from repro.fleet.ring import shard_key
from repro.service.client import ServiceClient
from repro.service.engine import QueryEngine, allocation_entry
from repro.service.requests import validate_request
from repro.store import CurveStore
from tests.core.oracles import mask_rank
from tests.fleet.test_router import _read_responses, _wire

pytestmark = [pytest.mark.fleet, pytest.mark.concurrency]

POINT_BUDGETS = (180_000, 220_000, 260_000, 300_000, 340_000)
LOAD_THREADS = 3
KILL_AFTER_S = 0.4
RUN_AFTER_KILL_S = 1.5


def _rows(entries):
    return [
        (e["area_rbe"], e["cpi"], e["tlb"], e["icache"], e["dcache"])
        for e in entries
    ]


@pytest.fixture(scope="module")
def expected(curves):
    """Reference-predicate ground truth for every budget the load
    issues."""
    priced = Allocator(curves).price()
    answers = {}
    for budget in POINT_BUDGETS:
        ranked = mask_rank(priced, budget, limit=5)
        answers[budget] = _rows(
            allocation_entry(i, a) for i, a in enumerate(ranked, 1)
        )
    return answers


@pytest.fixture()
def fleet(store):
    supervisor = FleetSupervisor(
        store.root, nodes=3, replicas=2,
        probe_interval_s=0.2, fail_threshold=2,
    )
    supervisor.start()
    yield supervisor
    supervisor.stop()


class TestChaosGate:
    def test_shard_kill_mid_query_zero_failed_zero_wrong(
        self, fleet, expected
    ):
        stop = threading.Event()
        failed: list[str] = []
        wrong: list[tuple] = []
        served = [0] * LOAD_THREADS

        def load(slot: int):
            client = ServiceClient(
                fleet.base_url, retries=8, backoff_s=0.05
            )
            i = 0
            while not stop.is_set():
                budget = POINT_BUDGETS[(slot + i) % len(POINT_BUDGETS)]
                i += 1
                request = {
                    "type": "point", "os": "mach",
                    "budget": budget, "limit": 5,
                }
                try:
                    result = client.query(request)
                except Exception as exc:  # any client failure = gate fail
                    failed.append(repr(exc))
                    continue
                rows = _rows(result["allocations"])
                if rows != expected[budget]:
                    wrong.append((budget, rows))
                served[slot] += 1

        threads = [
            threading.Thread(target=load, args=(slot,))
            for slot in range(LOAD_THREADS)
        ]
        for thread in threads:
            thread.start()
        time.sleep(KILL_AFTER_S)
        fleet.kill_shard("n1")  # SIGKILL the whole process group
        time.sleep(RUN_AFTER_KILL_S)
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not failed, failed[:5]
        assert not wrong, wrong[:2]
        assert sum(served) > 0

    def test_replica_promotion_marks_down_then_recovery_marks_up(
        self, fleet, expected
    ):
        client = ServiceClient(fleet.base_url, retries=8, backoff_s=0.05)
        request = {
            "type": "point", "os": "mach",
            "budget": POINT_BUDGETS[0], "limit": 5,
        }
        assert _rows(client.query(dict(request))["allocations"]) == (
            expected[POINT_BUDGETS[0]]
        )
        fleet.kill_shard("n0")
        # The health view converges to down within a few probe rounds…
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and fleet.health.is_alive("n0"):
            time.sleep(0.05)
        assert not fleet.health.is_alive("n0")
        # …while the promoted replicas keep answering correctly.
        assert _rows(client.query(dict(request))["allocations"]) == (
            expected[POINT_BUDGETS[0]]
        )
        fleet.restart_shard("n0")
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline and not fleet.health.is_alive("n0"):
            time.sleep(0.05)
        assert fleet.health.is_alive("n0")  # first good probe marks up
        assert _rows(client.query(dict(request))["allocations"]) == (
            expected[POINT_BUDGETS[0]]
        )


class TestPipelinedKill:
    PIPELINED = 60

    def test_kill_with_pipelined_requests_outstanding_loses_nothing(
        self, store
    ):
        """One raw connection pipelines a burst at the router; the
        shard holding them (40 ms of injected latency per request, so
        most are still outstanding) is SIGKILLed mid-burst.  Every
        request is answered 200, byte-identical, in order: the router
        replays what the torn upstream connections still owed."""
        fleet = FleetSupervisor(
            store.root, nodes=2, replicas=2, faults="latency_ms=40",
            probe_interval_s=0.2, fail_threshold=2,
        )
        fleet.start()
        try:
            requests = [
                {"type": "point", "os": "mach", "limit": 3,
                 "budget": 150_000.0 + 2_500.0 * i}
                for i in range(self.PIPELINED)
            ]
            key = shard_key(validate_request(requests[0]))
            victim = fleet.ring.preference(key, 2)[0]
            engine = QueryEngine(CurveStore.open(store.root))
            expected = [engine.query_bytes(r)[0] for r in requests]
            host, port = fleet.router.server_address[:2]
            with socket.create_connection((host, port), timeout=30) as sock:
                sock.sendall(b"".join(
                    _wire(json.dumps(r).encode()) for r in requests
                ))
                time.sleep(0.3)
                fleet.kill_shard(victim)
                responses = _read_responses(sock, len(requests))
            stats = fleet.router.engine.stats
        finally:
            fleet.stop()
        assert [status for status, _, _ in responses] == (
            [200] * len(requests)
        )
        assert [body for _, _, body in responses] == expected
        assert stats["failovers"] >= 1
        assert stats["exhausted"] == 0


class TestMarkDownMarkUp:
    def test_flapping_needs_k_consecutive_failures(self):
        """Drive probe_all() by hand against a port nobody listens on:
        mark-down happens at exactly the threshold, a single success
        resets the streak, and transitions count each edge once."""
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here now
        checker = HealthChecker(
            {"flappy": ("127.0.0.1", port)},
            fail_threshold=3, timeout_s=0.2,
        )
        checker.probe_all()
        checker.probe_all()
        assert checker.is_alive("flappy")  # 2 failures < threshold
        listener = socket.socket()
        listener.bind(("127.0.0.1", port))
        listener.listen(1)

        def answer_one():
            conn, _ = listener.accept()
            conn.recv(1024)
            conn.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                b"Connection: close\r\n\r\n{}"
            )
            conn.close()

        thread = threading.Thread(target=answer_one, daemon=True)
        thread.start()
        checker.probe_all()  # success: streak resets, still alive
        thread.join(timeout=5.0)
        listener.close()
        state = checker.snapshot()["flappy"]
        assert state["alive"] and state["consecutive_failures"] == 0
        assert state["transitions"] == 0  # never actually went down
        checker.probe_all()
        checker.probe_all()
        assert checker.is_alive("flappy")
        checker.probe_all()  # third consecutive failure: down
        state = checker.snapshot()["flappy"]
        assert not state["alive"]
        assert state["transitions"] == 1

    def test_env_knobs_resolve_with_cli_priority(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLEET_NODES", raising=False)
        monkeypatch.delenv("REPRO_FLEET_REPLICAS", raising=False)
        assert resolve_nodes(None) == 3
        assert resolve_replicas(None) == 2
        monkeypatch.setenv("REPRO_FLEET_NODES", "5")
        monkeypatch.setenv("REPRO_FLEET_REPLICAS", "3")
        assert resolve_nodes(None) == 5
        assert resolve_replicas(None) == 3
        assert resolve_nodes(2) == 2  # CLI beats env
        assert resolve_replicas(1) == 1
        monkeypatch.setenv("REPRO_FLEET_NODES", "many")
        with pytest.raises(ValueError):
            resolve_nodes(None)
