"""Health checking and membership state for the serving fleet.

A background thread probes every node's ``GET /v1/health`` on a fixed
interval.  A node is **marked down** after ``fail_threshold``
*consecutive* failed probes (connect refusal, timeout, or a non-200)
and **marked up** again on the first successful probe — asymmetric on
purpose: a single good answer proves the node serves, while a single
bad one may be a dropped packet.

The health view is advisory, never load-bearing for correctness: the
router uses it to *order* replica attempts (alive nodes first) and to
label nodes in the fleet health report, but it still tries every
replica of a key before giving up — a stale mark-down costs latency,
not answers.  That separation is what lets the prober run at a relaxed
interval without a freshness protocol.

Thread-safe: probes run on the checker's own thread, `alive()` /
`snapshot()` are called from the router's loop thread, and the state
dict is guarded by one lock.  `probe_all()` can also be driven
manually (tests do this to make mark-down/mark-up transitions
deterministic instead of sleeping through prober intervals).
"""

from __future__ import annotations

import http.client
import threading
import time

DEFAULT_PROBE_INTERVAL_S = 0.5
DEFAULT_FAIL_THRESHOLD = 3
DEFAULT_PROBE_TIMEOUT_S = 2.0


class _NodeState:
    __slots__ = ("alive", "consecutive_failures", "transitions",
                 "last_error", "last_probe_monotonic")

    def __init__(self):
        self.alive = True  # optimistic: a new node is tried until proven dead
        self.consecutive_failures = 0
        self.transitions = 0
        self.last_error: str | None = None
        self.last_probe_monotonic = 0.0


class HealthChecker:
    """Periodic ``/v1/health`` prober over a static node topology.

    Args:
        topology: node label -> ``(host, port)``.
        interval_s: seconds between probe rounds.
        fail_threshold: consecutive failed probes before mark-down.
        timeout_s: per-probe connect/read timeout.
    """

    def __init__(
        self,
        topology: dict[str, tuple[str, int]],
        interval_s: float = DEFAULT_PROBE_INTERVAL_S,
        fail_threshold: int = DEFAULT_FAIL_THRESHOLD,
        timeout_s: float = DEFAULT_PROBE_TIMEOUT_S,
    ):
        if not topology:
            raise ValueError("health checker needs at least one node")
        self.topology = {label: tuple(addr) for label, addr in topology.items()}
        self.interval_s = interval_s
        self.fail_threshold = max(1, fail_threshold)
        self.timeout_s = timeout_s
        self._states = {label: _NodeState() for label in self.topology}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- probing -------------------------------------------------------

    def _probe_one(self, label: str) -> tuple[bool, str | None]:
        host, port = self.topology[label]
        conn = http.client.HTTPConnection(host, port, timeout=self.timeout_s)
        try:
            conn.request("GET", "/v1/health")
            response = conn.getresponse()
            response.read()
            if response.status == 200:
                return True, None
            return False, f"HTTP {response.status}"
        except (OSError, http.client.HTTPException) as exc:
            return False, f"{type(exc).__name__}: {exc}"
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def probe_all(self) -> None:
        """One synchronous probe round over every node."""
        now = time.monotonic()
        for label in self.topology:
            ok, error = self._probe_one(label)
            with self._lock:
                state = self._states[label]
                state.last_probe_monotonic = now
                if ok:
                    state.consecutive_failures = 0
                    state.last_error = None
                    if not state.alive:
                        state.alive = True
                        state.transitions += 1
                else:
                    state.consecutive_failures += 1
                    state.last_error = error
                    if (
                        state.alive
                        and state.consecutive_failures >= self.fail_threshold
                    ):
                        state.alive = False
                        state.transitions += 1

    # -- views ---------------------------------------------------------

    def alive(self) -> set[str]:
        """Labels currently marked up."""
        with self._lock:
            return {
                label for label, state in self._states.items() if state.alive
            }

    def is_alive(self, label: str) -> bool:
        with self._lock:
            state = self._states.get(label)
            return state.alive if state is not None else False

    def snapshot(self) -> dict[str, dict]:
        """Per-node state for the router's health report."""
        with self._lock:
            return {
                label: {
                    "alive": state.alive,
                    "consecutive_failures": state.consecutive_failures,
                    "transitions": state.transitions,
                    "last_error": state.last_error,
                }
                for label, state in self._states.items()
            }

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Start the background prober (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()

        def _run():
            while not self._stop.is_set():
                self.probe_all()
                self._stop.wait(self.interval_s)

        self._thread = threading.Thread(
            target=_run, name="repro-fleet-health", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the prober and join its thread."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.timeout_s + self.interval_s + 1.0)
            self._thread = None
