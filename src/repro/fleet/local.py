"""A local fleet supervisor: router + N pre-fork shards in one tree.

:class:`FleetSupervisor` is the process layout behind
``python -m repro.fleet``, the CI smoke phase, and the chaos tests:

* each shard is a :class:`~repro.service.workers.PreforkServer` whose
  master runs in its **own forked process and its own process group**
  (``setsid``), so a shard dies as one unit — ``kill_shard`` SIGKILLs
  the group and every worker goes with the master, exactly the failure
  the router must absorb;
* the shard's listening port is resolved in the supervisor *before*
  the master forks (``port=0`` binds ephemeral in ``PreforkServer``'s
  constructor), so the router's topology is known up front and a
  restarted shard comes back on the same address;
* the router runs in the supervisor process on a daemon thread,
  alongside a started :class:`~repro.fleet.health.HealthChecker`.

One subtlety is load-bearing on Linux: ``PreforkServer`` binds an
``SO_REUSEPORT`` probe socket at construction, and after the shard
master forks, the supervisor still holds a copy.  The kernel balances
connections across *all* sockets bound to the address, so the
supervisor must close its copy or a share of upstream connections
would land on a listener nobody accepts on.

Every shard opens the same immutable store, so membership changes and
kills never change answers — only which node serves them.
"""

from __future__ import annotations

import errno
import http.client
import json
import os
import shutil
import signal
import sys
import tempfile
import threading
import time

from repro.fleet.health import (
    DEFAULT_FAIL_THRESHOLD,
    DEFAULT_PROBE_INTERVAL_S,
    HealthChecker,
)
from repro.fleet.ring import Ring, shard_key
from repro.fleet.router import (
    DEFAULT_REPLICAS,
    RouterHTTPServer,
    make_router,
)
from repro.service.engine import QueryEngine
from repro.service.faults import parse_faults, set_injector
from repro.service.http import shutdown_gracefully
from repro.service.workers import PreforkServer
from repro.store import CurveStore

DEFAULT_NODES = 3


def _resolve_env_int(cli_value, env_name: str, default: int) -> int:
    if cli_value is not None:
        return max(1, int(cli_value))
    env = os.environ.get(env_name, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValueError(
                f"{env_name} must be an integer, got {env!r}"
            ) from exc
    return default


def resolve_nodes(cli_value: int | None) -> int:
    """Shard count: ``--nodes`` beats ``REPRO_FLEET_NODES`` beats 3."""
    return _resolve_env_int(cli_value, "REPRO_FLEET_NODES", DEFAULT_NODES)


def resolve_replicas(cli_value: int | None) -> int:
    """Replication factor: ``--replicas`` beats ``REPRO_FLEET_REPLICAS``
    beats 2 (clamped to the node count by the router)."""
    return _resolve_env_int(
        cli_value, "REPRO_FLEET_REPLICAS", DEFAULT_REPLICAS
    )


class _Shard:
    """Supervisor-side record of one shard master."""

    __slots__ = ("label", "port", "pid", "metrics_dir")

    def __init__(self, label: str, port: int, pid: int, metrics_dir: str):
        self.label = label
        self.port = port
        self.pid = pid
        self.metrics_dir = metrics_dir


class FleetSupervisor:
    """Router + N local shards, each an isolated pre-fork pool.

    Args:
        store_path: the content-addressed store every shard opens.
        nodes: shard count (labels ``n0`` .. ``n{N-1}``).
        replicas: R-way replication factor for the router.
        router_port: router listen port (0 = ephemeral).
        workers_per_shard: pre-fork workers inside each shard.
        faults: fault-injection spec string applied *inside shard
            workers* (the router itself stays fault-free — it is the
            layer under test when shards misbehave).
        probe_interval_s / fail_threshold: health-checker knobs.
    """

    def __init__(
        self,
        store_path,
        nodes: int = DEFAULT_NODES,
        replicas: int = DEFAULT_REPLICAS,
        host: str = "127.0.0.1",
        router_port: int = 0,
        workers_per_shard: int = 1,
        faults: str | None = None,
        verbose: bool = False,
        probe_interval_s: float = DEFAULT_PROBE_INTERVAL_S,
        fail_threshold: int = DEFAULT_FAIL_THRESHOLD,
    ):
        if nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {nodes}")
        self.store_path = os.fspath(store_path)
        self.nodes = nodes
        self.replicas = replicas
        self.host = host
        self.router_port = router_port
        self.workers_per_shard = max(1, workers_per_shard)
        self.faults = faults
        self.verbose = verbose
        self.probe_interval_s = probe_interval_s
        self.fail_threshold = fail_threshold
        self._shards: dict[str, _Shard] = {}
        self.router: RouterHTTPServer | None = None
        self.health: HealthChecker | None = None
        self.ring: Ring | None = None
        self._router_thread: threading.Thread | None = None

    # -- shard lifecycle ----------------------------------------------

    def _spawn_shard(self, label: str, port: int = 0) -> _Shard:
        """Fork one shard master (own session/process group).

        The :class:`PreforkServer` is constructed *here*, in the
        supervisor, so ``port=0`` resolves to a concrete address the
        router can be told about; the child then starts the pool it
        inherited.  ``setsid`` puts master + workers in one killable
        group, and the supervisor closes its copy of the probe
        listener (see module docstring).
        """
        metrics_dir = tempfile.mkdtemp(prefix=f"repro-fleet-{label}-")
        store_path = self.store_path
        fault_spec = self.faults

        def engine_factory() -> QueryEngine:
            # Runs inside each forked worker of this shard.
            if fault_spec:
                set_injector(parse_faults(fault_spec))
            return QueryEngine(CurveStore.open(store_path))

        pool = PreforkServer(
            engine_factory,
            host=self.host,
            port=port,
            workers=self.workers_per_shard,
            verbose=self.verbose,
            metrics_dir=metrics_dir,
        )
        pid = os.fork()
        if pid == 0:  # shard master
            try:
                os.setsid()
                signal.signal(signal.SIGINT, signal.SIG_IGN)

                def _terminate(signum, frame):
                    pool.stop()
                    os._exit(0)

                signal.signal(signal.SIGTERM, _terminate)
                pool.start()
                pool.wait()
            except BaseException:
                os._exit(1)
            finally:
                os._exit(0)
        # Supervisor side: drop the inherited probe listener so the
        # kernel never routes an upstream connection into this process.
        pool._listener.close()
        shard = _Shard(label, pool.port, pid, metrics_dir)
        self._shards[label] = shard
        return shard

    def kill_shard(self, label: str) -> None:
        """SIGKILL a shard's whole process group — the chaos primitive.

        Master and workers die together and un-gracefully: in-flight
        queries are torn mid-connection, which is exactly the failure
        the router's failover must absorb.
        """
        shard = self._shards[label]
        try:
            os.killpg(shard.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(shard.pid, 0)
        except ChildProcessError:
            pass

    def restart_shard(self, label: str) -> None:
        """Bring a killed shard back on its original port."""
        shard = self._shards[label]
        shutil.rmtree(shard.metrics_dir, ignore_errors=True)
        self._spawn_shard(label, port=shard.port)

    # -- fleet lifecycle ----------------------------------------------

    @property
    def topology(self) -> dict[str, tuple[str, int]]:
        return {
            label: (self.host, shard.port)
            for label, shard in sorted(self._shards.items())
        }

    @property
    def base_url(self) -> str:
        if self.router is None:
            raise RuntimeError("fleet is not started")
        host, port = self.router.server_address[:2]
        return f"http://{host}:{port}"

    def start(self, wait_serving_s: float = 30.0) -> None:
        """Spawn shards, start health + router, wait until serving."""
        for index in range(self.nodes):
            self._spawn_shard(f"n{index}")
        topology = self.topology
        self.ring = Ring(topology)
        self.health = HealthChecker(
            topology,
            interval_s=self.probe_interval_s,
            fail_threshold=self.fail_threshold,
        )
        self.router = make_router(
            topology,
            replicas=self.replicas,
            host=self.host,
            port=self.router_port,
            ring=self.ring,
            health=self.health,
            verbose=self.verbose,
        )
        self.health.start()
        self._router_thread = threading.Thread(
            target=self.router.serve_forever,
            name="repro-fleet-router",
            daemon=True,
        )
        self._router_thread.start()
        deadline = time.monotonic() + wait_serving_s
        checker = HealthChecker(
            {
                **topology,
                "router": self.router.server_address[:2],
            },
            timeout_s=2.0,
        )
        while time.monotonic() < deadline:
            checker.probe_all()
            if len(checker.alive()) == len(topology) + 1:
                # One real probe round, not the optimistic initial view.
                states = checker.snapshot()
                if all(
                    s["consecutive_failures"] == 0 and s["alive"]
                    for s in states.values()
                ):
                    return
            time.sleep(0.05)
        self.stop()
        raise TimeoutError("fleet never started serving")

    def stop(self, deadline_s: float = 10.0) -> None:
        """Stop router, health, and every shard group (TERM → KILL)."""
        if self.health is not None:
            self.health.stop()
        if self.router is not None:
            try:
                shutdown_gracefully(self.router, deadline_s=2.0)
            except OSError:
                pass
            if self._router_thread is not None:
                self._router_thread.join(timeout=5.0)
        for shard in self._shards.values():
            try:
                os.killpg(shard.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + deadline_s
        remaining = dict(self._shards)
        while remaining and time.monotonic() < deadline:
            for label, shard in list(remaining.items()):
                try:
                    pid, _ = os.waitpid(shard.pid, os.WNOHANG)
                except ChildProcessError:
                    pid = shard.pid
                except OSError as exc:
                    if exc.errno != errno.ECHILD:
                        raise
                    pid = shard.pid
                if pid:
                    remaining.pop(label)
            if remaining:
                time.sleep(0.02)
        for label, shard in remaining.items():  # past deadline
            try:
                os.killpg(shard.pid, signal.SIGKILL)
                os.waitpid(shard.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        for shard in self._shards.values():
            shutil.rmtree(shard.metrics_dir, ignore_errors=True)
        self._shards.clear()

    # -- trace warm-up -------------------------------------------------

    def warm_traces(
        self,
        references: int | None = None,
        seed: int = 1,
        workloads: tuple[str, ...] | None = None,
        os_names: tuple[str, ...] | None = None,
        jobs: int | None = None,
        timeout_s: float = 600.0,
    ) -> dict:
        """Pre-populate each shard's trace plane with *its* entries.

        Every OS model's traces live on the replica set that serves its
        queries (the ring's preference list for the OS's shard key —
        budgets and associativity caps share that node, see
        :func:`~repro.fleet.ring.shard_key`), so each shard is asked to
        warm exactly the OS names consistent hashing will route to it.
        Warming every replica, not just the owner, means failover hits
        a warm plane too.  The per-shard ``POST /v1/warm_traces``
        requests run in parallel — shards generate independently.

        Returns a report: per-shard assignments and outcomes plus
        fleet-wide entry/published totals.  Shards that fail to answer
        carry an ``"error"`` entry instead of a result.
        """
        if self.ring is None:
            raise RuntimeError("fleet is not started")
        if os_names is None:
            from repro.trace.generator import OS_MODELS

            os_names = tuple(sorted(OS_MODELS))
        topology = self.topology
        assignments: dict[str, list[str]] = {label: [] for label in topology}
        for os_name in os_names:
            key = shard_key(
                {
                    "os": os_name,
                    "max_cache_assoc": None,
                    "max_access_time_ns": None,
                }
            )
            for label in self.ring.preference(key, self.replicas):
                assignments[label].append(os_name)
        body_base = {"seed": seed}
        if references is not None:
            body_base["references"] = references
        if workloads is not None:
            body_base["workloads"] = list(workloads)
        if jobs is not None:
            body_base["jobs"] = jobs
        results: dict[str, dict] = {}

        def _warm_one(label: str) -> None:
            host, port = topology[label]
            payload = json.dumps(
                {**body_base, "os_names": assignments[label]}
            ).encode()
            conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
            try:
                conn.request(
                    "POST", "/v1/warm_traces", body=payload,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                answer = json.loads(response.read())
                if response.status == 200 and answer.get("ok"):
                    results[label] = answer["result"]
                else:
                    results[label] = {
                        "error": answer.get("error")
                        or {"code": "bad_status", "status": response.status}
                    }
            except (OSError, ValueError) as exc:
                results[label] = {
                    "error": {"code": "unreachable", "message": str(exc)}
                }
            finally:
                conn.close()

        threads = [
            threading.Thread(
                target=_warm_one, args=(label,), daemon=True,
                name=f"repro-warm-{label}",
            )
            for label, assigned in assignments.items()
            if assigned
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=timeout_s)
        return {
            "os_names": list(os_names),
            "assignments": {
                label: assigned
                for label, assigned in sorted(assignments.items())
                if assigned
            },
            "shards": dict(sorted(results.items())),
            "entries": sum(
                r.get("entries", 0) for r in results.values()
            ),
            "published": sum(
                r.get("published", 0) for r in results.values()
            ),
            "errors": sorted(
                label for label, r in results.items() if "error" in r
            ),
        }

    def serve_until_interrupted(self) -> None:
        """The CLI loop: start, report, park until Ctrl-C or SIGTERM, stop.

        Shards run in their own sessions, so a signal that killed only
        this process would leave them serving; SIGTERM therefore takes
        the same stop path as Ctrl-C.
        """

        def terminate(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGTERM, terminate)
        try:
            self.start()
            host, port = self.router.server_address[:2]
            shard_list = ", ".join(
                f"{label}:{shard.port}"
                for label, shard in sorted(self._shards.items())
            )
            print(
                f"repro.fleet router on http://{host}:{port}/v1/query — "
                f"{self.nodes} shard(s) [{shard_list}], R={self.replicas}, "
                f"{self.workers_per_shard} worker(s)/shard",
                file=sys.stderr if self.verbose else sys.stdout,
                flush=True,
            )
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            pass
        finally:
            signal.signal(signal.SIGTERM, signal.SIG_IGN)  # let stop finish
            self.stop()
            signal.signal(signal.SIGTERM, previous)
