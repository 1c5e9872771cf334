"""Sharded, replicated serving fleet for the allocation query service.

One host per store stops scaling long before "millions of users"; this
package moves store placement and lookup out of the engine and into a
routing tier:

* :mod:`repro.fleet.ring` — a consistent-hash ring (SHA-256, 128
  virtual nodes per server) that maps each query's priced-space key
  ``(OS mix, config-space restriction)`` to an R-way replica set of
  serving nodes, with minimal remap when nodes join or leave;
* :mod:`repro.fleet.router` — a stateless router speaking the exact
  HTTP surface of a single server (JSON, batch, and binary-batch
  ``POST /v1/query``; ``/v1/health``; ``/v1/metrics``), forwarding each
  query on its own event loop over pipelined keep-alive connections
  to its shard owner and failing over to the next replica on connect
  errors, torn connections, timeouts, 5xx, or 429 — so
  :class:`ServiceClient` works unchanged against a fleet;
* :mod:`repro.fleet.health` — periodic ``/v1/health`` probes with
  K-consecutive-failure mark-down and first-success mark-up, used to
  *order* replica attempts (correctness never depends on the health
  view being fresh: the router still tries every replica);
* :mod:`repro.fleet.local` — a supervisor that forks N local
  :class:`~repro.service.workers.PreforkServer` shards plus the router
  (the ``python -m repro.fleet`` CLI), used by CI smoke and the chaos
  tests.

Sharding here is *cache locality*, not data partitioning: every shard
opens the same immutable content-addressed store, so any node can
answer any query bit-identically — the ring concentrates each priced
space's working set (curves, priced space, budget index, byte cache)
on R nodes instead of all N, and failover can never return a wrong
answer, only a slower one.
"""

from repro.fleet.health import HealthChecker
from repro.fleet.ring import DEFAULT_VNODES, Ring, shard_key
from repro.fleet.router import (
    NoShardAvailableError,
    RouterEngine,
    RouterHTTPServer,
    make_router,
)

__all__ = [
    "DEFAULT_VNODES",
    "HealthChecker",
    "NoShardAvailableError",
    "Ring",
    "RouterEngine",
    "RouterHTTPServer",
    "make_router",
    "shard_key",
]
