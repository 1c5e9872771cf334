"""Budget/Pareto query engine over a loaded curve store.

Separates the paper's expensive characterization (measuring curves)
from its cheap decision procedure (ranking under a budget).  The
engine loads :class:`~repro.core.measure.BenefitCurves` from a
:class:`~repro.store.CurveStore` once per OS, prices the configuration
space once per (OS, restriction) via :meth:`Allocator.price`, and then
answers arbitrary budget queries with :func:`rank_priced` — the same
vectorized kernel :meth:`Allocator.rank` uses, so every answer is
bit-identical to the brute-force path (the differential tests sweep
random budgets to hold this).

Three query shapes:

* **point** — the ranked allocations under one budget;
* **batch** — a sweep over budgets x OS mixes against warm priced
  spaces (no re-pricing, no re-simulation);
* **pareto** — the (area, CPI) frontier: allocations no other feasible
  point beats on both axes, with ties resolved exactly as the
  brute-force ranking resolves them.

Two-level queries (``space="two_level"``) run over each OS's
:class:`~repro.core.hierarchy.TwoLevelSpace`, whose exact Pareto
frontier is built once per OS: point, batch and surface answers equal
the exhaustive optimum bit for bit, with or without a power budget.
Single-level queries stay on the priced space's
:class:`~repro.core.allocator.BudgetIndex`, because its feasibility is
the reference predicate ``budget_left = (B - t_area) - i_area``, which
is not a function of a partial selection's summed area — the
frontier's dominance argument does not carry over to it.

Responses to the dict-level :meth:`QueryEngine.query` API are memoized
in an LRU keyed on the *normalized* request, so repeated or
re-spelled queries cost a dictionary hit.

The engine is shared by every ``ThreadingHTTPServer`` handler thread,
so all of its caches are concurrency-safe: one lock guards the LRU
``OrderedDict``, the curve/priced-space dicts, and the stats counters,
and every cache fills through a *single-flight* get-or-compute — when
32 threads miss on the same key at once, exactly one computes (counted
as the miss) while the rest block on an event and reuse its result
(counted as hits, and separately as ``coalesced``).  ``stats`` is a
property returning a snapshot taken under the lock, so readers never
see hits and misses torn against each other.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict

from repro.core.allocator import (
    DEFAULT_BUDGET_RBES,
    Allocation,
    Allocator,
    PricedSpace,
    batch_best_indexed,
    pareto_indexed,
    rank_indexed,
    rank_priced_power,
)
from repro.core.configs import CacheConfig, TlbConfig
from repro.core.cpi import CpiModel
from repro.core.hierarchy import TwoLevelSpace, build_two_level_space
from repro.core.measure import BenefitCurves
from repro.core.multiopt import Selection, SurfacePoint, pareto_surface
from repro.errors import BudgetError, StoreError
from repro.obs.tracing import trace_span
from repro.service.requests import validate_request
from repro.store import CurveStore

DEFAULT_RESULT_CACHE = 128


def allocation_entry(rank: int, allocation: Allocation) -> dict:
    """One JSON-ready result row: the paper's table columns plus the
    exact (unrounded) area/CPI so clients can verify bit-identity."""
    return {
        "rank": rank,
        **allocation.row(),
        "area_rbe": allocation.area_rbe,
        "cpi": allocation.cpi,
    }


def two_level_entry(result: Selection) -> dict:
    """One JSON-ready row for a two-level (TLB, L1I, L1D, L2) answer."""
    tlb_key, l1i_key, l1d_key, l2_key = result.keys
    return {
        "tlb": TlbConfig(*tlb_key).label(),
        "l1i": CacheConfig(*l1i_key).label(),
        "l1d": CacheConfig(*l1d_key).label(),
        "l2": CacheConfig(*l2_key).label(),
        "area_rbe": result.area,
        "cpi": result.cpi,
        "power_mw": result.power,
    }


def surface_entry(cell: SurfacePoint) -> dict:
    """One JSON-ready cell of an (area x power) Pareto surface."""
    return {
        "area_budget": cell.area_budget,
        "power_budget": cell.power_budget,
        **two_level_entry(cell.result),
    }


def pareto_frontier(ranked: list[Allocation]) -> list[Allocation]:
    """The non-dominated (area, CPI) subset of a CPI-ranked list.

    ``ranked`` must be sorted the way :func:`rank_priced` sorts —
    ascending (cpi, area) with ties in enumeration order.  Scanning in
    that order, a point joins the frontier iff its area is strictly
    below every earlier (better-or-equal CPI) point's area; among
    exact (cpi, area) ties the brute-force rank's first occurrence is
    the one kept.
    """
    frontier: list[Allocation] = []
    best_area = float("inf")
    for allocation in ranked:
        if allocation.area_rbe < best_area:
            frontier.append(allocation)
            best_area = allocation.area_rbe
    return frontier


class _InFlight:
    """One in-progress computation other threads can wait on."""

    __slots__ = ("event", "result", "error")

    def __init__(self):
        self.event = threading.Event()
        self.result = None
        self.error: BaseException | None = None


class QueryEngine:
    """Answers allocation queries from a store, without re-simulation.

    Args:
        store: the curve store to load from (default store if None).
        cpi_model: penalty model (paper defaults).
        result_cache_size: LRU capacity for normalized-request results.
    """

    def __init__(
        self,
        store: CurveStore | None = None,
        cpi_model: CpiModel | None = None,
        result_cache_size: int = DEFAULT_RESULT_CACHE,
    ):
        self.store = store if store is not None else CurveStore.open()
        self.cpi_model = cpi_model if cpi_model is not None else CpiModel()
        self._init_runtime_state(result_cache_size)

    def _init_runtime_state(self, result_cache_size: int) -> None:
        self._curves: dict[str, BenefitCurves] = {}
        self._priced: dict[tuple, PricedSpace] = {}
        self._two_level: dict[str, TwoLevelSpace] = {}
        self._results: OrderedDict[str, dict] = OrderedDict()
        self._result_bytes: OrderedDict[str, tuple[bytes, str]] = OrderedDict()
        self._binary_bytes: OrderedDict[bytes, tuple[bytes, str]] = (
            OrderedDict()
        )
        self._result_cache_size = result_cache_size
        self._stats = {
            "hits": 0, "misses": 0, "coalesced": 0,
            "byte_hits": 0, "byte_misses": 0,
            "binary_hits": 0, "binary_misses": 0,
        }
        self._lock = threading.Lock()
        self._inflight: dict[tuple, _InFlight] = {}

    @classmethod
    def from_curves(
        cls, curves: BenefitCurves, cpi_model: CpiModel | None = None
    ) -> "QueryEngine":
        """An engine over in-memory curves (no store on disk) — used by
        tests and by experiments falling back to direct measurement."""
        engine = cls.__new__(cls)
        engine.store = None
        engine.cpi_model = cpi_model if cpi_model is not None else CpiModel()
        engine._init_runtime_state(DEFAULT_RESULT_CACHE)
        engine._curves = {curves.os_name: curves}
        return engine

    @property
    def stats(self) -> dict:
        """A consistent snapshot of the cache counters.

        ``hits + misses`` equals the number of ``query()`` calls that
        reached a decision; ``coalesced`` (a subset of ``hits``) counts
        threads that piggybacked on another thread's in-flight compute.
        """
        with self._lock:
            return dict(self._stats)

    # -- single-flight get-or-compute ---------------------------------

    def _single_flight(self, kind: str, key, compute):
        """Get-or-compute ``(kind, key)`` with duplicate suppression.

        The first thread to miss computes outside the lock; concurrent
        callers of the same key wait on its event and share the result
        (or its exception).  Failed computations are never cached, so
        a transient store error does not poison the cache.
        """
        flight_key = (kind, key)
        with self._lock:
            cache = {
                "curves": self._curves,
                "priced": self._priced,
                "two_level": self._two_level,
            }[kind]
            value = cache.get(key)
            if value is not None:
                return value
            flight = self._inflight.get(flight_key)
            owner = flight is None
            if owner:
                flight = self._inflight[flight_key] = _InFlight()
        if not owner:
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            return flight.result
        try:
            value = compute()
            with self._lock:
                cache[key] = value
            flight.result = value
            return value
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                self._inflight.pop(flight_key, None)
            flight.event.set()

    # -- curve / pricing caches ---------------------------------------

    def curves_for(self, os_name: str) -> BenefitCurves:
        """Curves for one OS, loaded from the store at most once."""

        def _load() -> BenefitCurves:
            if self.store is None:
                raise StoreError(f"no curves loaded for OS {os_name!r}")
            key = self.store.find_current(os_name)
            if key is None:
                raise StoreError(
                    f"store {self.store.root} has no entry for OS "
                    f"{os_name!r} at the current scale/engine; build one "
                    f"with `python -m repro.service build --os {os_name}`"
                )
            return self.store.load(key)

        return self._single_flight("curves", os_name, _load)

    def priced_space(
        self,
        os_name: str,
        max_cache_assoc: int | None = None,
        max_access_time_ns: float | None = None,
    ) -> PricedSpace:
        """The priced configuration space for one (OS, restriction)."""
        key = (os_name, max_cache_assoc, max_access_time_ns)

        def _price() -> PricedSpace:
            allocator = Allocator(self.curves_for(os_name), self.cpi_model)
            with trace_span("engine.price", os=os_name):
                return allocator.price(
                    max_cache_assoc=max_cache_assoc,
                    max_access_time_ns=max_access_time_ns,
                )

        return self._single_flight("priced", key, _price)

    def two_level_space(self, os_name: str) -> TwoLevelSpace:
        """The two-level (TLB, L1I, L1D, L2) space for one OS.

        Built once per OS from the same measured curves the
        single-level pricing uses (see :mod:`repro.core.hierarchy` for
        the separability model), with its exact Pareto frontier: every
        two-level query, with or without a power budget, is a scan of
        that frontier and equals the exhaustive optimum bit for bit.
        """

        def _build() -> TwoLevelSpace:
            curves = self.curves_for(os_name)
            with trace_span("engine.two_level", os=os_name):
                return build_two_level_space(curves, self.cpi_model)

        return self._single_flight("two_level", os_name, _build)

    # -- python-level query API ---------------------------------------

    def point(
        self,
        os_name: str,
        budget: float = DEFAULT_BUDGET_RBES,
        limit: int | None = None,
        max_cache_assoc: int | None = None,
        max_access_time_ns: float | None = None,
        power_budget: float | None = None,
    ) -> list[Allocation]:
        """Ranked allocations under one budget (best first).

        Without a power budget, answered off the priced space's
        :class:`~repro.core.allocator.BudgetIndex`: a ``limit=1`` query
        is a binary search plus one lookup, and every answer is
        bit-identical to :meth:`Allocator.rank` (the differential
        tests hold this).  With ``power_budget`` set the exact joint
        area x power ranking answers (:func:`rank_priced_power`).
        """
        priced = self.priced_space(os_name, max_cache_assoc, max_access_time_ns)
        if power_budget is not None:
            with trace_span("engine.rank_power", os=os_name, budget=budget):
                return rank_priced_power(
                    priced, budget, power_budget, limit=limit
                )
        with trace_span("engine.rank_indexed", os=os_name, budget=budget):
            return rank_indexed(priced, budget, limit=limit)

    def point_two_level(
        self,
        os_name: str,
        budget: float,
        power_budget: float | None = None,
    ) -> Selection:
        """The optimal two-level allocation under the budget(s).

        Raises:
            BudgetError: nothing fits.
        """
        space = self.two_level_space(os_name)
        with trace_span("engine.two_level_best", os=os_name, budget=budget):
            return space.best(budget, power_budget_mw=power_budget)

    def batch(
        self,
        os_names: list[str],
        budgets: list[float],
        limit: int | None = 1,
        max_cache_assoc: int | None = None,
        max_access_time_ns: float | None = None,
        power_budget: float | None = None,
    ) -> list[tuple[str, float, list[Allocation]]]:
        """A budget x OS sweep against warm priced spaces.

        The default ``limit=1`` sweep is answered in one vectorized
        pass per OS (``searchsorted`` over all budgets at once) instead
        of one ranking per point; deeper limits — and any sweep with a
        ``power_budget``, whose feasibility masking the budget index
        does not precompute — fall back to per-budget rankings.
        Infeasible (os, budget) points yield an empty allocation list
        rather than failing the whole sweep.
        """
        out = []
        for os_name in os_names:
            priced = self.priced_space(
                os_name, max_cache_assoc, max_access_time_ns
            )
            with trace_span(
                "engine.batch_indexed", os=os_name, budgets=len(budgets)
            ):
                if power_budget is not None:
                    per_budget = []
                    for budget in budgets:
                        try:
                            per_budget.append(
                                rank_priced_power(
                                    priced, budget, power_budget, limit=limit
                                )
                            )
                        except BudgetError:
                            per_budget.append([])
                elif limit == 1:
                    per_budget = batch_best_indexed(priced, budgets)
                else:
                    per_budget = []
                    for budget in budgets:
                        try:
                            per_budget.append(
                                rank_indexed(priced, budget, limit=limit)
                            )
                        except BudgetError:
                            per_budget.append([])
            out.extend(
                (os_name, budget, ranked)
                for budget, ranked in zip(budgets, per_budget)
            )
        return out

    def batch_two_level(
        self,
        os_names: list[str],
        budgets: list[float],
        power_budget: float | None = None,
    ) -> list[tuple[str, float, Selection | None]]:
        """A budget x OS sweep over warm two-level spaces.

        Each point is one frontier query; infeasible points yield None
        instead of failing the sweep.
        """
        out = []
        for os_name in os_names:
            space = self.two_level_space(os_name)
            with trace_span(
                "engine.batch_two_level", os=os_name, budgets=len(budgets)
            ):
                for budget in budgets:
                    try:
                        result = space.best(
                            budget, power_budget_mw=power_budget
                        )
                    except BudgetError:
                        result = None
                    out.append((os_name, budget, result))
        return out

    def surface(
        self,
        os_name: str,
        budgets: list[float],
        power_budgets: list[float],
    ) -> list[SurfacePoint]:
        """The (area budget x power budget) Pareto surface, one frontier
        query per cell, dominated and infeasible cells dropped."""
        space = self.two_level_space(os_name)
        with trace_span(
            "engine.surface",
            os=os_name,
            cells=len(budgets) * len(power_budgets),
        ):
            return pareto_surface(space.frontier, budgets, power_budgets)

    def pareto(
        self,
        os_name: str,
        max_budget: float | None = None,
        max_cache_assoc: int | None = None,
        max_access_time_ns: float | None = None,
    ) -> list[Allocation]:
        """The area-vs-CPI Pareto frontier of the (budget-capped) space.

        Unconstrained queries return the frontier precomputed on the
        budget index; budget-capped ones run one vectorized scan over
        the feasible prefix — no per-query full ranking either way.
        """
        priced = self.priced_space(os_name, max_cache_assoc, max_access_time_ns)
        with trace_span("engine.pareto_indexed", os=os_name, pareto=True):
            return pareto_indexed(priced, max_budget)

    def entry_count(self) -> int:
        """Published store entries (cached; see CurveStore.entry_count)."""
        return self.store.entry_count() if self.store is not None else 0

    # -- dict-level API (CLI / HTTP) ----------------------------------

    def query(self, request) -> dict:
        """Validate, answer, and memoize one JSON-shaped request.

        Thread-safe and single-flight: concurrent identical requests
        compute once and share the response object.

        Raises:
            RequestError: malformed request.
            StoreError: the store lacks curves for the requested OS.
            BudgetError: a point query's budget fits nothing.
        """
        normalized = validate_request(request)
        cache_key = json.dumps(normalized, sort_keys=True)
        flight_key = ("result", cache_key)
        with self._lock:
            cached = self._results.get(cache_key)
            if cached is not None:
                self._results.move_to_end(cache_key)
                self._stats["hits"] += 1
                return cached
            flight = self._inflight.get(flight_key)
            owner = flight is None
            if owner:
                flight = self._inflight[flight_key] = _InFlight()
                self._stats["misses"] += 1
        if not owner:
            flight.event.wait()
            with self._lock:
                self._stats["hits"] += 1
                self._stats["coalesced"] += 1
            if flight.error is not None:
                raise flight.error
            return flight.result
        try:
            with trace_span("engine.query", type=normalized["type"]):
                response = self._answer(normalized)
            with self._lock:
                self._results[cache_key] = response
                while len(self._results) > self._result_cache_size:
                    self._results.popitem(last=False)
            flight.result = response
            return response
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                self._inflight.pop(flight_key, None)
            flight.event.set()

    def query_bytes(self, request) -> tuple[bytes, str]:
        """Answer one request as serialized response bytes plus an ETag.

        The hot path of the HTTP server: the full ``{"ok": true,
        "result": ...}`` envelope is encoded once per distinct
        normalized request and cached as bytes, so repeated queries
        skip both the ranking *and* the JSON re-encoding.  The ETag is
        a strong validator over the exact body bytes — a client
        replaying it via ``If-None-Match`` gets a body-less 304.

        Raises:
            Whatever :meth:`query` raises for the request.
        """
        normalized = validate_request(request)
        cache_key = json.dumps(normalized, sort_keys=True)
        with self._lock:
            entry = self._result_bytes.get(cache_key)
            if entry is not None:
                self._result_bytes.move_to_end(cache_key)
                self._stats["byte_hits"] += 1
                return entry
        result = self.query(normalized)
        body = json.dumps({"ok": True, "result": result}).encode()
        etag = '"' + hashlib.sha256(body).hexdigest()[:20] + '"'
        with self._lock:
            if cache_key not in self._result_bytes:
                self._stats["byte_misses"] += 1
                self._result_bytes[cache_key] = (body, etag)
                while len(self._result_bytes) > self._result_cache_size:
                    self._result_bytes.popitem(last=False)
            else:
                # Another thread published the same bytes first; serve
                # ours (identical content, deterministic encoder).
                self._stats["byte_hits"] += 1
        return body, etag

    def count_byte_hit(self) -> None:
        """Tally one byte-cache hit served from an outer raw-body memo.

        The event-loop server keeps a small memo keyed on *exact raw
        request bytes* in front of :meth:`try_cached_bytes`; a memo hit
        serves the same cached bytes this cache holds but skips the
        parse/validate/normalize work.  Counting it here keeps the
        accounting contract — every query POST is exactly one counted
        byte-cache lookup — independent of which layer answered.
        """
        with self._lock:
            self._stats["byte_hits"] += 1

    def try_cached_bytes(self, request) -> tuple[bytes, str] | None:
        """Non-blocking byte-cache probe for the event loop's hot path.

        Returns the cached ``(body, etag)`` and counts a byte hit, or
        None without touching any counter — the loop then hands the
        request to its off-loop executor, whose :meth:`query_bytes`
        call tallies the miss.  Net effect: every request is exactly
        one byte-cache lookup, same as the blocking path.

        Raises:
            RequestError: malformed request (surfaced on-loop as 400).
        """
        normalized = validate_request(request)
        cache_key = json.dumps(normalized, sort_keys=True)
        with self._lock:
            entry = self._result_bytes.get(cache_key)
            if entry is not None:
                self._result_bytes.move_to_end(cache_key)
                self._stats["byte_hits"] += 1
                return entry
        return None

    # -- binary batch protocol ----------------------------------------

    def try_cached_binary(self, payload: bytes) -> tuple[bytes, str] | None:
        """Byte-cache probe for a binary batch frame payload.

        Keyed on the *raw frame payload bytes* — a hit costs one dict
        lookup with zero JSON or struct work, which is the whole point
        of the binary path.  Deterministic client encoders mean equal
        questions produce equal frames (and therefore shared entries).
        """
        with self._lock:
            entry = self._binary_bytes.get(payload)
            if entry is not None:
                self._binary_bytes.move_to_end(payload)
                self._stats["binary_hits"] += 1
                return entry
        return None

    def query_binary(self, payload: bytes) -> tuple[bytes, str]:
        """Answer one binary batch frame payload as response bytes.

        Decodes the frame, answers through the same :meth:`query` path
        as JSON (one shared result LRU, so the two protocols can never
        drift), encodes the framed binary response once, and caches it
        against the request payload bytes.

        Raises:
            RequestError: malformed frame or invalid decoded request.
            Whatever :meth:`query` raises for the request.
        """
        from repro.service import binproto

        with self._lock:
            entry = self._binary_bytes.get(payload)
            if entry is not None:
                self._binary_bytes.move_to_end(payload)
                self._stats["binary_hits"] += 1
                return entry
        request = binproto.decode_batch_request(payload)
        result = self.query(request)
        body = binproto.encode_batch_response(result)
        etag = '"' + hashlib.sha256(body).hexdigest()[:20] + '"'
        with self._lock:
            if payload not in self._binary_bytes:
                self._stats["binary_misses"] += 1
                self._binary_bytes[payload] = (body, etag)
                while len(self._binary_bytes) > self._result_cache_size:
                    self._binary_bytes.popitem(last=False)
            else:
                self._stats["binary_hits"] += 1
        return body, etag

    def _answer(self, req: dict) -> dict:
        if req["space"] == "two_level":
            return self._answer_two_level(req)
        kwargs = dict(
            max_cache_assoc=req["max_cache_assoc"],
            max_access_time_ns=req["max_access_time_ns"],
        )
        if req["type"] == "point":
            ranked = self.point(
                req["os"],
                req["budget"],
                limit=req["limit"],
                power_budget=req["power_budget"],
                **kwargs,
            )
            return {
                "type": "point",
                "os": req["os"],
                "budget": req["budget"],
                "count": len(ranked),
                "allocations": [
                    allocation_entry(i, a) for i, a in enumerate(ranked, 1)
                ],
            }
        if req["type"] == "batch":
            results = self.batch(
                req["os_names"],
                req["budgets"],
                limit=req["limit"],
                power_budget=req["power_budget"],
                **kwargs,
            )
            return {
                "type": "batch",
                "count": len(results),
                "results": [
                    {
                        "os": os_name,
                        "budget": budget,
                        "feasible": bool(ranked),
                        "allocations": [
                            allocation_entry(i, a)
                            for i, a in enumerate(ranked, 1)
                        ],
                    }
                    for os_name, budget, ranked in results
                ],
            }
        frontier = self.pareto(req["os"], req["max_budget"], **kwargs)
        return {
            "type": "pareto",
            "os": req["os"],
            "max_budget": req["max_budget"],
            "count": len(frontier),
            "frontier": [
                allocation_entry(i, a) for i, a in enumerate(frontier, 1)
            ],
        }

    def _answer_two_level(self, req: dict) -> dict:
        """Two-level responses: point/batch, or a Pareto surface.

        Response rows carry the four structure labels plus exact area,
        CPI and power; a ``point`` query that fits nothing raises
        :class:`BudgetError` just like the single-level path, while
        batch points degrade to ``feasible: false`` rows.
        """
        if req["type"] == "point":
            result = self.point_two_level(
                req["os"], req["budget"], power_budget=req["power_budget"]
            )
            return {
                "type": "point",
                "space": "two_level",
                "os": req["os"],
                "budget": req["budget"],
                "power_budget": req["power_budget"],
                "count": 1,
                "allocations": [{"rank": 1, **two_level_entry(result)}],
            }
        if req["type"] == "batch":
            results = self.batch_two_level(
                req["os_names"],
                req["budgets"],
                power_budget=req["power_budget"],
            )
            return {
                "type": "batch",
                "space": "two_level",
                "count": len(results),
                "power_budget": req["power_budget"],
                "results": [
                    {
                        "os": os_name,
                        "budget": budget,
                        "feasible": result is not None,
                        "allocations": (
                            [{"rank": 1, **two_level_entry(result)}]
                            if result is not None
                            else []
                        ),
                    }
                    for os_name, budget, result in results
                ],
            }
        cells = self.surface(req["os"], req["budgets"], req["power_budgets"])
        return {
            "type": "pareto",
            "space": "two_level",
            "os": req["os"],
            "budgets": req["budgets"],
            "power_budgets": req["power_budgets"],
            "count": len(cells),
            "surface": [surface_entry(c) for c in cells],
        }


def maybe_engine(
    os_name: str, store: CurveStore | None = None
) -> QueryEngine | None:
    """An engine backed by the (default) store, if it can serve this OS.

    Experiments call this to prefer the service path: when the store
    has a curve set matching the current scale/engine the returned
    engine answers without re-simulation; otherwise None sends the
    caller down the direct measurement path.
    """
    store = store if store is not None else CurveStore.open()
    if store.exists() and store.find_current(os_name) is not None:
        return QueryEngine(store)
    return None
