"""design_sweep: two-level design-space queries against a cold engine.

Set-up measures suite curves for both OSes (at ``STORE_SCALE`` of the
default trace length, enough for allocation work and cheap to rebuild)
and publishes them to a fresh curve store.  The timed run opens a new
in-process ``QueryEngine`` over that store, so store load and two-level
space builds run inside it, and answers distinct ``space="two_level"``
point queries over both OSes: half area-only, half with a
``power_budget`` (the area x power allocation of *Cache Hierarchy
Optimization*, arXiv:1705.07281).

Queries come from a fixed universe: per OS, per area-budget bin and per
kind (area-only or power) one query.  Every round opens a new engine
(store load and both two-level space builds, timed as one operation)
and then asks all 12 queries in the order the seed drew, so rounds
repeat the same work and the run reports each operation at its fastest
round.  The seed orders the queries but does not pick them: the
greedy's cost depends on the exact budgets (picking one of three
candidates within 1% per cell moved a round's cost by 25% between
seeds), so a seed that picked budgets would move the figure by more
than the host's noise.  Goldens (``goldens.py``) hold the exhaustive
optimum for every area-only query and today's CPI for every power query.
"""

from __future__ import annotations

import random
import statistics
import time

import stats
from harness import load_golden, pin_to_quietest_cpu

STORE_SCALE = "0.1"
OS_NAMES = ("mach", "ultrix")
BUDGET_RANGE = (130_000.0, 700_000.0)  # the space's cheapest point is ~111k rbe
POWER_RANGE = (18.0, 50.0)  # mW
BINS = 3
ROUND_SECONDS = 4.0
"""Budgeted cost of one round (engine open plus one area-only and one
power query per OS and bin, 12 queries; 2.9-5.5 s measured on a 2-core
x86 host shared with other machines); ``--seconds`` divided by it sets
the rounds a run repeats."""
OPEN = "open"
"""The operation that opens a new engine: store load and space builds."""
REFERENCE_PROBE_S = 0.0015
"""``harness.probe`` on a quiet CPU of the reference host (1.5-1.6 ms)."""


def to_reference(probes) -> float:
    """Factor that scales a run's times to the reference host's quiet
    speed, from the probe times measured before its operations.

    The greedy is dictionary-heavy pure Python, like the probe, and
    slows with it: over ten seeds run while the host went from quiet to
    busy, the best rounds spread 20% and the scaled ones 6% (scaling
    each operation by its own probe instead: 8%, and 11% in a quiet
    phase).  Numpy and native code slow less than the probe, so
    ``characterize`` is not scaled.
    """
    measured = [p for p in probes if p]
    return REFERENCE_PROBE_S / statistics.median(measured) if measured else 1.0


def universe() -> list[dict]:
    """Every query a round asks, with a stable id each."""
    rng = random.Random("perfbench.design_sweep.universe")
    lo, hi = BUDGET_RANGE
    width = (hi - lo) / BINS
    queries = []
    for os_name in OS_NAMES:
        for b in range(BINS):
            for kind in ("area", "power"):
                queries.append({
                    "id": f"{os_name}-{b}-{kind}",
                    "os": os_name,
                    "budget": round(lo + (b + 0.5) * width, 3),
                    "power_budget": (
                        round(rng.uniform(*POWER_RANGE), 3) if kind == "power" else None
                    ),
                })
    return queries


def plan(seed: int) -> list[dict]:
    """The universe in the order ``seed`` draws: the order of every round."""
    queries = universe()
    return random.Random(seed).sample(queries, len(queries))


def request(query: dict) -> dict:
    return {
        "type": "point",
        "space": "two_level",
        "os": query["os"],
        "budget": query["budget"],
        "power_budget": query["power_budget"],
    }


def build_store(root: str, pin: bool = False) -> None:
    """Measure and publish both OSes' curves into the store at ``root``.

    ``pin`` moves the process to the quieter CPU before each OS; only a
    single-process caller may ask for it, because processes it starts
    later (a fleet) would inherit the one-CPU affinity.
    """
    from repro.store import CurveStore

    store = CurveStore(root)
    for os_name in OS_NAMES:
        if pin:
            pin_to_quietest_cpu()
        store.build_for_os(os_name, jobs=1)


def flat_index(space, row: dict) -> int:
    """Position of an answer row in the space's flat enumeration order."""
    from repro.core.configs import CacheConfig, TlbConfig

    flat = 0
    for curve, column in zip(space.structures, ("tlb", "l1i", "l1d", "l2")):
        config = TlbConfig if column == "tlb" else CacheConfig
        labels = [config(*key).label() for key in curve.keys]
        flat = flat * len(labels) + labels.index(row[column])
    return flat


def judge(query: dict, row: dict | None, golden: dict | None, space) -> str | None:
    """Failure kind of one answer, or None when it is correct.

    Area-only answers must be the exhaustive optimum exactly (flat index
    and CPI).  Power answers must be feasible and no worse than the
    recorded CPI, because greedy is a documented heuristic there.
    """
    if golden is None:
        return "no_golden"
    if row is None:
        return "no_answer"
    if query["power_budget"] is None:
        if flat_index(space, row) != golden["flat"] or row["cpi"] != golden["cpi"]:
            return "not_optimal"
        return None
    if row["area_rbe"] > query["budget"] or row["power_mw"] > query["power_budget"]:
        return "infeasible"
    if row["cpi"] > golden["cpi"]:
        return "worse_cpi"
    return None


class DesignSweep:
    name = "design_sweep"
    env = {"REPRO_SCALE": STORE_SCALE}
    def __init__(self, ctx):
        self.ctx = ctx
        self.store = str(ctx.work / "store")

    def setup(self) -> None:
        pin_to_quietest_cpu()
        from repro.memsim import _native
        from repro.service.engine import QueryEngine  # noqa: F401

        _native.available()
        build_store(self.store, pin=True)

    def run(self, tracer) -> dict:
        from repro.errors import BudgetError
        from repro.service.engine import QueryEngine
        from repro.store import CurveStore

        queries = plan(self.ctx.seed)
        asked, rows, rounds, latencies, probes = [], [], [], [], []
        for _ in range(stats.rounds_for(self.ctx.seconds, ROUND_SECONDS)):
            probes.append(pin_to_quietest_cpu())
            start = time.perf_counter()
            engine = QueryEngine(CurveStore(self.store))
            for os_name in OS_NAMES:
                engine.two_level_space(os_name)
            times = {OPEN: time.perf_counter() - start}
            for query in queries:
                probes.append(pin_to_quietest_cpu())
                start = time.perf_counter()
                try:
                    rows.append(engine.query(request(query))["allocations"][0])
                except BudgetError:
                    rows.append(None)
                times[query["id"]] = time.perf_counter() - start
                latencies.append(times[query["id"]] * 1000.0)
            rounds.append([times[op] for op in sorted(times)])
            asked.extend(queries)
        self.engine = engine
        return {
            "rounds": rounds,
            "scale": to_reference(probes),
            "work": len(queries),
            "latencies_ms": latencies,
            "outputs": (asked, rows),
        }

    def check(self, outputs, tally) -> None:
        goldens = load_golden(self.name)["queries"]
        queries, rows = outputs
        for query, row in zip(queries, rows):
            space = self.engine.two_level_space(query["os"])
            failure = judge(query, row, goldens.get(query["id"]), space)
            if failure is None:
                tally.ok()
            else:
                tally.fail(failure)

    def layers(self, tracer, result) -> dict:
        """Per-round layer figures (totals over the rounds divided by them)."""
        from repro.core import hierarchy

        n = len(result["rounds"])
        cache = self.engine.stats
        lookups = cache["hits"] + cache["misses"]
        return {
            "store.load_s": tracer.layer_s("store") / n,
            "hierarchy.build_s": tracer.layer_s("hierarchy") / n,
            "multiopt.greedy_s": tracer.layer_s("multiopt") / n,
            "multiopt.greedy_calls": tracer.calls_of(hierarchy, "greedy_allocate") / n,
            "engine.self_s": tracer.layer_s("engine") / n,
            "engine.result_cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        }

    def instrument(self, tracer) -> None:
        """Wrap the query path's layer entry points."""
        from repro.core import hierarchy
        from repro.service import engine
        from repro.store import curvestore

        tracer.wrap(engine.QueryEngine, "query", "engine")
        tracer.wrap(engine.QueryEngine, "two_level_space", "engine")
        tracer.wrap(curvestore.CurveStore, "load", "store")
        tracer.wrap(engine, "build_two_level_space", "hierarchy")
        tracer.wrap(hierarchy, "greedy_allocate", "multiopt")

    def teardown(self) -> None:
        pass
