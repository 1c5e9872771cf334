"""Per-structure benefit curves, measured once and reused everywhere.

Like the paper, the allocation sweep does not simulate every candidate
system; it composes total CPI from independently measured curves:
I-cache and D-cache miss-ratio grids over the Table 5 space and a TLB
miss table split into user/kernel misses.  One synthetic trace per
(workload, OS) feeds single-pass stack simulations; each pair's curves
are cached on disk so reruns (tests, benchmarks, the allocator) are
cheap.

Each (workload, OS) pair is measured in one pass over its trace: one
chunk loop feeds every I-cache and D-cache grid, the TLB table and the
reference timing pass, as Tapeworm simulates many configurations per
pass.  Pairs are independent, so they can fan out over a process pool.
Performance knobs:

* ``REPRO_SCALE`` scales trace lengths (default 1.0; larger values
  tighten estimates at the cost of runtime).
* ``REPRO_JOBS`` sets the worker-process count; each worker measures
  whole pairs, and a lone pair stays in-process.  Explicit ``jobs``
  arguments (and the runner's ``--jobs`` flag) take precedence over
  the environment variable; the default is 1 (serial, in-process).
* ``REPRO_CACHE_DIR`` moves the measurement cache (default
  ``.repro-cache`` under the working directory).  It is a
  :class:`~repro.store.CurveStore` holding one object per measured
  pair, keyed by the pair and every measurement option.
* ``REPRO_TRACE_CACHE`` moves (or, set to ``off``, disables) the
  zero-copy trace plane (default ``.repro-trace-cache``): generated
  traces are published once as raw arrays and memory-mapped by every
  worker, so parallel measurement shares one physical copy instead of
  regenerating per process.

Worker processes persist across measurement calls (one shared pool per
``jobs`` count), so ``measure_suite`` and ``runner --all --jobs`` reuse
warm workers — and their trace memos — across workloads.

The cache publishes each object with an atomic ``os.replace``, so
concurrent workers and interrupted runs never corrupt it; a missing,
corrupt or old-schema entry is remeasured and republished instead of
crashing.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.areamodel.tlb_area import FULLY_ASSOCIATIVE
from repro.core.configs import CacheConfig, TlbConfig
from repro.errors import ConfigError
from repro.core.space import (
    TABLE5_CACHE_ASSOCS,
    TABLE5_CACHE_CAPACITIES,
    TABLE5_CACHE_LINES,
    TABLE5_TLB_ASSOCS,
    TABLE5_TLB_ENTRIES,
    TABLE5_TLB_FULL_MAX_ENTRIES,
)
from repro.memsim.multiconfig import StreamingCacheGrid, cache_miss_ratio_grid_chunked
from repro.memsim.stackdist import StreamingStackDistance
from repro.memsim.timing import (
    DECSTATION_3100,
    ChunkIndex,
    StreamingSystemTiming,
    mapped_page_ids,
    simulate_system_stream,
)
from repro.memsim.types import AccessKind
from repro.trace import tracestore

DEFAULT_REFERENCES = 700_000
DEFAULT_WARMUP = 0.4


def _env_number(name: str, default: str, parse):
    """Parse a numeric environment variable, naming it on failure."""
    raw = os.environ.get(name, default)
    try:
        return parse(raw)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{name} must be {'an integer' if parse is int else 'a number'}, "
            f"got {raw!r}"
        ) from None


def scale() -> float:
    """The REPRO_SCALE multiplier for trace lengths."""
    value = _env_number("REPRO_SCALE", "1.0", float)
    if value <= 0:
        raise ConfigError(f"REPRO_SCALE must be > 0, got {value!r}")
    return value


def cache_dir() -> Path:
    """Directory for measurement caching (created on demand)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit argument, then REPRO_JOBS, then 1."""
    if jobs is None:
        jobs = _env_number("REPRO_JOBS", "1", int)
        if jobs < 1:
            raise ConfigError(f"REPRO_JOBS must be >= 1, got {jobs}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass
class StructureCurves:
    """Measured benefit data for one (workload, OS) pair.

    Attributes:
        workload / os_name: identity.
        instructions: instructions in the measured (post-warmup) window.
        loads_per_instr / stores_per_instr: data-reference rates.
        mapped_per_instr: TLB-translated references per instruction.
        other_cpi: the workload's non-memory interlock CPI.
        wb_stall_per_instr: write-buffer stall cycles per instruction,
            measured at the reference (DECstation-like) configuration.
        page_fault_per_instr: page-fault rate (the "Other" TLB service
            component of Figure 7).
        icache: (capacity, line_words, assoc) -> misses per ifetch.
        dcache: (capacity, line_words, assoc) -> misses per load.
        tlb: (entries, assoc) -> (user_misses, kernel_misses) per
            measured window, normalized per instruction via
            ``instructions``.
    """

    workload: str
    os_name: str
    instructions: int
    loads_per_instr: float
    stores_per_instr: float
    mapped_per_instr: float
    other_cpi: float
    wb_stall_per_instr: float
    page_fault_per_instr: float
    icache: dict = field(default_factory=dict)
    dcache: dict = field(default_factory=dict)
    tlb: dict = field(default_factory=dict)

    def icache_miss_ratio(self, config: CacheConfig) -> float:
        """Misses per instruction fetch for an I-cache design point."""
        return self.icache[(config.capacity_bytes, config.line_words, config.assoc)]

    def dcache_miss_ratio(self, config: CacheConfig) -> float:
        """Misses per load for a D-cache design point."""
        return self.dcache[(config.capacity_bytes, config.line_words, config.assoc)]

    def tlb_misses_per_instr(self, config: TlbConfig) -> tuple[float, float]:
        """(user, kernel) TLB misses per instruction for a design point."""
        user, kernel = self.tlb[(config.entries, config.assoc)]
        return user / self.instructions, kernel / self.instructions


def _tlb_table(
    source,
    entries_list: tuple[int, ...],
    assocs: tuple[int, ...],
    full_max_entries: int,
    warm: int,
) -> dict:
    """Measure the TLB miss table of a trace or trace stream.

    ``source`` is read chunk by chunk into one :class:`_StreamingTlbTable`
    whose first ``warm`` references only prime the stacks.
    """
    table = _StreamingTlbTable(entries_list, assocs, full_max_entries, warm)
    for start, _stop, fields in source.chunks(
        ("addresses", "asids", "mapped", "kernel")
    ):
        table.feed(start, *mapped_page_ids(fields))
    return table.table()


class _StreamingTlbTable:
    """The TLB miss table, fed one chunk of mapped references at a time.

    Every point is read off one flagged
    :class:`~repro.memsim.stackdist.StreamingStackDistance` family: the
    fully-associative points off its 1-set member, capped at the
    largest of them, and the set-associative points off one member per
    distinct set count.  The warmup boundary accumulates across chunks
    and the family carries its state, so the table does not depend on
    the chunking.
    """

    def __init__(self, entries_list, assocs, full_max_entries: int, warm: int):
        self.entries_list = entries_list
        self.assocs = assocs
        self.warm = warm
        max_assoc = max(assocs)
        caps = {n // a: max_assoc for n in entries_list for a in assocs if a <= n}
        self._fa_sizes = [n for n in entries_list if n <= full_max_entries]
        if self._fa_sizes:
            caps[1] = max(caps.get(1, 0), max(self._fa_sizes))
        self._set_counts = sorted(caps)
        self._family = StreamingStackDistance(
            self._set_counts, [caps[n] for n in self._set_counts], track_flags=True
        )

    def feed(
        self, start: int, positions: np.ndarray, ids: np.ndarray, kernel: np.ndarray
    ) -> None:
        """Step the family over the mapped references of the chunk that
        begins at reference ``start`` (see
        :func:`~repro.memsim.timing.mapped_page_ids`)."""
        count_from = int(np.count_nonzero(positions < self.warm - start))
        self._family.feed(ids, kernel, count_from=count_from, depths=False)

    def table(self) -> dict:
        """``(entries, assoc) -> (user_misses, kernel_misses)``."""
        table: dict = {}
        family = self._family
        for member, n_sets in enumerate(self._set_counts):
            misses = family.miss_counts(member)
            kernel_misses = family.flagged_miss_counts(member)
            for assoc in self.assocs:
                entries = n_sets * assoc
                if entries in self.entries_list:
                    total = int(misses[assoc - 1])
                    k = int(kernel_misses[assoc - 1])
                    table[(entries, assoc)] = (total - k, k)
            if n_sets == 1:
                for size in self._fa_sizes:
                    total = int(misses[size - 1])
                    k = int(kernel_misses[size - 1])
                    table[(size, FULLY_ASSOCIATIVE)] = (total - k, k)
        return table


# ---------------------------------------------------------------------------
# Pair-level measurement: one (workload, OS) pair is measured in one
# pass over its trace, and pairs run serially or fan out over a process
# pool.  Traces come from the zero-copy trace plane
# (repro.trace.tracestore): generated once, published to an mmap-backed
# on-disk cache, and shared by every worker through the OS page cache.
# A small per-process LRU memo keeps the hottest trace handles alive.

_worker_traces: dict[tuple, object] = {}


_WORKER_TRACE_CAP = 2


def _trace_for(workload: str, os_name: str, references: int, seed: int):
    key = (workload, os_name, references, seed)
    trace = _worker_traces.get(key)
    if trace is not None:
        # True LRU: refresh recency on hits too, otherwise the cap
        # evicts by insertion order and interleaved measurements can
        # drop the hottest trace.
        _worker_traces[key] = _worker_traces.pop(key)
        return trace
    # Evict only the least-recently-used entry (dict preserves
    # insertion order, and hits re-insert): clearing the whole memo
    # would drop a still-hot sibling trace and force interleaved
    # measurements to reload it every time.
    while len(_worker_traces) >= _WORKER_TRACE_CAP:
        _worker_traces.pop(next(iter(_worker_traces)))
    trace = tracestore.get_trace(workload, os_name, references, seed=seed)
    _worker_traces[key] = trace
    return trace


def _warm_trace(spec: tuple) -> tuple[tuple, bool]:
    """Publish one trace to the plane (:func:`warm_traces` task body).

    Returns ``(spec, published)``.
    """
    workload, os_name, references, seed = spec
    return spec, tracestore.ensure(workload, os_name, references, seed=seed)


def _use_streaming(references: int) -> bool:
    """Whether measurement consumes this trace chunk-streaming.

    Traces longer than one stream chunk are generated, stored and
    simulated in fixed-size windows so peak RSS stays bounded by the
    chunk size (``REPRO_STREAM_CHUNK``) regardless of ``REPRO_SCALE``.
    Requires the on-disk plane; with ``REPRO_TRACE_CACHE=off`` there is
    nowhere to stage chunks, so everything stays materialized.
    """
    return tracestore.enabled() and references > tracestore.stream_chunk_references()


# ---------------------------------------------------------------------------
# Persistent measurement pool: workers stay warm across measure_suite /
# runner --all calls, so their trace memos and imports amortize over a
# whole run instead of being re-paid per (workload, OS) measurement.
# The pool is keyed by the worker count plus the environment its
# workers inherited at fork; changing either retires the old pool.

_POOL_ENV_KEYS = (
    "REPRO_TRACE_CACHE",
    "REPRO_TRACE_CACHE_MAX",
    "REPRO_SCALE",
    "REPRO_STREAM_CHUNK",
    "REPRO_TRACE_COMPRESS",
    "REPRO_TRACE_COMPRESS_LEVEL",
    "REPRO_TRACE_COMPRESS_BLOCK",
)

_pool: ProcessPoolExecutor | None = None
_pool_key: tuple | None = None


def _pool_env_snapshot() -> tuple:
    return tuple(os.environ.get(name) for name in _POOL_ENV_KEYS)


def _measurement_pool(jobs: int) -> ProcessPoolExecutor:
    """The shared worker pool for ``jobs`` workers (created on demand)."""
    global _pool, _pool_key
    key = (jobs, _pool_env_snapshot())
    if _pool is not None and _pool_key == key:
        return _pool
    shutdown_measurement_pool()
    _pool = ProcessPoolExecutor(max_workers=jobs)
    _pool_key = key
    return _pool


def shutdown_measurement_pool() -> None:
    """Retire the persistent pool (tests, atexit, broken-pool recovery)."""
    global _pool, _pool_key
    if _pool is not None:
        _pool.shutdown(wait=True, cancel_futures=True)
    _pool = None
    _pool_key = None


atexit.register(shutdown_measurement_pool)


def _pool_map(jobs: int, fn, items: list) -> list:
    """Map over the persistent pool, rebuilding it once if it broke.

    A worker killed mid-run (OOM, signal) poisons a process pool for
    every later submission; retiring and rebuilding it once retries the
    batch on fresh workers before giving up.
    """
    for attempt in (0, 1):
        pool = _measurement_pool(jobs)
        try:
            return list(pool.map(fn, items))
        except BrokenProcessPool:
            shutdown_measurement_pool()
            if attempt:
                raise
    raise AssertionError("unreachable")


def _measure_unit(spec: tuple) -> StructureCurves:
    """Measure one ``(workload, os_name, opts)`` pair in one pass.

    Runs in-process or in a worker.  The source is opened once: the
    memoised materialized trace, read as a single chunk, or — for
    traces too long to hold (see :func:`_use_streaming`) — one on-disk
    :class:`~repro.trace.tracestore.TraceStream` read one
    ``REPRO_STREAM_CHUNK``-sized window at a time, so peak RSS is
    bounded by the chunk size instead of the trace length.  A pre-pass
    over ``kinds`` counts each reference kind in the whole trace and in
    its warm window; then one chunk loop feeds every stack pass — the
    I- and D-cache grids over the physical addresses of their kind, the
    TLB table and the reference timing pass — with each chunk's
    :class:`~repro.memsim.timing.ChunkIndex` computed once and shared.
    """
    workload, os_name, opts = spec
    if _use_streaming(opts.references):
        source = tracestore.stream(workload, os_name, opts.references, seed=opts.seed)
    else:
        source = _trace_for(workload, os_name, opts.references, opts.seed)
    warm = int(len(source) * opts.warmup_fraction)
    kinds_total = np.zeros(3, dtype=np.int64)
    kinds_warm = np.zeros(3, dtype=np.int64)
    for start, _stop, fields in source.chunks(("kinds",)):
        kinds = fields["kinds"]
        kinds_total += np.bincount(kinds, minlength=3)[:3]
        kinds_warm += np.bincount(kinds[: max(warm - start, 0)], minlength=3)[:3]

    def kind_grid(kind: int) -> StreamingCacheGrid:
        n, s = int(kinds_total[kind]), int(kinds_warm[kind])
        # The kind stream's warm boundary is s / n turned back into a
        # count, as the grid over that stream alone took it; the round
        # trip is one reference short of s for some (s, n), and keeping
        # it keeps every measured curve unchanged.
        return StreamingCacheGrid(
            opts.capacities, opts.lines, opts.assocs, int(n * (s / max(n, 1)))
        )

    icache = kind_grid(AccessKind.IFETCH)
    dcache = kind_grid(AccessKind.LOAD)
    tlb = _StreamingTlbTable(
        opts.tlb_entries, opts.tlb_assocs, opts.tlb_full_max, warm
    )
    timing = StreamingSystemTiming(DECSTATION_3100, warm)
    mapped = 0
    for start, _stop, fields in source.chunks(tracestore.REFERENCE_FIELDS):
        index = ChunkIndex.of(fields)
        physical = fields["physical"]
        icache.feed(physical[index.ifetch])
        dcache.feed(physical[index.load])
        tlb.feed(start, index.mapped, index.page_ids, index.kernel)
        timing.feed(fields, index)
        mapped += int(np.count_nonzero(index.mapped >= warm - start))

    instructions, loads, stores = (
        int(kinds_total[k] - kinds_warm[k])
        for k in (AccessKind.IFETCH, AccessKind.LOAD, AccessKind.STORE)
    )
    return StructureCurves(
        workload=workload,
        os_name=os_name,
        instructions=instructions,
        loads_per_instr=loads / instructions,
        stores_per_instr=stores / instructions,
        mapped_per_instr=mapped / instructions,
        other_cpi=source.other_cpi,
        wb_stall_per_instr=timing.result(source.other_cpi).cpi_components[
            "write_buffer"
        ],
        page_fault_per_instr=source.page_faults
        / max(int(kinds_total[AccessKind.IFETCH]), 1),
        icache=icache.result(),
        dcache=dcache.result(),
        tlb=tlb.table(),
    )


# perfbench's layer tracer still looks these names up on this module
# (retargeted by ROADMAP item 1); nothing here calls them.
cache_miss_ratio_grid = cache_miss_ratio_grid_chunked
_tlb_table_stream = _tlb_table
simulate_system = simulate_system_stream


@dataclass(frozen=True)
class _MeasureOpts:
    capacities: tuple[int, ...]
    lines: tuple[int, ...]
    assocs: tuple[int, ...]
    tlb_entries: tuple[int, ...]
    tlb_assocs: tuple[int, ...]
    tlb_full_max: int
    references: int
    warmup_fraction: float
    seed: int


def _measure_pairs(
    pairs: list[tuple[str, str]],
    opts: _MeasureOpts,
    use_cache: bool,
    jobs: int,
) -> list[StructureCurves]:
    """Measure several (workload, OS) pairs, fanning pairs over a pool.

    With ``use_cache`` each pair is one object of the curve store at
    :func:`cache_dir`, keyed by the pair and every measurement option:
    a hit is loaded, and a miss is measured and published.
    """
    # Imported here: the store imports this module.
    from repro.store.curvestore import CurveStore

    cache = CurveStore(cache_dir()) if use_cache else None
    keys = [
        {"workload": workload, "os_name": os_name, **asdict(opts)}
        for workload, os_name in pairs
    ]
    results = [cache.load_pair(key) if cache else None for key in keys]
    todo = [i for i, curves in enumerate(results) if curves is None]
    specs = [(*pairs[i], opts) for i in todo]
    # A lone pair gains nothing from a worker but the process hop.
    if jobs > 1 and len(specs) > 1:
        measured = _pool_map(jobs, _measure_unit, specs)
    else:
        measured = [_measure_unit(spec) for spec in specs]
    for i, curves in zip(todo, measured):
        if cache is not None:
            cache.publish_pair(keys[i], curves)
        results[i] = curves
    return results


def measure_workload(
    workload: str,
    os_name: str,
    capacities: tuple[int, ...] = TABLE5_CACHE_CAPACITIES,
    lines: tuple[int, ...] = TABLE5_CACHE_LINES,
    assocs: tuple[int, ...] = TABLE5_CACHE_ASSOCS,
    tlb_entries: tuple[int, ...] = TABLE5_TLB_ENTRIES,
    tlb_assocs: tuple[int, ...] = TABLE5_TLB_ASSOCS,
    tlb_full_max: int = TABLE5_TLB_FULL_MAX_ENTRIES,
    references: int | None = None,
    warmup_fraction: float = DEFAULT_WARMUP,
    seed: int = 1,
    use_cache: bool = True,
    jobs: int | None = None,
) -> StructureCurves:
    """Measure all benefit curves for one (workload, OS) pair.

    Results are cached on disk keyed by every parameter, so repeated
    calls (from tests, benches and the allocator) cost one object load.
    One pair is always measured in-process: ``jobs`` only spreads
    several pairs (see :func:`measure_suite`).
    """
    return measure_suite(
        os_name, (workload,), capacities, lines, assocs, tlb_entries,
        tlb_assocs, tlb_full_max, references, warmup_fraction, seed,
        use_cache, jobs,
    )[0]


def measure_suite(
    os_name: str,
    workloads: tuple[str, ...] | None = None,
    capacities: tuple[int, ...] = TABLE5_CACHE_CAPACITIES,
    lines: tuple[int, ...] = TABLE5_CACHE_LINES,
    assocs: tuple[int, ...] = TABLE5_CACHE_ASSOCS,
    tlb_entries: tuple[int, ...] = TABLE5_TLB_ENTRIES,
    tlb_assocs: tuple[int, ...] = TABLE5_TLB_ASSOCS,
    tlb_full_max: int = TABLE5_TLB_FULL_MAX_ENTRIES,
    references: int | None = None,
    warmup_fraction: float = DEFAULT_WARMUP,
    seed: int = 1,
    use_cache: bool = True,
    jobs: int | None = None,
) -> list[StructureCurves]:
    """Measure every workload of the suite under one OS.

    With ``jobs > 1`` every uncached workload is one task of a single
    process-pool submission, so up to ``jobs`` pairs are measured at
    once.
    """
    from repro.workloads.registry import workload_names

    names = workloads if workloads is not None else tuple(workload_names())
    opts = _MeasureOpts(
        capacities=tuple(capacities),
        lines=tuple(lines),
        assocs=tuple(assocs),
        tlb_entries=tuple(tlb_entries),
        tlb_assocs=tuple(tlb_assocs),
        tlb_full_max=tlb_full_max,
        references=int(
            references if references is not None else DEFAULT_REFERENCES * scale()
        ),
        warmup_fraction=warmup_fraction,
        seed=seed,
    )
    return _measure_pairs(
        [(name, os_name) for name in names], opts, use_cache, resolve_jobs(jobs)
    )


def warm_traces(
    os_names: tuple[str, ...] | None = None,
    workloads: tuple[str, ...] | None = None,
    references: int | None = None,
    seed: int = 1,
    jobs: int | None = None,
) -> list[tuple[str, str, bool]]:
    """Pre-publish every (workload, OS) trace to the trace plane.

    Returns ``(workload, os_name, published)`` per pair, where
    ``published`` is False for traces that were already cached.  With
    ``jobs > 1`` generation fans out over the persistent pool, one
    pair per worker.  Raises :class:`~repro.errors.ConfigError` when
    the plane is disabled (``REPRO_TRACE_CACHE=off``) — there is
    nowhere to warm.
    """
    if not tracestore.enabled():
        raise ConfigError(
            "cannot warm traces: the trace cache is disabled "
            "(REPRO_TRACE_CACHE=off)"
        )
    if os_names is None:
        from repro.trace.generator import OS_MODELS

        os_names = tuple(sorted(OS_MODELS))
    if workloads is None:
        from repro.workloads.registry import workload_names

        workloads = tuple(workload_names())
    if references is None:
        references = int(DEFAULT_REFERENCES * scale())
    specs = [
        (workload, os_name, references, seed)
        for os_name in os_names
        for workload in workloads
    ]
    jobs = resolve_jobs(jobs)
    if jobs > 1:
        outcomes = _pool_map(jobs, _warm_trace, specs)
    else:
        outcomes = [_warm_trace(spec) for spec in specs]
    return [
        (spec[0], spec[1], published) for spec, published in outcomes
    ]


@dataclass
class BenefitCurves:
    """Suite-averaged benefit curves (what the allocator consumes)."""

    os_name: str
    per_workload: list[StructureCurves]

    def icache_miss_ratio(self, config: CacheConfig) -> float:
        """Suite-average I-cache misses per instruction fetch."""
        return float(
            np.mean([c.icache_miss_ratio(config) for c in self.per_workload])
        )

    def dcache_miss_ratio(self, config: CacheConfig) -> float:
        """Suite-average D-cache misses per load."""
        return float(
            np.mean([c.dcache_miss_ratio(config) for c in self.per_workload])
        )

    def tlb_misses_per_instr(self, config: TlbConfig) -> tuple[float, float]:
        """Suite-average (user, kernel) TLB misses per instruction."""
        pairs = [c.tlb_misses_per_instr(config) for c in self.per_workload]
        return (
            float(np.mean([p[0] for p in pairs])),
            float(np.mean([p[1] for p in pairs])),
        )

    @property
    def loads_per_instr(self) -> float:
        """Suite-average loads per instruction."""
        return float(np.mean([c.loads_per_instr for c in self.per_workload]))

    @property
    def other_cpi(self) -> float:
        """Suite-average non-memory interlock CPI."""
        return float(np.mean([c.other_cpi for c in self.per_workload]))

    @property
    def wb_stall_per_instr(self) -> float:
        """Suite-average write-buffer stall CPI."""
        return float(np.mean([c.wb_stall_per_instr for c in self.per_workload]))

    @classmethod
    def for_suite(cls, os_name: str, **kwargs) -> "BenefitCurves":
        """Measure (or load cached) curves for the whole suite."""
        return cls(os_name=os_name, per_workload=measure_suite(os_name, **kwargs))
