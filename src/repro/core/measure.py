"""Per-structure benefit curves, measured once and reused everywhere.

Like the paper, the allocation sweep does not simulate every candidate
system; it composes total CPI from independently measured curves:
I-cache and D-cache miss-ratio grids over the Table 5 space and a TLB
miss table split into user/kernel misses.  One synthetic trace per
(workload, OS) feeds single-pass stack simulations; results are cached
on disk so reruns (tests, benchmarks, the allocator) are cheap.

Measurement decomposes into independent units — one per (workload, OS,
structure, line size) plus the TLB table and the timing pass — which
can fan out over a process pool.  Performance knobs:

* ``REPRO_SCALE`` scales trace lengths (default 1.0; larger values
  tighten estimates at the cost of runtime).
* ``REPRO_JOBS`` sets the worker-process count.  Explicit ``jobs``
  arguments (and the runner's ``--jobs`` flag) take precedence over
  the environment variable; the default is 1 (serial, in-process).
* ``REPRO_CACHE_DIR`` moves the measurement cache (default
  ``.repro-cache`` under the working directory).
* ``REPRO_TRACE_CACHE`` moves (or, set to ``off``, disables) the
  zero-copy trace plane (default ``.repro-trace-cache``): generated
  traces are published once as raw arrays and memory-mapped by every
  worker, so parallel measurement shares one physical copy instead of
  regenerating per process.

Worker processes persist across measurement calls (one shared pool per
``jobs`` count), so ``measure_suite`` and ``runner --all --jobs`` reuse
warm workers — and their trace memos — across workloads.

Cache writes go to a unique temporary file and are published with an
atomic ``os.replace``, so concurrent workers and interrupted runs
never corrupt the cache; corrupt or stale-format entries are evicted
and remeasured instead of crashing.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import tempfile
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
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
from repro.memsim.multiconfig import cache_miss_ratio_grid_chunked
from repro.memsim.stackdist import StreamingStackDistance
from repro.memsim.timing import DECSTATION_3100, simulate_system_stream
from repro.trace import tracestore
from repro.units import PAGE_SHIFT, VPN_BITS

DEFAULT_REFERENCES = 700_000
DEFAULT_WARMUP = 0.4
CACHE_FORMAT_VERSION = 5


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


def _cache_key(**kwargs) -> str:
    text = repr(sorted(kwargs.items())) + f"|v{CACHE_FORMAT_VERSION}"
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _evict(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


def _load_cached(key: str):
    """Load a cache entry, evicting corrupt or stale-format files.

    Entries are ``{"version": CACHE_FORMAT_VERSION, "value": ...}``
    payloads; anything unreadable (truncated write from a crashed run,
    a foreign file, an old payload format) is deleted and remeasured.
    """
    path = cache_dir() / f"{key}.pkl"
    if not path.exists():
        return None
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except Exception:
        # Truncated pickles raise UnpicklingError/EOFError; entries
        # from modules that have since moved raise ImportError or
        # AttributeError.  All mean the same thing: remeasure.
        _evict(path)
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("version") != CACHE_FORMAT_VERSION
        or "value" not in payload
    ):
        _evict(path)
        return None
    return payload["value"]


def _store_cached(key: str, value) -> None:
    """Atomically publish a cache entry (safe under concurrent writers).

    Each writer dumps to its own temporary file and renames it into
    place, so readers only ever see complete pickles and the last
    writer wins without corruption.
    """
    directory = cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{key}.pkl"
    payload = {"version": CACHE_FORMAT_VERSION, "value": value}
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{key}-", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(payload, handle)
        os.replace(tmp_name, path)
    except BaseException:
        _evict(Path(tmp_name))
        raise


def _tlb_table(
    source,
    entries_list: tuple[int, ...],
    assocs: tuple[int, ...],
    full_max_entries: int,
    warm: int,
) -> dict:
    """Measure the TLB miss table with warmup-aware stack passes.

    ``source`` is a trace or trace stream read chunk by chunk.  The
    mapped-reference filter, the warmup boundary and the consecutive-
    duplicate dedupe (its last id carried across chunk boundaries)
    accumulate across chunks, and every stack pass carries its state,
    so the table does not depend on the chunking.  Set-associative
    points take one pass per distinct set count; the fully-associative
    points share one single-stack pass.
    """
    max_assoc = max(assocs)
    set_counts = sorted({n // a for n in entries_list for a in assocs if a <= n})
    sims = {
        n_sets: StreamingStackDistance(n_sets, max_assoc, track_flags=True)
        for n_sets in set_counts
    }
    fa_sizes = [n for n in entries_list if n <= full_max_entries]
    fa_sim = (
        StreamingStackDistance(1, max(fa_sizes), track_flags=True)
        if fa_sizes
        else None
    )
    last_id = None
    for start, _stop, fields in source.chunks(
        ("addresses", "asids", "mapped", "kernel")
    ):
        mapped_local = np.flatnonzero(fields["mapped"])
        if not len(mapped_local):
            continue
        vpns = fields["addresses"][mapped_local] >> PAGE_SHIFT
        ids = (fields["asids"][mapped_local].astype(np.int64) << VPN_BITS) | vpns
        kernel = np.asarray(fields["kernel"], dtype=bool)[mapped_local]
        raw_count_from = int((mapped_local < warm - start).sum())
        # Consecutive same-page references are guaranteed hits.
        keep = np.empty(len(ids), dtype=bool)
        keep[0] = last_id is None or ids[0] != last_id
        np.not_equal(ids[1:], ids[:-1], out=keep[1:])
        deduped = ids[keep]
        kernel_d = kernel[keep]
        deduped_from = int(keep[:raw_count_from].sum())
        last_id = int(ids[-1])
        for sim in sims.values():
            sim.feed(deduped, kernel_d, count_from=deduped_from)
        if fa_sim is not None:
            fa_sim.feed(deduped, kernel_d, count_from=deduped_from)

    table: dict = {}
    for n_sets, sim in sims.items():
        misses = sim.miss_counts()
        kernel_misses = sim.flagged_miss_counts()
        for assoc in assocs:
            entries = n_sets * assoc
            if entries in entries_list:
                total = int(misses[assoc - 1])
                k = int(kernel_misses[assoc - 1])
                table[(entries, assoc)] = (total - k, k)
    if fa_sim is not None:
        sizes = np.asarray(fa_sizes, dtype=np.int64)
        misses = fa_sim.miss_counts()[sizes - 1]
        kernel_misses = fa_sim.flagged_miss_counts()[sizes - 1]
        for size, total, k in zip(fa_sizes, misses, kernel_misses):
            table[(size, FULLY_ASSOCIATIVE)] = (int(total) - int(k), int(k))
    return table


# ---------------------------------------------------------------------------
# Unit-level measurement: one (workload, OS) measurement decomposes
# into independent units — a cache grid per (structure, line size), the
# TLB table, and the reference timing pass — that run serially or fan
# out over a process pool.  Traces come from the zero-copy trace plane
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
        # evicts by insertion order and interleaved units can drop the
        # hottest trace.
        _worker_traces[key] = _worker_traces.pop(key)
        return trace
    # Evict only the least-recently-used entry (dict preserves
    # insertion order, and hits re-insert): clearing the whole memo
    # would drop a still-hot sibling trace and force interleaved units
    # to reload it every time.
    while len(_worker_traces) >= _WORKER_TRACE_CAP:
        _worker_traces.pop(next(iter(_worker_traces)))
    trace = tracestore.get_trace(workload, os_name, references, seed=seed)
    _worker_traces[key] = trace
    return trace


def _warm_trace(spec: tuple) -> tuple[tuple, bool]:
    """Publish one trace to the plane (pool warm-up task body).

    Returns ``(spec, published)``.  The warming worker also memoizes
    the trace, so the units it receives next hit its in-process LRU;
    a worker that already holds the trace skips the disk entirely.
    Traces long enough for the streaming path skip the memo — units
    will read them in chunks, never whole.
    """
    workload, os_name, references, seed = spec
    if spec in _worker_traces:
        return spec, False
    published = tracestore.ensure(workload, os_name, references, seed=seed)
    if not _use_streaming(references):
        _trace_for(workload, os_name, references, seed)
    return spec, published


def _use_streaming(references: int) -> bool:
    """Whether measurement units consume this trace chunk-streaming.

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
    "REPRO_CACHE_DIR",
    "REPRO_SCALE",
    "REPRO_ENGINE",
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


def _measure_unit(spec: tuple):
    """Compute one measurement unit; runs in-process or in a worker.

    Every unit reads its columns chunk by chunk from one source: the
    memoised materialized trace as a single chunk, or — for traces too
    long to hold (see :func:`_use_streaming`) — an on-disk
    :class:`~repro.trace.tracestore.TraceStream` read one
    ``REPRO_STREAM_CHUNK``-sized window at a time, so peak RSS is
    bounded by the chunk size instead of the trace length.
    """
    (unit, workload, os_name, references, seed, warmup_fraction, params) = spec
    if _use_streaming(references):
        source = tracestore.stream(workload, os_name, references, seed=seed)
    else:
        source = _trace_for(workload, os_name, references, seed)
    warm = int(len(source) * warmup_fraction)
    if unit in ("icache", "dcache"):
        capacities, line_words, assocs = params
        kind_code = 0 if unit == "icache" else 1
        field = "ifetch_physical" if unit == "icache" else "load_physical"
        # How many of the first `warm` references are this kind.
        stream_warm = 0
        for start, _stop, fields in source.chunks(("kinds",)):
            if start >= warm:
                break
            head = fields["kinds"][: warm - start]
            stream_warm += int((head == kind_code).sum())
        stream_len = source.count(field)
        return cache_miss_ratio_grid_chunked(
            (fields[field] for _s, _e, fields in source.chunks((field,))),
            stream_len,
            list(capacities),
            [line_words],
            list(assocs),
            warmup_fraction=stream_warm / max(stream_len, 1),
        )
    if unit == "tlb":
        tlb_entries, tlb_assocs, tlb_full_max = params
        return _tlb_table(source, tlb_entries, tlb_assocs, tlb_full_max, warm)
    if unit == "timing":
        totals = {"instructions": 0, "loads": 0, "stores": 0, "mapped": 0}

        def chunks_with_counts():
            for start, _stop, fields in source.chunks(
                ("addresses", "physical", "kinds", "asids", "mapped", "kernel")
            ):
                kinds = fields["kinds"]
                lo = min(max(warm - start, 0), len(kinds))
                counted = kinds[lo:]
                totals["instructions"] += int((counted == 0).sum())
                totals["loads"] += int((counted == 1).sum())
                totals["stores"] += int((counted == 2).sum())
                totals["mapped"] += int(fields["mapped"][lo:].sum())
                yield fields

        reference_timing = simulate_system_stream(
            chunks_with_counts(),
            len(source),
            source.other_cpi,
            DECSTATION_3100,
            warmup_fraction=warmup_fraction,
        )
        return {
            **totals,
            "other_cpi": source.other_cpi,
            "wb_stall": reference_timing.cpi_components["write_buffer"],
            "page_fault_per_instr": source.page_faults
            / max(source.count("ifetch_physical"), 1),
        }
    raise ValueError(f"unknown measurement unit {unit!r}")


# perfbench's layer tracer still looks these names up on this module
# (retargeted by ROADMAP item 5); nothing here calls them.
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

    def cache_key(self, workload: str, os_name: str) -> str:
        return _cache_key(
            kind="curves",
            workload=workload,
            os_name=os_name,
            capacities=self.capacities,
            lines=self.lines,
            assocs=self.assocs,
            tlb_entries=self.tlb_entries,
            tlb_assocs=self.tlb_assocs,
            tlb_full_max=self.tlb_full_max,
            references=self.references,
            warmup=self.warmup_fraction,
            seed=self.seed,
        )

    def unit_specs(self, workload: str, os_name: str) -> list[tuple]:
        common = (
            workload,
            os_name,
            self.references,
            self.seed,
            self.warmup_fraction,
        )
        specs = [
            ("icache", *common, (self.capacities, lw, self.assocs))
            for lw in self.lines
        ]
        specs += [
            ("dcache", *common, (self.capacities, lw, self.assocs))
            for lw in self.lines
        ]
        specs.append(
            ("tlb", *common, (self.tlb_entries, self.tlb_assocs, self.tlb_full_max))
        )
        specs.append(("timing", *common, None))
        return specs


def _assemble_curves(
    workload: str, os_name: str, specs: list[tuple], outputs: list
) -> StructureCurves:
    icache: dict = {}
    dcache: dict = {}
    tlb: dict = {}
    stats: dict = {}
    for spec, output in zip(specs, outputs):
        unit = spec[0]
        if unit == "icache":
            icache.update(output)
        elif unit == "dcache":
            dcache.update(output)
        elif unit == "tlb":
            tlb = output
        else:
            stats = output
    instructions = stats["instructions"]
    return StructureCurves(
        workload=workload,
        os_name=os_name,
        instructions=instructions,
        loads_per_instr=stats["loads"] / instructions,
        stores_per_instr=stats["stores"] / instructions,
        mapped_per_instr=stats["mapped"] / instructions,
        other_cpi=stats["other_cpi"],
        wb_stall_per_instr=stats["wb_stall"],
        page_fault_per_instr=stats["page_fault_per_instr"],
        icache=icache,
        dcache=dcache,
        tlb=tlb,
    )


def _measure_pairs(
    pairs: list[tuple[str, str]],
    opts: _MeasureOpts,
    use_cache: bool,
    jobs: int,
) -> list[StructureCurves]:
    """Measure several (workload, OS) pairs, fanning units over a pool."""
    results: dict[tuple[str, str], StructureCurves] = {}
    todo: list[tuple[str, str]] = []
    for pair in pairs:
        cached = _load_cached(opts.cache_key(*pair)) if use_cache else None
        if cached is not None:
            results[pair] = cached
        else:
            todo.append(pair)

    if todo:
        pair_specs = {pair: opts.unit_specs(*pair) for pair in todo}
        flat = [spec for specs in pair_specs.values() for spec in specs]
        if jobs > 1:
            if tracestore.enabled():
                # Publish every *missing* trace once (generation fans
                # out across the pool, one pair per worker) so the unit
                # fan-out memmaps shared bytes instead of regenerating
                # the same trace in every worker.  Already-published
                # entries skip the warm-up round trip: workers memmap
                # them on demand.
                missing = [
                    (w, o, opts.references, opts.seed)
                    for w, o in todo
                    if not tracestore.has(
                        tracestore.key_for(w, o, opts.references, opts.seed)
                    )
                ]
                if missing:
                    _pool_map(jobs, _warm_trace, missing)
            flat_outputs = _pool_map(jobs, _measure_unit, flat)
        else:
            flat_outputs = [_measure_unit(spec) for spec in flat]
        cursor = 0
        for pair in todo:
            specs = pair_specs[pair]
            outputs = flat_outputs[cursor : cursor + len(specs)]
            cursor += len(specs)
            curves = _assemble_curves(*pair, specs, outputs)
            if use_cache:
                _store_cached(opts.cache_key(*pair), curves)
            results[pair] = curves
    return [results[pair] for pair in pairs]


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
    calls (from tests, benches and the allocator) cost one pickle load.
    ``jobs`` (argument, then REPRO_JOBS, then 1) fans the measurement
    units out over worker processes.
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

    With ``jobs > 1`` the units of *all* uncached workloads are pooled
    into one process-pool submission, so parallelism spans workloads as
    well as structures.
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
