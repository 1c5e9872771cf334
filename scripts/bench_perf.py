"""Performance benchmark harness: writes BENCH_perf.json.

Times the four layers the fast path accelerates:

1. The Table 5 cache-miss-ratio grid on a 700k-reference instruction
   stream — interpreted baseline vs the stack-distance pass on its
   native path and with the interpreted fallback forced, with a
   bit-identity check.
2. A full StructureCurves measurement (all units for one
   (workload, OS) pair), serial and with ``--jobs 4``.
3. The zero-copy trace plane: cold generation+publish vs warm memmap
   load, and warm-cache curve measurement serial vs ``--jobs 4``
   through the persistent worker pool.
4. Chunk-streaming scaling: references vs wall seconds vs peak RSS for
   streaming generation + simulation, one fresh subprocess per size so
   each row's ``resource.getrusage`` high-water mark is its own.
5. Compressed trace entries: the format-3 zlib layout vs raw format 2
   — on-disk bytes, decode bit-identity, and warm-load-vs-regenerate
   speedup.
6. Allocator scaling: the exact Pareto frontier vs chunked-vectorized
   exhaustive search on the two-level (TLB, L1I, L1D, L2) space —
   ~10^7 design points — the frontier's one-off build, then per-query
   times at 8 area budgets and 4 joint area x power budgets, with a
   bit-identity check per budget.
7. Write-buffer timing pass: the production path (the C loop, or its
   scalar fallback) vs the scalar spec on synthetic multi-million-store
   arrival streams and on the store streams of real timing passes,
   with a bit-identity check per stream.

Usage::

    PYTHONPATH=src python scripts/bench_perf.py [--output BENCH_perf.json]
        [--section {all,grid,curves,trace_plane,streaming,
                    trace_compression,alloc_scaling,write_buffer}]
        [--check-scaling] [--sizes N,N,...]

An existing output file is updated, not replaced: the sections that
ran (and ``machine``) are rewritten, the others are kept, and each
rewritten section's previous run moves into its ``history`` list.

The streaming sizes default to ``REPRO_BENCH_SIZES`` (comma-separated
reference counts) when set, so CI points and the 1B-reference run
share one code path; the streaming rows write compressed entries
unless ``REPRO_TRACE_COMPRESS=off``.

``--check-scaling`` exits non-zero when (a) the host has >= 4 cores and
warm-cache ``jobs=4`` measurement is slower than serial (the
parallel-measurement inversion the trace plane removed), (b) any
streaming-scaling row's peak RSS reaches 1 GiB — the bounded-RSS
guarantee of the chunk-streaming trace plane (a >= 100M-reference trace
must generate and simulate well under 1 GB), (c) the trace_compression
section ran and compressed entries are larger than 0.6x raw, decode
differently, or warm-load less than 10x faster than regenerating, or
(d) the alloc_scaling section ran and a frontier answer differed from
the exhaustive one (flat index or CPI), the median query speedup over
the exhaustive scan came in under 100x, or the frontier build took
longer than the median single exhaustive scan, or (e) the write_buffer
section ran and any stream's stall cycles differed from the spec's.

``REPRO_SCALE`` is ignored: the numbers are defined at full trace
length so they are comparable across runs and machines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro.core import measure
from repro.core.measure import measure_workload
from repro.core.space import (
    TABLE5_CACHE_ASSOCS,
    TABLE5_CACHE_CAPACITIES,
    TABLE5_CACHE_LINES,
)
from repro.memsim import _native
from repro.memsim.multiconfig import (
    cache_miss_ratio_grid,
    cache_miss_ratio_grid_reference,
)
from repro.trace import tracestore
from repro.trace.generator import generate_trace

BENCH_REFERENCES = 700_000
WORKLOAD = "mpeg_play"
OS_NAME = "mach"


def best_of(fn, reps: int = 3) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_grid(trace) -> dict:
    """The grid's production paths against the interpreted reference.

    ``native`` is the C loop (when it compiled here); ``python`` is the
    compiler-less fallback, forced by reporting the kernels unavailable.
    """
    stream = np.asarray(trace.ifetch_physical(), dtype=np.int64)
    args = (
        stream,
        list(TABLE5_CACHE_CAPACITIES),
        list(TABLE5_CACHE_LINES),
        list(TABLE5_CACHE_ASSOCS),
    )
    t0 = time.perf_counter()
    reference = cache_miss_ratio_grid_reference(*args)
    reference_s = time.perf_counter() - t0

    results: dict = {
        "method": (
            "one stack-distance family per line size: one C call per "
            "chunk steps every set count's carried per-set stacks over "
            "the byte addresses (shifted in the kernel, a repeat of the "
            "previous line a depth-0 hit, each walk stopped at the first "
            "set count where the line is already most recent, no "
            "per-reference depths written); 'python' is the "
            "compiler-less fallback (interpreted loop over the same "
            "family), forced by reporting the C kernels unavailable. "
            "Best of 3."
        ),
        "stream": "ifetch",
        "references": int(len(stream)),
        "reference_seconds": round(reference_s, 3),
        "paths": {},
    }
    native_available = _native.available
    paths = {"python": lambda: False}
    if native_available():
        paths = {"native": native_available, **paths}
    try:
        for path, available in paths.items():
            _native.available = available
            seconds, grid = best_of(lambda: cache_miss_ratio_grid(*args))
            results["paths"][path] = {
                "seconds": round(seconds, 4),
                "speedup": round(reference_s / seconds, 1),
                "bit_identical": grid == reference,
            }
    finally:
        _native.available = native_available
    return results


def bench_curves() -> dict:
    """The historical serial-then-jobs4 protocol, from a cold plane.

    ``serial_seconds`` pays one cold trace generation (plus, now, the
    publish); ``jobs4_seconds`` then rides the warm plane — the pair of
    numbers the trace plane exists to un-invert.  A throwaway cache
    directory keeps re-runs comparable (the serial leg is always
    cold).
    """
    cache_dir = tempfile.mkdtemp(prefix="repro-trace-bench-")
    saved = os.environ.get("REPRO_TRACE_CACHE")
    os.environ["REPRO_TRACE_CACHE"] = cache_dir
    measure._worker_traces.clear()
    try:

        def run(jobs):
            return measure_workload(
                WORKLOAD,
                OS_NAME,
                references=BENCH_REFERENCES,
                use_cache=False,
                jobs=jobs,
            )

        t0 = time.perf_counter()
        serial = run(1)
        serial_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = run(4)
        parallel_s = time.perf_counter() - t0
        return {
            "workload": WORKLOAD,
            "os": OS_NAME,
            "references": BENCH_REFERENCES,
            "serial_seconds": round(serial_s, 2),
            "jobs4_seconds": round(parallel_s, 2),
            "identical": serial == parallel,
        }
    finally:
        measure.shutdown_measurement_pool()
        measure._worker_traces.clear()
        if saved is None:
            os.environ.pop("REPRO_TRACE_CACHE", None)
        else:
            os.environ["REPRO_TRACE_CACHE"] = saved
        shutil.rmtree(cache_dir, ignore_errors=True)


def bench_trace_plane() -> dict:
    """Cold generation vs warm memmap load, serial vs jobs=4 curves.

    Runs against a throwaway trace-cache directory so the numbers are
    cold/warm by construction, not by whatever the working tree holds.
    Three curve timings are reported: ``serial_no_plane_seconds`` (the
    historical baseline — plane disabled, trace regenerated
    in-process), ``warm_serial_seconds``, and ``warm_jobs4_seconds``.
    ``jobs4_not_slower`` asserts the inversion reversal: warm-cache
    ``jobs=4`` must not be slower than the old serial baseline.  On a
    single-core host warm serial and warm jobs=4 are compute-bound to
    parity; on multicore hosts ``check_scaling`` additionally gates
    warm jobs=4 against warm serial.
    """
    cache_dir = tempfile.mkdtemp(prefix="repro-trace-bench-")
    saved = os.environ.get("REPRO_TRACE_CACHE")
    os.environ["REPRO_TRACE_CACHE"] = cache_dir
    measure._worker_traces.clear()
    try:
        key = tracestore.key_for(WORKLOAD, OS_NAME, BENCH_REFERENCES, 1)
        t0 = time.perf_counter()
        generated = tracestore.get_trace(
            WORKLOAD, OS_NAME, BENCH_REFERENCES, seed=1
        )
        cold_s = time.perf_counter() - t0

        load_s, loaded = best_of(lambda: tracestore.load(key))

        def load_and_touch() -> int:
            trace = tracestore.load(key)
            return int(
                trace.addresses[-1]
                + trace.physical.sum()
                + trace.ifetch_physical().sum()
                + trace.load_physical().sum()
            )

        touch_s, _ = best_of(load_and_touch)
        identical = all(
            np.array_equal(getattr(generated, name), getattr(loaded, name))
            for name in (
                "addresses", "physical", "kinds", "asids", "mapped", "kernel"
            )
        ) and np.array_equal(
            generated.ifetch_physical(), loaded.ifetch_physical()
        ) and np.array_equal(generated.load_physical(), loaded.load_physical())

        def run(jobs):
            return measure_workload(
                WORKLOAD,
                OS_NAME,
                references=BENCH_REFERENCES,
                use_cache=False,
                jobs=jobs,
            )

        # Historical baseline: the plane disabled, trace regenerated
        # in-process — what ``serial`` cost when the jobs=4 inversion
        # (0.67 s vs 0.39 s) was recorded.
        def run_baseline():
            os.environ["REPRO_TRACE_CACHE"] = "off"
            measure._worker_traces.clear()
            try:
                return measure_workload(
                    WORKLOAD,
                    OS_NAME,
                    references=BENCH_REFERENCES,
                    use_cache=False,
                    jobs=1,
                )
            finally:
                os.environ["REPRO_TRACE_CACHE"] = cache_dir

        baseline_s, baseline = best_of(run_baseline, reps=2)
        measure._worker_traces.clear()
        serial_s, serial = best_of(lambda: run(1))
        jobs4_s, parallel = best_of(lambda: run(4))
        return {
            "workload": WORKLOAD,
            "os": OS_NAME,
            "references": BENCH_REFERENCES,
            "cold_generate_seconds": round(cold_s, 4),
            "warm_load_seconds": round(load_s, 4),
            "warm_load_touch_seconds": round(touch_s, 4),
            "load_speedup": round(cold_s / load_s, 1),
            "load_bit_identical": identical,
            "serial_no_plane_seconds": round(baseline_s, 3),
            "warm_serial_seconds": round(serial_s, 3),
            "warm_jobs4_seconds": round(jobs4_s, 3),
            "jobs4_not_slower": jobs4_s <= baseline_s,
            "curves_identical": serial == parallel == baseline,
            "cpu_count": os.cpu_count(),
        }
    finally:
        measure.shutdown_measurement_pool()
        measure._worker_traces.clear()
        if saved is None:
            os.environ.pop("REPRO_TRACE_CACHE", None)
        else:
            os.environ["REPRO_TRACE_CACHE"] = saved
        shutil.rmtree(cache_dir, ignore_errors=True)


STREAMING_SIZES = (2_097_152, 16_777_216, 104_857_600)
PEAK_RSS_LIMIT = 1 << 30  # the streaming plane's bounded-RSS guarantee


def default_sizes() -> tuple[int, ...]:
    """Streaming sizes: ``REPRO_BENCH_SIZES`` (comma-separated) beats
    the built-in CI triple — so the 1B-reference run and the CI points
    share one code path, differing only in this knob / ``--sizes``."""
    env = os.environ.get("REPRO_BENCH_SIZES", "").strip()
    if not env:
        return STREAMING_SIZES
    return tuple(int(n) for n in env.split(",") if n.strip())


# Runs in a fresh interpreter per trace size: generates the trace
# chunk-streaming into a throwaway plane, simulates a representative
# cache grid over the stored chunks, and reports its own wall times,
# on-disk footprint (raw logical bytes vs what the store holds, which
# differ exactly when REPRO_TRACE_COMPRESS is on), a timed re-read of
# the stored stream (cold load vs regenerate), and the getrusage
# peak-RSS high-water mark as JSON on stdout.
_STREAMING_CHILD = """
import json, os, resource, sys, time
import numpy as np
from repro.memsim.multiconfig import cache_miss_ratio_grid_chunked
from repro.trace import tracestore

workload, os_name, references = sys.argv[1], sys.argv[2], int(sys.argv[3])
t0 = time.perf_counter()
stream = tracestore.stream(workload, os_name, references, seed=1)
generate_s = time.perf_counter() - t0
t0 = time.perf_counter()
grid = cache_miss_ratio_grid_chunked(
    (f["ifetch_physical"] for _s, _e, f in stream.chunks(("ifetch_physical",))),
    stream.count("ifetch_physical"),
    [4096, 65536], [4], [1, 2], warmup_fraction=0.4,
)
simulate_s = time.perf_counter() - t0
key = tracestore.key_for(workload, os_name, references, 1)
entry = tracestore.entry_path(key)
header = json.loads((entry / "header.json").read_text())
raw_bytes = sum(
    spec["count"] * np.dtype(spec["dtype"]).itemsize
    for spec in header["arrays"]
)
disk_bytes = tracestore.entry_nbytes(entry)
t0 = time.perf_counter()
reread = tracestore.open_stream(key)
count = reread.count("ifetch_physical")
total = 0
for start in range(0, count, reread.chunk_references):
    stop = min(start + reread.chunk_references, count)
    total += int(reread.read("ifetch_physical", start, stop)[-1])
reload_s = time.perf_counter() - t0
rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "references": stream.references,
    "chunk_references": stream.chunk_references,
    "codec": header.get("codec"),
    "generate_seconds": round(generate_s, 2),
    "simulate_seconds": round(simulate_s, 2),
    "reload_seconds": round(reload_s, 2),
    "reload_speedup": round(generate_s / reload_s, 1) if reload_s else None,
    "raw_bytes": raw_bytes,
    "disk_bytes": disk_bytes,
    "compression_ratio": round(disk_bytes / raw_bytes, 4),
    "peak_rss_bytes": rss_kib * 1024,
    "design_points": len(grid),
}))
"""


def bench_streaming(sizes: tuple[int, ...]) -> dict:
    """References vs seconds vs peak RSS for the streaming trace plane.

    Each size runs in a fresh subprocess against its own throwaway
    cache directory, so ``ru_maxrss`` (a per-process high-water mark)
    reflects exactly that size's generation + simulation and no state
    leaks between rows.
    """
    rows = []
    for references in sizes:
        cache_dir = tempfile.mkdtemp(prefix="repro-stream-bench-")
        env = dict(os.environ)
        env["REPRO_TRACE_CACHE"] = cache_dir
        # The scaling rows exercise the compressed plane by default
        # (that is what runs at 1B-reference scale); REPRO_TRACE_COMPRESS=off
        # in the caller's environment reverts to raw format-2 rows.
        env.setdefault("REPRO_TRACE_COMPRESS", "zlib")
        env.pop("REPRO_SCALE", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        try:
            result = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    _STREAMING_CHILD,
                    WORKLOAD,
                    OS_NAME,
                    str(references),
                ],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        rows.append(json.loads(result.stdout.strip().splitlines()[-1]))
    return {
        "workload": WORKLOAD,
        "os": OS_NAME,
        "peak_rss_limit_bytes": PEAK_RSS_LIMIT,
        "rows": rows,
    }


def check_streaming_rss(streaming: dict) -> int:
    """CI tripwire: every streaming row must stay under 1 GiB RSS."""
    failed = 0
    for row in streaming["rows"]:
        rss_mib = row["peak_rss_bytes"] / (1 << 20)
        if row["peak_rss_bytes"] >= PEAK_RSS_LIMIT:
            print(
                f"peak-RSS check FAILED: {row['references']:,} refs "
                f"peaked at {rss_mib:.0f} MiB (limit 1024 MiB)"
            )
            failed = 1
        else:
            print(
                f"peak-RSS check OK: {row['references']:,} refs "
                f"peaked at {rss_mib:.0f} MiB"
            )
    return failed


COMPRESSION_RATIO_LIMIT = 0.6
"""CI ceiling on compressed-vs-raw on-disk bytes for the default codec."""
WARM_SPEEDUP_FLOOR = 10.0
"""CI floor on the warm serving read vs cold regeneration."""


def bench_trace_compression() -> dict:
    """Format-3 compressed entries vs the raw layout, same trace.

    Publishes the benchmark trace twice — once raw (format 2), once
    through ``REPRO_TRACE_COMPRESS=zlib`` (format 3) — into separate
    throwaway planes, then checks the three contracts the compressed
    plane ships under: decoded arrays bit-identical to the raw
    layout's, on-disk bytes at most ``COMPRESSION_RATIO_LIMIT`` of
    raw, and the warm serving read at least ``WARM_SPEEDUP_FLOOR``
    times faster than regenerating.

    Two warm timings are reported.  ``warm_load_seconds`` materializes
    every field (inflate-bound end to end — zlib holds it to roughly
    4-7x of regeneration, and at 1B references a full materialization
    would need ~36 GB so it is not the at-scale path at all).
    ``warm_stream_seconds`` is how the plane is actually consumed at
    scale and is what the speedup gate runs on: a chunked
    :class:`~repro.trace.tracestore.TraceStream` pass over the
    simulated stream, decoding only the field the grid sweep reads —
    the compressed analogue of format 2's lazy memmap paging, which
    likewise never faults in untouched fields.
    """
    saved = {
        name: os.environ.get(name)
        for name in ("REPRO_TRACE_CACHE", "REPRO_TRACE_COMPRESS")
    }
    raw_dir = tempfile.mkdtemp(prefix="repro-comp-raw-")
    comp_dir = tempfile.mkdtemp(prefix="repro-comp-zlib-")
    key = tracestore.key_for(WORKLOAD, OS_NAME, BENCH_REFERENCES, 1)
    try:
        os.environ["REPRO_TRACE_CACHE"] = raw_dir
        os.environ.pop("REPRO_TRACE_COMPRESS", None)
        t0 = time.perf_counter()
        raw_trace = tracestore.get_trace(
            WORKLOAD, OS_NAME, BENCH_REFERENCES, seed=1
        )
        cold_s = time.perf_counter() - t0
        raw_bytes = tracestore.entry_nbytes(tracestore.entry_path(key))

        os.environ["REPRO_TRACE_CACHE"] = comp_dir
        os.environ["REPRO_TRACE_COMPRESS"] = "zlib"
        t0 = time.perf_counter()
        tracestore.get_trace(WORKLOAD, OS_NAME, BENCH_REFERENCES, seed=1)
        cold_compressed_s = time.perf_counter() - t0
        comp_bytes = tracestore.entry_nbytes(tracestore.entry_path(key))
        warm_s, loaded = best_of(lambda: tracestore.load(key))

        def stream_pass() -> int:
            reader = tracestore.open_stream(key)
            count = reader.count("ifetch_physical")
            step = reader.chunk_references
            total = 0
            for start in range(0, count, step):
                stop = min(start + step, count)
                total += int(reader.read("ifetch_physical", start, stop)[-1])
            return total

        stream_s, _ = best_of(stream_pass)
        identical = all(
            np.array_equal(getattr(raw_trace, name), getattr(loaded, name))
            for name in (
                "addresses", "physical", "kinds", "asids", "mapped", "kernel"
            )
        ) and np.array_equal(
            raw_trace.ifetch_physical(), loaded.ifetch_physical()
        ) and np.array_equal(
            raw_trace.load_physical(), loaded.load_physical()
        )
        return {
            "workload": WORKLOAD,
            "os": OS_NAME,
            "references": BENCH_REFERENCES,
            "codec": "zlib",
            "raw_bytes": raw_bytes,
            "compressed_bytes": comp_bytes,
            "compression_ratio": round(comp_bytes / raw_bytes, 4),
            "ratio_limit": COMPRESSION_RATIO_LIMIT,
            "cold_generate_seconds": round(cold_s, 3),
            "cold_generate_compressed_seconds": round(cold_compressed_s, 3),
            "warm_load_seconds": round(warm_s, 4),
            "warm_load_speedup": round(cold_s / warm_s, 1),
            "warm_stream_seconds": round(stream_s, 4),
            "warm_speedup": round(cold_s / stream_s, 1),
            "warm_speedup_floor": WARM_SPEEDUP_FLOOR,
            "bit_identical": identical,
        }
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        shutil.rmtree(raw_dir, ignore_errors=True)
        shutil.rmtree(comp_dir, ignore_errors=True)


def check_trace_compression(comp: dict) -> int:
    """CI tripwire: ratio <= 0.6x, decode bit-identical, warm >= 10x."""
    failed = 0
    if not comp["bit_identical"]:
        print("compression check FAILED: decoded arrays differ from raw")
        failed = 1
    if comp["compression_ratio"] > COMPRESSION_RATIO_LIMIT:
        print(
            f"compression check FAILED: ratio {comp['compression_ratio']} "
            f"above the {COMPRESSION_RATIO_LIMIT} ceiling"
        )
        failed = 1
    if comp["warm_speedup"] < WARM_SPEEDUP_FLOOR:
        print(
            f"compression check FAILED: warm serving read only "
            f"{comp['warm_speedup']}x faster than regeneration "
            f"(floor {WARM_SPEEDUP_FLOOR:.0f}x)"
        )
        failed = 1
    if not failed:
        print(
            f"compression check OK: ratio {comp['compression_ratio']} "
            f"(<= {COMPRESSION_RATIO_LIMIT}), bit-identical, warm "
            f"serving read {comp['warm_speedup']}x faster than "
            f"regeneration"
        )
    return failed


ALLOC_BUDGET_COUNT = 8
ALLOC_JOINT_BUDGETS = ((0.2, 0.6), (0.4, 0.3), (0.6, 0.2), (0.8, 0.4))
"""Joint (area, power) budgets, as fractions of each total's range."""
ALLOC_SPEEDUP_FLOOR = 100.0
"""CI floor on the median exhaustive-scan over frontier-query speedup."""


def bench_alloc_scaling() -> dict:
    """Frontier vs exhaustive on the two-level space, per budget.

    The space is built from one measured (workload, OS) curve set on
    the full Table 5 grid — ~10^7 points, the scale the paper's
    exhaustive method was quoted as "a few minutes of workstation
    time" *per level* and which an L2 axis multiplies out of reach.
    The space build includes its exact Pareto frontier; each budget
    then times one frontier query against one exhaustive scan and
    checks both pick the same flat index and CPI.  Each frontier point
    is also asked for at its own (area, power) budgets, which must
    return it: the frontier keeps only points some query returns.
    """
    from repro.core.hierarchy import build_two_level_space

    curves = measure_workload(
        WORKLOAD, OS_NAME, references=BENCH_REFERENCES
    )
    build_s, space = best_of(lambda: build_two_level_space(curves))
    sizes = [s.size for s in space.structures]

    def span(values) -> tuple[float, float]:
        lo = float(sum(v.min() for v in values))
        return lo, float(sum(v.max() for v in values)) - lo

    area_lo, area_span = span([s.areas for s in space.structures])
    power_lo, power_span = span([s.powers for s in space.structures])
    budgets = [
        (area_lo + area_span * (i + 1) / (ALLOC_BUDGET_COUNT + 1), None)
        for i in range(ALLOC_BUDGET_COUNT)
    ] + [
        (area_lo + area_span * a, power_lo + power_span * p)
        for a, p in ALLOC_JOINT_BUDGETS
    ]

    rows = []
    for budget, power in budgets:
        query_s, got = best_of(lambda: space.best(budget, power))
        t0 = time.perf_counter()
        exact = space.best_exhaustive(budget, power)
        exact_s = time.perf_counter() - t0
        flat = int(np.ravel_multi_index(got.choice, sizes))
        exact_flat = int(np.ravel_multi_index(exact.choice, sizes))
        rows.append(
            {
                "budget_rbe": round(budget, 1),
                "power_budget_mw": None if power is None else round(power, 2),
                "query_seconds": round(query_s, 7),
                "exhaustive_seconds": round(exact_s, 3),
                "speedup": round(exact_s / query_s, 1),
                "flat": flat,
                "exhaustive_flat": exact_flat,
                "cpi": got.cpi,
                "exhaustive_cpi": exact.cpi,
                "identical": flat == exact_flat and got.cpi == exact.cpi,
            }
        )
    frontier = space.frontier
    own_answers = [
        np.ravel_multi_index(space.best(area, power).choice, sizes)
        for area, power in zip(*frontier.points[:2])
    ]
    self_answering = int(np.sum(np.array(own_answers) == frontier.flat))
    speedups = sorted(row["speedup"] for row in rows)
    scans = sorted(row["exhaustive_seconds"] for row in rows)
    return {
        "workload": WORKLOAD,
        "os": OS_NAME,
        "references": BENCH_REFERENCES,
        "space_points": space.size,
        "frontier_points": len(frontier),
        "self_answering_points": self_answering,
        "build_seconds": round(build_s, 3),
        "median_exhaustive_seconds": scans[len(scans) // 2],
        "median_speedup": speedups[len(speedups) // 2],
        "rows": rows,
    }


WRITE_BUFFER_STORES = 2_000_000
WRITE_BUFFER_PAIRS = (("video_play", "ultrix"), ("IOzone", "mach"))


def _timing_store_stream(workload: str, os_name: str) -> tuple:
    """The store arrivals (and warm-up count) that one timing pass over
    a ``BENCH_REFERENCES`` trace of the pair feeds its write buffer."""
    from repro.memsim import timing

    fed = []

    class Recording(timing.StreamingWriteBuffer):
        def feed(self, store_times, count_from=0):
            fed.append((np.array(store_times, dtype=np.int64), count_from))
            super().feed(store_times, count_from)

    trace = generate_trace(workload, os_name, BENCH_REFERENCES, seed=1)
    original = timing.StreamingWriteBuffer
    timing.StreamingWriteBuffer = Recording
    try:
        timing.simulate_system(
            trace, timing.DECSTATION_3100, warmup_fraction=measure.DEFAULT_WARMUP
        )
    finally:
        timing.StreamingWriteBuffer = original
    ((times, count_from),) = fed
    return times, count_from


def _write_buffer_row(times, depth, retire, count_from) -> dict:
    from repro.memsim.write_buffer import (
        simulate_write_buffer,
        simulate_write_buffer_reference,
    )

    args = (times, depth, retire, count_from)
    t0 = time.perf_counter()
    reference = simulate_write_buffer_reference(*args)
    reference_s = time.perf_counter() - t0
    streaming_s, result = best_of(lambda: simulate_write_buffer(*args))
    return {
        "stores": int(times.size),
        "reference_seconds": round(reference_s, 3),
        "streaming_seconds": round(streaming_s, 4),
        "speedup": round(reference_s / streaming_s, 1),
        "bit_identical": result == reference,
        "stall_cycles": int(result.stall_cycles),
    }


def bench_write_buffer() -> dict:
    """The production write-buffer path vs the scalar spec, bit-identity
    checked.

    ``streams`` are synthetic: non-decreasing store times with bursty
    gaps, stall-heavy ("bursty", a quarter of the stores back-to-back)
    and mostly drained ("sparse").  ``trace_streams`` are the store
    arrivals the timing pipeline actually produces: one
    ``simulate_system`` pass per pair at ``BENCH_REFERENCES``, under
    the DECstation 3100 buffer and the measurement warm-up.
    """
    from repro.memsim.timing import DECSTATION_3100 as config

    rng = np.random.default_rng(1)
    synthetic = {
        "bursty": np.where(
            rng.random(WRITE_BUFFER_STORES) < 0.25,
            rng.integers(0, 3, WRITE_BUFFER_STORES),
            rng.integers(6, 40, WRITE_BUFFER_STORES),
        ),
        "sparse": np.where(
            rng.random(WRITE_BUFFER_STORES) < 0.05,
            rng.integers(0, 3, WRITE_BUFFER_STORES),
            rng.integers(8, 60, WRITE_BUFFER_STORES),
        ),
    }
    streams = {
        name: _write_buffer_row(np.cumsum(gaps, dtype=np.int64), 4, 6, 0)
        for name, gaps in synthetic.items()
    }
    trace_streams = {}
    for workload, os_name in WRITE_BUFFER_PAIRS:
        times, count_from = _timing_store_stream(workload, os_name)
        row = _write_buffer_row(
            times, config.wb_depth, config.wb_retire_cycles, count_from
        )
        trace_streams[f"{workload}/{os_name}"] = {
            "references": BENCH_REFERENCES,
            "count_from": count_from,
            **row,
        }
    return {
        "native_kernel": _native.available(),
        "streams": streams,
        "trace_streams": trace_streams,
    }


def check_write_buffer(wb: dict) -> int:
    """CI tripwire: every stream bit-identical to the scalar spec."""
    rows = {**wb["streams"], **wb["trace_streams"]}
    bad = [name for name, row in rows.items() if not row["bit_identical"]]
    if bad:
        print(f"write-buffer check FAILED: differs from the spec on {bad}")
        return 1
    print(f"write-buffer check OK: identical on all {len(rows)} streams")
    return 0


def check_alloc_scaling(alloc: dict) -> int:
    """CI tripwire: frontier answers bit-identical to exhaustive, every
    frontier point the answer at its own budgets, queries >= 100x
    faster than a scan, and the build faster than one scan."""
    failed = 0
    bad = [r["budget_rbe"] for r in alloc["rows"] if not r["identical"]]
    if bad:
        print(f"alloc check FAILED: frontier differs from exhaustive at {bad}")
        failed = 1
    dead = alloc["frontier_points"] - alloc["self_answering_points"]
    if dead:
        print(
            f"alloc check FAILED: {dead} frontier points are not the "
            "answer at their own (area, power) budgets"
        )
        failed = 1
    if alloc["median_speedup"] < ALLOC_SPEEDUP_FLOOR:
        print(
            f"alloc check FAILED: median speedup {alloc['median_speedup']}x "
            f"below the {ALLOC_SPEEDUP_FLOOR:.0f}x floor"
        )
        failed = 1
    if alloc["build_seconds"] >= alloc["median_exhaustive_seconds"]:
        print(
            f"alloc check FAILED: frontier build {alloc['build_seconds']}s "
            f"not faster than the median scan "
            f"{alloc['median_exhaustive_seconds']}s"
        )
        failed = 1
    if not failed:
        print(
            f"alloc check OK: identical at all {len(alloc['rows'])} budgets, "
            f"all {alloc['frontier_points']:,} frontier points answer "
            "their own budgets, "
            f"median speedup {alloc['median_speedup']}x over "
            f"{alloc['space_points']:,} points, build "
            f"{alloc['build_seconds']}s"
        )
    return failed


def check_scaling(plane: dict) -> int:
    """CI tripwire: warm jobs=4 must not lose to serial on big hosts."""
    cores = os.cpu_count() or 1
    if cores < 4:
        print(
            f"scaling check skipped: host has {cores} core(s), needs >= 4"
        )
        return 0
    serial = plane["warm_serial_seconds"]
    jobs4 = plane["warm_jobs4_seconds"]
    if jobs4 > serial * 1.10:  # small tolerance for timer noise
        print(
            f"scaling check FAILED: warm jobs=4 took {jobs4}s vs "
            f"serial {serial}s on a {cores}-core host"
        )
        return 1
    print(
        f"scaling check OK: warm jobs=4 {jobs4}s <= serial {serial}s "
        f"(tolerance 10%)"
    )
    return 0


def merge_sections(previous: dict, payload: dict) -> dict:
    """``payload`` written over an earlier output file's ``previous``.

    ``machine`` and every section that ran are replaced and every other
    key is kept, so refreshing one section leaves the rest of the file
    alone; a replaced section's earlier run is appended to its
    ``history`` list, keeping the figures a trajectory.
    """
    merged = dict(previous)
    for key, value in payload.items():
        old = previous.get(key)
        if key != "machine" and isinstance(old, dict):
            old = dict(old)
            value = {**value, "history": [*old.pop("history", []), old]}
        merged[key] = value
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default="BENCH_perf.json", help="output JSON path"
    )
    parser.add_argument(
        "--section",
        choices=(
            "all", "grid", "curves", "trace_plane", "streaming",
            "trace_compression", "alloc_scaling", "write_buffer",
        ),
        default="all",
        help="benchmark only one section (default: all)",
    )
    parser.add_argument(
        "--check-scaling",
        action="store_true",
        help="exit non-zero if warm jobs=4 measurement is slower than "
        "serial on a >= 4-core host, if any streaming-scaling row "
        "peaks at >= 1 GiB RSS, or if the trace_compression section "
        "breaks its ratio / bit-identity / warm-speedup contracts, if "
        "the alloc_scaling section breaks its gates, or if any "
        "write_buffer stream differs from the spec "
        "(gates only the sections that ran)",
    )
    parser.add_argument(
        "--sizes",
        default=",".join(str(n) for n in default_sizes()),
        help="comma-separated reference counts for the streaming "
        "scaling section (default: REPRO_BENCH_SIZES or the CI triple)",
    )
    args = parser.parse_args(argv)
    out_dir = os.path.dirname(os.path.abspath(args.output))
    if not os.path.isdir(out_dir):
        parser.error(f"output directory does not exist: {out_dir}")
    try:
        sizes = tuple(int(n) for n in args.sizes.split(",") if n.strip())
    except ValueError:
        parser.error(f"--sizes must be comma-separated integers: {args.sizes!r}")
    if not sizes or any(n < 1 for n in sizes):
        parser.error(f"--sizes needs positive reference counts: {args.sizes!r}")
    sections = (
        {
            "grid", "curves", "trace_plane", "streaming",
            "trace_compression", "alloc_scaling", "write_buffer",
        }
        if args.section == "all"
        else {args.section}
    )

    payload = {
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "native_kernel": _native.available(),
        },
    }

    if "grid" in sections:
        print(
            f"generating {BENCH_REFERENCES:,}-reference "
            f"{WORKLOAD}/{OS_NAME} trace ..."
        )
        trace = generate_trace(WORKLOAD, OS_NAME, BENCH_REFERENCES, seed=1)
        print("benchmarking Table 5 grid sweep ...")
        grid = bench_grid(trace)
        for path, row in grid["paths"].items():
            print(
                f"  {path:>7}: {row['seconds']:.3f}s "
                f"({row['speedup']}x, identical={row['bit_identical']})"
            )
        payload["grid_sweep"] = grid

    if "curves" in sections:
        print("benchmarking full StructureCurves measurement ...")
        curves = bench_curves()
        print(
            f"  serial: {curves['serial_seconds']}s   "
            f"jobs=4: {curves['jobs4_seconds']}s   "
            f"identical={curves['identical']}"
        )
        payload["structure_curves"] = curves

    plane = None
    if "trace_plane" in sections:
        print("benchmarking zero-copy trace plane ...")
        plane = bench_trace_plane()
        print(
            f"  cold generate: {plane['cold_generate_seconds']}s   "
            f"warm memmap load: {plane['warm_load_seconds']}s "
            f"({plane['load_speedup']}x, "
            f"identical={plane['load_bit_identical']})"
        )
        print(
            f"  curves no-plane serial: {plane['serial_no_plane_seconds']}s   "
            f"warm serial: {plane['warm_serial_seconds']}s   "
            f"warm jobs=4: {plane['warm_jobs4_seconds']}s   "
            f"identical={plane['curves_identical']}"
        )
        payload["trace_plane"] = plane

    streaming = None
    if "streaming" in sections:
        print("benchmarking chunk-streaming scaling ...")
        streaming = bench_streaming(sizes)
        for row in streaming["rows"]:
            print(
                f"  {row['references']:>13,} refs: "
                f"generate {row['generate_seconds']}s   "
                f"simulate {row['simulate_seconds']}s   "
                f"reload {row['reload_seconds']}s   "
                f"disk {row['disk_bytes'] / (1 << 20):.0f}/"
                f"{row['raw_bytes'] / (1 << 20):.0f} MiB "
                f"(ratio {row['compression_ratio']})   "
                f"peak RSS {row['peak_rss_bytes'] / (1 << 20):.0f} MiB"
            )
        payload["streaming_scaling"] = streaming

    compression = None
    if "trace_compression" in sections:
        print("benchmarking compressed trace entries ...")
        compression = bench_trace_compression()
        print(
            f"  raw {compression['raw_bytes'] / (1 << 20):.1f} MiB -> "
            f"zlib {compression['compressed_bytes'] / (1 << 20):.1f} MiB "
            f"(ratio {compression['compression_ratio']})   "
            f"cold {compression['cold_generate_seconds']}s   "
            f"warm load {compression['warm_load_seconds']}s "
            f"({compression['warm_load_speedup']}x)   "
            f"warm stream {compression['warm_stream_seconds']}s "
            f"({compression['warm_speedup']}x, "
            f"identical={compression['bit_identical']})"
        )
        payload["trace_compression"] = compression

    alloc = None
    if "alloc_scaling" in sections:
        print("benchmarking frontier vs exhaustive allocation ...")
        alloc = bench_alloc_scaling()
        print(
            f"  two-level space: {alloc['space_points']:,} points   "
            f"frontier {alloc['frontier_points']:,} points built in "
            f"{alloc['build_seconds']}s   "
            f"median speedup {alloc['median_speedup']}x"
        )
        for row in alloc["rows"]:
            print(
                f"  budget {row['budget_rbe']:>12,.0f} "
                f"power {row['power_budget_mw'] or '-':>6}: "
                f"query {row['query_seconds']*1e6:.0f}us   "
                f"exhaustive {row['exhaustive_seconds']}s   "
                f"({row['speedup']}x, identical={row['identical']})"
            )
        payload["alloc_scaling"] = alloc

    wb = None
    if "write_buffer" in sections:
        print("benchmarking write-buffer timing pass ...")
        wb = bench_write_buffer()
        path = "native" if wb["native_kernel"] else "fallback"
        for name, row in {**wb["streams"], **wb["trace_streams"]}.items():
            print(
                f"  {name:>17}: {row['stores']:,} stores   "
                f"spec {row['reference_seconds']}s   "
                f"{path} {row['streaming_seconds']}s   "
                f"({row['speedup']}x, identical={row['bit_identical']})"
            )
        payload["write_buffer"] = wb

    if os.path.exists(args.output):
        with open(args.output) as handle:
            payload = merge_sections(json.load(handle), payload)
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    status = 0
    if args.check_scaling:
        if plane is not None:
            status |= check_scaling(plane)
        if streaming is not None:
            status |= check_streaming_rss(streaming)
        if compression is not None:
            status |= check_trace_compression(compression)
        if alloc is not None:
            status |= check_alloc_scaling(alloc)
        if wb is not None:
            status |= check_write_buffer(wb)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
