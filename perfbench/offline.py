"""The offline pipeline: characterize and long_trace.

One operation is the cold characterization of one (workload, OS) pair:
``osmodel``/``trace.generator`` -> ``trace.tracestore`` -> ``memsim``
kernels -> ``core.measure``, into empty curve and trace caches.  Its
output, the pair's ``StructureCurves``, must be bit-identical to the
recorded golden digest.

The benchmark seed selects trace seeds from a fixed set whose goldens
are recorded (``goldens.py``), so every seed is checkable; seed 1 is
the default and seed 2 the held-out seed.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import time
from pathlib import Path

import stats
from harness import digest, load_golden, pin_to_quietest_cpu

CONFIGS = {
    # One round: every workload of the suite once, on alternating OSes
    # (6 of the 12 pairs), so a run repeats each pair often enough for
    # its fastest repetition to be steady.  ``round_seconds`` is its
    # measured cost on a 2-core x86 host; ``--seconds`` divided by it
    # sets the rounds a run measures (stats.rounds_for).
    "characterize": {
        "references": 700_000,
        "trace_seeds": 10,
        "round_seconds": 4.0,
        "env": {},
    },
    # One round: one pair above REPRO_STREAM_CHUNK (1,048,576), so
    # measurement streams chunks; zlib format-3 entries as in the
    # 1B-reference runs.
    "long_trace": {
        "references": 2_500_000,
        "trace_seeds": 6,
        "round_seconds": 6.5,
        "pair": ("mpeg_play", "mach"),
        "env": {"REPRO_TRACE_COMPRESS": "zlib"},
    },
}


OS_NAMES = ("mach", "ultrix")


def round_pairs() -> list[tuple[str, str]]:
    """The pairs of one characterize round: each workload on one OS,
    alternating, so both OS models run."""
    from repro.workloads.registry import workload_names

    return [(w, OS_NAMES[i % 2]) for i, w in enumerate(workload_names())]


def trace_seed(seed: int, count: int) -> int:
    """The trace seed benchmark seed ``seed`` selects, in 1..count."""
    return 1 + (seed - 1) % count


def plan(workload: str, seed: int) -> list[tuple[str, str, int]]:
    """(workload, OS, trace seed) triples of one round."""
    config = CONFIGS[workload]
    s = trace_seed(seed, config["trace_seeds"])
    pairs = round_pairs() if workload == "characterize" else [config["pair"]]
    return [(w, os_name, s) for w, os_name in pairs]


def curves_digest(curves) -> str:
    return digest(dataclasses.asdict(curves))


def characterize(pairs, references: int) -> list:
    """Cold curve measurement of every pair, serially, in order."""
    from repro.core import measure

    return [
        measure.measure_workload(w, os_name, references=references, seed=s, jobs=1)
        for w, os_name, s in pairs
    ]


def _empty_caches() -> None:
    """Make the next round cold: no curve, trace or in-process trace memo."""
    from repro.core import measure
    from repro.trace import tracestore

    measure._worker_traces.clear()
    for root in (measure.cache_dir(), tracestore.trace_cache_dir()):
        for entry in Path(root).iterdir():
            if entry.is_dir():
                shutil.rmtree(entry)
            else:
                entry.unlink()


def _store_bytes(root: Path) -> tuple[int, int]:
    """(decoded, on-disk) bytes of every trace entry under ``root``."""
    import numpy as np
    from repro.trace import tracestore

    raw = disk = 0
    for path in root.glob(f"*{tracestore.SUFFIX}"):
        header = json.loads((path / tracestore.HEADER_NAME).read_text())
        for spec in header["arrays"]:
            raw += int(spec["count"]) * np.dtype(spec["dtype"]).itemsize
        disk += tracestore.entry_nbytes(path)
    return raw, disk


class Offline:
    """characterize or long_trace, by name."""

    def __init__(self, name: str, ctx):
        self.name = name
        self.ctx = ctx
        self.config = CONFIGS[name]

    def setup(self) -> None:
        pin_to_quietest_cpu()
        from repro.core import measure  # noqa: F401  (import cost is set-up)
        from repro.memsim import _native

        _native.available()  # compiles into this run's REPRO_NATIVE_DIR

    def run(self, tracer) -> dict:
        pairs = plan(self.name, self.ctx.seed)
        references = self.config["references"]
        rounds, curves = [], []
        for _ in range(stats.rounds_for(self.ctx.seconds, self.config["round_seconds"])):
            _empty_caches()
            times = []
            for pair in pairs:
                pin_to_quietest_cpu()
                start = time.perf_counter()
                curves.extend(characterize([pair], references))
                times.append(time.perf_counter() - start)
            rounds.append(times)
        return {
            "rounds": rounds,
            "work": references * len(pairs),
            "outputs": (pairs * len(rounds), curves),
        }

    def check(self, outputs, tally) -> None:
        golden = load_golden(self.name)
        pairs, curves = outputs
        expected = golden["digests"] if golden["references"] == self.config["references"] else {}
        for (w, os_name, s), result in zip(pairs, curves):
            want = expected.get(str(s), {}).get(f"{w}/{os_name}")
            if want is None:
                tally.fail("no_golden")
            elif curves_digest(result) != want:
                tally.fail("wrong_curves")
            else:
                tally.ok()

    def layers(self, tracer, result) -> dict:
        """Per-round layer figures (totals over the rounds divided by them)."""
        from repro.core import measure
        from repro.trace import tracestore

        n = len(result["rounds"])
        generated = tracestore.METRICS.counter("trace_plane_generations").total
        raw, disk = _store_bytes(Path(tracestore.trace_cache_dir()))
        gen_s = tracer.layer_s("trace.generate")
        sim_s = sum(
            tracer.layer_s(f"memsim.{part}") for part in ("cache_grid", "tlb", "timing")
        )
        references = self.config["references"]
        return {
            "trace.generate_s": gen_s / n,
            "trace.generate_refs_per_s": references * generated / gen_s if gen_s else 0.0,
            "tracestore.write_s": tracer.layer_s("tracestore.write") / n,
            "tracestore.read_s": tracer.layer_s("tracestore.read") / n,
            "tracestore.raw_bytes": raw,
            "tracestore.disk_bytes": disk,
            "tracestore.hits": tracestore.METRICS.counter("trace_plane_hits").total / n,
            "tracestore.generations": generated / n,
            "memsim.cache_grid_s": tracer.layer_s("memsim.cache_grid") / n,
            "memsim.tlb_s": tracer.layer_s("memsim.tlb") / n,
            "memsim.timing_s": tracer.layer_s("memsim.timing") / n,
            "memsim.refs_per_s": result["work"] * n / sim_s if sim_s else 0.0,
            "measure.self_s": tracer.layer_s("measure") / n,
            "measure.units": tracer.calls_of(measure, "_measure_unit") / n,
        }

    def instrument(self, tracer) -> None:
        """Wrap the offline pipeline's layer entry points."""
        from repro.core import measure
        from repro.trace import generator, tracestore

        tracer.wrap(measure, "measure_workload", "measure")
        tracer.count(measure, "_measure_unit")
        tracer.wrap(generator, "generate_trace", "trace.generate")
        tracer.wrap(generator.TraceGenerator, "generate_stream", "trace.generate")
        # Streamed generation: the page-table and physical-mapping passes
        # run in tracestore but are generation work; its writer calls nest.
        tracer.wrap(tracestore, "generate_stream", "trace.generate")
        tracer.wrap(tracestore, "publish", "tracestore.write")
        for method in ("append_virtual", "append_physical", "flush", "finalize"):
            tracer.wrap(tracestore.StreamingTraceWriter, method, "tracestore.write")
        tracer.wrap(tracestore.StreamingTraceWriter, "read_back", "tracestore.read")
        tracer.wrap(tracestore, "load", "tracestore.read")
        tracer.wrap(tracestore, "open_stream", "tracestore.read")
        tracer.wrap(tracestore.TraceStream, "read", "tracestore.read")
        for name, layer in (
            ("cache_miss_ratio_grid", "memsim.cache_grid"),
            ("cache_miss_ratio_grid_chunked", "memsim.cache_grid"),
            ("_tlb_table", "memsim.tlb"),
            ("_tlb_table_stream", "memsim.tlb"),
            ("simulate_system", "memsim.timing"),
            ("simulate_system_stream", "memsim.timing"),
        ):
            tracer.wrap(measure, name, layer)

    def teardown(self) -> None:
        pass
