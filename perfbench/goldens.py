"""Record the golden answers the benchmark checks outputs against.

    python3 perfbench/goldens.py characterize long_trace design_sweep

Each named workload's file under ``perfbench/goldens/`` is rewritten
from the program as it is now, in the same isolated configuration the
benchmark runs it in:

* characterize, long_trace: a digest of the ``StructureCurves`` of every
  pair a round measures, for every trace seed a benchmark seed can select;
* design_sweep: for every area-only query in the universe, the
  exhaustive optimum (flat index and CPI), never the greedy answer; for
  every power-budget query, today's CPI, which later answers must
  match or beat.

Regenerate only when a change is meant to alter these outputs, and say
so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from harness import GOLDENS, ROOT, SRC, isolated_env


def characterize_goldens(name: str) -> dict:
    from offline import CONFIGS, characterize, curves_digest, round_pairs

    config = CONFIGS[name]
    pairs = round_pairs() if name == "characterize" else [config["pair"]]
    digests: dict[str, dict[str, str]] = {}
    for s in range(1, config["trace_seeds"] + 1):
        triples = [(w, os_name, s) for w, os_name in pairs]
        curves = characterize(triples, config["references"])
        digests[str(s)] = {
            f"{w}/{os_name}": curves_digest(c) for (w, os_name, _), c in zip(triples, curves)
        }
        print(f"{name}: trace seed {s} done", file=sys.stderr)
    return {"references": config["references"], "digests": digests}


def design_sweep_goldens(work) -> dict:
    from repro.service.engine import QueryEngine
    from repro.store import CurveStore
    from sweep import STORE_SCALE, build_store, request, universe

    store = str(work / "store")
    build_store(store)
    engine = QueryEngine(CurveStore(store))
    answers = {}
    for query in universe():
        space = engine.two_level_space(query["os"])
        if query["power_budget"] is None:
            best = space.best_exhaustive(query["budget"])
            flat = 0
            for curve, index in zip(space.structures, best.choice):
                flat = flat * curve.size + index
            answers[query["id"]] = {"flat": flat, "cpi": best.cpi}
        else:
            row = engine.query(request(query))["allocations"][0]
            answers[query["id"]] = {"cpi": row["cpi"]}
        print(f"design_sweep: {query['id']} done", file=sys.stderr)
    return {"store_scale": STORE_SCALE, "queries": answers}


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or [
        "characterize", "long_trace", "design_sweep",
    ]
    from run import workload_env

    sys.path.insert(0, str(SRC))
    for name in names:
        work_root = ROOT / ".perfbench-work"
        work_root.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f"goldens-{name}-", dir=work_root))
        saved = dict(os.environ)
        env = isolated_env(work, workload_env(name))
        try:
            os.environ.clear()
            os.environ.update(env)
            if name == "design_sweep":
                data = design_sweep_goldens(work)
            else:
                data = characterize_goldens(name)
        finally:
            os.environ.clear()
            os.environ.update(saved)
            shutil.rmtree(work, ignore_errors=True)
        GOLDENS.mkdir(exist_ok=True)
        with open(GOLDENS / f"{name}.json", "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
