"""CLI runner for the reproduction experiments.

Usage::

    python -m repro.experiments.runner --list
    python -m repro.experiments.runner table6 fig9
    python -m repro.experiments.runner --warm-traces --jobs 4
    python -m repro.experiments.runner --all --jobs 4

Set ``REPRO_SCALE`` to trade accuracy for runtime (e.g. 0.3 for a
quick pass, 3.0 for a long, tighter run).  ``--jobs N`` measures up
to N (workload, OS) pairs at once in worker processes; it takes
precedence over the ``REPRO_JOBS`` environment variable (default 1,
serial).
When more than one experiment is requested, ``--jobs N`` also runs up
to N whole experiments concurrently (each serial inside, so the
process count stays bounded by N); output is captured per experiment
and printed in request order, byte-identical to a serial run.

Every experiment reads measured curves from the measurement cache
(``REPRO_CACHE_DIR``), one object per (workload, OS) pair;
``python -m repro.service build`` measures through the same cache, so
after a build the allocation experiments measure nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import os
import sys
import time

from repro.experiments import EXPERIMENT_NAMES


def run_experiment(name: str) -> None:
    """Import and execute one experiment's main()."""
    module = importlib.import_module(f"repro.experiments.{name}")
    started = time.time()
    module.main()
    print(f"[{name} finished in {time.time() - started:.1f}s]\n")


def _run_captured(name: str) -> str:
    """Run one experiment with its stdout captured (pool worker body).

    Module-level so it pickles for ``ProcessPoolExecutor``; the worker
    inherits ``REPRO_JOBS=1`` from the parent's env so experiment-level
    parallelism never nests a measurement pool inside a pool worker.
    """
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        run_experiment(name)
    return buffer.getvalue()


def run_experiments(names: list[str], jobs: int) -> None:
    """Run experiments, up to ``jobs`` concurrently, output in order.

    Experiments are independent (separate modules, separate result
    files), so they parallelize as whole processes; each worker runs
    its experiment serially (``REPRO_JOBS=1``) so total process count
    stays at ``jobs``.  Stdout is captured per experiment and replayed
    in request order, so interleaving never scrambles the tables.
    """
    if jobs <= 1 or len(names) <= 1:
        for name in names:
            run_experiment(name)
        return
    from concurrent.futures import ProcessPoolExecutor

    inner = os.environ.get("REPRO_JOBS")
    os.environ["REPRO_JOBS"] = "1"  # workers inherit: no nested pools
    try:
        with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
            for output in pool.map(_run_captured, names):
                sys.stdout.write(output)
                sys.stdout.flush()
    finally:
        if inner is None:
            os.environ.pop("REPRO_JOBS", None)
        else:
            os.environ["REPRO_JOBS"] = inner


def warm_traces_command() -> int:
    """Publish every (workload, OS) trace to the trace plane and exit.

    A warm trace cache is what makes ``--jobs`` pay off: workers
    memory-map the published traces instead of regenerating them, so
    run this once (or after bumping REPRO_SCALE) before large parallel
    sweeps or ``python -m repro.service build``.
    """
    from repro.core.measure import warm_traces
    from repro.errors import ConfigError
    from repro.trace import tracestore

    try:
        started = time.time()
        results = warm_traces()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    published = sum(1 for *_pair, fresh in results if fresh)
    for workload, os_name, fresh in results:
        print(f"  {workload}/{os_name}: {'published' if fresh else 'cached'}")
    print(
        f"warmed {len(results)} traces ({published} generated, "
        f"{len(results) - published} already cached) "
        f"in {time.time() - started:.1f}s -> {tracestore.trace_cache_dir()}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-experiments``."""
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures."
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"experiment names (choose from: {', '.join(EXPERIMENT_NAMES)})",
    )
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--list", action="store_true", help="list experiment names")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for curve measurement "
        "(overrides REPRO_JOBS; default 1)",
    )
    parser.add_argument(
        "--warm-traces",
        action="store_true",
        help="pre-generate and publish every (workload, OS) trace to "
        "the trace cache (REPRO_TRACE_CACHE), then exit; honours "
        "--jobs and REPRO_SCALE",
    )
    args = parser.parse_args(argv)

    if args.jobs is not None:
        if args.jobs < 1:
            parser.error("--jobs must be >= 1")
        # Experiments read the worker count through resolve_jobs(), so
        # the flag simply takes the env var's place for this process.
        os.environ["REPRO_JOBS"] = str(args.jobs)

    if args.warm_traces:
        return warm_traces_command()

    if args.list:
        for name in EXPERIMENT_NAMES:
            print(name)
        return 0
    names = list(EXPERIMENT_NAMES) if args.all else args.experiments
    if not names:
        parser.print_help()
        return 1
    unknown = [n for n in names if n not in EXPERIMENT_NAMES]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2
    run_experiments(names, args.jobs if args.jobs is not None else 1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
