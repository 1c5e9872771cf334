"""Process-level plumbing shared by the workloads: isolation, memory and
CPU readings, and digests of program outputs."""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = Path(__file__).resolve().parent / "goldens"


def program_present() -> bool:
    """True when the checkout holds the program's sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def isolated_env(work: Path, extra: dict[str, str] | None = None) -> dict[str, str]:
    """The environment of every benchmark child process.

    Drops any inherited ``REPRO_*`` knob, then points every cache the
    program keeps (curves, traces, stores, the native kernel build and
    the temp dir) into this run's own ``work`` directory, so no run
    reads the working tree's caches or another run's, and the native
    kernel compiles into a fresh directory during set-up.  Measurement
    is serial (``REPRO_JOBS=1``), and ``PYTHONHASHSEED`` is fixed so that
    set iteration order, and any cost that follows it, repeats.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for name in ("cache", "traces", "native", "tmp"):
        (work / name).mkdir(parents=True, exist_ok=True)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        REPRO_CACHE_DIR=str(work / "cache"),
        REPRO_TRACE_CACHE=str(work / "traces"),
        REPRO_STORE_DIR=str(work / "store"),
        REPRO_NATIVE_DIR=str(work / "native"),
        REPRO_JOBS="1",
        TMPDIR=str(work / "tmp"),
    )
    env.update(extra or {})
    return env


CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
"""The CPUs this process may run on when it starts."""
PROBE_ROUNDS = 5
_PROBE_TABLE = {i: i for i in range(5000)}


def probe() -> float:
    """Seconds of a fixed ~2 ms dictionary-heavy Python loop."""
    table = _PROBE_TABLE
    start = time.perf_counter()
    total = 0
    for k in range(20000):
        total += table.get(k % 7000, 0)
    return time.perf_counter() - start


def pin_to_quietest_cpu() -> float | None:
    """Move this process to the CPU where a short probe runs fastest.

    On the shared reference host each virtual CPU's speed swings by up
    to 1.9x over tens of seconds, independently of the other one, and a
    single-threaded process stays on one CPU, so a run that started on
    the busy one read up to 1.7x slower than a run a minute later.  The
    workloads call this before each timed operation (outside its time),
    so every operation runs on whichever CPU is quiet at that moment.
    Returns the chosen CPU's probe time (the fastest of
    :data:`PROBE_ROUNDS`), or None where affinity cannot be set.
    """
    if len(CPUS) < 2:
        return None
    best, best_s = None, float("inf")
    try:
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            probe_s = min(probe() for _ in range(PROBE_ROUNDS))
            if probe_s < best_s:
                best, best_s = cpu, probe_s
        os.sched_setaffinity(0, {best})
    except OSError:
        return None
    return best_s


def reset_peak_rss(pid: int | str = "self") -> None:
    """Restart the kernel's peak-RSS (VmHWM) count for ``pid``."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass  # the reading below then includes set-up


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of ``pid`` in MB, 0.0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return 0.0


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds ``pid`` has used so far."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def children_of(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (walks ``/proc``)."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":
            parents[int(entry)] = int(fields[1])
    found: list[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        kids = [child for child, ppid in parents.items() if ppid == parent]
        found.extend(kids)
        frontier.extend(kids)
    return found


def processes_mentioning(text: str) -> list[int]:
    """Live processes whose command line contains ``text``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if text in cmdline and alive(int(entry)):
            found.append(int(entry))
    return found


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _plain(value):
    if isinstance(value, dict):
        pairs = [[_plain(k), _plain(v)] for k, v in value.items()]
        return sorted(pairs, key=lambda kv: json.dumps(kv[0]))
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


def digest(value) -> str:
    """SHA-256 of a canonical JSON rendering (floats at full precision)."""
    text = json.dumps(_plain(value), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden(name: str) -> dict:
    with open(GOLDENS / f"{name}.json") as fh:
        return json.load(fh)
