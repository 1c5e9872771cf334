"""``python -m repro.fleet`` as a process: SIGTERM stops every shard.

Shards run in their own sessions (``setsid``), so they survive their
supervisor unless the supervisor's stop path runs; a service manager
stops the CLI with SIGTERM, not Ctrl-C.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

pytestmark = [pytest.mark.fleet]


def _children(pid: int) -> list[int]:
    """Live direct children of ``pid`` (from ``/proc``)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
        except OSError:
            continue
        if int(ppid) == pid and state != "Z":
            found.append(int(entry))
    return found


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_stops_every_shard_group(store):
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.fleet", "--store", str(store.root),
            "--port", "0", "--nodes", "2", "--replicas", "1", "--quiet",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    groups: list[int] = []
    try:
        banner = proc.stdout.readline()
        assert "repro.fleet router on" in banner
        groups = [pid for pid in _children(proc.pid) if os.getpgid(pid) == pid]
        assert len(groups) == 2  # one session leader per shard
        assert all(_group_alive(pgid) for pgid in groups)

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        deadline = time.monotonic() + 5.0
        while any(_group_alive(g) for g in groups):
            assert time.monotonic() < deadline, "a shard group survived"
            time.sleep(0.05)
    finally:
        for pgid in groups:
            if _group_alive(pgid):
                os.killpg(pgid, signal.SIGKILL)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
