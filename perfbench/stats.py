"""Summary statistics and pass/fail rules shared by every workload.

Pure functions only, so ``perfbench/tests`` can pin each rule without
starting the program.
"""

from __future__ import annotations

import math
import statistics

MIN_TAIL_SAMPLES = 10
"""A percentile is reported only with at least this many samples
beyond it: p50 needs >= 20 samples, p90 >= 100, p99 >= 1000."""


def samples_needed(q: float) -> int:
    """Fewest samples for which ``percentile(values, q)`` is reported."""
    return math.ceil(MIN_TAIL_SAMPLES / (1.0 - q) - 1e-9)


def percentile(values, q: float) -> float | None:
    """Nearest-rank ``q``-quantile, or None when the tail is too thin.

    Returns None unless at least :data:`MIN_TAIL_SAMPLES` values lie
    beyond the reported rank, so a p99 over 200 samples (which is just
    the second-largest value) is refused rather than printed.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    ordered = sorted(values)
    n = len(ordered)
    if n < samples_needed(q):
        return None
    rank = max(1, math.ceil(q * n))
    return float(ordered[rank - 1])


def median(values) -> float:
    """Plain median (the summary of repeated set-up samples and rounds)."""
    return float(statistics.median(values))


MIN_ROUNDS = 3


def best_round(rounds: list[list[float]]) -> float:
    """Seconds of one round with every operation at its fastest repetition.

    ``rounds[r][i]`` is the time of operation ``i`` in round ``r``; the
    rounds repeat the same operations.  The shared host's noise only
    ever slows work down, in busy phases lasting from one second to
    minutes, so the fastest of an operation's repetitions, taken
    seconds apart, is its cost in a quiet moment.  Over five seeds, its
    spread was a half (characterize) to a quarter (design_sweep) of
    the per-operation median's.
    """
    return float(sum(min(times) for times in zip(*rounds)))


def rounds_for(seconds: float, round_seconds: float) -> int:
    """Repetitions of one round of work that fill ``seconds``.

    At least :data:`MIN_ROUNDS`, so every operation has repetitions in
    more than one phase of the shared host.
    """
    return max(MIN_ROUNDS, int(seconds // round_seconds))


def bucket_percentile(buckets: dict[str, int], q: float) -> float | None:
    """Percentile of a ``/v1/metrics`` histogram's bucket counts.

    ``buckets`` maps ``le_<bound>`` (and ``le_inf``) to counts, usually
    the difference of two scrapes.  The rank is interpolated linearly
    inside its bucket, so two nearby percentiles do not collapse onto
    one bucket bound.  The same tail rule as :func:`percentile` applies.
    """
    bounds = []
    for name, count in buckets.items():
        bound = math.inf if name == "le_inf" else float(name[3:])
        bounds.append((bound, int(count)))
    bounds.sort()
    total = sum(count for _, count in bounds)
    if total < samples_needed(q):
        return None
    rank = q * total
    seen = 0
    lower = 0.0
    for bound, count in bounds:
        if count and seen + count >= rank:
            if math.isinf(bound):
                return lower
            return lower + (bound - lower) * (rank - seen) / count
        seen += count
        lower = bound
    return lower


class Tally:
    """Operations attempted and failed, by failure kind.

    ``ok_ratio`` is correct outcomes over attempts: a refused (429),
    errored (5xx), timed-out or wrong answer all count as failures.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: dict[str, int] = {}

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, kind: str) -> None:
        self.attempted += 1
        self.failures[kind] = self.failures.get(kind, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def ok_ratio(self) -> float:
        if self.attempted == 0:
            return 0.0
        return (self.attempted - self.failed) / self.attempted


def classify_response(status: int | None, body: bytes | None, expected: bytes) -> str | None:
    """Failure kind of one HTTP answer, or None when it is correct.

    ``status`` None means no answer arrived before the deadline.
    """
    if status is None:
        return "timeout"
    if status == 429:
        return "shed_429"
    if status >= 500:
        return "server_error"
    if status != 200:
        return "client_error"
    if body != expected:
        return "wrong_body"
    return None


def backlog_growing(latencies_ms: list[float], floor_ms: float = 5.0) -> bool:
    """Whether an open-loop step's queue grew while it ran.

    ``latencies_ms`` are in schedule order, each timed from its
    scheduled send.  A stable queue gives the same median latency in
    the first and the second half of the step; a growing one makes the
    second half wait longer by more than ``floor_ms`` and by more than
    the first half's own median.  Halves, not shorter windows, so one
    stall of the host shorter than half the step does not read as a
    growing queue.
    """
    n = len(latencies_ms)
    if n < 4:
        return False
    half = n // 2
    first = statistics.median(latencies_ms[:half])
    last = statistics.median(latencies_ms[-half:])
    return last - first > max(floor_ms, first)


def step_passes(step: dict, p99_limit_ms: float) -> bool:
    """One ladder step meets the service level: every request answered
    correctly, a reportable p99 under the limit, and no growing queue."""
    p99 = step.get("p99_ms")
    return (
        step["failed"] == 0
        and p99 is not None
        and p99 < p99_limit_ms
        and not step["backlog"]
    )


def slo_rate(steps: list[dict], p99_limit_ms: float) -> float | None:
    """The highest offered rate of a rising ladder that meets the limit.

    Steps are in rising-rate order; the ladder is read up to its first
    failing step, so a pass above a failure (noise) does not count.
    Returns None when even the lowest step fails.
    """
    best = None
    for step in steps:
        if not step_passes(step, p99_limit_ms):
            break
        best = step["rate"]
    return best
