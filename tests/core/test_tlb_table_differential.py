"""Differential test: ``_tlb_table`` vs a per-reference ``Tlb`` loop.

The measurement path counts TLB misses with dedupe + stack-distance
passes — one pass covering every associativity of a set count, plus
one fully-associative pass covering every size at once.  The ground
truth is the naive simulator: one :class:`~repro.memsim.tlb.Tlb` per
configuration, fed every mapped reference in order, counting misses
(split user/kernel) past the warmup boundary.  Both must agree exactly
on random (vpn, asid, kernel) streams, including the
fully-associative points and the warm/cold boundary.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.areamodel.tlb_area import FULLY_ASSOCIATIVE
from repro.core.measure import _tlb_table
from repro.memsim.tlb import Tlb
from repro.units import PAGE_SHIFT

ENTRIES = (16, 32, 64, 128)
ASSOCS = (1, 2, 4)
FULL_MAX = 64


class _Columns(SimpleNamespace):
    """Trace columns, read as one chunk the way measurement reads a trace."""

    def chunks(self, fields):
        yield 0, len(self.mapped), {name: getattr(self, name) for name in fields}


def _random_trace(rng, n=4000, vpn_span=300, asids=4):
    """A synthetic trace with locality, ASID mixing, and unmapped gaps.

    The kernel flag is a function of the page (vpn >= span // 2), which
    is the invariant real traces satisfy — dedupe keeps one flag per
    run, so a flag that flipped within a page's run would be
    unanswerable by any single-pass method.
    """
    # Mix a hot working set with a cold tail so every size in ENTRIES
    # sees both hits and capacity misses.
    hot = rng.integers(0, vpn_span // 8, size=n)
    cold = rng.integers(0, vpn_span, size=n)
    vpns = np.where(rng.random(n) < 0.7, hot, cold).astype(np.int64)
    # Occasional repeats of the previous page exercise the dedupe.
    repeat = rng.random(n) < 0.2
    for i in range(1, n):
        if repeat[i]:
            vpns[i] = vpns[i - 1]
    asid = rng.integers(0, asids, size=n).astype(np.int64)
    kernel = vpns >= (vpn_span // 2)
    mapped = rng.random(n) < 0.9
    return _Columns(
        addresses=vpns << PAGE_SHIFT,
        asids=asid,
        kernel=kernel,
        mapped=mapped,
    )


def _reference_counts(trace, entries, assoc, warm):
    """Naive ground truth: one Tlb.access call per mapped reference."""
    tlb = Tlb(entries, assoc)
    mapped_idx = np.flatnonzero(trace.mapped)
    count_from = int((mapped_idx < warm).sum())
    vpns = (trace.addresses[mapped_idx] >> PAGE_SHIFT).tolist()
    asids = trace.asids[mapped_idx].tolist()
    kernels = trace.kernel[mapped_idx].tolist()
    user = kernel = 0
    for position, (vpn, asid, is_kernel) in enumerate(
        zip(vpns, asids, kernels)
    ):
        hit = tlb.access(vpn, asid=asid, kernel=is_kernel)
        if not hit and position >= count_from:
            if is_kernel:
                kernel += 1
            else:
                user += 1
    return user, kernel


@pytest.mark.parametrize("seed", [3, 17, 91])
def test_tlb_table_matches_per_reference_simulation(seed):
    rng = np.random.default_rng(seed)
    trace = _random_trace(rng)
    warm = len(trace.mapped) // 3
    table = _tlb_table(trace, ENTRIES, ASSOCS, FULL_MAX, warm)

    expected_keys = {
        (n, a) for n in ENTRIES for a in ASSOCS if a <= n
    } | {(n, FULLY_ASSOCIATIVE) for n in ENTRIES if n <= FULL_MAX}
    assert set(table) == expected_keys

    for (entries, assoc), (got_user, got_kernel) in sorted(
        table.items(), key=str
    ):
        want_user, want_kernel = _reference_counts(trace, entries, assoc, warm)
        assert (got_user, got_kernel) == (want_user, want_kernel), (
            f"mismatch at entries={entries} assoc={assoc}: "
            f"table=({got_user}, {got_kernel}) "
            f"loop=({want_user}, {want_kernel})"
        )


def test_tlb_table_no_warmup_counts_everything():
    rng = np.random.default_rng(5)
    trace = _random_trace(rng, n=1500)
    table = _tlb_table(trace, (32,), (2,), 0, warm=0)
    want = _reference_counts(trace, 32, 2, warm=0)
    assert table[(32, 2)] == want


def test_tlb_table_empty_trace():
    trace = _Columns(
        addresses=np.array([], dtype=np.int64),
        asids=np.array([], dtype=np.int64),
        kernel=np.array([], dtype=bool),
        mapped=np.array([], dtype=bool),
    )
    table = _tlb_table(trace, (16,), (1,), 16, warm=0)
    assert table[(16, 1)] == (0, 0)
    assert table[(16, FULLY_ASSOCIATIVE)] == (0, 0)
