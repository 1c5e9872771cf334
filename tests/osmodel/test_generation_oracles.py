"""Differential tests: batched generation against its one-run oracles.

The production builder records runs and assembles them with one
scatter, the allocator keeps a taken-map and the physical mapper finds
first occurrences with a table.  Each must match the straightforward
form in :mod:`tests.osmodel.oracles` byte for byte, under the same
generator draws.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.memsim.types import AccessKind
from repro.osmodel.addrspace import AddressSpace, Segment, SegmentAllocator
from repro.osmodel.context import DataPart, GenerationContext
from repro.trace.events import (
    ChunkedTraceBuilder,
    PageFrameTable,
    assign_physical_frames,
    first_occurrences,
)
from repro.units import PAGE_BYTES
from tests.osmodel.oracles import (
    COLUMNS,
    InsertBuilder,
    ListSegmentAllocator,
    insert_emit,
    unique_assign_physical_frames,
)

# Word addresses spread over a handful of pages, so runs share pages
# and the physical mapper sees first occurrences in every order.
addresses = st.lists(
    st.integers(0, 6 * PAGE_BYTES // 4 - 1), min_size=0, max_size=24
).map(lambda words: np.array(words, dtype=np.int64) * 4)

parts = st.builds(
    DataPart,
    addresses=addresses,
    kind=st.sampled_from([AccessKind.LOAD, AccessKind.STORE]),
    mapped=st.booleans(),
    kernel=st.booleans(),
    asid=st.integers(0, 3),
    run_words=st.integers(1, 5),
)

# (space asid, code mapped, code kernel, code addresses, data parts).
# Short code runs put many positions at 0 and at n_code, and several
# parts per run tie within a run; an empty code run ties its data with
# the neighbouring runs' boundaries.
emits = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.booleans(),
        st.booleans(),
        addresses,
        st.lists(parts, min_size=0, max_size=4),
    ),
    min_size=1,
    max_size=8,
)


def _replay(emit_specs, seed, builder=None):
    """Emit every run through a GenerationContext (production path)."""
    ctx = GenerationContext(seed=seed, target_references=1 << 30, builder=builder)
    for asid, mapped, kernel, code, data_parts in emit_specs:
        space = AddressSpace(name="s", asid=asid)
        segment = Segment("text", 0, PAGE_BYTES, mapped=mapped, kernel=kernel)
        ctx.emit(space, segment, code, data_parts)
    return ctx


def _oracle(emit_specs, seed):
    rng = np.random.default_rng(seed)
    builder = InsertBuilder()
    for asid, mapped, kernel, code, data_parts in emit_specs:
        space = AddressSpace(name="s", asid=asid)
        segment = Segment("text", 0, PAGE_BYTES, mapped=mapped, kernel=kernel)
        insert_emit(rng, builder, space, segment, code, data_parts)
    return builder.columns()


@settings(max_examples=200, deadline=None)
@given(emit_specs=emits, seed=st.integers(0, 2**32 - 1))
def test_batch_builder_matches_insert_oracle(emit_specs, seed):
    expected = _oracle(emit_specs, seed)
    ctx = _replay(emit_specs, seed)
    assert ctx.builder.count == len(expected["addresses"])
    trace = ctx.builder.build(physical_seed=seed)
    for name in COLUMNS:
        got = getattr(trace, name)
        assert got.dtype == expected[name].dtype, name
        assert np.array_equal(got, expected[name]), name
    assert np.array_equal(
        trace.physical,
        unique_assign_physical_frames(
            expected["addresses"], seed=seed, mapped=expected["mapped"]
        ),
    )


@settings(max_examples=200, deadline=None)
@given(
    emit_specs=emits,
    seed=st.integers(0, 2**32 - 1),
    chunk=st.integers(1, 40),
)
def test_chunked_builder_matches_insert_oracle(emit_specs, seed, chunk):
    expected = _oracle(emit_specs, seed)
    chunks = []
    builder = ChunkedTraceBuilder(lambda *columns: chunks.append(columns), chunk)
    _replay(emit_specs, seed, builder)
    builder.flush()
    assert builder.count == len(expected["addresses"])
    assert all(len(c[0]) == chunk for c in chunks[:-1])
    for i, name in enumerate(COLUMNS):
        got = np.concatenate(
            [expected[name][:0]] + [c[i] for c in chunks]
        )
        assert got.dtype == expected[name].dtype, name
        assert np.array_equal(got, expected[name]), name


class _SmallAllocator(SegmentAllocator):
    ARENA_BYTES = 48 * SegmentAllocator.GRANULE


class _SmallListAllocator(ListSegmentAllocator):
    ARENA_BYTES = 48 * ListSegmentAllocator.GRANULE


def _outcome(allocator, size):
    try:
        return allocator.allocate(size)
    except ConfigurationError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(
        st.tuples(st.integers(1, 7), st.integers(0, SegmentAllocator.GRANULE - 1)),
        min_size=1,
        max_size=60,
    ),
)
def test_allocator_matches_list_oracle(seed, sizes):
    """Mixed single- and multi-granule segments, past arena exhaustion:
    same bases and the same ConfigurationError messages."""
    fast, oracle = _SmallAllocator(seed), _SmallListAllocator(seed)
    for granules, slack in sizes:
        size = max(0, granules * SegmentAllocator.GRANULE - slack)
        assert _outcome(fast, size) == _outcome(oracle, size)


def test_allocator_exhaustion_raises():
    allocator = _SmallAllocator(0)
    for _ in range(48):
        allocator.allocate(1)
    with pytest.raises(ConfigurationError, match="exhausted"):
        allocator.allocate(1)
    with pytest.raises(ConfigurationError, match="contiguous"):
        allocator.allocate(2 * SegmentAllocator.GRANULE)


pages = st.one_of(
    # Dense: the page-span table.
    st.lists(st.integers(100, 140), min_size=0, max_size=200),
    # Sparse: the sort fallback.
    st.lists(
        st.sampled_from([0, 7, 1 << 20, (1 << 35) + 3]), min_size=1, max_size=50
    ),
).map(lambda values: np.array(values, dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(pages=pages)
def test_first_occurrences_match_unique(pages):
    expected = np.unique(pages, return_index=True, return_inverse=True)
    for got, want in zip(first_occurrences(pages), expected):
        assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(
    pages=pages,
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_physical_mapper_matches_unique_oracle(pages, seed, data):
    n = len(pages)
    words = data.draw(st.lists(st.integers(0, 1023), min_size=n, max_size=n))
    addresses = (pages << 12) | (np.array(words, dtype=np.int64) * 4)
    mapped = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)
    expected = unique_assign_physical_frames(addresses, seed=seed, mapped=mapped)
    assert np.array_equal(
        assign_physical_frames(addresses, seed=seed, mapped=mapped), expected
    )
    # Observed in pieces, the incremental table maps identically.
    table = PageFrameTable()
    cut = data.draw(st.integers(0, n))
    table.observe(addresses[:cut], mapped[:cut])
    table.observe(addresses[cut:], mapped[cut:])
    table.finalize(seed)
    assert np.array_equal(table.physical_for(addresses), expected)
