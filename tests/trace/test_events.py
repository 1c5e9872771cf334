"""Tests for trace containers and the physical frame mapper."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.memsim.types import AccessKind
from repro.trace.events import (
    ReferenceTrace,
    TraceChunkBuilder,
    assign_physical_frames,
)
from repro.units import PAGE_BYTES


class TestPhysicalFrames:
    def test_offset_bits_preserved(self):
        addrs = np.array([0x1234, 0x5678, 0x1234 + PAGE_BYTES])
        phys = assign_physical_frames(addrs, seed=0)
        assert (phys & (PAGE_BYTES - 1)).tolist() == [0x234, 0x678, 0x234]

    def test_same_page_same_frame(self):
        addrs = np.array([0x1000, 0x1234, 0x1FFC])
        phys = assign_physical_frames(addrs, seed=0)
        assert len(np.unique(phys >> 12)) == 1

    def test_distinct_pages_distinct_frames(self):
        addrs = (np.arange(200) * PAGE_BYTES).astype(np.int64)
        phys = assign_physical_frames(addrs, seed=0)
        assert len(np.unique(phys >> 12)) == 200

    def test_virtual_runs_mostly_contiguous_frames(self):
        # The modelled allocator hands out chunks of contiguous frames
        # (fragmented free list), so most — not all — adjacent virtual
        # pages get adjacent frames.
        addrs = (np.arange(64) * PAGE_BYTES).astype(np.int64)
        frames = assign_physical_frames(addrs, seed=1) >> 12
        contiguous = (np.diff(frames) == 1).mean()
        assert contiguous > 0.5

    def test_unmapped_pages_identity_mapped(self):
        addrs = (np.arange(8) * PAGE_BYTES + (5 << 20)).astype(np.int64)
        mapped = np.zeros(len(addrs), dtype=bool)
        phys = assign_physical_frames(addrs, seed=2, mapped=mapped)
        assert (phys == addrs).all()

    def test_deterministic_per_seed(self):
        addrs = (np.arange(50) * 3 * PAGE_BYTES).astype(np.int64)
        a = assign_physical_frames(addrs, seed=9)
        b = assign_physical_frames(addrs, seed=9)
        c = assign_physical_frames(addrs, seed=10)
        assert (a == b).all()
        assert not (a == c).all()


class TestReferenceTrace:
    def _small_trace(self):
        builder = TraceChunkBuilder()
        builder.append(np.array([0, 4, 8]), int(AccessKind.IFETCH), 1, True, False)
        builder.append(np.array([100]), int(AccessKind.LOAD), 1, True, False)
        builder.append(np.array([200]), int(AccessKind.STORE), 0, False, True)
        return builder.build(page_faults=2, other_cpi=0.1, workload="w", os_name="o")

    def test_counts(self):
        trace = self._small_trace()
        assert len(trace) == 5
        assert trace.instructions == 3
        assert trace.loads == 1
        assert trace.stores == 1

    def test_field_length_mismatch_rejected(self):
        with pytest.raises(TraceError):
            ReferenceTrace(
                addresses=np.zeros(3, dtype=np.int64),
                physical=np.zeros(3, dtype=np.int64),
                kinds=np.zeros(2, dtype=np.uint8),
                asids=np.zeros(3, dtype=np.uint8),
                mapped=np.ones(3, dtype=bool),
                kernel=np.zeros(3, dtype=bool),
            )

    def test_views(self):
        trace = self._small_trace()
        assert trace.ifetch_addresses().tolist() == [0, 4, 8]
        assert trace.load_addresses().tolist() == [100]
        assert len(trace.data_addresses()) == 2
        assert len(trace.ifetch_physical()) == 3

    def test_mapped_view_excludes_unmapped(self):
        trace = self._small_trace()
        vpns, asids, kernel = trace.mapped_view()
        assert len(vpns) == 4    # the store is unmapped

    def test_slice_preserves_metadata(self):
        trace = self._small_trace()
        part = trace.slice(0, 2)
        assert len(part) == 2
        assert part.workload == "w"
        assert part.other_cpi == 0.1

    def test_save_load_roundtrip(self, tmp_path):
        trace = self._small_trace()
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = ReferenceTrace.load(path)
        assert (loaded.addresses == trace.addresses).all()
        assert (loaded.physical == trace.physical).all()
        assert loaded.page_faults == 2
        assert loaded.workload == "w"

    def test_empty_build(self):
        trace = TraceChunkBuilder().build()
        assert len(trace) == 0
        assert trace.instructions == 0


class TestBuilder:
    def test_run_parts_carry_their_own_attributes(self):
        builder = TraceChunkBuilder()
        builder.append(
            np.array([0, 4]),
            int(AccessKind.IFETCH),
            1,
            True,
            False,
            [(np.array([4096]), np.array([1]), int(AccessKind.LOAD), 0, False, True)],
        )
        trace = builder.build()
        assert trace.addresses.tolist() == [0, 4096, 4]
        assert trace.kinds.tolist() == [0, 1, 0]
        assert trace.asids.tolist() == [1, 0, 1]
        assert trace.mapped.tolist() == [True, False, True]
        assert trace.kernel.tolist() == [False, True, False]

    def test_empty_chunks_ignored(self):
        builder = TraceChunkBuilder()
        builder.append(np.array([], dtype=np.int64), 0, 0, True, False)
        assert builder.count == 0
