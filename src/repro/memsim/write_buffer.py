"""Write-buffer timing model.

The DECstation 3100 places a 4-entry write buffer between its
write-through D-cache and memory.  Stores enter the buffer and retire
at memory speed; the processor stalls only when a store finds the
buffer full.  The paper measures this component directly with Monster
(the "Write Buffer" CPI column of Tables 3 and 4); here it is
reproduced with an event-driven model over store arrival times.

* :class:`WriteBuffer` — the scalar event loop, one ``store(now)``
  call per store.  This is the executable specification; the
  differential tests run every stream through it.
* :class:`StreamingWriteBuffer` — the production path.  It feeds
  chunks of arrival times to the same loop written in C
  (``repro_write_buffer`` in ``_native.c``), which is bit-identical to
  the specification for any arrival order, and steps
  :meth:`WriteBuffer.store` itself when the C kernels are unavailable
  (no compiler, or ``REPRO_NATIVE=0``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.memsim import _native


@dataclass
class WriteBufferResult:
    """Outcome of a write-buffer simulation.

    Attributes:
        stores: number of stores presented.
        stall_cycles: processor cycles lost waiting for a free slot.
    """

    stores: int = 0
    stall_cycles: int = 0


class WriteBuffer:
    """A depth-limited store buffer retiring one entry per fixed interval.

    Args:
        depth: number of buffered stores (4 on the DECstation 3100).
        retire_cycles: cycles for memory to retire one store.
    """

    def __init__(self, depth: int = 4, retire_cycles: int = 6):
        if depth < 1:
            raise ValueError("write buffer needs at least one entry")
        self.depth = depth
        self.retire_cycles = retire_cycles
        # Completion times of buffered stores, oldest first.
        self._completions: list[int] = []
        self._memory_free_at = 0
        self.result = WriteBufferResult()

    def store(self, now: int) -> int:
        """Present a store at cycle *now*; return the stall in cycles."""
        completions = self._completions
        while completions and completions[0] <= now:
            completions.pop(0)
        stall = 0
        if len(completions) >= self.depth:
            stall = completions[0] - now
            now = completions[0]
            completions.pop(0)
        start = max(now, self._memory_free_at)
        finish = start + self.retire_cycles
        completions.append(finish)
        self._memory_free_at = finish
        self.result.stores += 1
        self.result.stall_cycles += stall
        return stall


class StreamingWriteBuffer:
    """Write-buffer simulation fed store arrival times chunk by chunk.

    Carries the buffer occupancy and the accumulated *slip* (stall
    cycles that push every later arrival back) between chunks, so a
    chunked run is bit-identical to one :func:`simulate_write_buffer`
    call over the concatenated arrival times.  The carried state is
    the C loop's int64 array (see :func:`repro.memsim._native.write_buffer`):
    head, count, the cycle memory is free again, the slip, then a ring
    of ``depth`` completion times.
    """

    def __init__(self, depth: int = 4, retire_cycles: int = 6):
        if depth < 1:
            raise ValueError("write buffer needs at least one entry")
        self.depth = depth
        self.retire_cycles = retire_cycles
        self._state = np.zeros(4 + depth, dtype=np.int64)
        self._counted_stalls = 0
        self._counted_stores = 0

    def feed(self, store_times: np.ndarray, count_from: int = 0) -> None:
        """Present one chunk of arrival times; ``count_from`` is
        chunk-relative (earlier stores warm the buffer uncounted)."""
        t = np.ascontiguousarray(store_times, dtype=np.int64).ravel()
        self._counted_stores += max(int(t.size) - count_from, 0)
        if t.size == 0:
            return
        if _native.available():
            self._counted_stalls += _native.write_buffer(
                t, self.depth, self.retire_cycles, count_from, self._state
            )
        else:
            self._counted_stalls += self._feed_scalar(t, count_from)

    def _feed_scalar(self, t: np.ndarray, count_from: int) -> int:
        """Step the carried state through :meth:`WriteBuffer.store`."""
        depth = self.depth
        head, count, free_at, slip = self._state[:4].tolist()
        ring = self._state[4:].tolist()
        wb = WriteBuffer(depth=depth, retire_cycles=self.retire_cycles)
        wb._completions = [ring[(head + j) % depth] for j in range(count)]
        wb._memory_free_at = free_at
        stalls = 0
        for i, tt in enumerate(t.tolist()):
            stall = wb.store(tt + slip)
            slip += stall
            if i >= count_from:
                stalls += stall
        completions = wb._completions
        self._state[:] = 0
        self._state[:4] = (0, len(completions), wb._memory_free_at, slip)
        self._state[4 : 4 + len(completions)] = completions
        return stalls

    def result(self) -> WriteBufferResult:
        """Aggregate result over the counted stores fed so far."""
        return WriteBufferResult(
            stores=self._counted_stores, stall_cycles=self._counted_stalls
        )


def simulate_write_buffer(
    store_times: np.ndarray,
    depth: int = 4,
    retire_cycles: int = 6,
    count_from: int = 0,
) -> WriteBufferResult:
    """Run a sequence of store arrival times through a write buffer.

    Args:
        store_times: cycle numbers at which stores issue, normally
            non-decreasing (ignoring write-buffer stalls themselves;
            each stall pushes subsequent arrivals back, which the model
            accounts for).
        depth: buffer depth.
        retire_cycles: memory cycles per retired store.
        count_from: index of the first store whose stall is counted
            (earlier stores still warm the buffer state).

    Returns:
        Aggregate :class:`WriteBufferResult` covering the counted stores.
    """
    sim = StreamingWriteBuffer(depth=depth, retire_cycles=retire_cycles)
    sim.feed(store_times, count_from=count_from)
    return sim.result()


def simulate_write_buffer_reference(
    store_times: np.ndarray,
    depth: int = 4,
    retire_cycles: int = 6,
    count_from: int = 0,
) -> WriteBufferResult:
    """The scalar event-loop run of :func:`simulate_write_buffer`.

    Exists for the differential tests (and for callers that want the
    executable specification); the native and fallback paths of
    :class:`StreamingWriteBuffer` are asserted bit-identical to it.
    """
    wb = WriteBuffer(depth=depth, retire_cycles=retire_cycles)
    slip = 0
    stalls = 0
    times = np.asarray(store_times).ravel()
    for i, t in enumerate(times.tolist()):
        stall = wb.store(int(t) + slip)
        slip += stall
        if i >= count_from:
            stalls += stall
    return WriteBufferResult(
        stores=max(int(times.size) - count_from, 0), stall_cycles=stalls
    )
