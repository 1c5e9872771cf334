"""Straightforward generation oracles for differential tests.

These are the first, one-run-at-a-time forms of code whose production
versions batch their work:

* :func:`insert_emit` interleaves one run with ``np.insert`` right
  away (production records runs and assembles them with one scatter);
* :class:`ListSegmentAllocator` keeps the free granules in a list and
  scans a set for contiguous blocks (production keeps a taken-map and
  finds the lowest free run with one cumsum);
* :func:`unique_assign_physical_frames` finds each page's first
  occurrence with ``np.unique`` (production uses a table over the page
  span).

Each draws from the generator in the same order and at the same sizes
as its production counterpart, so both must produce the same bytes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.memsim.types import AccessKind
from repro.trace.events import frames_for_pages
from repro.units import PAGE_BYTES, PAGE_SHIFT

COLUMNS = ("addresses", "kinds", "asids", "mapped", "kernel")


class InsertBuilder:
    """Per-run column lists, concatenated on demand."""

    def __init__(self) -> None:
        self.runs: list[dict[str, np.ndarray]] = []

    def append_raw(self, addresses, kinds, asids, mapped, kernel) -> None:
        if len(addresses):
            self.runs.append(
                {
                    "addresses": np.asarray(addresses, dtype=np.int64),
                    "kinds": np.asarray(kinds, dtype=np.uint8),
                    "asids": np.asarray(asids, dtype=np.uint8),
                    "mapped": np.asarray(mapped, dtype=bool),
                    "kernel": np.asarray(kernel, dtype=bool),
                }
            )

    def columns(self) -> dict[str, np.ndarray]:
        dtypes = (np.int64, np.uint8, np.uint8, bool, bool)
        return {
            name: np.concatenate(
                [np.empty(0, dtype=dtype)] + [run[name] for run in self.runs]
            )
            for name, dtype in zip(COLUMNS, dtypes)
        }


def insert_emit(rng, builder: InsertBuilder, space, code_segment, code, data_parts):
    """One emitted run, interleaved with ``np.insert`` and recorded."""
    n_code = len(code)
    parts = [p for p in (data_parts or []) if len(p.addresses)]
    if not parts:
        builder.append_raw(
            code,
            np.full(n_code, int(AccessKind.IFETCH), dtype=np.uint8),
            np.full(n_code, space.asid, dtype=np.uint8),
            np.full(n_code, code_segment.mapped, dtype=bool),
            np.full(n_code, code_segment.kernel, dtype=bool),
        )
        return
    data = {name: [] for name in COLUMNS}
    positions = []
    for part in parts:
        n = len(part.addresses)
        run = max(1, part.run_words)
        n_runs = (n + run - 1) // run
        run_positions = np.sort(rng.integers(0, n_code + 1, size=n_runs))
        positions.append(np.repeat(run_positions, run)[:n])
        data["addresses"].append(np.asarray(part.addresses, dtype=np.int64))
        data["kinds"].append(np.full(n, int(part.kind), dtype=np.uint8))
        data["asids"].append(np.full(n, part.asid, dtype=np.uint8))
        data["mapped"].append(np.full(n, part.mapped, dtype=bool))
        data["kernel"].append(np.full(n, part.kernel, dtype=bool))
    positions = np.concatenate(positions)
    order = np.argsort(positions, kind="stable")
    positions = positions[order]
    data = {name: np.concatenate(arrays)[order] for name, arrays in data.items()}
    builder.append_raw(
        np.insert(code, positions, data["addresses"]),
        np.insert(
            np.full(n_code, int(AccessKind.IFETCH), dtype=np.uint8),
            positions,
            data["kinds"],
        ),
        np.insert(
            np.full(n_code, space.asid, dtype=np.uint8), positions, data["asids"]
        ),
        np.insert(
            np.full(n_code, code_segment.mapped, dtype=bool), positions, data["mapped"]
        ),
        np.insert(
            np.full(n_code, code_segment.kernel, dtype=bool), positions, data["kernel"]
        ),
    )


class ListSegmentAllocator:
    """Free granules as a shuffled list; blocks by scanning a set."""

    GRANULE = 64 * 1024
    ARENA_BYTES = 1 << 30

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        granules = self.ARENA_BYTES // self.GRANULE
        self._free = list(self._rng.permutation(granules))

    def allocate(self, size: int) -> int:
        needed = max(1, (size + self.GRANULE - 1) // self.GRANULE)
        if needed == 1:
            if not self._free:
                raise ConfigurationError("address arena exhausted")
            return int(self._free.pop()) * self.GRANULE
        free_set = set(self._free)
        for start in sorted(free_set):
            if all(start + k in free_set for k in range(needed)):
                for k in range(needed):
                    self._free.remove(start + k)
                return start * self.GRANULE
        raise ConfigurationError("address arena exhausted (contiguous)")


def unique_assign_physical_frames(addresses, seed: int = 0, mapped=None) -> np.ndarray:
    """The physical mapper with first occurrences from ``np.unique``."""
    addresses = np.asarray(addresses, dtype=np.int64)
    pages = addresses >> PAGE_SHIFT
    unique_pages, first_index, inverse = np.unique(
        pages, return_index=True, return_inverse=True
    )
    if mapped is None:
        page_mapped = np.ones(len(unique_pages), dtype=bool)
    else:
        page_mapped = np.asarray(mapped, dtype=bool)[first_index]
    frames = frames_for_pages(unique_pages, page_mapped, seed=seed)
    return (frames[inverse] << PAGE_SHIFT) | (addresses & (PAGE_BYTES - 1))
