"""Zero-copy trace plane: a chunk-streaming on-disk cache of traces.

Trace *generation* — not simulation — dominates the cold path since the
simulation kernels went native: every measurement worker used to
re-synthesize the same multi-hundred-thousand-reference trace from
scratch.  This module generates each (workload, OS, length, seed) trace
once, serializes it as raw little-endian per-field files behind a JSON
header, and loads it back with ``np.memmap`` (whole-trace consumers) or
windowed ``np.fromfile`` reads (:class:`TraceStream`) so any number of
measurement workers share one physical copy of the bytes through the
OS page cache — no regeneration, no pickling, no per-process copies.

Format 2 entries are *directories* so they can be built by streaming
appends with bounded RSS:

* ``<field>.bin`` — one contiguous raw little-endian array per field
  (the six reference arrays plus the derived physical ifetch/load
  streams).  The streaming generator appends fixed-size chunks whose
  reference count is a multiple of 64, so every chunk boundary lands on
  a 64-byte-aligned file offset in every field.
* ``header.json`` — written *last*, via tmp+rename inside the entry:
  it is the commit record.  A directory without a valid header (e.g. a
  writer killed mid-append) is an incomplete entry; readers evict it
  and regenerate rather than serve short data.

Entries are content-addressed by a :class:`TraceKey` covering
everything that determines the bytes: workload, OS model, reference
count, seed, the generator's ``TRACE_FORMAT_VERSION`` (so cache keys
invalidate automatically when generation semantics change) and
``REPRO_SCALE``.

Whole entries are published crash-safely (unique temp directory +
atomic ``os.replace``); loads validate the header, format version and
every array extent against the file sizes, and any torn or corrupt
entry is evicted and regenerated rather than served short.  Loading an
entry touches its directory mtime, so the entry cap evicts in true
least-recently-*used* order, not publish order.

Format 3 entries are the *compressed columnar* variant: each field
file holds a sequence of independently-decompressible blocks (a fixed
reference count per block), with the per-field block index carried in
``header.json``.  The near-monotone ``<i8`` address columns are
delta-encoded per block before stdlib ``zlib``/``lzma`` compression,
which is what makes synthetic address streams compress far below the
0.6x ratio the benchmarks gate on.  Decoding is bit-identical to
format 2; commit semantics (header written last) and crash safety are
unchanged.  Readers hold a small decompressed-block LRU so windowed
and chunked reads stay O(chunk) RSS.  :func:`compact` recompresses
LRU-cold entries in place, safely against concurrent readers: the new
entry is built in a temp directory and swapped in by rename, so an
open ``np.memmap``/file handle keeps the old inode and a reader that
hits the brief swap window sees a plain miss and regenerates.

Knobs:

* ``REPRO_TRACE_CACHE`` — cache directory (default
  ``.repro-trace-cache``); ``off``/``0``/``none``/``false`` disables
  the plane entirely (every call regenerates in-process).
* ``REPRO_TRACE_CACHE_MAX`` — entry cap (default 64); publishing
  beyond it prunes the least-recently-used entries.
* ``REPRO_STREAM_CHUNK`` — references per streamed chunk (default
  1048576, must be a positive multiple of 64).  Generation and
  simulation of traces longer than one chunk hold at most ~one chunk
  per field in memory at a time.
* ``REPRO_TRACE_COMPRESS`` — ``zlib`` or ``lzma`` writes new entries
  in format 3; off (the default) writes raw format 2, which keeps
  whole-trace loads zero-copy memmaps.
* ``REPRO_TRACE_COMPRESS_LEVEL`` — codec level (default 1: delta
  encoding does the heavy lifting, so low levels already compress far
  below the gate at several times the speed of high ones).
* ``REPRO_TRACE_COMPRESS_BLOCK`` — references per compressed block
  (default 262144); the unit of independent decompression, and
  therefore the granularity (and RSS cost) of windowed reads.
"""

from __future__ import annotations

import hashlib
import json
import lzma
import os
import shutil
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ConfigError, TraceError
from repro.memsim.types import AccessKind
from repro.obs import MetricsRegistry
from repro.trace import generator as _generator
from repro.trace.events import PageFrameTable, ReferenceTrace

MAGIC = "repro-tracestore"
STORE_FORMAT = 2
"""On-disk layout version of raw (uncompressed) directory entries."""

STORE_FORMAT_COMPRESSED = 3
"""On-disk layout version of compressed columnar entries."""

DEFAULT_CACHE_DIR = ".repro-trace-cache"
DEFAULT_MAX_ENTRIES = 64
DEFAULT_STREAM_CHUNK = 1_048_576
DEFAULT_COMPRESS_LEVEL = 1
DEFAULT_COMPRESS_BLOCK = 262_144
DEFAULT_COMPACT_HOT = 4
SUFFIX = ".trace"
HEADER_NAME = "header.json"

CODECS = ("zlib", "lzma")

_DISABLED_VALUES = frozenset({"off", "0", "none", "false", "disabled"})

# A 1B-reference entry indexes ~4k blocks per field across 8 fields;
# the block index dominates header size, so the bound is generous.
_MAX_HEADER_BYTES = 8 << 20

_BLOCK_CACHE_BLOCKS = 16
"""Decompressed blocks a TraceStream keeps hot (per-field-agnostic
LRU).  Bounds reader RSS at cache_blocks * block_references * 8 bytes
while letting repeated small windows (the sampling path) skip
re-decompression."""

#: Counters for the plane's cold/warm behaviour, exported through the
#: service's ``/v1/metrics`` (per-process; the pre-fork merge sums
#: worker snapshots).  ``trace_plane_generations`` staying flat across
#: a serving window is the "no trace-generation misses" signal the
#: fleet warm-up exists to guarantee.
METRICS = MetricsRegistry()

# (name, little-endian dtype) of every serialized array.  The first six
# are the ReferenceTrace fields; the last two are the derived physical
# streams the I-/D-cache measurement units consume.
_FIELDS: tuple[tuple[str, str], ...] = (
    ("addresses", "<i8"),
    ("physical", "<i8"),
    ("kinds", "|u1"),
    ("asids", "|u1"),
    ("mapped", "|b1"),
    ("kernel", "|b1"),
    ("ifetch_physical", "<i8"),
    ("load_physical", "<i8"),
)
_DTYPES: dict[str, str] = dict(_FIELDS)

#: Fields with one element per reference (the ReferenceTrace arrays).
REFERENCE_FIELDS = ("addresses", "physical", "kinds", "asids", "mapped", "kernel")
#: Fields the generator can emit before physical frames are known.
VIRTUAL_FIELDS = ("addresses", "kinds", "asids", "mapped", "kernel")


def trace_cache_dir() -> Path | None:
    """The trace-cache directory, or None when the plane is disabled."""
    raw = os.environ.get("REPRO_TRACE_CACHE")
    if raw is None or raw == "":
        return Path(DEFAULT_CACHE_DIR)
    if raw.strip().lower() in _DISABLED_VALUES:
        return None
    return Path(raw)


def enabled() -> bool:
    """True when traces are cached on disk (REPRO_TRACE_CACHE not off)."""
    return trace_cache_dir() is not None


def max_entries() -> int:
    """Entry cap before pruning: ``REPRO_TRACE_CACHE_MAX`` or 64."""
    raw = os.environ.get("REPRO_TRACE_CACHE_MAX", "")
    if not raw:
        return DEFAULT_MAX_ENTRIES
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_TRACE_CACHE_MAX must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigError(f"REPRO_TRACE_CACHE_MAX must be >= 1, got {value}")
    return value


def stream_chunk_references() -> int:
    """References per streamed chunk: ``REPRO_STREAM_CHUNK`` or 1048576.

    Must be a positive multiple of 64 so that every chunk boundary is a
    64-byte-aligned offset in every field file (the widest field is 8
    bytes per reference).
    """
    raw = os.environ.get("REPRO_STREAM_CHUNK", "")
    if not raw:
        return DEFAULT_STREAM_CHUNK
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_STREAM_CHUNK must be an integer, got {raw!r}"
        ) from None
    if value < 64 or value % 64:
        raise ConfigError(
            f"REPRO_STREAM_CHUNK must be a positive multiple of 64, got {value}"
        )
    return value


def compress_codec() -> str | None:
    """The configured entry codec, or None for raw format-2 entries.

    ``REPRO_TRACE_COMPRESS`` names a stdlib codec (``zlib`` or
    ``lzma``); empty or an off-value means uncompressed.  Reading is
    format-driven — this knob only selects what new entries are
    written as, so mixed caches are fine.
    """
    raw = os.environ.get("REPRO_TRACE_COMPRESS", "")
    value = raw.strip().lower()
    if not value or value in _DISABLED_VALUES:
        return None
    if value not in CODECS:
        raise ConfigError(
            f"REPRO_TRACE_COMPRESS must be one of {list(CODECS)} or off, "
            f"got {raw!r}"
        )
    return value


def compress_level() -> int:
    """Codec level for new entries: ``REPRO_TRACE_COMPRESS_LEVEL`` or 1."""
    raw = os.environ.get("REPRO_TRACE_COMPRESS_LEVEL", "")
    if not raw:
        return DEFAULT_COMPRESS_LEVEL
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_TRACE_COMPRESS_LEVEL must be an integer, got {raw!r}"
        ) from None
    if not 0 <= value <= 9:
        raise ConfigError(
            f"REPRO_TRACE_COMPRESS_LEVEL must be in 0..9, got {value}"
        )
    return value


def compress_block_references() -> int:
    """References per compressed block: ``REPRO_TRACE_COMPRESS_BLOCK``."""
    raw = os.environ.get("REPRO_TRACE_COMPRESS_BLOCK", "")
    if not raw:
        return DEFAULT_COMPRESS_BLOCK
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_TRACE_COMPRESS_BLOCK must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigError(
            f"REPRO_TRACE_COMPRESS_BLOCK must be >= 1, got {value}"
        )
    return value


#: int64 columns that are near-monotone (addresses walk regions
#: sequentially; frame assignment is first-touch ordered), so per-block
#: delta encoding turns them into tiny-magnitude streams the byte-level
#: codecs collapse.  Deltas wrap mod 2**64 and decode via cumsum, so
#: the round trip is exact for any values.
_DELTA_FIELDS = frozenset(
    ("addresses", "physical", "ifetch_physical", "load_physical")
)


def _encode_block(array: np.ndarray, delta: bool, codec: str, level: int) -> bytes:
    """One block's compressed payload (delta first for address columns)."""
    if delta and len(array):
        encoded = np.empty_like(array)
        encoded[0] = array[0]
        np.subtract(array[1:], array[:-1], out=encoded[1:])
        raw = encoded.tobytes()
    else:
        raw = array.tobytes()
    if codec == "zlib":
        return zlib.compress(raw, level)
    return lzma.compress(raw, preset=level)


def _decode_block(
    payload: bytes, codec: str, dtype: np.dtype, count: int, delta: bool
) -> np.ndarray:
    """Inverse of :func:`_encode_block`; validates the element count."""
    try:
        raw = zlib.decompress(payload) if codec == "zlib" else lzma.decompress(payload)
    except (zlib.error, lzma.LZMAError) as exc:
        raise TraceError(f"corrupt compressed block: {exc}") from None
    if len(raw) != count * dtype.itemsize:
        raise TraceError(
            f"compressed block decoded to {len(raw)} bytes, "
            f"expected {count * dtype.itemsize}"
        )
    array = np.frombuffer(raw, dtype=dtype)
    if delta:
        array = np.cumsum(array, dtype=np.int64)
    return array


class _BlockIndex:
    """Element and byte offsets of one field's compressed blocks."""

    __slots__ = ("ends", "starts", "byte_ends", "byte_starts")

    def __init__(self, blocks: list):
        counts = np.asarray([b[0] for b in blocks], dtype=np.int64)
        nbytes = np.asarray([b[1] for b in blocks], dtype=np.int64)
        self.ends = np.cumsum(counts)
        self.starts = self.ends - counts
        self.byte_ends = np.cumsum(nbytes)
        self.byte_starts = self.byte_ends - nbytes

    def __len__(self) -> int:
        return len(self.ends)

    def covering(self, start: int, stop: int) -> range:
        """Indices of the blocks overlapping elements [start, stop)."""
        if stop <= start:
            return range(0)
        first = int(np.searchsorted(self.ends, start, side="right"))
        last = int(np.searchsorted(self.starts, stop, side="left"))
        return range(first, last)


@dataclass(frozen=True)
class TraceKey:
    """Everything that determines a generated trace's bytes."""

    workload: str
    os_name: str
    references: int
    seed: int
    generator_version: int
    scale: float

    def canonical(self) -> dict:
        """JSON-stable form used for hashing and the entry header."""
        return {
            "workload": self.workload,
            "os_name": self.os_name,
            "references": self.references,
            "seed": self.seed,
            "generator_version": self.generator_version,
            "scale": self.scale,
        }

    def hash(self) -> str:
        text = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:24]


def key_for(
    workload: str, os_name: str, references: int, seed: int = 1
) -> TraceKey:
    """The key the running process would generate under right now.

    ``generator_version`` is read from the generator module at call
    time (not import time) so a bumped ``TRACE_FORMAT_VERSION``
    invalidates keys immediately.
    """
    from repro.core.measure import scale

    return TraceKey(
        workload=str(workload),
        os_name=str(os_name),
        references=int(references),
        seed=int(seed),
        generator_version=int(_generator.TRACE_FORMAT_VERSION),
        scale=float(scale()),
    )


def entry_path(key: TraceKey) -> Path | None:
    """Where this key's entry lives, or None when the plane is off."""
    root = trace_cache_dir()
    if root is None:
        return None
    return root / f"{key.hash()}{SUFFIX}"


def _evict(path: Path) -> None:
    if path.name.endswith(SUFFIX) and path.exists():
        METRICS.counter("trace_plane_evictions").inc()
    try:
        if path.is_dir() and not path.is_symlink():
            shutil.rmtree(path, ignore_errors=True)
        else:
            path.unlink()
    except OSError:
        pass


def _touch(path: Path) -> None:
    """Best-effort last-use stamp so pruning is LRU, not publish order."""
    try:
        os.utime(path)
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Streaming writer


class StreamingTraceWriter:
    """Builds one entry directory by appending fixed-size chunks.

    The writer owns the eight field files of an entry; chunks are
    appended in program order with :meth:`append_virtual` (the five
    generation-time fields) and :meth:`append_physical` (the
    physical address stream plus the two derived streams), and
    :meth:`finalize` commits the entry by writing ``header.json`` last.
    Until finalize succeeds the directory has no header and every
    reader treats it as an incomplete entry to evict — that is what
    makes a writer killed mid-append crash-safe.

    The writer itself accepts any positive chunk size (tests stream odd
    shapes); the module-level generation path always uses
    :func:`stream_chunk_references`, keeping chunk boundaries
    64-byte-aligned in every field file.

    With a ``codec`` (explicit, or defaulted from
    ``REPRO_TRACE_COMPRESS``) the entry is written in format 3:
    appended data is buffered per field until a full
    ``block_references``-sized block accumulates, which is
    delta-encoded (address columns), compressed, and appended to the
    field file; the per-block ``(raw_count, compressed_bytes)`` index
    goes into the header at finalize.  Crash semantics are identical
    to raw entries — no header, no entry.
    """

    def __init__(
        self,
        path: Path,
        key: TraceKey,
        chunk_references: int,
        codec: str | None = None,
        level: int | None = None,
        block_references: int | None = None,
    ):
        if chunk_references < 1:
            raise TraceError("chunk_references must be positive")
        self.path = Path(path)
        self.key = key
        self.chunk_references = int(chunk_references)
        self.codec = codec if codec is not None else compress_codec()
        if self.codec is not None and self.codec not in CODECS:
            raise TraceError(f"unknown trace codec {self.codec!r}")
        self.level = level if level is not None else compress_level()
        self.block_references = int(
            block_references
            if block_references is not None
            else compress_block_references()
        )
        if self.block_references < 1:
            raise TraceError("block_references must be positive")
        self.path.mkdir(parents=True, exist_ok=True)
        self._counts: dict[str, int] = {name: 0 for name, _ in _FIELDS}
        self._handles = {
            name: open(self.path / f"{name}.bin", "wb") for name, _ in _FIELDS
        }
        self._pending: dict[str, list[np.ndarray]] = {
            name: [] for name, _ in _FIELDS
        }
        self._pending_counts: dict[str, int] = {name: 0 for name, _ in _FIELDS}
        self._blocks: dict[str, list[list[int]]] = {
            name: [] for name, _ in _FIELDS
        }
        self._closed = False

    def _emit_block(self, name: str, block: np.ndarray) -> None:
        payload = _encode_block(
            block, name in _DELTA_FIELDS, self.codec, self.level
        )
        self._handles[name].write(payload)
        self._blocks[name].append([len(block), len(payload)])

    def _write(self, name: str, array: np.ndarray) -> None:
        array = np.ascontiguousarray(array, dtype=_DTYPES[name])
        self._counts[name] += len(array)
        if self.codec is None:
            self._handles[name].write(array.tobytes())
            return
        pending = self._pending[name]
        pending.append(array)
        self._pending_counts[name] += len(array)
        size = self.block_references
        if self._pending_counts[name] < size:
            return
        whole = pending[0] if len(pending) == 1 else np.concatenate(pending)
        full = len(whole) // size
        for i in range(full):
            self._emit_block(name, whole[i * size : (i + 1) * size])
        tail = whole[full * size :]
        # Copy the tail so the concatenated buffer can be collected.
        self._pending[name] = [tail.copy()] if len(tail) else []
        self._pending_counts[name] = len(tail)

    def _flush_pending(self, name: str) -> None:
        pending = self._pending[name]
        if not pending:
            return
        whole = pending[0] if len(pending) == 1 else np.concatenate(pending)
        self._emit_block(name, whole)
        self._pending[name] = []
        self._pending_counts[name] = 0

    def append_field(self, name: str, array: np.ndarray) -> None:
        """Append one chunk of one named field.

        Used by cross-format copies (:func:`compact`), which stream
        field by field rather than in the generator's
        virtual-then-physical order.
        """
        if name not in _DTYPES:
            raise TraceError(f"unknown trace field {name!r}")
        self._write(name, array)

    def append_virtual(self, addresses, kinds, asids, mapped, kernel) -> None:
        """Append one chunk of generation-time (pre-physical) fields."""
        for name, array in zip(
            VIRTUAL_FIELDS, (addresses, kinds, asids, mapped, kernel)
        ):
            self._write(name, array)

    def append_physical(self, physical, ifetch_physical, load_physical) -> None:
        """Append one chunk of the physical and derived streams."""
        self._write("physical", physical)
        self._write("ifetch_physical", ifetch_physical)
        self._write("load_physical", load_physical)

    def flush(self) -> None:
        """Flush appended data so the bytes are readable from the files.

        Compressed writers emit their pending partial block per field
        first (block sizes are free-form in the index), so a flushed
        field is fully decodable from disk — :func:`generate_stream`
        relies on this between its virtual and physical passes.
        """
        if self.codec is not None:
            for name, _ in _FIELDS:
                self._flush_pending(name)
        for handle in self._handles.values():
            handle.flush()

    def read_back(self, name: str, start: int, stop: int) -> np.ndarray:
        """One window of an already-appended (and flushed) field.

        The streaming generator's second pass re-reads the stored
        virtual chunks through this, which hides the raw-vs-compressed
        layout from the generation code.
        """
        dtype = np.dtype(_DTYPES[name])
        if self.codec is None:
            return np.fromfile(
                self.path / f"{name}.bin",
                dtype=dtype,
                count=stop - start,
                offset=start * dtype.itemsize,
            )
        index = _BlockIndex(self._blocks[name])
        delta = name in _DELTA_FIELDS
        parts = []
        with open(self.path / f"{name}.bin", "rb") as handle:
            for b in index.covering(start, stop):
                handle.seek(int(index.byte_starts[b]))
                payload = handle.read(
                    int(index.byte_ends[b] - index.byte_starts[b])
                )
                block = _decode_block(
                    payload,
                    self.codec,
                    dtype,
                    int(index.ends[b] - index.starts[b]),
                    delta,
                )
                lo = max(start - int(index.starts[b]), 0)
                hi = min(stop, int(index.ends[b])) - int(index.starts[b])
                parts.append(block[lo:hi])
        if not parts:
            return np.empty(0, dtype=dtype)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def finalize(
        self,
        page_faults: int = 0,
        other_cpi: float = 0.0,
        workload: str = "",
        os_name: str = "",
    ) -> None:
        """Commit the entry: close field files, then publish the header."""
        counts = {name: self._counts[name] for name in REFERENCE_FIELDS}
        if len(set(counts.values())) != 1:
            raise TraceError(f"unbalanced field counts at finalize: {counts}")
        if self.codec is not None:
            for name, _ in _FIELDS:
                self._flush_pending(name)
        self.close()
        header = {
            "magic": MAGIC,
            "format": STORE_FORMAT if self.codec is None else STORE_FORMAT_COMPRESSED,
            "key": self.key.canonical(),
            "meta": {
                "page_faults": int(page_faults),
                "other_cpi": float(other_cpi),
                "workload": str(workload),
                "os_name": str(os_name),
            },
            "chunk_references": self.chunk_references,
            "arrays": [
                {"name": name, "dtype": dtype, "count": self._counts[name]}
                for name, dtype in _FIELDS
            ],
        }
        if self.codec is not None:
            header["codec"] = self.codec
            header["level"] = self.level
            header["block_references"] = self.block_references
            for spec in header["arrays"]:
                spec["delta"] = spec["name"] in _DELTA_FIELDS
                spec["blocks"] = self._blocks[spec["name"]]
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        fd, tmp_name = tempfile.mkstemp(
            prefix=".header-", suffix=".tmp", dir=self.path
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_name, self.path / HEADER_NAME)
        except BaseException:
            _evict(Path(tmp_name))
            raise

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for handle in self._handles.values():
            try:
                handle.close()
            except OSError:
                pass


# ---------------------------------------------------------------------------
# Header validation + streaming reader


def _read_header(path: Path) -> dict | None:
    """The header dict of a structurally valid entry, else None.

    Validates the commit record and every field file's extent, so a
    header-bearing entry is guaranteed to serve full-length arrays.
    """
    if not path.is_dir():
        return None
    try:
        blob = (path / HEADER_NAME).read_bytes()
    except OSError:
        return None
    if not blob or len(blob) > _MAX_HEADER_BYTES:
        return None
    try:
        header = json.loads(blob)
    except ValueError:
        return None
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        return None
    compressed = header.get("format") == STORE_FORMAT_COMPRESSED
    if header.get("format") not in (STORE_FORMAT, STORE_FORMAT_COMPRESSED):
        return None
    try:
        specs = header["arrays"]
        if [s["name"] for s in specs] != [name for name, _ in _FIELDS] or any(
            s["dtype"] != dtype for s, (_, dtype) in zip(specs, _FIELDS)
        ):
            return None
        counts = {s["name"]: int(s["count"]) for s in specs}
        if any(c < 0 for c in counts.values()):
            return None
        if len({counts[name] for name in REFERENCE_FIELDS}) != 1:
            return None
        references = counts["addresses"]
        if counts["ifetch_physical"] + counts["load_physical"] > references:
            return None
        if int(header["chunk_references"]) < 1:
            return None
        if compressed:
            if header["codec"] not in CODECS:
                return None
            int(header["level"])
            if int(header["block_references"]) < 1:
                return None
        for spec in specs:
            if compressed:
                # Block index must tile the array exactly and account
                # for every byte of the field file; a short file (torn
                # writer) or a fabricated index fails here.
                blocks = spec["blocks"]
                if bool(spec["delta"]) and spec["dtype"] != "<i8":
                    return None
                if any(
                    len(b) != 2 or int(b[0]) < 1 or int(b[1]) < 1
                    for b in blocks
                ):
                    return None
                if sum(int(b[0]) for b in blocks) != counts[spec["name"]]:
                    return None
                nbytes = sum(int(b[1]) for b in blocks)
            else:
                nbytes = counts[spec["name"]] * np.dtype(spec["dtype"]).itemsize
            if (path / f"{spec['name']}.bin").stat().st_size != nbytes:
                return None
        meta = header["meta"]
        int(meta["page_faults"]), float(meta["other_cpi"])
        str(meta["workload"]), str(meta["os_name"])
    except (KeyError, TypeError, ValueError, OSError):
        return None
    return header


class TraceStream:
    """Windowed reader over one published entry.

    Reads are plain ``np.fromfile`` windows (not whole-file memmaps),
    so a full pass over a multi-hundred-million-reference entry keeps
    RSS bounded by one chunk per field instead of faulting the whole
    file resident.

    Compressed (format-3) entries decode through a small LRU of
    decompressed blocks (:data:`_BLOCK_CACHE_BLOCKS`), so chunked
    passes still hold O(chunk) bytes and repeated small windows — the
    sampling path — skip re-inflating the block they keep landing in.
    Decoded windows are bit-identical to the raw layout's.
    """

    def __init__(self, path: Path, header: dict):
        self.path = Path(path)
        self.format: int = int(header["format"])
        self._counts = {s["name"]: int(s["count"]) for s in header["arrays"]}
        self._dtypes = {
            s["name"]: np.dtype(s["dtype"]) for s in header["arrays"]
        }
        self.codec: str | None = None
        if self.format == STORE_FORMAT_COMPRESSED:
            self.codec = str(header["codec"])
            self._delta = {s["name"]: bool(s["delta"]) for s in header["arrays"]}
            self._indices = {
                s["name"]: _BlockIndex(s["blocks"]) for s in header["arrays"]
            }
            self._block_cache: dict[tuple[str, int], np.ndarray] = {}
        # Field files are opened once and held: a compaction swap
        # renames a replacement entry over this path, and the held
        # handles keep the original inodes so an in-flight reader never
        # sees the other layout's bytes through its own header.
        self._handles: dict = {}
        self.references: int = self._counts["addresses"]
        self.chunk_references: int = int(header["chunk_references"])
        meta = header["meta"]
        self.page_faults: int = int(meta["page_faults"])
        self.other_cpi: float = float(meta["other_cpi"])
        self.workload: str = str(meta["workload"])
        self.os_name: str = str(meta["os_name"])

    def __len__(self) -> int:
        return self.references

    def count(self, field: str) -> int:
        """Element count of one field (derived streams are shorter)."""
        return self._counts[field]

    def _handle(self, field: str):
        handle = self._handles.get(field)
        if handle is None:
            handle = open(self.path / f"{field}.bin", "rb")
            self._handles[field] = handle
        return handle

    def close(self) -> None:
        """Release held field-file handles (also runs on GC)."""
        while self._handles:
            self._handles.popitem()[1].close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def _block(self, field: str, b: int) -> np.ndarray:
        """One decoded block, through the LRU (dict preserves order)."""
        cache = self._block_cache
        cached = cache.get((field, b))
        if cached is not None:
            cache[(field, b)] = cache.pop((field, b))
            return cached
        index = self._indices[field]
        handle = self._handle(field)
        handle.seek(int(index.byte_starts[b]))
        payload = handle.read(int(index.byte_ends[b] - index.byte_starts[b]))
        block = _decode_block(
            payload,
            self.codec,
            self._dtypes[field],
            int(index.ends[b] - index.starts[b]),
            self._delta[field],
        )
        while len(cache) >= _BLOCK_CACHE_BLOCKS:
            cache.pop(next(iter(cache)))
        cache[(field, b)] = block
        return block

    def _read_compressed(self, field: str, start: int, stop: int) -> np.ndarray:
        index = self._indices[field]
        parts = []
        for b in index.covering(start, stop):
            block = self._block(field, b)
            lo = max(start - int(index.starts[b]), 0)
            hi = min(stop, int(index.ends[b])) - int(index.starts[b])
            parts.append(block[lo:hi])
        if not parts:
            return np.empty(0, dtype=self._dtypes[field])
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def read(self, field: str, start: int = 0, stop: int | None = None) -> np.ndarray:
        """One window of one field as an in-memory array."""
        total = self._counts[field]
        if stop is None:
            stop = total
        start = max(0, min(int(start), total))
        stop = max(start, min(int(stop), total))
        dtype = self._dtypes[field]
        if self.codec is not None:
            array = self._read_compressed(field, start, stop)
        else:
            handle = self._handle(field)
            handle.seek(start * dtype.itemsize)
            array = np.fromfile(handle, dtype=dtype, count=stop - start)
        if len(array) != stop - start:
            raise TraceError(
                f"short read of {field} [{start}:{stop}) in {self.path}"
            )
        return array

    def chunks(self, fields, chunk_references: int | None = None):
        """Iterate reference-aligned windows of the given fields.

        Yields ``(start, stop, {field: array})`` in order.  The chunk
        size defaults to the current :func:`stream_chunk_references`,
        not the one the entry was written with, so lowering
        ``REPRO_STREAM_CHUNK`` lowers the memory a measurement of an
        already-published entry uses; windows are plain file offsets,
        so any positive size reads the same bytes.
        """
        step = chunk_references or stream_chunk_references()
        if step < 1:
            raise TraceError("chunk_references must be positive")
        for start in range(0, self.references, step):
            stop = min(start + step, self.references)
            yield start, stop, {f: self.read(f, start, stop) for f in fields}

    def window_trace(self, start: int, stop: int) -> ReferenceTrace:
        """Materialize one reference window as a ReferenceTrace.

        Used by the sampling machinery: only the window's bytes are
        read.  Derived streams are recomputed from the window (matching
        ``ReferenceTrace.slice`` semantics).
        """
        return ReferenceTrace(
            addresses=self.read("addresses", start, stop),
            physical=self.read("physical", start, stop),
            kinds=self.read("kinds", start, stop),
            asids=self.read("asids", start, stop),
            mapped=self.read("mapped", start, stop),
            kernel=self.read("kernel", start, stop),
            page_faults=self.page_faults,
            other_cpi=self.other_cpi,
            workload=self.workload,
            os_name=self.os_name,
        )


def open_stream(key: TraceKey) -> TraceStream | None:
    """Open a windowed reader; None on miss or corrupt entry.

    Structural corruption (missing/garbage header, short field file —
    e.g. a streaming writer killed mid-append) evicts the entry so the
    caller regenerates.  Success touches the entry for LRU pruning.
    """
    path = entry_path(key)
    if path is None or not path.exists():
        return None
    header = _read_header(path)
    if header is None or header["key"] != key.canonical():
        _evict(path)
        return None
    _touch(path)
    METRICS.counter("trace_plane_hits").inc()
    return TraceStream(path, header)


def has(key: TraceKey) -> bool:
    """True when a structurally valid entry exists for this key.

    Header-only validation (no data reads): cheap enough for a
    per-call check before deciding whether a warm-up fan-out is needed.
    A torn entry reports False and is handled by :func:`load`.
    """
    path = entry_path(key)
    if path is None or not path.exists():
        return False
    header = _read_header(path)
    return header is not None and header["key"] == key.canonical()


def load(key: TraceKey) -> ReferenceTrace | None:
    """Memory-map one cached trace; None on miss or corrupt entry.

    Anything structurally wrong — torn header, short field file, stale
    format, key mismatch — evicts the entry and reports a miss, so the
    caller regenerates and re-publishes instead of crashing or working
    on a short trace.  Loading touches the entry, keeping the prune
    order LRU.
    """
    path = entry_path(key)
    if path is None or not path.exists():
        return None
    header = _read_header(path)
    if header is None or header["key"] != key.canonical():
        _evict(path)
        return None
    arrays: dict[str, np.ndarray] = {}
    try:
        if header["format"] == STORE_FORMAT_COMPRESSED:
            # Compressed entries materialize in memory: decoding is a
            # copy anyway, so there is no inode to share.  Whole-trace
            # loads of big compressed entries cost their decoded size —
            # the streaming path (open_stream) is the bounded-RSS one.
            reader = TraceStream(path, header)
            for spec in header["arrays"]:
                name = spec["name"]
                arrays[name] = reader.read(name, 0, int(spec["count"]))
        else:
            for spec in header["arrays"]:
                arrays[spec["name"]] = np.memmap(
                    path / f"{spec['name']}.bin",
                    mode="r",
                    dtype=np.dtype(spec["dtype"]),
                    shape=(int(spec["count"]),),
                )
        meta = header["meta"]
        trace = ReferenceTrace(
            addresses=arrays["addresses"],
            physical=arrays["physical"],
            kinds=arrays["kinds"],
            asids=arrays["asids"],
            mapped=arrays["mapped"],
            kernel=arrays["kernel"],
            page_faults=int(meta["page_faults"]),
            other_cpi=float(meta["other_cpi"]),
            workload=str(meta["workload"]),
            os_name=str(meta["os_name"]),
        )
    except (OSError, ValueError, TraceError):
        _evict(path)
        return None
    # Seed the derived-stream cache with the materialized streams so
    # grid units never recompute the kind masks per unit.
    trace._derived["ifetch_physical"] = arrays["ifetch_physical"]
    trace._derived["load_physical"] = arrays["load_physical"]
    _touch(path)
    METRICS.counter("trace_plane_hits").inc()
    return trace


# ---------------------------------------------------------------------------
# Publishing


def _publish_dir(tmp: Path, path: Path) -> bool:
    """Atomically move a finished temp entry into place.

    Concurrent publishers of the same key are idempotent: if another
    writer already installed a valid entry, ours is discarded.  An
    invalid (incomplete/corrupt) existing entry is evicted first.
    """
    for _ in range(2):
        try:
            os.replace(tmp, path)
            return True
        except OSError:
            if _read_header(path) is not None:
                break  # a concurrent publisher won with a valid entry
            _evict(path)
    shutil.rmtree(tmp, ignore_errors=True)
    return path.exists()


def publish(trace: ReferenceTrace, key: TraceKey) -> Path | None:
    """Write one entry crash-safely; returns its path (None if disabled).

    A unique temp directory in the cache root is renamed into place, so
    concurrent publishers of the same key are idempotent and readers
    never observe a torn entry under ``os.replace`` semantics.
    """
    path = entry_path(key)
    if path is None:
        return None
    root = path.parent
    root.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f".{path.stem}-", dir=root))
    try:
        writer = StreamingTraceWriter(tmp, key, stream_chunk_references())
        writer.append_virtual(
            trace.addresses, trace.kinds, trace.asids, trace.mapped, trace.kernel
        )
        writer.append_physical(
            trace.physical, trace.ifetch_physical(), trace.load_physical()
        )
        writer.finalize(
            page_faults=trace.page_faults,
            other_cpi=trace.other_cpi,
            workload=trace.workload,
            os_name=trace.os_name,
        )
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    _publish_dir(tmp, path)
    _prune(root, keep=path.name)
    return path


def generate_stream(
    workload: str, os_name: str, references: int, seed: int = 1
) -> Path | None:
    """Generate and publish one entry with bounded RSS; its path or None.

    Two passes, both chunked: the generator streams virtual-field
    chunks to a temp entry while the touched page set is collected
    incrementally; then physical frames are assigned (bit-identical to
    the batch mapper — see :class:`~repro.trace.events.PageFrameTable`)
    and the physical + derived streams are appended by re-reading the
    stored virtual chunks.  Peak memory is ~one chunk per field plus
    the page table, regardless of trace length.
    """
    path = entry_path(key := key_for(workload, os_name, references, seed))
    if path is None:
        return None
    root = path.parent
    root.mkdir(parents=True, exist_ok=True)
    chunk = stream_chunk_references()
    tmp = Path(tempfile.mkdtemp(prefix=f".{path.stem}-", dir=root))
    try:
        writer = StreamingTraceWriter(tmp, key, chunk)
        table = PageFrameTable()

        def sink(addresses, kinds, asids, mapped, kernel):
            table.observe(addresses, mapped)
            writer.append_virtual(addresses, kinds, asids, mapped, kernel)

        gen = _generator.TraceGenerator(workload, os_name, seed=seed)
        meta = gen.generate_stream(references, sink, chunk)
        writer.flush()
        table.finalize(meta["physical_seed"])

        total = meta["references"]
        for start in range(0, total, chunk):
            stop = min(start + chunk, total)
            addresses = writer.read_back("addresses", start, stop)
            kinds = writer.read_back("kinds", start, stop)
            physical = table.physical_for(addresses)
            writer.append_physical(
                physical,
                physical[kinds == AccessKind.IFETCH],
                physical[kinds == AccessKind.LOAD],
            )
        writer.finalize(
            page_faults=meta["page_faults"],
            other_cpi=meta["other_cpi"],
            workload=meta["workload"],
            os_name=meta["os_name"],
        )
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    METRICS.counter("trace_plane_generations").inc(
        label=f"{workload}/{os_name}"
    )
    _publish_dir(tmp, path)
    _prune(root, keep=path.name)
    return path


def _prune(root: Path, keep: str) -> None:
    """Drop the least-recently-used entries beyond the configured cap.

    Entry mtimes are refreshed on every successful load/open (see
    :func:`_touch`), so sorting by mtime evicts cold entries first —
    publish order only breaks ties.
    """
    cap = max_entries()
    try:
        entries = [
            (p.stat().st_mtime_ns, p.name, p) for p in root.glob(f"*{SUFFIX}")
        ]
    except OSError:
        return
    if len(entries) <= cap:
        return
    entries.sort()
    for _, name, path in entries[: len(entries) - cap]:
        if name != keep:
            _evict(path)


# ---------------------------------------------------------------------------
# High-level access


def ensure(
    workload: str, os_name: str, references: int, seed: int = 1
) -> bool:
    """Make sure a key is published; True if this call generated it.

    A no-op (False) when the plane is disabled or the entry already
    loads cleanly.  Traces longer than one stream chunk are generated
    chunk-streaming (bounded RSS); shorter ones in one batch.
    """
    if not enabled():
        return False
    key = key_for(workload, os_name, references, seed)
    if has(key):
        return False
    if references > stream_chunk_references():
        generate_stream(workload, os_name, references, seed=seed)
    else:
        trace = _generator.generate_trace(workload, os_name, references, seed=seed)
        METRICS.counter("trace_plane_generations").inc(
            label=f"{workload}/{os_name}"
        )
        publish(trace, key)
    return True


def stream(
    workload: str, os_name: str, references: int, seed: int = 1
) -> TraceStream:
    """Open a windowed reader, generating and publishing on miss.

    Streaming needs the on-disk plane: with ``REPRO_TRACE_CACHE`` off
    there is nowhere to stage chunks, so this raises ``TraceError`` —
    callers fall back to the materialized path (:func:`get_trace`).
    """
    if not enabled():
        raise TraceError(
            "chunk streaming requires the trace plane; REPRO_TRACE_CACHE is off"
        )
    key = key_for(workload, os_name, references, seed)
    opened = open_stream(key)
    if opened is not None:
        return opened
    generate_stream(workload, os_name, references, seed=seed)
    opened = open_stream(key)
    if opened is None:
        raise TraceError(f"failed to publish streaming entry for {key}")
    return opened


def get_trace(
    workload: str, os_name: str, references: int, seed: int = 1
) -> ReferenceTrace:
    """Load a trace through the plane, generating and publishing on miss.

    Cache hits return memmap-backed traces (zero-copy across
    processes); misses return the freshly generated trace —
    bit-identical either way — after best-effort publishing it for the
    next reader.  Misses longer than one stream chunk are generated
    chunk-streaming (bounded RSS) and served as memmaps of the new
    entry.  With the plane disabled this is plain generation.
    """
    if not enabled():
        return _generator.generate_trace(workload, os_name, references, seed=seed)
    key = key_for(workload, os_name, references, seed)
    trace = load(key)
    if trace is not None:
        return trace
    if references > stream_chunk_references():
        try:
            generate_stream(workload, os_name, references, seed=seed)
            trace = load(key)
            if trace is not None:
                return trace
        except OSError:
            pass  # read-only or full filesystem: fall back to in-memory
    trace = _generator.generate_trace(workload, os_name, references, seed=seed)
    METRICS.counter("trace_plane_generations").inc(
        label=f"{workload}/{os_name}"
    )
    try:
        publish(trace, key)
    except OSError:
        pass  # read-only or full filesystem: serve the in-memory trace
    return trace


# ---------------------------------------------------------------------------
# Compaction: recompress LRU-cold entries in place


def entry_nbytes(path: Path) -> int:
    """Total on-disk bytes of one entry's field files (header excluded)."""
    total = 0
    for name, _ in _FIELDS:
        try:
            total += (path / f"{name}.bin").stat().st_size
        except OSError:
            pass
    return total


def _recompress(
    path: Path,
    header: dict,
    codec: str,
    level: int,
    block_references: int | None,
) -> None:
    """Rewrite one entry under a codec and swap it in under readers.

    The replacement is built complete (header and all) in a temp
    directory, stamped with the original's mtime so compaction does not
    disturb LRU order, then swapped in by two renames.  A reader with
    the old files open keeps the old inodes; a reader that looks up
    the path inside the brief rename window sees a miss and
    regenerates — never short or mixed data.  A crash at any point
    leaves either the old entry, or no entry plus a headerless (dotted,
    prune-invisible) temp directory.
    """
    root = path.parent
    key = TraceKey(**header["key"])
    reader = TraceStream(path, header)
    tmp = Path(tempfile.mkdtemp(prefix=f".{path.stem}-compact-", dir=root))
    try:
        writer = StreamingTraceWriter(
            tmp,
            key,
            reader.chunk_references,
            codec=codec,
            level=level,
            block_references=block_references,
        )
        step = reader.chunk_references
        for name, _ in _FIELDS:
            total = reader.count(name)
            for start in range(0, total, step):
                writer.append_field(
                    name, reader.read(name, start, min(start + step, total))
                )
        writer.finalize(
            page_faults=reader.page_faults,
            other_cpi=reader.other_cpi,
            workload=reader.workload,
            os_name=reader.os_name,
        )
        stat = path.stat()
        os.utime(tmp, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        trash = root / f".{path.stem}-old-{os.getpid()}"
        shutil.rmtree(trash, ignore_errors=True)
        os.rename(path, trash)
        os.rename(tmp, path)
        shutil.rmtree(trash, ignore_errors=True)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def compact(
    hot: int | None = None,
    codec: str | None = None,
    level: int | None = None,
    block_references: int | None = None,
) -> dict:
    """Recompress every LRU-cold entry; returns a summary dict.

    The ``hot`` most-recently-used entries are left alone (they are
    the ones workers are actively memmapping or streaming; raw layout
    is their fastest), everything colder is rewritten under ``codec``
    at ``level`` — defaults: ``REPRO_TRACE_COMPRESS`` (or zlib when
    the knob is off) at ``REPRO_TRACE_COMPRESS_LEVEL``.  Entries
    already in the target shape are skipped; headerless leftovers from
    killed writers are evicted.  Safe to run while readers are active
    (see :func:`_recompress`) — this is the background maintenance
    pass behind ``python -m repro.trace.tracestore compact``.
    """
    root = trace_cache_dir()
    if root is None:
        raise ConfigError(
            "cannot compact: the trace cache is disabled "
            "(REPRO_TRACE_CACHE=off)"
        )
    codec = codec if codec is not None else (compress_codec() or "zlib")
    if codec not in CODECS:
        raise ConfigError(f"codec must be one of {list(CODECS)}, got {codec!r}")
    level = compress_level() if level is None else int(level)
    hot = DEFAULT_COMPACT_HOT if hot is None else max(0, int(hot))
    try:
        entries = sorted(
            ((p.stat().st_mtime_ns, p.name, p) for p in root.glob(f"*{SUFFIX}")),
            reverse=True,
        )
    except OSError:
        entries = []
    summary = {
        "entries": len(entries),
        "hot": min(hot, len(entries)),
        "compacted": 0,
        "skipped": 0,
        "evicted": 0,
        "bytes_before": 0,
        "bytes_after": 0,
    }
    for _, _, path in entries[hot:]:
        header = _read_header(path)
        if header is None:
            _evict(path)
            summary["evicted"] += 1
            continue
        if (
            header["format"] == STORE_FORMAT_COMPRESSED
            and header["codec"] == codec
            and int(header["level"]) == level
        ):
            summary["skipped"] += 1
            continue
        before = entry_nbytes(path)
        _recompress(path, header, codec, level, block_references)
        summary["bytes_before"] += before
        summary["bytes_after"] += entry_nbytes(path)
        summary["compacted"] += 1
        METRICS.counter("trace_plane_compactions").inc()
    return summary


def _main(argv=None) -> int:
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.trace.tracestore",
        description="maintain the on-disk trace cache",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = sub.add_parser(
        "compact",
        help="recompress LRU-cold entries in place (safe under readers)",
    )
    cmd.add_argument(
        "--hot", type=int, default=None,
        help=f"most-recently-used entries to leave raw (default "
             f"{DEFAULT_COMPACT_HOT})",
    )
    cmd.add_argument(
        "--codec", choices=CODECS, default=None,
        help="target codec (default: REPRO_TRACE_COMPRESS, else zlib)",
    )
    cmd.add_argument(
        "--level", type=int, default=None,
        help="codec level (default: REPRO_TRACE_COMPRESS_LEVEL, else 1)",
    )
    args = parser.parse_args(argv)
    try:
        summary = compact(hot=args.hot, codec=args.codec, level=args.level)
    except ConfigError as exc:
        print(json.dumps({"ok": False, "error": str(exc)}), file=sys.stderr)
        return 2
    print(json.dumps({"ok": True, **summary}, sort_keys=True))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(_main())
