"""On-demand build and loading of the C simulation kernels.

``_native.c`` holds two short C loops: a family of capped LRU
stack-depth passes and the write buffer's stall loop.  Each steps state
its Python owner carries between calls (the per-set stacks of a
:class:`~repro.memsim.stackdist.StreamingStackDistance`, the ring of a
:class:`~repro.memsim.write_buffer.StreamingWriteBuffer`).  On machines
with a C compiler both are built once, into one shared library in a
per-user cache directory, and loaded through :mod:`ctypes`.
Everything here is best-effort: any failure (no compiler, read-only
filesystem, sandboxed exec) simply reports the kernels as unavailable,
and the owners step the same state in their interpreted loops.  No
third-party packages are involved.

Environment knobs:

* ``REPRO_NATIVE=0`` — never build or load the kernels.
* ``REPRO_NATIVE_DIR`` — where to cache the shared library (default: a
  per-user directory under the system temp dir).
* ``CC`` — compiler to use (default: first of ``cc``, ``gcc``,
  ``clang`` on PATH).

Concurrent builders are safe: each compiles to a unique temporary file
and publishes it with an atomic :func:`os.replace`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_native.c")
_MAX_PASSES = 64
"""``MAX_PASSES`` in ``_native.c``: the most set counts one family steps."""
_CFLAGS = ("-O1", "-shared", "-fPIC")
"""Compiler flags; part of the library's cache key with the source.
``-O1``: the loops run as fast as at ``-O2`` and build in about two
thirds of the time, which every fresh build directory pays."""

_lib: ctypes.CDLL | None = None
_load_attempted = False
_load_error: str | None = None


def _build_dir() -> str:
    explicit = os.environ.get("REPRO_NATIVE_DIR")
    if explicit:
        return explicit
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")


def _compiler() -> str | None:
    explicit = os.environ.get("CC")
    if explicit:
        return explicit if shutil.which(explicit) else None
    for name in ("cc", "gcc", "clang"):
        if shutil.which(name):
            return name
    return None


def _compile(source: str, lib_path: str) -> None:
    cc = _compiler()
    if cc is None:
        raise RuntimeError("no C compiler on PATH (set CC or REPRO_NATIVE=0)")
    os.makedirs(os.path.dirname(lib_path), exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        suffix=".so", dir=os.path.dirname(lib_path)
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", tmp_path, source],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{cc} failed: {proc.stderr.strip()[:500]}")
        os.replace(tmp_path, lib_path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)


def _load() -> ctypes.CDLL | None:
    global _lib, _load_attempted, _load_error
    if _load_attempted:
        return _lib
    _load_attempted = True
    if os.environ.get("REPRO_NATIVE", "1") == "0":
        _load_error = "disabled by REPRO_NATIVE=0"
        return None
    try:
        with open(_SOURCE_PATH, "rb") as fh:
            source_bytes = fh.read()
        key = source_bytes + " ".join(_CFLAGS).encode()
        digest = hashlib.sha256(key).hexdigest()[:16]
        lib_path = os.path.join(_build_dir(), f"repro-native-{digest}.so")
        if not os.path.exists(lib_path):
            _compile(_SOURCE_PATH, lib_path)
        lib = ctypes.CDLL(lib_path)
        fn = lib.repro_lru_family
        fn.restype = ctypes.c_int64
        fn.argtypes = [
            ctypes.c_void_p,  # refs
            ctypes.c_int64,  # n
            ctypes.c_int32,  # shift
            ctypes.c_int32,  # passes
            ctypes.c_void_p,  # set_masks
            ctypes.c_void_p,  # caps
            ctypes.c_void_p,  # stacks
            ctypes.c_void_p,  # last
            ctypes.c_int64,  # count_from
            ctypes.c_void_p,  # hist
            ctypes.c_void_p,  # flags (may be NULL)
            ctypes.c_void_p,  # flag_hist
            ctypes.c_void_p,  # out (may be NULL)
        ]
        fn = lib.repro_write_buffer
        fn.restype = ctypes.c_int64
        fn.argtypes = [
            ctypes.c_void_p,  # times
            ctypes.c_int64,  # n
            ctypes.c_int64,  # depth
            ctypes.c_int64,  # retire
            ctypes.c_int64,  # count_from
            ctypes.c_void_p,  # state
        ]
        _lib = lib
    except Exception as exc:  # pragma: no cover - environment dependent
        _load_error = str(exc)
        _lib = None
    return _lib


def available() -> bool:
    """True when the C kernels compiled (or were cached) and loaded."""
    return _load() is not None


def load_error() -> str | None:
    """Why the kernels are unavailable, for diagnostics; None if loaded."""
    _load()
    return _load_error


def _require() -> ctypes.CDLL:
    lib = _load()
    if lib is None:
        raise RuntimeError(f"native kernel unavailable: {_load_error}")
    return lib


def _check_int64(name: str, array: np.ndarray, size: int) -> None:
    if array.dtype != np.int64 or not array.flags.c_contiguous or array.size != size:
        raise ValueError(f"{name} must be a contiguous int64 array of {size}")


def lru_family(
    refs: np.ndarray,
    shift: int,
    set_masks: np.ndarray,
    caps: np.ndarray,
    stacks: np.ndarray,
    last: np.ndarray,
    count_from: int,
    hist: np.ndarray,
    flags: np.ndarray | None = None,
    flag_hist: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> bool:
    """Step a family of set-count passes through the C LRU loop.

    ``refs >> shift`` are the ids.  ``set_masks`` (int64) and ``caps``
    (int32) describe the passes, set counts ascending in powers of
    two.  ``stacks``, ``last`` (one int64) and ``hist`` are the state
    the family carries between calls, laid out as ``_native.c``
    describes and updated in place: the depths of references at index
    ``>= count_from`` are added into ``hist``, and into ``flag_hist``
    too for those whose ``flags`` entry is set.  ``out``, when given,
    is one row of int16 zeros per pass that receives the depths.
    Returns False, having stepped nothing, when a reference is
    negative.
    """
    lib = _require()
    refs = np.ascontiguousarray(refs, dtype=np.int64)
    n = refs.size
    passes = caps.size
    if caps.dtype != np.int32 or not caps.flags.c_contiguous:
        raise ValueError("caps must be a contiguous int32 array")
    if not 1 <= passes <= _MAX_PASSES or not 0 <= shift < 63 or not 0 <= count_from <= n:
        raise ValueError(
            f"need 1-{_MAX_PASSES} passes, a shift in [0, 63), count_from in [0, n]"
        )
    cap_list = caps.tolist()
    _check_int64("set_masks", set_masks, passes)
    _check_int64(
        "stacks",
        stacks,
        sum((mask + 1) * cap for mask, cap in zip(set_masks.tolist(), cap_list)),
    )
    _check_int64("last", last, 1)
    _check_int64("hist", hist, sum(cap_list) + passes)
    flags_ptr = flag_hist_ptr = out_ptr = None
    if flags is not None:
        flags = np.ascontiguousarray(flags, dtype=np.bool_)
        if flags.size != n:
            raise ValueError("flags must hold one entry per reference")
        _check_int64("flag_hist", flag_hist, hist.size)
        flags_ptr = flags.ctypes.data
        flag_hist_ptr = flag_hist.ctypes.data
    if out is not None:
        if out.dtype != np.int16 or not out.flags.c_contiguous or out.size != passes * n:
            raise ValueError("out must be a contiguous int16 array, passes x refs")
        out_ptr = out.ctypes.data
    return (
        lib.repro_lru_family(
            refs.ctypes.data,
            n,
            shift,
            passes,
            set_masks.ctypes.data,
            caps.ctypes.data,
            stacks.ctypes.data,
            last.ctypes.data,
            count_from,
            hist.ctypes.data,
            flags_ptr,
            flag_hist_ptr,
            out_ptr,
        )
        == 0
    )


def write_buffer(
    times: np.ndarray,
    depth: int,
    retire_cycles: int,
    count_from: int,
    state: np.ndarray,
) -> int:
    """Step store arrivals through the C write-buffer loop.

    ``state`` is the ``4 + depth`` int64 array the loop carries between
    calls (head, count, memory-free cycle, slip, then the ring of
    completion times; see ``_native.c``), updated in place.  Returns
    the stall cycles of the stores at index ``>= count_from``.
    """
    lib = _require()
    times = np.ascontiguousarray(times, dtype=np.int64)
    if depth < 1:
        raise ValueError("write buffer needs at least one entry")
    if (
        state.dtype != np.int64
        or not state.flags.c_contiguous
        or state.size != 4 + depth
    ):
        raise ValueError("state must be a contiguous int64 array of 4 + depth")
    return int(
        lib.repro_write_buffer(
            times.ctypes.data,
            len(times),
            depth,
            retire_cycles,
            count_from,
            state.ctypes.data,
        )
    )
