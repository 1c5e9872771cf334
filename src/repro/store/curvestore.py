"""Versioned, content-addressed artifact store for benefit curves.

The paper's decision procedure separates into an expensive
characterization phase (measuring :class:`~repro.core.measure.
StructureCurves` for every workload of a suite) and cheap repeated
queries (ranking allocations under a budget).  This module persists
each measured (workload, OS) pair once, so queries never re-simulate:

* ``objects/<sha256>.bin`` — one pair's serialized curves, addressed
  by the SHA-256 of its bytes.  Identical measurements deduplicate to
  one object no matter how many manifests point at them.
* ``keys/<keyhash>.json`` — a suite manifest mapping a logical
  :class:`StoreKey` (suite, OS, scale, seed) to its pairs' objects in
  suite order.
* ``pairs/<keyhash>.json`` — a pair manifest mapping one pair and every
  option it was measured with to its object.  The measurement cache
  (:func:`repro.core.measure.cache_dir`) is a store of pair manifests.

Manifests carry the schema version.  Objects are pickled *plain*
Python structures (dicts/lists/numbers only, no project classes), so
loading an old store never fails on moved modules — schema mismatches
are detected explicitly and refused with a rebuild hint
(:class:`~repro.errors.StaleStoreError`).  Loads memory-map each
object file, verify its hash over the mapped buffer, and only then
deserialize.  Every write publishes crash-safely via a unique temp
file + ``os.replace``, objects before the manifests that name them.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.measure import BenefitCurves, StructureCurves, scale
from repro.errors import (
    ConfigError,
    StaleStoreError,
    StoreError,
    StoreIntegrityError,
)
from repro.obs.tracing import trace_span

SCHEMA_VERSION = 2
MAGIC = "repro-curvestore"
REBUILD_HINT = (
    "rebuild it with `python -m repro.service build --os <os> --store <dir>` "
    "(re-measures the suite at the current REPRO_SCALE)"
)
DEFAULT_LOAD_RETRIES = 2
RETRY_BACKOFF_S = 0.02


def load_retries() -> int:
    """Integrity-failure retry budget: ``REPRO_STORE_RETRIES`` or 2.

    A SHA-256 mismatch can be a transient torn read racing a publish,
    so loads re-read before surfacing the failure; 0 disables retries.
    """
    raw = os.environ.get("REPRO_STORE_RETRIES", "")
    if not raw:
        return DEFAULT_LOAD_RETRIES
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(
            f"REPRO_STORE_RETRIES must be an integer, got {raw!r}"
        ) from exc
    if value < 0:
        raise ConfigError(f"REPRO_STORE_RETRIES must be >= 0, got {value}")
    return value


def default_store_root() -> Path:
    """Store directory: ``REPRO_STORE_DIR`` or ``.repro-store``."""
    return Path(os.environ.get("REPRO_STORE_DIR", ".repro-store"))


@dataclass(frozen=True)
class StoreKey:
    """Logical identity of one curve set: what was measured and how."""

    os_name: str
    suite: tuple[str, ...]
    scale: float
    seed: int = 1

    @classmethod
    def current(
        cls,
        os_name: str,
        suite: tuple[str, ...] | None = None,
        seed: int = 1,
    ) -> "StoreKey":
        """The key the running process would measure under right now."""
        if suite is None:
            from repro.workloads.registry import workload_names

            suite = tuple(workload_names())
        return cls(
            os_name=os_name,
            suite=tuple(suite),
            scale=scale(),
            seed=seed,
        )

    def canonical(self) -> dict:
        """JSON-stable form used for hashing and manifests."""
        return {
            "os_name": self.os_name,
            "suite": list(self.suite),
            "scale": self.scale,
            "seed": self.seed,
        }

    def hash(self) -> str:
        return _key_hash(self.canonical())

    @classmethod
    def from_canonical(cls, data: dict) -> "StoreKey":
        return cls(
            os_name=data["os_name"],
            suite=tuple(data["suite"]),
            scale=float(data["scale"]),
            seed=int(data["seed"]),
        )


def _key_hash(canonical: dict) -> str:
    """The name of the manifest for a JSON-stable key."""
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _structure_to_plain(curves: StructureCurves) -> dict:
    return {
        "workload": curves.workload,
        "os_name": curves.os_name,
        "instructions": curves.instructions,
        "loads_per_instr": curves.loads_per_instr,
        "stores_per_instr": curves.stores_per_instr,
        "mapped_per_instr": curves.mapped_per_instr,
        "other_cpi": curves.other_cpi,
        "wb_stall_per_instr": curves.wb_stall_per_instr,
        "page_fault_per_instr": curves.page_fault_per_instr,
        "icache": [[*k, v] for k, v in curves.icache.items()],
        "dcache": [[*k, v] for k, v in curves.dcache.items()],
        "tlb": [[*k, *v] for k, v in curves.tlb.items()],
    }


def _structure_from_plain(data: dict) -> StructureCurves:
    return StructureCurves(
        workload=data["workload"],
        os_name=data["os_name"],
        instructions=data["instructions"],
        loads_per_instr=data["loads_per_instr"],
        stores_per_instr=data["stores_per_instr"],
        mapped_per_instr=data["mapped_per_instr"],
        other_cpi=data["other_cpi"],
        wb_stall_per_instr=data["wb_stall_per_instr"],
        page_fault_per_instr=data["page_fault_per_instr"],
        icache={(c, l, a): v for c, l, a, v in data["icache"]},
        dcache={(c, l, a): v for c, l, a, v in data["dcache"]},
        tlb={(e, a): (u, k) for e, a, u, k in data["tlb"]},
    )


def _publish(path: Path, data: bytes) -> None:
    """Write bytes crash-safely: temp file in the same dir + rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}-", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class CurveStore:
    """A directory of versioned, content-addressed curve artifacts."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        # (keys-dir mtime_ns, entry count) — see entry_count().
        self._entry_cache: tuple[int, int] | None = None

    @classmethod
    def open(cls, root: str | Path | None = None) -> "CurveStore":
        """Open the given store, or the default one (``REPRO_STORE_DIR``)."""
        return cls(root if root is not None else default_store_root())

    @property
    def _objects(self) -> Path:
        return self.root / "objects"

    @property
    def _keys(self) -> Path:
        return self.root / "keys"

    @property
    def _pairs(self) -> Path:
        return self.root / "pairs"

    def _manifest_path(self, key: StoreKey) -> Path:
        return self._keys / f"{key.hash()}.json"

    def exists(self) -> bool:
        """True if this store has been built at least once."""
        return self._keys.is_dir()

    def has(self, key: StoreKey) -> bool:
        """True if an artifact is published for this exact key."""
        return self._manifest_path(key).exists()

    # -- build ---------------------------------------------------------

    def _put_object(self, curves: StructureCurves) -> str:
        """Publish one pair's object; returns its SHA-256.

        The plain payload pickles to the same bytes whether the curves
        were just measured or loaded back, so a pair has one digest in
        every store.  An existing object is replaced, which also repairs
        one whose bytes went bad.
        """
        payload = {"schema": SCHEMA_VERSION, **_structure_to_plain(curves)}
        blob = pickle.dumps(payload, protocol=4)
        digest = hashlib.sha256(blob).hexdigest()
        _publish(self._objects / f"{digest}.bin", blob)
        return digest

    def _put_manifest(
        self, path: Path, key: dict, digests: list[str]
    ) -> dict:
        manifest = {
            "magic": MAGIC,
            "schema": SCHEMA_VERSION,
            "key": key,
            "objects": digests,
            "created_unix": round(time.time(), 3),
        }
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        _publish(path, text.encode())
        return manifest

    def build(self, curves: BenefitCurves, key: StoreKey) -> dict:
        """Publish one curve set, an object per pair; returns its manifest.

        The pair objects land first, the key manifest last, each
        atomically — a crash in between leaves orphan objects, never a
        manifest pointing at missing or partial data.
        """
        digests = [self._put_object(c) for c in curves.per_workload]
        manifest = self._put_manifest(
            self._manifest_path(key), key.canonical(), digests
        )
        self._entry_cache = None
        return manifest

    def build_for_os(
        self,
        os_name: str,
        suite: tuple[str, ...] | None = None,
        seed: int = 1,
        jobs: int | None = None,
    ) -> dict:
        """Measure the suite under one OS and publish it.

        Measurement goes through the measurement cache, whose pair
        objects this store then holds byte for byte, so a later
        ``BenefitCurves.for_suite`` in the same environment measures
        nothing.
        """
        key = StoreKey.current(os_name, suite=suite, seed=seed)
        curves = BenefitCurves.for_suite(
            os_name, workloads=key.suite, seed=seed, jobs=jobs
        )
        return self.build(curves, key)

    def publish_pair(self, key: dict, curves: StructureCurves) -> None:
        """Publish one measured pair under ``key`` (a JSON-stable dict
        naming the pair and every option it was measured with)."""
        digest = self._put_object(curves)
        self._put_manifest(
            self._pairs / f"{_key_hash(key)}.json", key, [digest]
        )

    # -- load ----------------------------------------------------------

    def _read_manifest(self, path: Path) -> dict:
        try:
            manifest = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise StoreError(f"unreadable manifest {path}: {exc}") from exc
        if not isinstance(manifest, dict) or manifest.get("magic") != MAGIC:
            raise StoreError(f"{path} is not a curve-store manifest")
        if manifest.get("schema") != SCHEMA_VERSION:
            raise StaleStoreError(
                f"store entry {path.name} has schema "
                f"{manifest.get('schema')!r} but this build reads "
                f"{SCHEMA_VERSION}; " + REBUILD_HINT
            )
        return manifest

    def manifest(self, key: StoreKey) -> dict:
        """Read and validate the manifest for a key.

        Raises:
            StoreError: no artifact for the key, or unreadable manifest.
            StaleStoreError: schema version mismatch (with rebuild hint).
        """
        path = self._manifest_path(key)
        if not path.exists():
            raise StoreError(
                f"no curve artifact for {key.canonical()} in {self.root}; "
                + REBUILD_HINT
            )
        return self._read_manifest(path)

    def load(
        self, key: StoreKey, retries: int | None = None
    ) -> BenefitCurves:
        """Load, integrity-check and deserialize one curve set.

        Each object file is memory-mapped; the SHA-256 named in the
        manifest is verified over the mapped buffer before a single
        byte is deserialized.  Integrity failures (hash mismatch,
        truncated/empty object) are retried ``retries`` times with a
        short backoff — they can be transient torn reads racing a
        publish — then surface as
        :class:`~repro.errors.StoreIntegrityError`.
        """
        if retries is None:
            retries = load_retries()
        attempt = 0
        while True:
            try:
                with trace_span(
                    "store.load", os=key.os_name, attempt=attempt
                ):
                    return self._load_once(key)
            except StoreIntegrityError:
                if attempt >= retries:
                    raise
                attempt += 1
                time.sleep(RETRY_BACKOFF_S * attempt)

    def _load_once(self, key: StoreKey) -> BenefitCurves:
        manifest = self.manifest(key)
        # Imported here: repro.service imports this module at package
        # init, so a top-level import would be circular.
        from repro.service.faults import get_injector

        injector = get_injector()
        return BenefitCurves(
            os_name=key.os_name,
            per_workload=[
                self._read_object(digest, injector)
                for digest in manifest["objects"]
            ],
        )

    def load_pair(self, key: dict) -> StructureCurves | None:
        """The pair published under ``key``, or None to measure it again.

        A missing, unreadable, corrupt or old-schema entry is a miss,
        never an error: anything cached can be measured again, and
        :meth:`publish_pair` then replaces the bad entry.
        """
        path = self._pairs / f"{_key_hash(key)}.json"
        try:
            (digest,) = self._read_manifest(path)["objects"]
            return self._read_object(digest)
        except (StoreError, KeyError, TypeError, ValueError):
            return None

    def _read_object(self, digest: str, injector=None) -> StructureCurves:
        """One verified pair object; ``injector`` is the query service's
        fault seam (:mod:`repro.service.faults`), armed only on
        :meth:`load`."""
        object_path = self._objects / f"{digest}.bin"
        if not object_path.exists():
            raise StoreError(
                f"manifest points at missing object {digest}; " + REBUILD_HINT
            )
        with open(object_path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size == 0:
                raise StoreIntegrityError(
                    f"object {digest} is empty; " + REBUILD_HINT
                )
            with mmap.mmap(
                handle.fileno(), 0, access=mmap.ACCESS_READ
            ) as view:
                buffer = view
                if injector is not None and injector.active:
                    buffer = injector.corrupt_read(bytes(view))
                if hashlib.sha256(buffer).hexdigest() != digest:
                    raise StoreIntegrityError(
                        f"object {digest} failed its integrity check "
                        f"(content hash differs); " + REBUILD_HINT
                    )
                payload = pickle.loads(buffer)
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != SCHEMA_VERSION
        ):
            raise StaleStoreError(
                f"object {digest} carries payload schema "
                f"{payload.get('schema') if isinstance(payload, dict) else '?'!r}"
                f" but this build reads {SCHEMA_VERSION}; " + REBUILD_HINT
            )
        return _structure_from_plain(payload)

    def find_current(self, os_name: str, seed: int = 1) -> StoreKey | None:
        """A published key serving ``os_name`` in this process, or None.

        Prefers the exact full-suite key the process would measure
        right now; otherwise any entry for the same OS measured at the
        current scale and seed (e.g. a reduced-suite store) — a
        different scale never matches, so a stale store is never
        silently served as current.
        """
        key = StoreKey.current(os_name, seed=seed)
        if self.has(key):
            return key
        for manifest in self.entries():
            try:
                candidate = StoreKey.from_canonical(manifest["key"])
            except (KeyError, TypeError, ValueError):
                continue
            if (
                candidate.os_name == os_name
                and candidate.scale == key.scale
                and candidate.seed == seed
            ):
                return candidate
        return None

    def entry_count(self) -> int:
        """How many manifests the store holds, without re-listing.

        ``entries()`` reads and parses every manifest — too heavy for
        a per-probe health check.  The count is cached against the
        keys directory's mtime (one ``stat`` per probe) and dropped
        eagerly when this handle publishes, so in-process builds and
        out-of-process publishes both invalidate it.
        """
        try:
            mtime_ns = os.stat(self._keys).st_mtime_ns
        except OSError:
            return 0
        cached = self._entry_cache
        if cached is not None and cached[0] == mtime_ns:
            return cached[1]
        count = len(self.entries())
        self._entry_cache = (mtime_ns, count)
        return count

    def entries(self) -> list[dict]:
        """All readable manifests in the store (stale ones included)."""
        if not self.exists():
            return []
        out = []
        for path in sorted(self._keys.glob("*.json")):
            try:
                manifest = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if isinstance(manifest, dict) and manifest.get("magic") == MAGIC:
                out.append(manifest)
        return out
