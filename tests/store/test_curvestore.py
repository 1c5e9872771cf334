"""Tests for the versioned, content-addressed curve store."""

import hashlib
import json

import pytest

from repro.core import measure
from repro.core.measure import BenefitCurves, measure_workload
from repro.errors import ConfigError, StaleStoreError, StoreError, StoreIntegrityError
from repro.store import SCHEMA_VERSION, CurveStore, StoreKey
from repro.store.curvestore import REBUILD_HINT, load_retries

SMALL_GRID = dict(
    capacities=(2048, 4096),
    lines=(4,),
    assocs=(1, 2),
    tlb_entries=(64,),
    tlb_assocs=(1, 2),
    tlb_full_max=64,
    references=50_000,
)


@pytest.fixture(scope="module")
def curves():
    single = measure_workload("ousterhout", "mach", **SMALL_GRID)
    return BenefitCurves(os_name="mach", per_workload=[single])


@pytest.fixture
def key():
    return StoreKey.current("mach", suite=("ousterhout",))


class TestRoundTrip:
    def test_build_then_load_is_identical(self, tmp_path, curves, key):
        store = CurveStore(tmp_path / "store")
        manifest = store.build(curves, key)
        assert manifest["schema"] == SCHEMA_VERSION
        loaded = store.load(key)
        assert loaded == curves

    def test_has_and_exists(self, tmp_path, curves, key):
        store = CurveStore(tmp_path / "store")
        assert not store.exists()
        assert not store.has(key)
        store.build(curves, key)
        assert store.exists()
        assert store.has(key)

    def test_content_addressing_dedupes_objects(self, tmp_path, curves, key):
        store = CurveStore(tmp_path / "store")
        other_key = StoreKey.current("mach", suite=("ousterhout",), seed=2)
        m1 = store.build(curves, key)
        m2 = store.build(curves, other_key)
        assert m1["objects"] == m2["objects"]
        assert len(list((tmp_path / "store" / "objects").glob("*.bin"))) == 1
        assert len(list((tmp_path / "store" / "keys").glob("*.json"))) == 2

    def test_no_temp_files_left_behind(self, tmp_path, curves, key):
        store = CurveStore(tmp_path / "store")
        store.build(curves, key)
        strays = [
            p for p in (tmp_path / "store").rglob("*") if p.suffix == ".tmp"
        ]
        assert strays == []

    def test_entries_lists_manifests(self, tmp_path, curves, key):
        store = CurveStore(tmp_path / "store")
        assert store.entries() == []
        store.build(curves, key)
        entries = store.entries()
        assert len(entries) == 1
        assert entries[0]["key"]["os_name"] == "mach"


class TestValidation:
    def test_missing_entry_names_rebuild(self, tmp_path, key):
        store = CurveStore(tmp_path / "store")
        with pytest.raises(StoreError, match="rebuild"):
            store.load(key)

    def test_stale_schema_refused_with_hint(self, tmp_path, curves, key):
        store = CurveStore(tmp_path / "store")
        store.build(curves, key)
        path = store._manifest_path(key)
        manifest = json.loads(path.read_text())
        manifest["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(StaleStoreError, match="rebuild"):
            store.load(key)

    def test_corrupt_object_fails_integrity(self, tmp_path, curves, key):
        store = CurveStore(tmp_path / "store")
        manifest = store.build(curves, key)
        obj = tmp_path / "store" / "objects" / f"{manifest['objects'][0]}.bin"
        data = bytearray(obj.read_bytes())
        data[len(data) // 2] ^= 0xFF
        obj.write_bytes(bytes(data))
        with pytest.raises(StoreIntegrityError, match="integrity"):
            store.load(key)

    def test_empty_object_is_integrity_error(self, tmp_path, curves, key):
        store = CurveStore(tmp_path / "store")
        manifest = store.build(curves, key)
        obj = tmp_path / "store" / "objects" / f"{manifest['objects'][0]}.bin"
        obj.write_bytes(b"")
        with pytest.raises(StoreIntegrityError, match="empty"):
            store.load(key, retries=0)

    def test_load_retries_env_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_RETRIES", "5")
        assert load_retries() == 5
        monkeypatch.setenv("REPRO_STORE_RETRIES", "many")
        with pytest.raises(ConfigError, match="REPRO_STORE_RETRIES"):
            load_retries()
        monkeypatch.setenv("REPRO_STORE_RETRIES", "-1")
        with pytest.raises(ConfigError, match=">= 0"):
            load_retries()
        monkeypatch.delenv("REPRO_STORE_RETRIES")
        assert load_retries() == 2

    def test_foreign_manifest_refused(self, tmp_path, curves, key):
        store = CurveStore(tmp_path / "store")
        store.build(curves, key)
        store._manifest_path(key).write_text('{"not": "a manifest"}')
        with pytest.raises(StoreError, match="manifest"):
            store.load(key)

    def test_missing_object_detected(self, tmp_path, curves, key):
        store = CurveStore(tmp_path / "store")
        manifest = store.build(curves, key)
        (tmp_path / "store" / "objects" / f"{manifest['objects'][0]}.bin").unlink()
        with pytest.raises(StoreError, match="missing object"):
            store.load(key)

    def test_rebuild_hint_mentions_cli(self):
        assert "python -m repro.service build" in REBUILD_HINT


class TestEntryCount:
    def test_matches_entries_and_updates_on_publish(
        self, tmp_path, curves, key
    ):
        store = CurveStore(tmp_path / "store")
        assert store.entry_count() == 0
        store.build(curves, key)
        assert store.entry_count() == 1
        other_key = StoreKey.current("mach", suite=("ousterhout",), seed=2)
        store.build(curves, other_key)  # publish invalidates the cache
        assert store.entry_count() == 2
        assert store.entry_count() == len(store.entries())

    def test_cached_between_probes(self, tmp_path, curves, key, monkeypatch):
        store = CurveStore(tmp_path / "store")
        store.build(curves, key)
        assert store.entry_count() == 1
        # A second probe must not re-list the store.
        calls = {"entries": 0}
        real_entries = store.entries

        def counting_entries():
            calls["entries"] += 1
            return real_entries()

        monkeypatch.setattr(store, "entries", counting_entries)
        for _ in range(5):
            assert store.entry_count() == 1
        assert calls["entries"] == 0

    def test_out_of_process_publish_detected(self, tmp_path, curves, key):
        """A second handle publishing under the same root must show up
        (the mtime check) without this handle ever publishing."""
        root = tmp_path / "store"
        reader = CurveStore(root)
        writer = CurveStore(root)
        writer.build(curves, key)
        assert reader.entry_count() == 1
        other_key = StoreKey.current("mach", suite=("ousterhout",), seed=2)
        writer.build(curves, other_key)
        assert reader.entry_count() == 2


class TestFindCurrent:
    def test_exact_key_preferred(self, tmp_path, curves):
        store = CurveStore(tmp_path / "store")
        key = StoreKey.current("mach")
        store.build(curves, key)
        assert store.find_current("mach") == key

    def test_reduced_suite_fallback(self, tmp_path, curves, key):
        store = CurveStore(tmp_path / "store")
        store.build(curves, key)
        found = store.find_current("mach")
        assert found == key
        assert store.load(found) == curves

    def test_manifest_from_older_build_is_stale(self, tmp_path, curves, key):
        """A whole-suite manifest of schema 1 is found but refused with
        the rebuild hint, never served."""
        store = CurveStore(tmp_path / "store")
        manifest = store.build(curves, key)
        old = {**manifest, "schema": 1, "object_sha256": manifest["objects"][0]}
        del old["objects"]
        store._manifest_path(key).write_text(json.dumps(old))
        found = store.find_current("mach")
        assert found == key
        with pytest.raises(StaleStoreError, match="rebuild"):
            store.load(found)

    def test_other_os_not_served(self, tmp_path, curves, key):
        store = CurveStore(tmp_path / "store")
        store.build(curves, key)
        assert store.find_current("ultrix") is None

    def test_scale_mismatch_not_served(self, tmp_path, curves, key, monkeypatch):
        store = CurveStore(tmp_path / "store")
        store.build(curves, key)
        monkeypatch.setenv("REPRO_SCALE", "7.5")
        assert store.find_current("mach") is None


class TestBuildForOs:
    def test_publishes_the_measurement_cache_objects(self, tmp_path, monkeypatch):
        """The store holds the very pair objects measurement cached, so
        after a build the suite's curves are measured by nobody."""
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        suite = ("ousterhout", "IOzone")
        store = CurveStore(tmp_path / "store")
        manifest = store.build_for_os("mach", suite=suite)
        assert len(manifest["objects"]) == 2
        for digest in manifest["objects"]:
            data = (store.root / "objects" / f"{digest}.bin").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest
            assert (cache / "objects" / f"{digest}.bin").read_bytes() == data

        def refuse(spec):
            raise AssertionError(f"remeasured {spec[:2]}")

        monkeypatch.setattr(measure, "_measure_unit", refuse)
        curves = BenefitCurves.for_suite("mach", workloads=suite)
        assert curves == store.load(store.find_current("mach"))
