"""The storage-backend protocol: both tiers, the adapter, the registry.

The contract under test is byte-identity: a ``MemoryBackend`` and a
``SQLiteBackend`` fed the same catalog answer every protocol query --
rows, postings, occurrences, distinct scan, substring candidates,
fingerprints -- with exactly the values the plain in-memory ``Catalog``
produces (order included).  On top of that sit the behavioral rules:
snapshots pin generations (MVCC), growth is append-only, failed appends
roll back, closed backends refuse, and the registry's sqlite tier makes
appends survive a restart.
"""

import pytest

from repro.exceptions import (
    CatalogRegistryError,
    DuplicateTableError,
    FrozenCatalogError,
    KeyConstraintError,
    StorageBackendError,
    StorageError,
    UnknownCatalogError,
    UnknownTableError,
)
from repro.service.registry import CatalogRegistry
from repro.storage import (
    HotTierCache,
    MemoryBackend,
    SQLiteBackend,
    StorageCatalog,
    ingest_catalog,
)
from repro.tables.catalog import Catalog
from repro.tables.io import save_table_csv
from repro.tables.table import Table


def make_catalog():
    comp = Table(
        "Comp",
        ["Id", "Name"],
        [("1", "Microsoft"), ("2", "IBM"), ("3", "Apple")],
        keys=[("Id",)],
    )
    regions = Table(
        "Reg",
        ["Code", "City"],
        [("MS", "Redmond"), ("NY", "Armonk"), ("", "Unknown")],
    )
    return Catalog([comp, regions]).freeze()


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, tmp_path):
    catalog = make_catalog()
    if request.param == "memory":
        opened = MemoryBackend(catalog)
    else:
        path = tmp_path / "catalog.db"
        ingest_catalog(path, catalog)
        opened = SQLiteBackend(path)
    yield opened
    opened.close()


class TestProtocolConformance:
    def test_snapshot_metadata_matches_catalog(self, backend):
        catalog = make_catalog()
        snapshot = backend.snapshot()
        assert snapshot.generation == 1
        assert snapshot.fingerprint == catalog.fingerprint()
        assert [meta.name for meta in snapshot.tables] == ["Comp", "Reg"]
        for meta, table in zip(snapshot.tables, catalog.tables()):
            assert meta.columns == table.columns
            assert meta.keys == table.keys
            assert meta.num_rows == table.num_rows
            assert meta.fingerprint == table.fingerprint()
            assert meta.data_fingerprint == table.data_fingerprint()

    def test_row_tier(self, backend):
        snapshot = backend.snapshot()
        assert snapshot.row(0, 1) == ("2", "IBM")
        assert snapshot.rows(0, 0, 2) == [("1", "Microsoft"), ("2", "IBM")]
        # Clamped like a slice, not an error.
        assert snapshot.rows(0, 2, 99) == [("3", "Apple")]
        assert snapshot.rows(1, 5, 9) == []

    def test_posting_tier(self, backend):
        catalog = make_catalog()
        snapshot = backend.snapshot()
        assert snapshot.value_rows(0, 1, "IBM") == (1,)
        assert snapshot.value_rows(0, 1, "nope") == ()
        for value in ["IBM", "MS", "", "absent"]:
            assert snapshot.occurrences(value) == catalog.occurrences_of(value)
        assert snapshot.distinct_values() == catalog.distinct_values()

    def test_substring_tier(self, backend):
        oracle = make_catalog().substring_index().build()
        index = backend.snapshot().substring_index().build()
        assert len(index) == len(oracle)
        assert list(index.values) == list(oracle.values)
        for probe in ["Microsoft talks to IBM", "MS", "Armonk", "zzz", ""]:
            assert index.contained_in(probe) == oracle.contained_in(probe)
            assert index.containing(probe) == oracle.containing(probe)
            for min_len in (1, 2, 4):
                assert index.overlapping(probe, min_len) == oracle.overlapping(
                    probe, min_len
                )
        for value in ["IBM", "Redmond", "absent"]:
            assert index.id_of(value) == oracle.id_of(value)

    def test_append_rows_moves_head_and_pins_old_snapshots(self, backend):
        before = backend.snapshot()
        after = backend.append_rows("Comp", [("4", "Google")])
        assert after.generation == before.generation + 1
        assert after.tables[0].num_rows == 4
        assert before.tables[0].num_rows == 3  # pinned view unchanged
        oracle = make_catalog().with_rows("Comp", [("4", "Google")])
        assert after.fingerprint == oracle.fingerprint()
        assert after.occurrences("Google") == oracle.occurrences_of("Google")

    def test_zero_row_append_is_a_noop(self, backend):
        head = backend.snapshot()
        again = backend.append_rows("Comp", [])
        assert again.generation == head.generation
        assert again.fingerprint == head.fingerprint

    def test_failed_append_rolls_back(self, backend):
        head = backend.snapshot()
        with pytest.raises(KeyConstraintError):
            backend.append_rows("Comp", [("1", "DuplicateKey")])
        with pytest.raises(UnknownTableError):
            backend.append_rows("Absent", [("x",)])
        assert backend.snapshot().generation == head.generation
        assert backend.snapshot().fingerprint == head.fingerprint

    def test_add_table(self, backend):
        grown = backend.add_table(Table("Extra", ["K"], [("k1",), ("k2",)]))
        oracle = make_catalog().with_table(Table("Extra", ["K"], [("k1",), ("k2",)]))
        assert [meta.name for meta in grown.tables] == ["Comp", "Reg", "Extra"]
        assert grown.fingerprint == oracle.fingerprint()
        assert grown.distinct_values() == oracle.distinct_values()

    def test_closed_backend_refuses(self, backend):
        backend.close()
        with pytest.raises(StorageBackendError):
            backend.snapshot()
        backend.close()  # idempotent


class TestSQLiteSpecifics:
    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "catalog.db"
        ingest_catalog(path, make_catalog())
        first = SQLiteBackend(path)
        appended = first.append_rows("Comp", [("4", "Google")])
        first.close()
        second = SQLiteBackend(path)
        head = second.snapshot()
        assert head.generation == appended.generation
        assert head.fingerprint == appended.fingerprint
        assert head.rows(0, 3, 4) == [("4", "Google")]
        second.close()

    def test_historical_snapshot_is_mvcc(self, tmp_path):
        path = tmp_path / "catalog.db"
        original = make_catalog()
        ingest_catalog(path, original)
        backend = SQLiteBackend(path)
        backend.append_rows("Comp", [("4", "Google")])
        old = backend.snapshot(generation=1)
        assert old.fingerprint == original.fingerprint()
        assert old.distinct_values() == original.distinct_values()
        assert old.occurrences("Google") == ()
        backend.close()

    def test_refuses_missing_and_foreign_files(self, tmp_path):
        with pytest.raises(StorageError):
            SQLiteBackend(tmp_path / "absent.db")
        garbage = tmp_path / "garbage.db"
        garbage.write_bytes(b"not a database at all")
        with pytest.raises(StorageError):
            SQLiteBackend(garbage)

    def test_ingest_refuses_existing_path(self, tmp_path):
        path = tmp_path / "catalog.db"
        ingest_catalog(path, make_catalog())
        with pytest.raises(StorageError):
            ingest_catalog(path, make_catalog())

    def test_duplicate_table_and_sources(self, tmp_path):
        path = tmp_path / "catalog.db"
        ingest_catalog(path, make_catalog(), sources={"Comp.csv": "abc"})
        backend = SQLiteBackend(path)
        assert backend.sources() == {"Comp.csv": "abc"}
        with pytest.raises(DuplicateTableError):
            backend.add_table(Table("Comp", ["X"], [("1",)]))
        backend.close()

    def test_cache_stats_shape(self, tmp_path):
        path = tmp_path / "catalog.db"
        ingest_catalog(path, make_catalog())
        backend = SQLiteBackend(path, cache_limit=8)
        snapshot = backend.snapshot()
        snapshot.row(0, 0)
        snapshot.row(0, 0)
        stats = backend.cache_stats()
        assert stats["limit"] == 8
        assert stats["hits"] >= 1 and stats["misses"] >= 1
        backend.close()


class TestStorageCatalogAdapter:
    @pytest.fixture
    def disk(self, tmp_path):
        path = tmp_path / "catalog.db"
        ingest_catalog(path, make_catalog())
        backend = SQLiteBackend(path)
        yield StorageCatalog(backend)
        backend.close()

    def test_storage_backed_flags(self, disk):
        assert disk.storage_backed is True
        assert make_catalog().storage_backed is False
        assert disk.materialize().storage_backed is False

    def test_is_frozen(self, disk):
        with pytest.raises(FrozenCatalogError):
            disk.add(Table("New", ["A"], [("x",)]))

    def test_materialize_is_the_oracle(self, disk):
        oracle = make_catalog()
        materialized = disk.materialize()
        assert materialized.fingerprint() == oracle.fingerprint()
        for name in oracle.table_names():
            assert materialized.table(name) == oracle.table(name)

    def test_table_queries(self, disk):
        oracle = make_catalog()
        table = disk.table("Comp")
        base = oracle.table("Comp")
        assert table.num_rows == 3
        assert tuple(table.rows) == tuple(base.rows)
        assert table.rows[1] == ("2", "IBM")
        assert table.rows[-1] == ("3", "Apple")
        assert table.rows[0:2] == list(base.rows[0:2])
        assert table.cell("Name", 2) == "Apple"
        assert table.value_rows("Name", "IBM") == (1,)
        assert table.find_rows({"Name": "IBM"}) == base.find_rows({"Name": "IBM"})
        assert table.row_by_key(("Id",), ("2",)) == base.row_by_key(("Id",), ("2",))
        assert table.row_by_key(("Id",), ("99",)) is None
        assert table.fingerprint() == base.fingerprint()
        assert table.data_fingerprint(2) == base.data_fingerprint(2)

    def test_row_by_key_requires_declared_key(self, disk):
        with pytest.raises(KeyConstraintError):
            disk.table("Comp").row_by_key(("Name",), ("IBM",))

    def test_with_rows_goes_through_backend(self, disk):
        grown = disk.with_rows("Comp", [("4", "Google")])
        assert grown.storage_backed
        assert grown.generation == disk.generation + 1
        oracle = make_catalog().with_rows("Comp", [("4", "Google")])
        assert grown.fingerprint() == oracle.fingerprint()
        # Zero-row appends return the same snapshot object.
        assert grown.with_rows("Comp", []) is grown

    def test_with_table_extension_and_rejection(self, disk):
        extended = disk.table("Comp").extended([("4", "Google")])
        grown = disk.with_table(extended)
        assert grown.table("Comp").num_rows == 4
        replacement = Table("Comp", ["Id", "Name"], [("9", "Zed")])
        with pytest.raises(StorageBackendError):
            grown.with_table(replacement)

    def test_occurrence_and_distinct_delegation(self, disk):
        oracle = make_catalog()
        assert disk.occurrences_of("IBM") == oracle.occurrences_of("IBM")
        assert disk.distinct_values() == oracle.distinct_values()
        assert disk.fingerprint() == oracle.fingerprint()
        assert len(disk) == len(oracle)
        assert disk.table_names() == oracle.table_names()
        assert "Comp" in disk and "Absent" not in disk


class TestStorageCatalogInSynthesizer:
    def test_served_directly_or_materialized(self, tmp_path):
        from repro.api.engine import Synthesizer

        path = tmp_path / "catalog.db"
        ingest_catalog(path, make_catalog())
        backend = SQLiteBackend(path)
        disk = StorageCatalog(backend)
        direct = Synthesizer(catalog=disk)
        assert direct.catalog is disk  # served through the backend
        resident = Synthesizer(catalog=disk.materialize())
        assert not resident.catalog.storage_backed
        assert resident.catalog.fingerprint() == disk.fingerprint()
        backend.close()


class TestHotTierCache:
    def test_lru_eviction_and_stats(self):
        cache = HotTierCache(limit=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.lookup("a") == (1, True)  # refreshes "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.lookup("b") == (None, False)
        assert cache.lookup("a") == (1, True)
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        assert stats["hits"] == 2 and stats["misses"] == 1

    def test_get_or_computes_once_per_resident_key(self):
        cache = HotTierCache(limit=4)
        calls = []
        assert cache.get_or("k", lambda: calls.append(1) or "v") == "v"
        assert cache.get_or("k", lambda: calls.append(1) or "v") == "v"
        assert len(calls) == 1

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            HotTierCache(limit=0)


class TestRegistryStorageTiers:
    @pytest.fixture
    def root(self, tmp_path):
        directory = tmp_path / "catalogs" / "prod"
        directory.mkdir(parents=True)
        save_table_csv(make_catalog().table("Comp"), directory / "Comp.csv")
        save_table_csv(make_catalog().table("Reg"), directory / "Reg.csv")
        return tmp_path / "catalogs"

    def test_validation(self, tmp_path):
        with pytest.raises(CatalogRegistryError):
            CatalogRegistry(storage="sqlite")  # no root
        with pytest.raises(CatalogRegistryError):
            CatalogRegistry(snapshots=True)  # no root
        with pytest.raises(CatalogRegistryError):
            CatalogRegistry(tmp_path, storage="papyrus")

    def test_sqlite_appends_survive_restart(self, root):
        registry = CatalogRegistry(root, storage="sqlite")
        catalog = registry.get("prod")
        assert catalog.storage_backed and catalog.backend.tier == "sqlite"
        grown = registry.append_rows("prod", "Comp", [("4", "Google")])
        registry.close()

        reopened = CatalogRegistry(root, storage="sqlite")
        after = reopened.get("prod")
        assert after.fingerprint() == grown.fingerprint()
        assert after.table("Comp").num_rows == 4
        # Same CSVs -> the database was reused, not re-ingested.
        assert len(list((root / "prod").glob("catalog*.db"))) == 1
        reopened.close()

    def test_csv_edit_triggers_versioned_reingest(self, root):
        registry = CatalogRegistry(root, storage="sqlite")
        registry.get("prod")
        registry.close()
        save_table_csv(
            Table("Comp", ["Id", "Name"], [("9", "Only")], keys=[("Id",)]),
            root / "prod" / "Comp.csv",
        )
        reopened = CatalogRegistry(root, storage="sqlite")
        catalog = reopened.get("prod")
        assert catalog.table("Comp").num_rows == 1
        # Never replaced in place: a second versioned file appears.
        assert len(list((root / "prod").glob("catalog*.db"))) == 2
        reopened.close()

    def test_create_on_upload_is_durable(self, root):
        registry = CatalogRegistry(root, storage="sqlite")
        created = registry.add_table("fresh", Table("F", ["x"], [("1",)]))
        assert created.storage_backed
        registry.close()
        reopened = CatalogRegistry(root, storage="sqlite")
        assert reopened.get("fresh").table("F").num_rows == 1
        with pytest.raises(UnknownCatalogError):
            reopened.append_rows("absent", "F", [("2",)])
        assert not (root / "absent").exists()
        reopened.close()

    def test_memory_snapshots_cold_start(self, root):
        registry = CatalogRegistry(root, snapshots=True)
        catalog = registry.get("prod")
        assert not catalog.storage_backed
        grown = registry.append_rows("prod", "Comp", [("4", "Google")])
        assert registry.flush_snapshots()
        registry.close()
        reopened = CatalogRegistry(root, snapshots=True)
        cold = reopened.get("prod")
        # The snapshot recorded the *appended* state (CSVs unchanged).
        assert cold.fingerprint() == grown.fingerprint()
        info = reopened.tier_info("prod")
        assert info["tier"] == "memory" and info["resident"] is True
        assert info["snapshot"] is not None
        reopened.close()

    def test_save_snapshot_refuses_sqlite_tier(self, root):
        registry = CatalogRegistry(root, storage="sqlite")
        registry.get("prod")
        with pytest.raises(CatalogRegistryError):
            registry.save_snapshot("prod")
        registry.close()

    def test_tier_info_sqlite(self, root):
        registry = CatalogRegistry(root, storage="sqlite")
        registry.get("prod")
        info = registry.tier_info("prod")
        assert info["tier"] == "sqlite"
        assert info["resident"] is False
        assert info["generation"] == 1
        assert "hot_cache" in info
        registry.close()
