"""The disk-backed catalog storage tier (ROADMAP open item 1).

Today's catalogs are fully RAM-resident: CSV load builds the value /
occurrence / substring indexes in memory and a restart rebuilds all of
it.  This package demotes those structures to a *hot tier* over a
pluggable durable backend:

* :class:`StorageBackend` / :class:`StorageSnapshot` -- the protocol a
  backend satisfies: immutable generation-pinned snapshots answering
  row fetches, value->rows postings, occurrence postings, substring /
  n-gram candidate queries and fingerprint metadata, plus append-only
  growth (``append_rows`` / ``add_table``).
* :class:`MemoryBackend` -- the existing in-memory structures
  (:class:`~repro.tables.catalog.Catalog` and friends) refactored to
  satisfy the protocol; copy-on-write generations, everything resident.
* :class:`SQLiteBackend` -- one SQLite file per catalog (WAL mode,
  ``busy_timeout``), value->rows and n-gram posting tables, app-level
  MVCC (monotone generations, append-only rows) so readers pin a
  consistent snapshot while writers append; a bounded
  :class:`HotTierCache` keeps recently touched rows/postings resident.
* :class:`StorageCatalog` / :class:`StorageTable` -- drop-in
  :class:`Catalog` / :class:`Table` subclasses serving every query
  through a snapshot, so the synthesis engine runs unchanged over
  either backend.  ``materialize()`` lifts a snapshot back into a plain
  in-memory catalog (for background merges, and the reference the
  storage tests compare against).
* :mod:`repro.storage.snapshot` -- versioned persistent index
  snapshots for in-memory catalogs (content-addressed blobs, atomic
  manifests, checksum-verified loads) giving ``repro serve`` an O(1)
  cold start instead of an index rebuild.
"""

from repro.storage.backend import StorageBackend, StorageSnapshot, TableMeta
from repro.storage.cache import HotTierCache
from repro.storage.catalog import StorageCatalog, StorageTable
from repro.storage.memory import MemoryBackend
from repro.storage.snapshot import (
    gc_snapshots,
    hash_sources,
    latest_snapshot_info,
    load_catalog_snapshot,
    save_catalog_snapshot,
)
from repro.storage.sqlite import SQLiteBackend, ingest_catalog

__all__ = [
    "HotTierCache",
    "MemoryBackend",
    "SQLiteBackend",
    "ingest_catalog",
    "StorageBackend",
    "StorageCatalog",
    "StorageSnapshot",
    "StorageTable",
    "TableMeta",
    "gc_snapshots",
    "hash_sources",
    "latest_snapshot_info",
    "load_catalog_snapshot",
    "save_catalog_snapshot",
]
