"""Versioned persistent index snapshots: O(1) serve cold-starts.

A catalog's expensive state -- the distinct-value scan order and the
log-structured Aho-Corasick segment forest -- is deterministic given
the data, yet today every process start rebuilds it from CSV.  This
module persists that state under the catalog's directory so a restart
*loads* instead of rebuilds:

``<dir>/manifest-000007.json``
    One JSON manifest per snapshot version: catalog fingerprint, source
    file hashes, blob references and a self-checksum.  Written with an
    atomic rename, so a crash mid-save leaves the previous version
    intact and loadable (the crash-recovery tests kill writers mid-save
    and assert exactly this).

``<dir>/objects/<sha256>.bin``
    Content-addressed ``marshal`` blobs: one per table (rows + key
    indexes + fingerprints), one for the distinct-value order, one for
    the q-gram postings and **one per Aho-Corasick segment**.  Blob
    names are the SHA-256 of the bytes, so loads self-verify and an
    append-grown catalog re-uses every unchanged blob -- in the common
    case a new snapshot writes the grown table, the derived order and
    only the *new* automaton segments (the same size-doubling merge
    schedule the in-memory forest follows).

The load path is tiered for O(1) cold starts.  Eagerly decoded: the
manifest, per-table rows and the distinct order -- milliseconds even
at 100k cells, enough to serve fingerprints and keyed fills.  Lazily
decoded: the gram postings and automaton segments
(:class:`_LazySubstringIndex` decodes them on the first containment
query).  Not persisted at all: the occurrence postings, key-row
mappings and per-column row indexes, which cost as much to deserialize
as to rebuild from the already-resident rows (:class:`_LazyValueIndex`
replays ``Catalog.add``'s scan on first access; ``Table`` rebuilds
``_key_row_index`` and ``_value_rows`` lazily by design).

Loading walks manifests newest-first and takes the first one that
passes every check (parseable, checksum, eager blobs hash-verified,
lazy blobs present on disk, sources match, fingerprint chain
consistent); corrupt or torn versions are skipped, never trusted.
Because blobs are written atomically under their own content hash, a
crash can tear the *manifest* (caught by its checksum) or drop a blob
(caught by the existence check) but never corrupt a blob in place --
so lazy blobs defer their hash check to decode time, where bit rot
surfaces as :class:`SnapshotError` rather than a silent fallback.
``gc_snapshots`` prunes old manifests and any blobs no kept manifest
references.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.exceptions import SnapshotError
from repro.tables.catalog import Catalog, Occurrence
from repro.tables.substring_index import SubstringIndex, _AhoCorasick
from repro.tables.table import Table

SNAPSHOT_FORMAT = 2
_MANIFEST_GLOB = "manifest-*.json"


def hash_sources(paths: Iterable[Union[str, Path]]) -> Dict[str, str]:
    """``{file name: sha256 of contents}`` for the given source files.

    Recorded in manifests (and the SQLite ``meta`` table) so a snapshot
    is only ever served for the exact CSVs it was built from.
    """
    hashes: Dict[str, str] = {}
    for path in sorted(Path(p) for p in paths):
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
        hashes[path.name] = digest.hexdigest()
    return hashes


def _manifest_checksum(manifest: Dict) -> str:
    trimmed = {key: value for key, value in manifest.items() if key != "checksum"}
    payload = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _manifest_version(path: Path) -> int:
    return int(path.stem.split("-", 1)[1])


def _manifests(directory: Path) -> List[Path]:
    """Manifest paths, newest version first."""
    found = []
    for path in directory.glob(_MANIFEST_GLOB):
        try:
            _manifest_version(path)
        except (IndexError, ValueError):
            continue
        found.append(path)
    return sorted(found, key=_manifest_version, reverse=True)


def _read_manifest(path: Path) -> Optional[Dict]:
    """The parsed manifest iff it is complete and self-consistent."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(manifest, dict) or manifest.get("format") != SNAPSHOT_FORMAT:
        return None
    if manifest.get("checksum") != _manifest_checksum(manifest):
        return None
    return manifest


def _atomic_write(path: Path, data: bytes) -> None:
    handle, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _store_blob(objects: Path, payload: object) -> str:
    data = marshal.dumps(payload)
    sha = hashlib.sha256(data).hexdigest()
    blob = objects / f"{sha}.bin"
    if not blob.exists():
        _atomic_write(blob, data)
    return sha


def _read_blob_bytes(objects: Path, sha: str) -> bytes:
    data = (objects / f"{sha}.bin").read_bytes()
    if hashlib.sha256(data).hexdigest() != sha:
        raise SnapshotError(f"blob {sha} fails its content hash")
    return data


def _load_blob(objects: Path, sha: str) -> object:
    return marshal.loads(_read_blob_bytes(objects, sha))


def latest_snapshot_info(
    directory: Union[str, Path]
) -> Optional[Dict[str, object]]:
    """Version/fingerprint/sources of the newest intact manifest, if any."""
    directory = Path(directory)
    if not directory.is_dir():
        return None
    for path in _manifests(directory):
        manifest = _read_manifest(path)
        if manifest is not None:
            return {
                "path": str(path),
                "version": int(manifest["version"]),
                "fingerprint": manifest["fingerprint"],
                "sources": manifest["sources"],
                "segments": len(manifest["segments"]),
            }
    return None


def save_catalog_snapshot(
    directory: Union[str, Path],
    catalog: Catalog,
    sources: Optional[Dict[str, str]] = None,
) -> Dict[str, object]:
    """Persist ``catalog``'s data + derived indexes as the next version.

    Forces the lazily built structures first (value postings, substring
    segments) -- the whole point is that the *next* process start skips
    those builds.  No-ops (returning the existing info) when the newest
    intact snapshot already covers this fingerprint and sources.
    """
    directory = Path(directory)
    sources = sources or {}
    existing = latest_snapshot_info(directory)
    if (
        existing is not None
        and existing["fingerprint"] == catalog.fingerprint()
        and existing["sources"] == sources
    ):
        return existing
    catalog.freeze()
    index = catalog.substring_index().build()
    objects = directory / "objects"
    objects.mkdir(parents=True, exist_ok=True)
    table_entries = []
    for table in catalog.tables():
        state = table.__getstate__()
        # The key-row mappings cost more to decode than to rebuild from
        # the rows; drop them and let the loaded table recreate them on
        # its first keyed lookup.
        state["_key_row_index"] = None
        table_entries.append(
            {
                "name": table.name,
                "blob": _store_blob(
                    objects,
                    {
                        "state": state,
                        "fingerprint": table.fingerprint(),
                        "data_fingerprint": table.data_fingerprint(),
                    },
                ),
            }
        )
    derived_blob = _store_blob(
        objects, {"distinct": list(catalog.distinct_values())}
    )
    grams_blob = _store_blob(objects, index._grams)
    segment_entries = [
        {
            "start": start,
            "blob": _store_blob(
                objects,
                (automaton._goto, automaton._fail, automaton._out),
            ),
        }
        for start, automaton in (index._segments or [])
    ]
    version = (existing["version"] + 1) if existing is not None else 1
    manifest = {
        "format": SNAPSHOT_FORMAT,
        "version": version,
        "fingerprint": catalog.fingerprint(),
        "sources": sources,
        "tables": table_entries,
        "derived": derived_blob,
        "grams": grams_blob,
        "segments": segment_entries,
    }
    manifest["checksum"] = _manifest_checksum(manifest)
    path = directory / f"manifest-{version:06d}.json"
    _atomic_write(
        path, json.dumps(manifest, sort_keys=True, indent=1).encode("utf-8")
    )
    return {
        "path": str(path),
        "version": version,
        "fingerprint": manifest["fingerprint"],
        "sources": sources,
        "segments": len(segment_entries),
    }


def load_catalog_snapshot(
    directory: Union[str, Path],
    sources: Optional[Dict[str, str]] = None,
) -> Optional[Catalog]:
    """The newest loadable snapshot as a frozen catalog, or ``None``.

    ``sources`` (when given) must equal the manifest's recorded source
    hashes -- a changed CSV silently invalidates every older snapshot.
    Each candidate version is verified end to end (manifest checksum,
    blob content hashes, fingerprint chain); the first failure falls
    back to the next older version, and ``None`` means "rebuild".
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    objects = directory / "objects"
    for path in _manifests(directory):
        manifest = _read_manifest(path)
        if manifest is None:
            continue
        if sources is not None and manifest["sources"] != sources:
            continue
        try:
            return _reconstruct(objects, manifest)
        except (SnapshotError, OSError, KeyError, EOFError,
                AttributeError, TypeError, ValueError):
            continue  # torn/corrupt version: fall back to an older one
    return None


class _LazyValueIndex(dict):
    """Value -> occurrence postings, rebuilt from rows on first access.

    Decoding N persisted ``Occurrence`` objects costs as much as
    recreating them from the (already resident) rows, so snapshots do
    not store the value index at all: this placeholder replays exactly
    ``Catalog.add``'s scan the first time any consumer needs postings.
    The distinct-value *order* does not depend on this -- the loaded
    catalog pins ``_distinct_cache`` from the manifest blob.

    Every read path funnels through :meth:`_ensure`; ``copy()`` returns
    a plain dict (``Catalog._cow_shell`` relies on that), and pickling
    (process-parallel batch synthesis ships whole catalogs to workers)
    reduces to a plain dict too.
    """

    __slots__ = ("_tables",)

    def __init__(self, tables: List[Table]) -> None:
        super().__init__()
        self._tables: Optional[List[Table]] = list(tables)

    def _ensure(self) -> None:
        tables = self._tables
        if tables is None:
            return
        self._tables = None
        setdefault = super().setdefault
        for table in tables:
            name = table.name
            columns = table.columns
            for row_number, row in enumerate(table.rows):
                for column, value in zip(columns, row):
                    setdefault(value, []).append(
                        Occurrence(name, column, row_number)
                    )

    def __getitem__(self, key):
        self._ensure()
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self._ensure()
        return dict.get(self, key, default)

    def setdefault(self, key, default=None):
        self._ensure()
        return dict.setdefault(self, key, default)

    def __contains__(self, key) -> bool:
        self._ensure()
        return dict.__contains__(self, key)

    def __iter__(self):
        self._ensure()
        return dict.__iter__(self)

    def __len__(self) -> int:
        self._ensure()
        return dict.__len__(self)

    def __eq__(self, other) -> bool:
        self._ensure()
        if isinstance(other, _LazyValueIndex):
            other._ensure()
        return dict.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def keys(self):
        self._ensure()
        return dict.keys(self)

    def values(self):
        self._ensure()
        return dict.values(self)

    def items(self):
        self._ensure()
        return dict.items(self)

    def copy(self) -> dict:
        self._ensure()
        return dict(self)

    def __reduce__(self):
        return (dict, (self.copy(),))


def _restore_substring_index(values, grams, segments) -> SubstringIndex:
    """Pickle reducer target: a plain built index from its parts."""
    index: SubstringIndex = SubstringIndex.__new__(SubstringIndex)
    index.values = tuple(values)
    index._id_of = {value: i for i, value in enumerate(index.values)}
    index._lengths = tuple(len(value) for value in index.values)
    index._grams = grams
    index._segments = segments
    return index


class _LazySubstringIndex(SubstringIndex):
    """A substring index whose matchers decode from snapshot blobs.

    Only ``values`` is materialized at load time.  The value-id map and
    length table rebuild on first use (:meth:`_ensure_ids`); the gram
    postings and Aho-Corasick segments -- the expensive 90% -- stay on
    disk as content-addressed ``marshal`` blobs until the first
    containment query forces :meth:`build`, which hash-verifies each
    blob as it decodes it.  Every other query method of the base class
    already gates on ``build()``, so only the loading changes.
    """

    __slots__ = ("_loader",)

    def _ensure_ids(self) -> None:
        if self._id_of is None:
            self._id_of = {value: i for i, value in enumerate(self.values)}
            self._lengths = tuple(len(value) for value in self.values)

    def build(self) -> "SubstringIndex":
        if self._segments is None:
            self._ensure_ids()
            objects, grams_sha, segment_parts = self._loader
            grams = marshal.loads(_read_blob_bytes(objects, grams_sha))
            segments: List[Tuple[int, _AhoCorasick]] = []
            for start, sha in segment_parts:
                goto, fail, out = marshal.loads(
                    _read_blob_bytes(objects, sha)
                )
                automaton = _AhoCorasick.__new__(_AhoCorasick)
                automaton._goto = goto
                automaton._fail = fail
                automaton._out = out
                segments.append((start, automaton))
            self._grams = grams
            self._segments = segments
            self._loader = None
        return self

    def id_of(self, value: str) -> Optional[int]:
        self._ensure_ids()
        return super().id_of(value)

    def overlapping(self, text: str, min_len: int = 1) -> List[int]:
        self._ensure_ids()
        return super().overlapping(text, min_len)

    def extended(self, new_values) -> "SubstringIndex":
        # Force the persisted matchers in first: extending an "unbuilt"
        # index would silently forfeit them and rebuild from scratch on
        # the next query.
        self.build()
        return super().extended(new_values)

    def __reduce__(self):
        self.build()
        return (
            _restore_substring_index,
            (self.values, self._grams, self._segments),
        )


def _reconstruct(objects: Path, manifest: Dict) -> Catalog:
    tables: List[Table] = []
    for entry in manifest["tables"]:
        payload = _load_blob(objects, entry["blob"])
        table: Table = Table.__new__(Table)
        table.__setstate__(payload["state"])
        table._fingerprint = payload["fingerprint"]
        table._data_fingerprint = payload["data_fingerprint"]
        tables.append(table)
    derived = _load_blob(objects, manifest["derived"])
    # The deferred blobs are only checked for *presence* here: atomic
    # writes mean a blob either exists intact under its content hash or
    # not at all, so a torn save is caught now (fall back to an older
    # version) while the hash check rides along with the lazy decode.
    grams_sha = manifest["grams"]
    segment_parts = [
        (entry["start"], entry["blob"]) for entry in manifest["segments"]
    ]
    for sha in [grams_sha] + [sha for _, sha in segment_parts]:
        if not (objects / f"{sha}.bin").is_file():
            raise SnapshotError(f"blob {sha} is missing")

    catalog: Catalog = Catalog.__new__(Catalog)
    catalog._tables = {table.name: table for table in tables}
    catalog._order = [table.name for table in tables]
    catalog._value_index = _LazyValueIndex(tables)
    catalog._occurrence_cache = {}
    catalog._distinct_cache = tuple(derived["distinct"])
    catalog._fingerprint = manifest["fingerprint"]
    catalog._frozen = True

    index: _LazySubstringIndex = _LazySubstringIndex.__new__(
        _LazySubstringIndex
    )
    # Value ids follow distinct order with empty cells skipped; reuse
    # the distinct tuple outright when nothing needs skipping.
    distinct = catalog._distinct_cache
    index.values = (
        tuple(v for v in distinct if v) if "" in distinct else distinct
    )
    index._id_of = None
    index._lengths = None
    index._grams = None
    index._segments = None
    index._loader = (objects, grams_sha, segment_parts)
    catalog._substring_index = index

    # Cross-check the fingerprint chain against the loaded tables: a
    # wrong-but-well-hashed blob combination must not be served.
    digest = hashlib.sha256()
    for table in tables:
        digest.update(table.fingerprint().encode("ascii"))
        digest.update(b"\x00")
    if digest.hexdigest() != manifest["fingerprint"]:
        raise SnapshotError("fingerprint chain mismatch")
    return catalog


def gc_snapshots(
    directory: Union[str, Path], keep: int = 2
) -> Dict[str, object]:
    """Prune old manifest versions, orphaned blobs and stray tmp files."""
    if keep < 1:
        raise SnapshotError(f"gc must keep at least 1 version, got {keep}")
    directory = Path(directory)
    objects = directory / "objects"
    manifests = _manifests(directory)
    kept, dropped = manifests[:keep], manifests[keep:]
    referenced = set()
    for path in kept:
        manifest = _read_manifest(path)
        if manifest is None:
            continue
        referenced.add(manifest["derived"])
        referenced.add(manifest["grams"])
        for entry in manifest["tables"]:
            referenced.add(entry["blob"])
        for entry in manifest["segments"]:
            referenced.add(entry["blob"])
    removed_blobs = 0
    if objects.is_dir():
        for blob in objects.glob("*.bin"):
            if blob.stem not in referenced:
                blob.unlink()
                removed_blobs += 1
        for stray in objects.glob("*.tmp"):
            stray.unlink()
            removed_blobs += 1
    for path in dropped:
        path.unlink()
    for stray in directory.glob("*.tmp"):
        stray.unlink()
    return {
        "kept_versions": [_manifest_version(path) for path in kept],
        "removed_manifests": len(dropped),
        "removed_blobs": removed_blobs,
    }
