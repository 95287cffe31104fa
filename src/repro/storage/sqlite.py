"""The SQLite storage backend: one WAL-mode file per catalog.

Large catalogs are *queried* here instead of resident: rows, per-column
value->rows postings, catalog-wide occurrence postings and the n-gram
posting table all live in one SQLite file, and a bounded
:class:`~repro.storage.cache.HotTierCache` keeps the recently touched
answers hot.

**Schema** (see PERFORMANCE.md for the full walkthrough)::

    meta(key, value)                     -- format version, source shas
    gens(generation PK, fingerprint)     -- catalog fingerprint history
    tbl(position PK, name, columns, keys_declared, max_key_width,
        generation)                      -- immutable table identity
    growth(position, generation, num_rows, keys, fingerprint,
           data_fingerprint)             -- per-generation table state
    rowdata(position, row_number, cells) -- rows, JSON-encoded cells
    cell(value, position, row_number, col)  -- value->rows + occurrences
    val(id PK, value UNIQUE, length, generation)  -- distinct values
    firstocc(val_id, generation, position, row_number, col)
                                         -- first-occurrence history
    gram(gram, val_id)                   -- q-gram postings (widths 1..3)

**Concurrency / MVCC.**  The file runs in WAL mode with a
``busy_timeout``; every mutation is one ``BEGIN IMMEDIATE`` transaction
that only *inserts* (rows, cells, vals, grams, a ``growth`` row and a
``gens`` row at generation ``G+1``) -- nothing is ever updated or
deleted.  A snapshot therefore pins ``(generation, fingerprint,
per-table row bounds)`` read in one transaction, and every later query
filters by those bounds (``row_number < bound``, ``val.generation <=
G``), so a reader's view is consistent without holding any lock open:
concurrent appends land at generations the reader's filters exclude.
Torn fingerprints are impossible -- the ``gens`` row commits
atomically with the data it describes.

**Value ids vs ranks.**  The in-memory substring index numbers values
by catalog scan order *after every append* (a moved first occurrence
renumbers); stored ``val.id`` is insertion order and immutable.  A
snapshot exposes *ranks* -- scan-order positions at its generation,
derived from the ``firstocc`` history -- as its ids, with an identity
fast path when no value ever moved, keeping query results
byte-identical to the in-memory structures.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.exceptions import (
    DuplicateTableError,
    StorageBackendError,
    StorageError,
    UnknownTableError,
)
from repro.storage.backend import StorageBackend, StorageSnapshot, TableMeta
from repro.storage.cache import HotTierCache
from repro.tables.catalog import Catalog, Occurrence
from repro.tables.substring_index import MAX_GRAM
from repro.tables.table import Table

FORMAT_VERSION = 1

_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE gens (
    generation INTEGER PRIMARY KEY,
    fingerprint TEXT NOT NULL
);
CREATE TABLE tbl (
    position INTEGER PRIMARY KEY,
    name TEXT UNIQUE NOT NULL,
    columns TEXT NOT NULL,
    keys_declared INTEGER NOT NULL,
    max_key_width INTEGER NOT NULL,
    generation INTEGER NOT NULL
);
CREATE TABLE growth (
    position INTEGER NOT NULL,
    generation INTEGER NOT NULL,
    num_rows INTEGER NOT NULL,
    keys TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    data_fingerprint TEXT NOT NULL,
    PRIMARY KEY (position, generation)
) WITHOUT ROWID;
CREATE TABLE rowdata (
    position INTEGER NOT NULL,
    row_number INTEGER NOT NULL,
    cells TEXT NOT NULL,
    PRIMARY KEY (position, row_number)
) WITHOUT ROWID;
CREATE TABLE cell (
    value TEXT NOT NULL,
    position INTEGER NOT NULL,
    row_number INTEGER NOT NULL,
    col INTEGER NOT NULL,
    PRIMARY KEY (value, position, row_number, col)
) WITHOUT ROWID;
CREATE TABLE val (
    id INTEGER PRIMARY KEY,
    value TEXT UNIQUE NOT NULL,
    length INTEGER NOT NULL,
    generation INTEGER NOT NULL
);
CREATE TABLE firstocc (
    val_id INTEGER NOT NULL,
    generation INTEGER NOT NULL,
    position INTEGER NOT NULL,
    row_number INTEGER NOT NULL,
    col INTEGER NOT NULL,
    PRIMARY KEY (val_id, generation)
) WITHOUT ROWID;
CREATE TABLE gram (
    gram TEXT NOT NULL,
    val_id INTEGER NOT NULL,
    PRIMARY KEY (gram, val_id)
) WITHOUT ROWID;
"""

#: SQLite caps host parameters; stay well under the historical 999 floor.
_IN_CHUNK = 500


def _encode_row(row: Sequence[str]) -> str:
    return json.dumps(list(row), ensure_ascii=False, separators=(",", ":"))


def _decode_row(cells: str) -> Tuple[str, ...]:
    return tuple(json.loads(cells))


def _grams_of(value: str) -> Set[str]:
    """Distinct grams of widths ``1..min(MAX_GRAM, len)`` -- the exact
    gram universe :meth:`SubstringIndex.build` indexes per value."""
    grams: Set[str] = set()
    for width in range(1, min(MAX_GRAM, len(value)) + 1):
        for start in range(len(value) - width + 1):
            grams.add(value[start : start + width])
    return grams


def _chain_fingerprint(table_fingerprints: Iterable[str]) -> str:
    """``Catalog.fingerprint()`` over per-table fingerprints in order."""
    digest = hashlib.sha256()
    for fingerprint in table_fingerprints:
        digest.update(fingerprint.encode("ascii"))
        digest.update(b"\x00")
    return digest.hexdigest()


class SQLiteBackend(StorageBackend):
    """One catalog stored in one SQLite file (WAL, append-only MVCC)."""

    tier = "sqlite"

    def __init__(
        self,
        path: Union[str, Path],
        cache_limit: int = 65536,
        busy_timeout_ms: int = 5000,
    ) -> None:
        self.path = Path(path)
        if not self.path.is_file():
            raise StorageError(f"no sqlite catalog at {self.path}")
        self._busy_timeout_ms = busy_timeout_ms
        self._cache = HotTierCache(cache_limit)
        self._local = threading.local()
        self._conns: List[sqlite3.Connection] = []
        self._conns_lock = threading.Lock()
        self._closed = False
        try:
            conn = self._connect()
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'format_version'"
            ).fetchone()
        except sqlite3.Error as error:
            # Not a database / torn partial file: a storage-layer problem
            # (the registry falls back to re-ingesting), not a crash.
            self.close()
            raise StorageError(f"cannot open {self.path}: {error}") from None
        if row is None or int(row[0]) != FORMAT_VERSION:
            self.close()
            raise StorageError(
                f"{self.path} is not a format-{FORMAT_VERSION} repro catalog"
            )

    # -- connections ----------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        if self._closed:
            raise StorageBackendError(f"sqlite backend for {self.path} is closed")
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = _open_connection(self.path, self._busy_timeout_ms)
            self._local.conn = conn
            with self._conns_lock:
                self._conns.append(conn)
        return conn

    def close(self) -> None:
        with self._conns_lock:
            self._closed = True
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:  # pragma: no cover - best-effort teardown
                pass

    @property
    def closed(self) -> bool:
        return self._closed

    def cache_stats(self) -> Dict[str, object]:
        return self._cache.stats()

    def sources(self) -> Dict[str, str]:
        """The ``{csv filename: sha256}`` map recorded at ingest time."""
        row = self._connect().execute(
            "SELECT value FROM meta WHERE key = 'sources'"
        ).fetchone()
        return json.loads(row[0]) if row is not None else {}

    # -- snapshots ------------------------------------------------------
    def snapshot(self, generation: Optional[int] = None) -> "SQLiteSnapshot":
        """A consistent snapshot (head, or a pinned past ``generation``).

        The generation, catalog fingerprint and per-table bounds are
        read in **one** transaction, so a concurrent append can never
        produce a torn view (fingerprint from one generation, bounds
        from another).
        """
        conn = self._connect()
        conn.execute("BEGIN DEFERRED")
        try:
            if generation is None:
                head = conn.execute(
                    "SELECT generation, fingerprint FROM gens "
                    "ORDER BY generation DESC LIMIT 1"
                ).fetchone()
            else:
                head = conn.execute(
                    "SELECT generation, fingerprint FROM gens WHERE generation = ?",
                    (generation,),
                ).fetchone()
            if head is None:
                raise StorageError(
                    f"{self.path} has no generation"
                    + (f" {generation}" if generation is not None else "s")
                )
            pinned, fingerprint = int(head[0]), head[1]
            identity = conn.execute(
                "SELECT position, name, columns, keys_declared, max_key_width "
                "FROM tbl WHERE generation <= ? ORDER BY position",
                (pinned,),
            ).fetchall()
            states = conn.execute(
                "SELECT g.position, g.num_rows, g.keys, g.fingerprint, "
                "g.data_fingerprint FROM growth g JOIN (SELECT position, "
                "MAX(generation) AS top FROM growth WHERE generation <= ? "
                "GROUP BY position) heads ON g.position = heads.position "
                "AND g.generation = heads.top",
                (pinned,),
            ).fetchall()
        finally:
            conn.execute("COMMIT")
        state_by_position = {int(row[0]): row for row in states}
        metas = []
        for position, name, columns, keys_declared, max_key_width in identity:
            state = state_by_position[int(position)]
            metas.append(
                TableMeta(
                    position=int(position),
                    name=name,
                    columns=tuple(json.loads(columns)),
                    keys=tuple(tuple(key) for key in json.loads(state[2])),
                    keys_declared=bool(keys_declared),
                    max_key_width=int(max_key_width),
                    num_rows=int(state[1]),
                    fingerprint=state[3],
                    data_fingerprint=state[4],
                )
            )
        return SQLiteSnapshot(self, pinned, fingerprint, tuple(metas))

    # -- growth ---------------------------------------------------------
    def append_rows(self, table_name: str, rows) -> "SQLiteSnapshot":
        rows = list(rows)
        conn = self._connect()
        conn.execute("BEGIN IMMEDIATE")
        try:
            head = self.snapshot_in_txn(conn)
            meta = next(
                (m for m in head.tables if m.name == table_name), None
            )
            if meta is None:
                raise UnknownTableError(table_name)
            # Materialize the current table and run the append through
            # Table.extended: key validation/re-discovery, row
            # normalization and the resulting fingerprints are then
            # *definitionally* identical to the in-memory path.  O(rows)
            # per append -- correctness over speed for the durable tier.
            old_table = self._materialize_table(conn, meta)
            new_table = old_table.extended(rows)
            if new_table is old_table:
                conn.execute("COMMIT")
                return head
            appended = new_table.rows[old_table.num_rows :]
            self._insert_rows_and_cells(
                conn, meta.position, appended, start_row=old_table.num_rows
            )
            self._index_new_values(
                conn,
                head.generation + 1,
                meta.position,
                appended,
                start_row=old_table.num_rows,
                may_move=True,
            )
            fingerprints = [
                new_table.fingerprint() if m.position == meta.position else m.fingerprint
                for m in head.tables
            ]
            self._commit_generation(
                conn,
                head.generation + 1,
                _chain_fingerprint(fingerprints),
                meta.position,
                new_table,
            )
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return self.snapshot()

    def add_table(self, table: Table) -> "SQLiteSnapshot":
        conn = self._connect()
        conn.execute("BEGIN IMMEDIATE")
        try:
            head = self.snapshot_in_txn(conn)
            if any(m.name == table.name for m in head.tables):
                raise DuplicateTableError(None, table.name)
            position = len(head.tables)
            generation = head.generation + 1
            conn.execute(
                "INSERT INTO tbl (position, name, columns, keys_declared, "
                "max_key_width, generation) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    position,
                    table.name,
                    json.dumps(list(table.columns), ensure_ascii=False),
                    int(table._keys_declared),
                    table._max_key_width,
                    generation,
                ),
            )
            self._insert_rows_and_cells(conn, position, table.rows, start_row=0)
            # Values first seen in a *last* table never displace an
            # earlier first occurrence, so no move records are possible.
            self._index_new_values(
                conn, generation, position, table.rows, start_row=0, may_move=False
            )
            fingerprints = [m.fingerprint for m in head.tables] + [
                table.fingerprint()
            ]
            self._commit_generation(
                conn, generation, _chain_fingerprint(fingerprints), position, table
            )
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return self.snapshot()

    # -- write-transaction helpers -------------------------------------
    def snapshot_in_txn(self, conn: sqlite3.Connection) -> "SQLiteSnapshot":
        """Head state read inside the caller's open transaction."""
        head = conn.execute(
            "SELECT generation, fingerprint FROM gens ORDER BY generation DESC LIMIT 1"
        ).fetchone()
        if head is None:
            raise StorageError(f"{self.path} has no generations")
        pinned, fingerprint = int(head[0]), head[1]
        identity = conn.execute(
            "SELECT position, name, columns, keys_declared, max_key_width "
            "FROM tbl ORDER BY position"
        ).fetchall()
        states = {
            int(row[0]): row
            for row in conn.execute(
                "SELECT g.position, g.num_rows, g.keys, g.fingerprint, "
                "g.data_fingerprint FROM growth g JOIN (SELECT position, "
                "MAX(generation) AS top FROM growth GROUP BY position) heads "
                "ON g.position = heads.position AND g.generation = heads.top"
            ).fetchall()
        }
        metas = tuple(
            TableMeta(
                position=int(position),
                name=name,
                columns=tuple(json.loads(columns)),
                keys=tuple(tuple(key) for key in json.loads(states[int(position)][2])),
                keys_declared=bool(keys_declared),
                max_key_width=int(max_key_width),
                num_rows=int(states[int(position)][1]),
                fingerprint=states[int(position)][3],
                data_fingerprint=states[int(position)][4],
            )
            for position, name, columns, keys_declared, max_key_width in identity
        )
        return SQLiteSnapshot(self, pinned, fingerprint, metas)

    def _materialize_table(
        self, conn: sqlite3.Connection, meta: TableMeta
    ) -> Table:
        rows = [
            _decode_row(cells)
            for (cells,) in conn.execute(
                "SELECT cells FROM rowdata WHERE position = ? ORDER BY row_number",
                (meta.position,),
            )
        ]
        # Discovered keys re-discover from the data (provably equal to
        # the stored set -- see Table.extended's invariant); declared
        # keys revalidate, exactly like loading the table fresh.
        return Table(
            meta.name,
            meta.columns,
            rows,
            keys=meta.keys if meta.keys_declared else None,
            max_key_width=meta.max_key_width,
        )

    def _insert_rows_and_cells(
        self,
        conn: sqlite3.Connection,
        position: int,
        rows: Sequence[Tuple[str, ...]],
        start_row: int,
    ) -> None:
        conn.executemany(
            "INSERT INTO rowdata (position, row_number, cells) VALUES (?, ?, ?)",
            (
                (position, start_row + offset, _encode_row(row))
                for offset, row in enumerate(rows)
            ),
        )
        conn.executemany(
            "INSERT INTO cell (value, position, row_number, col) VALUES (?, ?, ?, ?)",
            (
                (value, position, start_row + offset, col)
                for offset, row in enumerate(rows)
                for col, value in enumerate(row)
            ),
        )

    def _index_new_values(
        self,
        conn: sqlite3.Connection,
        generation: int,
        position: int,
        rows: Sequence[Tuple[str, ...]],
        start_row: int,
        may_move: bool,
    ) -> None:
        """Maintain ``val``/``firstocc``/``gram`` for freshly written cells.

        New non-empty values get the next insertion-order ids plus their
        gram postings.  With ``may_move`` (appends to a non-last table),
        an existing value whose recorded first occurrence lies in a
        *later* table gets a new ``firstocc`` record -- the stored form
        of the in-memory index's "moved first occurrence" renumbering.
        """
        # Distinct non-empty values in scan order, with the scan-first
        # occurrence of each inside this batch.
        first_here: Dict[str, Tuple[int, int, int]] = {}
        order: List[str] = []
        for offset, row in enumerate(rows):
            for col, value in enumerate(row):
                if value and value not in first_here:
                    first_here[value] = (position, start_row + offset, col)
                    order.append(value)
        if not order:
            return
        existing: Dict[str, int] = {}
        for chunk in _chunks(order):
            marks = ",".join("?" * len(chunk))
            for value, val_id in conn.execute(
                f"SELECT value, id FROM val WHERE value IN ({marks})", chunk
            ):
                existing[value] = int(val_id)
        next_id = int(
            conn.execute("SELECT COALESCE(MAX(id), -1) FROM val").fetchone()[0]
        ) + 1
        heads: Dict[int, Tuple[int, int, int]] = {}
        if may_move and existing:
            ids = sorted(existing.values())
            for chunk in _chunks(ids):
                marks = ",".join("?" * len(chunk))
                for val_id, _, pos, row_number, col in conn.execute(
                    f"SELECT val_id, generation, position, row_number, col "
                    f"FROM firstocc WHERE val_id IN ({marks}) "
                    "ORDER BY val_id, generation",
                    chunk,
                ):
                    # Ascending generation: the last row per id wins.
                    heads[int(val_id)] = (int(pos), int(row_number), int(col))
        for value in order:
            occ = first_here[value]
            val_id = existing.get(value)
            if val_id is None:
                val_id = next_id
                next_id += 1
                conn.execute(
                    "INSERT INTO val (id, value, length, generation) "
                    "VALUES (?, ?, ?, ?)",
                    (val_id, value, len(value), generation),
                )
                conn.executemany(
                    "INSERT INTO gram (gram, val_id) VALUES (?, ?)",
                    ((gram, val_id) for gram in _grams_of(value)),
                )
                conn.execute(
                    "INSERT INTO firstocc (val_id, generation, position, "
                    "row_number, col) VALUES (?, ?, ?, ?, ?)",
                    (val_id, generation, *occ),
                )
            elif may_move and occ < heads[val_id]:
                conn.execute(
                    "INSERT INTO firstocc (val_id, generation, position, "
                    "row_number, col) VALUES (?, ?, ?, ?, ?)",
                    (val_id, generation, *occ),
                )

    def _commit_generation(
        self,
        conn: sqlite3.Connection,
        generation: int,
        catalog_fingerprint: str,
        position: int,
        table: Table,
    ) -> None:
        conn.execute(
            "INSERT INTO growth (position, generation, num_rows, keys, "
            "fingerprint, data_fingerprint) VALUES (?, ?, ?, ?, ?, ?)",
            (
                position,
                generation,
                table.num_rows,
                json.dumps([list(key) for key in table.keys], ensure_ascii=False),
                table.fingerprint(),
                table.data_fingerprint(),
            ),
        )
        conn.execute(
            "INSERT INTO gens (generation, fingerprint) VALUES (?, ?)",
            (generation, catalog_fingerprint),
        )
        conn.execute("COMMIT")


class SQLiteSnapshot(StorageSnapshot):
    """One pinned generation of a SQLite-stored catalog."""

    def __init__(
        self,
        backend: SQLiteBackend,
        generation: int,
        fingerprint: str,
        tables: Tuple[TableMeta, ...],
    ) -> None:
        self._backend = backend
        self.generation = generation
        self.fingerprint = fingerprint
        self.tables = tables
        self._bounds: Dict[int, int] = {m.position: m.num_rows for m in tables}
        self._distinct: Optional[Tuple[str, ...]] = None
        self._substring_index: Optional["SQLiteSubstringIndex"] = None
        self._num_values: Optional[int] = None
        # None = not computed; (None, None) = identity; else the rank
        # permutation (id -> rank dict, rank -> id list).
        self._ranks: Optional[Tuple[Optional[Dict[int, int]], Optional[List[int]]]] = (
            None
        )
        self._ranks_lock = threading.Lock()

    # -- row tier -------------------------------------------------------
    def row(self, position: int, row_number: int) -> Tuple[str, ...]:
        # Rows are append-only and immutable: cache across generations.
        return self._backend._cache.get_or(
            ("row", position, row_number),
            lambda: self._fetch_row(position, row_number),
        )

    def _fetch_row(self, position: int, row_number: int) -> Tuple[str, ...]:
        found = self._backend._connect().execute(
            "SELECT cells FROM rowdata WHERE position = ? AND row_number = ?",
            (position, row_number),
        ).fetchone()
        if found is None:  # pragma: no cover - guarded by RowView bounds
            raise IndexError(f"row {row_number} of table position {position}")
        return _decode_row(found[0])

    def rows(self, position: int, start: int, stop: int) -> List[Tuple[str, ...]]:
        stop = min(stop, self._bounds.get(position, 0))
        if start >= stop:
            return []
        return [
            _decode_row(cells)
            for (cells,) in self._backend._connect().execute(
                "SELECT cells FROM rowdata WHERE position = ? AND "
                "row_number >= ? AND row_number < ? ORDER BY row_number",
                (position, start, stop),
            )
        ]

    # -- posting tier ---------------------------------------------------
    def value_rows(self, position: int, column: int, value: str) -> Tuple[int, ...]:
        return self._backend._cache.get_or(
            (self.generation, "vr", position, column, value),
            lambda: self._fetch_value_rows(position, column, value),
        )

    def _fetch_value_rows(
        self, position: int, column: int, value: str
    ) -> Tuple[int, ...]:
        bound = self._bounds.get(position, 0)
        return tuple(
            int(row_number)
            for (row_number,) in self._backend._connect().execute(
                "SELECT row_number FROM cell WHERE value = ? AND position = ? "
                "AND col = ? AND row_number < ? ORDER BY row_number",
                (value, position, column, bound),
            )
        )

    def occurrences(self, value: str) -> Tuple[Occurrence, ...]:
        return self._backend._cache.get_or(
            (self.generation, "occ", value),
            lambda: self._fetch_occurrences(value),
        )

    def _fetch_occurrences(self, value: str) -> Tuple[Occurrence, ...]:
        metas = {m.position: m for m in self.tables}
        found: List[Occurrence] = []
        for position, col, row_number in self._backend._connect().execute(
            "SELECT position, col, row_number FROM cell WHERE value = ? "
            "ORDER BY position, row_number, col",
            (value,),
        ):
            meta = metas.get(int(position))
            if meta is None or int(row_number) >= meta.num_rows:
                continue  # written after this snapshot's pin
            found.append(
                Occurrence(meta.name, meta.columns[int(col)], int(row_number))
            )
        return tuple(found)

    def distinct_values(self) -> Tuple[str, ...]:
        """First-seen scan order over every cell.

        O(total cells) and materialized on the snapshot; the substring
        trigger does not walk it -- it goes through ranked value ids.
        """
        if self._distinct is None:
            seen: Dict[str, None] = {}
            for meta in self.tables:
                for start in range(0, meta.num_rows, 2048):
                    for row in self.rows(
                        meta.position, start, min(start + 2048, meta.num_rows)
                    ):
                        for value in row:
                            if value not in seen:
                                seen[value] = None
            self._distinct = tuple(seen)
        return self._distinct

    # -- substring tier -------------------------------------------------
    def substring_index(self) -> "SQLiteSubstringIndex":
        if self._substring_index is None:
            self._substring_index = SQLiteSubstringIndex(self)
        return self._substring_index

    def visible_value_count(self) -> int:
        if self._num_values is None:
            self._num_values = int(
                self._backend._connect().execute(
                    "SELECT COUNT(*) FROM val WHERE generation <= ?",
                    (self.generation,),
                ).fetchone()[0]
            )
        return self._num_values

    def _ensure_ranks(
        self,
    ) -> Tuple[Optional[Dict[int, int]], Optional[List[int]]]:
        """The id<->rank permutation (identity fast path = ``(None, None)``).

        Ranks order visible values by their first occurrence *at this
        generation* (the last ``firstocc`` record per value, ascending
        scan position) -- exactly the in-memory index's id order after
        the same append history.  While no append ever moved a first
        occurrence and no value landed mid-scan, ranks equal ids and no
        arrays are kept.
        """
        with self._ranks_lock:
            if self._ranks is None:
                occ_of: Dict[int, Tuple[int, int, int]] = {}
                for val_id, _, position, row_number, col in (
                    self._backend._connect().execute(
                        "SELECT val_id, generation, position, row_number, col "
                        "FROM firstocc WHERE generation <= ? "
                        "ORDER BY val_id, generation",
                        (self.generation,),
                    )
                ):
                    occ_of[int(val_id)] = (int(position), int(row_number), int(col))
                ordered = sorted(occ_of, key=occ_of.__getitem__)
                if ordered == list(range(len(ordered))):
                    self._ranks = (None, None)
                else:
                    self._ranks = (
                        {val_id: rank for rank, val_id in enumerate(ordered)},
                        ordered,
                    )
            return self._ranks

    def rank_of_id(self, val_id: int) -> int:
        id_to_rank, _ = self._ensure_ranks()
        return val_id if id_to_rank is None else id_to_rank[val_id]

    def id_of_rank(self, rank: int) -> int:
        _, rank_to_id = self._ensure_ranks()
        return rank if rank_to_id is None else rank_to_id[rank]

    def value_by_id(self, val_id: int) -> str:
        return self._backend._cache.get_or(
            ("valstr", val_id), lambda: self._fetch_value_by_id(val_id)
        )

    def _fetch_value_by_id(self, val_id: int) -> str:
        found = self._backend._connect().execute(
            "SELECT value FROM val WHERE id = ?", (val_id,)
        ).fetchone()
        if found is None:  # pragma: no cover - ranks guard the range
            raise IndexError(f"value id {val_id}")
        return found[0]

    def rank_of_value(self, value: str) -> Optional[int]:
        """The snapshot-visible rank of an exact value, or ``None``."""
        val_id = self._backend._cache.get_or(
            (self.generation, "vid", value),
            lambda: self._fetch_visible_id(value),
        )
        return None if val_id is None else self.rank_of_id(val_id)

    def _fetch_visible_id(self, value: str) -> Optional[int]:
        found = self._backend._connect().execute(
            "SELECT id, generation FROM val WHERE value = ?", (value,)
        ).fetchone()
        if found is None or int(found[1]) > self.generation:
            return None
        return int(found[0])

    def contained_pairs(self, text: str) -> List[Tuple[int, str]]:
        """``(rank, value)`` of every visible value contained in ``text``.

        Values of length < MAX_GRAM are exact-matched against the short
        substrings of ``text`` (a contained short value *is* one of its
        grams); longer values come from the width-``MAX_GRAM`` gram
        postings and are verified with a real ``in`` check -- same
        guarantee as the Aho-Corasick side of the in-memory index.
        """
        if not text:
            return []
        candidates: Dict[int, str] = {}
        short: Set[str] = set()
        for width in range(1, MAX_GRAM):
            for start in range(len(text) - width + 1):
                short.add(text[start : start + width])
        conn = self._backend._connect()
        for chunk in _chunks(sorted(short)):
            marks = ",".join("?" * len(chunk))
            for val_id, gen in conn.execute(
                f"SELECT id, generation FROM val WHERE value IN ({marks})", chunk
            ):
                if int(gen) <= self.generation:
                    candidates[int(val_id)] = self.value_by_id(int(val_id))
        if len(text) >= MAX_GRAM:
            long_grams = sorted(
                {
                    text[start : start + MAX_GRAM]
                    for start in range(len(text) - MAX_GRAM + 1)
                }
            )
            for chunk in _chunks(long_grams):
                marks = ",".join("?" * len(chunk))
                for val_id, value in conn.execute(
                    f"SELECT DISTINCT v.id, v.value FROM gram g "
                    f"JOIN val v ON v.id = g.val_id "
                    f"WHERE g.gram IN ({marks}) AND v.length >= ? "
                    "AND v.generation <= ?",
                    (*chunk, MAX_GRAM, self.generation),
                ):
                    if value in text:
                        candidates[int(val_id)] = value
        return [(self.rank_of_id(val_id), value) for val_id, value in candidates.items()]

    def containing_ranks(self, text: str) -> List[int]:
        """Ranks of visible values having ``text`` as a substring, sorted.

        Candidates come from the rarest gram's posting (gram counts span
        every generation -- a coarser rarity estimate than the
        in-memory per-snapshot counts, but verification makes the
        *result* identical); a gram absent from the whole store means
        no value can contain ``text``.
        """
        if not text:
            return []
        width = min(len(text), MAX_GRAM)
        text_grams = sorted(
            {text[start : start + width] for start in range(len(text) - width + 1)}
        )
        conn = self._backend._connect()
        counts: Dict[str, int] = {}
        for chunk in _chunks(text_grams):
            marks = ",".join("?" * len(chunk))
            for gram, count in conn.execute(
                f"SELECT gram, COUNT(*) FROM gram WHERE gram IN ({marks}) "
                "GROUP BY gram",
                chunk,
            ):
                counts[gram] = int(count)
        if len(counts) < len(text_grams):
            return []  # some gram of text occurs in no stored value
        rarest = min(text_grams, key=counts.__getitem__)
        ranks = [
            self.rank_of_id(int(val_id))
            for val_id, value in conn.execute(
                "SELECT v.id, v.value FROM gram g JOIN val v ON v.id = g.val_id "
                "WHERE g.gram = ? AND v.generation <= ?",
                (rarest, self.generation),
            )
            if text in value
        ]
        ranks.sort()
        return ranks

    def cache_stats(self) -> Dict[str, object]:
        return self._backend.cache_stats()


class _RankedValues:
    """Lazy ``index.values`` stand-in: rank -> value, backend-fetched."""

    __slots__ = ("_snapshot",)

    def __init__(self, snapshot: SQLiteSnapshot) -> None:
        self._snapshot = snapshot

    def __len__(self) -> int:
        return self._snapshot.visible_value_count()

    def __getitem__(self, rank: int):
        if isinstance(rank, slice):
            return [self[i] for i in range(*rank.indices(len(self)))]
        if rank < 0:
            rank += len(self)
        if not 0 <= rank < len(self):
            raise IndexError(rank)
        return self._snapshot.value_by_id(self._snapshot.id_of_rank(rank))

    def __iter__(self):
        for rank in range(len(self)):
            yield self[rank]


class SQLiteSubstringIndex:
    """``SubstringIndex``-compatible overlap queries over a snapshot.

    Ids are snapshot *ranks* (scan-order positions), so sorted ids
    reproduce the catalog's deterministic scan order exactly like the
    in-memory index -- the property the semantic generator's
    ``newly_triggered`` iteration depends on.
    """

    __slots__ = ("_snapshot", "values")

    def __init__(self, snapshot: SQLiteSnapshot) -> None:
        self._snapshot = snapshot
        self.values = _RankedValues(snapshot)

    def __len__(self) -> int:
        return self._snapshot.visible_value_count()

    def build(self) -> "SQLiteSubstringIndex":
        return self  # postings are persistent; nothing to force

    def id_of(self, value: str) -> Optional[int]:
        return self._snapshot.rank_of_value(value)

    def contained_in(self, text: str) -> Set[int]:
        return {rank for rank, _ in self._snapshot.contained_pairs(text)}

    def containing(self, text: str) -> List[int]:
        return self._snapshot.containing_ranks(text)

    def overlapping(self, text: str, min_len: int = 1) -> List[int]:
        """Exactly :meth:`SubstringIndex.overlapping`, served + cached."""
        if not text:
            return []
        snapshot = self._snapshot
        cached = snapshot._backend._cache.get_or(
            (snapshot.generation, "ovl", text, min_len),
            lambda: tuple(self._compute_overlapping(text, min_len)),
        )
        return list(cached)

    def _compute_overlapping(self, text: str, min_len: int) -> List[int]:
        hits: Set[int] = set()
        for rank, value in self._snapshot.contained_pairs(text):
            if len(value) >= min_len:
                hits.add(rank)
        if len(text) >= min_len:
            hits.update(self._snapshot.containing_ranks(text))
        equal = self._snapshot.rank_of_value(text)
        if equal is not None:
            hits.add(equal)
        return sorted(hits)


# -- file lifecycle -----------------------------------------------------
def _open_connection(path: Path, busy_timeout_ms: int) -> sqlite3.Connection:
    conn = sqlite3.connect(
        str(path),
        timeout=busy_timeout_ms / 1000.0,
        isolation_level=None,  # explicit BEGIN/COMMIT; reads autocommit
        check_same_thread=False,  # one conn per thread; close() crosses
    )
    conn.execute(f"PRAGMA busy_timeout = {int(busy_timeout_ms)}")
    conn.execute("PRAGMA synchronous = NORMAL")
    conn.execute("PRAGMA journal_mode = WAL")
    return conn


def ingest_catalog(
    path: Union[str, Path],
    catalog: Catalog,
    sources: Optional[Dict[str, str]] = None,
    busy_timeout_ms: int = 5000,
) -> None:
    """Write ``catalog`` into a fresh SQLite file at ``path`` (generation 1).

    Refuses to overwrite: pick a new filename (the registry versions
    them) and swap atomically at a higher layer.  The recorded
    fingerprints, value ids and gram postings are computed through the
    in-memory structures, so a snapshot of the ingested store is
    byte-identical to the catalog it came from.
    """
    path = Path(path)
    if path.exists():
        raise StorageError(f"refusing to overwrite existing file {path}")
    path.parent.mkdir(parents=True, exist_ok=True)
    conn = _open_connection(path, busy_timeout_ms)
    try:
        conn.execute("BEGIN IMMEDIATE")
        for statement in _SCHEMA.split(";"):
            if statement.strip():
                conn.execute(statement)
        conn.executemany(
            "INSERT INTO meta (key, value) VALUES (?, ?)",
            [
                ("format_version", str(FORMAT_VERSION)),
                ("sources", json.dumps(sources or {}, sort_keys=True)),
            ],
        )
        next_id = 0
        seen: Dict[str, int] = {}
        for position, table in enumerate(catalog.tables()):
            conn.execute(
                "INSERT INTO tbl (position, name, columns, keys_declared, "
                "max_key_width, generation) VALUES (?, ?, ?, ?, ?, 1)",
                (
                    position,
                    table.name,
                    json.dumps(list(table.columns), ensure_ascii=False),
                    int(table._keys_declared),
                    table._max_key_width,
                ),
            )
            conn.executemany(
                "INSERT INTO rowdata (position, row_number, cells) VALUES (?, ?, ?)",
                (
                    (position, row_number, _encode_row(row))
                    for row_number, row in enumerate(table.rows)
                ),
            )
            conn.executemany(
                "INSERT INTO cell (value, position, row_number, col) "
                "VALUES (?, ?, ?, ?)",
                (
                    (value, position, row_number, col)
                    for row_number, row in enumerate(table.rows)
                    for col, value in enumerate(row)
                ),
            )
            for row_number, row in enumerate(table.rows):
                for col, value in enumerate(row):
                    if value and value not in seen:
                        seen[value] = next_id
                        conn.execute(
                            "INSERT INTO val (id, value, length, generation) "
                            "VALUES (?, ?, ?, 1)",
                            (next_id, value, len(value)),
                        )
                        conn.execute(
                            "INSERT INTO firstocc (val_id, generation, position, "
                            "row_number, col) VALUES (?, 1, ?, ?, ?)",
                            (next_id, position, row_number, col),
                        )
                        conn.executemany(
                            "INSERT INTO gram (gram, val_id) VALUES (?, ?)",
                            ((gram, next_id) for gram in _grams_of(value)),
                        )
                        next_id += 1
            conn.execute(
                "INSERT INTO growth (position, generation, num_rows, keys, "
                "fingerprint, data_fingerprint) VALUES (?, 1, ?, ?, ?, ?)",
                (
                    position,
                    table.num_rows,
                    json.dumps(
                        [list(key) for key in table.keys], ensure_ascii=False
                    ),
                    table.fingerprint(),
                    table.data_fingerprint(),
                ),
            )
        conn.execute(
            "INSERT INTO gens (generation, fingerprint) VALUES (1, ?)",
            (catalog.fingerprint(),),
        )
        conn.execute("COMMIT")
        # Fold the WAL into the main file: the ingest is a build step,
        # and a self-contained file survives copies/renames cleanly.
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    except BaseException:
        conn.close()
        path.unlink(missing_ok=True)
        raise
    conn.close()


def _chunks(items: Sequence, size: int = _IN_CHUNK):
    for start in range(0, len(items), size):
        yield items[start : start + size]


class ChangefeedStore:
    """Durable per-catalog changefeed log: one tiny WAL-mode file.

    Kept separate from ``catalog.db`` on purpose -- catalog database
    files are versioned and superseded wholesale when a catalog is
    re-ingested (see the registry's ``_next_db_path``), while the feed
    must span those transitions to stay resumable.  The schema is one
    append-only table::

        changefeed(seq INTEGER PRIMARY KEY, event TEXT)

    ``event`` is the JSON-encoded feed event; ``seq`` mirrors the
    event's sequence number, so the primary key enforces the
    no-duplicates half of the gap-free invariant at the disk layer too.
    Thread-safe: appends happen on mutating threads, loads on lazy
    catalog loaders.
    """

    def __init__(self, path: Union[str, Path], busy_timeout_ms: int = 5000) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._conn = _open_connection(self.path, busy_timeout_ms)
        try:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS changefeed ("
                "seq INTEGER PRIMARY KEY, event TEXT NOT NULL)"
            )
        except sqlite3.Error as error:
            self._conn.close()
            raise StorageError(
                f"cannot open changefeed store {self.path}: {error}"
            ) from error
        self._closed = False

    def append(self, event: Dict[str, object]) -> None:
        payload = json.dumps(event, ensure_ascii=False, separators=(",", ":"))
        with self._lock:
            if self._closed:
                return
            self._conn.execute(
                "INSERT OR IGNORE INTO changefeed (seq, event) VALUES (?, ?)",
                (int(event["seq"]), payload),
            )

    def load(self) -> List[Dict[str, object]]:
        """All persisted events, oldest first."""
        with self._lock:
            if self._closed:
                return []
            rows = self._conn.execute(
                "SELECT event FROM changefeed ORDER BY seq"
            ).fetchall()
        events: List[Dict[str, object]] = []
        for (payload,) in rows:
            try:
                event = json.loads(payload)
            except ValueError:
                continue  # torn row: skip, the chain check will surface it
            if isinstance(event, dict):
                events.append(event)
        return events

    def head(self) -> int:
        with self._lock:
            if self._closed:
                return 0
            row = self._conn.execute(
                "SELECT COALESCE(MAX(seq), 0) FROM changefeed"
            ).fetchone()
        return int(row[0]) if row else 0

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._conn.close()
