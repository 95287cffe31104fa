"""``Catalog``/``Table`` adapters serving every query from a snapshot.

The synthesis engine consumes the :class:`~repro.tables.catalog.Catalog`
/ :class:`~repro.tables.table.Table` interface; this module re-bases
that interface onto a :class:`~repro.storage.backend.StorageSnapshot`
so the engine runs unchanged over any backend.  The discipline is
strict *subsetting*: a :class:`StorageTable` inherits every derived
method (``cell``, ``lookup``, ``column_values``, fingerprints) from
``Table`` and overrides only the primitives --
``rows`` becomes a lazy :class:`_RowView`, ``value_rows`` /
``find_rows`` / ``row_by_key`` go through snapshot postings.  Answers
are byte-identical to the in-memory structures by the snapshot
contract, and :meth:`StorageCatalog.materialize` lifts any snapshot
back into a plain in-memory catalog -- for the engine's background
merge, and as the reference the storage tests compare against.

Storage-backed catalogs are always frozen; growth goes through the
backend (:meth:`StorageCatalog.with_rows` / ``with_table``) which makes
it *durable*, unlike the purely derivational in-memory copy-on-write.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Dict, List, Optional, Tuple

from repro.exceptions import (
    KeyConstraintError,
    StorageBackendError,
    UnknownTableError,
)
from repro.storage.backend import StorageBackend, StorageSnapshot, TableMeta
from repro.tables.catalog import Catalog, Occurrence
from repro.tables.table import Table, _normalize_rows

_ROW_BATCH = 1024


class _RowView(Sequence):
    """``Table.rows`` as a lazy sequence over snapshot row storage.

    Indexing fetches one row (hot-tier cached by the backend); slices
    and iteration fetch in batches.  Equality compares element-wise
    against any sequence so inherited ``Table.__eq__`` keeps working.
    """

    __slots__ = ("_snapshot", "_position", "_length")

    def __init__(self, snapshot: StorageSnapshot, position: int, length: int) -> None:
        self._snapshot = snapshot
        self._position = position
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, item):
        if isinstance(item, slice):
            start, stop, step = item.indices(self._length)
            if step == 1:
                return self._snapshot.rows(self._position, start, stop)
            return [self[i] for i in range(start, stop, step)]
        if item < 0:
            item += self._length
        if not 0 <= item < self._length:
            raise IndexError("row index out of range")
        return self._snapshot.row(self._position, item)

    def __iter__(self):
        for start in range(0, self._length, _ROW_BATCH):
            stop = min(start + _ROW_BATCH, self._length)
            yield from self._snapshot.rows(self._position, start, stop)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _RowView):
            if other is self:
                return True
            other = list(other)
        if isinstance(other, (tuple, list)):
            return len(other) == self._length and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"_RowView(position={self._position}, rows={self._length})"


class StorageTable(Table):
    """A ``Table`` whose rows and postings live in a storage snapshot."""

    def __init__(self, snapshot: StorageSnapshot, meta: TableMeta) -> None:
        # Deliberately no super().__init__: construction-time validation
        # and index builds already happened when the data was stored.
        self._snapshot = snapshot
        self._meta = meta
        self.name = meta.name
        self.columns = meta.columns
        self.rows = _RowView(snapshot, meta.position, meta.num_rows)
        self.keys = meta.keys
        self._keys_declared = meta.keys_declared
        self._max_key_width = meta.max_key_width
        self._column_index = {c: i for i, c in enumerate(meta.columns)}
        self._key_row_index = {}  # unused: row_by_key goes via postings
        self._value_rows = None
        self._canonical_maps = None
        self._fingerprint = meta.fingerprint
        self._data_fingerprint = meta.data_fingerprint
        self._rows_digest = None
        self._extends_rows = None

    # -- primitives re-based on the snapshot ---------------------------
    def value_rows(self, column: str, value: str) -> Tuple[int, ...]:
        position = self.column_position(column)  # raises UnknownColumnError
        return self._snapshot.value_rows(self._meta.position, position, value)

    def find_rows(self, conditions: Dict[str, str]) -> List[int]:
        for column in conditions:
            self.column_position(column)
        if not conditions:
            return list(range(self.num_rows))
        postings: List[Tuple[int, ...]] = []
        for column, value in conditions.items():
            rows = self.value_rows(column, value)
            if not rows:
                return []
            postings.append(rows)
        postings.sort(key=len)
        smallest = postings[0]
        if len(postings) == 1:
            return list(smallest)
        others = [set(rows) for rows in postings[1:]]
        return [
            row_number
            for row_number in smallest
            if all(row_number in other for other in others)
        ]

    def row_by_key(self, key, values) -> Optional[int]:
        if key not in self.keys:
            raise KeyConstraintError(
                f"table {self.name!r}: {key} is not a declared candidate key"
            )
        matches = self.find_rows(dict(zip(key, values)))
        # Candidate keys are unique by construction, so <= 1 match.
        return matches[0] if matches else None

    # -- growth ---------------------------------------------------------
    def materialize(self) -> Table:
        """This table lifted into a plain in-memory :class:`Table`."""
        return Table(
            self.name,
            self.columns,
            self._snapshot.rows(self._meta.position, 0, self.num_rows),
            keys=self.keys if self._keys_declared else None,
            max_key_width=self._max_key_width,
        )

    def extended(self, rows) -> Table:
        """An in-memory extension (storage growth goes via the catalog)."""
        new_rows = _normalize_rows(self.name, self.columns, rows, start=self.num_rows)
        if not new_rows:
            return self
        return self.materialize().extended(new_rows)


class StorageCatalog(Catalog):
    """A frozen ``Catalog`` view over one backend snapshot.

    ``with_rows``/``with_table`` append *through the backend* (durable,
    generation-bumping) and return a new ``StorageCatalog`` over the new
    head snapshot -- the same copy-on-write surface the registry already
    speaks, pushed down to the storage tier.
    """

    storage_backed = True

    def __init__(
        self, backend: StorageBackend, snapshot: Optional[StorageSnapshot] = None
    ) -> None:
        # No super().__init__: no in-memory indexes to build.
        self._backend = backend
        self._snapshot = snapshot if snapshot is not None else backend.snapshot()
        self._meta: Dict[str, TableMeta] = {m.name: m for m in self._snapshot.tables}
        self._order = [m.name for m in self._snapshot.tables]
        self._tables: Dict[str, StorageTable] = {}
        self._frozen = True

    # -- structure ------------------------------------------------------
    @property
    def backend(self) -> StorageBackend:
        return self._backend

    @property
    def snapshot(self) -> StorageSnapshot:
        return self._snapshot

    @property
    def generation(self) -> int:
        return self._snapshot.generation

    def table(self, name: str) -> StorageTable:
        try:
            meta = self._meta[name]
        except KeyError:
            raise UnknownTableError(name) from None
        table = self._tables.get(name)
        if table is None:
            # Benign race: two threads may both build; the views are equal.
            table = self._tables[name] = StorageTable(self._snapshot, meta)
        return table

    def tables(self) -> List[StorageTable]:
        return [self.table(name) for name in self._order]

    def __contains__(self, name: str) -> bool:
        return name in self._meta

    # -- value queries --------------------------------------------------
    def occurrences_of(self, value: str) -> Tuple[Occurrence, ...]:
        return self._snapshot.occurrences(value)

    def distinct_values(self) -> Tuple[str, ...]:
        return self._snapshot.distinct_values()

    def substring_index(self):
        return self._snapshot.substring_index()

    def fingerprint(self) -> str:
        return self._snapshot.fingerprint

    def freeze(self) -> "StorageCatalog":
        return self  # always frozen

    # -- growth (durable, through the backend) --------------------------
    def with_rows(self, table_name: str, rows) -> "StorageCatalog":
        new_head = self._backend.append_rows(table_name, list(rows))
        if new_head.generation == self._snapshot.generation:
            return self  # zero-row append: nothing changed
        return StorageCatalog(self._backend, new_head)

    def with_table(self, table: Table) -> "StorageCatalog":
        old_meta = self._meta.get(table.name)
        if old_meta is None:
            new_head = self._backend.add_table(table)
            return StorageCatalog(self._backend, new_head)
        old = self.table(table.name)
        extends = (
            table.columns == old.columns
            and table.num_rows >= old.num_rows
            and (
                (table._extends_rows is not None and old.rows == table._extends_rows)
                or old.rows == table.rows[: old.num_rows]
            )
        )
        if not extends:
            raise StorageBackendError(
                f"storage-backed catalogs only grow: table {table.name!r} "
                "does not extend the stored rows (replace by re-ingesting)"
            )
        return self.with_rows(table.name, table.rows[old.num_rows :])

    # -- materialization ------------------------------------------------
    def materialize(self) -> Catalog:
        """This snapshot lifted into a plain, fully resident ``Catalog``.

        The engine falls back to it when a background catalog must be
        merged in, and the storage tests compare backend answers against
        it.
        """
        return Catalog(table.materialize() for table in self.tables()).freeze()

    def storage_stats(self) -> Optional[Dict[str, object]]:
        """Hot-tier residency of the backing store (``None`` if resident)."""
        return self._backend.cache_stats()

    def __repr__(self) -> str:
        return (
            f"StorageCatalog({self._order!r}, tier={self._backend.tier!r}, "
            f"generation={self._snapshot.generation})"
        )
