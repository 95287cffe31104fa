"""The Table value object.

A table has a name, an ordered list of column names, rows of string cells
and a list of *candidate keys* (each an ordered tuple of column names).
The paper restricts the columns used in Select conditions to candidate
keys so that a lookup returns at most one row (§4.1); candidate keys are
therefore first-class metadata here.

Keys may be declared explicitly or discovered from the data with
:func:`repro.tables.keys.discover_candidate_keys`.
Declared keys are validated against the data at construction time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import (
    DuplicateColumnError,
    KeyConstraintError,
    TableError,
    UnknownColumnError,
)

CandidateKey = Tuple[str, ...]


def _normalize_rows(
    name: str,
    columns: Sequence[str],
    rows: Iterable[Sequence[str]],
    start: int,
) -> List[Tuple[str, ...]]:
    """Validate/tuple-ize rows; ``start`` offsets row numbers in errors."""
    normalized: List[Tuple[str, ...]] = []
    for row_number, row in enumerate(rows, start=start):
        row = tuple(row)
        if len(row) != len(columns):
            raise TableError(
                f"table {name!r} row {row_number} has {len(row)} cells, "
                f"expected {len(columns)}"
            )
        for cell in row:
            if not isinstance(cell, str):
                raise TableError(
                    f"table {name!r} row {row_number} has non-string cell {cell!r}"
                )
        normalized.append(row)
    return normalized


class Table:
    """An immutable relational table of string cells.

    Args:
        name: table identifier used by ``Select`` expressions.
        columns: ordered column names (unique).
        rows: sequence of rows; each row has one string per column.
        keys: optional explicit candidate keys; when omitted, minimal keys
            are discovered from the data (width <= ``max_key_width``).
        max_key_width: cap on discovered key width.

    >>> t = Table("Comp", ["Id", "Name"], [("c1", "Microsoft"), ("c2", "Google")])
    >>> t.lookup("Name", {"Id": "c1"})
    'Microsoft'
    """

    __slots__ = (
        "name",
        "columns",
        "rows",
        "keys",
        "_keys_declared",
        "_max_key_width",
        "_column_index",
        "_key_row_index",
        "_value_rows",
        "_canonical_maps",
        "_fingerprint",
        "_data_fingerprint",
        "_rows_digest",
        "_extends_rows",
    )

    #: Slots that survive pickling -- the index/digest caches are
    #: rebuilt lazily on the other side (hash objects cannot cross a
    #: process boundary, and shipping caches would bloat the payload
    #: ``run_batch(executor="process")`` sends to every worker).
    _PICKLED_SLOTS = (
        "name",
        "columns",
        "rows",
        "keys",
        "_keys_declared",
        "_max_key_width",
        "_column_index",
        "_key_row_index",
    )

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        rows: Iterable[Sequence[str]],
        keys: Optional[Sequence[Sequence[str]]] = None,
        max_key_width: int = 2,
    ) -> None:
        if not name:
            raise TableError("table name must be non-empty")
        columns = list(columns)
        if not columns:
            raise TableError(f"table {name!r} must have at least one column")
        seen_at: Dict[str, int] = {}
        for position, column in enumerate(columns, start=1):
            if column in seen_at:
                raise DuplicateColumnError(name, column, (seen_at[column], position))
            seen_at[column] = position

        normalized_rows = _normalize_rows(name, columns, rows, start=0)
        if not normalized_rows:
            raise TableError(f"table {name!r} must have at least one row")

        self.name = name
        self.columns: Tuple[str, ...] = tuple(columns)
        self.rows: Tuple[Tuple[str, ...], ...] = tuple(normalized_rows)
        self._column_index: Dict[str, int] = {c: i for i, c in enumerate(self.columns)}

        self._keys_declared = keys is not None
        self._max_key_width = max_key_width
        if keys is None:
            from repro.tables.keys import discover_candidate_keys

            discovered = discover_candidate_keys(
                self.columns, self.rows, max_width=max_key_width
            )
            self.keys: Tuple[CandidateKey, ...] = discovered
        else:
            validated: List[CandidateKey] = []
            for key in keys:
                key = tuple(key)
                for column in key:
                    if column not in self._column_index:
                        raise UnknownColumnError(name, column)
                self._check_key_uniqueness(key)
                validated.append(key)
            if not validated:
                raise KeyConstraintError(f"table {name!r}: empty candidate key list")
            self.keys = tuple(validated)

        # Per-column value -> row-number inverted index; built lazily on the
        # first find_rows/lookup (the serve-time hot path), never mutated
        # afterwards -- the table is immutable.
        self._value_rows: Optional[Dict[str, Dict[str, Tuple[int, ...]]]] = None
        # Per-column canonical-form -> raw distinct values secondary
        # index (repro.matching.canonicalize); built lazily per column on
        # the first canonical-matched lookup, patched copy-on-write by
        # extended().
        self._canonical_maps: Optional[Dict[str, Dict[str, Tuple[str, ...]]]] = None
        self._fingerprint: Optional[str] = None
        self._data_fingerprint: Optional[str] = None
        self._rows_digest = None  # streaming hash state; see fingerprint()
        # The rows tuple this table extends (set by extended()): lets
        # Catalog.with_table recognize an append in O(1) -- by tuple
        # identity -- instead of comparing the whole old-rows prefix.
        self._extends_rows: Optional[Tuple[Tuple[str, ...], ...]] = None

        # Precompute key-tuple -> row index for every candidate key; used by
        # both evaluation and condition construction.  A snapshot-loaded
        # table arrives with this set to None (the mappings cost more to
        # decode than to rebuild) and recreates each key's mapping on its
        # first keyed lookup.
        self._key_row_index: Optional[
            Dict[CandidateKey, Dict[Tuple[str, ...], int]]
        ] = {key: self._build_key_index(key) for key in self.keys}

    # ------------------------------------------------------------------
    def _check_key_uniqueness(self, key: CandidateKey) -> None:
        seen: Dict[Tuple[str, ...], int] = {}
        for row_number, row in enumerate(self.rows):
            values = tuple(row[self._column_index[c]] for c in key)
            if values in seen:
                raise KeyConstraintError(
                    f"table {self.name!r}: candidate key {key} is not unique "
                    f"(rows {seen[values]} and {row_number} share {values})"
                )
            seen[values] = row_number

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def column_position(self, column: str) -> int:
        """Index of ``column``; raises :class:`UnknownColumnError`."""
        try:
            return self._column_index[column]
        except KeyError:
            raise UnknownColumnError(self.name, column) from None

    def has_column(self, column: str) -> bool:
        return column in self._column_index

    def cell(self, column: str, row: int) -> str:
        """The paper's ``T[C, r]``."""
        return self.rows[row][self.column_position(column)]

    def column_values(self, column: str) -> Tuple[str, ...]:
        position = self.column_position(column)
        return tuple(row[position] for row in self.rows)

    def _build_key_index(self, key: CandidateKey) -> Dict[Tuple[str, ...], int]:
        positions = [self._column_index[c] for c in key]
        if len(positions) == 1:
            position = positions[0]
            return {(row[position],): n for n, row in enumerate(self.rows)}
        return {
            tuple(row[p] for p in positions): n
            for n, row in enumerate(self.rows)
        }

    def _ensure_key_row_index(
        self,
    ) -> Dict[CandidateKey, Dict[Tuple[str, ...], int]]:
        if self._key_row_index is None:
            self._key_row_index = {}
        index = self._key_row_index
        if len(index) < len(self.keys):
            for key in self.keys:
                if key not in index:
                    index[key] = self._build_key_index(key)
        return index

    def row_by_key(self, key: CandidateKey, values: Tuple[str, ...]) -> Optional[int]:
        """Row index whose ``key`` columns equal ``values``, or ``None``."""
        index_map = self._key_row_index
        if index_map is None:
            index_map = self._key_row_index = {}
        index = index_map.get(key)
        if index is None:
            if key not in self.keys:
                raise KeyConstraintError(
                    f"table {self.name!r}: {key} is not a declared candidate key"
                )
            index = index_map[key] = self._build_key_index(key)
        return index.get(values)

    def _ensure_value_rows(self) -> Dict[str, Dict[str, Tuple[int, ...]]]:
        if self._value_rows is None:
            index: Dict[str, Dict[str, List[int]]] = {c: {} for c in self.columns}
            for row_number, row in enumerate(self.rows):
                for column, value in zip(self.columns, row):
                    index[column].setdefault(value, []).append(row_number)
            self._value_rows = {
                column: {value: tuple(rows) for value, rows in postings.items()}
                for column, postings in index.items()
            }
        return self._value_rows

    def value_rows(self, column: str, value: str) -> Tuple[int, ...]:
        """Row numbers whose ``column`` cell equals ``value`` (ascending)."""
        self.column_position(column)  # raises UnknownColumnError
        return self._ensure_value_rows()[column].get(value, ())

    def column_postings(self, column: str) -> Dict[str, Tuple[int, ...]]:
        """The whole ``value -> row numbers`` index of one column.

        The compiled fill path (``repro.engine.compile``) fuses a
        single-predicate ``Select`` into one dict built from this
        mapping.  Shared with the lazily built index -- do not mutate.
        """
        self.column_position(column)  # raises UnknownColumnError
        return self._ensure_value_rows()[column]

    def canonical_map(self, column: str) -> Dict[str, Tuple[str, ...]]:
        """``canonical form -> raw values`` over one column's distinct values.

        The secondary index behind ``CanonicalMatcher``
        (``repro.matching.canonicalize``): raw values keep first-seen row
        order within each group.  Built lazily per column and patched --
        not rebuilt -- by :meth:`extended`.
        """
        from repro.matching.canonical import canonicalize

        maps = getattr(self, "_canonical_maps", None)
        if maps is None:
            maps = self._canonical_maps = {}
        built = maps.get(column)
        if built is None:
            built = {}
            for value in self.column_postings(column):
                canon = canonicalize(value)
                built[canon] = built.get(canon, ()) + (value,)
            maps[column] = built
        return built

    def column_universe(self, column: str, alias_groups=None):
        """The :class:`repro.matching.ValueUniverse` of one column."""
        from repro.matching.base import ValueUniverse

        postings = self.column_postings(column)
        return ValueUniverse(
            postings,
            contains=postings.__contains__,
            canonical_map=lambda: self.canonical_map(column),
            alias_groups=alias_groups,
        )

    def find_rows_matched(
        self,
        conditions: Dict[str, str],
        pipeline,
        alias_groups=None,
    ) -> Dict[int, Tuple[float, str]]:
        """Rows matching every condition under ``pipeline``, with provenance.

        Generalizes :meth:`find_rows` to approximate matching: each
        condition value is resolved to a match set by the pipeline, a row
        satisfies the condition when its cell equals *any* matched value,
        and the returned mapping carries each surviving row's overall
        ``(confidence, strategy)`` -- the weakest condition wins (an
        all-exact row reads ``(1.0, "exact")``).  With an exact-only
        pipeline the key set equals ``find_rows(conditions)``.
        """
        for column in conditions:
            self.column_position(column)  # raises UnknownColumnError
        if not conditions:
            return {row: (1.0, "exact") for row in range(len(self.rows))}
        combined: Optional[Dict[int, Tuple[float, str]]] = None
        for column, value in conditions.items():
            matches = pipeline.match(
                value, self.column_universe(column, alias_groups)
            )
            per_row: Dict[int, Tuple[float, str]] = {}
            for match in matches:  # descending confidence: first wins
                for row in self.value_rows(column, match.value):
                    if row not in per_row:
                        per_row[row] = (match.confidence, match.strategy)
            if combined is None:
                combined = per_row
            else:
                combined = {
                    row: min(combined[row], hit)
                    for row, hit in per_row.items()
                    if row in combined
                }
            if not combined:
                return {}
        assert combined is not None
        return combined

    def lookup_matched(
        self,
        column: str,
        conditions: Dict[str, str],
        pipeline,
        alias_groups=None,
    ) -> Tuple[str, float, str]:
        """Matched-lookup Select semantics: ``(output, confidence, strategy)``.

        The exactly-one-row rule of :meth:`lookup` applied per confidence
        level: among the matched rows, only the highest-confidence tier
        competes, and the lookup succeeds when that tier holds exactly
        one row -- so an exact hit is never displaced (or made ambiguous)
        by approximate ones, and two equally-plausible approximate rows
        yield ``""`` exactly like two exact rows do today.
        """
        rows = self.find_rows_matched(conditions, pipeline, alias_groups)
        if not rows:
            return "", 0.0, "none"
        best = max(hit[0] for hit in rows.values())
        tier = [row for row, hit in rows.items() if hit[0] == best]
        if len(tier) != 1:
            return "", 0.0, "ambiguous"
        winner = tier[0]
        confidence, strategy = rows[winner]
        return self.cell(column, winner), confidence, strategy

    def _ensure_rows_digest(self):
        """The streaming SHA-256 over (name, columns, rows) -- resumable.

        Rows are hashed one JSON record at a time (NUL-framed, so the
        framing is unambiguous), which makes the digest *state*
        extendable: :meth:`extended` copies the parent's state and feeds
        only the appended rows, turning the O(total cells) re-hash of a
        grown table into O(new cells).  Built fully in a local before
        publishing, so a concurrent reader never copies half-fed state.
        """
        if self._rows_digest is None:
            import hashlib
            import json

            digest = hashlib.sha256()
            digest.update(
                json.dumps(
                    [self.name, list(self.columns)],
                    ensure_ascii=False,
                    separators=(",", ":"),
                ).encode("utf-8")
            )
            digest.update(b"\x00")
            for row in self.rows:
                digest.update(
                    json.dumps(
                        list(row), ensure_ascii=False, separators=(",", ":")
                    ).encode("utf-8")
                )
                digest.update(b"\x00")
            self._rows_digest = digest
        return self._rows_digest

    def fingerprint(self) -> str:
        """A stable content digest of the table (name, schema, rows, keys).

        Equal tables (as per ``__eq__``) have equal fingerprints across
        processes and platforms; used by :meth:`Catalog.fingerprint` to
        key the service request cache.  Cached -- the table is immutable
        -- and computed from the resumable rows digest, so fingerprinting
        a table grown with :meth:`extended` costs only the new rows.
        """
        if self._fingerprint is None:
            import json

            digest = self._ensure_rows_digest().copy()
            digest.update(
                json.dumps(
                    [list(key) for key in self.keys],
                    ensure_ascii=False,
                    separators=(",", ":"),
                ).encode("utf-8")
            )
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    def extended(self, rows: Iterable[Sequence[str]]) -> "Table":
        """A new table with ``rows`` appended -- this table is untouched.

        The copy-on-write growth primitive: existing row tuples are
        shared, and the already-built per-column value index and
        candidate-key row indexes are *patched* with the new rows instead
        of rebuilt, so appending N rows costs O(N x columns), not
        O(total cells).  The result is indistinguishable from
        ``Table(name, columns, old_rows + new_rows, ...)``:

        * declared candidate keys are delta-validated against the new
          rows and raise :class:`KeyConstraintError` when an append
          breaks uniqueness;
        * discovered keys are delta-checked, and only when an append
          breaks one does key discovery re-run over the full data (adding
          rows can only break keys, never create them -- so when every
          old key survives, the discovered key set is provably unchanged);
        * the fingerprint is recomputed lazily (content changed).

        Appending zero rows returns ``self``.
        """
        new_rows = _normalize_rows(self.name, self.columns, rows, start=self.num_rows)
        if not new_rows:
            return self
        clone: "Table" = Table.__new__(Table)
        clone.name = self.name
        clone.columns = self.columns
        clone.rows = self.rows + tuple(new_rows)
        clone._column_index = self._column_index
        clone._keys_declared = self._keys_declared
        clone._max_key_width = self._max_key_width
        clone._fingerprint = None
        clone._data_fingerprint = None
        clone._extends_rows = self.rows
        if self._rows_digest is not None:
            # Resume the streaming hash: only the appended rows are fed.
            import json

            digest = self._rows_digest.copy()
            for row in new_rows:
                digest.update(
                    json.dumps(
                        list(row), ensure_ascii=False, separators=(",", ":")
                    ).encode("utf-8")
                )
                digest.update(b"\x00")
            clone._rows_digest = digest
        else:
            clone._rows_digest = None

        extended_index = self._extend_key_index(new_rows)
        if extended_index is not None:
            clone.keys = self.keys
            clone._key_row_index = extended_index
        else:
            # A discovered key broke: re-discover over the full data and
            # rebuild the key indexes (the only non-delta fallback here).
            from repro.tables.keys import discover_candidate_keys

            clone.keys = discover_candidate_keys(
                clone.columns, clone.rows, max_width=self._max_key_width
            )
            clone._key_row_index = {
                key: clone._build_key_index(key) for key in clone.keys
            }

        if self._value_rows is None:
            clone._value_rows = None
        else:
            patched: Dict[str, Dict[str, Tuple[int, ...]]] = {}
            for position, column in enumerate(self.columns):
                # Gather each value's new row numbers first, then extend
                # its posting once -- repeated values (low-cardinality
                # columns) must not re-copy a growing tuple per row.
                gathered: Dict[str, List[int]] = {}
                for offset, row in enumerate(new_rows):
                    gathered.setdefault(row[position], []).append(
                        self.num_rows + offset
                    )
                postings = dict(self._value_rows[column])
                for value, row_numbers in gathered.items():
                    postings[value] = postings.get(value, ()) + tuple(row_numbers)
                patched[column] = postings
            clone._value_rows = patched

        canonical_maps = getattr(self, "_canonical_maps", None)
        if canonical_maps is None:
            clone._canonical_maps = None
        else:
            # Patch each already-built column map with the appended rows'
            # *new* distinct values (first-seen order), copying only the
            # touched canonical groups -- same COW discipline as the
            # value index above.
            from repro.matching.canonical import canonicalize

            old_values = self._value_rows or {}
            patched_maps: Dict[str, Dict[str, Tuple[str, ...]]] = {}
            for column, mapping in canonical_maps.items():
                position = self._column_index[column]
                known = old_values.get(column)
                if known is None:
                    known = {
                        row[position]: None for row in self.rows
                    }
                additions: List[str] = []
                seen: set = set()
                for row in new_rows:
                    value = row[position]
                    if value not in known and value not in seen:
                        seen.add(value)
                        additions.append(value)
                if not additions:
                    patched_maps[column] = mapping
                    continue
                mapping = dict(mapping)
                for value in additions:
                    canon = canonicalize(value)
                    mapping[canon] = mapping.get(canon, ()) + (value,)
                patched_maps[column] = mapping
            clone._canonical_maps = patched_maps
        return clone

    def _extend_key_index(
        self, new_rows: Sequence[Tuple[str, ...]]
    ) -> Optional[Dict[CandidateKey, Dict[Tuple[str, ...], int]]]:
        """Current key indexes patched with ``new_rows``, or ``None``.

        ``None`` means a *discovered* key lost uniqueness (caller must
        re-discover); a *declared* key losing uniqueness raises, matching
        construction-time validation.  The degenerate last-resort key a
        discovery may emit over duplicate rows is never treated as broken
        (a rebuild would keep it too).
        """
        key_row_index = self._ensure_key_row_index()
        last_resort = (
            not self._keys_declared
            and self.keys == (self.columns,)
            and len(key_row_index[self.columns]) < self.num_rows
        )
        extended: Dict[CandidateKey, Dict[Tuple[str, ...], int]] = {}
        for key in self.keys:
            mapping = dict(key_row_index[key])
            positions = [self._column_index[c] for c in key]
            for offset, row in enumerate(new_rows):
                row_number = self.num_rows + offset
                values = tuple(row[p] for p in positions)
                if values in mapping and not last_resort:
                    if self._keys_declared:
                        raise KeyConstraintError(
                            f"table {self.name!r}: candidate key {key} is not "
                            f"unique (rows {mapping[values]} and {row_number} "
                            f"share {values})"
                        )
                    return None
                mapping[values] = row_number
            extended[key] = mapping
        return extended

    def data_fingerprint(self, num_rows: Optional[int] = None) -> str:
        """Digest of name, columns and the first ``num_rows`` rows only.

        Unlike :meth:`fingerprint` this excludes candidate keys, which
        may legitimately drift when appends re-discover them; and it can
        be taken over a row *prefix*.  The serving layer uses it to
        decide whether a stored program's table merely **grew** (old
        rows intact as a prefix -- benign, programs keep running) or was
        **rewritten** (refuse with a staleness error).  The full-table
        digest is cached.
        """
        if num_rows is None or num_rows >= self.num_rows:
            if self._data_fingerprint is None:
                self._data_fingerprint = self._hash_rows(self.rows)
            return self._data_fingerprint
        return self._hash_rows(self.rows[: max(0, num_rows)])

    def _hash_rows(self, rows: Sequence[Tuple[str, ...]]) -> str:
        import hashlib
        import json

        payload = json.dumps(
            [self.name, list(self.columns), [list(row) for row in rows]],
            ensure_ascii=False,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def find_rows(self, conditions: Dict[str, str]) -> List[int]:
        """All row indices whose cells match every ``column: value`` pair.

        Served from the per-column inverted index: the shortest posting
        list is filtered through the others, so a single-key lookup is one
        dict access instead of a full row scan.
        """
        for column in conditions:
            self.column_position(column)  # raises UnknownColumnError
            # before any empty-posting early return
        if not conditions:
            return list(range(len(self.rows)))
        index = self._ensure_value_rows()
        postings: List[Tuple[int, ...]] = []
        for column, value in conditions.items():
            rows = index[column].get(value)
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

    def lookup(self, column: str, conditions: Dict[str, str]) -> str:
        """Evaluate a concrete lookup: the paper's Select semantics.

        Returns ``T[column, r]`` when exactly one row ``r`` matches
        ``conditions``, and the empty string otherwise (paper §4.1).
        """
        matches = self.find_rows(conditions)
        if len(matches) == 1:
            return self.cell(column, matches[0])
        return ""

    # ------------------------------------------------------------------
    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self._PICKLED_SLOTS}

    def __setstate__(self, state) -> None:
        for slot in self._PICKLED_SLOTS:
            object.__setattr__(self, slot, state[slot])
        self._value_rows = None
        self._canonical_maps = None
        self._fingerprint = None
        self._data_fingerprint = None
        self._rows_digest = None
        self._extends_rows = None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Table)
            and self.name == other.name
            and self.columns == other.columns
            and self.rows == other.rows
            and self.keys == other.keys
        )

    def __hash__(self) -> int:
        return hash((self.name, self.columns, self.rows, self.keys))

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, columns={list(self.columns)}, "
            f"rows={self.num_rows}, keys={[list(k) for k in self.keys]})"
        )
