"""Catalog: the database of relational tables plus the value index.

``GenerateStr_t`` (Figure 5(a), line 9) iterates over *all table entries
equal to a reachable string*.  To make that loop fast the catalog maintains
an inverted index from cell value to its occurrences ``(table, column,
row)``.  The semantic algorithm additionally needs substring-overlap
triggers (§5.3), for which the catalog exposes the set of distinct cell
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import (
    DuplicateTableError,
    FrozenCatalogError,
    UnknownTableError,
)
from repro.tables.substring_index import SubstringIndex
from repro.tables.table import Table

#: Cached empty result for values with no occurrences.
_NO_OCCURRENCES: Tuple["Occurrence", ...] = ()


@dataclass(frozen=True)
class Occurrence:
    """One cell occurrence of a value: the paper's (T, C, r) triple."""

    table: str
    column: str
    row: int


class Catalog:
    """A named, ordered collection of :class:`Table` objects.

    Catalogs come in two flavors.  A freshly constructed catalog is
    *mutable*: :meth:`add` is the construction-time way to grow it.  A
    *frozen* catalog (see :meth:`freeze` and :meth:`with_table`) is an
    immutable snapshot -- ``add`` raises, and growth happens
    copy-on-write through :meth:`with_table`, which patches the value /
    occurrence / substring indexes incrementally instead of rebuilding
    them.  The registry and the serving layer deal exclusively in frozen
    snapshots, so an in-flight request can never observe a half-updated
    catalog.

    >>> catalog = Catalog([Table("T", ["a", "b"], [("1", "x")])])
    >>> catalog.occurrences_of("x")
    (Occurrence(table='T', column='b', row=0),)
    """

    #: True on ``repro.storage.StorageCatalog``; callers check this
    #: instead of isinstance, avoiding the import cycle.
    storage_backed = False

    #: Matcher strategies ``Select`` evaluation and the lookup generator
    #: use against this catalog (``repro.matching``).  ``("exact",)`` is
    #: the hard-wired-equality oracle; ``Synthesizer`` stamps it from
    #: ``SynthesisConfig.matchers`` and
    #: :meth:`with_matchers` derives a re-matched snapshot.  A class
    #: attribute so shell-constructed catalogs (storage views) default
    #: to exact.
    matcher_spec: Tuple[str, ...] = ("exact",)

    #: Precomputed ``matcher_spec != ("exact",)``.  ``Select.evaluate``
    #: gates the whole matcher layer on this one boolean attribute --
    #: cheaper than comparing the spec tuple per evaluated row -- so the
    #: exact path stays overhead-free.  Kept in lockstep with
    #: :attr:`matcher_spec` by :meth:`with_matchers` and the COW paths.
    matchers_active: bool = False

    def __init__(self, tables: Iterable[Table] = ()) -> None:
        self._tables: Dict[str, Table] = {}
        self._order: List[str] = []
        self._value_index: Dict[str, List[Occurrence]] = {}
        self._occurrence_cache: Dict[str, Tuple[Occurrence, ...]] = {}
        self._distinct_cache: Optional[Tuple[str, ...]] = None
        self._substring_index: Optional[SubstringIndex] = None
        self._canonical_cache: Optional[Dict[str, Tuple[str, ...]]] = None
        self._alias_cache: Optional[Dict[str, Tuple[str, ...]]] = None
        self._matcher_pipeline = None
        self._fingerprint: Optional[str] = None
        self._frozen: bool = False
        # Instance copy of the class default: the hot-path gate reads
        # this per evaluated row and an instance-dict hit is ~3x faster
        # than the class-attribute fallback.
        self.matchers_active = False
        for table in tables:
            self.add(table)

    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """Whether this catalog is an immutable snapshot."""
        return self._frozen

    def freeze(self) -> "Catalog":
        """Make this catalog an immutable snapshot (idempotent).

        From here on :meth:`add`/:meth:`extend` raise
        :class:`FrozenCatalogError`; grow with :meth:`with_table`.
        Freezing is what makes sharing safe: engines may serve a frozen
        catalog directly (no defensive copy) and copy-on-write children
        may share its index structures.
        """
        self._frozen = True
        return self

    def add(self, table: Table) -> None:
        """Add ``table`` in place -- construction-time only.

        On a frozen snapshot this raises :class:`FrozenCatalogError`;
        use :meth:`with_table` to derive a new snapshot instead.
        """
        if self._frozen:
            raise FrozenCatalogError(f"add({table.name!r})")
        if table.name in self._tables:
            raise DuplicateTableError(None, table.name)
        self._tables[table.name] = table
        self._order.append(table.name)
        for row_number, row in enumerate(table.rows):
            for column, value in zip(table.columns, row):
                self._value_index.setdefault(value, []).append(
                    Occurrence(table.name, column, row_number)
                )
        # New cells invalidate every derived view of the value index.
        self._occurrence_cache.clear()
        self._distinct_cache = None
        self._substring_index = None
        self._canonical_cache = None
        self._alias_cache = None
        self._fingerprint = None

    def extend(self, tables: Iterable[Table]) -> "Catalog":
        for table in tables:
            self.add(table)
        return self

    def merged_with(self, other: "Catalog") -> "Catalog":
        """A new catalog containing this catalog's tables then ``other``'s."""
        merged = Catalog(self.tables())
        merged.extend(other.tables())
        return merged

    # -- copy-on-write snapshots ---------------------------------------
    def with_table(self, table: Table) -> "Catalog":
        """A new frozen snapshot with ``table`` added or swapped in.

        The copy-on-write growth primitive (this catalog is frozen by
        the call -- parent and child share index structure, so neither
        may mutate in place afterwards):

        * a table under a **new name** is appended to the catalog order,
          and its cells are *patched into* the value/occurrence indexes;
          an already-built substring index is extended, not rebuilt;
        * a table that **extends** an existing one (same columns, old
          rows a prefix -- e.g. built with :meth:`Table.extended`) swaps
          in with only the appended rows' cells touching the indexes;
        * anything else (schema change, rewritten rows) falls back to a
          full rebuild -- correctness first.

        Every derived view of the result (``distinct_values`` order,
        ``occurrences_of`` order, substring overlaps, fingerprint) is
        identical to a catalog rebuilt from scratch over the same
        tables, so synthesis against a delta-updated snapshot is
        byte-identical to synthesis against a fresh build.
        """
        self.freeze()
        old = self._tables.get(table.name)
        if old is None:
            return self._cow_append(table)
        # Extension check in O(1) for the hot path: Table.extended stamps
        # the rows tuple it grew from, so an append is recognized by
        # identity.  The prefix compare only runs for foreign-built
        # tables (and costs pointer equality on shared cell strings).
        if table.columns == old.columns and (
            table.rows is old.rows
            or table._extends_rows is old.rows
            or table.rows[: old.num_rows] == old.rows
        ):
            return self._cow_extend(old, table)
        # Arbitrary replacement: the contents diverged; rebuild.
        replaced = [
            table if name == table.name else self._tables[name]
            for name in self._order
        ]
        rebuilt = Catalog(replaced)
        rebuilt.matcher_spec = self.matcher_spec
        rebuilt.matchers_active = self.matchers_active
        return rebuilt.freeze()

    def with_rows(self, table_name: str, rows: Iterable[Sequence[str]]) -> "Catalog":
        """Shorthand: snapshot with ``rows`` appended to ``table_name``."""
        return self.with_table(self.table(table_name).extended(rows))

    def _cow_shell(self) -> "Catalog":
        """A frozen clone sharing every index; callers patch deltas in."""
        clone: "Catalog" = Catalog.__new__(Catalog)
        clone._tables = dict(self._tables)
        clone._order = list(self._order)
        # .copy(), not dict(...): a snapshot-loaded catalog carries a
        # lazy value index whose C-level dict(...) copy would bypass the
        # deferred rebuild and clone an empty mapping.
        clone._value_index = self._value_index.copy()
        clone._occurrence_cache = {}
        clone._distinct_cache = None
        clone._substring_index = None
        clone._canonical_cache = None
        clone._alias_cache = None
        clone._matcher_pipeline = None
        clone._fingerprint = None
        clone._frozen = True
        clone.matcher_spec = self.matcher_spec
        clone.matchers_active = self.matchers_active
        return clone

    def _cow_append(self, table: Table) -> "Catalog":
        """COW case 1: a brand-new table lands at the end of the order."""
        clone = self._cow_shell()
        clone._tables[table.name] = table
        clone._order.append(table.name)
        index = clone._value_index
        touched: set = set()
        additions: List[str] = []  # new distinct values, first-seen order
        for row_number, row in enumerate(table.rows):
            for column, value in zip(table.columns, row):
                occurrence = Occurrence(table.name, column, row_number)
                posting = index.get(value)
                if posting is None:
                    index[value] = [occurrence]
                    additions.append(value)
                    touched.add(value)
                else:
                    if value not in touched:
                        posting = list(posting)
                        index[value] = posting
                        touched.add(value)
                    posting.append(occurrence)
        clone._occurrence_cache = {
            value: cached
            for value, cached in self._occurrence_cache.items()
            if value not in touched
        }
        # The new table is last in catalog order, so its first-seen
        # values append to the end of the distinct order and an existing
        # substring index extends in place (ids of old values preserved).
        clone._distinct_cache = self.distinct_values() + tuple(additions)
        if self._substring_index is not None:
            nonempty = [value for value in additions if value]
            clone._substring_index = (
                self._substring_index.extended(nonempty)
                if nonempty
                else self._substring_index
            )
        clone._canonical_cache = self._patched_canonical(additions)
        return clone

    def _patched_canonical(
        self, additions: Sequence[str]
    ) -> Optional[Dict[str, Tuple[str, ...]]]:
        """The built canonical map patched with appended distinct values."""
        parent = getattr(self, "_canonical_cache", None)
        if parent is None:
            return None
        if not additions:
            return parent
        from repro.matching.canonical import canonicalize

        patched = dict(parent)
        for value in additions:
            canon = canonicalize(value)
            patched[canon] = patched.get(canon, ()) + (value,)
        return patched

    def _cow_extend(self, old: Table, table: Table) -> "Catalog":
        """COW case 2: ``table`` extends ``old`` -- patch appended rows in."""
        if table is old:
            return self  # nothing changed; self is already frozen
        new_rows = table.rows[old.num_rows :]
        clone = self._cow_shell()
        clone._tables[table.name] = table
        parent_distinct = self.distinct_values()
        if not new_rows:
            # Same cells, different table object (keys re-declared):
            # every cell-derived view carries over; only the fingerprint
            # (which covers keys) must recompute.
            clone._occurrence_cache = dict(self._occurrence_cache)
            clone._distinct_cache = parent_distinct
            clone._substring_index = self._substring_index
            clone._canonical_cache = self._canonical_cache
            return clone
        position = self._order.index(table.name)
        pos_of = {name: i for i, name in enumerate(self._order)}
        index = clone._value_index
        touched: set = set()
        # ``batch`` collects values whose *first occurrence* now lies in
        # the appended rows, in scan (first-encounter) order: brand-new
        # values, plus existing values previously first seen in a table
        # *after* this one (a rebuild lists those earlier now -- they
        # move).  Values already first seen at or before this table keep
        # their parent position.
        batch: List[str] = []
        batch_set: set = set()
        moved: set = set()
        for offset, row in enumerate(new_rows):
            row_number = old.num_rows + offset
            for column, value in zip(table.columns, row):
                occurrence = Occurrence(table.name, column, row_number)
                posting = index.get(value)
                if posting is None:
                    index[value] = [occurrence]
                    batch.append(value)
                    batch_set.add(value)
                    touched.add(value)
                    continue
                if value not in touched:
                    if (
                        value not in batch_set
                        and pos_of[posting[0].table] > position
                    ):
                        batch.append(value)
                        batch_set.add(value)
                        moved.add(value)
                    posting = list(posting)
                    index[value] = posting
                    touched.add(value)
                # Keep postings in catalog-scan order: the appended rows
                # slot in after this table's occurrences and before any
                # later table's (a rebuild would have seen them there).
                insert_at = len(posting)
                while insert_at and pos_of[posting[insert_at - 1].table] > position:
                    insert_at -= 1
                posting.insert(insert_at, occurrence)
        clone._occurrence_cache = {
            value: cached
            for value, cached in self._occurrence_cache.items()
            if value not in touched
        }
        if not batch:
            # No new or moved distinct values: order views carry over.
            clone._distinct_cache = parent_distinct
            clone._substring_index = self._substring_index
            clone._canonical_cache = self._canonical_cache
            return clone
        # The whole batch lands at one splice point: after every value
        # first seen up to this table, before values first seen later.
        kept = (
            [value for value in parent_distinct if value not in moved]
            if moved
            else list(parent_distinct)
        )
        insert_at = len(kept)
        while insert_at:
            head = self.occurrences_of(kept[insert_at - 1])[0]
            if pos_of[head.table] <= position:
                break
            insert_at -= 1
        clone._distinct_cache = (
            tuple(kept[:insert_at]) + tuple(batch) + tuple(kept[insert_at:])
        )
        if not moved and insert_at == len(kept):
            if self._substring_index is not None:
                nonempty = [value for value in batch if value]
                clone._substring_index = (
                    self._substring_index.extended(nonempty)
                    if nonempty
                    else self._substring_index
                )
            clone._canonical_cache = self._patched_canonical(batch)
        # else: new value ids/group members would land mid-order; leave
        # the clone's substring index and canonical map to their lazy
        # rebuilds (the rare path -- only appends to a non-last table
        # with later-first-seen values).
        return clone

    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Table]:
        return iter(self.tables())

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def tables(self) -> List[Table]:
        return [self._tables[name] for name in self._order]

    def table_names(self) -> List[str]:
        return list(self._order)

    # ------------------------------------------------------------------
    def occurrences_of(self, value: str) -> Tuple[Occurrence, ...]:
        """All (table, column, row) cells whose content equals ``value``.

        The returned tuple is cached -- the reachability loops call this
        once per frontier value per step, and copying the posting list
        each time showed up in profiles.  Do not mutate.
        """
        cached = self._occurrence_cache.get(value)
        if cached is None:
            occurrences = self._value_index.get(value)
            if occurrences is None:
                return _NO_OCCURRENCES
            cached = tuple(occurrences)
            self._occurrence_cache[value] = cached
        return cached

    def distinct_values(self) -> Tuple[str, ...]:
        """All distinct cell values across the catalog, in insertion order.

        Cached tuple -- do not mutate.  Insertion order (table order, then
        row-major within each table) is the deterministic scan order both
        reachability trigger paths reproduce.
        """
        if self._distinct_cache is None:
            self._distinct_cache = tuple(self._value_index.keys())
        return self._distinct_cache

    def substring_index(self) -> SubstringIndex:
        """The substring-trigger index over all distinct non-empty values.

        Built lazily on first use (and again after :meth:`add`); value ids
        follow :meth:`distinct_values` order with empty cells skipped.
        """
        if self._substring_index is None:
            self._substring_index = SubstringIndex(
                [value for value in self.distinct_values() if value]
            )
        return self._substring_index

    # -- approximate matching (repro.matching) -------------------------
    def with_matchers(self, spec) -> "Catalog":
        """A frozen snapshot of this catalog using matcher ``spec``.

        Content-identical to ``self`` -- tables, indexes, caches and the
        fingerprint are shared, only :attr:`matcher_spec` differs -- so
        deriving one is O(1).  ``spec`` is a comma string or a sequence
        of names (see ``repro.matching.normalize_spec``; raises
        :class:`~repro.exceptions.UnknownMatcherError` on unknown names).
        The serving layer uses this to re-bind programs to a per-request
        matcher spec without touching the shared snapshot.
        """
        from repro.matching.base import normalize_spec

        names = normalize_spec(spec)
        if names == self.matcher_spec:
            return self if self._frozen else self.freeze()
        if self.storage_backed:
            # Approximate matching needs the in-memory secondary indexes;
            # lift the backend view into a plain catalog first.
            return self.materialize().with_matchers(names)  # type: ignore[attr-defined]
        self.freeze()
        clone: "Catalog" = Catalog.__new__(Catalog)
        clone._tables = self._tables
        clone._order = self._order
        clone._value_index = self._value_index
        clone._occurrence_cache = self._occurrence_cache
        clone._distinct_cache = self._distinct_cache
        clone._substring_index = self._substring_index
        clone._canonical_cache = getattr(self, "_canonical_cache", None)
        clone._alias_cache = getattr(self, "_alias_cache", None)
        clone._matcher_pipeline = None
        clone._fingerprint = self._fingerprint
        clone._frozen = True
        clone.matcher_spec = names
        clone.matchers_active = names != ("exact",)
        return clone

    def matcher_pipeline(self):
        """The active :class:`repro.matching.MatcherPipeline`, or ``None``.

        ``None`` for the default exact spec, so hot paths can gate the
        whole matcher machinery behind one falsy check and stay
        byte-identical to the pre-matcher code.
        """
        spec = self.matcher_spec
        if spec == ("exact",):
            return None
        pipeline = getattr(self, "_matcher_pipeline", None)
        if pipeline is None or pipeline.spec != tuple(spec):
            from repro.matching.base import build_pipeline

            pipeline = build_pipeline(spec)
            self._matcher_pipeline = pipeline
        return pipeline

    def canonical_value_map(self) -> Dict[str, Tuple[str, ...]]:
        """``canonical form -> raw distinct values`` across the catalog.

        Raw values keep :meth:`distinct_values` order within each group.
        Built lazily, patched by the copy-on-write append paths.
        """
        if getattr(self, "_canonical_cache", None) is None:
            from repro.matching.canonical import canonicalize

            built: Dict[str, Tuple[str, ...]] = {}
            for value in self.distinct_values():
                canon = canonicalize(value)
                built[canon] = built.get(canon, ()) + (value,)
            self._canonical_cache = built
        return self._canonical_cache

    def alias_groups(self) -> Dict[str, Tuple[str, ...]]:
        """Synonym groups from this catalog's alias tables (may be empty).

        A table named ``Synonyms`` or ``Aliases`` (any casing) opts the
        catalog in: each row's cells are mutually synonymous spellings.
        Keys are canonical forms; see ``repro.matching.alias``.
        """
        if getattr(self, "_alias_cache", None) is None:
            from repro.matching.alias import ALIAS_TABLE_NAMES, groups_from_rows
            from repro.matching.canonical import canonicalize

            rows: List[Tuple[str, ...]] = []
            for name in self._order:
                if canonicalize(name) in ALIAS_TABLE_NAMES:
                    rows.extend(self._tables[name].rows)
            self._alias_cache = groups_from_rows(rows)
        return self._alias_cache

    def match_universe(self):
        """The whole catalog's distinct values as a match universe.

        Exact membership and gram candidates are served by the value and
        substring indexes; the lookup generator matches frontier strings
        against this.
        """
        from repro.matching.base import ValueUniverse

        index = self.substring_index()

        def gram_candidates(query: str):
            return [index.values[i] for i in index.gram_candidates(query)]

        return ValueUniverse(
            self.distinct_values(),
            contains=lambda value: value in self._value_index,
            canonical_map=self.canonical_value_map,
            gram_candidates=gram_candidates,
            alias_groups=self.alias_groups,
        )

    def matched_values(self, query: str):
        """Stored values the active pipeline resolves ``query`` to.

        Empty when the exact spec is active and ``query`` is not a cell
        value; callers follow up with :meth:`occurrences_of` per match.
        """
        pipeline = self.matcher_pipeline()
        if pipeline is None:
            if query in self._value_index:
                from repro.matching.base import Match

                return [Match(query, "exact", 1.0)]
            return []
        return pipeline.match(query, self.match_universe())

    def fingerprint(self) -> str:
        """A stable content digest of the whole catalog.

        Hashes every table's :meth:`Table.fingerprint` in catalog order,
        so two catalogs holding equal tables in the same order fingerprint
        identically across processes.  The service request cache keys on
        this (plus the examples/config signatures); it is invalidated by
        :meth:`add`.
        """
        if self._fingerprint is None:
            import hashlib

            digest = hashlib.sha256()
            for name in self._order:
                digest.update(self._tables[name].fingerprint().encode("ascii"))
                digest.update(b"\x00")
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    @property
    def total_entries(self) -> int:
        """Total number of cells across all tables (paper's entry count)."""
        return sum(t.num_rows * t.num_columns for t in self.tables())

    def default_depth_bound(self) -> int:
        """The paper sets the reachability bound k to the number of tables."""
        return max(1, len(self._order))

    def __repr__(self) -> str:
        return f"Catalog({self._order!r}, entries={self.total_entries})"
