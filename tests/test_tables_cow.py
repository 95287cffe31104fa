"""Copy-on-write tables/catalogs: delta-updated indexes == full rebuilds.

``Table.extended`` and ``Catalog.with_table`` patch the value /
occurrence / per-table / substring indexes instead of rebuilding them.
The contract is *observational equivalence*: every derived view of a
delta-updated snapshot (distinct-value order, occurrence order,
substring overlaps, fingerprints, lookups, candidate keys) must be
identical to a catalog rebuilt from scratch over the same tables --
pinned here on directed cases, hypothesis-generated append sequences
and the 50 benchsuite problems' catalogs.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import scan_rows
from repro.benchsuite import all_benchmarks
from repro.exceptions import (
    DuplicateTableError,
    FrozenCatalogError,
    KeyConstraintError,
    TableError,
)
from repro.tables.catalog import Catalog
from repro.tables.table import Table


def catalog_observables(catalog: Catalog, probes=()):
    """Everything synthesis can observe about a catalog's indexes."""
    index = catalog.substring_index()
    queries = [value for value in catalog.distinct_values() if value]
    queries += [probe for probe in probes if probe]
    return {
        "order": catalog.table_names(),
        "tables": [
            (t.name, t.columns, t.rows, t.keys) for t in catalog.tables()
        ],
        "distinct": catalog.distinct_values(),
        "occurrences": {
            value: catalog.occurrences_of(value)
            for value in catalog.distinct_values()
        },
        "fingerprint": catalog.fingerprint(),
        "overlaps": {
            query: tuple(index.values[i] for i in index.overlapping(query))
            for query in queries
        },
        "entries": catalog.total_entries,
    }


def assert_equivalent(snapshot: Catalog, tables, probes=()):
    rebuilt = Catalog(tables)
    left = catalog_observables(snapshot, probes)
    right = catalog_observables(rebuilt, probes)
    assert left == right


# -- Table.extended ----------------------------------------------------------
class TestTableExtended:
    def base(self, **kwargs):
        return Table(
            "T", ["Id", "Name"], [("c1", "Microsoft"), ("c2", "Google")], **kwargs
        )

    def test_matches_fresh_construction(self):
        declared = self.base(keys=[("Id",)])
        extended = declared.extended([("c3", "Apple"), ("c4", "IBM")])
        fresh = Table(
            "T",
            ["Id", "Name"],
            [("c1", "Microsoft"), ("c2", "Google"), ("c3", "Apple"), ("c4", "IBM")],
            keys=[("Id",)],
        )
        assert extended == fresh
        assert extended.fingerprint() == fresh.fingerprint()
        assert extended.data_fingerprint() == fresh.data_fingerprint()

    def test_original_untouched(self):
        table = self.base(keys=[("Id",)])
        table.extended([("c3", "Apple")])
        assert table.num_rows == 2

    def test_zero_rows_returns_self(self):
        table = self.base(keys=[("Id",)])
        assert table.extended([]) is table

    def test_value_rows_patched_equals_fresh(self):
        table = self.base(keys=[("Id",)])
        table.find_rows({"Name": "Google"})  # build the index first
        extended = table.extended([("c3", "Google")])
        assert extended.value_rows("Name", "Google") == (1, 2)
        assert extended.find_rows({"Name": "Google"}) == scan_rows(
            extended, {"Name": "Google"}
        )

    def test_declared_key_break_raises(self):
        table = self.base(keys=[("Id",)])
        with pytest.raises(KeyConstraintError):
            table.extended([("c1", "Clone")])

    def test_discovered_keys_rediscovered_on_break(self):
        # (a,) is the discovered key; the append breaks it, and the
        # extended table must end up with exactly the keys a fresh
        # construction over the full rows discovers.
        table = Table("K", ["a", "b"], [("1", "x"), ("2", "y")])
        assert table.keys == (("a",), ("b",))
        extended = table.extended([("1", "z")])
        fresh = Table("K", ["a", "b"], [("1", "x"), ("2", "y"), ("1", "z")])
        assert extended.keys == fresh.keys
        assert extended.row_by_key(("b",), ("z",)) == 2

    def test_discovered_keys_kept_when_unbroken(self):
        table = Table("K", ["a", "b"], [("1", "x"), ("2", "y")])
        extended = table.extended([("3", "z")])
        fresh = Table("K", ["a", "b"], [("1", "x"), ("2", "y"), ("3", "z")])
        assert extended.keys == fresh.keys

    def test_last_resort_key_tolerates_duplicates(self):
        # Duplicate rows leave only the degenerate full-row key; more
        # duplicates must behave like a rebuild, not raise.
        table = Table("D", ["a"], [("x",), ("x",)])
        extended = table.extended([("x",)])
        fresh = Table("D", ["a"], [("x",), ("x",), ("x",)])
        assert extended.keys == fresh.keys
        assert extended == fresh

    def test_row_validation_uses_absolute_numbers(self):
        table = self.base(keys=[("Id",)])
        with pytest.raises(TableError, match="row 2"):
            table.extended([("only-one-cell",)])
        with pytest.raises(TableError, match="row 3"):
            table.extended([("c9", "ok"), ("c10", 42)])

    def test_pickle_drops_caches_and_roundtrips(self):
        table = self.base(keys=[("Id",)])
        table.fingerprint()
        table.find_rows({"Id": "c1"})
        clone = pickle.loads(pickle.dumps(table))
        assert clone == table
        assert clone.fingerprint() == table.fingerprint()
        assert clone.lookup("Name", {"Id": "c2"}) == "Google"
        # And the restored table can still be extended incrementally.
        assert clone.extended([("c3", "Apple")]).num_rows == 3


# -- freezing ----------------------------------------------------------------
class TestFrozenCatalog:
    def test_freeze_blocks_add_and_extend(self):
        catalog = Catalog([Table("T", ["a"], [("x",)])])
        catalog.freeze()
        with pytest.raises(FrozenCatalogError):
            catalog.add(Table("U", ["b"], [("y",)]))
        with pytest.raises(FrozenCatalogError):
            catalog.extend([Table("U", ["b"], [("y",)])])

    def test_with_table_freezes_parent_and_child(self):
        catalog = Catalog([Table("T", ["a"], [("x",)])])
        child = catalog.with_table(Table("U", ["b"], [("y",)]))
        assert catalog.frozen and child.frozen
        with pytest.raises(FrozenCatalogError):
            catalog.add(Table("V", ["c"], [("z",)]))

    def test_duplicate_table_raises_typed_error(self):
        catalog = Catalog([Table("T", ["a"], [("x",)])])
        with pytest.raises(DuplicateTableError) as excinfo:
            catalog.add(Table("T", ["a"], [("y",)]))
        assert excinfo.value.table == "T"

    def test_parent_snapshot_unchanged_by_child(self):
        catalog = Catalog(
            [Table("T", ["Id", "V"], [("a", "1")], keys=[("Id",)])]
        )
        catalog.substring_index().build()
        before = catalog_observables(catalog)
        child = catalog.with_rows("T", [("b", "2")])
        assert catalog_observables(catalog) == before
        assert child.table("T").num_rows == 2
        assert catalog.table("T").num_rows == 1


# -- Catalog.with_table ------------------------------------------------------
def two_table_catalog():
    return (
        Table("First", ["Id", "A"], [("f1", "shared"), ("f2", "alpha")],
              keys=[("Id",)]),
        Table("Second", ["Id", "B"], [("s1", "beta"), ("s2", "late-only")],
              keys=[("Id",)]),
    )


class TestWithTableEquivalence:
    def test_append_new_table(self):
        first, second = two_table_catalog()
        catalog = Catalog([first, second])
        catalog.substring_index().build()
        catalog.fingerprint()
        third = Table("Third", ["Id", "C"], [("t1", "shared")], keys=[("Id",)])
        snapshot = catalog.with_table(third)
        assert_equivalent(snapshot, [first, second, third])

    def test_extend_last_table(self):
        first, second = two_table_catalog()
        catalog = Catalog([first, second])
        catalog.substring_index().build()
        extended = second.extended([("s3", "fresh"), ("s4", "alpha")])
        snapshot = catalog.with_table(extended)
        assert_equivalent(snapshot, [first, extended])

    def test_extend_first_table_moves_later_seen_values(self):
        # "late-only" is first seen in Second; appending it to First
        # moves its first occurrence earlier -- a rebuild reorders the
        # distinct values, and the delta path must match exactly.
        first, second = two_table_catalog()
        catalog = Catalog([first, second])
        catalog.substring_index().build()
        extended = first.extended([("f3", "late-only"), ("f4", "brand-new")])
        snapshot = catalog.with_table(extended)
        assert_equivalent(snapshot, [extended, second])

    def test_replace_with_diverged_table_rebuilds(self):
        first, second = two_table_catalog()
        catalog = Catalog([first, second])
        replacement = Table(
            "First", ["Id", "A", "Extra"], [("f1", "x", "y")], keys=[("Id",)]
        )
        snapshot = catalog.with_table(replacement)
        assert_equivalent(snapshot, [replacement, second])

    def test_same_cells_new_keys_swaps_table_only(self):
        first, second = two_table_catalog()
        catalog = Catalog([first, second])
        catalog.substring_index().build()
        redeclared = Table("First", first.columns, first.rows, keys=[("A",)])
        snapshot = catalog.with_table(redeclared)
        assert_equivalent(snapshot, [redeclared, second])
        assert snapshot.table("First").keys == (("A",),)

    def test_with_rows_shorthand(self):
        first, second = two_table_catalog()
        catalog = Catalog([first, second])
        snapshot = catalog.with_rows("Second", [("s9", "tail")])
        assert snapshot.table("Second").num_rows == 3
        assert_equivalent(
            snapshot, [first, second.extended([("s9", "tail")])]
        )

    def test_unbuilt_substring_index_stays_lazy(self):
        first, second = two_table_catalog()
        catalog = Catalog([first, second])  # no substring build
        snapshot = catalog.with_rows("Second", [("s9", "tail")])
        assert snapshot._substring_index is None
        assert_equivalent(snapshot, [first, second.extended([("s9", "tail")])])


class TestSubstringSegments:
    def test_segments_merge_and_stay_logarithmic(self):
        catalog = Catalog(
            [Table("T", ["Id"], [(f"v{i}",) for i in range(64)], keys=[("Id",)])]
        )
        catalog.substring_index().build()
        snapshot = catalog
        for step in range(12):
            snapshot = snapshot.with_rows("T", [(f"w{step}",)])
        index = snapshot.substring_index()
        assert index.num_segments <= 8  # doubling merge keeps it O(log n)
        rebuilt = Catalog(
            [Table("T", ["Id"], list(snapshot.table("T").rows), keys=[("Id",)])]
        )
        fresh = rebuilt.substring_index()
        for query in ("v3", "w1", "v", "w", "zz"):
            assert index.overlapping(query) == fresh.overlapping(query)


# -- randomized equivalence --------------------------------------------------
CELLS = st.text(alphabet="ab1-", min_size=0, max_size=5)


@st.composite
def append_sequences(draw):
    """A base catalog plus a chain of COW operations to replay."""
    num_tables = draw(st.integers(min_value=1, max_value=3))
    tables = []
    for t in range(num_tables):
        num_rows = draw(st.integers(min_value=1, max_value=4))
        rows = [
            (f"k{t}.{r}", draw(CELLS), draw(CELLS)) for r in range(num_rows)
        ]
        tables.append(Table(f"T{t}", ["Id", "A", "B"], rows, keys=[("Id",)]))
    operations = []
    for step in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            target = draw(st.integers(min_value=0, max_value=num_tables - 1))
            rows = [
                (f"x{step}.{r}", draw(CELLS), draw(CELLS))
                for r in range(draw(st.integers(min_value=1, max_value=3)))
            ]
            operations.append(("append", target, rows))
        else:
            rows = [
                (f"n{step}.{r}", draw(CELLS), draw(CELLS))
                for r in range(draw(st.integers(min_value=1, max_value=2)))
            ]
            operations.append(("new", step, rows))
    return tables, operations


class TestRandomizedEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(scenario=append_sequences())
    def test_delta_chain_matches_rebuild(self, scenario):
        tables, operations = scenario
        catalog = Catalog(tables)
        catalog.substring_index().build()
        catalog.fingerprint()
        expected = list(tables)
        snapshot = catalog
        for kind, target, rows in operations:
            if kind == "append":
                extended = expected[target].extended(rows)
                expected[target] = extended
                snapshot = snapshot.with_table(extended)
            else:
                table = Table(
                    f"N{target}", ["Id", "A", "B"], rows, keys=[("Id",)]
                )
                expected.append(table)
                snapshot = snapshot.with_table(table)
        assert_equivalent(snapshot, expected, probes=("a", "ab", "b1", "-"))


# -- benchsuite catalogs -----------------------------------------------------
class TestBenchsuiteCatalogs:
    def test_delta_update_equals_rebuild_on_every_benchmark(self):
        for benchmark in all_benchmarks():
            if not benchmark.tables:
                continue  # purely syntactic problems have no catalog
            catalog = benchmark.catalog()
            catalog.substring_index().build()
            catalog.fingerprint()
            target = benchmark.tables[0]
            fresh_row = tuple(
                f"zz-{benchmark.ident}-{column}" for column in target.columns
            )
            extended = target.extended([fresh_row])
            snapshot = catalog.with_table(extended)
            expected = [
                extended if table.name == target.name else table
                for table in catalog.tables()
            ]
            left = catalog_observables(snapshot)
            right = catalog_observables(Catalog(expected))
            assert left == right, benchmark.name
