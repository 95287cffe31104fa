"""Indexed hot paths vs plain references: identical structures and outputs.

The occurrence index behind ``generate_dag``, the per-column inverted
indexes behind ``Table.find_rows``/``Table.lookup`` and the worklist
``emptiness_fixpoint`` behind both Intersect prunes must compute exactly
what the obvious scans in ``tests/references.py`` compute, on randomized
inputs (hypothesis).  The §5.3 substring trigger is pinned against a
scan in ``tests/test_substring_index.py``; whole-suite outputs are pinned
by the committed goldens (``tests/test_goldens.py``).
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import find_loop_dag, scan_lookup, scan_rows, sweep_fixpoint
from repro.config import DEFAULT_CONFIG
from repro.lookup import intersect as lookup_intersect
from repro.lookup.dstruct import emptiness_fixpoint
from repro.lookup.generate import generate_lookup
from repro.lookup.intersect import intersect_lookup
from repro.semantic import intersect as semantic_intersect
from repro.semantic.generate import generate_semantic
from repro.semantic.intersect import intersect_semantic
from repro.syntactic.generate import generate_dag
from repro.tables.catalog import Catalog
from repro.tables.table import Table


# -- structural keys (dags/conditions have no __eq__ across objects) --------
def dag_key(dag):
    if dag is None:
        return None
    return (
        dag.nodes,
        dag.source,
        dag.target,
        tuple(sorted((edge, tuple(atoms)) for edge, atoms in dag.edges.items())),
    )


# -- randomized inputs -------------------------------------------------------
ALPHABET = "ab1-"
cells = st.text(alphabet=ALPHABET, min_size=0, max_size=6)


@st.composite
def catalogs(draw):
    """1-2 small tables with a guaranteed unique Id key column."""
    tables = []
    for t in range(draw(st.integers(min_value=1, max_value=2))):
        n_rows = draw(st.integers(min_value=1, max_value=5))
        rows = [
            (f"k{t}{r}", draw(cells), draw(cells))
            for r in range(n_rows)
        ]
        tables.append(Table(f"T{t}", ["Id", "A", "B"], rows, keys=[("Id",)]))
    return Catalog(tables)


@st.composite
def tasks(draw):
    catalog = draw(catalogs())
    table = catalog.tables()[0]
    # Bias inputs toward strings overlapping real cells so reachability
    # actually fires; outputs toward reachable cells.
    row = table.rows[draw(st.integers(min_value=0, max_value=table.num_rows - 1))]
    state = (draw(cells) + row[0] + draw(cells),)
    output = row[draw(st.integers(min_value=0, max_value=2))] or "x"
    return catalog, state, output


class TestGenerateDagEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(
        sources=st.lists(
            st.text(alphabet=ALPHABET, max_size=8), min_size=0, max_size=4
        ),
        output=st.text(alphabet=ALPHABET, min_size=0, max_size=8),
    )
    def test_identical_dags(self, sources, output):
        numbered = list(enumerate(sources))
        indexed = generate_dag(numbered, output)
        reference = find_loop_dag(numbered, output)
        assert dag_key(indexed) == dag_key(reference)
        # Atom order inside each edge must match too (dag_key sorts edges
        # but keeps each option list in emission order).
        assert list(indexed.edges.keys()) == list(reference.edges.keys())

    def test_ref_atom_ablation_respected(self):
        numbered = [(0, "ab")]
        config = replace(DEFAULT_CONFIG, include_ref_atoms=False)
        indexed = generate_dag(numbered, "ab", config)
        assert dag_key(indexed) == dag_key(find_loop_dag(numbered, "ab", config))
        assert len(indexed.edges[(0, 2)]) == 2  # the constant and the SubStr


class TestTableIndexEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(
        cell_rows=st.lists(
            st.tuples(cells, cells, cells), min_size=1, max_size=12
        ),
        query=st.tuples(cells, cells),
        data=st.data(),
    )
    def test_find_rows_and_lookup_match_scan(self, cell_rows, query, data):
        rows = [(f"id{i}",) + row for i, row in enumerate(cell_rows)]
        table = Table("T", ["Id", "A", "B", "C"], rows, keys=[("Id",)])
        # Mix real cell values into the query half the time.
        conditions = {"A": query[0], "B": query[1]}
        if data.draw(st.booleans()):
            row = rows[data.draw(st.integers(0, len(rows) - 1))]
            conditions = {"A": row[1], "B": row[2]}
        assert table.find_rows(conditions) == scan_rows(table, conditions)
        assert table.lookup("C", conditions) == scan_lookup(table, "C", conditions)

    def test_empty_conditions_match(self):
        table = Table("T", ["A"], [("x",), ("y",)], keys=[("A",)])
        assert table.find_rows({}) == scan_rows(table, {})

    def test_single_key_lookup_uses_posting(self):
        table = Table("T", ["Id", "V"], [("a", "1"), ("b", "2")], keys=[("Id",)])
        assert table.value_rows("Id", "b") == (1,)
        assert table.value_rows("Id", "zz") == ()
        assert table.lookup("V", {"Id": "b"}) == "2"

    def test_unknown_column_raises_like_scan(self):
        from repro.exceptions import UnknownColumnError

        table = Table("T", ["Id", "V"], [("a", "1"), ("b", "2")], keys=[("Id",)])
        # Even when another condition's posting is empty (which would
        # short-circuit to []), the unknown column must raise, matching
        # the scan's contract.
        for conditions in (
            {"Id": "missing-value", "Nope": "x"},
            {"Nope": "x", "Id": "missing-value"},
        ):
            with pytest.raises(UnknownColumnError):
                table.find_rows(conditions)
            with pytest.raises(UnknownColumnError):
                scan_rows(table, conditions)


class TestFixpointEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(task=tasks())
    def test_semantic_worklist_matches_sweeps(self, task):
        catalog, state, output = task
        first = generate_semantic(catalog, state, output)
        second = generate_semantic(catalog, (state[0] + "-",), output)
        merged = intersect_semantic(first, second)
        if merged is None:
            return
        store = merged.store
        select_valid = semantic_intersect._select_valid
        assert emptiness_fixpoint(store, select_valid) == sweep_fixpoint(
            store, select_valid
        )

    @settings(max_examples=30, deadline=None)
    @given(task=tasks())
    def test_lookup_worklist_matches_sweeps(self, task):
        catalog, state, output = task
        first = generate_lookup(catalog, state, output)
        second = generate_lookup(catalog, (state[0] + "-",), output)
        if first.target is None or second.target is None:
            return
        merged = intersect_lookup(first, second)
        if merged is None:
            return
        select_valid = lookup_intersect._select_valid
        assert emptiness_fixpoint(merged, select_valid) == sweep_fixpoint(
            merged, select_valid
        )
