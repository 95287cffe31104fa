"""GenerateStr'_t and GenerateStr_u (paper §5.3).

``GenerateStr'_t`` relaxes the reachability trigger of ``GenerateStr_t``:
a table entry ``T[C, r]`` is reachable when it can be *syntactically
derived* from already-reachable strings.  We implement the paper's own
"stronger restriction": there must exist a reachable string ``x`` with
``T[C, r]`` a substring of ``x`` or ``x`` a substring of ``T[C, r]``
(exact equality included).  Such an entry always admits a GenerateStr_s
expression using a variable, so the restriction implies the general check.

Generalized conditions then carry a full Dag per candidate-key column
(``C' = GenerateStrs(σ ∪ η̃, T[C', r])``), and ``GenerateStr_u`` finishes
by building the top-level Dag for the output string over σ ∪ η̃.

As in :mod:`repro.lookup.generate`, reachability runs to a k-bounded
fixpoint first and all dags are built once against the final node set
(DESIGN.md note 2); dags are shared across predicates keyed by the same
string, preserving the paper's sharing.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.config import DEFAULT_CONFIG, SynthesisConfig
from repro.core.base import InputState
from repro.lookup.dstruct import (
    GenPredicate,
    GenSelect,
    NodeStore,
    RowCondition,
    VarEntry,
)
from repro.semantic.dstruct import SemanticStructure
from repro.syntactic.dag import Dag
from repro.syntactic.generate import generate_dag
from repro.tables.catalog import Catalog

RowKey = Tuple[str, int]


def generate_semantic(
    catalog: Catalog,
    state: InputState,
    output: str,
    config: SynthesisConfig = DEFAULT_CONFIG,
) -> SemanticStructure:
    """Build Du for the example (state -> output)."""
    depth_bound = (
        config.depth_bound
        if config.depth_bound is not None
        else catalog.default_depth_bound()
    )
    store = NodeStore(depth_limit=depth_bound + 2)

    frontier: List[int] = []
    for index, value in enumerate(state):
        node, created = store.ensure_node(value, depth=0)
        if created:
            frontier.append(node)
        store.progs[node].append(VarEntry(index))

    # Phase 1: relaxed reachability.  ``untriggered_ids`` tracks the
    # catalog's distinct values not yet matched; each step tests the new
    # frontier only, through the substring index.  Newly triggered values
    # are emitted in catalog insertion order -- iterating a *set* here once
    # made node ids (and ranking tie-breaks) depend on PYTHONHASHSEED.
    matched_columns: Dict[RowKey, Set[str]] = {}
    attached: Set[Tuple[str, str, int]] = set()
    pending_selects: List[Tuple[int, str, str, int]] = []
    index = catalog.substring_index()
    untriggered_ids: Set[int] = set(range(len(index)))

    step = 0
    while frontier and step < depth_bound and len(store) < config.max_reachable_nodes:
        step += 1
        frontier_values = [store.vals[node] for node in frontier if store.vals[node]]
        triggered_ids: Set[int] = set()
        for reachable in frontier_values:
            if config.relaxed_reachability:
                hits = index.overlapping(reachable, config.min_overlap_len)
            else:
                equal = index.id_of(reachable)
                hits = () if equal is None else (equal,)
            for value_id in hits:
                if value_id in untriggered_ids:
                    triggered_ids.add(value_id)
        untriggered_ids.difference_update(triggered_ids)
        # Sorted ids = catalog insertion order.
        newly_triggered = [index.values[i] for i in sorted(triggered_ids)]

        affected_rows: List[RowKey] = []
        for entry_value in newly_triggered:
            for occurrence in catalog.occurrences_of(entry_value):
                row_key = (occurrence.table, occurrence.row)
                columns = matched_columns.setdefault(row_key, set())
                if occurrence.column not in columns:
                    columns.add(occurrence.column)
                    affected_rows.append(row_key)

        next_frontier: List[int] = []
        for table_name, row in affected_rows:
            table = catalog.table(table_name)
            matched = matched_columns[(table_name, row)]
            for column in table.columns:
                if not (matched - {column}):
                    continue
                key = (table_name, column, row)
                if key in attached:
                    continue
                attached.add(key)
                value = table.cell(column, row)
                if not value:
                    continue  # empty cells produce nothing lookupable
                node, created = store.ensure_node(value, depth=step)
                if created:
                    next_frontier.append(node)
                pending_selects.append((node, table_name, column, row))
        frontier = next_frontier

    # Phase 2: predicate dags over the final node set, shared by target
    # string (the same key value gets the same dag object).
    sources = [
        (node, value)
        for node, value in enumerate(store.vals)
        if value  # skip empty values
    ]
    dag_cache: Dict[str, Dag] = {}

    def predicate_dag(target: str) -> Dag:
        cached = dag_cache.get(target)
        if cached is None:
            cached = generate_dag(sources, target, config)
            dag_cache[target] = cached
        return cached

    conditions: Dict[RowKey, RowCondition] = {}
    for (table_name, row) in matched_columns:
        table = catalog.table(table_name)
        per_key: List[List[GenPredicate]] = []
        for candidate_key in table.keys:
            predicates = [
                GenPredicate(
                    column=key_column,
                    dag=predicate_dag(table.cell(key_column, row)),
                )
                for key_column in candidate_key
            ]
            per_key.append(predicates)
        conditions[(table_name, row)] = RowCondition(table_name, row, per_key)

    # Phase 3: attach the generalized selects.
    for node, table_name, column, row in pending_selects:
        store.progs[node].append(
            GenSelect(column, table_name, conditions[(table_name, row)])
        )

    store.target = store.node_for(output)

    # GenerateStr_u: the top-level dag over σ ∪ η̃ (Figure 8).
    top_dag = generate_dag(sources, output, config)
    return SemanticStructure(store=store, dag=top_dag)
