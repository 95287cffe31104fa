"""Intersect_u (paper §5.3): Intersect_t ∪ Intersect_s + the four new rules.

The four extra rules of the paper map onto this implementation as:

* ``Intersect_u(ẽ_t, ẽ_t')`` -- node-pair intersection (worklist below),
* ``Intersect_u(C = ẽ_s, C = ẽ_s')`` -- predicate dags intersect via the
  dag product of :func:`repro.syntactic.intersect.intersect_dags`,
* ``Intersect_u(SubStr(...), SubStr(...))`` -- handled inside the dag atom
  intersection (sources merge into node pairs, position sets intersect),
* ``Intersect_u(Dag(...), Dag(...))`` -- the top-level dag product.

Node pairs are allocated lazily from a worklist (dag atom intersection
requests them through ``merge_source``); their Progs intersections may be
empty, and predicate dags may lose all their paths once empty nodes are
known, so a global least-fixpoint pass computes node validity and the
structure is rewritten (pruned dags, dropped keys/entries) afterwards.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.lookup.dstruct import (
    GenPredicate,
    GenSelect,
    NodeStore,
    RowCondition,
    VarEntry,
    emptiness_fixpoint,
    prune_entries,
)
from repro.semantic.dstruct import SemanticStructure
from repro.syntactic.dag import Atom, ConstAtom, Dag
from repro.syntactic.intersect import intersect_dags


def intersect_semantic(
    first: SemanticStructure, second: SemanticStructure
) -> Optional[SemanticStructure]:
    """The paper's Intersect_u; ``None`` when no common program exists."""
    result = NodeStore(
        depth_limit=min(first.store.depth_limit, second.store.depth_limit)
    )
    pair_ids: Dict[Tuple[int, int], int] = {}
    worklist: List[Tuple[int, int]] = []
    dag_memo: Dict[Tuple[int, int], Optional[Dag]] = {}
    cond_memo: Dict[Tuple[int, int], Optional[RowCondition]] = {}

    def merge_source(a: int, b: int) -> Optional[int]:
        """Allocate (lazily) the product node for sources (a, b)."""
        pair = (a, b)
        node = pair_ids.get(pair)
        if node is None:
            node = result.new_node(None)
            pair_ids[pair] = node
            worklist.append(pair)
        return node

    def intersect_predicate_dags(d1: Dag, d2: Dag) -> Optional[Dag]:
        key = (id(d1), id(d2))
        if key in dag_memo:
            return dag_memo[key]
        merged = intersect_dags(d1, d2, merge_source)
        dag_memo[key] = merged
        return merged

    def intersect_conditions(
        cond1: RowCondition, cond2: RowCondition
    ) -> Optional[RowCondition]:
        key = (id(cond1), id(cond2))
        if key in cond_memo:
            return cond_memo[key]
        merged_keys: List[List[GenPredicate]] = []
        for predicates1, predicates2 in zip(cond1.keys, cond2.keys):
            if len(predicates1) != len(predicates2):
                continue
            merged: List[GenPredicate] = []
            ok = True
            for p1, p2 in zip(predicates1, predicates2):
                if p1.column != p2.column or p1.dag is None or p2.dag is None:
                    ok = False
                    break
                dag = intersect_predicate_dags(p1.dag, p2.dag)
                if dag is None:
                    ok = False
                    break
                merged.append(GenPredicate(p1.column, dag=dag))
            if ok and merged:
                merged_keys.append(merged)
        outcome = RowCondition(cond1.table, -1, merged_keys) if merged_keys else None
        cond_memo[key] = outcome
        return outcome

    # Top-level dag product seeds the worklist with the node pairs its
    # surviving atoms reference.
    top_dag = intersect_dags(first.dag, second.dag, merge_source)
    if top_dag is None:
        return None

    # Drain the worklist: compute Progs for every requested node pair.
    while worklist:
        n1, n2 = worklist.pop()
        node = pair_ids[(n1, n2)]
        entries: List = []
        selects2 = [e for e in second.store.progs[n2] if isinstance(e, GenSelect)]
        vars2 = {e.index for e in second.store.progs[n2] if isinstance(e, VarEntry)}
        for entry in first.store.progs[n1]:
            if isinstance(entry, VarEntry):
                if entry.index in vars2:
                    entries.append(entry)
                continue
            for other in selects2:
                if entry.table != other.table or entry.column != other.column:
                    continue
                cond = intersect_conditions(entry.cond, other.cond)
                if cond is not None:
                    entries.append(GenSelect(entry.column, entry.table, cond))
        result.progs[node] = entries

    structure = SemanticStructure(store=result, dag=top_dag)
    return prune_semantic(structure)


# ----------------------------------------------------------------------
# Emptiness pruning.
# ----------------------------------------------------------------------

def _atom_valid(atom: Atom, valid: Set[int]) -> bool:
    if isinstance(atom, ConstAtom):
        return True
    return atom.source in valid


def _dag_has_valid_path(dag: Dag, valid: Set[int]) -> bool:
    """Any source→target path whose every edge has a valid atom?"""
    if dag.is_trivial_empty:
        return True
    out = dag.out_neighbors()
    seen = {dag.source}
    stack = [dag.source]
    while stack:
        node = stack.pop()
        if node == dag.target:
            return True
        for successor in out[node]:
            if successor in seen:
                continue
            options = dag.edges.get((node, successor))
            if not options:
                continue
            if any(_atom_valid(atom, valid) for atom in options):
                seen.add(successor)
                stack.append(successor)
    return False


def _select_valid(entry: GenSelect, valid: Set[int]) -> bool:
    for predicates in entry.cond.keys:
        if all(
            predicate.dag is not None and _dag_has_valid_path(predicate.dag, valid)
            for predicate in predicates
        ):
            return True
    return False


def prune_semantic(structure: SemanticStructure) -> Optional[SemanticStructure]:
    """Rewrite Du dropping everything empty; ``None`` if no program remains."""
    store = structure.store
    valid = emptiness_fixpoint(store, _select_valid)

    def atom_alive(atom: Atom) -> bool:
        return _atom_valid(atom, valid)

    pruned_dag_memo: Dict[int, Optional[Dag]] = {}

    def rewrite(predicate: GenPredicate) -> Optional[GenPredicate]:
        if predicate.dag is None:
            return None
        key = id(predicate.dag)
        if key not in pruned_dag_memo:
            pruned_dag_memo[key] = predicate.dag.pruned(atom_alive)
        pruned = pruned_dag_memo[key]
        return None if pruned is None else GenPredicate(predicate.column, dag=pruned)

    prune_entries(store, valid, rewrite)
    top = structure.dag.pruned(atom_alive)
    if top is None:
        return None

    # Garbage-collect nodes unreachable from the surviving top dag: the
    # validity rewrite can strand valid nodes whose only referents were
    # dropped, and emptying them keeps the structure a property of the
    # denoted program set rather than of construction order.
    roots = {
        atom.source
        for options in top.edges.values()
        for atom in options
        if not isinstance(atom, ConstAtom)
    }
    store.restrict_to(roots)
    return SemanticStructure(store=store, dag=top)
