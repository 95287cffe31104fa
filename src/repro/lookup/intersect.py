"""Intersect_t: intersection of two Dt structures (paper Figure 5(b)).

Product construction over node pairs with memoization, following the
paper's rules:

* ``v_i ∩ v_i = v_i``,
* selects intersect only with the same table and column; their conditions
  intersect per candidate key, per column, in order,
* ``C = {s1, η1} ∩ C = {s2, η2}``: the constant survives iff s1 = s2; the
  node option becomes the product node (η1, η2).

A product node's Progs may intersect to the empty set, and predicates may
reference such empty nodes; a global least-fixpoint pass computes which
product nodes denote at least one concrete expression, then the structure
is rewritten to drop everything else (returning ``None`` when the target
itself is empty).
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


def intersect_lookup(first: NodeStore, second: NodeStore) -> Optional[NodeStore]:
    """The paper's Intersect_t; ``None`` when no common expression exists."""
    if first.target is None or second.target is None:
        return None
    result = NodeStore(depth_limit=min(first.depth_limit, second.depth_limit))
    memo: Dict[Tuple[int, int], int] = {}
    cond_memo: Dict[Tuple[int, int], Optional[RowCondition]] = {}

    def intersect_nodes(n1: int, n2: int) -> int:
        existing = memo.get((n1, n2))
        if existing is not None:
            return existing
        node = result.new_node(None)
        memo[(n1, n2)] = node
        entries: List = []
        selects2 = [e for e in second.progs[n2] if isinstance(e, GenSelect)]
        vars2 = {e.index for e in second.progs[n2] if isinstance(e, VarEntry)}
        for entry in first.progs[n1]:
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
        return node

    def intersect_conditions(
        cond1: RowCondition, cond2: RowCondition
    ) -> Optional[RowCondition]:
        key = (id(cond1), id(cond2))
        if key in cond_memo:
            return cond_memo[key]
        merged_keys: List[List[GenPredicate]] = []
        # Same table => same candidate-key list; intersect positionally,
        # "maintaining their corresponding orderings" (§4.3).
        for predicates1, predicates2 in zip(cond1.keys, cond2.keys):
            if len(predicates1) != len(predicates2):
                continue
            merged: List[GenPredicate] = []
            ok = True
            for p1, p2 in zip(predicates1, predicates2):
                if p1.column != p2.column:
                    ok = False
                    break
                constant = p1.constant if p1.constant == p2.constant else None
                node = (
                    intersect_nodes(p1.node, p2.node)
                    if p1.node is not None and p2.node is not None
                    else None
                )
                if constant is None and node is None:
                    ok = False
                    break
                # The merged node binding is only as trustworthy as the
                # weaker of the two sides' matcher provenance.
                if p1.node_confidence <= p2.node_confidence:
                    strategy, confidence = p1.node_strategy, p1.node_confidence
                else:
                    strategy, confidence = p2.node_strategy, p2.node_confidence
                merged.append(
                    GenPredicate(
                        p1.column,
                        constant=constant,
                        node=node,
                        node_strategy=strategy,
                        node_confidence=confidence,
                    )
                )
            if ok and merged:
                merged_keys.append(merged)
        outcome = (
            RowCondition(cond1.table, -1, merged_keys) if merged_keys else None
        )
        cond_memo[key] = outcome
        return outcome

    result.target = intersect_nodes(first.target, second.target)
    return prune_store(result)


def _predicate_valid(predicate: GenPredicate, valid: Set[int]) -> bool:
    if predicate.constant is not None:
        return True
    if predicate.node is not None and predicate.node in valid:
        return True
    if predicate.dag is not None:
        # Dag predicates are handled by the semantic pruning pass, which
        # rewrites them before this check; a surviving dag is valid.
        return True
    return False


def _select_valid(entry: GenSelect, valid: Set[int]) -> bool:
    """Some candidate key has every predicate satisfiable given ``valid``
    (constants always satisfy; node references need a valid node)."""
    for predicates in entry.cond.keys:
        if all(_predicate_valid(p, valid) for p in predicates):
            return True
    return False


def prune_store(store: NodeStore) -> Optional[NodeStore]:
    """Drop empty nodes/entries/keys and restrict to the target component.

    Rewrites the store in place (conditions are rebuilt without invalid
    options) and returns it, or ``None`` when the target is empty.
    """
    if store.target is None:
        return None
    valid = emptiness_fixpoint(store, _select_valid)
    if store.target not in valid:
        return None

    def rewrite(p: GenPredicate) -> Optional[GenPredicate]:
        if not _predicate_valid(p, valid):
            return None
        return GenPredicate(
            p.column,
            constant=p.constant,
            node=p.node if p.node in valid else None,
            dag=p.dag,
            node_strategy=p.node_strategy,
            node_confidence=p.node_confidence,
        )

    prune_entries(store, valid, rewrite)
    # Restrict to the target component: dropping invalid keys can strand
    # valid nodes no surviving predicate references.
    store.restrict_to([store.target])
    return store
