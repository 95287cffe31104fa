"""Intersect_s: intersection of two Dags (paper §5.3).

The product construction mirrors finite-automaton intersection: product
nodes are pairs of nodes, and an edge exists where both dags have an edge
whose atom sets intersect.  Atom intersection rules:

* ``ConstAtom`` ∩ ``ConstAtom``: equal text survives,
* ``RefAtom`` ∩ ``RefAtom``: sources must merge (equality for variables;
  node-pair intersection in Lu, supplied via ``merge_source``),
* ``SubStrAtom`` ∩ ``SubStrAtom``: sources must merge and both position
  sets must intersect (``IntersectPos``).

``merge_source(s1, s2)`` returns the merged source id or ``None``; in Lu
it allocates product nodes whose emptiness is only known after the global
pruning fixpoint, so the returned dag may still contain atoms that later
prove empty -- :meth:`Dag.pruned` removes them.

The product BFS is pruned: a co-reachability guard evaluated *before*
any atom work (per-dag bitmasks of path lengths to the target) decides
in O(1) whether a pair can still sit on a start→accept path (each
product step advances both dags, so the length sets must intersect).
Pairs that fail it cost no atom intersection and, in Lu, no product-node
allocations.  The surviving pairs are renumbered canonically (sorted
pair order), so node ids do not depend on the BFS discovery order.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.syntactic.dag import Atom, ConstAtom, ContentKey, Dag, RefAtom, SubStrAtom
from repro.syntactic.positions import intersect_position_sets_cached

MergeSource = Callable[[int, int], Optional[int]]
Pair = Tuple[int, int]
Buckets = Tuple[set, List[Atom], List[Atom]]


def equal_source_merge(first: int, second: int) -> Optional[int]:
    """Source merge for pure Ls: variable indices must be equal."""
    return first if first == second else None


def _atom_buckets(options: List[Atom]) -> Buckets:
    """Bucket an edge's atoms by type (the per-edge half of the pairwise work)."""
    consts = set()
    refs: List[Atom] = []
    substrs: List[Atom] = []
    for atom in options:
        if isinstance(atom, ConstAtom):
            consts.add(atom.text)
        elif isinstance(atom, RefAtom):
            refs.append(atom)
        else:
            substrs.append(atom)
    return consts, refs, substrs


def _make_bucketer() -> Callable[[List[Atom]], Buckets]:
    """Memoize :func:`_atom_buckets` per edge for one product run.

    An edge of the first dag is paired with every partner edge of the
    second; the memo (id-keyed: option lists are owned by the live input
    dag for the whole run) buckets it once per edge, not once per partner.
    """
    cache: Dict[int, Buckets] = {}

    def bucket(options: List[Atom]) -> Buckets:
        key = id(options)
        entry = cache.get(key)
        if entry is None:
            entry = _atom_buckets(options)
            cache[key] = entry
        return entry

    return bucket


def _intersect_atoms(
    buckets: Buckets, second: List[Atom], merge_source: MergeSource
) -> List[Atom]:
    """All pairwise atom intersections of a bucketed edge with ``second``."""
    result: List[Atom] = []
    consts, refs, substrs = buckets
    for atom in second:
        if isinstance(atom, ConstAtom):
            if atom.text in consts:
                result.append(atom)
        elif isinstance(atom, RefAtom):
            for other in refs:
                merged = merge_source(other.source, atom.source)
                if merged is not None:
                    result.append(RefAtom(merged))
        else:
            for other in substrs:
                merged = merge_source(other.source, atom.source)
                if merged is None:
                    continue
                p1 = intersect_position_sets_cached(other.p1, atom.p1)
                if p1 is None:
                    continue
                p2 = intersect_position_sets_cached(other.p2, atom.p2)
                if p2 is None:
                    continue
                result.append(SubStrAtom(merged, p1, p2))
    return result


def _target_length_masks(dag: Dag) -> Dict[int, int]:
    """Per-node bitmask of structural path lengths to the target.

    ``masks[n]`` has bit L set iff some n→target path has exactly L edges.
    One linear pass over the memoized topological order; masks are plain
    ints used as bitsets.
    """
    out = dag.out_neighbors()
    masks: Dict[int, int] = {node: 0 for node in dag.nodes}
    masks[dag.target] = 1
    for node in reversed(dag.topological_order()):
        acc = 0
        for successor in out[node]:
            acc |= masks[successor]
        masks[node] |= acc << 1
    return masks


def _product(
    first: Dag, second: Dag, merge_source: MergeSource
) -> Tuple[Dict[Tuple[Pair, Pair], List[Atom]], Set[Pair]]:
    """Forward product BFS guarded by co-reachability masks.

    Returns the recorded edges plus the BFS seen-set (= forward
    reachability over those edges, reused by :func:`_finalize_product`).

    A product pair (a, b) is explored only if some a→target path in
    ``first`` and some b→target path in ``second`` have the *same* number
    of edges (each product step advances both dags); the length sets are
    per-dag bitmasks, so the guard is two dict reads and an AND.
    (Start-side reachability needs no guard: the BFS only reaches a pair
    over equal-length live paths by construction.)
    """
    start = (first.source, second.source)
    bwd1 = _target_length_masks(first)
    bwd2 = _target_length_masks(second)
    if not (bwd1[first.source] & bwd2[second.source]):
        return {}, {start}

    out1 = first.out_neighbors()
    out2 = second.out_neighbors()
    bucket_of = _make_bucketer()
    edges: Dict[Tuple[Pair, Pair], List[Atom]] = {}
    worklist = [start]
    seen = {start}
    while worklist:
        a, b = worklist.pop()
        for a2 in out1[a]:
            options1 = first.edges.get((a, a2))
            if not options1:
                continue
            bwd1_a2 = bwd1[a2]
            for b2 in out2[b]:
                if not (bwd1_a2 & bwd2[b2]):
                    continue  # (a2, b2) is never on a start→accept path
                options2 = second.edges.get((b, b2))
                if not options2:
                    continue
                merged = _intersect_atoms(bucket_of(options1), options2, merge_source)
                if not merged:
                    continue
                edges[((a, b), (a2, b2))] = merged
                if (a2, b2) not in seen:
                    seen.add((a2, b2))
                    worklist.append((a2, b2))
    return edges, seen


def _finalize_product(
    edges: Dict[Tuple[Pair, Pair], List[Atom]],
    forward: Set[Pair],
    start: Pair,
    goal: Pair,
) -> Optional[Dag]:
    """Prune the pair graph to start→goal paths and renumber canonically.

    ``forward`` is the BFS's seen-set -- exactly the pairs reachable from
    ``start`` over the recorded edges (a pair enters it when a non-empty
    edge reaches it), so only the backward sweep remains: one linear BFS
    over the reversed adjacency instead of a quadratic while-changed
    fixpoint.
    """
    if goal not in forward:
        return None
    reverse: Dict[Pair, List[Pair]] = {}
    for (i, j) in edges:
        reverse.setdefault(j, []).append(i)
    backward: Set[Pair] = {goal}
    stack = [goal]
    while stack:
        pair = stack.pop()
        for previous in reverse.get(pair, ()):
            if previous not in backward:
                backward.add(previous)
                stack.append(previous)
    alive = forward & backward
    ids = {pair: index for index, pair in enumerate(sorted(alive))}
    # Insertion order of the edge dict is canonical too, so equal inputs
    # give byte-identical dags (dict iteration order leaks into nothing
    # semantic, but determinism should not depend on that).
    final_edges = dict(
        sorted(
            ((ids[i], ids[j]), options)
            for (i, j), options in edges.items()
            if i in alive and j in alive
        )
    )
    return Dag(tuple(range(len(ids))), ids[start], ids[goal], final_edges)


# ----------------------------------------------------------------------
# The dag-level intersection memo.
#
# The interaction model of §3.2 re-learns after every new example, so the
# same (running, fresh) products recur across Synthesizer calls -- round k
# redoes every intersection of round k-1.  Atoms are frozen dataclasses
# and position sets plain tuples, so a dag's content key is hashable and
# collision-safe (no object identities involved); serving a repeated
# product from the memo skips the whole pair BFS.  Only sound for the
# pure-variable merge: in Lu ``merge_source`` allocates product-store
# nodes as a side effect, which must rerun per store.
# ----------------------------------------------------------------------

_DAG_CACHE: "OrderedDict[tuple, Optional[Dag]]" = OrderedDict()
_DAG_CACHE_LIMIT = 2048
_DAG_STATS = {"hits": 0, "misses": 0, "evictions": 0}
_DAG_LOCK = threading.Lock()


def _dag_content_key(dag: Dag) -> ContentKey:
    """Structural identity of ``dag``, built fresh on every call.

    Deliberately *not* memoized on the dag: ``Dag.edges`` is publicly
    mutable and a stale cached key would silently corrupt the global memo
    for every later structurally-matching product.  The one extra pass is
    amortized by the product work a memo hit avoids; the
    :class:`~repro.syntactic.dag.ContentKey` wrapper still caches the
    hash so dict lookups do not rehash the whole structure.
    """
    return ContentKey(
        (
            dag.nodes,
            dag.source,
            dag.target,
            tuple(sorted((edge, tuple(atoms)) for edge, atoms in dag.edges.items())),
        )
    )


def dag_cache_stats() -> dict:
    """Hit/miss/eviction/size counters of the dag-level intersection memo."""
    with _DAG_LOCK:
        stats = dict(_DAG_STATS)
        stats["entries"] = len(_DAG_CACHE)
    total = stats["hits"] + stats["misses"]
    stats["hit_rate"] = stats["hits"] / total if total else 0.0
    stats["limit"] = _DAG_CACHE_LIMIT
    return stats


def reset_dag_cache_stats() -> None:
    """Zero the counters (the memo itself is kept)."""
    for key in _DAG_STATS:
        _DAG_STATS[key] = 0


def _private_dag_copy(dag: Optional[Dag]) -> Optional[Dag]:
    """A caller-owned copy of a memoized product (edge lists copied too).

    The memo must never hand out the instance it stores: ``Dag.edges`` is
    publicly mutable, and a caller mutating "its" result would silently
    corrupt every later hit.  Atoms and position sets are immutable, so
    copying the edge dict and its lists is full isolation; the cost is
    linear in the structure -- far below the product work a hit avoids.
    """
    if dag is None:
        return None
    return Dag(
        dag.nodes,
        dag.source,
        dag.target,
        {edge: list(options) for edge, options in dag.edges.items()},
    )


def clear_dag_cache() -> None:
    """Drop the memo (cold-start for benchmarks)."""
    with _DAG_LOCK:
        _DAG_CACHE.clear()


def intersect_dags(
    first: Dag, second: Dag, merge_source: MergeSource = equal_source_merge
) -> Optional[Dag]:
    """Product-automaton intersection; ``None`` when no common expression.

    Atoms are merged only on edges that can reach the accept pair,
    position-set intersections come from the interned memo, and (for the
    pure-variable merge) whole repeated products are served from the
    dag-level memo.  Returned node ids are canonical (sorted surviving
    pair order).
    """
    if first.is_trivial_empty or second.is_trivial_empty:
        # Only the empty concatenation lives in a trivial dag; intersection
        # is non-empty only if both are trivial.
        if first.is_trivial_empty and second.is_trivial_empty:
            return Dag((0,), 0, 0, {})
        return None

    memo_key = None
    if merge_source is equal_source_merge:
        memo_key = (_dag_content_key(first), _dag_content_key(second))
        with _DAG_LOCK:
            if memo_key in _DAG_CACHE:
                _DAG_STATS["hits"] += 1
                _DAG_CACHE.move_to_end(memo_key)
                return _private_dag_copy(_DAG_CACHE[memo_key])
            _DAG_STATS["misses"] += 1

    edges, forward = _product(first, second, merge_source)
    start = (first.source, second.source)
    goal = (first.target, second.target)
    result = _finalize_product(edges, forward, start, goal)
    if memo_key is not None:
        with _DAG_LOCK:
            while len(_DAG_CACHE) >= _DAG_CACHE_LIMIT:
                _DAG_CACHE.popitem(last=False)
                _DAG_STATS["evictions"] += 1
            # Store a private copy: the caller owns ``result`` and may
            # mutate it; hits hand out copies of this stored instance.
            _DAG_CACHE[memo_key] = _private_dag_copy(result)
    return result
