"""Generalized position sets (the p̃ of the Dag data structure, §5.2).

A generalized position set represents *all* position expressions that
evaluate to a given position ``t`` of a given string.  It is a tuple of
entries of two shapes (plain tagged tuples for speed -- these are the
hottest objects in the synthesizer):

* ``("C", k)`` -- the constant positions ``CPos(t)`` and ``CPos(t-l-1)``,
* ``("R", r1, r2, cs)`` -- ``pos(r1, r2, c)`` for every ``c`` in the
  frozenset ``cs`` (the occurrence index from the left and from the right).

``pos(ε, ε, c)`` is deliberately excluded: it aliases constant positions
and would only inflate the expression counts of Figure 11(a).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.config import RankingWeights
from repro.syntactic.ast import CPos, Pos, Position
from repro.syntactic.regex import (
    EPSILON,
    Regex,
    boundary_index,
    candidate_left_regexes,
    candidate_right_regexes,
)
from repro.syntactic.tokens import match_index

# Entry shapes: ("C", k) | ("R", r1, r2, cs)
PosEntry = tuple
PosSet = Tuple[PosEntry, ...]

TAG_CPOS = "C"
TAG_REGEX = "R"


def generalized_positions(text: str, position: int, max_tokenseq_len: int = 1) -> PosSet:
    """All position expressions evaluating to ``position`` on ``text``.

    Mirrors the generation step of GenerateStr_s: two constant entries and
    one regex entry per (r1, r2) boundary pair matching at ``position``.
    """
    if not 0 <= position <= len(text):
        raise ValueError(f"position {position} out of range for {text!r}")
    entries: List[PosEntry] = [
        (TAG_CPOS, position),
        (TAG_CPOS, position - len(text) - 1),
    ]
    token_index = match_index(text)
    boundaries = boundary_index(text)
    lefts = candidate_left_regexes(token_index, position, max_tokenseq_len)
    rights = candidate_right_regexes(token_index, position, max_tokenseq_len)
    for r1 in lefts:
        for r2 in rights:
            if r1 == EPSILON and r2 == EPSILON:
                continue
            matches = boundaries.pair_positions(r1, r2)
            index = bisect_left(matches, position)
            if index >= len(matches) or matches[index] != position:
                continue  # defensive: the pair should match at position
            cs = frozenset((index + 1, index - len(matches)))
            entries.append((TAG_REGEX, r1, r2, cs))
    return tuple(entries)


_GP_CACHE: "OrderedDict[tuple, PosSet]" = OrderedDict()
_GP_CACHE_LIMIT = 65536
_GP_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def cached_positions(text: str, position: int, max_tokenseq_len: int = 1) -> PosSet:
    """Memoized :func:`generalized_positions` (hot path of GenerateStr).

    The memo is a true LRU: at :data:`_GP_CACHE_LIMIT` entries the least
    recently used entry is evicted (it used to clear wholesale), so a long
    ``run_batch`` over many catalogs holds memory at the bound without
    losing its hot entries.

    Thread safety (``run_batch``'s thread executor calls this
    concurrently): keys are C-comparable tuples, so each OrderedDict
    operation is GIL-atomic; the only race is a concurrent eviction
    between ``get`` and ``move_to_end``/``popitem``, absorbed by the
    ``except KeyError`` guards -- no lock on this hot path.  A duplicate
    miss-side compute is collapsed onto one canonical object by
    interning.
    """
    key = (text, position, max_tokenseq_len)
    cached = _GP_CACHE.get(key)
    if cached is not None:
        _GP_STATS["hits"] += 1
        try:
            _GP_CACHE.move_to_end(key)
        except KeyError:  # evicted by a concurrent miss: recency update moot
            pass
        return cached
    _GP_STATS["misses"] += 1
    cached = intern_pos_set(generalized_positions(text, position, max_tokenseq_len))
    while len(_GP_CACHE) >= _GP_CACHE_LIMIT:
        try:
            _GP_CACHE.popitem(last=False)
            _GP_STATS["evictions"] += 1
        except KeyError:  # another thread drained it first
            break
    _GP_CACHE[key] = cached
    return cached


def position_cache_stats() -> dict:
    """Hit/miss/eviction/size counters of the position-set cache.

    perfbench's traced ``suite-learn`` run reports these to quantify how
    much of GenerateStr's position work is reuse.
    """
    stats = dict(_GP_STATS)
    stats["entries"] = len(_GP_CACHE)
    total = stats["hits"] + stats["misses"]
    stats["hit_rate"] = stats["hits"] / total if total else 0.0
    stats["limit"] = _GP_CACHE_LIMIT
    return stats


def reset_position_cache_stats() -> None:
    """Zero the counters (the cache itself is kept)."""
    for key in _GP_STATS:
        _GP_STATS[key] = 0


# ----------------------------------------------------------------------
# Interning and the memoized intersection.
#
# Position sets are the hottest objects of the intersect side: in a product
# of two dags, the pair (p̃ of node i, p̃ of node k) is re-intersected on
# every product edge leaving (i, k) -- O(n²) repeats of the same pairwise
# work.  Generated sets are shared per (text, position) by ``_GP_CACHE``
# and intersection *results* are interned below, so object identity is a
# sound memo key across edges, examples and Synthesizer calls.  Memo
# entries keep strong references to their key sets, which pins their ids
# for the lifetime of the entry (an id-keyed cache is only sound while the
# keyed objects cannot be garbage collected and their ids recycled).
# ----------------------------------------------------------------------

_POS_INTERN: "OrderedDict[PosSet, PosSet]" = OrderedDict()
_POS_INTERN_LIMIT = 65536

_ISECT_CACHE: "OrderedDict[Tuple[int, int], Tuple[PosSet, PosSet, Optional[PosSet]]]" = (
    OrderedDict()
)
_ISECT_CACHE_LIMIT = 131072
_ISECT_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def intern_pos_set(entries: PosSet) -> PosSet:
    """The canonical instance of ``entries`` (hash-consing for PosSets).

    Lock-free like :func:`cached_positions`: position sets are tuples of
    C-comparable values, so each dict operation is GIL-atomic and the
    eviction race is absorbed defensively.  Two racing interns of equal
    sets may both return their own instance once; both are valid
    canonical representatives and later calls converge.
    """
    canonical = _POS_INTERN.get(entries)
    if canonical is not None:
        try:
            _POS_INTERN.move_to_end(entries)
        except KeyError:
            pass
        return canonical
    while len(_POS_INTERN) >= _POS_INTERN_LIMIT:
        try:
            _POS_INTERN.popitem(last=False)
        except KeyError:
            break
    _POS_INTERN[entries] = entries
    return entries


def intersect_position_sets_cached(
    first: PosSet, second: PosSet
) -> Optional[PosSet]:
    """Memoized :func:`intersect_position_sets` keyed on object identity.

    Results are interned so chained intersections converge onto shared
    instances and keep hitting.  The memo is LRU-bounded; entries hold
    references to both operands (see the module comment on id soundness).
    Lock-free: (int, int) keys make every dict operation GIL-atomic; the
    eviction races are absorbed by the ``except KeyError`` guards.
    """
    key = (id(first), id(second))
    entry = _ISECT_CACHE.get(key)
    if entry is not None:
        _ISECT_STATS["hits"] += 1
        try:
            _ISECT_CACHE.move_to_end(key)
        except KeyError:  # evicted by a concurrent miss: recency update moot
            pass
        return entry[2]
    _ISECT_STATS["misses"] += 1
    result = intersect_position_sets(first, second)
    if result is not None:
        result = intern_pos_set(result)
    while len(_ISECT_CACHE) >= _ISECT_CACHE_LIMIT:
        try:
            _ISECT_CACHE.popitem(last=False)
            _ISECT_STATS["evictions"] += 1
        except KeyError:  # another thread drained it first
            break
    _ISECT_CACHE[key] = (first, second, result)
    return result


def intersection_cache_stats() -> dict:
    """Hit/miss/eviction/size counters of the intersection memo."""
    stats = dict(_ISECT_STATS)
    stats["entries"] = len(_ISECT_CACHE)
    total = stats["hits"] + stats["misses"]
    stats["hit_rate"] = stats["hits"] / total if total else 0.0
    stats["limit"] = _ISECT_CACHE_LIMIT
    stats["interned"] = len(_POS_INTERN)
    return stats


def reset_intersection_cache_stats() -> None:
    """Zero the counters (the memo itself is kept)."""
    for key in _ISECT_STATS:
        _ISECT_STATS[key] = 0


def clear_intersection_caches() -> None:
    """Drop the memo and the intern table (cold-start for benchmarks)."""
    _ISECT_CACHE.clear()
    _POS_INTERN.clear()


def intersect_position_sets(first: PosSet, second: PosSet) -> Optional[PosSet]:
    """IntersectPos: entries common to both sets, or ``None`` when empty.

    Constant entries intersect on equality; regex entries with the same
    (r1, r2) intersect their occurrence sets.
    """
    first_cpos = {entry[1] for entry in first if entry[0] == TAG_CPOS}
    regex_index = {
        (entry[1], entry[2]): entry[3] for entry in first if entry[0] == TAG_REGEX
    }
    result: List[PosEntry] = []
    for entry in second:
        if entry[0] == TAG_CPOS:
            if entry[1] in first_cpos:
                result.append(entry)
        else:
            other_cs = regex_index.get((entry[1], entry[2]))
            if other_cs is None:
                continue
            common = entry[3] & other_cs
            if common:
                result.append((TAG_REGEX, entry[1], entry[2], common))
    if not result:
        return None
    return tuple(result)


def count_position_exprs(entries: PosSet) -> int:
    """Number of concrete position expressions the set denotes."""
    total = 0
    for entry in entries:
        total += 1 if entry[0] == TAG_CPOS else len(entry[3])
    return total


def position_set_size(entries: PosSet) -> int:
    """Terminal-symbol size of the set (for the Figure 11(b) metric)."""
    size = 0
    for entry in entries:
        if entry[0] == TAG_CPOS:
            size += 1
        else:
            size += max(len(entry[1]), 1) + max(len(entry[2]), 1) + len(entry[3])
    return size


def enumerate_position_exprs(entries: PosSet) -> Iterator[Position]:
    """Yield every concrete position expression in the set."""
    for entry in entries:
        if entry[0] == TAG_CPOS:
            yield CPos(entry[1])
        else:
            for c in sorted(entry[3]):
                yield Pos(entry[1], entry[2], c)


def position_expr_cost(position: Position, weights: RankingWeights) -> float:
    """Cost of one concrete position expression under the ranking weights.

    The single source of truth for this term of the cost model -- shared
    by best-path extraction, top-k extraction and the engine's candidate
    scoring, which must all rank on the same scale.
    """
    if isinstance(position, CPos):
        return weights.cpos_entry
    return weights.regex_entry + weights.regex_token * (
        len(position.r1) + len(position.r2)
    )


def best_position_expr(
    entries: PosSet, weights: RankingWeights
) -> Tuple[float, Position]:
    """Cheapest concrete position expression under the ranking weights.

    Regex positions are preferred over constants (they generalize across
    inputs of different lengths); shorter regexes over longer; deterministic
    tie-break on the entry's structural key for reproducibility.
    """
    best: Optional[Tuple[float, str, Position]] = None
    for entry in entries:
        if entry[0] == TAG_CPOS:
            cost = weights.cpos_entry
            expr: Position = CPos(entry[1])
        else:
            cost = weights.regex_entry + weights.regex_token * (
                len(entry[1]) + len(entry[2])
            )
            # Prefer the smallest absolute occurrence index; ties favour the
            # positive (left-anchored) one.
            c = sorted(entry[3], key=lambda x: (abs(x), x < 0))[0]
            expr = Pos(entry[1], entry[2], c)
        candidate = (cost, str(expr), expr)
        if best is None or candidate[:2] < best[:2]:
            best = candidate
    assert best is not None, "position sets are never empty"
    return best[0], best[2]
