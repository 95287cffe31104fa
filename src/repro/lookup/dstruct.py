"""The data structure Dt for sets of Lt expressions (paper §4.2, Figure 3).

A :class:`NodeStore` is the tuple (η̃, η_t, Progs): nodes are dense integer
ids; ``vals[η]`` is the string the node evaluates to on this example (pairs
of originals after intersection carry ``None``); ``progs[η]`` is the set of
generalized expressions for the node:

* :class:`VarEntry` -- the input variable ``v_i``,
* :class:`GenSelect` -- ``Select(C, T, B)`` whose generalized condition B
  is a shared per-row :class:`RowCondition`: one conjunction of
  :class:`GenPredicate` per candidate key of the table.

A generalized predicate holds up to two alternatives for its right-hand
side, exactly as in the paper (``C = {s, η}``): a constant string and/or a
node reference.  The semantic language replaces both with a :class:`Dag`
of syntactic expressions (§5.2); the same classes carry that variant so
Intersect/measure code is shared.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.syntactic.dag import Dag


@dataclass(frozen=True)
class VarEntry:
    """Progs entry for the input variable ``v_index``."""

    index: int

    def __str__(self) -> str:
        return f"v{self.index + 1}"


@dataclass
class GenPredicate:
    """Generalized predicate for one candidate-key column.

    Lt shape: ``column = {constant, node}`` (either may be absent).
    Lu shape: ``column = dag`` (a Dag of syntactic expressions over nodes).
    """

    column: str
    constant: Optional[str] = None
    node: Optional[int] = None
    dag: Optional[Dag] = None
    #: How the node binding was resolved (``repro.matching`` provenance).
    #: Exact bindings -- the only kind under the default matcher spec --
    #: carry ``("exact", 1.0)``; an approximate matcher stamps its strategy
    #: name and confidence so ranking can penalize and results can report.
    node_strategy: str = "exact"
    node_confidence: float = 1.0

    def is_satisfiable(self) -> bool:
        """Syntactically non-empty (ignoring node emptiness, checked later)."""
        return self.constant is not None or self.node is not None or self.dag is not None

    def __str__(self) -> str:
        if self.dag is not None:
            return f"{self.column} = <dag:{len(self.dag.edges)} edges>"
        options = []
        if self.constant is not None:
            options.append(repr(self.constant))
        if self.node is not None:
            if self.node_confidence < 1.0:
                options.append(
                    f"η{self.node}~{self.node_strategy}:{self.node_confidence:.2f}"
                )
            else:
                options.append(f"η{self.node}")
        return f"{self.column} = {{{', '.join(options)}}}"


@dataclass
class RowCondition:
    """The generalized condition B for one table row, shared by all selects
    of that row (the paper's sharing of updated conditions, Fig 5(a) l.15).

    ``keys[i]`` is the conjunction of generalized predicates for the i-th
    candidate key of the table.
    """

    table: str
    row: int
    keys: List[List[GenPredicate]]

    def __str__(self) -> str:
        rendered = [
            " ∧ ".join(str(p) for p in predicates) for predicates in self.keys
        ]
        return " | ".join(rendered) if rendered else "⊥"


@dataclass
class GenSelect:
    """Generalized select ``Select(column, table, B)`` with shared B."""

    column: str
    table: str
    cond: RowCondition

    def __str__(self) -> str:
        return f"Select({self.column}, {self.table}, {self.cond})"


ProgEntry = Union[VarEntry, GenSelect]


class NodeStore:
    """The (η̃, η_t, Progs) triple plus the val/val⁻¹ maps of Figure 5(a)."""

    __slots__ = ("vals", "progs", "val_to_node", "target", "depths", "depth_limit")

    def __init__(self, depth_limit: int = 8) -> None:
        self.vals: List[Optional[str]] = []
        self.progs: List[List[ProgEntry]] = []
        self.val_to_node: Dict[str, int] = {}
        self.target: Optional[int] = None
        self.depths: List[int] = []
        #: Select-nesting budget for counting/extraction/enumeration.  The
        #: structure is k-complete (Def. 1), so measures are taken over the
        #: depth-bounded denotation; stores can be self-referential (see
        #: DESIGN.md note 3) and the budget keeps every walk finite.
        self.depth_limit = depth_limit

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.vals)

    def new_node(self, value: Optional[str], depth: int = 0) -> int:
        """Allocate a node; registers val⁻¹ for string-valued nodes."""
        node = len(self.vals)
        self.vals.append(value)
        self.progs.append([])
        self.depths.append(depth)
        if value is not None:
            self.val_to_node[value] = node
        return node

    def ensure_node(self, value: str, depth: int = 0) -> Tuple[int, bool]:
        """Node for ``value`` (the paper's val⁻¹), creating it if missing.

        Returns (node, created).
        """
        existing = self.val_to_node.get(value)
        if existing is not None:
            return existing, False
        return self.new_node(value, depth), True

    def node_for(self, value: str) -> Optional[int]:
        """val⁻¹(value) or None."""
        return self.val_to_node.get(value)

    # ------------------------------------------------------------------
    def reference_edges(self, node: int) -> Iterable[int]:
        """Nodes referenced by ``node``'s generalized predicates."""
        for entry in self.progs[node]:
            if isinstance(entry, GenSelect):
                for predicates in entry.cond.keys:
                    for predicate in predicates:
                        if predicate.node is not None:
                            yield predicate.node
                        if predicate.dag is not None:
                            for options in predicate.dag.edges.values():
                                for atom in options:
                                    source = getattr(atom, "source", None)
                                    if source is not None:
                                        yield source

    def reachable_from(self, roots: Iterable[int]) -> Set[int]:
        """Nodes reachable from ``roots`` through predicate references."""
        seen: Set[int] = set()
        stack = [root for root in roots if root is not None]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            for successor in self.reference_edges(node):
                if successor not in seen:
                    stack.append(successor)
        return seen

    def restrict_to(self, roots: Iterable[int]) -> Set[int]:
        """Empty the Progs of nodes unreachable from ``roots``; return alive.

        The target-component sweep shared by ``prune_store`` and
        ``prune_semantic``: counting and extraction are root-rooted, so
        unreachable nodes are invisible -- emptying them keeps the
        Figure 11(b) size a property of the denoted program set rather
        than of construction order.
        """
        alive = self.reachable_from(roots)
        for node in range(len(self.vals)):
            if node not in alive:
                self.progs[node] = []
        return alive

    def topological_order(self, alive: Optional[Set[int]] = None) -> Optional[List[int]]:
        """Topological order of the node-reference graph, or ``None`` if cyclic.

        Used to choose between fast memoized DP (acyclic, the common case)
        and path-guarded walks (cyclic, possible in principle -- see
        DESIGN.md note 3).
        """
        nodes = alive if alive is not None else set(range(len(self.vals)))
        indegree: Dict[int, int] = {node: 0 for node in nodes}
        successors: Dict[int, List[int]] = {node: [] for node in nodes}
        for node in nodes:
            for referenced in self.reference_edges(node):
                if referenced in nodes:
                    # edge referenced -> node (node depends on referenced)
                    successors[referenced].append(node)
                    indegree[node] += 1
        ready = [node for node, degree in indegree.items() if degree == 0]
        order: List[int] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for successor in successors[node]:
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    ready.append(successor)
        if len(order) != len(nodes):
            return None
        return order

    def __repr__(self) -> str:
        return (
            f"NodeStore(nodes={len(self.vals)}, target={self.target}, "
            f"entries={sum(len(p) for p in self.progs)})"
        )


def emptiness_fixpoint(
    store: NodeStore, select_valid: Callable[[GenSelect, Set[int]], bool]
) -> Set[int]:
    """Dependency-driven least fixpoint of "node denotes an expression".

    A :class:`VarEntry` makes a node valid outright; otherwise a node is
    valid when ``select_valid(entry, valid)`` holds for one of its
    selects.  ``select_valid`` must be monotone in ``valid`` (more valid
    dependencies can only make a select valid).  Each node is rechecked
    only when one of the nodes its predicates reference
    (``reference_edges``) becomes valid, so total work is bounded by the
    number of dependency edges.

    Shared by ``Intersect_t`` and ``Intersect_u`` emptiness pruning; each
    language supplies only its per-select check.
    """

    def node_valid(node: int) -> bool:
        return any(
            isinstance(entry, GenSelect) and select_valid(entry, valid)
            for entry in store.progs[node]
        )

    valid: Set[int] = set()
    dependents: Dict[int, List[int]] = {}
    unresolved: List[int] = []
    for node in range(len(store.vals)):
        entries = store.progs[node]
        if any(isinstance(entry, VarEntry) for entry in entries):
            valid.add(node)
        elif entries:
            unresolved.append(node)
            for dependency in set(store.reference_edges(node)):
                dependents.setdefault(dependency, []).append(node)
    queue: deque = deque(valid)
    # Nodes needing no valid dependency (constant predicates, const-only
    # dag paths) seed the propagation alongside the variable nodes.
    for node in unresolved:
        if node not in valid and node_valid(node):
            valid.add(node)
            queue.append(node)
    while queue:
        ready = queue.popleft()
        for node in dependents.get(ready, ()):
            if node not in valid and node_valid(node):
                valid.add(node)
                queue.append(node)
    return valid


def prune_entries(
    store: NodeStore,
    valid: Set[int],
    rewrite: Callable[[GenPredicate], Optional[GenPredicate]],
) -> None:
    """Empty invalid nodes and rewrite the surviving selects in place.

    ``rewrite`` returns a predicate's pruned form, or ``None`` when it can
    no longer be satisfied.  A candidate key survives when every one of its
    predicates does, a select when one of its keys does; variable entries
    always survive.  Shared by ``Intersect_t`` and ``Intersect_u``.
    """
    for node in range(len(store.vals)):
        if node not in valid:
            store.progs[node] = []
            continue
        kept_entries: List[ProgEntry] = []
        for entry in store.progs[node]:
            if isinstance(entry, GenSelect):
                kept_keys = []
                for predicates in entry.cond.keys:
                    kept = _rewrite_key(predicates, rewrite)
                    if kept:
                        kept_keys.append(kept)
                if not kept_keys:
                    continue
                entry.cond = RowCondition(entry.cond.table, entry.cond.row, kept_keys)
            kept_entries.append(entry)
        store.progs[node] = kept_entries


def _rewrite_key(
    predicates: List[GenPredicate],
    rewrite: Callable[[GenPredicate], Optional[GenPredicate]],
) -> Optional[List[GenPredicate]]:
    kept: List[GenPredicate] = []
    for predicate in predicates:
        pruned = rewrite(predicate)
        if pruned is None:
            return None
        kept.append(pruned)
    return kept
