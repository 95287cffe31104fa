"""Plain reference implementations the property tests compare against.

Each is the obvious, slow form of a hot path the package implements once
with an index, a worklist or a pruned product: a full row scan, a
full-sweep fixpoint, a ``str.find`` occurrence loop, the eager dag
product and the §5.3 overlap trigger as a predicate.  The eager product
reuses the package's per-edge atom rule; what it replaces is the guarded
product, the dag-level memo and the trimming pass.
"""

from repro.config import DEFAULT_CONFIG
from repro.lookup.dstruct import VarEntry
from repro.syntactic.dag import ConstAtom, Dag, RefAtom, SubStrAtom
from repro.syntactic.intersect import (
    _atom_buckets,
    _intersect_atoms,
    equal_source_merge,
)
from repro.syntactic.positions import cached_positions


def scan_rows(table, conditions):
    """``Table.find_rows`` as a scan over every row."""
    positions = [(table.column_position(c), v) for c, v in conditions.items()]
    return [
        number
        for number, row in enumerate(table.rows)
        if all(row[position] == value for position, value in positions)
    ]


def scan_lookup(table, column, conditions):
    """``Table.lookup`` over :func:`scan_rows`: the one match's cell, else ""."""
    matches = scan_rows(table, conditions)
    return table.cell(column, matches[0]) if len(matches) == 1 else ""


def sweep_fixpoint(store, select_valid):
    """``emptiness_fixpoint`` as repeated sweeps over every node."""
    valid = set()
    changed = True
    while changed:
        changed = False
        for node, entries in enumerate(store.progs):
            if node not in valid and any(
                isinstance(entry, VarEntry) or select_valid(entry, valid)
                for entry in entries
            ):
                valid.add(node)
                changed = True
    return valid


def find_loop_dag(sources, output, config=DEFAULT_CONFIG):
    """``generate_dag`` scanning every source with ``str.find`` per edge."""
    if not output:
        return Dag((0,), 0, 0, {})
    width = config.max_tokenseq_len
    edges = {}
    for i in range(len(output)):
        for j in range(i + 1, len(output) + 1):
            piece = output[i:j]
            atoms = [ConstAtom(piece)]
            for source, value in sources:
                if value and config.include_ref_atoms and value == piece:
                    atoms.append(RefAtom(source))
                start = value.find(piece) if value else -1
                while start != -1:
                    p1 = cached_positions(value, start, width)
                    p2 = cached_positions(value, start + len(piece), width)
                    atoms.append(SubStrAtom(source, p1, p2))
                    start = value.find(piece, start + 1)
            edges[(i, j)] = atoms
    return Dag(tuple(range(len(output) + 1)), 0, len(output), edges)


def _reach(edges, root):
    seen, stack = {root}, [root]
    while stack:
        node = stack.pop()
        for i, j in edges:
            if i == node and j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def eager_product(first, second):
    """``intersect_dags`` for variable sources: every edge pair, then trim."""
    if first.is_trivial_empty or second.is_trivial_empty:
        both = first.is_trivial_empty and second.is_trivial_empty
        return Dag((0,), 0, 0, {}) if both else None
    edges = {}
    for (a, a2), left in first.edges.items():
        for (b, b2), right in second.edges.items():
            atoms = _intersect_atoms(_atom_buckets(left), right, equal_source_merge)
            if atoms:
                edges[((a, b), (a2, b2))] = atoms
    start, goal = (first.source, second.source), (first.target, second.target)
    backward = {(j, i): atoms for (i, j), atoms in edges.items()}
    alive = _reach(edges, start) & _reach(backward, goal)
    if goal not in alive:
        return None
    ids = {pair: index for index, pair in enumerate(sorted(alive))}
    kept = sorted(((ids[i], ids[j]), atoms) for (i, j), atoms in edges.items()
                  if i in alive and j in alive)
    return Dag(tuple(range(len(ids))), ids[start], ids[goal], dict(kept))


def overlaps(entry_value, reachable, min_len):
    """The §5.3 trigger: equality, or containment either way at ``min_len``."""
    if entry_value == reachable:
        return True
    if len(entry_value) >= min_len and entry_value in reachable:
        return True
    return len(reachable) >= min_len and reachable in entry_value
