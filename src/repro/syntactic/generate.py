"""GenerateStr_s: build the Dag of all Ls expressions for one example.

Given a set of *source strings* (input variables in pure Ls; input
variables plus reachable table entries in Lu, §5.3) and the output string,
the dag has one node per output position and, on every edge ``(i, j)``,
all atomic expressions that produce ``output[i:j]``:

* the constant ``ConstStr(output[i:j])``,
* a whole-string reference for every source whose value equals the
  substring,
* a ``SubStr`` with generalized position sets for every occurrence of the
  substring in every source.

This is sound and complete for the atomic grammar by construction: every
atom evaluates to exactly ``output[i:j]`` on this example, and every
expression that does is enumerated (constants, full values, and substring
occurrences are exhaustive).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.config import DEFAULT_CONFIG, SynthesisConfig
from repro.syntactic.dag import Atom, ConstAtom, Dag, Edge, RefAtom, SubStrAtom
from repro.syntactic.positions import cached_positions

Source = Tuple[int, str]  # (source id, source value)

#: Occurrence index: ``index[i][L]`` lists ``(source_id, start)`` for every
#: occurrence ``value[start:start+L] == output[i:i+L]``, in source order
#: then ascending start.
OccurrenceIndex = List[Dict[int, List[Tuple[int, int]]]]


def _build_occurrence_index(
    sources: Sequence[Source], output: str
) -> OccurrenceIndex:
    """All substring occurrences of ``output`` in every source, in one pass.

    Per source a match-extension DP (``match(i, s) = longest common prefix
    of output[i:] and value[s:]``, computed right-to-left from the
    character positions of the source) replaces the O(n^2) repeated
    ``str.find`` scans; each occurrence is recorded once per length, so
    total work and memory track the number of SubStr atoms the dag holds
    anyway.
    """
    length = len(output)
    index: OccurrenceIndex = [{} for _ in range(length)]
    for source_id, value in sources:
        if not value:
            continue
        starts_by_char: Dict[str, List[int]] = {}
        for start, char in enumerate(value):
            starts_by_char.setdefault(char, []).append(start)
        next_match: Dict[int, int] = {}
        for i in range(length - 1, -1, -1):
            current: Dict[int, int] = {}
            starts = starts_by_char.get(output[i])
            if starts:
                for start in starts:
                    current[start] = next_match.get(start + 1, 0) + 1
                bucket = index[i]
                for start, run in current.items():
                    for width in range(1, run + 1):
                        bucket.setdefault(width, []).append((source_id, start))
            next_match = current
    return index


def generate_dag(
    sources: Sequence[Source],
    output: str,
    config: SynthesisConfig = DEFAULT_CONFIG,
) -> Dag:
    """The Dag of all concatenations of atomic expressions yielding ``output``.

    Each edge (i, j) reads its occurrences from the occurrence index with
    one dict access; a whole-source occurrence (start 0, full length)
    doubles as the RefAtom trigger, so every edge lists its constant, then
    per source and ascending start the RefAtom (if any) and the SubStr.
    """
    length = len(output)
    if length == 0:
        # Degenerate case: the empty output is representable only by the
        # empty concatenation (treated as ConstStr("") downstream).
        return Dag((0,), 0, 0, {})
    max_seq = config.max_tokenseq_len
    include_refs = config.include_ref_atoms
    values = dict(sources)
    lengths = {source_id: len(value) for source_id, value in sources}
    occurrences = _build_occurrence_index(sources, output)
    edges: Dict[Edge, List[Atom]] = {}
    for i in range(length):
        bucket = occurrences[i]
        for j in range(i + 1, length + 1):
            atoms: List[Atom] = [ConstAtom(output[i:j])]
            width = j - i
            for source_id, start in bucket.get(width, ()):
                value = values[source_id]
                if include_refs and start == 0 and lengths[source_id] == width:
                    atoms.append(RefAtom(source_id))
                atoms.append(
                    SubStrAtom(
                        source_id,
                        cached_positions(value, start, max_seq),
                        cached_positions(value, start + width, max_seq),
                    )
                )
            edges[(i, j)] = atoms
    return Dag(tuple(range(length + 1)), 0, length, edges)


def dag_uses_sources(dag: Dag) -> bool:
    """Does any source→target path use at least one non-constant atom?

    This is the check of §5.3 ("contains any expression that uses a
    variable"): with the full-span constant always present, a path exists
    iff some edge on some path offers a Ref/SubStr atom; since every edge
    also offers the constant, it suffices that *any* edge on a viable path
    has a non-constant option -- and in the generated dag every edge lies
    on a path, so we simply scan the options.
    """
    for options in dag.edges.values():
        for atom in options:
            if not isinstance(atom, ConstAtom):
                return True
    return False
