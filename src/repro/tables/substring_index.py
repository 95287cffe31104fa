"""Substring-trigger index over the catalog's distinct cell values.

``GenerateStr'_t``'s relaxed-reachability trigger (§5.3) asks, for every
newly reachable string ``x``, which table entries ``v`` *overlap* it:
``v == x``, ``v`` a substring of ``x``, or ``x`` a substring of ``v``.
Rescanning every untriggered entry per frontier string would cost
O(|distinct values| x |frontier|) pairwise ``in`` checks per reachability
step; this module answers the question from two purpose-built indexes
over the distinct values:

* **entries contained in x** -- Aho-Corasick automatons over the values;
  one scan of ``x`` reports every value occurring inside it in
  O(|x| + matches),
* **entries containing x** -- a q-gram inverted index (grams of length
  1..Q): the rarest gram of ``x`` yields a candidate posting list that is
  then verified with one ``in`` check per candidate, so the cost tracks
  the (inherently output-sized) answer instead of the whole catalog,
* **entries equal to x** -- a plain hash lookup (kept separate because the
  containment directions apply ``min_overlap_len`` while equality does
  not).

Instances are immutable; growth happens through :meth:`SubstringIndex.
extended`, which appends the new values as a fresh *segment* instead of
rebuilding: the automaton side is a log-structured forest of immutable
Aho-Corasick segments (a new small segment per append, neighbors merged
in a size-doubling scheme, so an index grown by K appends holds
O(log n) segments and extension costs O(new chars) amortized), and the
gram postings extend copy-on-write.  :meth:`Catalog.substring_index`
builds lazily and :meth:`Catalog.with_table` extends on append.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Longest gram length indexed for the "entries containing x" direction.
#: Queries shorter than ``MAX_GRAM`` use grams of their own length; longer
#: queries use any of their length-``MAX_GRAM`` grams.
MAX_GRAM = 3


class _AhoCorasick:
    """Dict-based Aho-Corasick automaton reporting pattern *ids*.

    Patterns are the indexed values; :meth:`matches` returns the set of
    ids of every pattern occurring in the text (including the text
    itself when it is a pattern).  ``first_id`` offsets the reported ids
    -- a segment covering values ``[first_id, first_id + len(patterns))``
    of a larger index reports global ids directly.
    """

    __slots__ = ("_goto", "_fail", "_out")

    def __init__(self, patterns: Sequence[str], first_id: int = 0) -> None:
        goto: List[Dict[str, int]] = [{}]
        out: List[List[int]] = [[]]
        for offset, pattern in enumerate(patterns):
            node = 0
            for char in pattern:
                nxt = goto[node].get(char)
                if nxt is None:
                    nxt = len(goto)
                    goto[node][char] = nxt
                    goto.append({})
                    out.append([])
                node = nxt
            out[node].append(first_id + offset)

        fail = [0] * len(goto)
        queue: deque = deque(goto[0].values())
        while queue:
            node = queue.popleft()
            for char, nxt in goto[node].items():
                queue.append(nxt)
                state = fail[node]
                while state and char not in goto[state]:
                    state = fail[state]
                fallback = goto[state].get(char, 0)
                fail[nxt] = fallback if fallback != nxt else 0
                if out[fail[nxt]]:
                    out[nxt].extend(out[fail[nxt]])
        self._goto = goto
        self._fail = fail
        self._out = out

    def matches(self, text: str) -> Set[int]:
        """Ids of every pattern occurring (anywhere) in ``text``."""
        goto, fail, out = self._goto, self._fail, self._out
        node = 0
        found: Set[int] = set()
        for char in text:
            while node and char not in goto[node]:
                node = fail[node]
            node = goto[node].get(char, 0)
            if out[node]:
                found.update(out[node])
        return found


class SubstringIndex:
    """Overlap queries over a fixed sequence of distinct non-empty values.

    Value *ids* are positions into :attr:`values`; since the catalog hands
    its values over in insertion order, sorted ids reproduce the catalog's
    deterministic scan order -- which the semantic generator relies on for
    node ids that do not depend on hashing.
    """

    __slots__ = ("values", "_id_of", "_lengths", "_segments", "_grams")

    def __init__(self, values: Sequence[str]) -> None:
        self.values: Tuple[str, ...] = tuple(values)
        self._id_of: Dict[str, int] = {}
        for value_id, value in enumerate(self.values):
            if not value:
                raise ValueError("SubstringIndex values must be non-empty")
            if value in self._id_of:
                raise ValueError(f"duplicate value {value!r}")
            self._id_of[value] = value_id
        self._lengths: Tuple[int, ...] = tuple(len(v) for v in self.values)
        # The containment matchers are the expensive part and only the
        # relaxed trigger needs them; equality-only configs get away with
        # the id map above, so defer building until the first containment
        # query (build()).  Once built, the automaton side is a list of
        # (first_id, segment) pairs -- one segment here, more after
        # extended() -- queried in union.
        self._segments: Optional[List[Tuple[int, _AhoCorasick]]] = None
        self._grams: Optional[Dict[str, List[int]]] = None

    def build(self) -> "SubstringIndex":
        """Force-build the containment matchers (lazy otherwise)."""
        if self._segments is None:
            # Build into locals and publish _grams before _segments
            # (the guard every reader checks): a concurrent extended()
            # or containing() must never observe segments without grams.
            segments = [(0, _AhoCorasick(self.values))]
            # Gram -> posting list of value ids (ascending; one entry per
            # value even when the gram repeats inside it).
            grams: Dict[str, List[int]] = {}
            for value_id, value in enumerate(self.values):
                seen: Set[str] = set()
                for width in range(1, min(MAX_GRAM, len(value)) + 1):
                    for start in range(len(value) - width + 1):
                        gram = value[start : start + width]
                        if gram not in seen:
                            seen.add(gram)
                            grams.setdefault(gram, []).append(value_id)
            self._grams = grams
            self._segments = segments
        return self

    def extended(self, new_values: Sequence[str]) -> "SubstringIndex":
        """A new index over ``values + new_values`` -- ``self`` untouched.

        Ids of existing values are preserved (new values get the next
        ids), so callers holding old ids stay correct.  When the
        containment matchers are already built they are *extended*, not
        rebuilt: the new values become a fresh automaton segment
        (neighboring segments of no greater size are folded in, the
        size-doubling merge that keeps the forest at O(log n) segments
        and extension cost O(new chars) amortized), and only the new
        values' grams touch (copies of) posting lists.  An unbuilt index
        stays unbuilt.

        Raises ``ValueError`` on empty or duplicate values, exactly like
        construction.
        """
        additions = tuple(new_values)
        if not additions:
            return self
        clone: "SubstringIndex" = SubstringIndex.__new__(SubstringIndex)
        clone.values = self.values + additions
        id_of = dict(self._id_of)
        for value_id, value in enumerate(additions, start=len(self.values)):
            if not value:
                raise ValueError("SubstringIndex values must be non-empty")
            if value in id_of:
                raise ValueError(f"duplicate value {value!r}")
            id_of[value] = value_id
        clone._id_of = id_of
        clone._lengths = self._lengths + tuple(len(v) for v in additions)
        if self._segments is None:
            clone._segments = None
            clone._grams = None
            return clone
        # Fold every trailing segment no larger than the incoming batch
        # into it (so segment sizes stay strictly decreasing): the merge
        # re-walks only those segments' values, never the whole index.
        segments = list(self._segments)
        start = len(self.values)
        while segments:
            last_start = segments[-1][0]
            if start - last_start > len(clone.values) - start:
                break
            segments.pop()
            start = last_start
        segments.append(
            (start, _AhoCorasick(clone.values[start:], first_id=start))
        )
        clone._segments = segments
        assert self._grams is not None  # built together with the automaton
        grams: Dict[str, List[int]] = dict(self._grams)
        copied: set = set()
        for value_id, value in enumerate(additions, start=len(self.values)):
            seen: Set[str] = set()
            for width in range(1, min(MAX_GRAM, len(value)) + 1):
                for start_at in range(len(value) - width + 1):
                    gram = value[start_at : start_at + width]
                    if gram in seen:
                        continue
                    seen.add(gram)
                    posting = grams.get(gram)
                    if posting is None:
                        grams[gram] = [value_id]
                        copied.add(gram)
                    else:
                        if gram not in copied:
                            posting = list(posting)
                            grams[gram] = posting
                            copied.add(gram)
                        posting.append(value_id)
        clone._grams = grams
        return clone

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    @property
    def num_segments(self) -> int:
        """Automaton segments currently backing :meth:`contained_in`."""
        self.build()
        assert self._segments is not None
        return len(self._segments)

    def id_of(self, value: str) -> Optional[int]:
        """Id of the value equal to ``value``, or ``None``."""
        return self._id_of.get(value)

    def contained_in(self, text: str) -> Set[int]:
        """Ids of values occurring as substrings of ``text`` (equality too)."""
        self.build()
        assert self._segments is not None
        segments = self._segments
        if len(segments) == 1:
            return segments[0][1].matches(text)
        found: Set[int] = set()
        for _, automaton in segments:
            found |= automaton.matches(text)
        return found

    def containing(self, text: str) -> List[int]:
        """Ids of values having ``text`` as a substring, ascending.

        Candidates come from the posting list of the rarest gram of
        ``text`` (length ``min(len(text), MAX_GRAM)``) and are verified
        with a real ``in`` check, so false positives never escape.
        """
        if not text:
            return []
        grams = self.build()._grams
        width = min(len(text), MAX_GRAM)
        best: Optional[List[int]] = None
        for start in range(len(text) - width + 1):
            posting = grams.get(text[start : start + width])
            if posting is None:
                return []  # some gram of text occurs in no value at all
            if best is None or len(posting) < len(best):
                best = posting
        assert best is not None
        values = self.values
        return [value_id for value_id in best if text in values[value_id]]

    def gram_candidates(self, text: str) -> List[int]:
        """Ids of values sharing at least one q-gram with ``text``, ascending.

        The candidate-generation primitive behind fuzzy matching
        (``repro.matching.FuzzyMatcher``): the union of the posting lists
        of ``text``'s grams of width ``min(len(text), MAX_GRAM)``.  A
        value within small edit distance of ``text`` necessarily shares a
        gram with it (unless both are shorter than the gram width), so
        verifying only these candidates never misses a bounded-distance
        match while skipping the unrelated bulk of the catalog.
        """
        if not text:
            return []
        grams = self.build()._grams
        assert grams is not None
        width = min(len(text), MAX_GRAM)
        hits: Set[int] = set()
        for start in range(len(text) - width + 1):
            posting = grams.get(text[start : start + width])
            if posting is not None:
                hits.update(posting)
        return sorted(hits)

    def overlapping(self, text: str, min_len: int = 1) -> List[int]:
        """Ids of values overlapping ``text`` per the §5.3 trigger, sorted.

        A value ``v`` overlaps when ``v == text``, or ``v in text`` with
        ``len(v) >= min_len``, or ``text in v`` with ``len(text) >= min_len``.
        """
        if not text:
            return []
        lengths = self._lengths
        hits: Set[int] = set()
        for value_id in self.contained_in(text):
            if lengths[value_id] >= min_len:
                hits.add(value_id)
        if len(text) >= min_len:
            hits.update(self.containing(text))
        equal = self._id_of.get(text)
        if equal is not None:
            hits.add(equal)
        return sorted(hits)
