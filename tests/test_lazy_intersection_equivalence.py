"""Lazy pruned, cached intersection vs the eager product reference.

``intersect_dags`` guards the product BFS with per-dag path-length
bitmasks so atoms are only intersected on edges that can sit on a
start→accept path, serves position-set intersections from the interned
memo, and recognizes whole repeated products through the dag-level memo.
None of that may change *what* is synthesized: for pure Ls the result
must be **byte-identical** (canonical node renumbering makes dags
comparable) to the eager product of ``tests/references.py``, on
randomized dag pairs and on multi-example chains; any fold order must
denote the same program space.  The catalog languages are pinned by the
committed goldens (``tests/test_goldens.py``).
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import eager_product
from repro.config import DEFAULT_CONFIG
from repro.core.formalism import Synthesize, fold_structures, generate_structures
from repro.syntactic.generate import generate_dag
from repro.syntactic.intersect import intersect_dags
from repro.syntactic.language import SyntacticLanguage
from repro.syntactic.positions import (
    cached_positions,
    intersect_position_sets,
    intersect_position_sets_cached,
    intersection_cache_stats,
)

ALPHABET = "ab1-"


def dag_key(dag):
    if dag is None:
        return None
    return (
        dag.nodes,
        dag.source,
        dag.target,
        tuple(sorted((edge, tuple(atoms)) for edge, atoms in dag.edges.items())),
    )


# -- randomized dag pairs ----------------------------------------------------
class TestDagPairEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(
        sources=st.lists(
            st.text(alphabet=ALPHABET, max_size=8), min_size=1, max_size=3
        ),
        out1=st.text(alphabet=ALPHABET, min_size=0, max_size=7),
        out2=st.text(alphabet=ALPHABET, min_size=0, max_size=7),
    )
    def test_lazy_matches_eager_on_random_pairs(self, sources, out1, out2):
        numbered = list(enumerate(sources))
        first = generate_dag(numbered, out1, DEFAULT_CONFIG)
        second = generate_dag(numbered, out2, DEFAULT_CONFIG)
        eager = eager_product(first, second)
        lazy = intersect_dags(first, second)
        assert dag_key(eager) == dag_key(lazy)
        if eager is not None:
            # Atom order inside each edge must match too (dag_key sorts
            # edges but keeps each option list in emission order).
            assert list(lazy.edges.keys()) == sorted(lazy.edges.keys())
            for edge in eager.edges:
                assert eager.edges[edge] == lazy.edges[edge]

    @settings(max_examples=40, deadline=None)
    @given(
        texts=st.lists(
            st.text(alphabet=ALPHABET, min_size=1, max_size=6), min_size=2, max_size=2
        ),
        pos_data=st.data(),
    )
    def test_cached_position_intersection_matches(self, texts, pos_data):
        sets = []
        for text in texts:
            position = pos_data.draw(st.integers(0, len(text)))
            sets.append(cached_positions(text, position))
        assert intersect_position_sets_cached(
            sets[0], sets[1]
        ) == intersect_position_sets(sets[0], sets[1])
        # Second call must hit the memo and still agree.
        before = intersection_cache_stats()["hits"]
        again = intersect_position_sets_cached(sets[0], sets[1])
        assert intersection_cache_stats()["hits"] == before + 1
        assert again == intersect_position_sets(sets[0], sets[1])


# -- multi-example chains ----------------------------------------------------
CHAINS = [
    [
        (("Alan Turing",), "Turing, A."),
        (("Grace Hopper",), "Hopper, G."),
        (("Kurt Godel",), "Godel, K."),
        (("Oliver Heaviside",), "Heaviside, O."),
    ],
    [
        (("6-3-2008",), "6"),
        (("3-26-2010",), "3"),
        (("8-1-2009",), "8"),
    ],
    [
        (("a-1", "x"), "x: a"),
        (("b-2", "y"), "y: b"),
        (("c-3", "z"), "z: c"),
    ],
]


class TestChainEquivalence:
    @pytest.mark.parametrize("examples", CHAINS, ids=["names", "dates", "two-vars"])
    def test_chain_identical_dags(self, examples):
        language = SyntacticLanguage(DEFAULT_CONFIG)
        adapter = language.adapter()
        lazy_dag = Synthesize(adapter, examples)
        eager_dag = Synthesize(replace(adapter, intersect=eager_product), examples)
        assert dag_key(lazy_dag) == dag_key(eager_dag)
        assert language.count_expressions(lazy_dag) == language.count_expressions(
            eager_dag
        )
        assert language.structure_size(lazy_dag) == language.structure_size(
            eager_dag
        )
        assert str(language.best_program(lazy_dag)) == str(
            language.best_program(eager_dag)
        )

    @pytest.mark.parametrize("examples", CHAINS, ids=["names", "dates", "two-vars"])
    def test_fold_order_independent(self, examples):
        """Any fold order denotes the same program space.

        The structures are isomorphic, not byte-identical -- different
        fold orders nest the product pairs differently, so node ids and
        atom order legitimately vary -- but the Figure 11 measures and the
        extracted programs must agree (this is what licenses the engine's
        smallest-structure-first reordering).
        """
        language = SyntacticLanguage(DEFAULT_CONFIG)
        adapter = language.adapter()
        structures = generate_structures(adapter, examples)
        folds = [
            fold_structures(adapter, structures),
            fold_structures(
                adapter, structures, structure_size=language.structure_size
            ),
            fold_structures(adapter, list(reversed(structures))),
        ]
        assert len({language.count_expressions(d) for d in folds}) == 1
        assert len({language.structure_size(d) for d in folds}) == 1
        assert len({str(language.best_program(d)) for d in folds}) == 1
        for dag in folds:
            for program in language.enumerate_programs(dag, limit=50):
                for state, output in examples:
                    assert program.evaluate(state) == output


class TestDagLevelMemo:
    def test_repeated_product_served_from_memo(self):
        from repro.syntactic.intersect import (
            clear_dag_cache,
            dag_cache_stats,
            reset_dag_cache_stats,
        )

        clear_dag_cache()
        reset_dag_cache_stats()
        numbered = [(0, "ab-cd")]
        first = generate_dag(numbered, "ab", DEFAULT_CONFIG)
        second = generate_dag(numbered, "ab", DEFAULT_CONFIG)
        one = intersect_dags(first, second)
        # Structurally equal operands (even different objects) hit.
        first2 = generate_dag(numbered, "ab", DEFAULT_CONFIG)
        two = intersect_dags(first2, second)
        stats = dag_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        # Hits return private copies (never the stored instance), so a
        # caller mutating "its" dag cannot corrupt the memo.
        assert two is not one
        assert dag_key(two) == dag_key(one)
        two.edges.clear()
        three = intersect_dags(first, second)
        assert dag_key(three) == dag_key(one)
        # The eager reference agrees.
        assert dag_key(one) == dag_key(eager_product(first, second))

    def test_lu_merge_sources_never_use_dag_memo(self):
        from repro.syntactic.intersect import (
            clear_dag_cache,
            dag_cache_stats,
            reset_dag_cache_stats,
        )

        clear_dag_cache()
        reset_dag_cache_stats()
        numbered = [(0, "ab")]
        first = generate_dag(numbered, "ab", DEFAULT_CONFIG)

        def merge(a, b):  # a Lu-style merge with side effects
            return a if a == b else None

        intersect_dags(first, first, merge)
        stats = dag_cache_stats()
        assert stats["misses"] == 0 and stats["hits"] == 0
