"""Unit tests for GenerateStr'_t / GenerateStr_u (paper §5.3)."""

import pytest

from repro.config import SynthesisConfig
from repro.lookup.dstruct import GenSelect, VarEntry
from repro.semantic.generate import generate_semantic
from repro.semantic.language import SemanticLanguage
from repro.tables import Catalog, Table
from repro.tables.substring_index import SubstringIndex


@pytest.fixture()
def comp_catalog():
    return Catalog(
        [
            Table(
                "Comp",
                ["Id", "Name"],
                [
                    ("c1", "Microsoft"),
                    ("c2", "Google"),
                    ("c3", "Apple"),
                    ("c4", "Facebook"),
                    ("c5", "IBM"),
                    ("c6", "Xerox"),
                ],
                keys=[("Id",), ("Name",)],
            )
        ]
    )


@pytest.fixture()
def bike_catalog():
    return Catalog(
        [
            Table(
                "BikePrices",
                ["Bike", "Price"],
                [
                    ("Ducati100", "10,000"),
                    ("Ducati125", "12,500"),
                    ("Ducati250", "18,000"),
                    ("Honda125", "11,500"),
                    ("Honda250", "19,000"),
                ],
                keys=[("Bike",)],
            )
        ]
    )


def _overlaps(entry_value, reachable, min_len):
    """Does ``entry_value`` trigger on ``reachable`` (the §5.3 rule)?"""
    index = SubstringIndex([entry_value])
    return index.overlapping(reachable, min_len) == [0]


class TestOverlapTrigger:
    def test_equality(self):
        assert _overlaps("abc", "abc", 1)

    def test_entry_substring_of_reachable(self):
        assert _overlaps("c4", "c4 c3 c1", 1)

    def test_reachable_substring_of_entry(self):
        # Example 5: input "Honda" is a substring of entry "Honda125".
        assert _overlaps("Honda125", "Honda", 1)

    def test_min_length_respected(self):
        assert not _overlaps("abcdef", "a", 2)
        assert _overlaps("abcdef", "ab", 2)

    def test_no_overlap(self):
        assert not _overlaps("xyz", "abc", 1)


class TestRelaxedReachability:
    def test_example6_names_reachable(self, comp_catalog):
        # "c4 c3 c1" makes rows c4, c3, c1 reachable by substring.
        structure = generate_semantic(
            comp_catalog, ("c4 c3 c1",), "Facebook Apple Microsoft"
        )
        store = structure.store
        for name in ("Facebook", "Apple", "Microsoft"):
            assert store.node_for(name) is not None, name
        # Untriggered rows contribute nothing.
        assert store.node_for("Google") is None

    def test_example5_concatenated_key_reachable(self, bike_catalog):
        structure = generate_semantic(bike_catalog, ("Honda", "125"), "11,500")
        assert structure.store.node_for("11,500") is not None
        # Other Honda/125 rows are triggered too (shared substrings) but
        # unrelated Ducati100 only via "100"... which no input covers.
        assert structure.store.node_for("10,000") is None

    def test_exact_reachability_ablation(self, comp_catalog):
        config = SynthesisConfig(relaxed_reachability=False)
        structure = generate_semantic(
            comp_catalog, ("c4 c3 c1",), "Facebook Apple Microsoft", config
        )
        # Without the relaxed trigger nothing matches exactly.
        assert structure.store.node_for("Facebook") is None

    def test_predicates_are_dags(self, comp_catalog):
        structure = generate_semantic(
            comp_catalog, ("c4 c3 c1",), "Facebook Apple Microsoft"
        )
        store = structure.store
        node = store.node_for("Facebook")
        select = next(e for e in store.progs[node] if isinstance(e, GenSelect))
        for predicates in select.cond.keys:
            for predicate in predicates:
                assert predicate.dag is not None

    def test_predicate_dags_shared_by_key_string(self, bike_catalog):
        # Rows Ducati125 and Honda125 both key on strings containing "125";
        # equal key strings share one dag object.
        structure = generate_semantic(bike_catalog, ("Honda", "125"), "11,500")
        store = structure.store
        dags = {}
        for progs in store.progs:
            for entry in progs:
                if isinstance(entry, GenSelect):
                    for predicates in entry.cond.keys:
                        for predicate in predicates:
                            key = (entry.table, predicate.column, entry.cond.row)
        # Same target string -> same object (cache check via values).
        price_node = store.node_for("11,500")
        selects = [e for e in store.progs[price_node] if isinstance(e, GenSelect)]
        assert selects  # the Bike="Honda125" row select exists

    def test_node_cap(self, comp_catalog):
        config = SynthesisConfig(max_reachable_nodes=2)
        structure = generate_semantic(
            comp_catalog, ("c4 c3 c1",), "Facebook Apple Microsoft", config
        )
        assert len(structure.store) <= 4


class TestTopDag:
    def test_top_dag_shape(self, comp_catalog):
        structure = generate_semantic(
            comp_catalog, ("c4 c3 c1",), "Facebook Apple Microsoft"
        )
        assert structure.dag.source == 0
        assert structure.dag.target == len("Facebook Apple Microsoft")
        assert structure.has_program()

    def test_target_set_when_output_is_entry(self, comp_catalog):
        structure = generate_semantic(comp_catalog, ("c4",), "Facebook")
        assert structure.store.target is not None


class TestSoundness:
    def test_enumerated_programs_consistent_example6(self, comp_catalog):
        language = SemanticLanguage(comp_catalog)
        state, output = ("c4 c3 c1",), "Facebook Apple Microsoft"
        structure = language.generate(state, output)
        checked = 0
        for program in language.enumerate_programs(structure, limit=60):
            result = program.evaluate(state, comp_catalog)
            assert result == output, f"{program} -> {result!r}"
            checked += 1
        assert checked == 60

    def test_enumerated_programs_consistent_example5(self, bike_catalog):
        language = SemanticLanguage(bike_catalog)
        state, output = ("Honda", "125"), "11,500"
        structure = language.generate(state, output)
        checked = 0
        for program in language.enumerate_programs(structure, limit=40):
            result = program.evaluate(state, bike_catalog)
            assert result == output, f"{program} -> {result!r}"
            checked += 1
        assert checked >= 10
