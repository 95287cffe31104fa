"""Unit + property tests for the catalog substring-trigger index."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import overlaps
from repro.tables.substring_index import SubstringIndex


def naive_overlapping(values, text, min_len):
    """The reference: a pairwise scan of the §5.3 trigger."""
    return [
        value_id
        for value_id, value in enumerate(values)
        if overlaps(value, text, min_len)
    ]


class TestBasics:
    def test_rejects_empty_values(self):
        with pytest.raises(ValueError):
            SubstringIndex(["a", ""])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SubstringIndex(["a", "a"])

    def test_id_of(self):
        index = SubstringIndex(["alpha", "beta"])
        assert index.id_of("alpha") == 0
        assert index.id_of("beta") == 1
        assert index.id_of("gamma") is None

    def test_contained_in_reports_all_substrings(self):
        index = SubstringIndex(["an", "ban", "banana", "nan", "x"])
        assert index.contained_in("banana") == {0, 1, 2, 3}

    def test_containing_verifies_candidates(self):
        index = SubstringIndex(["banana", "bandana", "cabana"])
        assert index.containing("ana") == [0, 1, 2]
        assert index.containing("nan") == [0]
        assert index.containing("zzz") == []

    def test_overlapping_is_sorted(self):
        index = SubstringIndex(["cc", "b", "abc"])
        assert index.overlapping("abcc") == [0, 1, 2]

    def test_min_len_gates_containment_not_equality(self):
        index = SubstringIndex(["a", "abc"])
        # "a" is shorter than min_len, so containment in "abc"-like text
        # does not fire; equality still does.
        assert index.overlapping("a", min_len=2) == [0]
        assert index.overlapping("ab", min_len=2) == [1]

    def test_empty_query(self):
        index = SubstringIndex(["a"])
        assert index.overlapping("") == []

    def test_matchers_built_lazily(self):
        index = SubstringIndex(["abc", "bcd"])
        # Equality-only users (relaxed_reachability=False) never pay for
        # the automaton/gram build.
        assert index.id_of("abc") == 0
        assert index._segments is None
        assert index.overlapping("abcd") == [0, 1]
        assert index._segments is not None


values_strategy = st.lists(
    st.text(alphabet="ab1$ ", min_size=1, max_size=9),
    min_size=1,
    max_size=30,
    unique=True,
)


class TestOracleEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        values=values_strategy,
        text=st.text(alphabet="ab1$ ", min_size=1, max_size=14),
        min_len=st.integers(min_value=1, max_value=4),
    )
    def test_overlapping_matches_pairwise_scan(self, values, text, min_len):
        index = SubstringIndex(values)
        assert index.overlapping(text, min_len) == naive_overlapping(
            values, text, min_len
        )

    @settings(max_examples=100, deadline=None)
    @given(values=values_strategy, text=st.text(alphabet="ab1$ ", max_size=14))
    def test_contained_in_matches_scan(self, values, text):
        index = SubstringIndex(values)
        expected = {i for i, v in enumerate(values) if v in text}
        assert index.contained_in(text) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        values=values_strategy,
        text=st.text(alphabet="ab1$ ", min_size=1, max_size=14),
    )
    def test_containing_matches_scan(self, values, text):
        index = SubstringIndex(values)
        expected = [i for i, v in enumerate(values) if text in v]
        assert index.containing(text) == expected
