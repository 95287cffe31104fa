"""Compiled fill vs the AST interpreter: byte-identical, or refused.

``Program.compile()`` (``repro.engine.compile``) specializes programs
into flat closure plans for the serve-many fill path; the interpreter
(``Expression.evaluate`` via ``fill_*_interpreted``) stays the oracle.
These tests hold the two to byte-identical outputs *and* identical
error messages:

* hypothesis-generated rows -- arbitrary unicode including astral-plane
  characters, blank rows interleaved -- against a hand-built program
  exercising Select fusion, SubStr position closures and concat
  folding;
* the serving contract edges: blank-row alignment, ragged-row arity
  errors (1-based, ``start``-offset), ⊥ rows as ``None``;
* the rebind contract (the PR-5 ``/fill`` rule): merely-grown catalogs
  re-bind silently, removed/re-schema'd/rewritten tables refuse with
  ``StaleProgramError``;
* the service plan cache: keyed (program digest, catalog fingerprint),
  hits/misses in ``stats()``.

Every benchsuite problem's top program is held to the interpreter (and
required to compile) by the golden test, ``tests/test_goldens.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.compile import (
    CompiledProgram,
    PlanCompileError,
    compile_program,
    table_drift,
)
from repro.engine.program import Program
from repro.exceptions import StaleProgramError
from repro.lookup.ast import Select
from repro.core.exprs import Var
from repro.syntactic.ast import Concatenate, ConstStr, CPos, Pos, SubStr
from repro.syntactic.tokens import TOKENS
from repro.tables.catalog import Catalog
from repro.tables.table import Table


def make_catalog() -> Catalog:
    return Catalog(
        [
            Table(
                "Comp",
                ["Id", "Name"],
                [[f"c{i}", f"Member {i} of ACME"] for i in range(40)]
                + [["dup", "first"], ["dup", "second"]],  # ambiguous key
            )
        ]
    )


def make_program(catalog: Catalog) -> Program:
    """Select fused over an inverted index, keyed by a SubStr of v1,
    concatenated with positional slices -- the shapes the synthesizer
    emits, in one expression."""
    whitespace = next(t.ident for t in TOKENS if t.name == "WsTok")
    expr = Concatenate(
        (
            ConstStr("["),
            Select(
                "Name",
                "Comp",
                (("Id", SubStr(Var(0), CPos(0), Pos((), (whitespace,), 1))),),
            ),
            ConstStr("]"),
            SubStr(Var(0), CPos(0), CPos(-1)),
        )
    )
    return Program(expr, catalog, "semantic", 1)


def assert_equivalent(program: Program, rows) -> None:
    """Both fill surfaces agree byte-for-byte between the two paths."""
    expected = program.fill_aligned_interpreted(rows)
    plan = program.compile()
    assert plan.fill_aligned(rows) == expected
    assert list(plan.fill_iter(rows)) == expected
    # The plan-routed path serves the same bytes.
    assert program.fill_aligned(rows) == expected
    full_rows = [row for row in rows if row]
    assert plan.fill(full_rows) == program.fill_interpreted(full_rows)


class TestHypothesisRows:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.one_of(
                st.just([]),  # blank rows interleave with data rows
                st.lists(
                    st.text(
                        alphabet=st.characters(
                            min_codepoint=1, max_codepoint=0x10FFFF
                        ),
                        max_size=24,
                    ),
                    min_size=1,
                    max_size=1,
                ),
            ),
            max_size=25,
        )
    )
    def test_unicode_rows_byte_identical(self, rows):
        assert_equivalent(make_program(make_catalog()), rows)

    @settings(max_examples=30, deadline=None)
    @given(key=st.integers(min_value=-5, max_value=45))
    def test_lookup_hits_misses_and_ambiguity(self, key):
        catalog = make_catalog()
        program = make_program(catalog)
        rows = [[f"c{key} suffix"], ["dup x"], [""]]
        assert (
            program.compile().fill_aligned(rows)
            == program.fill_aligned_interpreted(rows)
        )


class TestServingContract:
    def test_blank_rows_align(self):
        program = make_program(make_catalog())
        plan = program.compile()
        outputs = plan.fill_aligned([[], ["c1 x"], [], []])
        assert outputs[0] == "" and outputs[2] == "" and outputs[3] == ""
        assert len(outputs) == 4

    def test_ragged_rows_same_error_both_paths(self):
        program = make_program(make_catalog())
        plan = program.compile()
        rows = [["a"], ["b", "c"]]
        with pytest.raises(ValueError) as compiled_error:
            plan.fill_aligned(rows)
        with pytest.raises(ValueError) as interpreted_error:
            program.fill_aligned_interpreted(rows)
        assert str(compiled_error.value) == str(interpreted_error.value)
        assert str(compiled_error.value) == (
            "fill row 2: program expects 1 inputs, got 2"
        )

    def test_fill_iter_start_offsets_row_numbers(self):
        plan = make_program(make_catalog()).compile()
        with pytest.raises(ValueError, match=r"fill row 1001: "):
            list(plan.fill_iter([["a", "b"]], start=1001))

    def test_fill_unaligned_raises_unprefixed(self):
        plan = make_program(make_catalog()).compile()
        with pytest.raises(ValueError, match=r"^program expects 1 inputs"):
            plan.fill([["a", "b"]])

    def test_undefined_rows_stay_none(self):
        catalog = make_catalog()
        # p1 > p2 over a short string: SubStr is ⊥ there.
        expr = SubStr(Var(0), CPos(5), CPos(2))
        program = Program(expr, catalog, "semantic", 1)
        plan = program.compile()
        rows = [["ab"], ["abcdefgh"]]
        assert plan.fill_aligned(rows) == program.fill_aligned_interpreted(rows)
        assert plan.fill_aligned(rows)[0] is None

    def test_memo_bounded_and_sound(self):
        program = make_program(make_catalog())
        plan = program.compile()
        limit = CompiledProgram.MEMO_LIMIT
        rows = [[f"c{i % 50} x"] for i in range(limit + 100)]
        assert plan.fill_aligned(rows) == program.fill_aligned_interpreted(rows)
        assert len(plan._memo) <= limit

    def test_compile_failure_falls_back_silently(self):
        # No catalog at all: the Select cannot bind, so compile refuses
        # and the fill methods serve the interpreter.
        program = make_program(make_catalog())
        unbound = Program(program.expr, None, "semantic", 1)
        with pytest.raises(PlanCompileError):
            unbound.compile()
        assert unbound._compiled_or_none() is None


class TestRebindContract:
    def test_identical_fingerprint_returns_same_plan(self):
        catalog = make_catalog()
        plan = make_program(catalog).compile()
        assert plan.rebound(catalog) is plan

    def test_grown_table_rebinds_silently(self):
        catalog = make_catalog()
        program = make_program(catalog)
        plan = program.compile()
        grown = catalog.with_rows("Comp", [["c77", "Member 77 of ACME"]])
        rebound = plan.rebound(grown)
        assert rebound is not plan
        assert rebound.catalog_fingerprint == grown.fingerprint()
        # The new rows actually serve (stale handles would miss them).
        served = Program(program.expr, grown, "semantic", 1)
        assert rebound.fill_aligned([["c77 y"]]) == (
            served.fill_aligned_interpreted([["c77 y"]])
        )

    def test_rewritten_table_refuses(self):
        catalog = make_catalog()
        plan = make_program(catalog).compile()
        rewritten = Catalog(
            [
                Table(
                    "Comp",
                    ["Id", "Name"],
                    [[f"c{i}", f"CHANGED {i}"] for i in range(42)],
                )
            ]
        )
        with pytest.raises(StaleProgramError) as error:
            plan.rebound(rewritten)
        assert any("rewritten" in change for change in error.value.changes)

    def test_removed_table_refuses(self):
        catalog = make_catalog()
        plan = make_program(catalog).compile()
        with pytest.raises(StaleProgramError) as error:
            plan.rebound(Catalog([Table("Other", ["A"], [["x"]])]))
        assert any("removed" in change for change in error.value.changes)

    def test_reschemaed_table_refuses(self):
        catalog = make_catalog()
        plan = make_program(catalog).compile()
        changed = Catalog(
            [Table("Comp", ["Id", "Name", "Extra"],
                   [[f"c{i}", f"n{i}", "x"] for i in range(42)])]
        )
        with pytest.raises(StaleProgramError) as error:
            plan.rebound(changed)
        assert any("columns changed" in change for change in error.value.changes)

    def test_table_drift_shared_with_service_staleness(self):
        # The same helper backs both the plan rebind and the service's
        # stored-program staleness check (one contract, one codepath).
        from repro.service.service import SynthesisService

        catalog = make_catalog()
        provenance = {
            "Comp": {
                "columns": ["Id", "Name"],
                "num_rows": 42,
                "data_fingerprint": catalog.table("Comp").data_fingerprint(),
            }
        }
        assert table_drift(provenance, catalog) == []
        assert (
            SynthesisService._staleness_changes({"tables": provenance}, catalog)
            == []
        )


class TestServicePlanCache:
    def _service_and_program(self):
        from repro.service.service import SynthesisService

        catalog = make_catalog()
        service = SynthesisService(catalog=catalog)
        program = make_program(service.engine.catalog)
        return service, program

    def test_cache_hits_and_misses_in_stats(self):
        service, program = self._service_and_program()
        rows = [["c1 x"], ["c2 y"]]
        first = service.fill(program, rows)
        second = service.fill(program, rows)
        assert first == second
        stats = service.stats()["plan_cache"]
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["entries"] == 1

    def test_catalog_update_changes_cache_key(self):
        service, program = self._service_and_program()
        service.fill(program, [["c1 x"]])
        service.registry.append_rows(
            service.default_catalog, "Comp", [["c99", "Member 99 of ACME"]]
        )
        # The program re-resolves against the new snapshot; its digest
        # is unchanged but the fingerprint half of the key moves on.
        snapshot = service.engine.catalog
        served = Program(program.expr, snapshot, "semantic", 1)
        outputs = service.fill(
            program, [["c99 q"]], catalog=service.default_catalog
        )
        assert outputs == served.fill_aligned_interpreted([["c99 q"]])
        assert service.stats()["plan_cache"]["entries"] == 2

    def test_fill_stream_chunks_match_fill(self):
        service, program = self._service_and_program()
        rows = [[f"c{i % 40} x"] for i in range(17)] + [[]]
        whole = service.fill(program, rows)
        streamed = list(service.fill_stream(program, iter(rows), chunk_rows=5))
        assert [len(chunk) for chunk in streamed] == [5, 5, 5, 3]
        assert [output for chunk in streamed for output in chunk] == whole
