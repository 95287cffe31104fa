"""Program compilation: a flat execution plan for the serve-many fill path.

:func:`compile_program` specializes a learned :class:`~repro.engine.program.Program`
into a :class:`CompiledProgram` -- a tree of plain Python closures bound
against one specific catalog snapshot -- so bulk fills stop paying the
per-row AST dispatch of ``Expression.evaluate``:

* **Pre-resolved lookup handles.**  Every ``Select`` resolves its table
  and column *once* at compile time.  A single-predicate Select (the
  common shape the synthesizer emits) is fused into one dict built from
  the table's per-column inverted index: ``value -> output cell`` for
  every value matching exactly one row, so the per-row work is a single
  dict probe (absent = ambiguous-or-missing = ``""``, exactly the
  paper's Select semantics).  Nested Select chains compose as closure
  chains over fused dicts -- no intermediate condition dicts at all.
* **Precompiled position closures.**  ``CPos`` becomes arithmetic;
  ``pos(r1, r2, c)`` over single-token regexes becomes an indexed probe
  into that token's boundary list, computed by scanning *only the
  tokens the program names* (the interpreter builds a full
  ``TokenMatchIndex`` over all 26 tokens per new string).  Boundary
  lists are memoized per row in a small ``ctx`` dict so repeated
  positions over the same subject string scan once.
* **Constant folding.**  Subtrees without input variables (``ConstStr``
  spines, all-constant Selects, ``SubStr`` over constants) are
  evaluated once at compile time; adjacent constant parts of a
  ``Concatenate`` are merged.

The plan records the catalog fingerprint plus per-required-table
provenance (columns, row count, data digest) it was bound against:
:meth:`CompiledProgram.rebound` re-binds **silently** when required
tables merely grew (the PR-5 ``/fill`` re-resolution contract, shared
via :func:`table_drift`) and refuses with
:class:`~repro.exceptions.StaleProgramError` when a table was removed,
re-schema'd or rewritten.

Compilation is best-effort by design: anything the compiler does not
understand -- plugin expression types, storage-backed catalogs,
approximate matcher specs, missing tables -- raises
:class:`PlanCompileError`, and callers (``Program.fill_aligned``,
``SynthesisService``) fall back to the interpreted path, which stays
the byte-for-byte reference (``tests/test_compiled_fill_equivalence.py``
and the committed goldens in ``tests/golden``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.base import Expression
from repro.core.exprs import Var
from repro.exceptions import StaleProgramError
from repro.lookup.ast import Select
from repro.syntactic.ast import Concatenate, ConstStr, CPos, Pos, Position, SubStr
from repro.syntactic.regex import evaluate_pos
from repro.syntactic.tokens import (
    token_by_id,
    token_end_positions,
    token_start_positions,
)
from repro.tables.catalog import Catalog
from repro.tables.table import Table

__all__ = [
    "CompiledProgram",
    "PlanCompileError",
    "compile_program",
    "table_drift",
]

#: Compiled expression: ``fn(state, ctx) -> Optional[str]`` where ``ctx``
#: is the per-row memo dict for token boundary lists.
CompiledFn = Callable[[Sequence[str], dict], Optional[str]]

#: Compiled position: ``p(text, ctx) -> Optional[int]``.
PositionFn = Callable[[str, dict], Optional[int]]

_CONST = "const"
_FN = "fn"

#: Row-memo miss sentinel (``None`` is a legitimate ⊥ output).
_MEMO_MISS = object()


class PlanCompileError(Exception):
    """The program cannot be compiled; callers fall back to the interpreter."""


# -- constant folding ---------------------------------------------------------
def _fold_info(expr: Expression) -> Tuple[bool, bool]:
    """``(known, has_var)``: whether the subtree is made of node types the
    compiler fully understands, and whether it reads any input variable.
    A known, variable-free subtree can be evaluated once at compile time
    (tables in the bound snapshot are immutable)."""
    if isinstance(expr, Var):
        return True, True
    if isinstance(expr, ConstStr):
        return True, False
    if isinstance(expr, SubStr):
        return _fold_info(expr.source)
    if isinstance(expr, Concatenate):
        infos = [_fold_info(part) for part in expr.parts]
        return all(k for k, _ in infos), any(v for _, v in infos)
    if isinstance(expr, Select):
        infos = [_fold_info(sub) for _, sub in expr.predicates]
        return all(k for k, _ in infos), any(v for _, v in infos)
    return False, False  # plugin node: may need state; never fold


# -- position compilation -----------------------------------------------------
def _compile_position(position: Position) -> PositionFn:
    """One closure per position expression: ``p(text, ctx) -> int | None``.

    ``ctx`` is the per-row memo: boundary lists are keyed by
    ``(tag, text)`` (the text is part of the key because one row can
    evaluate positions over several strings -- multiple inputs, lookup
    results), so a program probing the same token repeatedly scans each
    subject string once.  The memo and the c-indexing are inlined into
    each closure -- a position probe is one call, not three.
    """
    if isinstance(position, CPos):
        k = position.k
        if k >= 0:
            def cpos(text: str, ctx: dict, _k=k) -> Optional[int]:
                return _k if _k <= len(text) else None
            return cpos

        def cpos_neg(text: str, ctx: dict, _k=k) -> Optional[int]:
            at = len(text) + 1 + _k
            return at if at >= 0 else None
        return cpos_neg

    if isinstance(position, Pos):
        r1, r2, c = position.r1, position.r2, position.c
        if not r1 and not r2:
            # pos(ε, ε, c): the c-th of the l+1 positions -- arithmetic.
            def pos_eps(text: str, ctx: dict, _c=c) -> Optional[int]:
                n = len(text) + 1
                index = _c - 1 if _c > 0 else n + _c
                return index if 0 <= index < n else None
            return pos_eps
        if (not r1 and len(r2) == 1) or (len(r1) == 1 and not r2):
            # ε-token / token-ε: index straight into one boundary list.
            if r2:
                token, scan, tag = token_by_id(r2[0]), token_start_positions, (0, r2[0])
            else:
                token, scan, tag = token_by_id(r1[0]), token_end_positions, (1, r1[0])

            def pos_one(text: str, ctx: dict, _c=c, _token=token,
                        _scan=scan, _tag=tag) -> Optional[int]:
                key = (_tag, text)
                positions = ctx.get(key)
                if positions is None:
                    positions = ctx[key] = _scan(_token, text)
                index = _c - 1 if _c > 0 else len(positions) + _c
                if 0 <= index < len(positions):
                    return positions[index]
                return None
            return pos_one
        if len(r1) == 1 and len(r2) == 1:
            left = token_by_id(r1[0])
            right = token_by_id(r2[0])

            def pos_pair(text: str, ctx: dict, _c=c, _left=left,
                         _right=right, _tag=(2, r1[0], r2[0])) -> Optional[int]:
                key = (_tag, text)
                positions = ctx.get(key)
                if positions is None:
                    start_set = set(token_start_positions(_right, text))
                    # Token end lists are strictly ascending, so the
                    # filtered list equals sorted(ends ∩ starts).
                    positions = ctx[key] = [
                        at for at in token_end_positions(_left, text)
                        if at in start_set
                    ]
                index = _c - 1 if _c > 0 else len(positions) + _c
                if 0 <= index < len(positions):
                    return positions[index]
                return None
            return pos_pair

        # Token sequences (|r| >= 2): rare under the default
        # max_tokenseq_len=1; the shared evaluator stays the semantics.
        def pos_seq(text: str, ctx: dict, _r1=r1, _r2=r2, _c=c) -> Optional[int]:
            return evaluate_pos(text, _r1, _r2, _c)
        return pos_seq

    # Unknown Position subclass: evaluate through its own method.
    def pos_generic(text: str, ctx: dict, _p=position) -> Optional[int]:
        return _p.position_in(text)
    return pos_generic


# -- expression compilation ---------------------------------------------------
def _as_fn(kind: str, item: Any) -> CompiledFn:
    if kind == _FN:
        return item

    def const(state: Sequence[str], ctx: dict, _value=item) -> Optional[str]:
        return _value
    return const


def _compile_expr(
    expr: Expression, catalog: Optional[Catalog]
) -> Tuple[str, Any]:
    known, has_var = _fold_info(expr)
    if known and not has_var:
        # No input variable anywhere below: one compile-time evaluation
        # against the (immutable) bound snapshot replaces the subtree.
        return _CONST, expr.evaluate((), catalog)

    if isinstance(expr, Var):
        def var(state: Sequence[str], ctx: dict, _i=expr.index) -> Optional[str]:
            try:
                return state[_i]
            except IndexError:
                return None
        return _FN, var

    if isinstance(expr, SubStr):
        src_kind, src_item = _compile_expr(expr.source, catalog)
        if src_kind == _CONST and src_item is None:
            return _CONST, None
        p1 = _compile_position(expr.p1)
        p2 = _compile_position(expr.p2)
        if isinstance(expr.source, Var):
            # The dominant shape -- SubStr over an input column -- reads
            # the state directly instead of through a Var closure.
            def substr_var(state: Sequence[str], ctx: dict,
                           _i=expr.source.index) -> Optional[str]:
                try:
                    value = state[_i]
                except IndexError:
                    return None
                if value is None:
                    return None
                start = p1(value, ctx)
                if start is None:
                    return None
                end = p2(value, ctx)
                if end is None or start > end:
                    return None
                return value[start:end]
            return _FN, substr_var
        source = _as_fn(src_kind, src_item)

        def substr(state: Sequence[str], ctx: dict) -> Optional[str]:
            value = source(state, ctx)
            if value is None:
                return None
            start = p1(value, ctx)
            if start is None:
                return None
            end = p2(value, ctx)
            if end is None or start > end:
                return None
            return value[start:end]
        return _FN, substr

    if isinstance(expr, Concatenate):
        compiled = [_compile_expr(part, catalog) for part in expr.parts]
        if any(kind == _CONST and item is None for kind, item in compiled):
            return _CONST, None  # a constant ⊥ part makes every row ⊥
        merged: List[Tuple[str, Any]] = []
        for kind, item in compiled:
            if kind == _CONST and merged and merged[-1][0] == _CONST:
                merged[-1] = (_CONST, merged[-1][1] + item)
            else:
                merged.append((kind, item))
        if len(merged) == 1:
            return merged[0]
        fns = tuple(_as_fn(kind, item) for kind, item in merged)
        if len(fns) == 2:
            first, second = fns

            def concat2(state: Sequence[str], ctx: dict) -> Optional[str]:
                left = first(state, ctx)
                if left is None:
                    return None
                right = second(state, ctx)
                if right is None:
                    return None
                return left + right
            return _FN, concat2

        def concat(state: Sequence[str], ctx: dict, _fns=fns) -> Optional[str]:
            pieces = []
            for fn in _fns:
                value = fn(state, ctx)
                if value is None:
                    return None
                pieces.append(value)
            return "".join(pieces)
        return _FN, concat

    if isinstance(expr, Select):
        return _FN, _compile_select(expr, catalog)

    # Plugin expression type: the generic closure keeps the plan total
    # without understanding the node (it still skips Program.run's
    # per-row tuple()+arity overhead).
    def generic(state: Sequence[str], ctx: dict, _e=expr, _c=catalog) -> Optional[str]:
        return _e.evaluate(tuple(state), _c)
    return _FN, generic


def _compile_select(expr: Select, catalog: Optional[Catalog]) -> CompiledFn:
    if catalog is None:
        raise PlanCompileError(f"Select({expr.table}) needs a catalog to bind")
    table = catalog.table(expr.table)  # UnknownTableError -> compile fails
    if not isinstance(table, Table):
        raise PlanCompileError(
            f"table {expr.table!r} is not an in-memory Table "
            f"({type(table).__name__}); lookups stay interpreted"
        )
    out_position = table.column_position(expr.column)
    rows = table.rows

    if len(expr.predicates) == 1:
        key_column, sub = expr.predicates[0]
        postings = table.column_postings(key_column)
        # Fused lookup: value -> output cell where the value matches
        # exactly one row.  Absent keys cover both "no row" and
        # "ambiguous" -- each yields "" (paper §4.1).
        fused = {
            value: rows[matched[0]][out_position]
            for value, matched in postings.items()
            if len(matched) == 1
        }
        key_fn = _as_fn(*_compile_expr(sub, catalog))

        def select_fused(state: Sequence[str], ctx: dict) -> str:
            value = key_fn(state, ctx)
            if value is None:
                return ""  # undefined key behaves like "no row matches"
            return fused.get(value, "")
        return select_fused

    # Multi-predicate Select: mirror the interpreter exactly -- evaluate
    # every predicate in order (an undefined one returns ""), last value
    # wins per column (conditions is a dict there too), then intersect
    # the pre-resolved postings smallest-first.
    compiled_preds: List[Tuple[str, CompiledFn]] = []
    postings_by_column: Dict[str, Dict[str, Tuple[int, ...]]] = {}
    for key_column, sub in expr.predicates:
        postings_by_column[key_column] = table.column_postings(key_column)
        compiled_preds.append((key_column, _as_fn(*_compile_expr(sub, catalog))))
    pred_fns = tuple(compiled_preds)

    def select_multi(state: Sequence[str], ctx: dict) -> str:
        conditions: Dict[str, str] = {}
        for column, fn in pred_fns:
            value = fn(state, ctx)
            if value is None:
                return ""
            conditions[column] = value
        postings: List[Tuple[int, ...]] = []
        for column, value in conditions.items():
            matched = postings_by_column[column].get(value)
            if not matched:
                return ""
            postings.append(matched)
        if len(postings) == 1:
            matched = postings[0]
            if len(matched) == 1:
                return rows[matched[0]][out_position]
            return ""
        postings.sort(key=len)
        survivors = set(postings[0])
        for other in postings[1:]:
            survivors.intersection_update(other)
            if not survivors:
                return ""
        if len(survivors) == 1:
            return rows[survivors.pop()][out_position]
        return ""
    return select_multi


# -- catalog drift (shared with the service's staleness check) ----------------
def table_drift(tables: Dict[str, Any], snapshot: Catalog) -> List[str]:
    """What moved under a program's recorded tables, human-readably.

    ``tables`` maps table name -> ``{"columns", "num_rows",
    "data_fingerprint"}`` (the provenance block stored program artifacts
    and compiled plans both record).  Empty means every required table
    is intact as a prefix of the current data -- same columns, original
    rows unchanged, appended rows fine -- so the program/plan may
    re-bind silently; non-empty lists exactly what changed.
    """
    changes: List[str] = []
    for table_name, info in sorted(tables.items()):
        if table_name not in snapshot:
            changes.append(f"table {table_name!r} was removed")
            continue
        table = snapshot.table(table_name)
        recorded_columns = info.get("columns")
        if recorded_columns is not None and list(table.columns) != list(
            recorded_columns
        ):
            changes.append(
                f"table {table_name!r} columns changed "
                f"({recorded_columns} -> {list(table.columns)})"
            )
            continue
        recorded_rows = info.get("num_rows")
        if recorded_rows is not None and table.num_rows < recorded_rows:
            changes.append(
                f"table {table_name!r} lost rows "
                f"({recorded_rows} -> {table.num_rows})"
            )
            continue
        recorded_digest = info.get("data_fingerprint")
        if (
            recorded_digest is not None
            and table.data_fingerprint(recorded_rows) != recorded_digest
        ):
            changes.append(
                f"table {table_name!r} rows 1..{recorded_rows} were "
                "rewritten"
            )
    return changes


# -- the compiled plan --------------------------------------------------------
class CompiledProgram:
    """A program specialized into closures against one catalog snapshot.

    Mirrors the :class:`~repro.engine.program.Program` serving surface --
    :meth:`run`, :meth:`fill`, :meth:`fill_aligned`, plus the streaming
    :meth:`fill_iter` -- with identical outputs and identical error
    messages (the equivalence suite holds both to that).  Build with
    :func:`compile_program` or ``Program.compile()``.
    """

    __slots__ = (
        "program",
        "num_inputs",
        "language",
        "catalog",
        "catalog_fingerprint",
        "tables",
        "_run",
        "_memo",
    )

    #: Bound on the per-plan row-result memo (entries, cleared wholesale
    #: at the limit like the token-index cache) -- keeps a million-row
    #: streaming fill at constant memory while repeated rows cost one
    #: dict probe.
    MEMO_LIMIT = 8192

    def __init__(
        self,
        program: "Any",
        catalog: Optional[Catalog],
        run: CompiledFn,
        tables: Dict[str, Any],
    ) -> None:
        self.program = program
        self.num_inputs = program.num_inputs
        self.language = program.language
        self.catalog = catalog
        self.catalog_fingerprint = (
            catalog.fingerprint() if catalog is not None else None
        )
        self.tables = tables
        self._run = run
        # row tuple -> output.  Sound because the plan is bound to one
        # immutable snapshot: outputs are a pure function of the row.
        self._memo: Dict[Tuple[str, ...], Optional[str]] = {}

    # -- running -------------------------------------------------------
    def run(self, inputs: Sequence[str]) -> Optional[str]:
        """Evaluate one row; same contract as :meth:`Program.run`."""
        state = tuple(inputs)
        if len(state) != self.num_inputs:
            raise ValueError(
                f"program expects {self.num_inputs} inputs, got {len(state)}"
            )
        return self._run(state, {})

    __call__ = run

    def fill(self, rows: Sequence[Sequence[str]]) -> List[Optional[str]]:
        """Mirror of :meth:`Program.fill` (no blank-row alignment)."""
        run = self._run
        expected = self.num_inputs
        memo = self._memo
        limit = self.MEMO_LIMIT
        miss = _MEMO_MISS
        outputs: List[Optional[str]] = []
        append = outputs.append
        for row in rows:
            if len(row) != expected:
                raise ValueError(
                    f"program expects {expected} inputs, got {len(row)}"
                )
            key = tuple(row)
            try:
                value = memo.get(key, miss)
            except TypeError:  # unhashable cells: evaluate directly
                append(run(key, {}))
                continue
            if value is miss:
                value = run(key, {})
                if len(memo) >= limit:
                    memo.clear()
                memo[key] = value
            append(value)
        return outputs

    def fill_aligned(self, rows: Sequence[Sequence[str]]) -> List[Optional[str]]:
        """Mirror of :meth:`Program.fill_aligned` (the serving contract)."""
        return list(self.fill_iter(rows))

    def fill_iter(
        self, rows: Iterable[Sequence[str]], start: int = 1
    ) -> Iterator[Optional[str]]:
        """One aligned output per row, lazily -- the streaming driver.

        ``start`` offsets the 1-based row numbers in arity errors, so
        chunked callers report absolute input rows.
        """
        run = self._run
        expected = self.num_inputs
        memo = self._memo
        limit = self.MEMO_LIMIT
        miss = _MEMO_MISS
        for index, row in enumerate(rows, start=start):
            length = len(row)
            if length == 0:
                yield ""  # blank row: preserved without running
                continue
            if length != expected:
                raise ValueError(
                    f"fill row {index}: program expects {expected} inputs, "
                    f"got {length}"
                )
            key = tuple(row)
            try:
                value = memo.get(key, miss)
            except TypeError:  # unhashable cells: evaluate directly
                try:
                    yield run(key, {})
                except ValueError as error:
                    raise ValueError(f"fill row {index}: {error}") from None
                continue
            if value is miss:
                try:
                    value = run(key, {})
                except ValueError as error:
                    # Same wrapping as Program.fill_aligned: evaluation
                    # ValueErrors (plugin nodes) carry the 1-based row.
                    raise ValueError(f"fill row {index}: {error}") from None
                if len(memo) >= limit:
                    memo.clear()
                memo[key] = value
            yield value

    # -- re-binding ----------------------------------------------------
    def rebound(self, catalog: Optional[Catalog]) -> "CompiledProgram":
        """This plan re-bound to ``catalog`` (self when nothing moved).

        The PR-5 ``/fill`` re-resolution contract: identical fingerprint
        returns this very plan; required tables that merely grew
        recompile silently against the new snapshot; anything else --
        removed table, changed schema, rewritten rows -- raises
        :class:`StaleProgramError` naming exactly what changed.
        """
        if catalog is None:
            if self.catalog_fingerprint is None:
                return self
            raise StaleProgramError(
                self.program.source(), "<none>",
                ["serving catalog was removed"],
            )
        if self.catalog_fingerprint == catalog.fingerprint():
            return self
        changes = table_drift(self.tables, catalog)
        if changes:
            raise StaleProgramError(
                self.program.source(), "<compiled plan>", changes
            )
        return compile_program(self.program, catalog=catalog)

    def __repr__(self) -> str:  # pragma: no cover -- convenience only
        bound = (self.catalog_fingerprint or "unbound")[:12]
        return (
            f"CompiledProgram({self.language}: {self.program.source()} "
            f"@ {bound})"
        )


def compile_program(program: "Any", catalog: Optional[Catalog] = None) -> CompiledProgram:
    """Compile ``program`` against ``catalog`` (default: its own catalog).

    Raises :class:`PlanCompileError` when the program cannot be
    specialized -- unknown tables/columns, storage-backed catalogs,
    approximate matcher specs -- in which case callers run the
    interpreter instead (same results, per-row dispatch cost).
    """
    bound = catalog if catalog is not None else program.catalog
    if bound is not None:
        if getattr(bound, "storage_backed", False):
            raise PlanCompileError(
                "storage-backed catalogs serve through their backend; "
                "fills stay interpreted"
            )
        if tuple(getattr(bound, "matcher_spec", ("exact",))) != ("exact",):
            # Compiled lookups fuse exact postings-intersection; an
            # approximate matcher spec changes lookup semantics, and the
            # plan cache keys on the catalog fingerprint, which matcher
            # clones *share* -- so refuse rather than risk serving an
            # exact-fused plan for a matched fill.
            raise PlanCompileError(
                "approximate matcher specs serve through the interpreter; "
                "fills stay interpreted"
            )
    try:
        kind, item = _compile_expr(program.expr, bound)
    except PlanCompileError:
        raise
    except Exception as error:  # noqa: BLE001 -- any failure means "interpret"
        raise PlanCompileError(f"cannot compile {program.source()}: {error}") from error
    tables: Dict[str, Any] = {}
    for table_name in program.required_tables():
        if bound is None or table_name not in bound:
            raise PlanCompileError(
                f"required table {table_name!r} is missing from the catalog"
            )
        table = bound.table(table_name)
        tables[table_name] = {
            "columns": list(table.columns),
            "num_rows": table.num_rows,
            "data_fingerprint": table.data_fingerprint(),
        }
    return CompiledProgram(program, bound, _as_fn(kind, item), tables)
