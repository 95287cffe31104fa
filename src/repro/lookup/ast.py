"""Concrete AST of the lookup language Lt (paper §4.1).

    e_t := v_i | Select(C, T, b)
    b   := p_1 ∧ ... ∧ p_n        (over the columns of a candidate key)
    p   := C = s | C = e

``Select(C, T, b)`` returns ``T[C, r]`` for the unique row ``r`` satisfying
``b`` and the empty string when no such row exists.  A ⊥ result in a
predicate sub-expression behaves like "no row matches" (returns ε), which
keeps Select total as in the paper.

Constants are represented with :class:`~repro.syntactic.ast.ConstStr` so
predicates uniformly hold expressions; the input variable is the shared
:class:`~repro.core.exprs.Var`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence, Tuple

from repro.core.base import EvalResult, Expression, InputState

if TYPE_CHECKING:  # pragma: no cover
    from repro.tables.catalog import Catalog

PredicatePair = Tuple[str, Expression]


class Select(Expression):
    """``Select(column, table, [(key_column, expr), ...])``.

    ``match_provenance`` records, for predicates whose chosen key
    expression was bound by an *approximate* matcher during synthesis, a
    ``(key_column, strategy, confidence)`` triple each.  It is ``None``
    for fully exact selects -- the only kind the default matcher spec
    produces -- so default-path structure, keys and rendering are
    byte-identical to prior releases.
    """

    __slots__ = ("column", "table", "predicates", "match_provenance")

    def __init__(
        self,
        column: str,
        table: str,
        predicates: Sequence[PredicatePair],
        match_provenance: "Sequence[Tuple[str, str, float]] | None" = None,
    ) -> None:
        if not predicates:
            raise ValueError("Select requires at least one predicate")
        self.column = column
        self.table = table
        self.predicates: Tuple[PredicatePair, ...] = tuple(
            (key_column, expr) for key_column, expr in predicates
        )
        self.match_provenance = (
            tuple(match_provenance) if match_provenance else None
        )

    def evaluate(self, state: InputState, catalog: "Catalog | None" = None) -> EvalResult:
        if catalog is None:
            raise ValueError("Select evaluation requires a catalog")
        table = catalog.table(self.table)
        conditions = {}
        for key_column, expr in self.predicates:
            value = expr.evaluate(state, catalog)
            if value is None:
                return ""  # an undefined key behaves like "no row matches"
            conditions[key_column] = value
        # Boolean-attribute gate (not a method call or tuple compare):
        # evaluate is the per-row hot path and the exact spec must stay
        # overhead-free.
        if not catalog.matchers_active:
            return table.lookup(self.column, conditions)
        pipeline = catalog.matcher_pipeline()
        text, _confidence, _strategy = table.lookup_matched(
            self.column, conditions, pipeline, catalog.alias_groups()
        )
        return text

    def _key(self) -> tuple:
        return (self.column, self.table, self.predicates)

    def size(self) -> int:
        return 1 + sum(expr.size() for _, expr in self.predicates)

    def depth(self) -> int:
        return 1 + max(expr.depth() for _, expr in self.predicates)

    def tables_used(self) -> set:
        """All table names used by this select and its sub-expressions."""
        used = {self.table}
        for _, expr in self.predicates:
            if isinstance(expr, Select):
                used |= expr.tables_used()
        return used

    def match_confidence(self) -> float:
        """Min matcher confidence over this select and its sub-selects.

        1.0 for fully exact lookups (the default spec's only output).
        """
        confidence = 1.0
        if self.match_provenance:
            confidence = min(c for _column, _strategy, c in self.match_provenance)
        for _key_column, expr in self.predicates:
            if isinstance(expr, Select):
                confidence = min(confidence, expr.match_confidence())
        return confidence

    def __str__(self) -> str:
        condition = " ∧ ".join(
            f"{key_column} = {expr}" for key_column, expr in self.predicates
        )
        if self.match_provenance:
            tags = ", ".join(
                f"{column}~{strategy}:{confidence:.2f}"
                for column, strategy, confidence in self.match_provenance
            )
            return f"Select({self.column}, {self.table}, {condition} ≈[{tags}])"
        return f"Select({self.column}, {self.table}, {condition})"
