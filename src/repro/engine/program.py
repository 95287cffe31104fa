"""A learned transformation wrapped for end-user consumption."""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.base import Expression, InputState
from repro.exceptions import SerializationError
from repro.tables.catalog import Catalog

#: ``format`` tag stamped into serialized program payloads.
PROGRAM_FORMAT = "repro/program"

#: Cache sentinel: compilation failed for this catalog state -- serve the
#: interpreter without retrying on every fill.
_COMPILE_FAILED = object()


def _language_uses_catalog(language: str) -> bool:
    """Whether programs of this backend evaluate against a catalog.

    Asks the registry (so plugin backends round-trip correctly); an
    unregistered language defaults to catalog-backed, the safe choice.
    """
    from repro.api.registry import backend_class
    from repro.exceptions import UnknownBackendError

    try:
        return bool(getattr(backend_class(language), "requires_catalog", True))
    except UnknownBackendError:
        return True


class Program:
    """A concrete transformation: callable, printable, explainable.

    >>> program(("c2 c5 c6",))        # doctest: +SKIP
    'Google IBM Xerox'
    """

    def __init__(
        self,
        expr: Expression,
        catalog: Optional[Catalog],
        language: str,
        num_inputs: int,
    ) -> None:
        self.expr = expr
        self.catalog = catalog
        self.language = language
        self.num_inputs = num_inputs
        # (catalog fingerprint, CompiledProgram | _COMPILE_FAILED).
        self._compiled: Optional[Tuple[Optional[str], Any]] = None
        self._digest: Optional[str] = None

    # ------------------------------------------------------------------
    def run(self, inputs: Union[InputState, Sequence[str]]) -> Optional[str]:
        """Evaluate on one row of inputs; ``None`` when undefined (⊥)."""
        state = tuple(inputs)
        if len(state) != self.num_inputs:
            raise ValueError(
                f"program expects {self.num_inputs} inputs, got {len(state)}"
            )
        return self.expr.evaluate(state, self.catalog)

    __call__ = run

    def fill(self, rows: Sequence[Sequence[str]]) -> List[Optional[str]]:
        """Run on many rows (the add-in's 'Apply' button over a column).

        Served from the compiled execution plan when the program compiles
        (byte-identical outputs; see ``repro.engine.compile``), else by
        :meth:`fill_interpreted`.
        """
        plan = self._compiled_or_none()
        if plan is not None:
            return plan.fill(rows)
        return self.fill_interpreted(rows)

    def fill_interpreted(self, rows: Sequence[Sequence[str]]) -> List[Optional[str]]:
        """:meth:`fill` on the per-row AST interpreter (the reference
        semantics, and the fallback when a plan cannot compile)."""
        return [self.run(row) for row in rows]

    def fill_aligned(self, rows: Sequence[Sequence[str]]) -> List[Optional[str]]:
        """The serving-surface fill rule, shared by the CLI and the service.

        One output per input row: blank rows (zero cells) are preserved
        as empty-string outputs without running the program (so outputs
        align 1:1 with the caller's rows), undefined outputs (⊥) stay
        ``None``, and an arity mismatch raises ``ValueError`` prefixed
        with the 1-based row number (``fill row N: ...``).

        Routed through the compiled plan exactly like :meth:`fill`, else
        through :meth:`fill_aligned_interpreted`.
        """
        plan = self._compiled_or_none()
        if plan is not None:
            return plan.fill_aligned(rows)
        return self.fill_aligned_interpreted(rows)

    def fill_aligned_interpreted(
        self, rows: Sequence[Sequence[str]]
    ) -> List[Optional[str]]:
        """:meth:`fill_aligned` on the AST interpreter."""
        return list(self.fill_iter_interpreted(rows))

    def fill_iter(
        self, rows: Iterable[Sequence[str]], start: int = 1
    ) -> Iterator[Optional[str]]:
        """Lazily yield :meth:`fill_aligned` outputs row by row.

        The streaming fill driver: pulls one input row at a time and
        yields one output, so a million-row fill never materializes the
        row list.  ``start`` offsets the 1-based row numbers in arity
        errors for chunked callers.
        """
        plan = self._compiled_or_none()
        if plan is not None:
            return plan.fill_iter(rows, start=start)
        return self.fill_iter_interpreted(rows, start=start)

    def fill_iter_interpreted(
        self, rows: Iterable[Sequence[str]], start: int = 1
    ) -> Iterator[Optional[str]]:
        """:meth:`fill_iter` on the AST interpreter."""
        for index, row in enumerate(rows, start=start):
            cells = tuple(row)
            if not cells:
                yield ""
                continue
            try:
                yield self.run(cells)
            except ValueError as error:
                raise ValueError(f"fill row {index}: {error}") from None

    # -- compilation -----------------------------------------------------
    def compile(self, catalog: Optional[Catalog] = None):
        """Specialize into a :class:`~repro.engine.compile.CompiledProgram`.

        Raises :class:`~repro.engine.compile.PlanCompileError` when the
        program cannot be compiled (plugin expression types,
        storage-backed catalogs, missing tables); the fill methods catch
        that case internally and stay on the interpreter.
        """
        from repro.engine.compile import compile_program

        return compile_program(self, catalog=catalog)

    def _compiled_or_none(self):
        """The cached compiled plan for the *current* catalog state, or
        ``None`` when compilation failed.

        Keyed by the catalog fingerprint, so a program whose (mutable)
        catalog grew re-compiles transparently -- the compiled path must
        see exactly the data the interpreter would.
        """
        fingerprint = (
            self.catalog.fingerprint() if self.catalog is not None else None
        )
        cached = self._compiled
        if cached is not None and cached[0] == fingerprint:
            plan = cached[1]
            return None if plan is _COMPILE_FAILED else plan
        from repro.engine.compile import PlanCompileError, compile_program

        try:
            plan = compile_program(self)
        except PlanCompileError:
            self._compiled = (fingerprint, _COMPILE_FAILED)
            return None
        self._compiled = (fingerprint, plan)
        return plan

    def digest(self) -> str:
        """SHA-256 of the canonical serialized payload (cached).

        Stable across processes for equal programs; the service keys its
        compiled-plan cache on ``(digest, catalog fingerprint)``.
        """
        if self._digest is None:
            payload = json.dumps(
                self.to_dict(),
                sort_keys=True,
                ensure_ascii=False,
                separators=(",", ":"),
            )
            self._digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return self._digest

    def is_consistent_with(
        self, examples: Sequence[Tuple[InputState, str]]
    ) -> bool:
        """Does this program reproduce every given example?"""
        return all(self.run(state) == output for state, output in examples)

    def required_tables(self) -> Tuple[str, ...]:
        """Names of catalog tables the expression looks up, sorted.

        Purely syntactic programs return ``()``; anything else needs these
        tables present in the serving catalog before :meth:`run` is safe.
        """
        from repro.lookup.extract import expression_tables

        return tuple(sorted(expression_tables(self.expr)))

    def missing_tables(self, catalog: Optional[Catalog]) -> Tuple[str, ...]:
        """Required tables absent from ``catalog`` (all of them if ``None``)."""
        required = self.required_tables()
        if not required:
            return ()
        if catalog is None:
            return required
        return tuple(name for name in required if name not in catalog)

    def required_columns(self) -> Tuple[Tuple[str, str], ...]:
        """``(table, column)`` pairs the expression reads, sorted."""
        from repro.lookup.extract import expression_columns

        return tuple(sorted(expression_columns(self.expr)))

    def missing_columns(self, catalog: Optional[Catalog]) -> Tuple[str, ...]:
        """``"Table.Column"`` names whose table is present but column gone.

        Tables absent entirely are :meth:`missing_tables`' business;
        this reports the subtler schema drift where the table survived
        but lost (or renamed) a column the program looks up.
        """
        if catalog is None:
            return ()
        missing = []
        for table_name, column in self.required_columns():
            if table_name not in catalog:
                continue
            if not catalog.table(table_name).has_column(column):
                missing.append(f"{table_name}.{column}")
        return tuple(missing)

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly payload for caching/serving (no catalog inside).

        The catalog is intentionally not embedded -- it is the serving
        environment's data; pass it back to :meth:`from_dict`.
        """
        from repro.api.serialize import SCHEMA_VERSION, expression_to_dict

        return {
            "format": PROGRAM_FORMAT,
            "version": SCHEMA_VERSION,
            "language": self.language,
            "num_inputs": self.num_inputs,
            "source": self.source(),
            "expr": expression_to_dict(self.expr),
        }

    @classmethod
    def from_dict(
        cls, data: Dict[str, Any], catalog: Optional[Catalog] = None
    ) -> "Program":
        """Rebuild a program serialized with :meth:`to_dict`.

        ``catalog`` supplies the lookup tables at apply time; it may be
        ``None`` for purely syntactic programs.
        """
        from repro.api.serialize import SCHEMA_VERSION, expression_from_dict

        if not isinstance(data, dict) or data.get("format") != PROGRAM_FORMAT:
            raise SerializationError(
                f"not a serialized program (expected format {PROGRAM_FORMAT!r})"
            )
        version = data.get("version")
        if version != SCHEMA_VERSION:
            raise SerializationError(
                f"unsupported program payload version {version!r} "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        try:
            language = str(data["language"])
            num_inputs = int(data["num_inputs"])
            expr = expression_from_dict(data["expr"])
        except (KeyError, TypeError, ValueError) as error:
            raise SerializationError(f"malformed program payload: {error}") from None
        return cls(expr, catalog if _language_uses_catalog(language) else None,
                   language, num_inputs)

    def to_json(self, **kwargs) -> str:
        """:meth:`to_dict` rendered as a JSON string."""
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str, catalog: Optional[Catalog] = None) -> "Program":
        """Inverse of :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SerializationError(f"invalid JSON: {error}") from None
        return cls.from_dict(data, catalog=catalog)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Natural-language paraphrase of the transformation (§3.2)."""
        from repro.engine.paraphrase import paraphrase

        return paraphrase(self.expr)

    def source(self) -> str:
        """The surface syntax of the expression."""
        return str(self.expr)

    def __str__(self) -> str:
        return self.source()

    def __repr__(self) -> str:
        return f"Program({self.language}: {self.source()})"
