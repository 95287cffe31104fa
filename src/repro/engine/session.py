"""The interactive synthesis session (paper §3.2).

A session fixes a catalog and a language, accepts examples one at a time
(maintaining the version space incrementally, exactly the Synthesize loop
of §3.1), and exposes:

* :meth:`learn` -- the top-ranked program,
* :meth:`apply` -- run the learned program over the remaining rows,
* :meth:`highlight_ambiguous` -- the interaction model's "inputs whose
  output set contains at least two outputs" check, run over a sample of
  surviving consistent programs,
* :meth:`consistent_count` / :meth:`structure_size` -- the Figure 11
  metrics for the current version space.

.. deprecated:: 1.1
    For one-shot and batch workloads prefer the richer
    :class:`repro.api.Synthesizer`, which returns a structured
    :class:`~repro.api.result.SynthesisResult` (ranked candidates,
    metrics, timing).  ``SynthesisSession`` stays for example-at-a-time
    interaction and now dispatches through the same backend registry.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.api.registry import create_backend, resolve_backend_name
from repro.config import DEFAULT_CONFIG, SynthesisConfig
from repro.core.base import InputState
from repro.core.formalism import (
    Example,
    fold_structures,
    generate_structures,
    synthesize_incremental,
)
from repro.engine.program import Program
from repro.exceptions import (
    InconsistentExampleError,
    NoExamplesError,
    SynthesisError,
)
from repro.tables.background import background_catalog
from repro.tables.catalog import Catalog


class SynthesisSession:
    """Learn string transformations from examples against a catalog.

    Args:
        catalog: the user's spreadsheet tables (may be ``None`` for purely
            syntactic sessions).
        language: a registered backend name or alias: ``"semantic"``/``"Lu"``
            (default), ``"lookup"``/``"Lt"``, ``"syntactic"``/``"Ls"``, or
            any backend added via :func:`repro.api.register_backend`.
        background: names of §6 background tables to merge into the
            catalog (e.g. ``["Month", "DateOrd"]``), or ``"all"``.
        config: synthesis/ranking knobs.

    >>> session = SynthesisSession(catalog, background=["Month"])  # doctest: +SKIP
    >>> session.add_example(("6-3-2008",), "Jun 3rd, 2008")        # doctest: +SKIP
    >>> session.learn()(("9-24-2007",))                            # doctest: +SKIP
    'Sep 24th, 2007'
    """

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        language: str = "semantic",
        background: Union[None, str, Iterable[str]] = None,
        config: SynthesisConfig = DEFAULT_CONFIG,
    ) -> None:
        merged = Catalog(catalog.tables() if catalog is not None else [])
        if background is not None:
            names = None if background == "all" else list(background)
            merged = merged.merged_with(background_catalog(names))
        self.catalog = merged
        self.language_name = resolve_backend_name(language)
        self.config = config
        self._language = create_backend(self.language_name, self.catalog, config)
        self._adapter = self._language.adapter()
        self.examples: List[Example] = []
        self._structure = None

    # ------------------------------------------------------------------
    @property
    def num_inputs(self) -> Optional[int]:
        if not self.examples:
            return None
        return len(self.examples[0][0])

    def add_example(self, inputs: Sequence[str], output: str) -> None:
        """Fold one more input-output example into the version space."""
        state: InputState = tuple(inputs)
        if self.num_inputs is not None and len(state) != self.num_inputs:
            raise InconsistentExampleError(
                f"expected {self.num_inputs} inputs, got {len(state)}"
            )
        self._structure = synthesize_incremental(
            self._adapter, self._structure, (state, output)
        )
        self.examples.append((state, output))

    def add_examples(self, examples: Sequence[Tuple[Sequence[str], str]]) -> None:
        """Fold a batch of examples, intersecting smallest-structure-first.

        Equivalent to calling :meth:`add_example` for each pair -- the
        version space denotes the same program set -- but the per-example
        structures are generated up front and intersected smallest first
        with an early-empty bailout, which is how the batched
        :meth:`repro.api.Synthesizer.synthesize` loop runs (the product
        cost of each intersection is bounded by its operand sizes).  On
        failure the session is left unchanged.
        """
        pairs: List[Example] = [
            (tuple(inputs), output) for inputs, output in examples
        ]
        if not pairs:
            return
        arity = self.num_inputs if self.num_inputs is not None else len(pairs[0][0])
        for state, _ in pairs:
            if len(state) != arity:
                raise InconsistentExampleError(
                    f"expected {arity} inputs, got {len(state)}"
                )
        structures = generate_structures(self._adapter, pairs)
        if self._structure is not None:
            structures.append(self._structure)
        merged = fold_structures(
            self._adapter,
            structures,
            structure_size=self._language.structure_size,
        )
        self._structure = merged
        self.examples.extend(pairs)

    def reset(self) -> None:
        """Forget all examples (start a new task on the same catalog)."""
        self.examples = []
        self._structure = None

    # ------------------------------------------------------------------
    @property
    def structure(self):
        """The current version-space data structure (D_t/D_s/D_u).

        Raises:
            NoExamplesError: before the first :meth:`add_example` call.
        """
        if self._structure is None:
            raise NoExamplesError()
        return self._structure

    def _program_catalog(self) -> Optional[Catalog]:
        if getattr(self._language, "requires_catalog", True):
            return self.catalog
        return None

    def learn(self) -> Program:
        """The top-ranked program consistent with all examples so far."""
        expr = self._language.best_program(self.structure)
        if expr is None:
            raise SynthesisError("the version space is empty")
        return Program(
            expr, self._program_catalog(), self.language_name, self.num_inputs or 0
        )

    def consistent_programs(self, limit: int = 25) -> List[Program]:
        """A sample of consistent programs (top-ranked first, then others).

        For the semantic language this uses the real top-k extraction
        (§3.2's "top-k transformations can be shown"), topped up with
        enumerated programs; the other languages use best + enumeration.
        """
        catalog = self._program_catalog()
        seen: Set[str] = set()
        programs: List[Program] = []

        def push(expr) -> None:
            key = str(expr)
            if key in seen or len(programs) >= limit:
                return
            seen.add(key)
            programs.append(
                Program(expr, catalog, self.language_name, self.num_inputs or 0)
            )

        best = self._language.best_program(self.structure)
        if best is not None:
            push(best)
        # Cap the ranked block: adjacent ranks are often behavioural twins
        # (alternate position expressions), while the enumerated block
        # contributes structurally different programs (constants, other
        # lookups) that the ambiguity highlighter needs.
        if hasattr(self._language, "top_programs"):
            ranked = self._language.top_programs(self.structure, k=max(1, limit // 3))
            for _, expr in ranked:
                push(expr)
        for expr in self._language.enumerate_programs(self.structure, limit=limit * 4):
            if len(programs) >= limit:
                break
            push(expr)
        return programs

    # ------------------------------------------------------------------
    def apply(self, rows: Sequence[Sequence[str]]) -> List[Optional[str]]:
        """Run the top-ranked program over ``rows`` (the Apply button)."""
        return self.learn().fill(rows)

    def highlight_ambiguous(
        self, rows: Sequence[Sequence[str]], sample: int = 25
    ) -> List[Tuple[Tuple[str, ...], List[str]]]:
        """Inputs on which surviving programs disagree (§3.2).

        Runs a sample of consistent programs on every row and returns the
        rows with at least two distinct (defined) outputs, together with
        those outputs -- the rows the user should inspect first.
        """
        programs = self.consistent_programs(limit=sample)
        flagged: List[Tuple[Tuple[str, ...], List[str]]] = []
        for row in rows:
            state = tuple(row)
            outputs: List[str] = []
            seen: Set[str] = set()
            for program in programs:
                result = program.run(state)
                if result is not None and result not in seen:
                    seen.add(result)
                    outputs.append(result)
            if len(outputs) >= 2:
                flagged.append((state, outputs))
        return flagged

    def distinguishing_input(
        self, rows: Sequence[Sequence[str]], sample: int = 25
    ) -> Optional[Tuple[str, ...]]:
        """The first input on which consistent programs disagree, if any.

        The oracle-guided flavour of [11]: asking the user for the correct
        output on this input is the fastest way to shrink the space.
        """
        flagged = self.highlight_ambiguous(rows, sample=sample)
        if flagged:
            return flagged[0][0]
        return None

    # -- Figure 11 metrics ------------------------------------------------
    def consistent_count(self) -> int:
        """Number of consistent expressions (Figure 11(a))."""
        return self._language.count_expressions(self.structure)

    def structure_size(self) -> int:
        """Version-space data structure size (Figure 11(b))."""
        return self._language.structure_size(self.structure)


def synthesize(
    examples: Sequence[Tuple[Sequence[str], str]],
    catalog: Optional[Catalog] = None,
    language: str = "semantic",
    background: Union[None, str, Iterable[str]] = None,
    config: SynthesisConfig = DEFAULT_CONFIG,
) -> Program:
    """One-shot functional API: learn the top program from ``examples``.

    .. deprecated:: 1.1
        Thin wrapper over :meth:`repro.api.Synthesizer.synthesize`, kept
        for compatibility; the new call returns ranked candidates and
        metrics instead of a bare top-1 program.
    """
    from repro.api.engine import Synthesizer

    engine = Synthesizer(
        catalog=catalog, language=language, background=background, config=config
    )
    return engine.synthesize(examples, k=1).program
