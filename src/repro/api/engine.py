"""The synthesizer engine: pluggable backends, ranked results, batching.

:class:`Synthesizer` is the one-stop front end over the paper's machinery:

* construction resolves a language *backend* through the registry
  (:mod:`repro.api.registry`) instead of hard-coding the three languages,
* :meth:`Synthesizer.synthesize` runs §3.1's Synthesize over a task and
  returns a :class:`~repro.api.result.SynthesisResult` with ranked
  candidates, version-space metrics, timing and ambiguity flags,
* :meth:`Synthesizer.run_batch` fans many independent tasks out over a
  thread pool, preserving input order.

The interactive :class:`~repro.engine.session.SynthesisSession` remains
for example-at-a-time workflows; it now dispatches through the same
registry.
"""

from __future__ import annotations

import logging
import pickle
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.api.registry import LanguageBackend, create_backend, resolve_backend_name
from repro.api.result import (
    PROVENANCE_BEST,
    PROVENANCE_ENUMERATED,
    PROVENANCE_TOP_K,
    RankedProgram,
    SynthesisResult,
    SynthesisTask,
    as_task,
)
from repro.config import DEFAULT_CONFIG, RankingWeights, SynthesisConfig
from repro.core.base import Expression
from repro.core.exprs import Var
from repro.core.formalism import (
    _check_examples,
    fold_structures,
    generate_structures,
)
from repro.engine.program import Program
from repro.exceptions import NoExamplesError, NoProgramFoundError
from repro.lookup.ast import Select
from repro.lookup.extract import expression_confidence, expression_tables
from repro.matching import normalize_spec
from repro.syntactic.ast import Concatenate, ConstStr, SubStr
from repro.syntactic.positions import position_expr_cost
from repro.tables.background import background_catalog
from repro.tables.catalog import Catalog

TaskLike = Union[SynthesisTask, Sequence[Tuple[Sequence[str], str]]]

logger = logging.getLogger("repro.batch")


class BatchResult(List[Union[SynthesisResult, Exception]]):
    """``run_batch``'s return value: a plain list plus execution provenance.

    Compares/iterates exactly like the list of results it subclasses, so
    existing callers are unaffected; two extra attributes make executor
    behavior diagnosable instead of silent:

    * ``executor_used`` -- ``"sequential"``, ``"thread"`` or ``"process"``:
      the lane that actually produced the results.
    * ``fallback_reason`` -- ``None`` when the requested lane ran, else a
      human-readable reason the process lane was refused (unpicklable
      catalog vs. unpicklable tasks vs. storage-backed catalog vs. pool
      failure), mirrored to the ``repro.batch`` logger.
    """

    def __init__(
        self,
        results: Iterable[Union[SynthesisResult, Exception]] = (),
        executor_used: str = "sequential",
        fallback_reason: Optional[str] = None,
    ) -> None:
        super().__init__(results)
        self.executor_used = executor_used
        self.fallback_reason = fallback_reason


# -- shared cost model over concrete expressions -----------------------------
def _select_cost(expr: Select, weights: RankingWeights) -> float:
    total = weights.select_base
    for _, sub in expr.predicates:
        if isinstance(sub, ConstStr):
            total += weights.const_predicate
            continue
        if isinstance(sub, (Var, Select)):
            cost = weights.node_predicate + _source_cost(sub, weights)
        else:  # dag-valued predicate: a full syntactic expression
            cost = score_expression(sub, weights)
        if expr.table in expression_tables(sub):
            cost += weights.self_join_penalty
        total += cost
    if expr.match_provenance:
        # Approximately-bound predicates pay for their uncertainty --
        # the same surcharge the extractor applies -- so an exact
        # derivation of the same structure always scores strictly better.
        total += sum(
            weights.approx_predicate * (1.0 - confidence)
            for _column, _strategy, confidence in expr.match_provenance
        )
    return total


def _source_cost(expr: Expression, weights: RankingWeights) -> float:
    """Cost of an ``e_t`` source (input variable or lookup expression)."""
    if isinstance(expr, Var):
        return weights.var_expr
    if isinstance(expr, Select):
        return _select_cost(expr, weights)
    return score_expression(expr, weights)


def _atom_cost(expr: Expression, weights: RankingWeights) -> float:
    if isinstance(expr, ConstStr):
        return weights.const_atom_base + weights.const_atom_per_char * len(expr.text)
    if isinstance(expr, SubStr):
        return (
            weights.substr_atom
            + _source_cost(expr.source, weights)
            + position_expr_cost(expr.p1, weights)
            + position_expr_cost(expr.p2, weights)
        )
    return weights.ref_atom + _source_cost(expr, weights)


def score_expression(
    expr: Expression, weights: RankingWeights = DEFAULT_CONFIG.weights
) -> float:
    """Cost of a concrete expression under the §4.4/§5.4 ranking weights.

    Mirrors the compositional model the extractors use (lower = better),
    so candidates obtained by enumeration can be ranked on the same scale
    as the languages' own best-path extraction.
    """
    if isinstance(expr, Concatenate):
        return sum(weights.edge_base + _atom_cost(part, weights) for part in expr.parts)
    return weights.edge_base + _atom_cost(expr, weights)


# -- the engine ---------------------------------------------------------------
class Synthesizer:
    """Learn string transformations against a fixed catalog and backend.

    Args:
        catalog: the user's spreadsheet tables (``None`` for purely
            syntactic work).
        language: a registered backend name or alias -- ``"semantic"``/
            ``"Lu"`` (default), ``"lookup"``/``"Lt"``, ``"syntactic"``/
            ``"Ls"``, or anything added via
            :func:`repro.api.registry.register_backend`.
        background: §6 background table names to merge (or ``"all"``).
        config: synthesis/ranking knobs.

    >>> engine = Synthesizer(catalog)                                # doctest: +SKIP
    >>> result = engine.synthesize([(("c4",), "Facebook")])          # doctest: +SKIP
    >>> result.program(("c2",)), result.ambiguous                    # doctest: +SKIP
    ('Google', True)
    """

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        language: str = "semantic",
        background: Union[None, str, Iterable[str]] = None,
        config: SynthesisConfig = DEFAULT_CONFIG,
    ) -> None:
        self.language = resolve_backend_name(language)
        if catalog is not None and catalog.storage_backed and background is not None:
            # The background merge needs an in-memory union: lift the
            # snapshot into plain resident structures first.
            catalog = catalog.materialize()
        if catalog is not None and catalog.frozen and background is None:
            # A frozen snapshot is immutable, so the engine can serve it
            # directly -- no defensive copy, and (crucially for the
            # registry's copy-on-write updates) its incrementally
            # maintained indexes are reused instead of rebuilt.
            self.catalog = catalog
        else:
            merged = Catalog(catalog.tables() if catalog is not None else [])
            if background is not None:
                names = None if background == "all" else list(background)
                merged = merged.merged_with(background_catalog(names))
            self.catalog = merged
        # Stamp the matcher spec onto the serving catalog.  The default
        # exact spec is already every catalog's default, so this is a
        # no-op on the default path; a non-default spec derives an O(1)
        # frozen clone sharing all indexes (storage-backed catalogs
        # materialize first -- the secondary matcher indexes are in-memory
        # structures).
        spec = normalize_spec(config.matchers)
        if tuple(getattr(self.catalog, "matcher_spec", ("exact",))) != spec:
            self.catalog = self.catalog.with_matchers(spec)
        self.config = config
        self._catalog_picklable: Optional[bool] = None
        self._batch_pool = None  # persistent WorkerPool, built on demand
        self._backend: LanguageBackend = create_backend(
            self.language, self.catalog, config
        )

    # ------------------------------------------------------------------
    @property
    def backend(self) -> LanguageBackend:
        """The resolved language backend (adapter + ranking + measures)."""
        return self._backend

    def _program_catalog(self) -> Optional[Catalog]:
        if getattr(self._backend, "requires_catalog", True):
            return self.catalog
        return None

    def _wrap(self, expr: Expression, num_inputs: int) -> Program:
        return Program(expr, self._program_catalog(), self.language, num_inputs)

    # ------------------------------------------------------------------
    def synthesize(self, task: TaskLike, k: int = 5) -> SynthesisResult:
        """Solve one task: ranked programs + metrics + timing.

        Args:
            task: a :class:`SynthesisTask` or raw ``(inputs, output)`` pairs.
            k: how many ranked candidates to return (at least 1).

        Raises:
            NoExamplesError: the task has no examples.
            NoProgramFoundError: no expression fits all examples.
            InconsistentExampleError: malformed examples (mixed arity...).
        """
        task = as_task(task)
        if not task.examples:
            raise NoExamplesError()
        _check_examples(task.examples)
        started = time.perf_counter()
        adapter = self._backend.adapter()
        # Generate every example's structure up front (any inconsistent
        # example fails before intersection work is spent), then intersect
        # smallest-structure-first: each product is bounded by its operand
        # sizes, so folding the small structures early keeps the running
        # structure small for the expensive steps.
        structures = generate_structures(adapter, task.examples)
        generated = time.perf_counter()
        structure = fold_structures(
            adapter, structures, structure_size=self._backend.structure_size
        )
        intersected = time.perf_counter()
        candidates = self._ranked_candidates(structure, task.num_inputs, max(1, k))
        if not candidates:
            raise NoProgramFoundError(
                f"{adapter.name}: the version space is empty"
            )
        consistent_count = self._backend.count_expressions(structure)
        structure_size = self._backend.structure_size(structure)
        finished = time.perf_counter()
        return SynthesisResult(
            task=task,
            language=self.language,
            programs=tuple(candidates),
            consistent_count=consistent_count,
            structure_size=structure_size,
            elapsed_seconds=finished - started,
            phase_seconds={
                "generate": generated - started,
                "intersect": intersected - generated,
                "rank": finished - intersected,
            },
        )

    def _ranked_candidates(
        self, structure, num_inputs: int, k: int
    ) -> List[RankedProgram]:
        """Best program first, then up to ``k - 1`` runners-up by cost.

        Under an approximate matcher spec, an exact derivation of a given
        structure always outranks the approximate derivation of the same
        structure: approximately-bound predicates carry the
        ``approx_predicate`` cost surcharge both in extraction and in
        :func:`score_expression`, and the extractor never binds
        approximately when the exact node exists.
        """
        weights = self.config.weights
        seen = set()
        ordered: List[Tuple[float, str, Expression, str, float]] = []

        def push(score: float, expr: Expression, provenance: str) -> None:
            key = str(expr)
            if key in seen:
                return
            seen.add(key)
            ordered.append((score, key, expr, provenance, expression_confidence(expr)))

        best = self._backend.best_program(structure)
        if best is None:
            return []
        push(score_expression(best, weights), best, PROVENANCE_BEST)
        if hasattr(self._backend, "top_programs"):
            for score, expr in self._backend.top_programs(structure, k=k):
                push(score, expr, PROVENANCE_TOP_K)
        if len(ordered) < k:
            for expr in self._backend.enumerate_programs(structure, limit=k * 4):
                if len(ordered) >= k * 2:
                    break
                push(score_expression(expr, weights), expr, PROVENANCE_ENUMERATED)
        head, tail = ordered[0], sorted(ordered[1:], key=lambda item: item[:2])
        ranked = [head] + tail[: k - 1]
        return [
            RankedProgram(
                rank=rank,
                score=score,
                program=self._wrap(expr, num_inputs),
                provenance=provenance,
                confidence=confidence,
            )
            for rank, (score, _, expr, provenance, confidence) in enumerate(
                ranked, start=1
            )
        ]

    # ------------------------------------------------------------------
    def run_batch(
        self,
        tasks: Sequence[TaskLike],
        workers: Optional[int] = None,
        k: int = 5,
        return_errors: bool = False,
        executor: str = "thread",
    ) -> BatchResult:
        """Solve many independent tasks, preserving input order.

        Args:
            workers: pool size; ``None`` or ``<= 1`` runs sequentially.
            k: ranked candidates per task.
            return_errors: when true, a failing task yields its exception
                in its slot instead of aborting the whole batch.
            executor: ``"thread"`` (default) shares the backend across a
                thread pool -- safe because catalog and config are
                immutable, but GIL-bound for this pure-Python workload.
                ``"process"`` fans out over a persistent
                :class:`repro.service.pool.WorkerPool`: workers attach the
                catalog once per fingerprint (fork-inherited or loaded
                from the shared snapshot spool -- never pickled per
                worker), each task ships only its examples, and results
                return as catalog-free program payloads rebuilt against
                this engine's catalog -- so results are identical to and
                ordered like the sequential run.  The pool persists on the
                engine across calls, so repeat batches pay no setup.
                Falls back to threads when the catalog or tasks cannot
                cross a process boundary; ``fallback_reason`` on the
                returned :class:`BatchResult` says why.
        """
        if executor not in ("thread", "process"):
            raise ValueError(f"executor must be 'thread' or 'process', got {executor!r}")
        normalized = [as_task(task) for task in tasks]

        def solve(task: SynthesisTask) -> Union[SynthesisResult, Exception]:
            try:
                return self.synthesize(task, k=k)
            except Exception as error:  # noqa: BLE001 -- relayed to caller
                if return_errors:
                    return error
                raise

        if workers is None or workers <= 1:
            return BatchResult(
                [solve(task) for task in normalized], "sequential"
            )
        reason: Optional[str] = None
        if executor == "process":
            reason = self._pickle_fallback_reason(normalized)
            if reason is None:
                outcome = self._run_batch_pool(normalized, workers, k, return_errors)
                if not isinstance(outcome, str):
                    return BatchResult(outcome, "process")
                reason = outcome
            logger.warning(
                "run_batch(executor='process') fell back to threads: %s", reason
            )
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return BatchResult(list(pool.map(solve, normalized)), "thread", reason)

    # -- the process-pool path -------------------------------------------
    def _pickle_fallback_reason(
        self, tasks: Sequence[SynthesisTask]
    ) -> Optional[str]:
        """Why this batch cannot cross a process boundary (``None`` = it can).

        Workers never unpickle the catalog (they fork-inherit or attach a
        snapshot), but the probe is kept deliberately conservative: a
        catalog that cannot even be pickled is a catalog carrying live
        handles (locks, sockets, open files) that would not survive the
        snapshot spool under a spawn start method either.  The catalog
        probe is computed once per engine and cached -- repeated
        ``run_batch`` calls only re-probe the (small, string-only) tasks.
        """
        if self.catalog.storage_backed:
            return (
                "catalog is storage-backed (live database handles cannot "
                "cross the worker-pool boundary)"
            )
        if self._catalog_picklable is None:
            try:
                pickle.dumps((self.catalog, self.language, self.config))
                self._catalog_picklable = True
            except Exception:  # noqa: BLE001 -- any failure means "use threads"
                self._catalog_picklable = False
        if not self._catalog_picklable:
            return "catalog is not picklable"
        try:
            pickle.dumps(tasks)
        except Exception:  # noqa: BLE001 -- any failure means "use threads"
            return "tasks are not picklable"
        return None

    def _batch_is_picklable(self, tasks: Sequence[SynthesisTask]) -> bool:
        """Can the catalog/config/tasks cross a process boundary?"""
        return self._pickle_fallback_reason(tasks) is None

    def _ensure_batch_pool(self, workers: int):
        """The engine's persistent worker pool, (re)built at ``workers`` size."""
        from repro.config import PoolConfig
        from repro.service.pool import WorkerPool

        pool = self._batch_pool
        if pool is not None and (pool.closed or pool.size != workers):
            pool.close(drain=False)
            pool = self._batch_pool = None
        if pool is None:
            pool = WorkerPool(
                workers,
                language=self.language,
                config=self.config,
                pool=PoolConfig(max_queue=None),
                catalogs=[self.catalog],
            )
            self._batch_pool = pool
        return pool

    def close(self) -> None:
        """Release the engine's worker pool (if one was ever created)."""
        if self._batch_pool is not None:
            self._batch_pool.close(drain=False)
            self._batch_pool = None

    def _run_batch_pool(
        self,
        tasks: Sequence[SynthesisTask],
        workers: int,
        k: int,
        return_errors: bool,
    ) -> Union[List[Union[SynthesisResult, Exception]], str]:
        """Fan the batch over the shared-snapshot pool; a ``str`` = fall back.

        Pool-level failures (the pool cannot start, a worker cannot attach
        the catalog, a worker crashed out of retries) are environment
        problems, not task errors: the whole batch is refused with a
        reason string and the caller re-runs it on threads, preserving the
        identical-to-sequential guarantee.  Per-task synthesis errors keep
        their slot semantics (``return_errors``) exactly like sequential.
        """
        from repro.exceptions import WorkerPoolError

        try:
            pool = self._ensure_batch_pool(workers)
        except Exception as error:  # noqa: BLE001 -- environment problem
            return f"worker pool unavailable: {error}"
        try:
            futures = [pool.submit(self.catalog, task, k=k) for task in tasks]
        except WorkerPoolError as error:
            return f"worker pool refused the batch: {error}"
        results: List[Union[SynthesisResult, Exception]] = []
        abort: Optional[Exception] = None
        for future in futures:
            try:
                payload = future.result()
            except WorkerPoolError as error:
                return f"worker pool failed mid-batch: {error}"
            except Exception as error:  # noqa: BLE001 -- a task error
                if return_errors:
                    results.append(error)
                    continue
                if abort is None:
                    abort = error  # keep draining so the pool stays clean
                continue
            results.append(self._result_from_payload(payload))
        if abort is not None:
            raise abort
        return results

    def result_from_payload(self, payload: Dict[str, Any]) -> SynthesisResult:
        """Rebuild a worker's catalog-free result against this catalog.

        Public counterpart of the wire form produced by
        :func:`result_to_payload`; the service layer uses it to graft
        pool-computed results onto the parent's live catalog.
        """
        return self._result_from_payload(payload)

    def _result_from_payload(self, payload: Dict[str, Any]) -> SynthesisResult:
        """Rebuild a worker's catalog-free result against this catalog."""
        programs = tuple(
            RankedProgram(
                rank=rank,
                score=score,
                program=Program.from_dict(data, catalog=self.catalog),
                provenance=provenance,
                confidence=confidence,
            )
            for rank, score, provenance, confidence, data in payload["programs"]
        )
        return SynthesisResult(
            task=payload["task"],
            language=payload["language"],
            programs=programs,
            consistent_count=payload["consistent_count"],
            structure_size=payload["structure_size"],
            elapsed_seconds=payload["elapsed_seconds"],
            phase_seconds=payload["phase_seconds"],
        )


# -- worker wire form (module level: importable from pool workers) ------------
def _result_to_payload(result: SynthesisResult) -> Dict[str, Any]:
    """A catalog-free wire form of a result (programs via ``to_dict``)."""
    return {
        "task": result.task,
        "language": result.language,
        "programs": [
            (c.rank, c.score, c.provenance, c.confidence, c.program.to_dict())
            for c in result.programs
        ],
        "consistent_count": result.consistent_count,
        "structure_size": result.structure_size,
        "elapsed_seconds": result.elapsed_seconds,
        "phase_seconds": result.phase_seconds,
    }


result_to_payload = _result_to_payload
