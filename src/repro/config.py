"""Tunable parameters for the synthesis algorithms.

The paper fixes most of these implicitly (token set, depth bound k = number
of tables, the "stronger restriction" on relaxed reachability); we expose
them so the ablation benchmarks in ``benchmarks/bench_ablations.py`` can
toggle each design choice and measure its effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple


@dataclass(frozen=True)
class RankingWeights:
    """Cost-model weights implementing the partial orders of §4.4 and §5.4.

    Lower cost = preferred.  Every preference the paper states maps to one
    weight here:

    * fewer/shorter `Concatenate` pieces -> ``edge_base`` (per piece),
    * fewer constants -> constant atoms cost ``const_atom_base`` plus
      ``const_atom_per_char`` per character, so extracting or looking up a
      long string always beats hard-coding it, while short separators stay
      affordable; ``const_predicate`` makes constant lookup keys a last
      resort,
    * lookups over constants -> ``select_base`` + cheap node references,
    * smaller lookup depth -> ``select_base`` accumulates per nesting level,
    * distinct tables for joins -> ``self_join_penalty``,
    * regex positions generalize better than absolute ones -> ``cpos_entry``
      costs more than ``regex_entry``.
    """

    edge_base: float = 8.0
    const_atom_base: float = 10.0
    const_atom_per_char: float = 28.0
    ref_atom: float = 2.0
    substr_atom: float = 6.0
    cpos_entry: float = 5.0
    regex_entry: float = 1.0
    regex_token: float = 0.5
    var_expr: float = 1.0
    select_base: float = 12.0
    const_predicate: float = 30.0
    node_predicate: float = 2.0
    self_join_penalty: float = 20.0
    #: Extra cost of a predicate whose node binding was resolved by an
    #: *approximate* matcher (repro.matching), scaled by how unsure the
    #: match is: ``approx_predicate * (1 - confidence)``.  Exact bindings
    #: (confidence 1.0) add nothing, so default-config ranking is
    #: untouched; among approximate candidates, higher-confidence
    #: strategies rank first.
    approx_predicate: float = 50.0


@dataclass(frozen=True)
class SynthesisConfig:
    """Knobs for GenerateStr/Intersect in all three languages.

    Attributes:
        max_tokenseq_len: maximum number of tokens in a ``TokenSeq`` used in
            generated position expressions (paper examples all use 1).
        depth_bound: the paper's k; ``None`` means "number of tables in the
            catalog" (§4.3).
        max_reachable_nodes: safety valve on the node set size (the paper's
            t); reaching it stops the reachability loop early.
        min_overlap_len: minimum length of a proper-substring overlap that
            triggers relaxed reachability in ``GenerateStr'_t`` (§5.3).
        relaxed_reachability: when False, the semantic generator falls back
            to the exact-equality trigger of plain ``GenerateStr_t`` -- the
            ablation for §5.3's substring-based reachability.
        include_ref_atoms: include whole-string node references ``e_t`` as
            atomic expressions (the `f_s := e_t` production); disabling is
            an ablation only.
        matchers: the value-matching strategies ``Select`` lookups and the
            lookup generator use, in priority order
            (``repro.matching.build_pipeline``).  The default
            ``("exact",)`` is byte-identical to the hard-wired equality of
            every prior release: programs, ranks, scores and fills do not
            change (tests/test_matching_equivalence.py).  Adding
            ``"canonical"`` (case/whitespace/unicode-NFKC
            canonicalization), ``"fuzzy"`` (bounded edit distance +
            q-gram similarity over the existing substring-index grams) or
            ``"alias"`` (per-catalog synonym tables) surfaces approximate
            hits as *lower-confidence* candidates: exact matches always
            rank strictly first, and multiple equally-plausible
            approximate hits flow into ``result.ambiguous``.
        weights: the ranking cost model.

    Every field changes *what* is synthesized.  Each hot path (substring
    trigger, occurrence index, table indexes, worklist pruning, lazy
    cached intersection, compiled fill) has exactly one implementation;
    the committed goldens under ``tests/golden`` pin its outputs.
    """

    max_tokenseq_len: int = 1
    depth_bound: Optional[int] = None
    max_reachable_nodes: int = 2000
    min_overlap_len: int = 1
    relaxed_reachability: bool = True
    include_ref_atoms: bool = True
    matchers: Tuple[str, ...] = ("exact",)
    weights: RankingWeights = field(default_factory=RankingWeights)

    def __post_init__(self) -> None:
        # JSON round-trips (worker-pool wire form, request payloads) hand
        # back lists; normalize so signatures and equality stay stable.
        if not isinstance(self.matchers, tuple):
            object.__setattr__(self, "matchers", tuple(self.matchers))

    def with_weights(self, **kwargs) -> "SynthesisConfig":
        """A copy of this config with some ranking weights replaced."""
        return replace(self, weights=replace(self.weights, **kwargs))

    def with_matchers(self, *names: str) -> "SynthesisConfig":
        """A copy of this config using the given matcher strategies."""
        flat = []
        for name in names:
            flat.extend(part.strip() for part in name.split(",") if part.strip())
        return replace(self, matchers=tuple(flat) or ("exact",))

    def signature(self) -> str:
        """A stable, process-independent rendering of every knob.

        Equal configs produce equal signatures (field order is the class
        definition order, values are JSON), so the service request cache
        can key on it without hashing live objects.
        """
        from dataclasses import asdict
        import json

        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class PoolConfig:
    """Sizing and lifecycle knobs for the worker-process pool.

    Attributes:
        workers: number of worker processes; 0 disables the pool (all
            synthesis runs in-process, the pre-PR-7 behavior).
        max_queue: pending-request limit before ``submit`` raises
            :class:`repro.exceptions.PoolBusyError`; ``None`` removes the
            limit (used by ``run_batch``, which bounds fan-out itself).
        retries: how many times a job is retried on a freshly respawned
            worker after a crash before failing with ``WorkerCrashedError``.
        warmup: pre-attach the pool's initial catalogs on every worker at
            construction instead of on first request.
        engine_cache: per-worker LRU size of attached engines (one per
            catalog fingerprint).
        spool_keep: how many published snapshot directories the parent
            keeps in the shared spool before pruning the oldest.
        job_timeout: seconds a dispatcher waits for a worker's reply
            before declaring it wedged (killed + respawned); ``None``
            waits forever.
        start_method: multiprocessing start method (``"fork"``,
            ``"spawn"``, ``"forkserver"``); ``None`` picks ``fork`` where
            available (zero-copy catalog inheritance) and falls back to
            the platform default elsewhere.
    """

    workers: int = 0
    max_queue: Optional[int] = 64
    retries: int = 1
    warmup: bool = True
    engine_cache: int = 8
    spool_keep: int = 16
    job_timeout: Optional[float] = None
    start_method: Optional[str] = None


#: Largest ``k`` (number of ranked candidates) accepted from outside
#: input: the HTTP ``/learn`` body and ``repro learn --top``.  Extraction
#: time and memory grow with k, so a single request must not be able to
#: ask for an unbounded number of candidates.
MAX_K = 100

DEFAULT_CONFIG = SynthesisConfig()
DEFAULT_POOL_CONFIG = PoolConfig()
