"""The thread-safe synthesis service: registry + request cache + store.

:class:`SynthesisService` is the facade a long-running server (or any
embedding application) talks to instead of a bare
:class:`~repro.api.engine.Synthesizer`:

* **Catalog registry.**  The service serves *named* catalogs through a
  :class:`~repro.service.registry.CatalogRegistry`: every request names
  a catalog (default ``"default"``), catalogs are frozen snapshots
  updated copy-on-write at runtime, and the service keeps one engine
  per catalog, rebuilt (cheaply -- snapshots share incrementally
  maintained indexes) when the snapshot moves on.  A request holds one
  snapshot end to end, so it sees either the old or the new catalog,
  never a torn mix.
* **Request cache.**  ``learn`` requests are memoized in an LRU keyed by
  ``(catalog fingerprint, config signature, language, examples
  signature, k)`` -- all stable content digests, so a repeated request
  is served without re-synthesis and two services over equal catalogs
  agree on keys.  Because the fingerprint is part of the key, a catalog
  update can never serve a stale entry.  Hit/miss/eviction stats follow
  the discipline of the engine's memo stats.
* **Program store.**  Learned programs can be persisted by name through
  an attached :class:`~repro.service.store.ProgramStore` and served
  later by ``name`` / ``name@version`` reference.  Artifacts record the
  catalog name + fingerprint (plus per-required-table data digests)
  they were learned against; ``fill`` re-resolves silently when the
  catalog merely grew, and refuses with a
  :class:`~repro.exceptions.StaleProgramError` listing exactly what
  changed when a required table was removed, re-schema'd or rewritten.
* **Serving rules.**  ``fill`` preserves blank rows as empty outputs
  (so outputs align 1:1 with input rows -- the CSV/CLI rule), reports
  arity mismatches as clean per-row errors, and refuses up front (with
  the offending names) to run a program whose lookup tables or columns
  are missing from the serving catalog.

Everything here is safe for concurrent use: the cache and registry take
locks, catalogs are immutable snapshots, and results are immutable once
cached -- so a cache hit returns the *same* result object,
byte-identical to the cold call.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.api.engine import Synthesizer, TaskLike
from repro.api.result import SynthesisResult, as_task
from repro.config import DEFAULT_CONFIG, SynthesisConfig
from repro.matching import matching_stats, normalize_spec
from repro.engine.program import Program
from repro.exceptions import (
    EmptyCatalogError,
    MissingColumnsError,
    MissingTablesError,
    PoolBusyError,
    ProgramStoreError,
    SerializationError,
    ServiceError,
    StaleProgramError,
    WorkerCrashedError,
    WorkerPoolError,
)
from repro.service.registry import DEFAULT_CATALOG, CatalogRegistry
from repro.service.revalidate import Revalidator, WebhookNotifier
from repro.service.store import ProgramStore, StoredProgram, parse_program_ref
from repro.tables.background import background_catalog
from repro.tables.catalog import Catalog

#: Cache-status tags returned by :meth:`SynthesisService.learn`.
CACHE_HIT = "hit"
CACHE_MISS = "miss"

RowsLike = Sequence[Sequence[str]]
ProgramLike = Union[Program, Dict[str, Any], str]

#: Plan-cache sentinel: this (program, catalog) pair does not compile;
#: serve the interpreter without re-attempting on every request.
_UNCOMPILED = object()


@dataclass(frozen=True)
class LearnReply:
    """Everything one learn request produced.

    Unpacks as ``(result, cache_status)`` for the common case (like
    :class:`~repro.api.result.RankedProgram`'s tuple-style unpacking);
    ``stored`` carries the exact :class:`StoredProgram` this request
    saved (or deduped onto) when ``save_as`` was given.  ``catalog_name``
    and ``catalog_fingerprint`` identify the exact snapshot the request
    ran against -- under concurrent registry updates this is the
    consistency witness (old or new, never torn).
    """

    result: SynthesisResult
    cache_status: str
    stored: Optional[StoredProgram] = None
    catalog_name: Optional[str] = None
    catalog_fingerprint: Optional[str] = None

    def __iter__(self) -> Iterator:
        yield self.result
        yield self.cache_status


class RequestCache:
    """A locked LRU over learn requests, with PR-3-style stats."""

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError(f"cache limit must be >= 1, got {limit}")
        self.limit = limit
        self._entries: "OrderedDict[Tuple, SynthesisResult]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Tuple, record: bool = True) -> Optional[SynthesisResult]:
        """Look up ``key``; ``record=False`` skips the hit/miss counters
        (for internal re-checks so each request counts exactly once)."""
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                if record:
                    self._misses += 1
                return None
            self._entries.move_to_end(key)
            if record:
                self._hits += 1
            return result

    def record(self, hit: bool) -> None:
        """Count one request outcome (pairs with ``get(record=False)``)."""
        with self._lock:
            if hit:
                self._hits += 1
            else:
                self._misses += 1

    def put(self, key: Tuple, result: SynthesisResult) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = result
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            total = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "entries": len(self._entries),
                "limit": self.limit,
                "hit_rate": self._hits / total if total else 0.0,
            }


class FillSession:
    """One resolved program, serving row chunks of a single logical fill.

    Built by :meth:`SynthesisService.fill_session`; the streaming
    transports decode rows incrementally and push each decoded chunk
    through :meth:`fill_chunk`, threading ``start`` so the ``fill row
    N`` error numbering stays global across chunks.  Holds the resolved
    program and its compiled plan (or ``None`` for the interpreter), so
    per-chunk cost is pure row execution.
    """

    __slots__ = ("_service", "program", "plan")

    def __init__(self, service: "SynthesisService", program: Program, plan) -> None:
        self._service = service
        self.program = program
        self.plan = plan

    def fill_chunk(
        self, rows: Sequence[Sequence[str]], start: int = 1
    ) -> List[Optional[str]]:
        """Outputs for one chunk; ``start`` is its first global row number."""
        if self.plan is not None:
            outputs = self.plan.fill_iter(rows, start=start)
        else:
            outputs = self.program.fill_iter_interpreted(rows, start=start)
        try:
            results = list(outputs)
        except ValueError as error:
            raise ServiceError(str(error)) from None
        with self._service._counter_lock:
            self._service._rows_filled += len(results)
        return results


class SynthesisService:
    """Learn-and-serve facade over named catalogs, one backend and config.

    Args:
        catalog: the default serving catalog (registered under
            ``default_catalog``; frozen by registration -- grow it
            through the registry, not in place).
        language: registered backend name or alias (as ``Synthesizer``).
        background: §6 background table names to merge into the default
            catalog (or ``"all"``).
        config: synthesis/ranking knobs.
        store: optional :class:`ProgramStore` for named persistence.
        cache_size: LRU capacity of the learn request cache.
        registry: a :class:`CatalogRegistry` to serve from (one is
            created when omitted); pass a root-backed registry for lazy
            CSV loading (``repro serve --catalog-root``).
        default_catalog: the catalog name used by requests that do not
            pick one.
    """

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        language: str = "semantic",
        background: Union[None, str, Iterable[str]] = None,
        config: SynthesisConfig = DEFAULT_CONFIG,
        store: Optional[ProgramStore] = None,
        cache_size: int = 256,
        registry: Optional[CatalogRegistry] = None,
        default_catalog: str = DEFAULT_CATALOG,
    ) -> None:
        self.registry = registry if registry is not None else CatalogRegistry()
        self.default_catalog = CatalogRegistry.check_name(default_catalog)
        if catalog is not None or background is not None:
            merged = catalog if catalog is not None else Catalog([])
            if background is not None:
                names = None if background == "all" else list(background)
                merged = merged.merged_with(background_catalog(names))
            self.registry.register(self.default_catalog, merged)
        elif self.default_catalog not in self.registry:
            # No default data anywhere (constructor or registry root):
            # an empty catalog keeps `service.engine` well-defined.
            self.registry.register(self.default_catalog, Catalog([]))
        self.language = language
        self.config = config
        self.store = store
        self.cache = RequestCache(cache_size)
        # Compiled execution plans, keyed (program digest, catalog
        # fingerprint): every fill transport (JSON body, streaming,
        # worker pool) shares one plan per (program, snapshot) pair.
        self.plans = RequestCache(cache_size)
        self.started_at = time.time()
        # name -> (registry snapshot the engine was built for, engine).
        # Keyed on the *snapshot* identity, not engine.catalog: with
        # configs the engine cannot share a frozen snapshot with (e.g. a
        # non-default ``matchers`` spec, which derives a matcher clone),
        # engine.catalog is a copy and comparing it would rebuild the
        # engine on every request.
        self._engines: Dict[str, Tuple[Catalog, Synthesizer]] = {}
        # (name, matcher spec) -> (snapshot, engine) for requests that
        # override the service config's matchers (``/learn`` with a
        # ``matchers`` field); bounded separately so exotic specs cannot
        # evict the hot default engines.
        self._matcher_engines: Dict[
            Tuple[str, Tuple[str, ...]], Tuple[Catalog, Synthesizer]
        ] = {}
        self._engines_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._learn_requests = 0
        self._fill_requests = 0
        self._rows_filled = 0
        self._config_key = config.signature()
        # Single-flight coordination for cold learns: key -> Event the
        # leading request sets once its result is in the cache.
        self._inflight_lock = threading.Lock()
        self._inflight: Dict[Tuple, threading.Event] = {}
        # Optional worker-process pool (attach_pool): cold learns are
        # dispatched to it; fills and cache hits never leave the process.
        self.pool = None
        self._pool_dispatched = 0
        self._pool_fallbacks = 0
        # Changefeed consumers: proactive artifact revalidation (only
        # useful with a store attached -- it checks at event time) and
        # outbound webhook notify.  Both enqueue-and-return; the
        # mutation path never blocks on them.
        self.revalidator = Revalidator(self)
        self.registry.feed.add_listener(self.revalidator.on_event)
        self.webhooks = WebhookNotifier()
        self.registry.feed.add_listener(self.webhooks.on_event)
        self.registry.feed.add_listener(self._pool_invalidate)

    # ------------------------------------------------------------------
    def add_change_webhook(self, url: str) -> None:
        """POST every catalog changefeed event to ``url`` (best-effort)."""
        self.webhooks.add(url)

    def _pool_invalidate(self, event: Dict[str, Any], catalog: Catalog) -> None:
        """Feed listener: tell pool workers to drop engine cache entries
        for the superseded snapshot fingerprint (non-blocking)."""
        pool = self.pool
        old = event.get("old_fingerprint")
        if pool is None or pool.closed or not old:
            return
        try:
            pool.invalidate([old])
        except Exception:  # noqa: BLE001 -- hygiene only, never fail a mutation
            pass

    # ------------------------------------------------------------------
    def attach_pool(self, pool) -> None:
        """Serve cold learns from ``pool`` (a ``WorkerPool``) from now on.

        The pool must share this service's language and config (results
        are rebuilt against the parent's snapshot, so a mismatched pool
        would compute under different knobs).  Mutated catalogs are
        pre-published to the pool's snapshot spool via a registry
        listener, so workers re-attach by fingerprint without a
        first-request stall; storage-backed catalogs never cross (they
        carry live database handles) and keep serving in-process.
        """
        if pool.language != self.language:
            raise WorkerPoolError(
                f"pool language {pool.language!r} != service "
                f"language {self.language!r}"
            )
        if pool.config.signature() != self._config_key:
            raise WorkerPoolError(
                "pool config differs from service config; results would "
                "not be comparable across the process boundary"
            )
        self.pool = pool
        self.registry.add_listener(self._prepublish)

    def _prepublish(self, name: str, snapshot: Catalog) -> None:
        """Registry-mutation listener: push the new fingerprint to the
        pool spool off-thread (publication is bulky -- snapshot save)."""
        pool = self.pool
        if pool is None or snapshot.storage_backed or len(snapshot) == 0:
            return

        def publish() -> None:
            try:
                pool.publish(snapshot)
            except Exception:  # noqa: BLE001 -- workers fall back to lazy attach
                pass

        threading.Thread(
            target=publish, name="repro-pool-prepublish", daemon=True
        ).start()

    def _synthesize_cold(self, engine: Synthesizer, task: TaskLike, k: int):
        """One cold synthesis: on a worker process when possible.

        Dispatch preference: the attached pool, unless the catalog is
        storage-backed (cannot cross) or the pool is gone.  Pool-level
        attach/publish failures degrade to in-process synthesis (counted
        in ``_pool_fallbacks``); queue saturation
        (:class:`PoolBusyError`) and post-retry crashes
        (:class:`WorkerCrashedError`) propagate to the client typed --
        retrying them in-process would hide real capacity problems.
        """
        pool = self.pool
        if (
            pool is not None
            and engine.config is self.config
            # Derived-config engines (per-request matcher overrides) stay
            # in-process: pool workers are pinned to the service config.
            and not engine.catalog.storage_backed
            and not pool.closed
        ):
            try:
                payload = pool.synthesize(engine.catalog, task, k=max(1, k))
            except (PoolBusyError, WorkerCrashedError):
                raise
            except WorkerPoolError:
                payload = None  # degraded: pool unusable for this catalog
            # Any other exception is a task error computed on the worker
            # (NoProgramFound...), identical to in-process: propagate.
            if payload is not None:
                with self._counter_lock:
                    self._pool_dispatched += 1
                return engine.result_from_payload(payload)
            with self._counter_lock:
                self._pool_fallbacks += 1
        return engine.synthesize(task, k=max(1, k))

    # ------------------------------------------------------------------
    def engine_for(self, catalog: Optional[str] = None) -> Synthesizer:
        """The engine serving ``catalog`` (default catalog when ``None``).

        Engines are cached per catalog name and swapped when the
        registry snapshot moves on; the swap is cheap because a frozen
        snapshot is shared with the engine (no index rebuild).  The
        returned engine's ``catalog`` attribute *is* the snapshot it
        will use for every call -- hold the engine to hold the snapshot.
        """
        name = catalog if catalog is not None else self.default_catalog
        snapshot = self.registry.get(name)
        with self._engines_lock:
            cached = self._engines.get(name)
            if cached is not None and cached[0] is snapshot:
                return cached[1]
        # Construct outside the lock: with configs that cannot share a
        # frozen snapshot, Synthesizer copies and re-indexes the whole
        # catalog -- one tenant's rebuild must not stall every other
        # tenant's cache hits.  On a race the first insert wins (both
        # engines are equivalent; the loser is garbage).
        engine = Synthesizer(
            catalog=snapshot, language=self.language, config=self.config
        )
        with self._engines_lock:
            cached = self._engines.get(name)
            if cached is not None and cached[0] is snapshot:
                return cached[1]
            self._engines[name] = (snapshot, engine)
            return engine

    @property
    def engine(self) -> Synthesizer:
        """The default catalog's engine (single-catalog compatibility)."""
        return self.engine_for(None)

    # -- per-request matcher overrides ----------------------------------
    def _matcher_spec(self, matchers) -> Optional[Tuple[str, ...]]:
        """Normalized override spec, or ``None`` when the service config
        already serves it (no derived engine needed).

        Raises :class:`~repro.exceptions.UnknownMatcherError` on unknown
        names -- before any synthesis work or counters move.
        """
        if matchers is None:
            return None
        spec = normalize_spec(matchers)
        if spec == normalize_spec(self.config.matchers):
            return None
        return spec

    def engine_for_matchers(
        self, catalog: Optional[str], spec: Tuple[str, ...]
    ) -> Synthesizer:
        """An engine over ``catalog``'s snapshot with matcher ``spec``.

        Shares the registry snapshot (``with_matchers`` clones are O(1))
        and is cached per (name, spec) until the snapshot moves on.
        """
        name = catalog if catalog is not None else self.default_catalog
        snapshot = self.registry.get(name)
        key = (name, spec)
        with self._engines_lock:
            cached = self._matcher_engines.get(key)
            if cached is not None and cached[0] is snapshot:
                return cached[1]
        engine = Synthesizer(
            catalog=snapshot,
            language=self.language,
            config=replace(self.config, matchers=spec),
        )
        with self._engines_lock:
            cached = self._matcher_engines.get(key)
            if cached is not None and cached[0] is snapshot:
                return cached[1]
            while len(self._matcher_engines) >= 16:
                self._matcher_engines.pop(next(iter(self._matcher_engines)))
            self._matcher_engines[key] = (snapshot, engine)
            return engine

    def cache_key(
        self, task: TaskLike, k: int = 1, catalog: Optional[str] = None
    ) -> Tuple:
        """The request-cache key for ``task`` (stable across processes).

        Keyed on the named snapshot's content fingerprint, so a registry
        update (new fingerprint) makes fresh keys and stale cached
        results are unreachable -- and two catalogs holding equal tables
        share entries, which is sound because results only depend on
        content.
        """
        return self._cache_key(self.engine_for(catalog), task, k)

    def _cache_key(self, engine: Synthesizer, task: TaskLike, k: int) -> Tuple:
        # Derived engines (per-request matcher overrides) key on their own
        # config signature, so overridden and default results never alias.
        config_key = (
            self._config_key
            if engine.config is self.config
            else engine.config.signature()
        )
        return (
            engine.catalog.fingerprint(),
            config_key,
            engine.language,
            as_task(task).signature(),
            max(1, k),
        )

    def learn(
        self,
        task: TaskLike,
        k: int = 1,
        save_as: Optional[str] = None,
        metadata: Optional[Dict[str, Any]] = None,
        catalog: Optional[str] = None,
        matchers: Union[None, str, Sequence[str]] = None,
    ) -> LearnReply:
        """Solve ``task`` against a named catalog (or serve it cached).

        Returns a :class:`LearnReply` -- unpackable as ``(result,
        cache_status)`` where ``cache_status`` is :data:`CACHE_HIT` or
        :data:`CACHE_MISS`.  A hit returns the same immutable result
        object the cold call produced.  The whole request runs against
        one frozen snapshot (grabbed once, up front), so concurrent
        registry updates can never produce a torn read.  ``save_as``
        persists the top-ranked program to the attached store (deduped:
        an unchanged program learned against an unchanged catalog does
        not grow a new version); ``reply.stored`` is the exact version
        this request ended up with.

        ``matchers`` overrides the service config's value-matching
        strategies for this request (a comma string or list of names,
        see ``repro.matching``); unknown names raise
        :class:`~repro.exceptions.UnknownMatcherError` (HTTP 400) before
        any synthesis is attempted.  Overridden requests run on a
        derived engine sharing the same frozen snapshot and are cached
        under the derived config's signature, so they never collide with
        default-spec results.
        """
        if save_as is not None:
            # Fail fast (no store / bad name) before paying for synthesis.
            self.validate_save_target(save_as)
        spec = self._matcher_spec(matchers)
        engine = (
            self.engine_for(catalog)
            if spec is None
            else self.engine_for_matchers(catalog, spec)
        )
        if len(engine.catalog) == 0 and getattr(
            engine.backend, "requires_catalog", True
        ):
            # A catalog-backed learn against a zero-table catalog is a
            # tenant error at this layer (no tables were uploaded yet);
            # refuse with a typed error naming the catalog instead of
            # silently degrading to table-free programs.  (The bare
            # Synthesizer stays permissive -- the paper's Lu subsumes
            # the syntactic language, empty catalog included.)
            raise EmptyCatalogError(
                self.language,
                catalog if catalog is not None else self.default_catalog,
            )
        with self._counter_lock:
            self._learn_requests += 1
        key = self._cache_key(engine, task, k)
        # Internal lookups don't record stats; exactly one hit-or-miss is
        # counted per request below, matching the cache_status the caller
        # sees (so hits + misses == learn_requests even under races).
        result = self.cache.get(key, record=False)
        status = CACHE_HIT
        if result is None:
            try:
                result, status = self._learn_cold(engine, key, task, k)
            except Exception:
                # A failed synthesis was still a miss; keep the invariant.
                self.cache.record(False)
                raise
        self.cache.record(status == CACHE_HIT)
        name = catalog if catalog is not None else self.default_catalog
        stored = None
        if save_as is not None:
            stored = self.save_program(
                save_as,
                result.program,
                metadata=metadata,
                catalog_name=name,
                snapshot=engine.catalog,
                examples=as_task(task).examples,
            )
        return LearnReply(
            result=result,
            cache_status=status,
            stored=stored,
            catalog_name=name,
            catalog_fingerprint=engine.catalog.fingerprint(),
        )

    def _learn_cold(
        self, engine: Synthesizer, key: Tuple, task: TaskLike, k: int
    ) -> Tuple[SynthesisResult, str]:
        """Synthesize on a cache miss, single-flight per key.

        N concurrent identical misses would each pay full (CPU-bound)
        synthesis; instead one request per key leads at a time and the
        rest wait on its event, then serve the leader's cached result.
        Only a registered leader ever synthesizes (and only it pops its
        own in-flight event), so a leader failure wakes the followers,
        who loop: one re-registers as the next leader, the rest wait on
        the new event.  (The key pins the snapshot fingerprint, so every
        request sharing a key computes against identical tables.)
        """
        while True:
            with self._inflight_lock:
                waiter = self._inflight.get(key)
                if waiter is None:
                    self._inflight[key] = threading.Event()
            if waiter is not None:
                waiter.wait()
                result = self.cache.get(key, record=False)
                if result is not None:
                    return result, CACHE_HIT
                continue  # leader failed; race to lead the retry
            # We are the leader.  Re-check the cache: a previous leader
            # may have published between our miss and our registration.
            try:
                result = self.cache.get(key, record=False)
                if result is not None:
                    return result, CACHE_HIT
                result = self._synthesize_cold(engine, task, k)
                self.cache.put(key, result)
                return result, CACHE_MISS
            finally:
                with self._inflight_lock:
                    event = self._inflight.pop(key, None)
                if event is not None:
                    event.set()

    # ------------------------------------------------------------------
    def validate_save_target(self, name: str) -> None:
        """Raise unless ``name`` is storable (store attached, name legal)."""
        if self.store is None:
            raise ServiceError(
                "no program store attached (start the service with a store "
                "directory, e.g. repro serve --store DIR)"
            )
        ProgramStore.check_name(name)

    def _catalog_provenance(
        self, program: Program, catalog_name: str, snapshot: Catalog
    ) -> Dict[str, Any]:
        """The artifact block recording what the program was learned on."""
        tables: Dict[str, Any] = {}
        for table_name in program.required_tables():
            if table_name not in snapshot:
                continue
            table = snapshot.table(table_name)
            tables[table_name] = {
                "data_fingerprint": table.data_fingerprint(),
                "num_rows": table.num_rows,
                "columns": list(table.columns),
            }
        return {
            "name": catalog_name,
            "fingerprint": snapshot.fingerprint(),
            "tables": tables,
        }

    def save_program(
        self,
        name: str,
        program: Program,
        metadata: Optional[Dict[str, Any]] = None,
        catalog_name: Optional[str] = None,
        snapshot: Optional[Catalog] = None,
        examples: Optional[Any] = None,
    ) -> StoredProgram:
        """Persist ``program`` under ``name``; dedupe unchanged saves.

        Delegates to :meth:`ProgramStore.save_if_changed` (atomic under
        the store lock): an idempotent client retrying the same
        learn+save request does not grow the store, and version numbers
        keep meaning "something changed".  New metadata -- or a changed
        catalog -- on an unchanged program does write a new version.
        When ``snapshot`` is given the artifact records catalog
        provenance (name, fingerprint, per-required-table data digests)
        used by :meth:`fill`'s staleness check; ``examples`` (the learn
        input/output pairs) are persisted alongside it so revalidation
        can re-learn the program when the catalog moves destructively.
        """
        self.validate_save_target(name)
        assert self.store is not None  # validate_save_target guarantees it
        catalog_info = None
        if snapshot is not None:
            catalog_info = self._catalog_provenance(
                program, catalog_name or self.default_catalog, snapshot
            )
        return self.store.save_if_changed(
            name,
            program,
            metadata=metadata,
            catalog_info=catalog_info,
            examples=examples,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _staleness_changes(
        provenance: Dict[str, Any], snapshot: Catalog
    ) -> List[str]:
        """What moved under a stored program's feet, human-readably.

        Empty means every required table is intact as a prefix of the
        current data (same columns, original rows unchanged -- appended
        rows are fine), so the program may re-resolve silently.  The
        same rule governs compiled-plan rebinding
        (:meth:`~repro.engine.compile.CompiledProgram.rebound`), so the
        check itself lives in :func:`repro.engine.compile.table_drift`.
        """
        from repro.engine.compile import table_drift

        return table_drift(provenance.get("tables", {}), snapshot)

    def resolve_program(
        self, program: ProgramLike, catalog: Optional[str] = None
    ) -> Program:
        """Coerce a program reference into a runnable :class:`Program`.

        Accepts a live :class:`Program`, a serialized payload dict
        (``Program.to_dict`` form), or a store reference string
        (``"name"`` / ``"name@version"``).  Store references carry
        catalog provenance: when no ``catalog`` is named explicitly, the
        artifact's recorded catalog serves (falling back to the default
        catalog if that name is gone), and when the catalog has moved on
        the program either re-resolves (tables only grew) or raises
        :class:`StaleProgramError` listing exactly what changed.  The
        result is validated against the serving snapshot: missing lookup
        tables or columns raise *before* any row is run.
        """
        if not isinstance(program, (Program, dict, str)):
            raise ServiceError(
                f"bad program reference of type {type(program).__name__}"
            )
        reference = None
        stored = None
        if isinstance(program, str):
            if self.store is None:
                raise ServiceError(
                    f"cannot resolve program reference {program!r}: "
                    "no program store attached"
                )
            name, version = parse_program_ref(program)
            reference = program
            stored = self.store.get(name, version)

        serving_name = catalog
        provenance = stored.catalog_info if stored is not None else None
        if serving_name is None and provenance is not None:
            recorded = provenance.get("name")
            if isinstance(recorded, str) and recorded in self.registry:
                serving_name = recorded
        snapshot = self.engine_for(serving_name).catalog

        if isinstance(program, Program):
            resolved = program
            if catalog is not None and resolved.catalog is not None:
                # An explicitly named catalog must actually serve: rebind
                # the live program to the requested snapshot instead of
                # silently running against whatever it was learned on.
                resolved = Program(
                    resolved.expr, snapshot, resolved.language, resolved.num_inputs
                )
        elif isinstance(program, dict):
            resolved = Program.from_dict(program, catalog=snapshot)
        else:
            assert stored is not None
            try:
                resolved = stored.program(catalog=snapshot)
            except SerializationError as error:
                raise ProgramStoreError(
                    f"artifact for {stored.name!r} v{stored.version} is not "
                    f"a valid program: {error}"
                ) from None
            if (
                provenance is not None
                and provenance.get("fingerprint") != snapshot.fingerprint()
            ):
                changes = self._staleness_changes(provenance, snapshot)
                if changes:
                    raise StaleProgramError(
                        reference or stored.name,
                        serving_name
                        or provenance.get("name")
                        or self.default_catalog,
                        changes,
                    )
        missing = resolved.missing_tables(resolved.catalog)
        if missing:
            raise MissingTablesError(missing)
        missing_columns = resolved.missing_columns(resolved.catalog)
        if missing_columns:
            raise MissingColumnsError(missing_columns)
        return resolved

    def _compiled_for(self, resolved: Program):
        """The shared compiled plan for ``resolved``, or ``None``.

        ``None`` means serve the interpreter: this (program, catalog
        snapshot) pair does not compile (cached as :data:`_UNCOMPILED` so
        the failed attempt is paid once, not per request).  Plans are cached in :attr:`plans` keyed
        ``(program digest, catalog fingerprint)`` -- both stable content
        digests, so every transport (JSON fill, streaming fill, session
        apply) resolving the same program against the same snapshot
        shares one plan, and a catalog update makes old entries
        unreachable rather than stale.
        """
        fingerprint = (
            resolved.catalog.fingerprint()
            if resolved.catalog is not None
            else ""
        )
        # Matcher clones share their base snapshot's fingerprint, so the
        # spec must be part of the key: an exact-fused plan must never be
        # served for an approximately-matched fill (and vice versa).
        spec = (
            tuple(getattr(resolved.catalog, "matcher_spec", ("exact",)))
            if resolved.catalog is not None
            else ("exact",)
        )
        key = (resolved.digest(), fingerprint, spec)
        plan = self.plans.get(key)
        if plan is None:
            from repro.engine.compile import PlanCompileError

            try:
                plan = resolved.compile()
            except PlanCompileError:
                plan = _UNCOMPILED
            self.plans.put(key, plan)
        return None if plan is _UNCOMPILED else plan

    def _rebind_matchers(
        self, resolved: Program, spec: Optional[Tuple[str, ...]]
    ) -> Program:
        """``resolved`` re-bound to a matcher-``spec`` clone of its catalog.

        A no-op when no override was requested or the catalog already
        carries the spec; otherwise the clone is O(1) (shared tables and
        indexes) and the returned program serves lookups through the
        requested pipeline.
        """
        if spec is None or resolved.catalog is None:
            return resolved
        if tuple(getattr(resolved.catalog, "matcher_spec", ("exact",))) == spec:
            return resolved
        return Program(
            resolved.expr,
            resolved.catalog.with_matchers(spec),
            resolved.language,
            resolved.num_inputs,
        )

    def fill(
        self,
        program: ProgramLike,
        rows: RowsLike,
        catalog: Optional[str] = None,
        matchers: Union[None, str, Sequence[str]] = None,
    ) -> List[Optional[str]]:
        """Run ``program`` over ``rows``, one output per input row.

        The alignment contract lives in :meth:`Program.fill_aligned`
        (shared with ``repro fill``): blank rows (zero cells) come back
        as empty-string outputs so the list aligns 1:1 with the input
        rows, a row the program is *undefined* on (the paper's ⊥)
        yields ``None`` (JSON ``null`` over HTTP; the CSV-bound CLI
        renders it as an empty cell), and arity mismatches become a
        clean :class:`ServiceError` naming the 1-based row.  ``catalog``
        picks the serving catalog; store references default to the
        catalog they were learned against (see :meth:`resolve_program`).

        Rows are executed on the shared compiled plan
        (:meth:`_compiled_for`) when enabled, the AST interpreter
        otherwise -- byte-identical outputs either way.

        ``matchers`` serves this fill through the named value-matching
        strategies (``repro.matching``): the program is re-bound to an
        O(1) matcher clone of the serving snapshot, so e.g.
        ``matchers="canonical,fuzzy"`` resolves noisy key spellings that
        exact equality would return empty for.  Approximate fills run on
        the interpreter (compiled plans fuse exact lookups).
        """
        resolved = self._rebind_matchers(
            self.resolve_program(program, catalog=catalog),
            None if matchers is None else normalize_spec(matchers),
        )
        plan = self._compiled_for(resolved)
        try:
            if plan is not None:
                outputs = plan.fill_aligned(rows)
            else:
                outputs = resolved.fill_aligned_interpreted(rows)
        except ValueError as error:
            raise ServiceError(str(error)) from None
        with self._counter_lock:
            self._fill_requests += 1
            self._rows_filled += len(outputs)
        return outputs

    def fill_session(
        self,
        program: ProgramLike,
        catalog: Optional[str] = None,
        matchers: Union[None, str, Sequence[str]] = None,
    ) -> "FillSession":
        """Resolve ``program`` once for an incremental (chunked) fill.

        Resolution (and plan compilation) happens *eagerly* -- bad
        references, missing tables and staleness raise here, before a
        streaming transport commits its HTTP status line.  The returned
        :class:`FillSession` then runs row chunks one at a time; the
        ``fill_requests`` counter ticks here, ``rows_filled`` per chunk.
        ``matchers`` overrides the value-matching strategies exactly as
        in :meth:`fill`.
        """
        resolved = self._rebind_matchers(
            self.resolve_program(program, catalog=catalog),
            None if matchers is None else normalize_spec(matchers),
        )
        plan = self._compiled_for(resolved)
        with self._counter_lock:
            self._fill_requests += 1
        return FillSession(self, resolved, plan)

    def fill_stream(
        self,
        program: ProgramLike,
        rows: Iterable[Sequence[str]],
        catalog: Optional[str] = None,
        chunk_rows: int = 1024,
        matchers: Union[None, str, Sequence[str]] = None,
    ) -> Iterator[List[Optional[str]]]:
        """Stream :meth:`fill` outputs in bounded chunks.

        Resolves the program eagerly (see :meth:`fill_session`), then
        returns a generator yielding lists of at most ``chunk_rows``
        outputs, pulling input rows lazily so a million-row fill holds
        one chunk at a time.  Per-row semantics match :meth:`fill`
        exactly (blank rows, ``None`` for ⊥, ``fill row N`` arity
        errors as :class:`ServiceError`, raised mid-stream from the
        generator); a ``ValueError`` from the ``rows`` iterable itself
        (a row decoder, say) surfaces as a :class:`ServiceError` too.
        """
        if chunk_rows < 1:
            raise ServiceError(f"chunk_rows must be >= 1, got {chunk_rows}")
        session = self.fill_session(program, catalog=catalog, matchers=matchers)

        def chunks() -> Iterator[List[Optional[str]]]:
            start = 1
            iterator = iter(rows)
            while True:
                buffer: List[Sequence[str]] = []
                try:
                    for row in iterator:
                        buffer.append(row)
                        if len(buffer) >= chunk_rows:
                            break
                except ValueError as error:
                    raise ServiceError(str(error)) from None
                if not buffer:
                    return
                yield session.fill_chunk(buffer, start=start)
                start += len(buffer)

        return chunks()

    # ------------------------------------------------------------------
    def list_programs(self) -> List[Dict[str, Any]]:
        """The attached store's listing (empty when no store)."""
        if self.store is None:
            return []
        return self.store.list_programs()

    def stats(self) -> Dict[str, Any]:
        """Service counters, request-cache stats and engine memo stats."""
        from repro.syntactic.intersect import dag_cache_stats
        from repro.syntactic.positions import (
            intersection_cache_stats,
            position_cache_stats,
        )
        from repro.syntactic.regex import boundary_cache_stats

        with self._counter_lock:
            counters = {
                "learn_requests": self._learn_requests,
                "fill_requests": self._fill_requests,
                "rows_filled": self._rows_filled,
                "pool_dispatched": self._pool_dispatched,
                "pool_fallbacks": self._pool_fallbacks,
            }
        if self.pool is not None:
            workers = dict(self.pool.stats())
            workers["enabled"] = True
        else:
            workers = {"enabled": False}
        default_snapshot = self.engine.catalog
        catalogs = {}
        for name in self.registry.loaded_names():
            snapshot = self.registry.get(name)
            entry = {
                "tables": snapshot.table_names(),
                "entries": snapshot.total_entries,
                "fingerprint": snapshot.fingerprint(),
            }
            # Storage tier + residency (sqlite-backed catalogs report
            # their hot-cache counters; snapshot registries report the
            # latest on-disk snapshot version).
            entry.update(self.registry.tier_info(name))
            catalogs[name] = entry
        return {
            "uptime_seconds": time.time() - self.started_at,
            "language": self.engine.language,
            "catalog": {
                "tables": default_snapshot.table_names(),
                "entries": default_snapshot.total_entries,
                "fingerprint": default_snapshot.fingerprint(),
            },
            "default_catalog": self.default_catalog,
            "storage": {
                "tier": self.registry.storage,
                "snapshots": self.registry.snapshots,
            },
            "catalogs": catalogs,
            "changefeed": self.registry.feed.stats(),
            "revalidation": (
                self.revalidator.stats()
                if self.store is not None
                else {"enabled": False}
            ),
            "webhooks": self.webhooks.stats(),
            "workers": workers,
            "requests": counters,
            "request_cache": self.cache.stats(),
            "plan_cache": self.plans.stats(),
            "matching": matching_stats(),
            "store": {
                "attached": self.store is not None,
                "root": str(self.store.root) if self.store is not None else None,
                "programs": len(self.store) if self.store is not None else 0,
            },
            "engine_caches": {
                "positions": position_cache_stats(),
                "boundaries": boundary_cache_stats(),
                "intersections": intersection_cache_stats(),
                "dags": dag_cache_stats(),
            },
        }

    def healthy(self) -> bool:
        """False when an attached pool has zero live workers (degraded).

        A pool-less service is always healthy by this measure; with a
        pool, losing every worker process means learns silently run
        in-process at single-core speed -- /healthz surfaces that as
        degraded instead of 200.
        """
        if self.pool is None or self.pool.closed:
            return True
        return self.pool.alive_count() > 0

    def close(self) -> None:
        """Release the service's durable resources (idempotent).

        Drains and stops the worker pool (if attached), flushes any
        pending snapshot writes and closes storage backends through
        :meth:`CatalogRegistry.close`, and drops the per-catalog engine
        cache.  In-flight requests holding an engine keep their frozen
        snapshot; storage-backed ones lose their backend, so call this
        only after the server stops accepting requests (the
        ``repro serve`` shutdown path does exactly that).
        """
        self.revalidator.close()
        self.webhooks.close()
        if self.pool is not None:
            self.pool.close(drain=True)
        self.registry.close()
        with self._engines_lock:
            self._engines.clear()
