"""Exception hierarchy for the repro library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from one base class while still distinguishing table
schema problems from synthesis failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TableError(ReproError):
    """A relational table is malformed (ragged rows, duplicate columns...)."""


class KeyConstraintError(TableError):
    """A declared candidate key does not uniquely identify rows."""


class DuplicateTableError(TableError):
    """A table was added under a name the catalog already holds."""

    def __init__(self, catalog: "str | None", table: str) -> None:
        where = f"catalog {catalog!r}" if catalog else "catalog"
        super().__init__(
            f"{where} already contains a table named {table!r}"
        )
        self.catalog = catalog
        self.table = table


class DuplicateColumnError(TableError):
    """A table header declares the same column name twice.

    ``positions`` are 1-based header positions, the way a user counts
    CSV columns.
    """

    def __init__(self, table: str, column: str, positions: "tuple | list") -> None:
        where = " and ".join(f"position {p}" for p in positions)
        super().__init__(
            f"table {table!r} has a duplicate column {column!r} ({where})"
        )
        self.table = table
        self.column = column
        self.positions = tuple(positions)


class FrozenCatalogError(TableError):
    """In-place mutation was attempted on a frozen catalog snapshot.

    Registry-owned catalogs are frozen: grow them copy-on-write with
    :meth:`Catalog.with_table` / :meth:`Table.extended` (or through the
    registry), never in place -- in-flight requests may be reading the
    snapshot.
    """

    def __init__(self, operation: str) -> None:
        super().__init__(
            f"catalog snapshot is frozen: {operation} would mutate state "
            "an in-flight request may be reading; use Catalog.with_table() "
            "(copy-on-write) or the registry update operations instead"
        )


class UnknownTableError(TableError):
    """A lookup referenced a table that is not in the catalog."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown table: {name!r}")
        self.name = name


class UnknownColumnError(TableError):
    """A lookup referenced a column that does not exist in its table."""

    def __init__(self, table: str, column: str) -> None:
        super().__init__(f"table {table!r} has no column {column!r}")
        self.table = table
        self.column = column


class SynthesisError(ReproError):
    """Synthesis could not produce a program for the given examples."""


class NoProgramFoundError(SynthesisError):
    """The version space became empty (no expression fits all examples)."""


class InconsistentExampleError(SynthesisError):
    """An example is malformed (wrong arity, non-string values...)."""


class NoExamplesError(SynthesisError):
    """Synthesis was requested before any input-output example was given.

    Raised by :meth:`repro.api.Synthesizer.synthesize` on an empty task and
    by :meth:`repro.engine.session.SynthesisSession.learn` before the first
    :meth:`add_example` call.
    """

    def __init__(self, message: "str | None" = None) -> None:
        super().__init__(
            message
            or "no examples given: provide at least one (inputs, output) "
            "example before synthesizing"
        )


class EmptyCatalogError(SynthesisError):
    """A catalog-backed learn was requested against a zero-table catalog.

    The lookup and semantic languages transform strings *relative to a
    catalog of tables*; with no tables there is nothing to look up and
    the deep generators would otherwise fail obscurely.  Purely
    syntactic backends are unaffected.
    """

    def __init__(self, language: str, catalog_name: "str | None" = None) -> None:
        where = f"catalog {catalog_name!r}" if catalog_name else "the catalog"
        super().__init__(
            f"cannot learn {language!r} programs against an empty catalog: "
            f"{where} has no tables (add tables first, or use the "
            "'syntactic' backend for table-free transformations)"
        )
        self.language = language
        self.catalog_name = catalog_name


class UnknownBackendError(ReproError, ValueError):
    """A language backend name is not in the registry.

    Also a ``ValueError`` for backward compatibility with callers that
    guarded ``SynthesisSession(language=...)`` with ``except ValueError``.
    """

    def __init__(self, name: str, available: "tuple | list" = ()) -> None:
        super().__init__(
            f"unknown language backend {name!r}; "
            f"available: {', '.join(sorted(available))}"
        )
        self.name = name
        self.available = tuple(available)

    def __reduce__(self):
        # BaseException pickling replays args (the formatted message);
        # rebuild from the structured fields instead.
        return (type(self), (self.name, self.available))


class UnknownMatcherError(ReproError, ValueError):
    """A matcher strategy name is not in the matching registry.

    Raised by ``repro.matching.build_pipeline`` (and therefore by every
    surface that accepts matcher names: ``SynthesisConfig.matchers``,
    ``repro learn --matchers``, the ``matchers`` field of ``/learn`` and
    ``/fill``).  The HTTP server maps it to 400; the CLI exits 1.
    Also a ``ValueError`` so callers validating knobs with
    ``except ValueError`` keep working.
    """

    def __init__(self, name: str, available: "tuple | list" = ()) -> None:
        super().__init__(
            f"unknown matcher {name!r}; "
            f"available: {', '.join(sorted(available))}"
        )
        self.name = name
        self.available = tuple(available)

    def __reduce__(self):
        # BaseException pickling replays args (the formatted message);
        # rebuild from the structured fields instead.
        return (type(self), (self.name, self.available))


class SerializationError(ReproError):
    """A serialized program payload is malformed or unsupported."""


class StorageError(ReproError):
    """A storage-tier operation failed (backend, snapshot or ingest)."""


class StorageBackendError(StorageError):
    """A storage backend cannot serve a request (closed, unsupported...)."""


class SnapshotError(StorageError):
    """A persistent index snapshot is missing, corrupt or unwritable.

    Loading never raises this for an *absent or invalid* snapshot --
    loaders fall back to the newest complete one (or to a rebuild);
    it signals misuse, like saving into an unwritable directory or
    explicitly loading a snapshot that fails verification.
    """


class ServiceError(ReproError):
    """A synthesis-service request is invalid or cannot be served."""


class ProgramStoreError(ServiceError):
    """A program-store operation failed (bad name, malformed artifact...)."""


class UnknownProgramError(ProgramStoreError):
    """A store lookup referenced a program name/version that is not stored."""

    def __init__(self, name: str, version: "int | None" = None) -> None:
        what = name if version is None else f"{name}@{version}"
        super().__init__(f"unknown program: {what!r}")
        self.name = name
        self.version = version


class CatalogRegistryError(ServiceError):
    """A catalog-registry operation failed (bad name, unknown catalog...)."""


class UnknownCatalogError(CatalogRegistryError):
    """A request referenced a catalog name that is not registered."""

    def __init__(self, name: str, available: "tuple | list" = ()) -> None:
        known = ", ".join(sorted(available)) or "none registered"
        super().__init__(f"unknown catalog: {name!r} (available: {known})")
        self.name = name
        self.available = tuple(available)


class ChangefeedRangeError(CatalogRegistryError):
    """A changefeed subscription asked for a sequence beyond the head.

    ``since`` must never exceed the feed's current head: a client that
    is "ahead" of the server is either talking to a restarted feed or
    confused about which catalog it watches, and silently serving an
    empty event list would hide that.  The HTTP server maps this to
    416 with the current ``head`` in the body so the client can
    resubscribe from a real position.
    """

    def __init__(self, catalog: str, since: int, head: int) -> None:
        super().__init__(
            f"catalog {catalog!r} changefeed has no sequence {since} yet "
            f"(head is {head}); resubscribe with since <= {head}"
        )
        self.catalog = catalog
        self.since = since
        self.head = head


class StaleProgramError(ServiceError):
    """A stored program's catalog moved on in ways the program can see.

    Raised when a fill resolves a stored artifact whose recorded catalog
    fingerprint no longer matches the serving catalog *and* at least one
    table the program actually looks up changed or disappeared.  Appends
    and unrelated tables re-resolve silently; this error means the data
    under the program's feet really moved.  ``changes`` is a tuple of
    human-readable descriptions, one per offending table.
    """

    def __init__(
        self,
        program: str,
        catalog: str,
        changes: "tuple | list",
    ) -> None:
        super().__init__(
            f"stored program {program!r} was learned against a different "
            f"version of catalog {catalog!r}: " + "; ".join(changes)
            + " (re-learn the program, or fill against the original catalog)"
        )
        self.program = program
        self.catalog = catalog
        self.changes = tuple(changes)


class MissingTablesError(ServiceError):
    """A program needs catalog tables the serving environment did not load."""

    def __init__(self, missing: "tuple | list") -> None:
        names = tuple(sorted(missing))
        super().__init__(
            "program requires tables not in the catalog: "
            + ", ".join(names)
            + " (supply them with --table / the service catalog)"
        )
        self.missing = names


class WorkerPoolError(ServiceError):
    """A worker-pool operation failed (pool closed, no live workers...)."""


class PoolBusyError(WorkerPoolError):
    """The pool's pending queue is full; the caller should back off.

    The HTTP server maps this to 503 so load-shedding is visible to
    clients instead of turning into unbounded queueing in the parent.
    """

    def __init__(self, queue_depth: int, max_queue: int) -> None:
        super().__init__(
            f"worker pool is saturated: {queue_depth} requests queued "
            f"(limit {max_queue}); retry later"
        )
        self.queue_depth = queue_depth
        self.max_queue = max_queue

    def __reduce__(self):
        return (type(self), (self.queue_depth, self.max_queue))


class WorkerCrashedError(WorkerPoolError):
    """A worker process died while executing a request.

    The pool respawns the worker and retries the job up to its retry
    budget; this error surfaces only after the retries are exhausted, so
    the client is never left hanging on a dead pipe.
    """

    def __init__(self, pid: "int | None", detail: str = "") -> None:
        who = f"worker pid={pid}" if pid else "worker"
        super().__init__(
            f"{who} crashed while executing the request"
            + (f": {detail}" if detail else "")
        )
        self.pid = pid
        self.detail = detail

    def __reduce__(self):
        return (type(self), (self.pid, self.detail))


class SnapshotAttachError(WorkerPoolError):
    """A worker could not attach a catalog for the requested fingerprint.

    Neither a fork-inherited catalog nor a verified snapshot in the
    shared spool directory matched; the parent treats this as a pool-level
    failure and serves the request in-process instead.
    """

    def __init__(self, fingerprint: str, detail: str = "") -> None:
        super().__init__(
            f"no attachable catalog for fingerprint {fingerprint[:16]}..."
            + (f": {detail}" if detail else "")
        )
        self.fingerprint = fingerprint
        self.detail = detail

    def __reduce__(self):
        return (type(self), (self.fingerprint, self.detail))


class MissingColumnsError(ServiceError):
    """The serving catalog's tables lost columns a program references.

    ``missing`` holds sorted ``"Table.Column"`` names -- the table exists
    but no longer carries the column, so every lookup through it would
    fail deep inside evaluation; refuse up front instead.
    """

    def __init__(self, missing: "tuple | list") -> None:
        names = tuple(sorted(missing))
        super().__init__(
            "program references columns missing from the catalog tables: "
            + ", ".join(names)
            + " (the tables exist but their schema changed; re-learn the "
            "program against the current catalog)"
        )
        self.missing = names
