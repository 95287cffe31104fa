"""Command-line interface: the Excel add-in workflow for the terminal.

Subcommand usage::

    repro learn --table Comp.csv --examples examples.csv \\
                [--fill pending.csv] [--save program.json] [--top 3] \\
                [--matchers canonical,fuzzy]
    repro fill  --program program.json --rows pending.csv [--table Comp.csv] \\
                [--matchers canonical,fuzzy]
    repro fill  --program program.json --rows - --stream [--chunk 1024]
    repro serve --table Comp.csv [--store programs/] [--port 8765] \\
                [--catalog-root catalogs/] [--storage sqlite] [--snapshots]
    repro catalog list   --root catalogs/
    repro catalog show   --root catalogs/ NAME
    repro catalog add    --root catalogs/ NAME TABLE.csv [TABLE.csv ...]
    repro catalog append --root catalogs/ NAME TABLE ROWS.csv
    repro catalog watch  --url http://127.0.0.1:8765 NAME [--since N] [--once]
    repro snapshot save  --root catalogs/ NAME
    repro snapshot load  --root catalogs/ NAME
    repro snapshot gc    --root catalogs/ NAME [--keep N]

``learn`` synthesizes from ``examples.csv`` (one example per row: all
columns but the last are inputs, the last is the output), optionally
fills pending rows, prints the top-k ranked candidates with ``--top``,
and persists the learned program as JSON with ``--save``.  ``fill``
applies a previously saved program with zero synthesis cost -- the
cache-then-serve workflow; ``--rows -`` reads the CSV rows from stdin
and ``--stream`` writes NDJSON outputs incrementally (one JSON string
per row, ``null`` for undefined, flushed every ``--chunk`` rows), so
fills compose with Unix pipes at constant memory.  ``serve`` keeps the whole loop resident: an
asyncio JSON HTTP API (``POST /learn``, ``POST /fill``,
``GET /programs``, ``GET /healthz``, ``GET /stats``, plus the
``/catalogs`` registry endpoints) with an LRU request cache and an
optional on-disk program store; ``--catalog-root DIR`` serves many
named catalogs, lazily loaded from ``DIR/<name>/*.csv``.  ``--storage
sqlite`` serves each root catalog from a ``catalog.db`` SQLite file
(appends commit durably); ``--snapshots`` persists built indexes under
``DIR/<name>/.snapshots/`` so restarts load instead of rebuild.  The
server shuts down cleanly on SIGTERM/SIGINT: in-flight requests finish,
snapshot writes flush, database connections close, exit status 0.
``catalog`` manages such a root from the shell: ``list``/``show``
inspect it, ``add`` creates a catalog from CSVs, ``append`` grows a
table's rows (validated through the same table layer the server uses),
and ``watch`` tails a running server's changefeed (``GET
/catalogs/<name>/changes``) as JSON lines, long-polling with ``--wait``
and resuming from ``--since``.  ``serve --notify URL`` (repeatable)
POSTs every changefeed event to the URL as JSON, off the mutation path.
``snapshot`` manages the index snapshots by hand: ``save`` writes one
synchronously, ``load`` verifies what a cold start would serve, ``gc``
prunes old versions.

The original flag-only invocation (``repro --examples ... [--fill ...]``)
still works and behaves like ``learn``.  ``--language`` selects a
registered backend (Lu default, Lt, Ls or a plugin); ``--background``
merges §6 tables by name.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.api.engine import Synthesizer
from repro.api.registry import available_backends
from repro.config import MAX_K
from repro.engine.program import Program
from repro.exceptions import MissingColumnsError, MissingTablesError, ReproError
from repro.tables.background import background_catalog
from repro.tables.catalog import Catalog
from repro.tables.io import load_table_csv

SUBCOMMANDS = ("learn", "fill", "serve", "catalog", "snapshot")


def _add_catalog_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="CSV",
        help="lookup table CSV (first row = header; repeatable)",
    )
    parser.add_argument(
        "--background",
        action="append",
        default=[],
        metavar="NAME",
        help="background table to merge (e.g. Month, Time; repeatable)",
    )


def build_learn_parser(prog: str = "repro learn") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Learn semantic string transformations from examples "
        "(Singh & Gulwani, VLDB 2012).",
    )
    _add_catalog_options(parser)
    parser.add_argument(
        "--examples",
        required=True,
        metavar="CSV",
        help="examples CSV: input columns then the output column",
    )
    parser.add_argument(
        "--fill",
        metavar="CSV",
        help="rows of inputs to fill with the learned program",
    )
    parser.add_argument(
        "--language",
        default="semantic",
        metavar="NAME",
        help="transformation language: any registered backend name or "
        f"alias ({', '.join(available_backends())}, Lu, Lt, Ls; "
        "default: semantic)",
    )
    parser.add_argument(
        "--matchers",
        metavar="NAMES",
        help="comma-separated matcher strategies for approximate lookups "
        "(e.g. canonical,fuzzy; exact is always included and always "
        "ranks first; default: exact only)",
    )
    parser.add_argument(
        "--describe",
        action="store_true",
        help="also print the natural-language paraphrase",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=1,
        metavar="K",
        help="print the K best-ranked candidate programs with scores "
        f"(at most {MAX_K})",
    )
    parser.add_argument(
        "--save",
        metavar="JSON",
        help="write the learned program as a JSON artifact (see 'repro fill')",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print per-phase wall-clock (generate / intersect / rank) to stderr",
    )
    return parser


def build_fill_parser(prog: str = "repro fill") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Apply a saved program to rows of inputs "
        "(no synthesis -- serve from the cached artifact).",
    )
    _add_catalog_options(parser)
    parser.add_argument(
        "--program",
        required=True,
        metavar="JSON",
        help="program artifact written by 'repro learn --save'",
    )
    parser.add_argument(
        "--rows",
        required=True,
        metavar="CSV",
        help="rows of inputs to fill; '-' reads CSV rows from stdin",
    )
    parser.add_argument(
        "--matchers",
        metavar="NAMES",
        help="comma-separated matcher strategies for approximate lookups "
        "during the fill (e.g. canonical,fuzzy; default: exact only)",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="write NDJSON outputs incrementally (one JSON string per "
        "row, null for undefined, flushed per chunk) instead of the "
        "buffered row+output CSV",
    )
    parser.add_argument(
        "--chunk",
        type=int,
        default=1024,
        metavar="ROWS",
        help="rows per flushed output chunk with --stream (default: 1024)",
    )
    return parser


def build_serve_parser(prog: str = "repro serve") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Serve learn/fill over a JSON HTTP API "
        "(request-cached synthesis plus a named program store).",
    )
    _add_catalog_options(parser)
    parser.add_argument(
        "--language",
        default="semantic",
        metavar="NAME",
        help="transformation language backend (default: semantic)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="ADDR",
        help="bind address (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8765,
        metavar="PORT",
        help="bind port; 0 picks an ephemeral port (default: 8765)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        help="program store directory (enables named save/serve and GET /programs)",
    )
    parser.add_argument(
        "--catalog-root",
        metavar="DIR",
        help="serve named catalogs lazily loaded from DIR/<name>/*.csv "
        "(see 'repro catalog'); --table CSVs become the 'default' catalog",
    )
    parser.add_argument(
        "--storage",
        choices=("memory", "sqlite"),
        default="memory",
        help="catalog storage tier: 'memory' rebuilds from CSVs, 'sqlite' "
        "serves each catalog from a durable catalog.db under its root "
        "directory (requires --catalog-root; appends survive restarts)",
    )
    parser.add_argument(
        "--snapshots",
        action="store_true",
        help="persist built indexes under <root>/<name>/.snapshots/ so the "
        "next start loads them instead of rebuilding (requires "
        "--catalog-root; memory tier only)",
    )
    parser.add_argument(
        "--default-catalog",
        default="default",
        metavar="NAME",
        help="catalog served to requests that do not name one (default: default)",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=256,
        metavar="N",
        help="LRU capacity of the learn request cache (default: 256)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="run N persistent synthesis worker processes; learns are "
        "dispatched to them (catalogs attach by fingerprint from a shared "
        "snapshot spool) while fills stay in-process (default: 0, "
        "in-process synthesis)",
    )
    # A no-op that old command lines may still pass: the asyncio server
    # is the only one.
    parser.add_argument("--async", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--notify",
        action="append",
        default=[],
        metavar="URL",
        help="POST every catalog changefeed event to URL as JSON "
        "(repeatable; delivered off the mutation path with capped "
        "retries -- consumers re-sync from GET /catalogs/<name>/changes)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="log each HTTP request to stderr",
    )
    return parser


def build_catalog_parser(prog: str = "repro catalog") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Manage a catalog root: a directory of named catalogs, "
        "each a folder of CSV tables (what 'repro serve --catalog-root' "
        "lazily loads).",
    )
    commands = parser.add_subparsers(dest="action", required=True)

    listing = commands.add_parser("list", help="list catalogs in the root")
    listing.add_argument("--root", required=True, metavar="DIR")

    show = commands.add_parser("show", help="tables, schema and fingerprint")
    show.add_argument("--root", required=True, metavar="DIR")
    show.add_argument("name", metavar="CATALOG")

    add = commands.add_parser("add", help="create a catalog from CSV tables")
    add.add_argument("--root", required=True, metavar="DIR")
    add.add_argument("name", metavar="CATALOG")
    add.add_argument("tables", nargs="+", metavar="CSV")

    append = commands.add_parser("append", help="append rows to one table")
    append.add_argument("--root", required=True, metavar="DIR")
    append.add_argument(
        "--header",
        choices=("auto", "present", "absent"),
        default="auto",
        help="whether ROWS_CSV starts with a header row: 'present' requires "
        "one (and checks it against the table's columns), 'absent' treats "
        "every row as data, 'auto' (default) strips the first row only when "
        "it exactly equals the column names -- and says so on stderr",
    )
    append.add_argument("name", metavar="CATALOG")
    append.add_argument("table", metavar="TABLE")
    append.add_argument("rows", metavar="ROWS_CSV")

    watch = commands.add_parser(
        "watch",
        help="tail a running server's changefeed for one catalog "
        "(long-polled JSON lines; resumes with --since)",
    )
    watch.add_argument(
        "--url",
        required=True,
        metavar="URL",
        help="base URL of a running 'repro serve' (e.g. http://127.0.0.1:8765)",
    )
    watch.add_argument(
        "--since",
        type=int,
        default=0,
        metavar="SEQ",
        help="emit events with sequence > SEQ (default: 0, the full feed)",
    )
    watch.add_argument(
        "--wait",
        type=float,
        default=25.0,
        metavar="SECONDS",
        help="long-poll timeout per request (default: 25)",
    )
    watch.add_argument(
        "--once",
        action="store_true",
        help="do a single poll and exit instead of tailing forever",
    )
    watch.add_argument("name", metavar="CATALOG")
    return parser


def build_snapshot_parser(prog: str = "repro snapshot") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Manage persistent index snapshots of a catalog root "
        "(what 'repro serve --snapshots' writes and cold-starts from).",
    )
    commands = parser.add_subparsers(dest="action", required=True)

    save = commands.add_parser(
        "save", help="build the catalog's indexes and snapshot them to disk"
    )
    save.add_argument("--root", required=True, metavar="DIR")
    save.add_argument("name", metavar="CATALOG")

    load = commands.add_parser(
        "load", help="verify and describe what a cold start would load"
    )
    load.add_argument("--root", required=True, metavar="DIR")
    load.add_argument("name", metavar="CATALOG")

    gc = commands.add_parser("gc", help="prune old snapshot versions")
    gc.add_argument("--root", required=True, metavar="DIR")
    gc.add_argument(
        "--keep",
        type=int,
        default=2,
        metavar="N",
        help="how many newest versions to keep (default: 2)",
    )
    gc.add_argument("name", metavar="CATALOG")
    return parser


#: Backward-compatible alias: the historical single-command parser.
def build_parser() -> argparse.ArgumentParser:
    return build_learn_parser(prog="repro")


def _read_rows(path: str, keep_blank: bool = False) -> List[List[str]]:
    """Parse CSV records; ``keep_blank`` preserves blank lines as ``[]``.

    Example/table readers skip blank lines (a blank example is not an
    example), but fill inputs must keep them: ``repro fill`` emits one
    output line per input line, and silently dropping blanks would shift
    every following row against the user's file.
    """
    if path == "-":
        rows = list(csv.reader(sys.stdin))
    else:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    if keep_blank:
        return rows
    return [row for row in rows if row]


def _iter_rows(path: str):
    """Lazily yield CSV records (blank lines as ``[]``); ``-`` is stdin.

    The streaming counterpart of ``_read_rows(keep_blank=True)``: a
    piped million-row fill never materializes the row list.
    """
    if path == "-":
        yield from csv.reader(sys.stdin)
        return
    with open(path, newline="", encoding="utf-8") as handle:
        yield from csv.reader(handle)


def _load_catalog(args: argparse.Namespace) -> Catalog:
    return Catalog([load_table_csv(Path(path)) for path in args.table])


def _fill_and_print(program: Program, rows: List[List[str]]) -> None:
    """Write ``row + [output]`` CSV lines; arity errors become ReproError.

    The alignment contract (blank rows echoed as blank lines, 1-based
    row numbers in errors) lives in ``Program.fill_aligned`` -- the same
    rule the service's ``/fill`` endpoint applies.
    """
    try:
        outputs = program.fill_aligned(rows)
    except ValueError as error:
        raise ReproError(str(error)) from None
    writer = csv.writer(sys.stdout, lineterminator="\n")
    for row, result in zip(rows, outputs):
        if not row:
            sys.stdout.write("\n")
            continue
        writer.writerow(row + [result if result is not None else ""])


def _fill_stream_stdout(program: Program, rows, chunk: int = 1024) -> None:
    """Incremental NDJSON fill: one JSON string (or ``null``) per row.

    Outputs are flushed every ``chunk`` rows, so ``repro fill --stream``
    composes with Unix pipes -- a downstream consumer sees progress
    while upstream is still producing, and memory stays at one chunk.
    Errors keep the ``fill row N`` 1-based numbering and exit 1.
    """
    if chunk < 1:
        raise ReproError(f"--chunk must be >= 1, got {chunk}")
    pending = 0
    try:
        for output in program.fill_iter(rows):
            sys.stdout.write(json.dumps(output, ensure_ascii=False) + "\n")
            pending += 1
            if pending >= chunk:
                sys.stdout.flush()
                pending = 0
    except ValueError as error:
        sys.stdout.flush()
        raise ReproError(str(error)) from None
    sys.stdout.flush()


def _cmd_learn(argv: Sequence[str], prog: str = "repro learn") -> int:
    args = build_learn_parser(prog=prog).parse_args(argv)
    try:
        from repro.config import DEFAULT_CONFIG

        if args.top > MAX_K:
            raise ReproError(f"--top must be at most {MAX_K}, got {args.top}")

        config = (
            DEFAULT_CONFIG.with_matchers(args.matchers)
            if args.matchers
            else DEFAULT_CONFIG
        )
        engine = Synthesizer(
            catalog=_load_catalog(args),
            language=args.language,
            background=args.background or None,
            config=config,
        )
        examples = []
        for row in _read_rows(args.examples):
            if len(row) < 2:
                raise ReproError(
                    f"example row needs >= 2 columns (inputs..., output): {row}"
                )
            examples.append((tuple(row[:-1]), row[-1]))
        result = engine.synthesize(examples, k=max(1, args.top))
        program = result.program

        if args.profile:
            phases = result.phase_seconds or {}
            rendered = " | ".join(
                f"{phase} {phases.get(phase, 0.0):.4f}s"
                for phase in ("generate", "intersect", "rank")
            )
            print(
                f"profile: {rendered} | total {result.elapsed_seconds:.4f}s",
                file=sys.stderr,
            )
        print(f"program: {program.source()}")
        if args.describe:
            print(f"meaning: {program.describe()}")
        if args.top > 1:
            for candidate in result.programs:
                print(
                    f"rank {candidate.rank}: score={candidate.score:.1f} "
                    f"[{candidate.provenance}] {candidate.program.source()}"
                )
        if args.save:
            Path(args.save).write_text(
                program.to_json(indent=2) + "\n", encoding="utf-8"
            )
            print(f"saved: {args.save}", file=sys.stderr)
        if args.fill:
            _fill_and_print(program, _read_rows(args.fill, keep_blank=True))
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _cmd_fill(argv: Sequence[str]) -> int:
    args = build_fill_parser().parse_args(argv)
    try:
        catalog = _load_catalog(args)
        if args.background:
            catalog = catalog.merged_with(background_catalog(args.background))
        if args.matchers:
            catalog = catalog.with_matchers(args.matchers)
        text = Path(args.program).read_text(encoding="utf-8")
        program = Program.from_json(text, catalog=catalog)
        missing = program.missing_tables(catalog)
        if missing:
            raise MissingTablesError(missing)
        missing_columns = program.missing_columns(catalog)
        if missing_columns:
            raise MissingColumnsError(missing_columns)
        if args.stream:
            _fill_stream_stdout(program, _iter_rows(args.rows), chunk=args.chunk)
        else:
            _fill_and_print(program, _read_rows(args.rows, keep_blank=True))
    except (ReproError, OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(argv: Sequence[str]) -> int:
    args = build_serve_parser().parse_args(argv)
    try:
        from repro.service import (
            CatalogRegistry,
            ProgramStore,
            SynthesisService,
            create_server,
        )

        if args.workers < 0:
            raise ReproError(f"--workers must be >= 0, got {args.workers}")
        if args.storage != "memory" and not args.catalog_root:
            raise ReproError(
                f"--storage {args.storage} needs --catalog-root DIR to keep "
                "its database files in"
            )
        if args.snapshots and not args.catalog_root:
            raise ReproError(
                "--snapshots needs --catalog-root DIR to keep snapshot "
                "files in"
            )
        store = ProgramStore(args.store) if args.store else None
        registry = (
            CatalogRegistry(
                root=args.catalog_root,
                storage=args.storage,
                snapshots=args.snapshots,
            )
            if args.catalog_root
            else None
        )
        # Only --table/--background CSVs register a default catalog here;
        # otherwise the default resolves through the registry (a root
        # directory may lazily provide it).
        catalog = _load_catalog(args) if args.table else None
        service = SynthesisService(
            catalog=catalog,
            language=args.language,
            background=args.background or None,
            store=store,
            cache_size=max(1, args.cache_size),
            registry=registry,
            default_catalog=args.default_catalog,
        )
        for url in args.notify:
            service.add_change_webhook(url)
        server = create_server(
            service, host=args.host, port=args.port, quiet=not args.verbose
        )
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    host, port = server.server_address[:2]
    # One parseable line, flushed before serving: smoke tests and process
    # managers read the bound port from it (important with --port 0).
    # Must happen before the worker pool forks below -- a fork between
    # bind and banner would leave --port 0 callers guessing.
    print(f"serving on http://{host}:{port}", flush=True)

    if args.workers > 0:
        from repro.config import PoolConfig
        from repro.service import WorkerPool

        # In-memory catalogs known up front ride into the workers via
        # fork inheritance; later registry mutations (and lazily loaded
        # catalogs) publish through the shared snapshot spool instead.
        # Storage-backed catalogs stay in-process (live DB handles).
        inherit = []
        try:
            base = service.engine.catalog
        except ReproError:  # no default catalog yet (lazy registry root)
            base = None
        if base is not None and not base.storage_backed and len(base):
            inherit.append(base)
        try:
            pool = WorkerPool(
                args.workers,
                language=service.language,
                config=service.config,
                pool=PoolConfig(workers=args.workers),
                catalogs=inherit,
            )
            service.attach_pool(pool)
        except (ReproError, OSError, ValueError) as error:
            server.server_close()
            service.close()
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(
            f"workers: {pool.alive_count()}/{pool.size} synthesis "
            f"processes ready (pids {', '.join(map(str, pool.worker_pids()))})",
            file=sys.stderr,
        )

    # Graceful shutdown: SIGTERM/SIGINT stop accepting connections, let
    # in-flight requests finish (shutdown drains them and joins the lane
    # threads), flush pending snapshot writes, close database
    # connections, exit 0.  The handler must not call server.shutdown()
    # directly -- it blocks until the very serve_forever loop it
    # interrupted returns -- so a helper thread delivers it.
    import signal
    import threading

    received = []

    def _request_shutdown(signum, frame):
        if received:
            return  # second signal: shutdown already underway
        received.append(signum)
        threading.Thread(target=server.shutdown, daemon=True).start()

    installed = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            installed.append((signum, signal.signal(signum, _request_shutdown)))
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - handler normally wins
        pass
    finally:
        for signum, previous in installed:
            signal.signal(signum, previous)
        server.server_close()
        service.close()
    if received:
        name = signal.Signals(received[0]).name
        print(f"shutdown: {name} received, state flushed", file=sys.stderr)
    return 0


def _cmd_catalog(argv: Sequence[str]) -> int:
    args = build_catalog_parser().parse_args(argv)
    try:
        if args.action == "watch":
            return _watch_changes(args)

        from repro.service.registry import CatalogRegistry
        from repro.tables.io import save_table_csv

        root = Path(args.root)
        if args.action == "list":
            registry = CatalogRegistry(root=root)
            names = registry.names()
            if not names:
                print(f"no catalogs under {root}")
                return 0
            for name in names:
                count = len(list((root / name).glob("*.csv")))
                print(f"{name}: {count} table{'s' if count != 1 else ''}")
            return 0

        if args.action == "show":
            registry = CatalogRegistry(root=root)
            info = registry.describe(args.name)
            print(f"catalog: {info['name']}")
            print(f"fingerprint: {info['fingerprint']}")
            print(f"entries: {info['entries']}")
            for table in info["tables"]:
                keys = ", ".join("+".join(key) for key in table["keys"])
                print(
                    f"  {table['name']}: {table['num_rows']} rows x "
                    f"{len(table['columns'])} columns "
                    f"({', '.join(table['columns'])}) keys: {keys}"
                )
            return 0

        if args.action == "add":
            CatalogRegistry.check_name(args.name)
            # Validate every CSV through the table layer (duplicate
            # headers, ragged rows, duplicate table names) before the
            # first file is written -- no partial catalogs on failure.
            tables = [load_table_csv(Path(path)) for path in args.tables]
            seen = {}
            for table in tables:
                if table.name in seen:
                    raise ReproError(
                        f"two CSVs would both create table {table.name!r}"
                    )
                seen[table.name] = table
            directory = root / args.name
            existing = (
                {path.stem for path in directory.glob("*.csv")}
                if directory.is_dir()
                else set()
            )
            clashes = sorted(existing & set(seen))
            if clashes:
                raise ReproError(
                    f"catalog {args.name!r} already has table(s): "
                    + ", ".join(clashes)
                    + " (use 'repro catalog append' to grow them)"
                )
            directory.mkdir(parents=True, exist_ok=True)
            for table in tables:
                save_table_csv(table, directory / f"{table.name}.csv")
                print(f"added {args.name}/{table.name}: {table.num_rows} rows")
            return 0

        # append
        registry = CatalogRegistry(root=root)
        snapshot = registry.get(args.name)
        table = snapshot.table(args.table)
        rows = _read_rows(args.rows)
        if args.header == "present":
            if not rows:
                raise ReproError(f"{args.rows} is empty (expected a header)")
            header, rows = rows[0], rows[1:]
            if tuple(header) != table.columns:
                raise ReproError(
                    f"ROWS_CSV header {header} does not match table "
                    f"{args.table!r} columns {list(table.columns)}"
                )
        elif args.header == "auto" and rows and tuple(rows[0]) == table.columns:
            # Never drop data silently: the sniff is convenient for
            # csv-with-header workflows, but a first row that merely
            # *looks* like the header could be data -- say what happened
            # and point at the explicit switch.
            rows = rows[1:]
            print(
                f"note: first row of {args.rows} equals the column names; "
                "treating it as a header (use --header absent to append it "
                "as data)",
                file=sys.stderr,
            )
        if not rows:
            raise ReproError(f"no rows to append in {args.rows}")
        updated = registry.append_rows(args.name, args.table, rows)
        extended = updated.table(args.table)
        save_table_csv(extended, root / args.name / f"{args.table}.csv")
        print(
            f"appended {len(rows)} row{'s' if len(rows) != 1 else ''} to "
            f"{args.name}/{args.table} "
            f"({table.num_rows} -> {extended.num_rows} rows)"
        )
        print(f"fingerprint: {updated.fingerprint()}")
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _watch_changes(args: argparse.Namespace) -> int:
    """``repro catalog watch``: tail the changefeed as JSON lines.

    Long-polls ``GET /catalogs/<name>/changes`` and prints one event per
    line, resuming from the returned head; a 416 (feed behind ``--since``,
    e.g. after a server restart without durable storage) resubscribes
    from the server's head instead of failing.  Ctrl-C exits 0.
    """
    import urllib.error
    import urllib.request

    base = args.url.rstrip("/")
    since = args.since
    try:
        while True:
            url = (
                f"{base}/catalogs/{args.name}/changes"
                f"?since={since}&wait={args.wait:g}"
            )
            try:
                with urllib.request.urlopen(
                    url, timeout=args.wait + 30.0
                ) as response:
                    body = json.loads(response.read().decode("utf-8"))
            except urllib.error.HTTPError as error:
                detail = error.read().decode("utf-8", "replace")
                if error.code == 416:
                    try:
                        head = int(json.loads(detail)["head"])
                    except (ValueError, KeyError, TypeError):
                        raise ReproError(
                            f"server returned 416 for {url}: {detail}"
                        ) from None
                    print(
                        f"note: feed head is {head} (< --since {since}); "
                        "resubscribing from the head",
                        file=sys.stderr,
                    )
                    since = head
                    continue
                raise ReproError(
                    f"server returned {error.code} for {url}: {detail}"
                ) from None
            except urllib.error.URLError as error:
                raise ReproError(f"cannot reach {url}: {error.reason}") from None
            for event in body.get("events", ()):
                print(json.dumps(event, ensure_ascii=False), flush=True)
            since = max(since, int(body.get("head", since)))
            if args.once:
                return 0
    except KeyboardInterrupt:
        return 0


def _cmd_snapshot(argv: Sequence[str]) -> int:
    args = build_snapshot_parser().parse_args(argv)
    try:
        from repro.service.registry import CatalogRegistry

        registry = CatalogRegistry(root=Path(args.root), snapshots=True)
        try:
            if args.action == "save":
                info = registry.save_snapshot(args.name)
                segments = info["segments"]
                print(
                    f"saved {args.name} snapshot v{info['version']} "
                    f"({segments} index segment"
                    f"{'s' if segments != 1 else ''})"
                )
                print(f"fingerprint: {info['fingerprint']}")
                return 0

            if args.action == "load":
                from repro.exceptions import UnknownCatalogError
                from repro.storage.snapshot import (
                    hash_sources,
                    load_catalog_snapshot,
                )

                if args.name not in registry.names():
                    raise UnknownCatalogError(args.name, registry.names())
                directory = registry.snapshot_dir(args.name)
                sources = hash_sources(
                    sorted((Path(args.root) / args.name).glob("*.csv"))
                )
                catalog = load_catalog_snapshot(directory, sources=sources)
                if catalog is None:
                    raise ReproError(
                        f"no loadable snapshot for catalog {args.name!r} "
                        f"under {directory} (run 'repro snapshot save' "
                        "first, or the CSVs changed since the last save)"
                    )
                print(f"catalog: {args.name}")
                print(f"fingerprint: {catalog.fingerprint()}")
                print(f"tables: {', '.join(catalog.table_names())}")
                print(f"entries: {catalog.total_entries}")
                return 0

            # gc
            from repro.exceptions import UnknownCatalogError

            if args.keep < 1:
                raise ReproError(f"--keep must be >= 1, got {args.keep}")
            if args.name not in registry.names():
                raise UnknownCatalogError(args.name, registry.names())
            summary = registry.gc_snapshots(args.name, keep=args.keep)
            print(
                f"kept version(s) {summary['kept_versions']}; removed "
                f"{summary['removed_manifests']} manifest(s), "
                f"{summary['removed_blobs']} blob(s)"
            )
            return 0
        finally:
            registry.close()
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "learn":
        return _cmd_learn(argv[1:])
    if argv and argv[0] == "fill":
        return _cmd_fill(argv[1:])
    if argv and argv[0] == "serve":
        return _cmd_serve(argv[1:])
    if argv and argv[0] == "catalog":
        return _cmd_catalog(argv[1:])
    if argv and argv[0] == "snapshot":
        return _cmd_snapshot(argv[1:])
    # Historical flag-only invocation: behave exactly like `learn`.
    return _cmd_learn(argv, prog="repro")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
