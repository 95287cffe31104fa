"""Synthesis as a service: program store, request cache, HTTP front end.

The layer between the engine (:mod:`repro.api`) and many concurrent
clients -- the paper's interactive loop kept alive between requests::

    from repro.service import ProgramStore, SynthesisService, create_server

    service = SynthesisService(catalog, store=ProgramStore("programs/"))
    result, status = service.learn(examples, save_as="expand-codes")
    service.fill("expand-codes", rows)          # serve by name, no synthesis

    server = create_server(service, port=8765)  # POST /learn, POST /fill,
    server.serve_forever()                      # GET /programs|/healthz|/stats

Many named catalogs, updated copy-on-write at runtime (old snapshots
stay valid for in-flight requests; every cache is keyed by content
fingerprint)::

    registry = CatalogRegistry()                # or CatalogRegistry(root=DIR)
    registry.register("products", [comp_table])
    service = SynthesisService(registry=registry, default_catalog="products")
    service.learn(examples, catalog="products")
    registry.append_rows("products", "Comp", new_rows)   # copy-on-write
    service.fill(payload, rows, catalog="products")      # new snapshot

``repro serve`` wires the same stack up from the command line
(``--catalog-root DIR`` for lazy multi-catalog serving).  Modules:
:mod:`repro.service.registry` (named frozen catalog snapshots),
:mod:`repro.service.store` (named, versioned ``Program.to_dict``
artifacts), :mod:`repro.service.service` (the thread-safe facade and its
LRU request cache), :mod:`repro.service.http` (the JSON API's
:class:`ServiceApi` routing core), :mod:`repro.service.async_http` (the
asyncio HTTP server built by :func:`create_server`: fills on the cheap
in-process lane, learns toward the worker pool),
:mod:`repro.service.pool` (the shared-snapshot worker-process pool
behind ``repro serve --workers N``).
"""

from repro.service.async_http import AsyncSynthesisServer, create_server
from repro.service.http import ServiceApi
from repro.service.pool import WorkerPool
from repro.service.registry import DEFAULT_CATALOG, CatalogRegistry
from repro.service.service import (
    CACHE_HIT,
    CACHE_MISS,
    LearnReply,
    RequestCache,
    SynthesisService,
)
from repro.service.store import ProgramStore, StoredProgram, parse_program_ref

__all__ = [
    "AsyncSynthesisServer",
    "CACHE_HIT",
    "CACHE_MISS",
    "CatalogRegistry",
    "DEFAULT_CATALOG",
    "LearnReply",
    "ProgramStore",
    "RequestCache",
    "ServiceApi",
    "StoredProgram",
    "SynthesisService",
    "WorkerPool",
    "create_server",
    "parse_program_ref",
]
