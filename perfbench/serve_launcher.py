"""Start ``repro serve`` with spans around the service's public calls.

Usage::

    python3 perfbench/serve_launcher.py REPORT.json serve --async --workers 1 ...

Everything after the report path is handed to the ``repro`` command line
unchanged.  Before it starts, the launcher wraps ``SynthesisService.learn``
and ``SynthesisService.fill`` (fills that name matchers are recorded as
``matching.fill``), ``WorkerPool.synthesize``, ``CatalogRegistry.append_rows``,
``Revalidator.on_event`` and ``ProgramStore.amend``.  When the server exits
(SIGTERM), it writes the spans, and per pool job the hop (the job's wall
time minus the ``elapsed_seconds`` the worker reported), to REPORT.json.
Span times come from ``time.perf_counter``, a system-wide monotonic clock
on Linux, so the caller can line them up with its own.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import List, Tuple

from harness import require_source
from spans import Tracer


def main(argv: List[str]) -> int:
    report = Path(argv[0])
    require_source()
    from repro.cli import main as cli_main
    from repro.service import CatalogRegistry, ProgramStore, SynthesisService, WorkerPool
    from repro.service.revalidate import Revalidator

    tracer = Tracer()
    hops: List[Tuple[float, float]] = []  # (job start, hop seconds)
    fill = SynthesisService.fill
    synthesize = WorkerPool.synthesize

    def traced_fill(self, program, rows, catalog=None, matchers=None):
        with tracer.span("matching.fill" if matchers else "service.fill"):
            return fill(self, program, rows, catalog=catalog, matchers=matchers)

    def timed_synthesize(self, catalog, task, k=5, timeout=None):
        started = time.perf_counter()
        payload = synthesize(self, catalog, task, k=k, timeout=timeout)
        hops.append((started, time.perf_counter() - started - payload["elapsed_seconds"]))
        return payload

    tracer.replace(SynthesisService, "fill", traced_fill)
    tracer.replace(WorkerPool, "synthesize", timed_synthesize)
    tracer.wrap(SynthesisService, "learn", "service.learn")
    tracer.wrap(CatalogRegistry, "append_rows", "registry.append")
    tracer.wrap(Revalidator, "on_event", "changefeed.event")
    tracer.wrap(ProgramStore, "amend", "changefeed.amend")
    code = cli_main(argv[1:])
    report.write_text(
        json.dumps({"spans": [asdict(span) for span in tracer.spans], "hops": hops}),
        encoding="utf-8",
    )
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
