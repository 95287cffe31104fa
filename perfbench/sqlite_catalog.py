"""sqlite-catalog: an in-process service over the SQLite storage tier.

Set-up ingests a seeded 5k-row catalog into ``CatalogRegistry(storage=
"sqlite")`` and pins two programs to it in a program store (learned on a
small in-memory slice, saved against the stored snapshot).  The run is a
closed loop of two caller threads: one appends 50-row batches, the other
fills 1000-row chunks against the pinned ``name@1`` references.  Fill
outputs are checked against the values the generator computed.
"""

from __future__ import annotations

import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import Outcome, end_to_end, median_of, peak_rss_mb, quantile, tail_quantile, work_dir
from spans import Tracer

IMPORTS = ("repro.api.engine", "repro.service", "repro.storage.sqlite")

SETUP_REPEATS = 3
ROWS = 5_000
SLICE = 60
APPEND_ROWS = 50
FILL_ROWS = 1000
CITIES = tuple(f"City{n:03d}" for n in range(400))


@dataclass
class Setup:
    root: Path
    service: object
    table: List[Tuple[str, str, str]]
    programs: Dict[str, str]  # pinned reference -> output template


def expected_output(template: str, row: Tuple[str, str, str]) -> str:
    return row[1] if template == "name" else f"{row[1]} @ {row[2]}"


def build(seed: int, base: Path) -> Setup:
    from repro.api.engine import Synthesizer
    from repro.service import CatalogRegistry, ProgramStore, SynthesisService
    from repro.tables.catalog import Catalog
    from repro.tables.table import Table

    rng = random.Random(seed)
    root = base / f"setup-{time.monotonic_ns()}"
    table = [
        (f"k{i}", f"N{rng.randrange(10**7):07d}x{i}", CITIES[rng.randrange(len(CITIES))])
        for i in range(ROWS)
    ]
    columns = ["Id", "Name", "City"]
    registry = CatalogRegistry(root=root / "catalogs", storage="sqlite")
    service = SynthesisService(registry=registry, store=ProgramStore(root / "programs"))
    registry.register("main", Catalog([Table("Comp", columns, table, keys=[("Id",)])]))
    small = Synthesizer(Catalog([Table("Comp", columns, table[:SLICE], keys=[("Id",)])]))
    snapshot = registry.get("main")
    programs = {}
    for template in ("name", "label"):
        examples = [((row[0],), expected_output(template, row)) for row in (table[3], table[11])]
        learned = small.synthesize(examples, k=1).program
        stored = service.save_program(template, learned, catalog_name="main", snapshot=snapshot)
        programs[f"{template}@{stored.version}"] = template
    return Setup(root, service, table, programs)


def trace_layers(tracer: Tracer) -> None:
    import repro.service.registry as registry_module
    from repro.service import CatalogRegistry, SynthesisService
    from repro.storage.sqlite import SQLiteBackend

    tracer.wrap(registry_module, "ingest_catalog", "storage.ingest")
    tracer.wrap(SQLiteBackend, "append_rows", "storage.append")
    tracer.wrap(CatalogRegistry, "append_rows", "registry.append")
    tracer.wrap(SynthesisService, "fill", "storage.fill")


def run(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    outcome = Outcome()
    base = work_dir("sqlite-catalog")
    if tracer is not None:
        trace_layers(tracer)
    built: List[Setup] = []

    def setup() -> Setup:
        for old in built:
            old.service.close()
            shutil.rmtree(old.root, ignore_errors=True)
        built[:] = [build(seed, base)]
        return built[0]

    try:
        setup_s, state = median_of(SETUP_REPEATS, setup)
        ingest_spans = len(tracer.spans) if tracer is not None else 0
        service, registry = state.service, state.service.registry
        append_ms: List[float] = []
        fill_s: List[float] = []
        failures: List[str] = []
        counts = {"appends": 0, "fills": 0, "rows": 0}
        stop = time.perf_counter() + seconds
        rng = random.Random(seed + 1)
        queries = [
            [state.table[rng.randrange(ROWS)] for _ in range(FILL_ROWS)] for _ in range(64)
        ]

        def appender() -> None:
            serial = 0
            while time.perf_counter() < stop:
                batch = [
                    (f"n{serial + j}", f"Added{serial + j}", CITIES[(serial + j) % len(CITIES)])
                    for j in range(APPEND_ROWS)
                ]
                serial += APPEND_ROWS
                begin = time.perf_counter()
                try:
                    registry.append_rows("main", "Comp", batch)
                except Exception as error:  # noqa: BLE001 -- counted as failed
                    failures.append(f"append: {type(error).__name__}: {error}")
                append_ms.append((time.perf_counter() - begin) * 1e3)
                counts["appends"] += 1

        def filler() -> None:
            refs = list(state.programs.items())
            turn = 0
            while time.perf_counter() < stop:
                reference, template = refs[turn % len(refs)]
                rows = queries[turn % len(queries)]
                turn += 1
                begin = time.perf_counter()
                try:
                    outputs = service.fill(reference, [[row[0]] for row in rows])
                except Exception as error:  # noqa: BLE001 -- counted as failed
                    failures.append(f"fill {reference}: {type(error).__name__}: {error}")
                    continue
                fill_s.append(time.perf_counter() - begin)
                counts["fills"] += 1
                counts["rows"] += len(rows)
                failures.extend(
                    f"{reference}: {row[0]!r} -> {got!r}"
                    for row, got in zip(rows, outputs)
                    if got != expected_output(template, row)
                )

        threads = [threading.Thread(target=appender), threading.Thread(target=filler)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a caller thread did not finish")
        outcome.check_many(counts["appends"] + counts["rows"], failures)
        service.revalidator.wait_idle()
        hot = registry.tier_info("main").get("hot_cache", {})
        db_mb = sum(p.stat().st_size for p in (state.root / "catalogs").rglob("*") if p.is_file()) / 2**20
    finally:
        if tracer is not None:
            tracer.restore()
        for old in built:
            old.service.close()
        shutil.rmtree(base, ignore_errors=True)

    # Throughput from the median fill resists the machine's short stalls.
    rows_per_s = FILL_ROWS / statistics.median(fill_s)
    # The latency metric is the fill's: append latency depends on how the
    # two threads interleave and spread 35% between runs.
    end_to_end(
        outcome,
        setup_s=setup_s,
        rss_mb=peak_rss_mb(),
        work_per_s=rows_per_s,
        latencies_ms=[seconds_ * 1e3 for seconds_ in fill_s],
        tail_wanted=0.90,
    )
    append_tail = tail_quantile(len(append_ms), 0.90)
    outcome.detail.update(
        {
            "fill_rows_per_s": (rows_per_s, "1/s"),
            "append_p50_ms": (quantile(append_ms, 0.5), "ms"),
            "append_tail_ms": (quantile(append_ms, append_tail), "ms"),
            "append_tail_quantile": (append_tail, "share"),
            "appends": (float(counts["appends"]), "count"),
            "fills": (float(counts["fills"]), "count"),
        }
    )
    if tracer is not None:
        own = tracer.self_times()
        layers = outcome.layers
        ingest = [s.seconds for s in tracer.spans[:ingest_spans] if s.name == "storage.ingest"]
        layers["storage.ingest_s"] = (sum(ingest) / SETUP_REPEATS, "s")
        layers["storage.append_s"] = (own.get("storage.append", (0.0, 0))[0], "s")
        layers["registry.append_s"] = (own.get("registry.append", (0.0, 0))[0], "s")
        layers["storage.fill_s"] = (own.get("storage.fill", (0.0, 0))[0], "s")
        layers["storage.hot_cache.hit_ratio"] = (float(hot.get("hit_rate", 0.0)), "share")
        layers["storage.db_mb"] = (db_mb, "MB")
    return outcome
