"""Service-layer benchmark: request-cache speedup + HTTP fill throughput.

Measures the ``repro.service`` stack end to end over real HTTP (the
in-process asyncio server on an ephemeral port):

* ``learn_cache`` -- wall-clock of a cold ``POST /learn`` (first time a
  task is seen; measured over several distinct tasks so engine-level
  memos cannot masquerade as the request cache) vs a cached repeat of
  the same request.  The acceptance floor is a >=10x speedup; cache
  hit/miss counts are cross-checked against ``GET /stats``.
* ``fill_throughput`` -- rows/second of concurrent ``POST /fill``
  requests serving a stored program (4 client threads), reported
  informationally (requests/s is machine-bound).
* ``learn_scaling`` -- served cold-learn throughput, worker-process
  pool (``--workers 4``) vs in-process.  Gated at an absolute
  >=3x/--factor floor on runners with >= 4 CPUs; reported
  informationally below that (a 1-CPU runner cannot scale).
* ``revalidation_latency`` -- wall-clock from a grow-only row append on
  a 10k-cell catalog to the changefeed revalidator having *rebound*
  every stored program (the window in which a stale-fingerprint 409 is
  even possible).  Gated at an absolute <= 250ms p50.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py                # run + print
    PYTHONPATH=src python benchmarks/bench_service.py --out BENCH_service.json
    PYTHONPATH=src python benchmarks/bench_service.py --quick \
        --check BENCH_service.json            # CI: fail on >2x regression
    PYTHONPATH=src python benchmarks/bench_service.py --smoke        # CI: boot the
        # real `repro serve` subprocess, hit /learn + /fill + /healthz, and
        # assert the repeated learn is served from the request cache

``--check`` compares the cache speedup against the committed baseline
(floor = baseline / --factor) and additionally enforces the absolute
>=10x acceptance floor.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.service import (
    ProgramStore,
    SynthesisService,
    WorkerPool,
    create_server,
)
from repro.tables.catalog import Catalog
from repro.tables.table import Table

#: Absolute acceptance floor for the cached-relearn speedup.
CACHE_SPEEDUP_FLOOR = 10.0

#: Absolute acceptance floor for pooled learn throughput at 4 workers,
#: enforced only on runners with >= LEARN_SCALING_MIN_CPUS CPUs.
LEARN_SCALING_FLOOR = 3.0
LEARN_SCALING_MIN_CPUS = 4

#: Absolute acceptance floor: compiled-plan fill throughput vs the AST
#: interpreter, single thread, fully distinct rows (no row-memo help).
COMPILED_FILL_SPEEDUP_FLOOR = 10.0

#: Streaming fill peak RSS must not scale with row count: the ceiling on
#: peak_rss(10N rows) / peak_rss(N rows).
STREAM_RSS_RATIO_CEILING = 1.5

#: Absolute acceptance ceiling on the append->rebound p50 latency for a
#: 10k-cell catalog: the stale window a client can observe a 409 in.
REVALIDATION_P50_CEILING_MS = 250.0

NAMES = [
    "Microsoft", "Google", "Apple", "Facebook", "IBM", "Xerox", "Intel",
    "Oracle", "Cisco", "Adobe", "Nvidia", "Amazon", "Netflix", "Tesla",
    "Siemens", "Philips",
]


def bench_catalog(num_rows: int = 256) -> Catalog:
    rows = [
        (f"c{r}", f"{NAMES[r % len(NAMES)]}{r}") for r in range(num_rows)
    ]
    return Catalog([Table("Comp", ["Id", "Name"], rows, keys=[("Id",)])])


def learn_tasks(catalog: Catalog, count: int) -> List[Dict[str, Any]]:
    """``count`` distinct learn request bodies (same shape, different keys)."""
    table = catalog.table("Comp")
    tasks = []
    for index in range(count):
        # Five ids per example: long enough that cold synthesis does real
        # dag-product work (the quantity the request cache amortizes).
        ids = [f"c{(index * 5 + offset) % table.num_rows}" for offset in range(5)]
        names = [table.lookup("Name", {"Id": one}) for one in ids]
        tasks.append(
            {"examples": [[[" ".join(ids)], " ".join(names)]]}
        )
    return tasks


# -- HTTP client helpers ------------------------------------------------------
class Client:
    def __init__(self, base: str) -> None:
        self.base = base

    def get(self, path: str) -> Dict[str, Any]:
        with urllib.request.urlopen(self.base + path, timeout=60) as reply:
            return json.loads(reply.read().decode("utf-8"))

    def post(self, path: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._send("POST", path, payload)

    def put(self, path: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._send("PUT", path, payload)

    def _send(self, method: str, path: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        request = urllib.request.Request(
            self.base + path,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method=method,
        )
        with urllib.request.urlopen(request, timeout=120) as reply:
            return json.loads(reply.read().decode("utf-8"))


def start_server(service: SynthesisService):
    server = create_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return server, Client(f"http://{host}:{port}")


# -- benchmarks ---------------------------------------------------------------
def bench_learn_cache(num_tasks: int, hit_repeats: int) -> Dict[str, float]:
    service = SynthesisService(bench_catalog())
    server, client = start_server(service)
    try:
        tasks = learn_tasks(service.engine.catalog, num_tasks)
        cold_times = []
        for task in tasks:
            started = time.perf_counter()
            reply = client.post("/learn", task)
            cold_times.append(time.perf_counter() - started)
            assert reply["cache"] == "miss", "cold request unexpectedly cached"
        hit_times = []
        for _ in range(hit_repeats):
            for task in tasks:
                started = time.perf_counter()
                reply = client.post("/learn", task)
                hit_times.append(time.perf_counter() - started)
                assert reply["cache"] == "hit", "repeat request missed the cache"
        stats = client.get("/stats")["request_cache"]
        assert stats["misses"] == num_tasks
        assert stats["hits"] == num_tasks * hit_repeats
        cold_s = sum(cold_times) / len(cold_times)
        hit_s = sum(hit_times) / len(hit_times)
        return {
            "cold_s": cold_s,
            "cached_s": hit_s,
            "speedup": cold_s / hit_s,
            "cache_hit_rate": stats["hit_rate"],
        }
    finally:
        server.shutdown()
        server.server_close()


def bench_fill_throughput(
    num_requests: int, rows_per_request: int, workers: int
) -> Dict[str, float]:
    service = SynthesisService(bench_catalog())
    server, client = start_server(service)
    try:
        task = learn_tasks(service.engine.catalog, 1)[0]
        program = client.post("/learn", task)["programs"][0]["program"]
        num_rows = service.engine.catalog.table("Comp").num_rows
        rows = [
            [" ".join(f"c{(r + offset) % num_rows}" for offset in range(5))]
            for r in range(rows_per_request)
        ]
        body = {"program": program, "rows": rows}

        def one(_):
            reply = client.post("/fill", body)
            assert reply["rows"] == rows_per_request
            return reply

        one(0)  # warm the table index outside the timed region
        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(one, range(num_requests)))
        elapsed = time.perf_counter() - started
        return {
            "elapsed_s": elapsed,
            "requests_per_s": num_requests / elapsed,
            "rows_per_s": num_requests * rows_per_request / elapsed,
        }
    finally:
        server.shutdown()
        server.server_close()


def _fill_bench_program(catalog: Catalog):
    """A representative synthesized shape: a table lookup keyed by a
    substring of the input, concatenated with a positional slice."""
    from repro.core.exprs import Var
    from repro.engine.program import Program
    from repro.lookup.ast import Select
    from repro.syntactic.ast import Concatenate, ConstStr, CPos, Pos, SubStr
    from repro.syntactic.tokens import TOKENS

    whitespace = next(t.ident for t in TOKENS if t.name == "WsTok")
    key = SubStr(Var(0), CPos(0), Pos((), (whitespace,), 1))
    expr = Concatenate(
        (
            Select("Name", "Comp", (("Id", key),)),
            ConstStr(" / "),
            SubStr(Var(0), Pos((), (whitespace,), 1), CPos(-1)),
        )
    )
    return Program(expr, catalog, "semantic", 1)


def bench_fill_compiled_speedup(num_rows: int) -> Dict[str, float]:
    """Single-thread compiled plan vs AST interpreter, distinct rows.

    Every input row is unique, so the compiled plan's bounded row memo
    never hits: the measured gap is plan execution (pre-resolved
    handles, fused lookups, precompiled position closures) against tree
    interpretation, nothing else.  Outputs are asserted byte-identical.
    """
    catalog = bench_catalog()
    program = _fill_bench_program(catalog)
    table_rows = catalog.table("Comp").num_rows
    rows = [[f"c{r % table_rows} tail{r}"] for r in range(num_rows)]
    plan = program.compile()
    # Warm token/regex caches on both paths outside the timed region.
    assert plan.fill_aligned(rows[:64]) == program.fill_aligned_interpreted(
        rows[:64]
    )
    started = time.perf_counter()
    interpreted = program.fill_aligned_interpreted(rows)
    interpreted_s = time.perf_counter() - started
    started = time.perf_counter()
    compiled = plan.fill_aligned(rows)
    compiled_s = time.perf_counter() - started
    assert compiled == interpreted, "compiled fill diverged from interpreter"
    return {
        "rows": float(num_rows),
        "interpreted_rows_per_s": num_rows / interpreted_s,
        "compiled_rows_per_s": num_rows / compiled_s,
        "compiled_speedup": interpreted_s / compiled_s,
    }


def _peak_rss_kb() -> int:
    """This process's peak resident set, in KiB (VmHWM, getrusage fallback)."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _rss_child(num_rows: int) -> int:
    """Child-process body for the streaming-RSS probe: stream ``num_rows``
    through the compiled fill path row by row, then print peak RSS."""
    catalog = bench_catalog()
    plan = _fill_bench_program(catalog).compile()
    table_rows = catalog.table("Comp").num_rows

    def rows():
        for r in range(num_rows):
            yield [f"c{r % table_rows} tail{r}"]

    count = sum(1 for _ in plan.fill_iter(rows()))
    assert count == num_rows
    print(_peak_rss_kb())
    return 0


def bench_fill_streaming_rss(base_rows: int) -> Dict[str, float]:
    """Peak RSS of a streaming fill at N rows vs 10N rows.

    Each measurement is a fresh child process (so the high-water mark
    belongs to that stream alone).  A bounded ratio means the streaming
    path holds one chunk, not the whole row set.
    """

    def probe(num_rows: int) -> int:
        reply = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--rss-child", str(num_rows)],
            capture_output=True,
            text=True,
            check=True,
            timeout=600,
        )
        return int(reply.stdout.strip())

    small_kb = probe(base_rows)
    large_kb = probe(base_rows * 10)
    return {
        "rows_small": float(base_rows),
        "rows_large": float(base_rows * 10),
        "rss_small_mb": small_kb / 1024.0,
        "rss_large_mb": large_kb / 1024.0,
        "rss_ratio": large_kb / small_kb,
    }


def bench_learn_scaling(
    num_tasks: int, workers: int, clients: int = 8
) -> Dict[str, float]:
    """Served learn throughput: worker-process pool vs in-process.

    Both sides run the HTTP server with ``clients`` concurrent
    HTTP clients posting ``num_tasks`` *distinct* cold learns (every one
    a request-cache miss).  Without a pool the learn lane is GIL-bound
    (~1 core no matter how many client threads); with ``--workers N``
    each learn runs on its own process, so throughput scales with cores.
    """

    def served(pool_workers: int) -> float:
        service = SynthesisService(bench_catalog())
        pool = None
        if pool_workers:
            pool = WorkerPool(
                pool_workers, catalogs=[service.engine.catalog]
            )
            service.attach_pool(pool)
        server = create_server(service, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = Client(f"http://{host}:{port}")
        try:
            tasks = learn_tasks(service.engine.catalog, num_tasks)
            client.get("/healthz")  # connection + loop warm
            started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=clients) as tp:
                replies = list(
                    tp.map(lambda task: client.post("/learn", task), tasks)
                )
            elapsed = time.perf_counter() - started
            assert all(r["cache"] == "miss" for r in replies)
            if pool is not None:
                dispatched = client.get("/stats")["requests"]["pool_dispatched"]
                assert dispatched == num_tasks, (
                    f"only {dispatched}/{num_tasks} learns hit the pool"
                )
            return elapsed
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
            service.close()

    single_s = served(0)
    pooled_s = served(workers)
    return {
        "single_s": single_s,
        "pooled_s": pooled_s,
        "speedup": single_s / pooled_s,
        "learns_per_s_single": num_tasks / single_s,
        "learns_per_s_pooled": num_tasks / pooled_s,
        "workers": workers,
        "cpus": os.cpu_count() or 1,
    }


def bench_revalidation_latency(num_rows: int, repeats: int) -> Dict[str, float]:
    """Append->rebound wall clock through the changefeed, p50/p95.

    One stored program is bound to a ``num_rows``-row (2-column, so
    ``2 * num_rows`` cells) catalog.  Each iteration appends a single
    grow-only row and blocks until the revalidator has drained -- i.e.
    until the stored artifact's provenance fingerprint matches the new
    snapshot again and a ``name@version`` fill can no longer 409.  The
    measured span covers the copy-on-write append, the feed diff
    (prefix fingerprint over the full table), and the rebind rewrite.
    """
    with tempfile.TemporaryDirectory() as tmp:
        service = SynthesisService(
            bench_catalog(num_rows), store=ProgramStore(Path(tmp) / "programs")
        )
        try:
            table = service.engine.catalog.table("Comp")
            body = learn_tasks(service.engine.catalog, 1)[0]
            task = [(tuple(inp), out) for inp, out in body["examples"]]
            reply = service.learn(task, save_as="reval")
            assert reply.stored is not None, "save_as did not persist"
            ref = f"reval@{reply.stored.version}"
            assert service.revalidator.wait_idle(), "revalidator stuck"
            before = service.revalidator.stats()["rebound"]
            latencies = []
            for index in range(repeats):
                row = [f"x{index}", f"Extra{index}"]
                started = time.perf_counter()
                service.registry.append_rows("default", "Comp", [row])
                assert service.revalidator.wait_idle(), "revalidator stuck"
                latencies.append(time.perf_counter() - started)
            stats = service.revalidator.stats()
            assert stats["rebound"] >= before + repeats, stats
            assert stats["stale"] == 0, stats
            # The pre-append reference still serves: every append was
            # grow-only, so the artifact was rebound, never staled.
            ids = [f"c{10 + offset}" for offset in range(5)]
            expected = " ".join(
                table.lookup("Name", {"Id": one}) for one in ids
            )
            outputs = service.fill(ref, [[" ".join(ids)]])
            assert outputs == [expected], outputs
            latencies.sort()
            return {
                "cells": float(2 * num_rows),
                "repeats": float(repeats),
                "revalidation_p50_ms": latencies[len(latencies) // 2] * 1e3,
                "revalidation_p95_ms": (
                    latencies[min(len(latencies) - 1,
                                  int(len(latencies) * 0.95))] * 1e3
                ),
            }
        finally:
            service.close()


# -- harness ------------------------------------------------------------------
def run_suite(quick: bool) -> Dict[str, Dict[str, float]]:
    num_tasks = 4 if quick else 12
    hit_repeats = 5 if quick else 20
    results: Dict[str, Dict[str, float]] = {}
    # Stable names (sample counts recorded in the rows, not the keys) so
    # --quick runs can be checked against a full-run baseline.
    name = "learn_cache"
    print(f"running {name}[tasks={num_tasks}] ...", flush=True)
    results[name] = {"tasks": num_tasks, **bench_learn_cache(num_tasks, hit_repeats)}
    requests = 40 if quick else 200
    name = "fill_throughput[rows=100,workers=4]"
    print(f"running {name}[requests={requests}] ...", flush=True)
    results[name] = {
        "requests": requests,
        **bench_fill_throughput(requests, rows_per_request=100, workers=4),
    }
    name = "learn_scaling[workers=4]"
    print(f"running {name}[tasks={num_tasks}] ...", flush=True)
    results[name] = {
        "tasks": num_tasks,
        **bench_learn_scaling(num_tasks, workers=4),
    }
    compiled_rows = 20_000 if quick else 100_000
    name = "fill_compiled_speedup[single-thread]"
    print(f"running {name}[rows={compiled_rows}] ...", flush=True)
    results[name] = bench_fill_compiled_speedup(compiled_rows)
    rss_rows = 20_000 if quick else 100_000
    name = "fill_streaming_rss[x10-rows]"
    print(f"running {name}[rows={rss_rows}] ...", flush=True)
    results[name] = bench_fill_streaming_rss(rss_rows)
    reval_repeats = 5 if quick else 15
    name = "revalidation_latency[cells=10k]"
    print(f"running {name}[repeats={reval_repeats}] ...", flush=True)
    results[name] = bench_revalidation_latency(5000, reval_repeats)
    return results


def render(results: Dict[str, Dict[str, float]]) -> List[str]:
    lines = []
    for name, row in results.items():
        if "compiled_speedup" in row:
            lines.append(
                f"{name}: interpreted {row['interpreted_rows_per_s']:.0f} "
                f"rows/s | compiled {row['compiled_rows_per_s']:.0f} rows/s "
                f"| speedup {row['compiled_speedup']:.1f}x"
            )
        elif "rss_ratio" in row:
            lines.append(
                f"{name}: peak RSS {row['rss_small_mb']:.1f}MB @ "
                f"{row['rows_small']:.0f} rows | {row['rss_large_mb']:.1f}MB "
                f"@ {row['rows_large']:.0f} rows | ratio {row['rss_ratio']:.2f}"
            )
        elif "revalidation_p50_ms" in row:
            lines.append(
                f"{name}: append->rebound p50 "
                f"{row['revalidation_p50_ms']:.1f}ms | p95 "
                f"{row['revalidation_p95_ms']:.1f}ms "
                f"({row['cells']:.0f} cells)"
            )
        elif "cold_s" in row:
            lines.append(
                f"{name}: cold {row['cold_s'] * 1e3:.1f}ms | cached "
                f"{row['cached_s'] * 1e3:.2f}ms | speedup {row['speedup']:.0f}x"
            )
        elif "single_s" in row:
            lines.append(
                f"{name}: single {row['learns_per_s_single']:.1f} learns/s | "
                f"pooled {row['learns_per_s_pooled']:.1f} learns/s | "
                f"speedup {row['speedup']:.2f}x ({row['cpus']:.0f} CPUs)"
            )
        else:
            lines.append(
                f"{name}: {row['requests_per_s']:.0f} req/s | "
                f"{row['rows_per_s']:.0f} rows/s"
            )
    return lines


def check_regression(
    results: Dict[str, Dict[str, float]], baseline_path: Path, factor: float
) -> int:
    payload = json.loads(baseline_path.read_text())
    baseline = payload["results"]
    meta = payload.get("meta", {})
    # Baseline honesty: say what machine the committed numbers came from
    # before judging this runner against them.
    print(
        f"baseline env: python {meta.get('python', '?')} | "
        f"{meta.get('cpu_count', '?')} CPU(s) | "
        f"{meta.get('timestamp', 'undated')}"
    )
    print(
        f"runner env:   python {sys.version.split()[0]} | "
        f"{os.cpu_count() or 1} CPU(s) | "
        f"{datetime.now(timezone.utc).isoformat(timespec='seconds')}"
    )
    failures = []
    for name, row in results.items():
        if "compiled_speedup" in row:
            # Compiled fill plan: absolute floor, machine-independent
            # (same-run, same-machine interpreter comparison).
            floor = COMPILED_FILL_SPEEDUP_FLOOR / factor
            status = "ok" if row["compiled_speedup"] >= floor else "REGRESSION"
            print(
                f"{status:>10}  {name}: compiled fill speedup "
                f"{row['compiled_speedup']:.1f}x (floor {floor:.1f}x, "
                f"acceptance {COMPILED_FILL_SPEEDUP_FLOOR:.0f}x / --factor)"
            )
            if status != "ok":
                failures.append(name)
            continue
        if "rss_ratio" in row:
            # Streaming memory: peak RSS must not track row count.
            status = (
                "ok" if row["rss_ratio"] <= STREAM_RSS_RATIO_CEILING
                else "REGRESSION"
            )
            print(
                f"{status:>10}  {name}: peak RSS ratio at 10x rows "
                f"{row['rss_ratio']:.2f} "
                f"(ceiling {STREAM_RSS_RATIO_CEILING:.1f})"
            )
            if status != "ok":
                failures.append(name)
            continue
        if "revalidation_p50_ms" in row:
            # Stale window: absolute ms ceiling, --factor as headroom on
            # slow runners (acceptance is the unscaled 250ms).
            ceiling = REVALIDATION_P50_CEILING_MS * factor
            status = (
                "ok" if row["revalidation_p50_ms"] <= ceiling
                else "REGRESSION"
            )
            print(
                f"{status:>10}  {name}: append->rebound p50 "
                f"{row['revalidation_p50_ms']:.1f}ms (ceiling {ceiling:.0f}ms, "
                f"acceptance {REVALIDATION_P50_CEILING_MS:.0f}ms * --factor)"
            )
            if status != "ok":
                failures.append(name)
            continue
        if "single_s" in row:
            # Pooled learn scaling: only gated where extra cores exist.
            cpus = int(row.get("cpus", 1))
            if cpus < LEARN_SCALING_MIN_CPUS:
                print(
                    f"      skip  {name}: {cpus} CPU(s) -- pooled learns "
                    f"cannot beat single-core here (speedup "
                    f"{row['speedup']:.2f}x, informational)"
                )
                continue
            floor = LEARN_SCALING_FLOOR / factor
            status = "ok" if row["speedup"] >= floor else "REGRESSION"
            print(
                f"{status:>10}  {name}: pooled learn speedup "
                f"{row['speedup']:.2f}x on {cpus} CPUs (floor {floor:.1f}x, "
                f"acceptance {LEARN_SCALING_FLOOR:.0f}x / --factor)"
            )
            if status != "ok":
                failures.append(name)
            continue
        if "speedup" not in row:
            print(f"      info  {name}: {row['requests_per_s']:.0f} req/s "
                  "(throughput is machine-bound; not gated)")
            continue
        floors = [CACHE_SPEEDUP_FLOOR]
        reference = baseline.get(name)
        if reference is not None:
            floors.append(reference["speedup"] / factor)
        floor = max(floors)
        status = "ok" if row["speedup"] >= floor else "REGRESSION"
        print(
            f"{status:>10}  {name}: speedup {row['speedup']:.0f}x "
            f"(floor {floor:.0f}x, absolute acceptance floor "
            f"{CACHE_SPEEDUP_FLOOR:.0f}x)"
        )
        if status != "ok":
            failures.append(name)
    if failures:
        print(f"\nperf regression in: {', '.join(failures)}")
        return 1
    print("\nno perf regressions")
    return 0


# -- smoke mode: the real `repro serve` subprocess ---------------------------
def _start_serve(src: Path, args: List[str]) -> "tuple":
    """Boot a ``repro serve`` subprocess; return (process, client)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    banner = process.stdout.readline().strip()
    if not banner.startswith("serving on http://"):
        process.terminate()
        raise AssertionError(
            f"serve did not boot: banner={banner!r}, "
            f"stderr={process.stderr.read()!r}"
        )
    return process, Client(banner.split("serving on ", 1)[1])


def _process_rss_kb(pid: int) -> Optional[int]:
    """Another process's current resident set in KiB (None off-Linux)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _stream_fill(
    base: str, program: Dict[str, Any], inputs, chunk: int = 4096
) -> List[Any]:
    """POST /fill/stream with a chunked NDJSON request body.

    The request body is written from a separate thread while this one
    reads the chunked response, so client and server stream
    concurrently -- neither side ever holds the full row set.  Returns
    the decoded NDJSON response lines.
    """
    import http.client as http_client

    host, _, port = base.rpartition("//")[2].partition(":")
    sock = socket.create_connection((host, int(port)), timeout=300)
    failures: List[BaseException] = []

    def send() -> None:
        try:
            sock.sendall(
                (
                    "POST /fill/stream HTTP/1.1\r\n"
                    f"Host: {host}\r\n"
                    "Transfer-Encoding: chunked\r\n"
                    "Content-Type: application/x-ndjson\r\n\r\n"
                ).encode("ascii")
            )

            def chunk_out(data: bytes) -> None:
                sock.sendall(
                    hex(len(data))[2:].encode("ascii") + b"\r\n" + data + b"\r\n"
                )

            header = json.dumps({"program": program, "chunk": chunk}) + "\n"
            chunk_out(header.encode("utf-8"))
            batch: List[str] = []
            for row in inputs:
                batch.append(json.dumps(row))
                if len(batch) >= 1000:
                    chunk_out(("\n".join(batch) + "\n").encode("utf-8"))
                    batch = []
            if batch:
                chunk_out(("\n".join(batch) + "\n").encode("utf-8"))
            sock.sendall(b"0\r\n\r\n")
        except BaseException as error:  # relayed to the reading thread
            failures.append(error)

    writer = threading.Thread(target=send, daemon=True)
    writer.start()
    response = http_client.HTTPResponse(sock, method="POST")
    response.begin()
    assert response.status == 200, (response.status, response.read()[:200])
    raw = response.read()
    writer.join(timeout=60)
    sock.close()
    if failures:
        raise failures[0]
    return [
        json.loads(line) for line in raw.decode("utf-8").splitlines() if line
    ]


def _stop_serve(process: subprocess.Popen) -> str:
    """SIGTERM the server, assert the graceful exit contract, return stderr."""
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=15)
    except subprocess.TimeoutExpired:
        process.kill()
        raise AssertionError("serve did not exit within 15s of SIGTERM")
    stderr = process.stderr.read()
    assert process.returncode == 0, (
        f"SIGTERM exit code {process.returncode}, stderr={stderr!r}"
    )
    assert "shutdown: SIGTERM received" in stderr, stderr
    return stderr


def run_smoke() -> int:
    """Boot ``repro serve --catalog-root``: default + lazy + uploaded catalogs.

    Covers the whole multi-catalog surface end to end: the ``--table``
    default catalog (request-cache assertion as before), a catalog
    lazily loaded from the root directory, a second catalog uploaded
    over HTTP (``PUT /catalogs/<name>``), a copy-on-write row append
    (``POST /catalogs/<name>/rows``) served from the *new* snapshot,
    and learn/fill against each.  A second act stops the server with
    SIGTERM (asserting the graceful exit-0 contract), restarts it with
    ``--snapshots``, and asserts the snapshot cold-start serves fills
    identical to the rebuild path.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    with tempfile.TemporaryDirectory() as tmp:
        table_csv = Path(tmp) / "Comp.csv"
        table_csv.write_text(
            "Id,Name\nc1,Microsoft\nc2,Google\nc3,Apple\nc4,Facebook\n",
            encoding="utf-8",
        )
        root = Path(tmp) / "catalogs"
        (root / "geo").mkdir(parents=True)
        (root / "geo" / "Caps.csv").write_text(
            "Country,Capital\nFrance,Paris\nJapan,Tokyo\nChile,Santiago\n",
            encoding="utf-8",
        )
        process, client = _start_serve(
            src,
            [
                "--table", str(table_csv),
                "--catalog-root", str(root),
                "--port", "0",
                "--store", str(Path(tmp) / "programs"),
            ],
        )
        try:
            print(f"smoke: serving on {client.base}")

            health = client.get("/healthz")
            assert health["status"] == "ok", health
            print("smoke: /healthz ok")

            body = {
                "examples": [[["c4 c3 c1"], "Facebook Apple Microsoft"]],
                "save": "expand",
            }
            first = client.post("/learn", body)
            assert first["cache"] == "miss", first["cache"]
            assert first["saved"] == {"name": "expand", "version": 1}
            second = client.post("/learn", {"examples": body["examples"]})
            assert second["cache"] == "hit", (
                "repeated learn was NOT served from the request cache"
            )
            assert second["programs"] == first["programs"]
            print("smoke: /learn cached re-learn served from the request cache")

            filled = client.post(
                "/fill", {"program": "expand", "rows": [["c2 c3 c1"], []]}
            )
            assert filled["outputs"] == ["Google Apple Microsoft", ""], filled
            print("smoke: /fill ok (blank row preserved)")

            stats = client.get("/stats")
            assert stats["request_cache"]["hits"] >= 1, stats
            print("smoke: /stats reports the cache hit")

            # Lazy root catalog: learn + fill against it by name.
            assert "geo" in health["catalogs"], health
            learned = client.post(
                "/learn",
                {"examples": [[["France"], "Paris"]], "catalog": "geo"},
            )
            assert learned["catalog"]["name"] == "geo", learned["catalog"]
            geo_fill = client.post(
                "/fill",
                {
                    "program": learned["programs"][0]["program"],
                    "rows": [["Chile"]],
                    "catalog": "geo",
                },
            )
            assert geo_fill["outputs"] == ["Santiago"], geo_fill
            print("smoke: lazy --catalog-root catalog learned and filled")

            # Upload a second catalog over HTTP and use it immediately.
            put = client.put(
                "/catalogs/uploads",
                {
                    "tables": [
                        {
                            "name": "Codes",
                            "csv": "Code,City\nSEA,Seattle\nNYC,New York\n",
                        }
                    ]
                },
            )
            assert put["created"] is True, put
            uploaded = client.post(
                "/learn",
                {
                    "examples": [[["SEA"], "Seattle"]],
                    "catalog": "uploads",
                    "save": "codes",
                },
            )
            before = uploaded["catalog"]["fingerprint"]
            appended = client.post(
                "/catalogs/uploads/rows",
                {"table": "Codes", "rows": [["SFO", "San Francisco"]]},
            )
            assert appended["fingerprint"] != before, "append kept fingerprint"
            served = client.post(
                "/fill", {"program": "codes", "rows": [["SFO"]]}
            )
            # The appended row is served from the *new* snapshot; the
            # stored program re-resolves (its table only grew).
            assert served["outputs"] == ["San Francisco"], served
            print("smoke: uploaded catalog, appended rows, served new "
                  "snapshot -- all good")

            # The changefeed revalidator must *rebind* the stored
            # artifact after the grow-only append: wait for the queue to
            # drain, then the pinned pre-append version still fills with
            # 200 -- zero 409s on old references.
            deadline = time.monotonic() + 15
            while True:
                reval = client.get("/stats")["revalidation"]
                if reval["queued"] == 0 and reval["rebound"] >= 1:
                    break
                assert time.monotonic() < deadline, reval
                time.sleep(0.05)
            assert reval["stale"] == 0, reval
            pinned = client.post(
                "/fill", {"program": "codes@1", "rows": [["SFO"]]}
            )
            assert pinned["outputs"] == ["San Francisco"], pinned
            feed = client.get("/stats")["changefeed"]
            assert feed["uploads"]["head"] >= 2, feed
            print(
                "smoke: revalidator rebound codes@1 after the append "
                f"(feed head {feed['uploads']['head']}, "
                f"rebound {reval['rebound']}) -- no 409 on the old ref"
            )

            # -- act two: graceful SIGTERM, snapshot persist, cold-start --
            _stop_serve(process)
            print("smoke: SIGTERM -> graceful exit 0, state flushed")

            snap_args = [
                "--catalog-root", str(root), "--port", "0", "--snapshots",
            ]
            process, client = _start_serve(src, snap_args)
            warm = client.post(
                "/learn",
                {"examples": [[["France"], "Paris"]], "catalog": "geo"},
            )
            program = warm["programs"][0]["program"]
            warm_fill = client.post(
                "/fill",
                {"program": program, "rows": [["Chile"], ["Japan"]],
                 "catalog": "geo"},
            )
            assert warm_fill["outputs"] == ["Santiago", "Tokyo"], warm_fill
            _stop_serve(process)  # close() drains the pending geo snapshot
            snap_dir = root / "geo" / ".snapshots"
            assert list(snap_dir.glob("manifest-*.json")), (
                "no snapshot manifest persisted for geo"
            )
            print("smoke: --snapshots persisted the geo indexes on shutdown")

            process, client = _start_serve(src, snap_args)
            cold_fill = client.post(
                "/fill",
                {"program": program, "rows": [["Chile"], ["Japan"]],
                 "catalog": "geo"},
            )
            assert cold_fill["outputs"] == warm_fill["outputs"], (
                f"snapshot cold-start diverged: {cold_fill} vs {warm_fill}"
            )
            stats = client.get("/stats")
            geo_entry = stats["catalogs"]["geo"]
            assert geo_entry.get("snapshot"), geo_entry
            print(
                "smoke: snapshot cold-start served identical fills "
                f"(snapshot v{geo_entry['snapshot']['version']})"
            )
            _stop_serve(process)

            # -- act three: the worker-process pool behind --workers ------
            # --async is a no-op kept for old command lines; passing it
            # pins that it is still accepted.
            process, client = _start_serve(
                src,
                [
                    "--table", str(table_csv),
                    "--catalog-root", str(root),
                    "--snapshots",
                    "--port", "0",
                    "--workers", "2",
                    "--async",
                ],
            )
            health = client.get("/healthz")
            assert health["workers"] == {"size": 2, "alive": 2}, health
            cold = client.post(
                "/learn",
                {"examples": [[["c2 c4 c1"], "Google Facebook Microsoft"]]},
            )
            assert cold["cache"] == "miss", cold["cache"]
            stats = client.get("/stats")
            pool_stats = stats["workers"]
            assert pool_stats["enabled"] is True, pool_stats
            assert stats["requests"]["pool_dispatched"] >= 1, stats["requests"]
            served_pids = [
                worker["pid"]
                for worker in pool_stats["workers"]
                if worker["jobs"] > 0
            ]
            assert served_pids, pool_stats
            # The synthesis genuinely left the server process.
            assert all(pid != process.pid for pid in served_pids), (
                served_pids,
                process.pid,
            )
            print(
                "smoke: --workers 2 learn dispatched to worker "
                f"pid {served_pids[0]} (server pid {process.pid})"
            )
            _stop_serve(process)  # SIGTERM drains the pool: exit 0 asserted
            print("smoke: SIGTERM drained the worker pool, graceful exit 0")

            # -- act four: 100k-row NDJSON streaming fill, constant RSS --
            process, client = _start_serve(
                src, ["--table", str(table_csv), "--port", "0"]
            )
            learned = client.post(
                "/learn",
                {"examples": [[["c4 c3 c1"], "Facebook Apple Microsoft"]]},
            )
            program = learned["programs"][0]["program"]
            distinct = [
                [f"c{1 + r % 4} c{1 + (r + 1) % 4} c{1 + (r + 2) % 4}"]
                for r in range(4)
            ]
            expected = client.post(
                "/fill", {"program": program, "rows": distinct}
            )["outputs"]
            total = 100_000
            # Warm-up stream: allocator arenas and engine caches settle
            # before the RSS baseline is read.
            warm = _stream_fill(
                client.base, program, (distinct[r % 4] for r in range(2000))
            )
            assert warm == [expected[r % 4] for r in range(2000)], warm[:5]
            before_kb = _process_rss_kb(process.pid)
            outputs = _stream_fill(
                client.base, program, (distinct[r % 4] for r in range(total))
            )
            after_kb = _process_rss_kb(process.pid)
            assert len(outputs) == total, len(outputs)
            assert outputs == [expected[r % 4] for r in range(total)], (
                "streamed outputs diverged from POST /fill"
            )
            print(
                f"smoke: /fill/stream served {total} rows, "
                "byte-identical with POST /fill"
            )
            if before_kb is not None and after_kb is not None:
                growth_mb = max(0, after_kb - before_kb) / 1024.0
                assert growth_mb < 64.0, (before_kb, after_kb)
                print(
                    f"smoke: server RSS grew {growth_mb:.1f}MB across the "
                    f"{total}-row stream (bounded, not O(rows))"
                )
            else:
                print("smoke: /proc unavailable; RSS growth not measured")
            _stop_serve(process)
            print("smoke: streaming fill act done, graceful exit 0")
            return 0
        finally:
            if process.poll() is None:
                process.terminate()
                try:
                    process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    process.kill()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small sizes (CI smoke)")
    parser.add_argument("--out", type=Path, help="write results JSON here")
    parser.add_argument("--check", type=Path, help="baseline JSON to compare against")
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="fail when the cache speedup falls below baseline/factor (default 2)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="boot the real `repro serve` subprocess and smoke-test it",
    )
    parser.add_argument(
        "--rss-child",
        type=int,
        metavar="ROWS",
        help=argparse.SUPPRESS,  # internal: streaming-RSS probe body
    )
    args = parser.parse_args(argv)

    if args.rss_child is not None:
        return _rss_child(args.rss_child)

    if args.smoke:
        return run_smoke()

    results = run_suite(args.quick)
    print()
    for line in render(results):
        print(line)

    if args.out:
        payload = {
            "meta": {
                "python": sys.version.split()[0],
                "cpu_count": os.cpu_count() or 1,
                "timestamp": datetime.now(timezone.utc).isoformat(
                    timespec="seconds"
                ),
                "quick": args.quick,
                "note": "cache speedup is machine-relative (same-run cold vs "
                "cached over HTTP); refresh with: PYTHONPATH=src python "
                "benchmarks/bench_service.py --out BENCH_service.json",
            },
            "results": results,
        }
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.out}")

    if args.check:
        print()
        return check_regression(results, args.check, args.factor)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
