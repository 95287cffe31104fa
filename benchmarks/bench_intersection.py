"""Process-pool batch throughput: the perf harness.

* ``batch_throughput`` -- ``run_batch`` at ``workers=4`` over benchsuite
  tasks: the persistent :class:`~repro.service.pool.WorkerPool` process
  lane vs ``executor="thread"`` and vs the plain sequential lane.
  Threads are GIL-bound on this pure-Python workload, so the process
  lane's speedup tracks the machine's core count; single-core machines
  report ~1x and the regression check skips the row.  On runners with
  >= 4 CPUs the check additionally fails if the process lane is slower
  than sequential at all (``speedup_vs_sequential < 1.0`` -- the
  regression that motivated the persistent pool).

The intersect hot paths themselves have one implementation each; their
cost is measured end to end by perfbench's ``suite-learn`` workload
(``python3 perfbench/run.py --workload suite-learn --trace 1`` also
reports the position-set and dag memo hit ratios).

Usage::

    PYTHONPATH=src python benchmarks/bench_intersection.py                    # run + print
    PYTHONPATH=src python benchmarks/bench_intersection.py --out BENCH_intersection.json
    PYTHONPATH=src python benchmarks/bench_intersection.py --quick \
        --check BENCH_intersection.json       # CI: fail on >2x regression

``--check`` compares *speedups* (process lane vs thread lane on the same
machine, same run), so the gate is stable across hardware; it fails when
the current speedup drops below ``baseline / --factor``.  The row is
additionally held to an absolute >= 2x floor on machines with at least
4 CPUs, and skipped below 2 CPUs where process parallelism cannot win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.api import Synthesizer
from repro.benchsuite import all_benchmarks


def bench_batch_throughput(
    num_tasks: int, workers: int, repeats: int
) -> Dict[str, float]:
    bench = next(b for b in all_benchmarks() if not b.background)
    engine = Synthesizer(bench.catalog())
    base = [list(bench.rows[i : i + 2]) for i in range(3)]
    tasks = (base * ((num_tasks + len(base) - 1) // len(base)))[:num_tasks]

    def run(executor: str, pool_workers) -> float:
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            engine.run_batch(tasks, workers=pool_workers, executor=executor)
            best = min(best, time.perf_counter() - started)
        return best

    sequential_s = run("thread", None)  # workers=None: the sequential lane
    thread_s = run("thread", workers)
    process_s = run("process", workers)
    engine.close()  # release the persistent worker pool
    return {
        "naive_s": thread_s,  # threads are the pre-PR executor
        "optimized_s": process_s,
        "speedup": thread_s / process_s,
        "sequential_s": sequential_s,
        "speedup_vs_sequential": sequential_s / process_s,
        "workers": workers,
        "cpus": os.cpu_count() or 1,
    }


# -- harness -----------------------------------------------------------------
def run_suite(quick: bool) -> Dict[str, Dict[str, float]]:
    # Sizes are identical in quick and full mode so --check can compare
    # every row against the committed baseline; quick only trims repeats.
    results: Dict[str, Dict[str, float]] = {}
    name = "batch_throughput[tasks=24,workers=4]"
    print(f"running {name} ...", flush=True)
    results[name] = bench_batch_throughput(24, workers=4, repeats=1 if quick else 2)
    return results


def render(results: Dict[str, Dict[str, float]]) -> List[str]:
    width = max(len(name) for name in results)
    lines = [
        f"{'benchmark'.ljust(width)}  {'threads':>10}  {'processes':>10}  {'speedup':>8}"
    ]
    for name, row in results.items():
        lines.append(
            f"{name.ljust(width)}  {row['naive_s']:>9.4f}s  {row['optimized_s']:>9.4f}s  "
            f"{row['speedup']:>7.1f}x"
        )
    return lines


def check_regression(
    results: Dict[str, Dict[str, float]], baseline_path: Path, factor: float
) -> int:
    baseline = json.loads(baseline_path.read_text())["results"]
    failures = []
    for name, row in results.items():
        reference = baseline.get(name)
        if reference is None:
            print(f"note: {name} not in baseline, skipping")
            continue
        cpus = int(row.get("cpus", 1))
        if cpus < 2:
            print(
                f"      skip  {name}: {cpus} CPU(s) -- process parallelism "
                f"cannot win here (speedup {row['speedup']:.1f}x, informational)"
            )
            continue
        # Absolute sanity floor where parallelism is measurable: the
        # process lane must never be slower than plain sequential on a
        # >= 4 CPU runner (the pre-pool executor was, at 0.85x).
        vs_seq = row.get("speedup_vs_sequential")
        if cpus >= 4 and vs_seq is not None and vs_seq < 1.0:
            print(
                f"REGRESSION  {name}: process batch ran {vs_seq:.2f}x "
                f"sequential on {cpus} CPUs (floor 1.0x)"
            )
            failures.append(f"{name} (vs sequential)")
        # The acceptance floor where it is measurable: >= 2x vs threads on
        # a 4-core machine -- divided by --factor, so one noisy-neighbor
        # stall on a shared runner has 2x headroom instead of failing CI
        # with no regression.  Below 4 CPUs, gate on the baseline ratio
        # only if the baseline itself was measured on >= 2 CPUs.
        if cpus >= 4:
            floor = 2.0 / factor
        elif int(reference.get("cpus", 1)) >= 2:
            floor = reference["speedup"] / factor
        else:
            print(
                f"      skip  {name}: baseline recorded on "
                f"{reference.get('cpus', 1)} CPU(s) (speedup "
                f"{row['speedup']:.1f}x, informational)"
            )
            continue
        status = "ok" if row["speedup"] >= floor else "REGRESSION"
        print(
            f"{status:>10}  {name}: speedup {row['speedup']:.1f}x "
            f"(floor {floor:.1f}x)"
        )
        if status != "ok":
            failures.append(name)
    if failures:
        print(f"\nperf regression in: {', '.join(failures)}")
        return 1
    print("\nno perf regressions")
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small sizes (CI smoke)")
    parser.add_argument("--out", type=Path, help="write results JSON here")
    parser.add_argument("--check", type=Path, help="baseline JSON to compare against")
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="fail when a speedup falls below baseline/factor (default 2)",
    )
    args = parser.parse_args(argv)

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
                "cpus": os.cpu_count() or 1,
                "note": "speedups are machine-relative (same-run thread vs "
                "process lane); refresh with: PYTHONPATH=src python "
                "benchmarks/bench_intersection.py --out BENCH_intersection.json",
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
