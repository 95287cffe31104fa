"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite-learn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones named in ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer ones, taken from spans recorded
around the program's public functions, plus the tracing overhead against
an untraced run of the same workload and seed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from harness import CONFIG, ROOT, SRC, emit, require_source

WORKLOADS = ("suite-learn", "bulk-fill", "service-mix", "sqlite-catalog")
IMPORT_REPEATS = 3


def run_child(args: List[str]) -> Dict:
    """Run this script in a child process; its parsed result line."""
    reply = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    sys.stdout.write(reply.stdout)
    sys.stderr.write(reply.stderr)
    if reply.returncode != 0:
        raise SystemExit(f"child run {args} exited with {reply.returncode}")
    return json.loads(reply.stdout.strip().splitlines()[-1])


def import_seconds(modules: List[str]) -> float:
    """Median time for a fresh interpreter to import ``modules``.

    A process imports a module once, so set-up repeats the import in
    child interpreters, each timing its own imports.
    """
    code = (
        "import sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "started = time.perf_counter()\n"
        "for name in sys.argv[2:]:\n"
        "    __import__(name)\n"
        "print(time.perf_counter() - started)\n"
    )
    times = []
    for _ in range(IMPORT_REPEATS):
        reply = subprocess.run(
            [sys.executable, "-c", code, str(SRC), *modules],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(reply.stdout))
    return statistics.median(times)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    require_source()
    from spans import Tracer

    untraced: Optional[Dict] = None
    if trace:
        untraced = run_child(
            ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        )["metrics"]
    tracer = Tracer() if trace else None
    module = importlib.import_module(name.replace("-", "_"))
    import_s = import_seconds(module.IMPORTS)
    outcome = module.run(seed, seconds, tracer)
    # Set-up time includes importing the program.
    setup_s = outcome.e2e["setup_s"][0]
    outcome.detail["setup_import_s"] = (import_s, "s")
    outcome.detail["setup_build_s"] = (setup_s, "s")
    outcome.e2e["setup_s"] = (import_s + setup_s, "s")
    if tracer is not None:
        tracer.write(ROOT / ".perfbench_out" / f"spans-{name}-{seed}.jsonl")
        outcome.layers["trace.spans"] = (float(len(tracer.spans)), "count")
        for metric in ("work_per_s", "latency_p50_ms"):
            traced = outcome.e2e[metric][0]
            plain = untraced[metric]["value"]
            outcome.layers[f"trace.overhead.{metric}"] = (traced - plain, untraced[metric]["unit"])
    emit(name, seed, trace, outcome)
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        result = run_child(
            ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))]
        )
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
