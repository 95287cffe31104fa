"""Shared plumbing for the workloads: paths, statistics, memory, output.

Every workload returns a :class:`Outcome`; :func:`emit` prints its
metrics one per line (name, value, unit) and then the single JSON
result line that ends the benchmark's standard output.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG = json.loads((BENCH_DIR / "config.json").read_text(encoding="utf-8"))


def require_source() -> None:
    """Put the checkout's ``src`` on the path, or exit 2 without a result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def work_dir(name: str) -> Path:
    """A fresh scratch directory inside the checkout (removed first)."""
    path = ROOT / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- statistics ----------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_quantile(count: int, wanted: float) -> float:
    """The highest quantile up to ``wanted`` with at least 10 samples beyond it."""
    if count <= 20:
        return 0.5
    return min(wanted, 1.0 - 10.0 / count)


def median_of(repeats: int, make: Callable[[], object]) -> Tuple[float, object]:
    """Run ``make`` ``repeats`` times; median seconds and the last result."""
    times: List[float] = []
    result: object = None
    for _ in range(repeats):
        result = None  # drop the previous set-up before building the next
        started = time.perf_counter()
        result = make()
        times.append(time.perf_counter() - started)
    return statistics.median(times), result


# -- memory --------------------------------------------------------------------
def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of ``pid`` (this process by default), MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


# -- results -------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: name -> (value, unit) for the end-to-end metrics (untraced run).
    e2e: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: name -> (value, unit) for the per-layer metrics (traced run).
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: name -> (value, unit): the workload's own named figures, printed
    #: for people above the result line (not part of the result).
    detail: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str = "") -> None:
        """Count one operation; a false ``ok`` counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what and len(self.notes) < 5:
                self.notes.append(what)

    def check_many(self, attempted: int, failures: Sequence[str]) -> None:
        """Count ``attempted`` operations, of which ``failures`` failed."""
        self.attempted += attempted
        self.failed += len(failures)
        self.notes.extend(failures[: max(0, 5 - len(self.notes))])


def end_to_end(
    outcome: Outcome,
    setup_s: float,
    rss_mb: float,
    work_per_s: float,
    latencies_ms: Sequence[float],
    tail_wanted: float,
) -> None:
    """Fill the contract's end-to-end metrics from one workload's figures.

    The tail percentile is printed but is not a contract metric: on a
    shared 2-CPU machine it spread up to 70% between runs of one workload.
    """
    q = tail_quantile(len(latencies_ms), tail_wanted)
    outcome.e2e.update(
        {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "work_per_s": (work_per_s, "1/s"),
            "latency_p50_ms": (quantile(latencies_ms, 0.5), "ms"),
        }
    )
    outcome.detail["latency_tail_ms"] = (quantile(latencies_ms, q), "ms")
    outcome.detail["latency_samples"] = (float(len(latencies_ms)), "count")
    outcome.detail["latency_tail_quantile"] = (q, "share")


def emit(workload: str, seed: int, trace: bool, outcome: Outcome) -> None:
    """Print the human-readable lines, then the one-line JSON result.

    The result carries every end-to-end metric of ``BENCHMARK.json``
    (untraced) or every per-layer one (traced); a layer the workload does
    not touch did no work and reads 0.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if trace:
        metrics = {
            item["name"]: outcome.layers.get(item["name"], (0.0, item["unit"]))
            for item in spec["per_layer"]
        }
        outcome.detail.update(outcome.e2e)
    else:
        metrics = {item["name"]: outcome.e2e[item["name"]] for item in spec["end_to_end"]}
    print(
        f"# workload {workload} seed {seed} trace {int(trace)} | python "
        f"{platform.python_version()} | nproc {os.cpu_count()}"
    )
    for name, (value, unit) in sorted(outcome.detail.items()):
        print(f"  {name:<40} {value:>14.6g} {unit}")
    if outcome.detail:
        print("  --")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(
        f"  attempted {outcome.attempted}, failed {outcome.failed}, "
        f"fail_share {outcome.failed / max(1, outcome.attempted):.6g}"
    )
    for note in outcome.notes:
        print(f"  failure: {note}")
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
