"""Matcher layer benchmark: exact-path overhead, canonical index, recall.

The pluggable matcher layer (``repro.matching``) must be free when it is
off and fast when it is on.  Three measurements, the first two on a
synthetic wide catalog, the third on the noisy benchmark suite:

* ``exact_overhead`` -- evaluate the same Select expression through the
  strategy-gated ``Select.evaluate`` (default exact spec) and through
  the pre-refactor inline body (conditions dict + ``Table.lookup``).
  **Gated in CI**: the ratio must stay <= {CEILING}x -- the matcher
  seam is one falsy ``matcher_pipeline()`` check on the hot path and
  must never grow into real work.
* ``canonical_speedup`` -- resolve case/whitespace-perturbed keys via
  the canonical secondary index (``canonical form -> raw values``,
  maintained copy-on-write) vs a naive scan that canonicalizes every
  distinct value per query.  **Gated in CI**: >= {FLOOR}x.
* ``noisy_recall`` -- the acceptance protocol of
  ``repro.benchsuite.noisy_problems``: learn each Lt benchmark clean,
  fill its perturbed rows, count exact misses recovered under
  ``canonical,fuzzy``.  **Gated in CI**: recall >= {RECALL}.

Usage::

    PYTHONPATH=src python benchmarks/bench_matching.py               # run + print
    PYTHONPATH=src python benchmarks/bench_matching.py --out BENCH_matching.json
    PYTHONPATH=src python benchmarks/bench_matching.py --quick \
        --check BENCH_matching.json           # CI: fail on gate violations

``--check`` enforces the absolute gates above; for the speedup row it
additionally compares against the committed baseline (floor =
baseline / --factor).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.exprs import Var
from repro.lookup.ast import Select
from repro.matching import build_pipeline
from repro.matching.canonical import canonicalize
from repro.tables.catalog import Catalog
from repro.tables.table import Table

#: Absolute ceiling on the strategy-seam overhead of the exact path.
EXACT_OVERHEAD_CEILING = 1.05

#: Absolute floor on the canonical-index speedup vs the naive scan.
CANONICAL_SPEEDUP_FLOOR = 10.0

#: Absolute floor on noisy-suite recall under canonical,fuzzy.
NOISY_RECALL_FLOOR = 0.8

NAMES = [
    "Microsoft Corp", "Google Inc", "Apple Computers", "Facebook", "IBM",
    "Xerox Holdings", "Intel", "Oracle Systems", "Cisco", "Adobe",
    "Nvidia", "Amazon", "Netflix", "Tesla Motors", "Siemens", "Philips",
]


def build_catalog(num_rows: int) -> Catalog:
    rows = [
        (f"{NAMES[r % len(NAMES)]} {r}", f"S{r}") for r in range(num_rows)
    ]
    return Catalog([Table("Comp", ["Name", "Stock"], rows, keys=[("Name",)])])


def bench_exact_overhead(num_rows: int, queries: int, repeats: int) -> Dict[str, float]:
    """Strategy-gated Select.evaluate vs the pre-refactor inline body."""
    catalog = build_catalog(num_rows)
    select = Select("Stock", "Comp", [("Name", Var(0))])
    states = [
        ((f"{NAMES[r % len(NAMES)]} {r}",), f"S{r}")
        for r in range(0, num_rows, max(1, num_rows // queries))
    ]
    def legacy_evaluate(state) -> str:
        # The literal pre-matcher Select.evaluate body.
        table = catalog.table(select.table)
        conditions = {}
        for key_column, expr in select.predicates:
            value = expr.evaluate(state, catalog)
            if value is None:
                return ""
            conditions[key_column] = value
        return table.lookup(select.column, conditions)

    def run_gated() -> float:
        started = time.perf_counter()
        for state, expected in states:
            if select.evaluate(state, catalog) != expected:
                raise AssertionError("gated path returned a wrong value")
        return time.perf_counter() - started

    def run_direct() -> float:
        started = time.perf_counter()
        for state, expected in states:
            if legacy_evaluate(state) != expected:
                raise AssertionError("direct path returned a wrong value")
        return time.perf_counter() - started

    # Warm every lazy index both paths share, and the code paths themselves.
    for _ in range(3):
        run_gated()
        run_direct()

    # The per-query difference is a few nanoseconds, far below run-to-run
    # scheduler/frequency jitter, so single minima do not converge in CI
    # time.  Measure the two paths back-to-back in pairs, *alternating
    # which side goes first* each round (a monotonic frequency ramp would
    # otherwise systematically tax whichever side is always measured
    # first), and take the median of the per-pair ratios: paired passes
    # share drift state, alternation cancels first-order drift, and the
    # median discards outlier rounds hit by an interrupt.
    ratios: List[float] = []
    gated_passes: List[float] = []
    direct_passes: List[float] = []
    for index in range(repeats * 3):
        if index % 2 == 0:
            gated = run_gated()
            direct = run_direct()
        else:
            direct = run_direct()
            gated = run_gated()
        ratios.append(gated / direct)
        gated_passes.append(gated)
        direct_passes.append(direct)
    ratios.sort()
    gated_passes.sort()
    direct_passes.sort()
    return {
        "rows": num_rows,
        "queries": len(states),
        "gated_s": gated_passes[len(gated_passes) // 2],
        "direct_s": direct_passes[len(direct_passes) // 2],
        "overhead": ratios[len(ratios) // 2],
    }


def bench_canonical_speedup(
    num_rows: int, queries: int, repeats: int
) -> Dict[str, float]:
    """Canonical secondary index vs a per-query canonicalizing scan."""
    catalog = build_catalog(num_rows).with_matchers(("exact", "canonical"))
    pipeline = build_pipeline(("exact", "canonical"))
    universe = catalog.match_universe()
    noisy = [
        f"  {NAMES[r % len(NAMES)].upper()} {r} "
        for r in range(0, num_rows, max(1, num_rows // queries))
    ]
    # Warm the canonical map: it is built once and patched thereafter.
    assert pipeline.match(noisy[0], universe)

    indexed_times = []
    for _ in range(repeats):
        started = time.perf_counter()
        for query in noisy:
            if not pipeline.match(query, universe):
                raise AssertionError(f"canonical index missed {query!r}")
        indexed_times.append(time.perf_counter() - started)

    values = list(catalog.distinct_values())
    scan_times = []
    for _ in range(repeats):
        started = time.perf_counter()
        for query in noisy:
            wanted = canonicalize(query)
            if not any(canonicalize(value) == wanted for value in values):
                raise AssertionError(f"naive scan missed {query!r}")
        scan_times.append(time.perf_counter() - started)

    indexed_s = min(indexed_times)
    scan_s = min(scan_times)
    return {
        "rows": num_rows,
        "queries": len(noisy),
        "indexed_s": indexed_s,
        "scan_s": scan_s,
        "speedup": scan_s / indexed_s,
    }


def bench_noisy_recall(quick: bool) -> Dict[str, float]:
    """The noisy benchmark suite recall protocol (see noisy_problems)."""
    from repro.benchsuite.noisy_problems import evaluate_noisy, noisy_benchmarks

    problems = noisy_benchmarks()
    if quick:
        problems = problems[:6]
    started = time.perf_counter()
    report = evaluate_noisy(("canonical", "fuzzy"), problems=problems)
    elapsed = time.perf_counter() - started
    return {
        "problems": len(problems),
        "total_rows": report["total_rows"],
        "exact_misses": report["exact_misses"],
        "recovered": report["recovered"],
        "recall": report["recall"] if report["recall"] is not None else 1.0,
        "elapsed_s": elapsed,
    }


#: name -> (metric, direction, absolute bound); every row is gated.
GATED = {
    "exact_overhead": ("overhead", "<=", EXACT_OVERHEAD_CEILING),
    "canonical_speedup": ("speedup", ">=", CANONICAL_SPEEDUP_FLOOR),
    "noisy_recall": ("recall", ">=", NOISY_RECALL_FLOOR),
}


def run_suite(quick: bool) -> Dict[str, Dict[str, float]]:
    # Sizes stay constant across quick and full runs so the committed
    # baseline's speedup is comparable to CI's (speedups scale with the
    # universe size); quick only trims repeats and query counts.
    num_rows = 5_000
    queries = 500 if quick else 1_000
    repeats = 10 if quick else 15
    results: Dict[str, Dict[str, float]] = {}
    print(f"running exact_overhead[rows={num_rows},q={queries}] ...", flush=True)
    results["exact_overhead"] = bench_exact_overhead(num_rows, queries, repeats)
    scan_queries = 100 if quick else 200
    print(
        f"running canonical_speedup[rows={num_rows},q={scan_queries}] ...",
        flush=True,
    )
    results["canonical_speedup"] = bench_canonical_speedup(
        num_rows, scan_queries, 3 if quick else 10
    )
    print("running noisy_recall ...", flush=True)
    results["noisy_recall"] = bench_noisy_recall(quick)
    return results


def render(results: Dict[str, Dict[str, float]]) -> List[str]:
    overhead = results["exact_overhead"]
    canonical = results["canonical_speedup"]
    recall = results["noisy_recall"]
    return [
        f"exact_overhead: gated {overhead['gated_s'] * 1e3:.2f}ms | direct "
        f"{overhead['direct_s'] * 1e3:.2f}ms | overhead {overhead['overhead']:.3f}x",
        f"canonical_speedup: indexed {canonical['indexed_s'] * 1e3:.2f}ms | scan "
        f"{canonical['scan_s'] * 1e3:.1f}ms | speedup {canonical['speedup']:.0f}x",
        f"noisy_recall: {recall['recovered']}/{recall['exact_misses']} exact "
        f"misses recovered | recall {recall['recall']:.2f} "
        f"({recall['problems']} problems, {recall['elapsed_s']:.1f}s)",
    ]


def check_regression(
    results: Dict[str, Dict[str, float]],
    baseline_path: Path,
    factor: float,
) -> int:
    baseline = json.loads(baseline_path.read_text())["results"]
    failures = []
    for name, (metric, direction, bound) in GATED.items():
        value = results[name][metric]
        if direction == ">=":
            floors = [bound]
            reference = baseline.get(name)
            if reference is not None and metric == "speedup":
                floors.append(reference[metric] / factor)
            floor = max(floors)
            ok = value >= floor
            detail = f"{metric} {value:.2f} (floor {floor:.2f})"
        else:
            # The overhead ceiling is absolute -- a committed baseline
            # of ~1.0x must not relax the 1.05x acceptance bound -- but
            # its *margin* gets the same --factor noise headroom every
            # other absolute gate gets: two ~1ms same-run timings land
            # within a few percent of each other, not exactly on them.
            ceiling = 1.0 + (bound - 1.0) * factor
            ok = value <= ceiling
            detail = f"{metric} {value:.3f} (ceiling {ceiling:.2f})"
        status = "ok" if ok else "REGRESSION"
        print(f"{status:>10}  {name}: {detail}")
        if not ok:
            failures.append(name)
    if failures:
        print(f"\nperf regression in: {', '.join(failures)}")
        return 1
    print("\nno perf regressions")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small sizes (CI smoke)")
    parser.add_argument("--out", type=Path, help="write results JSON here")
    parser.add_argument("--check", type=Path, help="baseline JSON to compare against")
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="fail when the gated speedup falls below baseline/factor (default 2)",
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
                "note": "overhead/speedup are machine-relative (same-run "
                "ratios); refresh with: PYTHONPATH=src python "
                "benchmarks/bench_matching.py --out BENCH_matching.json",
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
