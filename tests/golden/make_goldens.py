"""Write the committed golden outputs that ``tests/test_goldens.py`` replays.

Run from the repository root::

    PYTHONPATH=src python tests/golden/make_goldens.py

It writes two files next to this script:

* ``benchsuite.json``: for each of the 50 benchsuite problems and each
  n in 1, 2, 3, ``Synthesizer(bench.catalog()).synthesize(rows[:n], k=3)``
  reduced to its ranked ``[rank, score, source, digest]`` candidates, its
  ``structure_size``, its consistent count as ``{"bits", "sha256"}`` (the
  largest counts run to millions of bits, past what ``str(int)`` will
  render) and the top program's fill of every row of the problem;
* ``noisy.json``: for each noisy lookup problem, the fills of its
  perturbed rows by the program learned from the clean rows, bound
  exactly and bound to the ``canonical,fuzzy`` matchers.

Regenerate only when an output is meant to change, and say why in the
change log: the goldens are the equivalence check for every hot path.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Tuple

from repro.api.engine import Synthesizer
from repro.api.result import SynthesisResult
from repro.benchsuite import Benchmark, all_benchmarks
from repro.benchsuite.noisy_problems import NoisyBenchmark, noisy_benchmarks
from repro.engine.program import Program

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHSUITE_PATH = os.path.join(HERE, "benchsuite.json")
NOISY_PATH = os.path.join(HERE, "noisy.json")

EXAMPLE_COUNTS = (1, 2, 3)
TOP_K = 3
NOISY_MATCHERS = ("canonical", "fuzzy")


def count_digest(count: int) -> Dict[str, Any]:
    """A consistent count too large to print, pinned by size and hash."""
    return {
        "bits": count.bit_length(),
        "sha256": hashlib.sha256(hex(count).encode("ascii")).hexdigest(),
    }


def fill_rows(rows) -> List[List[str]]:
    return [list(inputs) for inputs, _ in rows]


def learn(bench: Benchmark, count: int) -> SynthesisResult:
    return Synthesizer(bench.catalog()).synthesize(bench.rows[:count], k=TOP_K)


def benchsuite_entry(bench: Benchmark, result: SynthesisResult) -> Dict[str, Any]:
    return {
        "programs": [
            [c.rank, c.score, c.program.source(), c.program.digest()]
            for c in result.programs
        ],
        "structure_size": result.structure_size,
        "count": count_digest(result.consistent_count),
        "fill": result.program.fill(fill_rows(bench.rows)),
    }


def noisy_programs(noisy: NoisyBenchmark) -> Tuple[Program, Program]:
    """The clean-row program, bound exactly and to the noisy matchers."""
    base = noisy.base
    program = Synthesizer(base.catalog(), language="lookup").synthesize(base.rows).program
    approx = Program(
        program.expr,
        program.catalog.with_matchers(NOISY_MATCHERS),
        program.language,
        program.num_inputs,
    )
    return program, approx


def noisy_entry(noisy: NoisyBenchmark) -> Dict[str, Any]:
    exact, approx = noisy_programs(noisy)
    rows = fill_rows(noisy.rows)
    return {"exact": exact.fill(rows), "approximate": approx.fill(rows)}


def benchsuite_goldens() -> Dict[str, Any]:
    return {
        f"{bench.name}/{count}": benchsuite_entry(bench, learn(bench, count))
        for bench in all_benchmarks()
        for count in EXAMPLE_COUNTS
    }


def noisy_goldens() -> Dict[str, Any]:
    return {noisy.name: noisy_entry(noisy) for noisy in noisy_benchmarks()}


def write(path: str, entries: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        # One entry per line keeps diffs of a deliberate regeneration
        # readable.
        handle.write("{\n")
        lines = [
            f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in entries.items()
        ]
        handle.write(",\n".join(lines))
        handle.write("\n}\n")


def main() -> None:
    write(BENCHSUITE_PATH, benchsuite_goldens())
    write(NOISY_PATH, noisy_goldens())


if __name__ == "__main__":
    main()
