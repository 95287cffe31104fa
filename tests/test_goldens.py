"""Every benchsuite and noisy problem learns and fills as the goldens say.

``tests/golden/make_goldens.py`` wrote ``tests/golden/*.json``; each
entry is recomputed here and compared as parsed JSON, so a change to any
hot path (generate, intersect, rank, compile, the table indexes) that
moves a program, a score, a count or a fill shows up as the entry it
moved.  The benchsuite entries also hold the compiled fill to the AST
interpreter (blank rows and repeated rows included, which exercise the
alignment rule and the row memo) and require every top program to
compile.
"""

import importlib.util
import json
import os

import pytest

from repro.benchsuite import all_benchmarks
from repro.benchsuite.noisy_problems import noisy_benchmarks
from repro.engine.compile import CompiledProgram

_SCRIPT = os.path.join(os.path.dirname(__file__), "golden", "make_goldens.py")
_spec = importlib.util.spec_from_file_location("make_goldens", _SCRIPT)
goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(goldens)


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


BENCHSUITE = load(goldens.BENCHSUITE_PATH)
NOISY = load(goldens.NOISY_PATH)
BENCHES = {bench.name: bench for bench in all_benchmarks()}
NOISY_BENCHES = {noisy.name: noisy for noisy in noisy_benchmarks()}


def parsed(entry):
    """``entry`` as the golden file stores it (tuples become lists)."""
    return json.loads(json.dumps(entry))


def test_goldens_cover_every_problem():
    expected = {
        f"{name}/{count}" for name in BENCHES for count in goldens.EXAMPLE_COUNTS
    }
    assert set(BENCHSUITE) == expected
    assert set(NOISY) == set(NOISY_BENCHES)


@pytest.mark.parametrize("key", list(BENCHSUITE))
def test_benchsuite_golden(key):
    name, count = key.rsplit("/", 1)
    bench = BENCHES[name]
    result = goldens.learn(bench, int(count))
    assert parsed(goldens.benchsuite_entry(bench, result)) == BENCHSUITE[key]

    program = result.program
    plan = program.compile()
    assert isinstance(plan, CompiledProgram)
    rows = goldens.fill_rows(bench.rows)
    rows = rows + [[]] + rows
    expected = program.fill_aligned_interpreted(rows)
    assert plan.fill_aligned(rows) == expected
    assert list(plan.fill_iter(rows)) == expected
    assert program.fill_aligned(rows) == expected
    full_rows = [row for row in rows if row]
    assert program.fill(full_rows) == program.fill_interpreted(full_rows)


@pytest.mark.parametrize("name", list(NOISY))
def test_noisy_golden(name):
    assert parsed(goldens.noisy_entry(NOISY_BENCHES[name])) == NOISY[name]
