"""Noisy variants of the lookup benchmarks for the matcher layer.

Real spreadsheets rarely contain byte-clean lookup keys: users paste
values with stray whitespace, inconsistent casing, full-width unicode
forms, or one-character typos.  This module derives, from every
Lt-class benchmark in the §7 suite, a *noisy* counterpart whose fill
inputs carry exactly such perturbations while the expected outputs stay
those of the clean problem.  The perturbations are deterministic (a
fixed cycle keyed on row position -- no RNG), so results are stable
across runs and machines.

The noisy problems keep their own registry; the canonical 50-problem
``_REGISTRY`` in :mod:`repro.benchsuite.model` is untouched, so every
paper-faithful experiment (Figure 11/12, convergence) is unaffected.

Each perturbation is labelled by the matcher strategy expected to
recover it: casing / whitespace / unicode-width noise is the
``canonical`` matcher's territory, one-character typos the ``fuzzy``
matcher's.  :func:`evaluate_noisy` runs the recall protocol used by the
acceptance gate and ``benchmarks/bench_matching.py``: learn each base
problem from its clean rows under the default exact spec, fill the
noisy inputs, and report how many of the rows the exact program misses
are recovered when the program is re-bound to an approximate spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.benchsuite.model import Benchmark, Row, all_benchmarks

#: (perturbation name, recovering strategy, transform).
Perturbation = Tuple[str, str, Callable[[str], str]]


def _pad(text: str) -> str:
    return f"  {text} "


def _double_inner_space(text: str) -> str:
    return text.replace(" ", "  ", 1) if " " in text else _pad(text)


def _widen(text: str) -> str:
    """Swap the first ASCII letter for its full-width (NFKC) form."""
    for index, char in enumerate(text):
        if "a" <= char <= "z" or "A" <= char <= "Z":
            wide = chr(ord(char) - ord("!") + 0xFF01)
            return text[:index] + wide + text[index + 1 :]
    return _pad(text)


def _typo(text: str) -> str:
    """Drop one mid-word character from the longest alphabetic token."""
    tokens = text.split(" ")
    best = max(tokens, key=lambda token: len(token) if token.isalpha() else 0)
    if len(best) < 5 or not best.isalpha():
        return _pad(text)  # too short to survive an edit: fall back
    at = tokens.index(best)
    middle = len(best) // 2
    tokens[at] = best[:middle] + best[middle + 1 :]
    return " ".join(tokens)


#: The deterministic perturbation cycle.  Order matters: row *i* of a
#: noisy benchmark uses cycle entry ``i % len(PERTURBATIONS)``.
PERTURBATIONS: Tuple[Perturbation, ...] = (
    ("uppercase", "canonical", str.upper),
    ("lowercase", "canonical", str.lower),
    ("padded-whitespace", "canonical", _pad),
    ("doubled-inner-space", "canonical", _double_inner_space),
    ("fullwidth-unicode", "canonical", _widen),
    ("one-char-typo", "fuzzy", _typo),
)


def perturb(text: str, index: int) -> str:
    """Apply cycle entry ``index % len(PERTURBATIONS)`` to ``text``."""
    _name, _strategy, transform = PERTURBATIONS[index % len(PERTURBATIONS)]
    return transform(text)


@dataclass(frozen=True)
class NoisyBenchmark:
    """A clean Lt benchmark plus its perturbed fill rows.

    ``rows`` pair perturbed inputs with the *clean* expected outputs;
    ``perturbations`` names, per row, which cycle entry produced it.
    """

    name: str
    base: Benchmark
    rows: Tuple[Row, ...]
    perturbations: Tuple[str, ...]


_NOISY: List[NoisyBenchmark] = []


def _perturb_rows(benchmark: Benchmark) -> Tuple[Tuple[Row, ...], Tuple[str, ...]]:
    rows: List[Row] = []
    names: List[str] = []
    for index, (inputs, output) in enumerate(benchmark.rows):
        # Perturb only the alphabetic inputs: numeric keys ("432") have
        # no casing and a typo would change their identity, not their
        # spelling.
        perturbed = tuple(
            perturb(value, index) if any(c.isalpha() for c in value) else value
            for value in inputs
        )
        rows.append((perturbed, output))
        names.append(PERTURBATIONS[index % len(PERTURBATIONS)][0])
    return tuple(rows), tuple(names)


def noisy_benchmarks() -> List[NoisyBenchmark]:
    """One noisy variant per Lt-class benchmark (built lazily, cached)."""
    if not _NOISY:
        for benchmark in all_benchmarks():
            if benchmark.language_class != "Lt":
                continue
            rows, names = _perturb_rows(benchmark)
            _NOISY.append(
                NoisyBenchmark(
                    name=f"noisy-{benchmark.name}",
                    base=benchmark,
                    rows=rows,
                    perturbations=names,
                )
            )
    return list(_NOISY)


def evaluate_noisy(
    matchers: Sequence[str] = ("canonical", "fuzzy"),
    language: str = "lookup",
    problems: Optional[Sequence[NoisyBenchmark]] = None,
) -> Dict[str, Any]:
    """The noisy-recall protocol behind the ISSUE acceptance gate.

    For every noisy benchmark: learn the base problem from its clean
    rows under the *default* spec, run the learned program over the
    perturbed inputs exactly (the baseline), then re-bind the same
    program to ``matchers`` and run again.  Returns totals plus
    ``recall``: the fraction of exact misses the approximate spec
    recovered (None when exact missed nothing).
    """
    from repro.api.engine import Synthesizer
    from repro.engine.program import Program
    from repro.matching import normalize_spec

    spec = normalize_spec(matchers)
    total = 0
    exact_hits = 0
    exact_misses = 0
    recovered = 0
    per_problem: List[Dict[str, Any]] = []
    for noisy in problems if problems is not None else noisy_benchmarks():
        base = noisy.base
        engine = Synthesizer(catalog=base.catalog(), language=language)
        program = engine.synthesize(base.rows).program
        approx = Program(
            program.expr,
            program.catalog.with_matchers(spec),
            program.language,
            program.num_inputs,
        )
        misses = 0
        fixed = 0
        for inputs, expected in noisy.rows:
            total += 1
            if program.run(inputs) == expected:
                exact_hits += 1
                continue
            exact_misses += 1
            misses += 1
            if approx.run(inputs) == expected:
                recovered += 1
                fixed += 1
        per_problem.append(
            {"name": noisy.name, "rows": len(noisy.rows), "exact_misses": misses,
             "recovered": fixed}
        )
    return {
        "matchers": list(spec),
        "total_rows": total,
        "exact_hits": exact_hits,
        "exact_misses": exact_misses,
        "recovered": recovered,
        "recall": (recovered / exact_misses) if exact_misses else None,
        "problems": per_problem,
    }
