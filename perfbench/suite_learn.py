"""suite-learn: every benchsuite problem learned on its first 1, 2 and 3 rows.

Each of the 150 learns uses a fresh ``Synthesizer``; the seed sets the
problem order.  The reference is the suite's own rows: a learn fails when
it raises or when its top-ranked program does not reproduce the rows it
was given.  ``examples_to_correct`` is, per problem, the smallest n whose
top-ranked program reproduces every row (4 when none does).
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from typing import List, Optional, Tuple

from harness import Outcome, end_to_end, median_of, peak_rss_mb
from spans import Tracer

IMPORTS = ("repro.api.engine", "repro.benchsuite")

EXAMPLE_COUNTS = (1, 2, 3)
SETUP_REPEATS = 5


def build(seed: int) -> List[Tuple[object, object]]:
    """(problem, catalog) pairs in the seed's order.

    The catalog holds the problem's tables and the background tables it
    needs, built here so that set-up, not the learn, pays for them.
    """
    from repro.benchsuite import all_benchmarks

    problems = all_benchmarks()
    random.Random(seed).shuffle(problems)
    return [(problem, problem.catalog()) for problem in problems]


def trace_layers(tracer: Tracer) -> None:
    """Open spans around the engine's generate, intersect, rank and measure."""
    import repro.api.engine as engine
    from repro.api.registry import backend_class

    tracer.wrap(engine, "generate_structures", "learn.generate")
    tracer.wrap(engine, "fold_structures", "learn.intersect")
    backend = backend_class("semantic")
    for method in ("best_program", "top_programs", "enumerate_programs"):
        tracer.wrap(backend, method, "learn.rank")
    for method in ("count_expressions", "structure_size"):
        tracer.wrap(backend, method, "learn.measure")


def cache_stats() -> dict:
    from repro.syntactic.intersect import dag_cache_stats
    from repro.syntactic.positions import intersection_cache_stats, position_cache_stats
    from repro.syntactic.regex import boundary_cache_stats

    return {
        "position": position_cache_stats(),
        "intersection": intersection_cache_stats(),
        "boundary": boundary_cache_stats(),
        "dag": dag_cache_stats(),
    }


def run(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    from repro.api.engine import Synthesizer

    outcome = Outcome()
    setup_s, plan = median_of(SETUP_REPEATS, lambda: build(seed))
    if tracer is not None:
        trace_layers(tracer)
    latencies: List[float] = []
    needed: List[int] = []
    size_generated = size_intersected = 0
    started = time.perf_counter()
    busy = 0.0
    passes = 0
    while passes == 0 or time.perf_counter() - started < seconds:
        passes += 1
        for problem, catalog in plan:
            correct_at = 4
            for count in EXAMPLE_COUNTS:
                examples = problem.rows[:count]
                request = f"{problem.name}/{count}"
                begin = time.perf_counter()
                span = tracer.span("learn", request=request) if tracer else nullcontext()
                try:
                    with span:
                        engine = Synthesizer(catalog)
                        result = engine.synthesize(examples, k=1)
                except Exception as error:  # noqa: BLE001 -- counted as failed
                    outcome.check(False, f"{request}: {type(error).__name__}: {error}")
                    continue
                elapsed = time.perf_counter() - begin
                busy += elapsed
                latencies.append(elapsed * 1e3)
                program = result.program
                fits = [program.run(inputs) == output for inputs, output in problem.rows]
                outcome.check(all(fits[:count]), f"{request}: top program misses its examples")
                if passes == 1:
                    if all(fits) and correct_at == 4:
                        correct_at = count
                    if count == 1:
                        size_generated += result.structure_size
                    if count == EXAMPLE_COUNTS[-1]:
                        size_intersected += result.structure_size
            if passes == 1:
                needed.append(correct_at)
    if tracer is not None:
        tracer.restore()

    examples_mean = sum(needed) / len(needed)
    end_to_end(
        outcome,
        setup_s=setup_s,
        rss_mb=peak_rss_mb(),
        work_per_s=len(latencies) / busy,
        latencies_ms=latencies,
        tail_wanted=0.90,
    )
    outcome.detail.update(
        {
            "learn_tasks_per_s": (len(latencies) / busy, "1/s"),
            "learn_p50_ms": outcome.e2e["latency_p50_ms"],
            "learn_p90_ms": outcome.detail["latency_tail_ms"],
            "examples_to_correct_mean": (examples_mean, "count"),
            "passes": (float(passes), "count"),
        }
    )
    for n in (1, 2, 3, 4):
        outcome.detail[f"problems_needing_{n}"] = (float(needed.count(n)), "count")
    if tracer is not None:
        layers = outcome.layers
        own = tracer.self_times()
        wall = sum(tracer.durations("learn"))
        for layer in ("generate", "intersect", "rank", "measure"):
            seconds_, calls = own.get(f"learn.{layer}", (0.0, 0))
            layers[f"learn.{layer}_s"] = (seconds_, "s")
            if layer != "measure":
                layers[f"learn.{layer}_calls"] = (float(calls), "count")
        other = own.get("learn", (0.0, 0))[0]
        layers["learn.other_s"] = (other, "s")
        layers["learn.span_coverage"] = (1.0 - other / wall, "share")
        layers["learn.size_generated"] = (float(size_generated), "count")
        layers["learn.size_intersected"] = (float(size_intersected), "count")
        layers["learn.examples_to_correct_mean"] = (examples_mean, "count")
        for cache, stats in cache_stats().items():
            lookups = stats["hits"] + stats["misses"]
            layers[f"syntactic.{cache}_cache.hit_ratio"] = (stats["hit_rate"], "share")
            layers[f"syntactic.{cache}_cache.lookups"] = (float(lookups), "count")
        outcome.check(
            layers["learn.span_coverage"][0] >= 0.90,
            f"spans cover only {layers['learn.span_coverage'][0]:.1%} of learn wall time",
        )
    return outcome
