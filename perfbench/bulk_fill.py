"""bulk-fill: learned programs filling all-distinct rows over ~100k-cell catalogs.

Four catalog kinds, each with one program learned during set-up on a
small slice of its tables:

* ``two-hop``: EmpId -> Emp.DeptId -> Dept.DeptName, plus a constant;
* ``substring-key``: the first word of the input keys Comp.Name;
* ``multi-key``: (Item, Size) keys Price.Price;
* ``date-format``: the suite's m-d-yyyy -> "Mon dth, yyyy" program over
  its background tables.

The first three tables then grow by appends (``Catalog.with_rows``) to
about 100k cells and the program is rebound to the grown snapshot.  The
run fills seeded, all-distinct rows in rounds of one 1000-row chunk per
kind through ``Program.fill``; a round's time is one latency sample.
Every output is checked against the value the generator computed.
"""

from __future__ import annotations

import calendar
import datetime
import random
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from harness import Outcome, end_to_end, median_of, peak_rss_mb
from spans import Tracer

IMPORTS = ("repro.api.engine", "repro.benchsuite", "repro.engine.compile")

SETUP_REPEATS = 3
CHUNK = 1000
SLICE = 60  # rows of each table the program is learned on
GROW_STEP = 5000  # rows per append while growing a table

WORDS = (
    "alpha", "bravo", "cobalt", "dune", "ember", "fjord", "grove", "haze",
    "isle", "juniper", "kite", "lumen", "mesa", "nova", "onyx", "pike",
    "quill", "ridge", "sable", "tundra", "umber", "vale", "willow", "yarrow",
)
SIZES = ("tiny", "small", "medium", "large", "huge", "giant", "mini", "maxi", "slim", "wide")


@dataclass
class Kind:
    name: str
    program: object  # repro Program bound to the grown catalog
    rows: List[Tuple[str, ...]]
    expected: List[str]
    learn_s: float


def phrases(rng: random.Random, count: int) -> List[str]:
    """``count`` distinct three-word names in a seeded order."""
    names = [
        f"{WORDS[i % 24].title()} {WORDS[(i // 24) % 24]} {WORDS[(i // 576) % 24]}"
        for i in range(count)
    ]
    rng.shuffle(names)
    return names


def learn_and_grow(
    tables: Sequence[Tuple[str, List[str], List[Tuple[str, ...]], List[Tuple[str, ...]]]],
    examples: Sequence[Tuple[Tuple[str, ...], str]],
) -> Tuple[object, float]:
    """Learn on the first SLICE rows of each table, grow them, rebind.

    ``tables`` holds (name, columns, rows, keys).  Returns the program
    bound to the grown catalog and the learn time.
    """
    from repro.api.engine import Synthesizer
    from repro.engine.program import Program
    from repro.tables.catalog import Catalog
    from repro.tables.table import Table

    catalog = Catalog([Table(name, columns, rows[:SLICE], keys=keys) for name, columns, rows, keys in tables])
    started = time.perf_counter()
    learned = Synthesizer(catalog).synthesize(list(examples), k=1).program
    learn_s = time.perf_counter() - started
    catalog.freeze()
    for name, _columns, rows, _keys in tables:
        for start in range(SLICE, len(rows), GROW_STEP):
            catalog = catalog.with_rows(name, rows[start : start + GROW_STEP])
    return Program(learned.expr, catalog, learned.language, learned.num_inputs), learn_s


def two_hop(rng: random.Random) -> Kind:
    emps, depts = 40_000, 10_000
    names = phrases(rng, depts)
    dept_rows = [(f"D{i:05d}", names[i]) for i in range(depts)]
    emp_rows = [
        (f"E{i:06d}", dept_rows[rng.randrange(SLICE if i < SLICE else depts)][0])
        for i in range(emps)
    ]
    dept_name = dict(dept_rows)
    expected_of = {emp: f"{dept_name[dept]} team" for emp, dept in emp_rows}
    program, learn_s = learn_and_grow(
        [
            ("Emp", ["EmpId", "DeptId"], emp_rows, [("EmpId",)]),
            ("Dept", ["DeptId", "DeptName"], dept_rows, [("DeptId",)]),
        ],
        [((emp,), expected_of[emp]) for emp, _ in emp_rows[:2]],
    )
    rows = [(emp,) for emp, _ in emp_rows]
    rng.shuffle(rows)
    return Kind("two-hop", program, rows, [expected_of[emp] for (emp,) in rows], learn_s)


def substring_key(rng: random.Random) -> Kind:
    count = 50_000
    names = phrases(rng, count)
    comp_rows = [(f"c{i}", names[i]) for i in range(count)]
    program, learn_s = learn_and_grow(
        [("Comp", ["Id", "Name"], comp_rows, [("Id",)])],
        [((f"c{i} r{i * 7 + 3}",), comp_rows[i][1]) for i in (4, 17)],
    )
    rows: List[Tuple[str, ...]] = []
    expected: List[str] = []
    for serial in range(count):
        key = rng.randrange(count)
        rows.append((f"c{key} r{serial}",))
        expected.append(comp_rows[key][1])
    return Kind("substring-key", program, rows, expected, learn_s)


def multi_key(rng: random.Random) -> Kind:
    items = 3_334
    item_names = phrases(rng, items)
    price_rows = []
    for index in range(items * len(SIZES)):
        item, size = item_names[index // len(SIZES)], SIZES[index % len(SIZES)]
        price_rows.append((item, size, f"${rng.randrange(100, 99_999) / 100:.2f}"))
    program, learn_s = learn_and_grow(
        [("Price", ["Item", "Size", "Price"], price_rows, [("Item", "Size")])],
        [((item, size), price) for item, size, price in (price_rows[3], price_rows[27])],
    )
    order = list(range(len(price_rows)))
    rng.shuffle(order)
    rows = [price_rows[i][:2] for i in order]
    return Kind("multi-key", program, rows, [price_rows[i][2] for i in order], learn_s)


def ordinal(day: int) -> str:
    if day in (11, 12, 13):
        return "th"
    return {1: "st", 2: "nd", 3: "rd"}.get(day % 10, "th")


def date_format(rng: random.Random) -> Kind:
    from repro.api.engine import Synthesizer
    from repro.benchsuite import get_benchmark

    problem = get_benchmark("ex8-date-format")
    started = time.perf_counter()
    engine = Synthesizer(problem.catalog())
    program = engine.synthesize(list(problem.rows[:2]), k=1).program
    learn_s = time.perf_counter() - started
    first = datetime.date(1900, 1, 1)
    days = list(range((datetime.date(2099, 12, 31) - first).days + 1))
    rng.shuffle(days)
    rows: List[Tuple[str, ...]] = []
    expected: List[str] = []
    for offset in days:
        day = first + datetime.timedelta(days=offset)
        rows.append((f"{day.month}-{day.day}-{day.year}",))
        expected.append(f"{calendar.month_abbr[day.month]} {day.day}{ordinal(day.day)}, {day.year}")
    return Kind("date-format", program, rows, expected, learn_s)


BUILDERS: Tuple[Callable[[random.Random], Kind], ...] = (two_hop, substring_key, multi_key, date_format)


def build(seed: int) -> List[Kind]:
    rng = random.Random(seed)
    return [builder(rng) for builder in BUILDERS]


def trace_layers(tracer: Tracer, counts: Dict[str, int]) -> None:
    import repro.engine.compile as compile_module
    from repro.engine.program import Program
    from repro.tables.catalog import Catalog

    tracer.wrap(compile_module, "compile_program", "engine.compile")
    tracer.wrap(Program, "fill", "engine.fill")
    tracer.wrap(Catalog, "with_rows", "tables.grow")
    interpreted = Program.fill_interpreted

    def counted(self, rows):
        counts["interpreted"] += len(rows)
        return interpreted(self, rows)

    tracer.replace(Program, "fill_interpreted", counted)


def run(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    outcome = Outcome()
    counts = {"interpreted": 0}
    if tracer is not None:
        trace_layers(tracer, counts)
    setup_s, kinds = median_of(SETUP_REPEATS, lambda: build(seed))
    grow_spans = len(tracer.spans) if tracer is not None else 0
    latencies: List[float] = []
    first_chunks: List[float] = []
    cursors = [0] * len(kinds)
    filled = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        # One round fills a chunk of every kind; its time is one latency sample.
        round_s = 0.0
        for index, kind in enumerate(kinds):
            at = cursors[index]
            if at + CHUNK > len(kind.rows):
                at = 0
            cursors[index] = at + CHUNK
            chunk = kind.rows[at : at + CHUNK]
            begin = time.perf_counter()
            outputs = kind.program.fill(chunk)
            elapsed = time.perf_counter() - begin
            if len(first_chunks) < len(kinds):
                first_chunks.append(elapsed)
            round_s += elapsed
            filled += len(chunk)
            expected = kind.expected[at : at + CHUNK]
            outcome.check_many(
                len(chunk),
                [
                    f"{kind.name}: {row!r} -> {got!r}, expected {want!r}"
                    for row, got, want in zip(chunk, outputs, expected)
                    if got != want
                ],
            )
        latencies.append(round_s * 1e3)
    if tracer is not None:
        tracer.restore()

    # Throughput from the median round resists the machine's short stalls.
    rows_per_s = CHUNK * len(kinds) / statistics.median(latencies) * 1e3
    end_to_end(
        outcome,
        setup_s=setup_s,
        rss_mb=peak_rss_mb(),
        work_per_s=rows_per_s,
        latencies_ms=latencies,
        tail_wanted=0.99,
    )
    outcome.detail["fill_rows_per_s"] = (rows_per_s, "1/s")
    outcome.detail["fill_round_rows"] = (float(CHUNK * len(kinds)), "count")
    for kind in kinds:
        outcome.detail[f"learn_s.{kind.name}"] = (kind.learn_s, "s")
    if tracer is not None:
        own = tracer.self_times()
        layers = outcome.layers
        layers["engine.compile_s"] = (own.get("engine.compile", (0.0, 0))[0], "s")
        layers["engine.fill_s"] = (own.get("engine.fill", (0.0, 0))[0], "s")
        layers["engine.rows"] = (float(filled), "count")
        layers["engine.interpreted_share"] = (counts["interpreted"] / filled, "share")
        grow = [span.seconds for span in tracer.spans[:grow_spans] if span.name == "tables.grow"]
        layers["tables.grow_s"] = (sum(grow) / SETUP_REPEATS, "s")
        layers["tables.first_chunk_s"] = (sum(first_chunks), "s")
    return outcome
