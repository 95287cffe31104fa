"""service-mix: an HTTP request mix against ``repro serve --async --workers 1``.

Set-up boots the server as a subprocess, uploads the 50 suite catalogs
and a ``big`` catalog, learns and saves the programs the mix fills with
(the ``big`` ones on a 60-row slice, after which one append grows ``big``
to ~100k cells and the saved programs are rebound), and warms each one.

The load is this process, with at most two connections:

* an open loop of seeded Poisson arrivals at the fixed rate in
  ``config.json``; each request is timed from when it was due;
* then a closed loop of twice that length, two connections sending the
  same mix back to back, whose completions per second are the capacity.

The mix (shares in ``config.json``): fills of ~1k Zipfian rows against
saved programs, repeated learns the request cache answers, cold learns of
suite problems on seeded example subsets, approximate fills of the noisy
family with ``matchers: canonical,fuzzy``, and row appends to ``big``.
Every reply is checked after the run against a reference that does not
come from the server: generator values for fills, suite rows for learns,
the clean outputs of the noisy family for approximate fills.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from harness import (
    BENCH_DIR, CONFIG, ROOT, SRC, Outcome, end_to_end, median_of, peak_rss_mb,
    quantile, tail_quantile, work_dir,
)
from spans import Span, Tracer

IMPORTS = ("repro.api.engine", "repro.benchsuite", "repro.engine.program")

SETTINGS = CONFIG["service_mix"]
SETUP_REPEATS = 2  # each set-up takes ~12 s; three would strain the run budget
BIG_ROWS = 10_000  # three columns: 30k cells
SLICE = 60
SETTLE_S = 1.0  # idle time that lets the server's background work finish
FILL_ROWS = 1_000
APPEND_ROWS = 10
ZIPF_S = 1.1
BLOCK = 20  # requests per block of the mix
CITIES = tuple(f"Town{n:03d}" for n in range(300))


# -- HTTP ------------------------------------------------------------------------
class Connection:
    """One keep-alive HTTP connection to the server."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.conn: Optional[http.client.HTTPConnection] = None

    def send(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        """One request; a dropped keep-alive connection is reopened once."""
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            return self._send(method, path, body, headers)
        except (http.client.HTTPException, OSError):
            self.close()
            return self._send(method, path, body, headers)

    def _send(self, method: str, path: str, body: Optional[bytes], headers: dict) -> Tuple[int, bytes]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        self.conn.request(method, path, body=body, headers=headers)
        reply = self.conn.getresponse()
        return reply.status, reply.read()

    def json(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        status, data = self.send(method, path, body)
        if status != 200:
            raise RuntimeError(f"{method} {path} -> {status}: {data[:200]!r}")
        return json.loads(data)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


@dataclass
class Request:
    kind: str
    method: str
    path: str
    body: bytes
    #: reply payload -> failure text, or None when the reply is right
    check: Callable[[dict], Optional[str]]


@dataclass
class Server:
    process: subprocess.Popen
    host: str
    port: int
    report: Path


# -- the server ------------------------------------------------------------------
def start_server(base: Path, traced: bool) -> Server:
    (base / "tmp").mkdir(parents=True, exist_ok=True)
    args = [
        "serve", "--async", "--workers", "1", "--host", "127.0.0.1", "--port", "0",
        "--store", str(base / "programs"),
    ]
    report = base / "server-report.json"
    if traced:
        command = [sys.executable, str(BENCH_DIR / "serve_launcher.py"), str(report), *args]
    else:
        command = [sys.executable, "-m", "repro", *args]
    env = {**os.environ, "PYTHONPATH": str(SRC), "TMPDIR": str(base / "tmp")}
    with open(base / "server.log", "w", encoding="utf-8") as log:
        process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log, text=True
        )
    banner = process.stdout.readline().strip()
    if not banner.startswith("serving on http://"):
        stop_server(Server(process, "", 0, report))
        raise RuntimeError(f"server did not start: {banner!r}")
    host, port = banner.rsplit("/", 1)[1].rsplit(":", 1)
    server = Server(process, host, int(port), report)
    probe = Connection(server.host, server.port)
    deadline = time.monotonic() + 60
    while probe.json("GET", "/healthz").get("workers", {}).get("alive") != 1:
        if time.monotonic() > deadline:
            raise RuntimeError("worker pool did not come up")
        time.sleep(0.05)
    probe.close()
    return server


def stop_server(server: Server) -> int:
    """SIGTERM the server and wait for it; its exit code."""
    process = server.process
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=30)
    process.stdout.close()
    return process.returncode


# -- inputs ----------------------------------------------------------------------
def table_spec(table) -> dict:
    return {
        "name": table.name,
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
        "keys": [list(key) for key in table.keys],
    }


def learn_body(examples, catalog: str, save: Optional[str] = None) -> dict:
    body = {"examples": [[list(inputs), output] for inputs, output in examples], "catalog": catalog}
    if save is not None:
        body["save"] = save
    return body


@dataclass
class Inputs:
    """Everything a run sends, generated from the seed."""

    big: List[Tuple[str, str, str]]
    problems: Dict[str, object]
    zipf: List[float]

    def label(self, index: int) -> str:
        return f"{self.big[index][1]} / {self.big[index][2]}"


def make_inputs(seed: int) -> Inputs:
    from repro.benchsuite import all_benchmarks

    rng = random.Random(seed)
    words = [f"{a}{b}" for a in ("Ar", "Bel", "Cor", "Dun", "Eld", "Fen", "Gal", "Hol") for b in ("ton", "ric", "wen", "mar", "sby", "dale")]
    big = [
        (f"c{i}", f"{words[rng.randrange(len(words))]} {i * 7919 % 100_003:05d}", CITIES[rng.randrange(len(CITIES))])
        for i in range(BIG_ROWS)
    ]
    weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, BIG_ROWS + 1)]
    cumulative = list(itertools.accumulate(weights))
    return Inputs(big, {p.name: p for p in all_benchmarks()}, cumulative)


def setup_server(inputs: Inputs, base: Path, traced: bool) -> Server:
    """Boot, upload, learn and save, grow ``big``, and warm every program."""
    server = start_server(base, traced)
    conn = Connection(server.host, server.port)
    try:
        for name, problem in inputs.problems.items():
            conn.json("PUT", f"/catalogs/{name}", {"tables": [table_spec(t) for t in problem.catalog().tables()]})
        columns = ["Id", "Name", "City"]
        big = inputs.big
        conn.json("PUT", "/catalogs/big", {"tables": [{"name": "Comp", "columns": columns, "rows": [list(r) for r in big[:SLICE]], "keys": [["Id"]]}]})
        conn.json("POST", "/learn", learn_body([((big[i][0],), big[i][1]) for i in (3, 11)], "big", "big-name"))
        conn.json("POST", "/learn", learn_body([((big[i][0],), inputs.label(i)) for i in (3, 11)], "big", "big-label"))
        conn.json("POST", "/catalogs/big/rows", {"table": "Comp", "rows": [list(r) for r in big[SLICE:]]})
        for name in SETTINGS["approx_problems"]:
            rows = inputs.problems[name].rows
            conn.json("POST", "/learn", learn_body(rows[:3], name, f"approx-{name}"))
        for program in ("big-name", "big-label"):
            conn.json("POST", "/fill", {"program": program, "catalog": "big", "rows": [[big[0][0]]]})
        for name in SETTINGS["approx_problems"]:
            conn.json("POST", "/fill", {"program": f"approx-{name}", "catalog": name, "rows": [list(inputs.problems[name].rows[0][0])], "matchers": "canonical,fuzzy"})
    except BaseException:
        conn.close()
        stop_server(server)
        raise
    conn.close()
    return server


class Mix:
    """Seeded request generator for one run (both loops draw from it)."""

    def __init__(self, inputs: Inputs, seed: int) -> None:
        from repro.benchsuite.noisy_problems import noisy_benchmarks

        self.inputs = inputs
        self.rng = random.Random(seed * 7 + 3)
        # Requests come in blocks holding each kind in its exact share,
        # shuffled within the block, so every run sends the same mix.
        self.block = [
            kind
            for kind, share in SETTINGS["mix"].items()
            for _ in range(round(share * BLOCK))
        ]
        self.pending: List[str] = []
        self.noisy = {n.base.name: n for n in noisy_benchmarks() if n.base.name in SETTINGS["approx_problems"]}
        cold = [
            (name, subset)
            for name in SETTINGS["approx_problems"]
            for subset in [(i,) for i in range(5)] + list(itertools.combinations(range(5), 2))
        ]
        self.rng.shuffle(cold)
        self.cold = itertools.cycle(cold)
        self.appended = 0
        self.catalogs: Dict[str, object] = {}

    def catalog(self, name: str):
        if name not in self.catalogs:
            self.catalogs[name] = self.inputs.problems[name].catalog()
        return self.catalogs[name]

    def learn_check(self, name: str, examples) -> Callable[[dict], Optional[str]]:
        def check(reply: dict) -> Optional[str]:
            from repro.engine.program import Program

            program = Program.from_dict(reply["programs"][0]["program"], catalog=self.catalog(name))
            for inputs, output in examples:
                if program.run(inputs) != output:
                    return f"learn {name}: top program gives {program.run(inputs)!r} for {inputs!r}, expected {output!r}"
            return None

        return check

    def next(self) -> Request:
        if not self.pending:
            self.pending = list(self.block)
            self.rng.shuffle(self.pending)
        return getattr(self, self.pending.pop())()

    def fill(self) -> Request:
        inputs = self.inputs
        program = self.rng.choice(("big-name", "big-label"))
        picks = self.rng.choices(range(BIG_ROWS), cum_weights=inputs.zipf, k=FILL_ROWS)
        expected = [inputs.big[i][1] if program == "big-name" else inputs.label(i) for i in picks]
        body = {"program": program, "catalog": "big", "rows": [[inputs.big[i][0]] for i in picks]}

        def check(reply: dict) -> Optional[str]:
            wrong = sum(got != want for got, want in zip(reply["outputs"], expected))
            if wrong or len(reply["outputs"]) != len(expected):
                return f"fill {program}: {wrong} of {len(expected)} rows wrong"
            return None

        return Request("fill", "POST", "/fill", json.dumps(body).encode(), check)

    def learn_hit(self) -> Request:
        name = self.rng.choice(SETTINGS["approx_problems"])
        examples = self.inputs.problems[name].rows[:3]
        body = json.dumps(learn_body(examples, name)).encode()
        return Request("learn_hit", "POST", "/learn", body, self.learn_check(name, examples))

    def learn_cold(self) -> Request:
        name, subset = next(self.cold)
        rows = self.inputs.problems[name].rows
        examples = [rows[i] for i in subset]
        body = json.dumps(learn_body(examples, name)).encode()
        return Request("learn_cold", "POST", "/learn", body, self.learn_check(name, examples))

    def fill_approx(self) -> Request:
        name = self.rng.choice(SETTINGS["approx_problems"])
        noisy = self.noisy[name]
        expected = [output for _, output in noisy.rows]
        body = {
            "program": f"approx-{name}", "catalog": name, "matchers": "canonical,fuzzy",
            "rows": [list(inputs) for inputs, _ in noisy.rows],
        }

        def check(reply: dict) -> Optional[str]:
            if reply["outputs"] != expected:
                return f"approximate fill {name}: {reply['outputs']!r} != {expected!r}"
            return None

        return Request("fill_approx", "POST", "/fill", json.dumps(body).encode(), check)

    def append(self) -> Request:
        start = self.appended
        self.appended += APPEND_ROWS
        rows = [[f"n{start + j}", f"Added {start + j}", CITIES[j]] for j in range(APPEND_ROWS)]
        body = json.dumps({"table": "Comp", "rows": rows}).encode()

        def check(reply: dict) -> Optional[str]:
            if reply.get("appended", {}).get("rows") != APPEND_ROWS:
                return f"append: reply {reply.get('appended')!r}"
            return None

        return Request("append", "POST", "/catalogs/big/rows", body, check)


# -- load ------------------------------------------------------------------------
@dataclass
class Sample:
    request: Request
    due: float  # when it should have been sent (closed loop: when it was)
    sent: float
    done: float
    status: int
    body: bytes


def send(conn: Connection, request: Request, due: float) -> Sample:
    sent = time.perf_counter()
    try:
        status, body = conn.send(request.method, request.path, request.body)
    except (http.client.HTTPException, OSError) as error:
        status, body = 0, str(error).encode()
    return Sample(request, due, sent, time.perf_counter(), status, body)


def open_loop(server: Server, requests: Sequence[Request], rate: float, rng: random.Random) -> List[Sample]:
    offsets = list(itertools.accumulate(rng.expovariate(rate) for _ in requests))
    samples: List[Optional[Sample]] = [None] * len(requests)
    order = itertools.count()
    start = time.perf_counter() + 0.05

    def sender() -> None:
        conn = Connection(server.host, server.port)
        try:
            while True:
                index = next(order)
                if index >= len(requests):
                    return
                due = start + offsets[index]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                samples[index] = send(conn, requests[index], due)
        finally:
            conn.close()

    run_threads([sender, sender])
    return [sample for sample in samples if sample is not None]


def closed_loop(server: Server, mix: Mix, seconds: float) -> List[Sample]:
    # Pre-generate enough requests that the senders never wait on the generator.
    requests = [mix.next() for _ in range(int(SETTINGS["open_loop_rate_rps"] * 5 * seconds) + 50)]
    samples: List[Sample] = []
    order = itertools.count()
    stop = time.perf_counter() + seconds

    def sender() -> None:
        conn = Connection(server.host, server.port)
        try:
            while time.perf_counter() < stop:
                index = next(order)
                if index >= len(requests):
                    return
                now = time.perf_counter()
                samples.append(send(conn, requests[index], now))
        finally:
            conn.close()

    run_threads([sender, sender])
    return samples


def capacity_rps(samples: Sequence[Sample]) -> float:
    """Completions per second over the median block of BLOCK completions.

    A median over blocks keeps one stalled block (the machine's, or a
    background snapshot's) from moving the figure.
    """
    ends = sorted(sample.done for sample in samples if sample.status == 200)
    marks = ends[::BLOCK]
    return BLOCK / statistics.median(b - a for a, b in zip(marks, marks[1:]))


def run_threads(targets: Sequence[Callable[[], None]]) -> None:
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=150)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a load thread did not finish")


def verify(samples: Sequence[Sample], outcome: Outcome) -> None:
    for sample in samples:
        request = sample.request
        if sample.status != 200:
            outcome.check(False, f"{request.kind}: HTTP {sample.status}: {sample.body[:200]!r}")
            continue
        try:
            problem = request.check(json.loads(sample.body))
        except Exception as error:  # noqa: BLE001 -- a malformed reply is a failure
            problem = f"{request.kind}: {type(error).__name__}: {error}"
        outcome.check(problem is None, problem or "")


# -- server-side spans -------------------------------------------------------------
def revalidation_lags_ms(spans: Sequence[Span]) -> List[float]:
    """Per changefeed event: time until the last program rewrite it caused."""
    events = sorted(span.start for span in spans if span.name == "changefeed.event")
    amends = sorted(span.end for span in spans if span.name == "changefeed.amend")
    lags = []
    for index, at in enumerate(events):
        until = events[index + 1] if index + 1 < len(events) else float("inf")
        done = [end for end in amends if at <= end < until]
        if done:
            lags.append((max(done) - at) * 1e3)
    return lags


def server_layers(report: dict, since: float, fill_round_trip_ms: float, layers: Dict) -> None:
    """Per-layer figures from the server's spans that began after ``since``."""
    spans = [Span(**raw) for raw in report["spans"] if raw["start"] >= since]
    spent: Dict[str, float] = {}
    for span in spans:
        spent[span.name] = spent.get(span.name, 0.0) + span.seconds
    for layer in ("service.learn", "service.fill", "matching.fill", "registry.append"):
        layers[f"{layer}_s"] = (spent.get(layer, 0.0), "s")
    fills = [span.seconds * 1e3 for span in spans if span.name == "service.fill"]
    layers["http.overhead_ms"] = (fill_round_trip_ms - quantile(fills, 0.5), "ms")
    hops = [hop * 1e3 for start, hop in report["hops"] if start >= since]
    if hops:
        layers["pool.hop_ms"] = (quantile(hops, 0.5), "ms")
    lags = revalidation_lags_ms(spans)
    if lags:
        layers["changefeed.revalidation_lag_ms"] = (quantile(lags, 0.5), "ms")
    layers["trace.server_spans"] = (float(len(spans)), "count")


# -- the workload ----------------------------------------------------------------
def run(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    outcome = Outcome()
    traced = tracer is not None
    base = work_dir("service-mix")
    inputs = make_inputs(seed)
    servers: List[Server] = []

    def setup() -> Server:
        for old in servers:
            stop_server(old)
        servers[:] = [setup_server(inputs, base / f"server-{time.monotonic_ns()}", traced)]
        return servers[0]

    try:
        setup_s, server = median_of(SETUP_REPEATS, setup)
        mix = Mix(inputs, seed)
        rate = SETTINGS["open_loop_rate_rps"]
        requests = [mix.next() for _ in range(int(rate * seconds))]
        time.sleep(SETTLE_S)
        run_start = time.perf_counter()
        opened = open_loop(server, requests, rate, random.Random(seed * 11 + 5))
        time.sleep(SETTLE_S)
        # The closed loop runs twice as long: capacity is the noisiest figure.
        closed = closed_loop(server, mix, 2 * seconds)
        probe = Connection(server.host, server.port)
        stats = probe.json("GET", "/stats")
        probe.close()
        rss_mb = peak_rss_mb(server.process.pid)
        exit_code = stop_server(server)
        outcome.check(exit_code == 0, f"server exited with {exit_code}")
        report = json.loads(server.report.read_text()) if traced else {}
    finally:
        for old in servers:
            stop_server(old)
        shutil.rmtree(base, ignore_errors=True)

    verify(opened, outcome)
    verify(closed, outcome)
    for _ in range(len(requests) - len(opened)):
        outcome.check(False, "open-loop request never sent")
    limit_s = SETTINGS["latency_limit_ms"] / 1e3
    latency_ms = [(s.done - s.due) * 1e3 for s in opened]
    on_time = sum(1 for s in opened if s.status == 200 and s.done - s.due <= limit_s) / len(requests)
    capacity = capacity_rps(closed)
    end_to_end(
        outcome,
        setup_s=setup_s,
        rss_mb=rss_mb,
        work_per_s=capacity,
        latencies_ms=latency_ms,
        tail_wanted=0.99,
    )
    outcome.detail.update(
        {
            "http_p50_ms": outcome.e2e["latency_p50_ms"],
            "http_tail_ms": outcome.detail["latency_tail_ms"],
            "http_on_time_share": (on_time, "share"),
            "http_capacity_rps": (capacity, "1/s"),
            "open_loop_rate_rps": (float(rate), "1/s"),
            "open_loop_requests": (float(len(requests)), "count"),
            "closed_loop_requests": (float(len(closed)), "count"),
        }
    )
    if traced:
        layers = outcome.layers
        kinds = {"learn": ("learn_hit", "learn_cold"), "fill": ("fill",), "fill_approx": ("fill_approx",), "append": ("append",)}
        for label, members in kinds.items():
            values = [(s.done - s.due) * 1e3 for s in opened if s.request.kind in members]
            if values:
                layers[f"http.{label}.p50_ms"] = (quantile(values, 0.5), "ms")
                layers[f"http.{label}.p99_ms"] = (quantile(values, tail_quantile(len(values), 0.99)), "ms")
        late = [(s.sent - s.due) * 1e3 for s in opened]
        layers["client.late_ms"] = (quantile(late, tail_quantile(len(late), 0.99)), "ms")
        round_trips = [(s.done - s.sent) * 1e3 for s in opened if s.request.kind == "fill"]
        server_layers(report, run_start, quantile(round_trips, 0.5), layers)
        layers["service.request_cache.hit_ratio"] = (stats["request_cache"]["hit_rate"], "share")
        layers["service.plan_cache.hit_ratio"] = (stats["plan_cache"]["hit_rate"], "share")
        layers["pool.dispatched"] = (float(stats["requests"]["pool_dispatched"]), "count")
        layers["pool.fallbacks"] = (float(stats["requests"]["pool_fallbacks"]), "count")
    return outcome
