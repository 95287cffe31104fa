"""The HTTP server: one asyncio transport over one :class:`ServiceApi`.

Every endpoint must answer exactly as ``ServiceApi.route`` does
in-process; the server only adds cost-routing (fills in-process on the
cheap lane, learns toward the worker pool) and HTTP/1.1 framing of its
own -- keep-alive, refused bodies, ``Expect: 100-continue`` -- plus the
stdlib-style ``shutdown(); server_close()`` lifecycle and the access
log, which is what these tests exercise -- plus serving consistency:
fill responses stay byte-identical while other clients append rows to
the same catalog.
"""

import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import __version__
from repro.service import (
    ProgramStore,
    ServiceApi,
    SynthesisService,
    WorkerPool,
    create_server,
)
from repro.service.streamfill import sse_event
from repro.tables.catalog import Catalog
from repro.tables.table import Table

ROWS = [
    ("c1", "Microsoft"),
    ("c2", "Google"),
    ("c3", "Apple"),
    ("c4", "Facebook"),
    ("c5", "IBM"),
    ("c6", "Xerox"),
]
EXAMPLES_JSON = [[["c4 c3 c1"], "Facebook Apple Microsoft"]]


def make_catalog():
    return Catalog([Table("Comp", ["Id", "Name"], ROWS, keys=[("Id",)])])


def make_service(tmp_path):
    return SynthesisService(
        make_catalog(), store=ProgramStore(tmp_path / "store")
    )


def boot(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


@pytest.fixture()
def server(tmp_path):
    server = create_server(make_service(tmp_path), port=0)
    thread = boot(server)
    yield server
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()
    server.service.close()


def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def get(server, path):
    try:
        with urllib.request.urlopen(base_url(server) + path, timeout=10) as r:
            return r.status, json.loads(r.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def post(server, path, payload, method="POST"):
    request = urllib.request.Request(
        base_url(server) + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as reply:
            return reply.status, json.loads(reply.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def raw_exchange(server, blob, timeout=10.0):
    """One raw TCP round trip; returns everything the server sends."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(blob)
        sock.shutdown(socket.SHUT_WR)
        return read_to_end(sock)


def read_to_end(sock):
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def read_until(sock, marker):
    """Bytes received up to and including the first ``marker``."""
    data = b""
    while marker not in data:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    return data


class TestTransportParity:
    def test_every_endpoint_answers_like_the_in_process_api(self, tmp_path):
        """The server adds transport only: every reply equals what
        ``ServiceApi.route`` returns in-process on a twin service."""
        served = create_server(make_service(tmp_path / "a"), port=0)
        twin = ServiceApi(make_service(tmp_path / "b"))
        thread = boot(served)
        try:
            volatile = {
                "elapsed_seconds",
                "phase_seconds",
                "uptime_seconds",
                "created_at",
                "saved_at",
                "ts",
            }

            def normalize(body):
                if isinstance(body, dict):
                    return {
                        key: normalize(value)
                        for key, value in body.items()
                        if key not in volatile
                    }
                if isinstance(body, list):
                    return [normalize(item) for item in body]
                return body

            calls = [
                ("GET", "/healthz", None),
                ("POST", "/learn", {"examples": EXAMPLES_JSON, "save": "p"}),
                ("POST", "/fill", {"program": "p", "rows": [["c2 c5"]]}),
                ("GET", "/programs", None),
                ("GET", "/catalogs", None),
                ("POST", "/nope", {"x": 1}),
                # The changefeed surface: plain poll, satisfied long
                # poll, 416 past the head, 404 on an unknown catalog.
                ("GET", "/catalogs/default/changes?since=0", None),
                ("GET", "/catalogs/default/changes?since=0&wait=5", None),
                ("GET", "/catalogs/default/changes?since=42", None),
                ("GET", "/catalogs/nope/changes?since=0", None),
                # Destructive replace, then a fill of the now-stale
                # artifact: the 409 body must match shape in-process and
                # over HTTP (relearn cannot save "q": one example and no
                # tables left would fit it -- see below).
                (
                    "POST",
                    "/learn",
                    {
                        "examples": [
                            [["c1"], "Microsoft"],
                            [["c2"], "Google"],
                        ],
                        "save": "q",
                    },
                ),
                (
                    "PUT",
                    "/catalogs/default",
                    {
                        "tables": [
                            {"name": "Other", "columns": ["a"], "rows": [["1"]]}
                        ]
                    },
                ),
                ("POST", "/fill", {"program": "q", "rows": [["c1"]]}),
            ]
            statuses = []
            for method, target, payload in calls:
                if method == "GET":
                    status, body = get(served, target)
                    data, content_type = b"", None
                else:
                    status, body = post(served, target, payload, method)
                    data = json.dumps(payload).encode("utf-8")
                    content_type = "application/json"
                path, query = ServiceApi.split_target(target)
                ref_status, ref_body = twin.route(
                    method, path, query, content_type, lambda: data
                )
                ref_body = json.loads(json.dumps(ref_body, ensure_ascii=False))
                assert status == ref_status, (target, body, ref_body)
                assert normalize(body) == normalize(ref_body), target
                statuses.append(status)
                last_body = body
            assert statuses[-4:] == [404, 200, 200, 409]
            # Pin the 409 shape clients key off of.
            assert last_body["program"] == "q"
            assert last_body["changes"] == ["table 'Comp' was removed"]
        finally:
            served.shutdown()
            thread.join(timeout=10)
            served.server_close()
            served.service.close()
            twin.service.close()

    def test_changes_sse_frames_are_the_feed_events(self, server):
        """Each SSE frame is ``sse_event`` of one feed event, byte for byte."""
        registry = server.service.registry
        registry.append_rows("default", "Comp", [["x0", "NewCo0"]])
        raw = raw_exchange(
            server,
            b"GET /catalogs/default/changes?since=0&sse=1&limit=2 "
            b"HTTP/1.1\r\nHost: x\r\n\r\n",
            timeout=30.0,
        )
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert b"text/event-stream" in head, head
        _, events = registry.feed.events_since("default", 0)
        assert len(events) == 2
        assert payload == b"".join(
            sse_event(event, event="change", id=event["seq"]) for event in events
        )

    def test_port_zero_is_readable_before_the_loop_runs(self, tmp_path):
        """The bind happens in the constructor: ``repro serve`` can print
        the real port (and only then fork workers) before serving."""
        server = create_server(make_service(tmp_path), port=0)
        try:
            host, port = server.server_address[:2]
            assert port != 0
        finally:
            server.server_close()
            server.service.close()


class TestFraming:
    def test_keep_alive_serves_many_requests_per_connection(self, server):
        request = (
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        raw = raw_exchange(server, request)
        assert raw.count(b"HTTP/1.1 200") == 2

    def test_bad_request_line_is_400(self, server):
        raw = raw_exchange(server, b"NONSENSE\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400")

    def test_oversized_headers_are_431(self, server):
        blob = (
            b"GET /healthz HTTP/1.1\r\nX-Pad: "
            + b"a" * (70 * 1024)
            + b"\r\n\r\n"
        )
        raw = raw_exchange(server, blob)
        assert raw.startswith(b"HTTP/1.1 431")

    def test_non_integer_content_length_is_400(self, server):
        raw = raw_exchange(
            server,
            b"POST /learn HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: banana\r\n\r\n",
        )
        assert raw.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in raw.split(b"\r\n\r\n", 1)[0]

    def test_missing_body_on_post_is_400(self, server):
        raw = raw_exchange(
            server, b"POST /learn HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert raw.startswith(b"HTTP/1.1 400")

    def test_unknown_post_is_404_without_touching_the_body(self, server):
        status, body = post(server, "/no/such/endpoint", {"examples": []})
        assert status == 404
        assert "no such endpoint" in body["error"]

    def test_query_strings_parse(self, server):
        status, body = get(server, "/healthz?x=1&x=2")
        assert status == 200
        assert body["status"] == "ok"

    def test_bad_json_is_400(self, server):
        raw = raw_exchange(
            server,
            b"POST /learn HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 9\r\n\r\nnot json!",
        )
        assert raw.startswith(b"HTTP/1.1 400")

    def test_refused_chunked_body_closes_before_the_pipelined_request(
        self, server
    ):
        """Only ``/fill/stream`` reads chunked bodies; refusing one must
        close the connection, not parse its chunk-size line as the next
        (pipelined) request."""
        body = json.dumps({"examples": EXAMPLES_JSON}).encode("utf-8")
        raw = raw_exchange(
            server,
            b"POST /learn HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n" % len(body)
            + body
            + b"\r\n0\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        head, _, reply = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400"), raw
        assert b"Connection: close" in head
        assert "chunked" in json.loads(reply)["error"]
        assert raw.count(b"HTTP/1.1 ") == 1, raw

    def test_expect_100_continue_is_answered_before_the_body(self, server):
        body = json.dumps({"examples": EXAMPLES_JSON}).encode("utf-8")
        with socket.create_connection(server.server_address, timeout=5) as sock:
            sock.sendall(
                b"POST /learn HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Expect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            )
            assert read_until(sock, b"\r\n\r\n") == (
                b"HTTP/1.1 100 Continue\r\n\r\n"
            )
            sock.sendall(body)
            sock.shutdown(socket.SHUT_WR)
            raw = read_to_end(sock)
        head, _, reply = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200"), raw
        assert json.loads(reply)["cache"] == "miss"

    def test_expect_100_continue_on_the_stream_route(self, server):
        status, _ = post(server, "/learn", {"examples": EXAMPLES_JSON, "save": "p"})
        assert status == 200
        stream = b'{"program": "p"}\n["c2 c5 c6"]\n'
        with socket.create_connection(server.server_address, timeout=5) as sock:
            sock.sendall(
                b"POST /fill/stream HTTP/1.1\r\nHost: x\r\n"
                b"Expect: 100-continue\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
            )
            assert read_until(sock, b"\r\n\r\n") == (
                b"HTTP/1.1 100 Continue\r\n\r\n"
            )
            sock.sendall(b"%x\r\n" % len(stream) + stream + b"\r\n0\r\n\r\n")
            raw = read_to_end(sock)
        assert raw.startswith(b"HTTP/1.1 200"), raw
        assert b'"Google IBM Xerox"' in raw

    def test_refused_body_gets_its_final_status_without_100(self, server):
        raw = raw_exchange(
            server,
            b"POST /learn HTTP/1.1\r\nHost: x\r\n"
            b"Expect: 100-continue\r\n"
            b"Content-Length: %d\r\n\r\n" % (1 << 40),
        )
        assert raw.startswith(b"HTTP/1.1 400"), raw
        assert b"Connection: close" in raw.split(b"\r\n\r\n", 1)[0]

    @pytest.mark.parametrize(
        "length_header, message",
        [
            (b"", "needs a body"),
            (b"Content-Length: -5\r\n", "non-negative integer"),
            (b"Content-Length: 1e3\r\n", "non-negative integer"),
            (b"Content-Length: %d\r\n" % (1 << 40), "exceeds"),
        ],
        ids=["missing", "negative", "non-integer", "oversized"],
    )
    def test_refused_length_closes_before_the_pipelined_request(
        self, server, length_header, message
    ):
        """Every Content-Length the server will not read ends the
        connection: the bytes after the head are never parsed as a
        request of their own."""
        raw = raw_exchange(
            server,
            b"POST /learn HTTP/1.1\r\nHost: x\r\n"
            + length_header
            + b"\r\nGET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        head, _, reply = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400"), raw
        assert b"Connection: close" in head
        assert message in json.loads(reply)["error"]
        assert raw.count(b"HTTP/1.1 ") == 1, raw

    @pytest.mark.parametrize(
        "version, connection, kept",
        [
            (b"HTTP/1.0", b"", False),
            (b"HTTP/1.0", b"Connection: keep-alive\r\n", True),
            (b"HTTP/1.1", b"Connection: close\r\n", False),
        ],
        ids=["http10-default", "http10-keep-alive", "http11-close"],
    )
    def test_connection_header_decides_keep_alive(
        self, server, version, connection, kept
    ):
        raw = raw_exchange(
            server,
            b"GET /healthz " + version + b"\r\nHost: x\r\n" + connection
            + b"\r\nGET /stats HTTP/1.1\r\nHost: x\r\n"
            b"Connection: close\r\n\r\n",
        )
        head = raw.split(b"\r\n\r\n", 1)[0]
        assert head.startswith(b"HTTP/1.1 200"), raw
        expected = b"keep-alive" if kept else b"close"
        assert b"Connection: " + expected in head
        assert raw.count(b"HTTP/1.1 200") == (2 if kept else 1), raw

    def test_expect_100_continue_is_not_sent_to_http_1_0_clients(
        self, server
    ):
        """An HTTP/1.0 client cannot read an interim reply; it sends its
        body at once and gets only the final status."""
        body = json.dumps({"examples": EXAMPLES_JSON}).encode("utf-8")
        raw = raw_exchange(
            server,
            b"POST /learn HTTP/1.0\r\n"
            b"Content-Type: application/json\r\n"
            b"Expect: 100-continue\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body,
        )
        assert raw.startswith(b"HTTP/1.1 200"), raw
        assert b"100 Continue" not in raw

    def test_status_line_carries_the_reason_and_server_name(self, server):
        raw = raw_exchange(
            server,
            b"GET /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        )
        head = raw.split(b"\r\n\r\n", 1)[0].split(b"\r\n")
        assert head[0] == b"HTTP/1.1 404 Not Found"
        assert b"Server: repro-serve/" + __version__.encode() in head


class TestLifecycle:
    def test_shutdown_then_server_close_is_clean(self, tmp_path, monkeypatch):
        """The stdlib teardown order: ``shutdown()`` returns once the loop
        has stopped and both lanes are shut down, so ``server_close()``
        never closes the socket under a running loop."""
        crashes = []
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        service = make_service(tmp_path)
        server = create_server(service, port=0)
        thread = boot(server)
        try:
            # One request per lane, so both lanes have live threads.
            assert post(server, "/learn", {"examples": EXAMPLES_JSON})[0] == 200
            assert get(server, "/healthz")[0] == 200
            lanes = list(server._executors.values())
            server.shutdown()
            for lane in lanes:
                with pytest.raises(RuntimeError):
                    lane.submit(int)  # shut down: takes no new work
            server.server_close()
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            service.close()
        assert len(lanes) == 2
        assert crashes == []

    def test_shutdown_of_a_server_that_never_started_returns(self, tmp_path):
        server = create_server(make_service(tmp_path), port=0)
        try:
            stopper = threading.Thread(target=server.shutdown, daemon=True)
            stopper.start()
            stopper.join(timeout=5)
            assert not stopper.is_alive()
            started = time.monotonic()
            server.serve_forever()  # stopped before it started: returns
            assert time.monotonic() - started < 5
        finally:
            server.server_close()
            server.service.close()

    def test_verbose_server_logs_one_line_per_request(self, tmp_path, capsys):
        server = create_server(make_service(tmp_path), port=0, quiet=False)
        thread = boot(server)
        try:
            assert get(server, "/healthz")[0] == 200
            assert post(server, "/learn", {"examples": EXAMPLES_JSON})[0] == 200
            assert get(server, "/nope")[0] == 404
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
            server.service.close()
        lines = capsys.readouterr().err.splitlines()
        shape = (
            r'127\.0\.0\.1 - - \[\d\d/\w{3}/\d{4} \d\d:\d\d:\d\d\] '
            r'"(.*)" (\d{3}) -'
        )
        assert [re.fullmatch(shape, line).groups() for line in lines] == [
            ("GET /healthz HTTP/1.1", "200"),
            ("POST /learn HTTP/1.1", "200"),
            ("GET /nope HTTP/1.1", "404"),
        ]

    def test_access_log_escapes_control_characters(self, tmp_path, capsys):
        """A request line cannot forge or garble log lines: control
        characters are written as ``\\xNN`` escapes."""
        server = create_server(make_service(tmp_path), port=0, quiet=False)
        thread = boot(server)
        try:
            raw = raw_exchange(
                server, b"GET /a\x1b[2Jb HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            assert raw.startswith(b"HTTP/1.1 404"), raw
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
            server.service.close()
        (line,) = capsys.readouterr().err.splitlines()
        assert '"GET /a\\x1b[2Jb HTTP/1.1" 404 -' in line
        assert "\x1b" not in line

    def test_quiet_server_logs_nothing(self, server, capsys):
        assert get(server, "/healthz")[0] == 200
        assert get(server, "/nope")[0] == 404
        assert capsys.readouterr().err == ""

    def test_shutdown_does_not_wait_for_a_parked_long_poll(self, tmp_path):
        """A long-poll waits on the event loop, outside the drain of
        in-flight requests: shutdown ends it instead of outliving it."""
        server = create_server(make_service(tmp_path), port=0)
        thread = boot(server)
        try:
            with socket.create_connection(
                server.server_address, timeout=20
            ) as sock:
                sock.sendall(
                    b"GET /catalogs/default/changes?since=1&wait=30 "
                    b"HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                time.sleep(0.3)  # let the poll park
                started = time.monotonic()
                server.shutdown()
                assert time.monotonic() - started < 10
                assert read_to_end(sock) == b""  # dropped, never answered
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            server.shutdown()
            server.server_close()
            server.service.close()


class TestServingConsistency:
    def test_fills_byte_identical_under_simultaneous_appends(self, server):
        """Appends only grow tables; a fill for rows that predate every
        append must return the same bytes no matter the interleaving."""
        status, learned = post(
            server, "/learn", {"examples": EXAMPLES_JSON, "save": "prog"}
        )
        assert status == 200, learned
        fill_payload = {"program": "prog", "rows": [["c2 c5"], ["c6 c1"]]}
        status, oracle = post(server, "/fill", fill_payload)
        assert status == 200, oracle
        oracle_bytes = json.dumps(oracle, sort_keys=True)

        def do_fill(_):
            return post(server, "/fill", fill_payload)

        def do_append(index):
            return post(
                server,
                "/catalogs/default/rows",
                {
                    "table": "Comp",
                    "rows": [[f"x{index}", f"NewCo{index}"]],
                },
            )

        with ThreadPoolExecutor(max_workers=8) as executor:
            fills = [executor.submit(do_fill, i) for i in range(12)]
            appends = [executor.submit(do_append, i) for i in range(6)]
            for future in appends:
                status, body = future.result(timeout=60)
                assert status == 200, body
            for future in fills:
                status, body = future.result(timeout=60)
                assert status == 200, body
                assert json.dumps(body, sort_keys=True) == oracle_bytes

        # And the appends really landed: a fresh fill serves the new rows.
        status, after = post(
            server, "/fill", {"program": "prog", "rows": [["x0 x5 x3"]]}
        )
        assert status == 200, after
        assert after["outputs"] == ["NewCo0 NewCo5 NewCo3"]


class TestPoolIntegration:
    def test_learn_dispatches_to_pool_and_healthz_degrades(self, tmp_path):
        service = make_service(tmp_path)
        pool = WorkerPool(1, catalogs=[service.engine.catalog])
        service.attach_pool(pool)
        server = create_server(service, port=0)
        thread = boot(server)
        try:
            status, health = get(server, "/healthz")
            assert status == 200
            assert health["workers"] == {"size": 1, "alive": 1}
            status, body = post(server, "/learn", {"examples": EXAMPLES_JSON})
            assert status == 200, body
            status, stats = get(server, "/stats")
            assert stats["workers"]["enabled"] is True
            assert stats["requests"]["pool_dispatched"] == 1

            import os
            import signal
            import time

            for pid in pool.worker_pids():
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while pool.alive_count() and time.monotonic() < deadline:
                time.sleep(0.02)
            status, health = get(server, "/healthz")
            assert status == 503
            assert health["status"] == "degraded"
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
            service.close()
