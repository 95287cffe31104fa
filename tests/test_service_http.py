"""Tests for the JSON HTTP API (the asyncio server over SynthesisService)."""

import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api.engine import Synthesizer
from repro.service import ProgramStore, SynthesisService, create_server
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
EXAMPLES = [(("c4 c3 c1",), "Facebook Apple Microsoft")]


def make_catalog():
    return Catalog([Table("Comp", ["Id", "Name"], ROWS, keys=[("Id",)])])


@pytest.fixture()
def server(tmp_path):
    service = SynthesisService(
        make_catalog(), store=ProgramStore(tmp_path / "store")
    )
    server = create_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def get(server, path):
    with urllib.request.urlopen(base_url(server) + path, timeout=10) as reply:
        return reply.status, json.loads(reply.read().decode("utf-8"))


def post(server, path, payload):
    request = urllib.request.Request(
        base_url(server) + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, json.loads(reply.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


class TestEndpoints:
    def test_healthz(self, server):
        status, body = get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["tables"] == ["Comp"]
        assert body["store"] is True

    def test_learn_then_cached_relearn(self, server):
        status, first = post(server, "/learn", {"examples": EXAMPLES_JSON})
        assert status == 200
        assert first["cache"] == "miss"
        assert first["programs"][0]["rank"] == 1
        status, second = post(server, "/learn", {"examples": EXAMPLES_JSON})
        assert second["cache"] == "hit"
        # Byte-identical serving: the cached reply carries the exact same
        # program payloads.
        assert second["programs"] == first["programs"]

    def test_learn_matches_direct_synthesizer(self, server):
        """The acceptance equivalence: HTTP == direct Synthesizer calls."""
        _, body = post(server, "/learn", {"examples": EXAMPLES_JSON, "k": 3})
        direct = Synthesizer(make_catalog()).synthesize(EXAMPLES, k=3)
        assert [c["program"] for c in body["programs"]] == [
            c.program.to_dict() for c in direct.programs
        ]
        assert body["structure_size"] == direct.structure_size

    def test_learn_save_and_fill_by_name(self, server):
        _, learned = post(
            server, "/learn", {"examples": EXAMPLES_JSON, "save": "expand"}
        )
        assert learned["saved"] == {"name": "expand", "version": 1}
        status, filled = post(
            server, "/fill", {"program": "expand", "rows": [["c2 c5 c6"]]}
        )
        assert status == 200
        assert filled == {"outputs": ["Google IBM Xerox"], "rows": 1}

    def test_fill_by_payload(self, server):
        _, learned = post(server, "/learn", {"examples": EXAMPLES_JSON})
        payload = learned["programs"][0]["program"]
        _, filled = post(
            server, "/fill", {"program": payload, "rows": [["c2 c5 c6"]]}
        )
        assert filled["outputs"] == ["Google IBM Xerox"]

    def test_fill_undefined_output_is_null(self, server):
        """Rows the program is undefined on (⊥) are JSON null; blank
        rows are empty strings -- both documented serving rules."""
        post(server, "/learn", {"examples": EXAMPLES_JSON, "save": "expand"})
        _, filled = post(
            server, "/fill", {"program": "expand", "rows": [["%%%"], []]}
        )
        assert filled["outputs"] == [None, ""]

    def test_fill_blank_rows_align(self, server):
        post(server, "/learn", {"examples": EXAMPLES_JSON, "save": "expand"})
        _, filled = post(
            server,
            "/fill",
            {"program": "expand", "rows": [["c2 c5 c6"], [], ["c1 c1 c1"]]},
        )
        assert filled["outputs"] == [
            "Google IBM Xerox",
            "",
            "Microsoft Microsoft Microsoft",
        ]

    def test_programs_listing(self, server):
        post(server, "/learn", {"examples": EXAMPLES_JSON, "save": "expand"})
        status, body = get(server, "/programs")
        assert status == 200
        (entry,) = body["programs"]
        assert entry["name"] == "expand"
        assert entry["versions"] == [1]

    def test_stats_reports_cache_hits(self, server):
        post(server, "/learn", {"examples": EXAMPLES_JSON})
        post(server, "/learn", {"examples": EXAMPLES_JSON})
        status, stats = get(server, "/stats")
        assert status == 200
        assert stats["requests"]["learn_requests"] == 2
        assert stats["request_cache"]["hits"] == 1
        assert stats["request_cache"]["misses"] == 1


class TestErrors:
    def test_unknown_route(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server, "/nope")
        assert excinfo.value.code == 404

    def test_bad_json_body(self, server):
        request = urllib.request.Request(
            base_url(server) + "/learn",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_missing_examples_field(self, server):
        status, body = post(server, "/learn", {})
        assert status == 400
        assert "examples" in body["error"]

    def test_malformed_example(self, server):
        status, body = post(server, "/learn", {"examples": [["not-a-pair"]]})
        assert status == 400

    @pytest.mark.parametrize("k", [101, True], ids=["over-max", "boolean"])
    def test_k_outside_bounds_is_400(self, server, k):
        status, body = post(server, "/learn", {"examples": EXAMPLES_JSON, "k": k})
        assert status == 400
        assert body["error"] == "k must be an integer from 1 to 100"
        _, stats = get(server, "/stats")
        assert stats["request_cache"]["misses"] == 0  # nothing was learned

    def test_unsolvable_task_is_422(self, server):
        status, body = post(
            server,
            "/learn",
            {"examples": [[["a"], "x"], [["a"], "y"]]},
        )
        assert status == 422
        assert "error" in body

    def test_unknown_program_is_404(self, server):
        status, body = post(server, "/fill", {"program": "nope", "rows": [["x"]]})
        assert status == 404
        assert "nope" in body["error"]

    def test_fill_arity_mismatch_is_400(self, server):
        post(server, "/learn", {"examples": EXAMPLES_JSON, "save": "expand"})
        status, body = post(
            server, "/fill", {"program": "expand", "rows": [["a", "b"]]}
        )
        assert status == 400
        assert "fill row 1" in body["error"]

    def test_fill_bad_rows_type(self, server):
        post(server, "/learn", {"examples": EXAMPLES_JSON, "save": "expand"})
        status, body = post(
            server, "/fill", {"program": "expand", "rows": [[1, 2]]}
        )
        assert status == 400

    def test_repeated_learn_save_reports_the_same_version(self, server):
        body = {"examples": EXAMPLES_JSON, "save": "expand"}
        _, first = post(server, "/learn", body)
        _, second = post(server, "/learn", body)
        assert first["saved"] == {"name": "expand", "version": 1}
        assert second["saved"] == {"name": "expand", "version": 1}  # deduped

    def test_bad_save_name_is_400(self, server):
        status, body = post(
            server, "/learn", {"examples": EXAMPLES_JSON, "save": "bad/name"}
        )
        assert status == 400
        assert "bad program name" in body["error"]

    def test_rejected_body_closes_the_connection(self, server):
        """A POST without a body must not desynchronize a keep-alive
        connection: the 400 carries Connection: close."""
        import http.client

        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request("POST", "/learn")  # no body, no Content-Length
            response = connection.getresponse()
            assert response.status == 400
            response.read()
            assert response.will_close
        finally:
            connection.close()

    def test_malformed_content_length_is_400_and_closes(self, server):
        import http.client

        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.putrequest("POST", "/learn")
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert b"Content-Length" in response.read()
            assert response.will_close
        finally:
            connection.close()

    def test_post_unknown_route_with_body_keeps_the_connection_in_sync(
        self, server
    ):
        """The body of a POST to an unknown route is drained before the
        404, so the next request on the same keep-alive connection is
        answered, not parsed out of the leftover body bytes."""
        import http.client

        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request(
                "POST",
                "/nope",
                body=json.dumps({"x": 1}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 404
            response.read()
            sock = connection.sock
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
            assert connection.sock is sock  # the same connection
        finally:
            connection.close()


class TestConcurrentServing:
    def test_concurrent_learn_and_fill_match_direct_calls(self, server):
        """Concurrent /learn and /fill answers are byte-identical to the
        direct Synthesizer (the acceptance criterion)."""
        direct = Synthesizer(make_catalog()).synthesize(EXAMPLES, k=1)
        expected_program = direct.program.to_dict()
        fill_rows = [["c2 c5 c6"], ["c1 c4 c2"]]
        expected_outputs = [direct.program.run(tuple(row)) for row in fill_rows]
        post(server, "/learn", {"examples": EXAMPLES_JSON, "save": "expand"})

        def one_learn(_):
            _, body = post(server, "/learn", {"examples": EXAMPLES_JSON})
            return body["programs"][0]["program"]

        def one_fill(_):
            _, body = post(server, "/fill", {"program": "expand", "rows": fill_rows})
            return body["outputs"]

        with ThreadPoolExecutor(max_workers=8) as pool:
            learned = list(pool.map(one_learn, range(8)))
            filled = list(pool.map(one_fill, range(8)))
        assert all(payload == expected_program for payload in learned)
        assert all(outputs == expected_outputs for outputs in filled)
