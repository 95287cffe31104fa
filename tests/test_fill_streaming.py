"""The chunked streaming fill path, end to end.

``POST /fill/stream`` takes a one-line JSON header followed by a row
stream (NDJSON or CSV) and answers with chunked NDJSON -- one JSON
string (or ``null``) per input row, blank rows included.  The contract
under test, over the HTTP server:

* row framing survives arbitrary transport chunk boundaries, including
  splits in the middle of a multi-byte UTF-8 character;
* chunked transfer-encoding request bodies work as well as
  Content-Length ones;
* pre-stream failures (bad header, unknown store reference) keep their
  typed HTTP statuses; mid-stream failures surface as one terminal
  JSON-object line naming the 1-based input row;
* an early client disconnect does not wedge the server;
* the CLI composes: ``--rows -`` reads stdin, ``--stream`` writes
  NDJSON incrementally, errors exit 1 naming the offending row;
* the worker pool ships fill jobs to child processes.
"""

import http.client
import json
import socket
import threading

import pytest

from repro.cli import main
from repro.engine.program import Program
from repro.exceptions import ServiceError
from repro.lookup.ast import Select
from repro.core.exprs import Var
from repro.service import (
    ProgramStore,
    SynthesisService,
    WorkerPool,
    create_server,
)
from repro.service.streamfill import (
    CSVRowReader,
    NDJSONRowReader,
    decode_rows,
    encode_outputs,
    error_line,
    make_reader,
)
from repro.tables.catalog import Catalog
from repro.tables.table import Table

ROWS = [
    ("c1", "Microsoft"),
    ("c2", "Google"),
    ("c3", "Apple"),
    ("c4", "Facebook"),
    ("c5", "IBM"),
    ("c6", "Xérox Déjà"),  # exercises multi-byte output encoding
]


def make_catalog():
    return Catalog([Table("Comp", ["Id", "Name"], ROWS, keys=[("Id",)])])


def make_program(catalog):
    return Program(
        Select("Name", "Comp", (("Id", Var(0)),)), catalog, "lookup", 1
    )


def make_service(tmp_path=None):
    store = ProgramStore(tmp_path / "store") if tmp_path is not None else None
    return SynthesisService(make_catalog(), store=store)


class TestRowCodecs:
    def test_ndjson_split_mid_multibyte_char(self):
        payload = json.dumps(["héllo wörld"], ensure_ascii=False).encode("utf-8")
        reader = NDJSONRowReader()
        rows = []
        # Feed one byte at a time: every multi-byte char gets split.
        for offset in range(len(payload)):
            rows.extend(reader.feed(payload[offset : offset + 1]))
        rows.extend(reader.feed(b"\n"))
        rows.extend(reader.finish())
        assert rows == [["héllo wörld"]]

    def test_ndjson_blank_lines_are_blank_rows(self):
        reader = NDJSONRowReader()
        rows = reader.feed(b'["a"]\n\n["b"]\n   \n')
        rows.extend(reader.finish())
        assert rows == [["a"], [], ["b"], []]

    def test_ndjson_final_line_without_newline(self):
        reader = NDJSONRowReader()
        rows = reader.feed(b'["a"]\n["b"]')
        assert rows == [["a"]]
        assert reader.finish() == [["b"]]

    def test_ndjson_crlf_tolerated(self):
        reader = NDJSONRowReader()
        assert reader.feed(b'["a"]\r\n["b"]\r\n') == [["a"], ["b"]]

    def test_ndjson_errors_name_one_based_row(self):
        reader = NDJSONRowReader()
        reader.feed(b'["ok"]\n')
        with pytest.raises(ValueError, match=r"input row 2"):
            reader.feed(b"{not json}\n")
        with pytest.raises(ValueError, match=r"input row 2"):
            NDJSONRowReader().feed(b'["a"]\n"not a list"\n')

    def test_csv_quoted_newline_inside_field(self):
        reader = CSVRowReader()
        rows = reader.feed(b'"line1\nline2",x\nplain,y\n')
        rows.extend(reader.finish())
        assert rows == [["line1\nline2", "x"], ["plain", "y"]]

    def test_csv_split_mid_multibyte_char(self):
        payload = "déjà,vü\n".encode("utf-8")
        reader = CSVRowReader()
        rows = []
        for offset in range(len(payload)):
            rows.extend(reader.feed(payload[offset : offset + 1]))
        rows.extend(reader.finish())
        assert rows == [["déjà", "vü"]]

    def test_csv_blank_record_is_blank_row(self):
        reader = CSVRowReader()
        assert reader.feed(b"a,b\n\nc,d\n") == [["a", "b"], [], ["c", "d"]]

    def test_make_reader_rejects_unknown_format(self):
        assert isinstance(make_reader("ndjson"), NDJSONRowReader)
        assert isinstance(make_reader("csv"), CSVRowReader)
        with pytest.raises(ValueError):
            make_reader("xml")

    def test_decode_rows_over_chunks(self):
        chunks = [b'["a"]\n[', b'"b"]', b"\n"]
        assert list(decode_rows(iter(chunks), "ndjson")) == [["a"], ["b"]]

    def test_encode_outputs_null_and_unicode(self):
        assert encode_outputs([None]) == b"null\n"
        assert encode_outputs(["Xérox"]) == '"Xérox"\n'.encode("utf-8")
        line = json.loads(error_line(b"boom 1".decode()).decode("utf-8"))
        assert line == {"error": "boom 1"}


# --- HTTP ----------------------------------------------------------------


@pytest.fixture()
def server(tmp_path):
    service = make_service(tmp_path)
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()
    service.close()


def address(server):
    host, port = server.server_address[:2]
    return host, port


def stream_request(server, body, headers=None, chunked=False):
    """POST /fill/stream; returns (status, list of NDJSON-decoded lines)."""
    host, port = address(server)
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        extra = dict(headers or {})
        if chunked:
            connection.request(
                "POST",
                "/fill/stream",
                body=iter(body) if isinstance(body, list) else body,
                headers=extra,
                encode_chunked=True,
            )
        else:
            connection.request("POST", "/fill/stream", body=body, headers=extra)
        reply = connection.getresponse()
        raw = reply.read()
        if reply.status != 200:
            return reply.status, json.loads(raw.decode("utf-8"))
        lines = [
            json.loads(line)
            for line in raw.decode("utf-8").splitlines()
            if line
        ]
        return reply.status, lines
    finally:
        connection.close()


def header_line(service, **extra):
    program = make_program(service.engine.catalog)
    header = {"program": program.to_dict()}
    header.update(extra)
    return (json.dumps(header) + "\n").encode("utf-8")


class TestStreamEndpoint:
    def test_ndjson_roundtrip_blank_rows_and_unicode(self, server):
        body = header_line(server.service) + (
            b'["c1"]\n'  # hit
            b"\n"  # blank row -> ""
            b'["zz"]\n'  # miss -> "" (Select no-match)
            + json.dumps(["c6"]).encode("utf-8")
            + b"\n"
        )
        status, lines = stream_request(server, body)
        assert status == 200
        assert lines == ["Microsoft", "", "", "Xérox Déjà"]

    def test_chunked_request_body_split_mid_multibyte(self, server):
        row = json.dumps(["c6"], ensure_ascii=False).encode("utf-8") + b"\n"
        stream = header_line(server.service) + row
        # Transport chunks of 3 bytes: guaranteed splits inside the
        # header, inside JSON tokens, and (for multi-byte text) inside
        # UTF-8 sequences.
        pieces = [stream[i : i + 3] for i in range(0, len(stream), 3)]
        status, lines = stream_request(server, pieces, chunked=True)
        assert status == 200
        assert lines == ["Xérox Déjà"]

    def test_csv_format_with_quoted_newline(self, server):
        body = header_line(server.service, format="csv") + (
            b'c1\n"c2"\n\nc4\n'
        )
        status, lines = stream_request(server, body)
        assert status == 200
        assert lines == ["Microsoft", "Google", "", "Facebook"]

    def test_small_chunk_parameter_still_serves_all_rows(self, server):
        rows = b"".join(
            json.dumps([f"c{1 + i % 6}"]).encode() + b"\n" for i in range(50)
        )
        status, lines = stream_request(
            server, header_line(server.service, chunk=2) + rows
        )
        assert status == 200
        assert len(lines) == 50
        assert lines[0] == "Microsoft"

    def test_bad_header_is_http_400(self, server):
        status, body = stream_request(server, b"not json\n")
        assert status == 400
        assert "error" in body

    def test_unknown_store_reference_is_http_404(self, server):
        body = json.dumps({"program": "nope"}).encode("utf-8") + b"\n"
        status, payload = stream_request(server, body)
        assert status == 404

    def test_mid_stream_error_line_names_row(self, server):
        # chunk=1 flushes row by row, so the good row lands before the
        # terminal error line (chunks are all-or-nothing).
        body = header_line(server.service, chunk=1) + (
            b'["c1"]\n["c2","extra"]\n["c3"]\n'
        )
        status, lines = stream_request(server, body)
        assert status == 200
        assert lines[0] == "Microsoft"
        assert isinstance(lines[-1], dict)
        assert "fill row 2" in lines[-1]["error"]
        # Nothing after the error line.
        assert len(lines) == 2

    def test_default_chunk_fails_whole_batch(self, server):
        body = header_line(server.service) + (
            b'["c1"]\n["c2","extra"]\n'
        )
        status, lines = stream_request(server, body)
        assert status == 200
        assert lines == [{"error": "fill row 2: program expects 1 inputs, got 2"}]

    def test_early_disconnect_leaves_server_serving(self, server):
        host, port = address(server)
        raw = socket.create_connection((host, port), timeout=10)
        try:
            rows = b"".join(
                json.dumps(["c1"]).encode() + b"\n" for _ in range(200)
            )
            body = header_line(server.service) + rows
            raw.sendall(
                b"POST /fill/stream HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: 1000000\r\n\r\n" + body
            )
        finally:
            raw.close()  # hang up with the body incomplete
        # The server must still answer new requests afterwards.
        status, lines = stream_request(
            server, header_line(server.service) + b'["c1"]\n'
        )
        assert status == 200
        assert lines == ["Microsoft"]

    def test_stats_expose_plan_cache(self, server):
        stream_request(server, header_line(server.service) + b'["c1"]\n')
        host, port = address(server)
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request("GET", "/stats")
            stats = json.loads(connection.getresponse().read().decode())
        finally:
            connection.close()
        assert "plan_cache" in stats
        assert stats["plan_cache"]["entries"] >= 0
        assert stats["requests"]["fill_requests"] >= 1


# --- service-level streaming ---------------------------------------------


class TestServiceFillStream:
    def test_input_error_is_service_error(self):
        service = make_service()
        program = make_program(service.engine.catalog)

        def rows():
            yield ["c1"]
            raise ValueError("input row 2: broken")

        chunks = service.fill_stream(program, rows(), chunk_rows=1)
        assert next(chunks) == ["Microsoft"]
        with pytest.raises(ServiceError, match="input row 2"):
            list(chunks)
        service.close()


# --- CLI -----------------------------------------------------------------


@pytest.fixture()
def artifact(tmp_path):
    (tmp_path / "Comp.csv").write_text(
        "Id,Name\n" + "\n".join(f"{i},{n}" for i, n in ROWS) + "\n",
        encoding="utf-8",
    )
    (tmp_path / "examples.csv").write_text(
        "c4 c3 c1,Facebook Apple Microsoft\n", encoding="utf-8"
    )
    saved = tmp_path / "program.json"
    code = main(
        [
            "learn",
            "--table", str(tmp_path / "Comp.csv"),
            "--examples", str(tmp_path / "examples.csv"),
            "--save", str(saved),
        ]
    )
    assert code == 0
    return tmp_path


class TestCliStreaming:
    def test_rows_from_stdin(self, artifact, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("c2 c3 c1\nc1 c4 c2\n"))
        code = main(
            [
                "fill",
                "--program", str(artifact / "program.json"),
                "--table", str(artifact / "Comp.csv"),
                "--rows", "-",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Google Apple Microsoft" in captured.out

    def test_stream_writes_ndjson(self, artifact, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("c2 c3 c1\n\nc1 c4 c2\n"))
        code = main(
            [
                "fill",
                "--program", str(artifact / "program.json"),
                "--table", str(artifact / "Comp.csv"),
                "--rows", "-",
                "--stream",
                "--chunk", "1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = [json.loads(line) for line in captured.out.splitlines()]
        assert lines == [
            "Google Apple Microsoft",
            "",
            "Microsoft Facebook Google",
        ]

    def test_stream_error_names_row_and_exits_1(self, artifact, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("c2 c3 c1\nc1 c4 c2,extra\n")
        )
        code = main(
            [
                "fill",
                "--program", str(artifact / "program.json"),
                "--table", str(artifact / "Comp.csv"),
                "--rows", "-",
                "--stream",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "fill row 2" in captured.err


# --- worker pool ----------------------------------------------------------


class TestPoolFill:
    def test_fill_job_matches_in_process(self):
        catalog = make_catalog()
        program = make_program(catalog)
        rows = [["c1"], [], ["c4"], ["zz"]]
        with WorkerPool(1, catalogs=[catalog]) as pool:
            outputs = pool.fill(catalog, program.to_dict(), rows, timeout=60)
        assert outputs == program.fill_aligned_interpreted(rows)

    def test_fill_job_error_relays_typed(self):
        catalog = make_catalog()
        program = make_program(catalog)
        with WorkerPool(1, catalogs=[catalog]) as pool:
            with pytest.raises(Exception, match="fill row 1"):
                pool.fill(catalog, program.to_dict(), [["a", "b"]], timeout=60)
