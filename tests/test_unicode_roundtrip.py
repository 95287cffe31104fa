"""Unicode round-trips: non-ASCII and astral-plane strings through every
layer of the pipeline -- tokenization, catalog/substring indexes, program
serialization, CSV IO and the HTTP endpoints.

The paper's languages are untyped over strings; nothing in the stack may
silently assume ASCII.  ``ASTRAL`` cells exercise characters outside the
Basic Multilingual Plane (surrogate pairs in UTF-16 builds, 4-byte
UTF-8), the classic place for off-by-one indexing and encoding bugs.
"""

import json
import threading
import urllib.request

import pytest

from references import overlaps, scan_rows
from repro.api.engine import Synthesizer
from repro.engine.program import Program
from repro.service import SynthesisService, create_server
from repro.syntactic.ast import ConstStr
from repro.syntactic.tokens import TokenMatchIndex
from repro.tables.catalog import Catalog
from repro.tables.io import table_from_csv_text, table_to_csv_text
from repro.tables.substring_index import SubstringIndex
from repro.tables.table import Table

#: BMP non-ASCII, combining marks, CJK, and astral-plane values.
UNICODE_CELLS = [
    "Müller",
    "Škoda Österreich",
    "ναὶ μὰ τήν",
    "日本語テスト",
    "🦄 unicorn",
    "𝔘𝔫𝔦𝔠𝔬𝔡𝔢",  # mathematical fraktur: all astral plane
    "étude",  # combining acute
]
ASTRAL = "𝔘𝔫𝔦𝔠𝔬𝔡𝔢"


def unicode_catalog():
    rows = [(f"k{i}", value) for i, value in enumerate(UNICODE_CELLS)]
    return Catalog([Table("U", ["Id", "Val"], rows, keys=[("Id",)])])


class TestTokenization:
    @pytest.mark.parametrize("text", UNICODE_CELLS)
    def test_match_index_spans_within_bounds(self, text):
        index = TokenMatchIndex(text)
        for spans in index.matches.values():
            for start, end in spans:
                assert 0 <= start <= end <= len(text)

    def test_astral_positions_are_code_points(self):
        # Each fraktur letter is ONE Python code point; spans must count
        # code points, not UTF-16 units.
        index = TokenMatchIndex(ASTRAL)
        assert index.text == ASTRAL
        assert len(ASTRAL) == 7
        # End token ends at len(text) in code points.
        assert index.tokens_ending_at(7)


class TestIndexes:
    def test_occurrences_of_unicode_values(self):
        catalog = unicode_catalog()
        for value in UNICODE_CELLS:
            (occurrence,) = catalog.occurrences_of(value)
            assert occurrence.table == "U"

    def test_substring_index_matches_naive_overlap(self):
        values = list(UNICODE_CELLS)
        index = SubstringIndex(values)
        queries = UNICODE_CELLS + ["Mü", "ü", "🦄", "𝔘𝔫", "testé", "xyz"]
        for text in queries:
            naive = [
                value_id
                for value_id, value in enumerate(values)
                if overlaps(value, text, 1)
            ]
            assert index.overlapping(text) == naive, text

    def test_table_value_rows_unicode(self):
        table = unicode_catalog().table("U")
        for row_number, value in enumerate(UNICODE_CELLS):
            assert table.value_rows("Val", value) == (row_number,)
            assert table.find_rows({"Val": value}) == scan_rows(table, {"Val": value})

    def test_fingerprint_distinguishes_unicode_content(self):
        # NFC vs NFD "étude" are different strings; the fingerprint (and
        # therefore the service cache key) must not conflate them.
        nfc = Table("T", ["a"], [("étude",)])
        nfd = Table("T", ["a"], [("étude",)])
        assert nfc.fingerprint() != nfd.fingerprint()


class TestCsvRoundTrip:
    def test_table_round_trips(self):
        table = unicode_catalog().table("U")
        parsed = table_from_csv_text("U", table_to_csv_text(table), keys=[("Id",)])
        assert parsed == table

    def test_cells_with_quotes_commas_and_astral(self):
        table = Table("Q", ["a", "b"], [('say "hí"', "𝔘,𝔫"), ("plain", "x")])
        parsed = table_from_csv_text("Q", table_to_csv_text(table))
        assert parsed.rows == table.rows


class TestProgramSerialization:
    def test_const_unicode_round_trip(self):
        program = Program(ConstStr(ASTRAL + " ✓"), None, "syntactic", 1)
        rebuilt = Program.from_json(program.to_json())
        assert rebuilt.run(("anything",)) == ASTRAL + " ✓"
        assert rebuilt.to_dict() == program.to_dict()

    def test_learned_lookup_round_trips_unicode_outputs(self):
        catalog = unicode_catalog()
        examples = [(("k0",), "Müller"), (("k3",), "日本語テスト")]
        result = Synthesizer(catalog).synthesize(examples)
        rebuilt = Program.from_json(result.program.to_json(), catalog=catalog)
        for i, value in enumerate(UNICODE_CELLS):
            assert rebuilt.run((f"k{i}",)) == value == result.program.run((f"k{i}",))


class TestHttpUnicode:
    @pytest.fixture()
    def server(self):
        service = SynthesisService(unicode_catalog())
        server = create_server(service, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def _post(self, server, path, payload):
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}{path}",
            data=json.dumps(payload, ensure_ascii=False).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as reply:
            return json.loads(reply.read().decode("utf-8"))

    def test_learn_and_fill_unicode_over_http(self, server):
        body = self._post(
            server,
            "/learn",
            {"examples": [[["k0"], "Müller"], [["k3"], "日本語テスト"]]},
        )
        assert body["cache"] == "miss"
        payload = body["programs"][0]["program"]
        filled = self._post(
            server,
            "/fill",
            {"program": payload, "rows": [[f"k{i}"] for i in range(len(UNICODE_CELLS))]},
        )
        assert filled["outputs"] == UNICODE_CELLS

    def test_unicode_requests_hit_the_cache(self, server):
        examples = {"examples": [[["k4"], "🦄 unicorn"], [["k5"], ASTRAL]]}
        first = self._post(server, "/learn", examples)
        second = self._post(server, "/learn", examples)
        assert first["cache"] == "miss"
        assert second["cache"] == "hit"
