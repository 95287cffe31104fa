"""Multi-catalog HTTP surface: registry endpoints, staleness, typed errors.

Runs the real HTTP server on an ephemeral port and exercises
the PR-5 surface end to end: PUT/GET ``/catalogs``, CSV and JSON table
uploads, copy-on-write row appends, the ``catalog`` field on
``/learn``/``/fill``, artifact catalog provenance with re-resolve vs
409-staleness, and the structured 4xx bodies for duplicate tables,
duplicate CSV headers, unknown catalogs, empty catalogs and missing
tables/columns.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import (
    CatalogRegistry,
    ProgramStore,
    SynthesisService,
    create_server,
)
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
EXAMPLES = [[["c4 c3 c1"], "Facebook Apple Microsoft"]]


def comp_table():
    return Table("Comp", ["Id", "Name"], ROWS, keys=[("Id",)])


class Client:
    def __init__(self, base):
        self.base = base

    def request(self, method, path, payload=None, raw=None, content_type=None):
        data = raw
        headers = {}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if content_type is not None:
            headers["Content-Type"] = content_type
        request = urllib.request.Request(
            self.base + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as reply:
                return reply.status, json.loads(reply.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read().decode("utf-8"))

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, payload=None, **kwargs):
        return self.request("POST", path, payload, **kwargs)

    def put(self, path, payload):
        return self.request("PUT", path, payload)


@pytest.fixture()
def client(tmp_path):
    registry = CatalogRegistry()
    registry.register("products", Catalog([comp_table()]))
    service = SynthesisService(
        registry=registry,
        default_catalog="products",
        store=ProgramStore(tmp_path / "store"),
    )
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield Client(f"http://{host}:{port}")
    finally:
        server.shutdown()
        server.server_close()


class TestCatalogEndpoints:
    def test_put_get_list_roundtrip(self, client):
        status, created = client.put(
            "/catalogs/geo",
            {
                "tables": [
                    {
                        "name": "Caps",
                        "columns": ["Country", "Capital"],
                        "rows": [["France", "Paris"], ["Japan", "Tokyo"]],
                        "keys": [["Country"]],
                    }
                ]
            },
        )
        assert status == 200 and created["created"] is True
        status, detail = client.get("/catalogs/geo")
        assert status == 200
        assert detail["tables"][0]["columns"] == ["Country", "Capital"]
        assert detail["tables"][0]["keys"] == [["Country"]]
        status, listing = client.get("/catalogs")
        assert status == 200
        names = {entry["name"] for entry in listing["catalogs"]}
        assert {"geo", "products"} <= names
        status, health = client.get("/healthz")
        assert "geo" in health["catalogs"]
        assert health["default_catalog"] == "products"

    def test_put_replaces_and_reports_not_created(self, client):
        client.put(
            "/catalogs/geo",
            {"tables": [{"name": "A", "columns": ["x"], "rows": [["1"]]}]},
        )
        status, replaced = client.put(
            "/catalogs/geo",
            {"tables": [{"name": "B", "columns": ["y"], "rows": [["2"]]}]},
        )
        assert status == 200 and replaced["created"] is False
        _, detail = client.get("/catalogs/geo")
        assert [table["name"] for table in detail["tables"]] == ["B"]

    def test_post_table_json_and_csv(self, client):
        status, reply = client.post(
            "/catalogs/geo/tables",
            {"name": "Caps", "csv": "Country,Capital\nFrance,Paris\n"},
        )
        assert status == 200 and reply["added"] == "Caps"
        status, reply = client.post(
            "/catalogs/geo/tables?name=Codes",
            raw=b"Code,City\nSEA,Seattle\n",
            content_type="text/csv",
        )
        assert status == 200 and reply["added"] == "Codes"
        _, detail = client.get("/catalogs/geo")
        assert [table["name"] for table in detail["tables"]] == ["Caps", "Codes"]

    def test_post_rows_appends_copy_on_write(self, client):
        _, before = client.get("/catalogs/products")
        status, after = client.post(
            "/catalogs/products/rows",
            {"table": "Comp", "rows": [["c7", "Intel"]]},
        )
        assert status == 200
        assert after["appended"] == {"table": "Comp", "rows": 1}
        assert after["fingerprint"] != before["fingerprint"]
        assert after["tables"][0]["num_rows"] == len(ROWS) + 1

    def test_csv_upload_without_name_is_400(self, client):
        status, reply = client.post(
            "/catalogs/geo/tables",
            raw=b"a,b\n1,2\n",
            content_type="text/csv",
        )
        assert status == 400
        assert "query" in reply["error"]


class TestLearnFillWithCatalogs:
    def test_learn_names_its_snapshot(self, client):
        status, reply = client.post(
            "/learn", {"examples": EXAMPLES, "catalog": "products"}
        )
        assert status == 200
        assert reply["catalog"]["name"] == "products"
        assert reply["cache"] == "miss"
        _, detail = client.get("/catalogs/products")
        assert reply["catalog"]["fingerprint"] == detail["fingerprint"]

    def test_learn_fill_against_uploaded_catalog(self, client):
        client.put(
            "/catalogs/geo",
            {
                "tables": [
                    {
                        "name": "Caps",
                        "csv": "Country,Capital\nFrance,Paris\nJapan,Tokyo\n",
                    }
                ]
            },
        )
        status, learned = client.post(
            "/learn", {"examples": [[["France"], "Paris"]], "catalog": "geo"}
        )
        assert status == 200
        status, filled = client.post(
            "/fill",
            {
                "program": learned["programs"][0]["program"],
                "rows": [["Japan"]],
                "catalog": "geo",
            },
        )
        assert status == 200 and filled["outputs"] == ["Tokyo"]

    def test_append_invalidates_cache_and_serves_new_snapshot(self, client):
        _, first = client.post("/learn", {"examples": EXAMPLES})
        client.post(
            "/catalogs/products/rows",
            {"table": "Comp", "rows": [["c7", "Intel"]]},
        )
        _, second = client.post("/learn", {"examples": EXAMPLES})
        assert second["cache"] == "miss"  # new fingerprint, new cache key
        assert second["catalog"]["fingerprint"] != first["catalog"]["fingerprint"]
        status, filled = client.post(
            "/fill",
            {
                "program": second["programs"][0]["program"],
                "rows": [["c7 c2"]],
            },
        )
        # The appended row is visible: served from the new snapshot.
        assert status == 200
        assert filled["outputs"][0].startswith("Intel")

    def test_identical_content_shares_cache_across_names(self, client):
        client.put(
            "/catalogs/mirror",
            {
                "tables": [
                    {
                        "name": "Comp",
                        "columns": ["Id", "Name"],
                        "rows": [list(row) for row in ROWS],
                        "keys": [["Id"]],
                    }
                ]
            },
        )
        _, first = client.post(
            "/learn", {"examples": EXAMPLES, "catalog": "products"}
        )
        _, second = client.post(
            "/learn", {"examples": EXAMPLES, "catalog": "mirror"}
        )
        # Equal content -> equal fingerprint -> equal cache key: sound
        # because results depend only on catalog content.
        assert first["catalog"]["fingerprint"] == second["catalog"]["fingerprint"]
        assert second["cache"] == "hit"


class TestProvenanceAndStaleness:
    def save_expand(self, client):
        status, reply = client.post(
            "/learn",
            {"examples": EXAMPLES, "save": "expand", "catalog": "products"},
        )
        assert status == 200 and reply["saved"]["version"] == 1
        return reply

    def test_artifact_records_catalog_provenance(self, client):
        learned = self.save_expand(client)
        status, listing = client.get("/programs")
        assert status == 200
        entry = listing["programs"][0]
        assert entry["catalog"]["name"] == "products"
        assert entry["catalog"]["fingerprint"] == learned["catalog"]["fingerprint"]

    def test_fill_re_resolves_after_benign_append(self, client):
        self.save_expand(client)
        client.post(
            "/catalogs/products/rows",
            {"table": "Comp", "rows": [["c7", "Intel"]]},
        )
        status, filled = client.post(
            "/fill", {"program": "expand", "rows": [["c7 c1"]]}
        )
        assert status == 200
        assert filled["outputs"][0].startswith("Intel")

    def wait_revalidated(self, client):
        """Poll /stats until the revalidator drained its queue."""
        import time

        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status, stats = client.get("/stats")
            assert status == 200
            reval = stats["revalidation"]
            if reval["queued"] == 0 and reval["processed"] == reval["events"]:
                return stats
            time.sleep(0.05)
        raise AssertionError("revalidation never drained")

    def test_fill_refuses_rewritten_catalog_with_409(self, client):
        # Two conflicting examples: once the rows are gone, nothing --
        # not even a relearn from the persisted examples -- can heal the
        # artifact, so the 409 is deterministic and carries the diff.
        status, reply = client.post(
            "/learn",
            {
                "examples": [[["c4"], "Facebook"], [["c2"], "Google"]],
                "save": "expand",
                "catalog": "products",
            },
        )
        assert status == 200, reply
        client.put(
            "/catalogs/products",
            {
                "tables": [
                    {
                        "name": "Comp",
                        "columns": ["Id", "Name"],
                        "rows": [["c1", "Renamed"]],
                        "keys": [["Id"]],
                    }
                ]
            },
        )
        stats = self.wait_revalidated(client)
        assert stats["revalidation"]["stale"] >= 1
        status, reply = client.post(
            "/fill", {"program": "expand", "rows": [["c1"]]}
        )
        assert status == 409
        assert reply["program"] == "expand"
        assert reply["catalog"] == "products"
        assert any("lost rows" in change for change in reply["changes"])
        # The listing explains the coming 409 instead of springing it.
        status, listing = client.get("/programs")
        entry = next(p for p in listing["programs"] if p["name"] == "expand")
        assert entry["stale"] is not None
        assert any("lost rows" in c for c in entry["stale"]["changes"])

    def test_schema_change_relearns_from_stored_examples(self, client):
        """Renamed columns over intact data: the revalidator re-learns
        the program from its persisted examples and the same
        ``name@version`` ref keeps serving -- no 409."""
        self.save_expand(client)
        client.put(
            "/catalogs/products",
            {
                "tables": [
                    {
                        "name": "Comp",
                        "columns": ["Ident", "Title"],
                        "rows": [[identifier, name] for identifier, name in ROWS],
                        "keys": [["Ident"]],
                    }
                ]
            },
        )
        stats = self.wait_revalidated(client)
        assert stats["revalidation"]["relearned"] >= 1
        status, filled = client.post(
            "/fill", {"program": "expand", "rows": [["c2 c5 c6"]]}
        )
        assert status == 200, filled
        assert filled["outputs"] == ["Google IBM Xerox"]

    def test_stored_program_defaults_to_its_learned_catalog(self, client):
        # Saved against "products"; an unrelated default catalog change
        # must not matter when the artifact names its catalog.
        client.put(
            "/catalogs/geo",
            {"tables": [{"name": "Caps", "csv": "Country,Capital\nFrance,Paris\n"}]},
        )
        self.save_expand(client)
        status, filled = client.post(
            "/fill", {"program": "expand", "rows": [["c2 c5 c6"]]}
        )
        assert status == 200
        assert filled["outputs"] == ["Google IBM Xerox"]


class TestTypedErrors:
    def test_unknown_catalog_404(self, client):
        status, reply = client.post(
            "/learn", {"examples": EXAMPLES, "catalog": "nope"}
        )
        assert status == 404
        assert reply["catalog"] == "nope"
        assert "unknown catalog" in reply["error"]

    def test_duplicate_table_409_names_table(self, client):
        status, reply = client.post(
            "/catalogs/products/tables",
            {"name": "Comp", "columns": ["a"], "rows": [["x"]]},
        )
        assert status == 409
        assert reply["table"] == "Comp"
        assert reply["catalog"] == "products"

    def test_duplicate_csv_header_400_names_column_and_positions(self, client):
        status, reply = client.post(
            "/catalogs/geo/tables?name=Bad",
            raw=b"Id,Name,Id\nx,y,z\n",
            content_type="text/csv",
        )
        assert status == 400
        assert reply["column"] == "Id"
        assert reply["positions"] == [1, 3]
        assert reply["table"] == "Bad"

    def test_empty_catalog_learn_422(self, client):
        client.put("/catalogs/empty", {"tables": []})
        status, reply = client.post(
            "/learn", {"examples": EXAMPLES, "catalog": "empty"}
        )
        assert status == 422
        assert "empty catalog" in reply["error"]
        assert "'empty'" in reply["error"]

    def test_missing_columns_400_names_them(self, client):
        learned = self.learn_payload(client)
        client.put(
            "/catalogs/lost",
            {
                "tables": [
                    {
                        "name": "Comp",
                        "columns": ["Other"],
                        "rows": [["x"]],
                    }
                ]
            },
        )
        status, reply = client.post(
            "/fill",
            {"program": learned, "rows": [["c1"]], "catalog": "lost"},
        )
        assert status == 400
        assert "missing" in reply
        assert any("Comp." in name for name in reply["missing"])

    def test_missing_tables_400_names_them(self, client):
        learned = self.learn_payload(client)
        client.put("/catalogs/bare", {"tables": [
            {"name": "Unrelated", "columns": ["a"], "rows": [["x"]]}
        ]})
        status, reply = client.post(
            "/fill",
            {"program": learned, "rows": [["c1"]], "catalog": "bare"},
        )
        assert status == 400
        assert reply["missing"] == ["Comp"]

    def test_bad_table_spec_400(self, client):
        for spec in (
            {"columns": ["a"], "rows": [["x"]]},  # no name
            {"name": "T"},  # neither csv nor columns/rows
            {"name": "T", "csv": "a\nx\n", "columns": ["a"]},  # both
        ):
            status, reply = client.post("/catalogs/geo/tables", spec)
            assert status == 400, spec
            assert "error" in reply

    def learn_payload(self, client):
        _, reply = client.post(
            "/learn", {"examples": EXAMPLES, "catalog": "products"}
        )
        return reply["programs"][0]["program"]
