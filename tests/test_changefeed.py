"""Catalog changefeed + proactive revalidation (the PR-9 tentpole).

Every catalog mutation path flows through one versioned feed per
catalog: strictly monotonic, gap-free ``(seq, old_fingerprint,
new_fingerprint, diff)`` transitions, durable under ``--storage
sqlite``, long-pollable (and streamed as SSE) over ``GET
/catalogs/<name>/changes``.  The revalidation subsystem rides the feed: stored
artifacts are rebound (grow-only), relearned (from persisted examples)
or marked stale with the exact diff -- so ``name@version`` refs keep
serving across catalog churn instead of springing 409s.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from repro.exceptions import ChangefeedRangeError, ReproError
from repro.service import (
    CatalogRegistry,
    ProgramStore,
    SynthesisService,
    create_server,
)
from repro.service.changefeed import snapshot_diff
from repro.service.revalidate import WebhookNotifier
from repro.tables.catalog import Catalog
from repro.tables.table import Table


def codes_table(rows=(("a", "alpha"), ("b", "bravo"))):
    return Table("Codes", ["k", "v"], [list(r) for r in rows], keys=[("k",)])


def codes_catalog(rows=(("a", "alpha"), ("b", "bravo"))):
    return Catalog([codes_table(rows)])


LOOKUP_EXAMPLES = [(("a",), "alpha"), (("b",), "bravo")]


# ---------------------------------------------------------------------------
class TestFeedCore:
    def test_sequences_are_monotonic_gap_free_and_chained(self):
        """Register + table add + row append = seq 1,2,3 with each event's
        old fingerprint equal to its predecessor's new fingerprint."""
        registry = CatalogRegistry()
        registry.register("c", codes_catalog())
        registry.add_table("c", Table("Extra", ["x", "y"], [["1", "2"]]))
        registry.append_rows("c", "Codes", [["c", "charlie"]])
        head, events = registry.feed.events_since("c", 0)
        assert head == 3
        assert [e["seq"] for e in events] == [1, 2, 3]
        assert [e["kind"] for e in events] == ["register", "table", "rows"]
        assert events[0]["old_fingerprint"] is None
        for previous, current in zip(events, events[1:]):
            assert current["old_fingerprint"] == previous["new_fingerprint"]
        assert events[-1]["new_fingerprint"] == registry.get("c").fingerprint()

    def test_diffs_name_what_changed(self):
        registry = CatalogRegistry()
        registry.register("c", codes_catalog())
        registry.append_rows("c", "Codes", [["c", "charlie"]])
        registry.register("c", Catalog([Table("Other", ["a"], [["1"]])]))
        _, events = registry.feed.events_since("c", 0)
        grow = events[1]["diff"]
        assert grow["grow_only"] is True
        assert grow["tables_changed"] == {"Codes": {"rows_appended": 1}}
        destroy = events[2]["diff"]
        assert destroy["grow_only"] is False
        assert destroy["tables_added"] == ["Other"]
        assert destroy["tables_removed"] == ["Codes"]

    def test_rewrite_is_not_grow_only(self):
        """Same row count, different bytes: the prefix check catches it."""
        old = codes_catalog([("a", "alpha"), ("b", "bravo")])
        new = codes_catalog([("a", "alpha"), ("b", "BRAVO")])
        diff = snapshot_diff(old, new)
        assert diff["grow_only"] is False
        assert diff["tables_changed"] == {"Codes": {"rewritten": True}}

    def test_since_past_head_raises_with_head(self):
        registry = CatalogRegistry()
        registry.register("c", codes_catalog())
        with pytest.raises(ChangefeedRangeError) as caught:
            registry.feed.events_since("c", 99)
        assert caught.value.head == 1
        assert caught.value.since == 99

    def test_resume_from_a_cursor(self):
        registry = CatalogRegistry()
        registry.register("c", codes_catalog())
        registry.append_rows("c", "Codes", [["c", "charlie"]])
        head, events = registry.feed.events_since("c", 1)
        assert head == 2
        assert [e["seq"] for e in events] == [2]
        head, events = registry.feed.events_since("c", 2)
        assert events == []

    def test_listener_errors_never_break_mutations(self):
        registry = CatalogRegistry()

        def bad_listener(event, catalog):
            raise RuntimeError("boom")

        registry.feed.add_listener(bad_listener)
        registry.register("c", codes_catalog())
        registry.append_rows("c", "Codes", [["c", "charlie"]])
        assert registry.feed.head("c") == 2


# ---------------------------------------------------------------------------
class TestDurableFeed:
    def test_feed_survives_sqlite_restart_gap_free(self, tmp_path):
        """Sequences keep counting across a --storage sqlite restart and
        the full chain (including pre-restart events) stays readable."""
        root = tmp_path / "cats"
        registry = CatalogRegistry(root=root, storage="sqlite")
        registry.register("c", [codes_table()])
        registry.append_rows("c", "Codes", [["c", "charlie"]])
        first_head = registry.feed.head("c")
        assert first_head == 2
        registry.close()

        reopened = CatalogRegistry(root=root, storage="sqlite")
        reopened.get("c")  # lazy load seeds the feed from changefeed.db
        assert reopened.feed.head("c") == first_head
        reopened.append_rows("c", "Codes", [["d", "delta"]])
        head, events = reopened.feed.events_since("c", 0)
        assert head == 3
        assert [e["seq"] for e in events] == [1, 2, 3]
        for previous, current in zip(events, events[1:]):
            assert current["old_fingerprint"] == previous["new_fingerprint"]
        reopened.close()

    def test_memory_storage_feed_is_ephemeral(self, tmp_path):
        root = tmp_path / "cats"
        registry = CatalogRegistry(root=root, storage="sqlite")
        registry.register("c", [codes_table()])
        registry.close()
        assert (root / "c" / "changefeed.db").exists()


# ---------------------------------------------------------------------------
class TestExamplesPersistence:
    def test_learn_save_persists_examples(self, tmp_path):
        service = SynthesisService(
            codes_catalog(), store=ProgramStore(tmp_path / "store")
        )
        try:
            service.learn(LOOKUP_EXAMPLES, save_as="lookup")
            stored = service.store.get("lookup")
            assert stored.examples == [
                (("a",), "alpha"),
                (("b",), "bravo"),
            ]
        finally:
            service.close()

    def test_legacy_artifacts_without_examples_still_load(self, tmp_path):
        """Pre-migration artifacts (no examples block) read as None --
        revalidation degrades to the stale marker instead of crashing."""
        service = SynthesisService(
            codes_catalog(), store=ProgramStore(tmp_path / "store")
        )
        try:
            service.learn(LOOKUP_EXAMPLES, save_as="lookup")
            path = next(
                (tmp_path / "store" / "lookup").glob("v*.json")
            )
            payload = json.loads(path.read_text(encoding="utf-8"))
            del payload["store"]["examples"]
            path.write_text(json.dumps(payload), encoding="utf-8")
            stored = service.store.get("lookup")
            assert stored.examples is None
        finally:
            service.close()

    def test_unchanged_relearn_does_not_grow_the_store(self, tmp_path):
        service = SynthesisService(
            codes_catalog(), store=ProgramStore(tmp_path / "store")
        )
        try:
            service.learn(LOOKUP_EXAMPLES, save_as="lookup")
            service.learn(LOOKUP_EXAMPLES, save_as="lookup")
            assert service.store.versions("lookup") == [1]
        finally:
            service.close()


# ---------------------------------------------------------------------------
class TestRevalidation:
    def make_service(self, tmp_path):
        service = SynthesisService(store=ProgramStore(tmp_path / "store"))
        service.registry.register("people", codes_catalog())
        return service

    def test_grow_only_append_rebinds_in_place(self, tmp_path):
        service = self.make_service(tmp_path)
        try:
            service.learn(LOOKUP_EXAMPLES, save_as="lookup", catalog="people")
            old_info = service.store.get("lookup").catalog_info
            service.registry.append_rows("people", "Codes", [["c", "charlie"]])
            assert service.revalidator.wait_idle(timeout=30.0)
            stored = service.store.get("lookup", 1)
            assert stored.catalog_info["fingerprint"] != old_info["fingerprint"]
            assert stored.stale is None
            stats = service.revalidator.stats()
            assert stats["rebound"] >= 1
            # The old ref serves the appended row with zero 409s.
            assert service.fill("lookup@1", [["c"]], catalog="people") == [
                "charlie"
            ]
        finally:
            service.close()

    def test_destructive_change_relearns_from_examples(self, tmp_path):
        service = self.make_service(tmp_path)
        try:
            service.learn(LOOKUP_EXAMPLES, save_as="lookup", catalog="people")
            # Rewrite the table: same mapping still holds for the
            # examples, but the original rows are gone (not a prefix).
            service.registry.register(
                "people",
                codes_catalog([("z", "zulu"), ("b", "bravo"), ("a", "alpha")]),
            )
            assert service.revalidator.wait_idle(timeout=30.0)
            stored = service.store.get("lookup", 1)
            assert stored.stale is None
            assert service.revalidator.stats()["relearned"] >= 1
            assert service.fill("lookup@1", [["z"]], catalog="people") == [
                "zulu"
            ]
        finally:
            service.close()

    def test_unsalvageable_drift_marks_stale_with_the_diff(self, tmp_path):
        service = self.make_service(tmp_path)
        try:
            service.learn(LOOKUP_EXAMPLES, save_as="lookup", catalog="people")
            # Two conflicting examples and no table that maps them: the
            # relearn fails, so the artifact is marked with the drift.
            service.registry.register(
                "people", Catalog([Table("Other", ["x"], [["1"]])])
            )
            assert service.revalidator.wait_idle(timeout=30.0)
            stored = service.store.get("lookup", 1)
            assert stored.stale is not None
            assert stored.stale["changes"] == ["table 'Codes' was removed"]
            assert service.revalidator.stats()["stale"] >= 1
            with pytest.raises(ReproError):
                service.fill("lookup@1", [["a"]], catalog="people")
        finally:
            service.close()

    def test_stats_expose_feed_lag_and_counters(self, tmp_path):
        service = self.make_service(tmp_path)
        try:
            service.learn(LOOKUP_EXAMPLES, save_as="lookup", catalog="people")
            service.registry.append_rows("people", "Codes", [["c", "charlie"]])
            assert service.revalidator.wait_idle(timeout=30.0)
            stats = service.stats()
            reval = stats["revalidation"]
            assert reval["enabled"] is True
            assert reval["processed"] == reval["events"]
            assert reval["lag"] == 0
            assert reval["last_seq"]["people"] == service.registry.feed.head(
                "people"
            )
            assert stats["changefeed"]["people"]["head"] >= 2
        finally:
            service.close()


# ---------------------------------------------------------------------------
class _HookHandler(BaseHTTPRequestHandler):
    status = 200
    received = None

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        type(self).received.append(json.loads(body))
        self.send_response(type(self).status)
        self.end_headers()

    def log_message(self, *args):  # noqa: D102 -- silence test noise
        pass


@pytest.fixture()
def hook_server():
    class Handler(_HookHandler):
        received = []

    httpd = HTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    try:
        yield Handler, f"http://127.0.0.1:{httpd.server_address[1]}/hook"
    finally:
        httpd.shutdown()
        httpd.server_close()


class TestWebhooks:
    def test_events_are_delivered_as_json_posts(self, hook_server):
        handler, url = hook_server
        service = SynthesisService(codes_catalog())
        try:
            service.add_change_webhook(url)
            service.registry.append_rows(
                "default", "Codes", [["c", "charlie"]]
            )
            assert service.webhooks.wait_idle(timeout=10.0)
            assert len(handler.received) == 1
            event = handler.received[0]
            assert event["kind"] == "rows"
            assert event["diff"]["grow_only"] is True
            assert service.webhooks.stats()["delivered"] == 1
        finally:
            service.close()

    def test_failures_retry_with_backoff_then_count(self, hook_server):
        handler, url = hook_server
        handler.status = 500
        notifier = WebhookNotifier()
        notifier.BACKOFF_BASE = 0.01  # keep the test fast
        notifier.add(url)
        try:
            notifier.on_event({"seq": 1, "catalog": "c"}, None)
            assert notifier.wait_idle(timeout=10.0)
            stats = notifier.stats()
            assert stats["failed"] == 1
            assert stats["retries"] == notifier.RETRIES - 1
            assert stats["delivered"] == 0
            # Every attempt reached the hook: retries were real.
            assert len(handler.received) == notifier.RETRIES
        finally:
            notifier.close()

    def test_unreachable_hook_never_blocks_the_mutation(self):
        service = SynthesisService(codes_catalog())
        try:
            # A TEST-NET address nothing answers on: delivery can only
            # fail, and only after the mutation has long returned.
            service.webhooks.TIMEOUT = 0.2
            service.webhooks.BACKOFF_BASE = 0.01
            service.add_change_webhook("http://192.0.2.1:9/hook")
            start = time.monotonic()
            service.registry.append_rows(
                "default", "Codes", [["c", "charlie"]]
            )
            assert time.monotonic() - start < 2.0
            assert service.registry.get("default").table("Codes").num_rows == 3
        finally:
            service.close()


# ---------------------------------------------------------------------------
def boot(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def http_get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=40) as reply:
            return reply.status, json.loads(reply.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def http_post(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as reply:
            return reply.status, json.loads(reply.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


class TestChangesEndpoint:
    @pytest.fixture()
    def served(self, tmp_path):
        service = SynthesisService(
            codes_catalog(), store=ProgramStore(tmp_path / "store")
        )
        server = create_server(service, port=0)
        thread = boot(server)
        host, port = server.server_address[:2]
        try:
            yield service, f"http://{host}:{port}"
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
            service.close()

    def test_plain_poll_and_resume(self, served):
        service, base = served
        status, body = http_get(base, "/catalogs/default/changes?since=0")
        assert status == 200
        assert body["head"] == 1
        assert body["events"][0]["kind"] == "register"
        status, body = http_get(base, "/catalogs/default/changes?since=1")
        assert status == 200 and body["events"] == []

    def test_since_past_head_is_416_with_head(self, served):
        service, base = served
        status, body = http_get(base, "/catalogs/default/changes?since=7")
        assert status == 416
        assert body["head"] == 1 and body["since"] == 7
        assert "resubscribe" in body["error"]

    def test_unknown_catalog_is_404(self, served):
        service, base = served
        status, body = http_get(base, "/catalogs/nope/changes?since=0")
        assert status == 404

    def test_long_poll_wakes_on_append(self, served):
        service, base = served

        def append_soon():
            time.sleep(0.3)
            service.registry.append_rows(
                "default", "Codes", [["c", "charlie"]]
            )

        threading.Thread(target=append_soon, daemon=True).start()
        start = time.monotonic()
        status, body = http_get(
            base, "/catalogs/default/changes?since=1&wait=15"
        )
        elapsed = time.monotonic() - start
        assert status == 200
        assert [e["kind"] for e in body["events"]] == ["rows"]
        assert elapsed < 10.0

    def test_long_poll_times_out_with_no_events(self, served):
        service, base = served
        start = time.monotonic()
        status, body = http_get(
            base, "/catalogs/default/changes?since=1&wait=0.5"
        )
        elapsed = time.monotonic() - start
        assert status == 200
        assert body["head"] == 1 and body["events"] == []
        assert 0.4 <= elapsed < 10.0

    @pytest.mark.parametrize(
        "path, status",
        [
            ("/catalogs/nope/changes?since=0&wait=30", 404),
            ("/catalogs/default/changes?since=7&wait=30", 416),
            ("/catalogs/default/changes?since=1&wait=soon", 400),
        ],
        ids=["unknown-catalog", "past-head", "bad-wait"],
    )
    def test_long_poll_errors_answer_at_once(self, served, path, status):
        """A long-poll that cannot succeed is not parked: the plain
        poll's error status comes back without waiting."""
        service, base = served
        start = time.monotonic()
        got, body = http_get(base, path)
        assert got == status, body
        assert "error" in body
        assert time.monotonic() - start < 10.0

    def test_sse_on_unknown_catalog_is_json_404(self, served):
        service, base = served
        request = urllib.request.Request(
            base + "/catalogs/nope/changes?since=0",
            headers={"Accept": "text/event-stream"},
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=20)
        assert caught.value.code == 404
        assert caught.value.headers["Content-Type"].startswith(
            "application/json"
        )
        assert "error" in json.loads(caught.value.read().decode("utf-8"))

    def test_sse_streams_frames_until_limit(self, served):
        service, base = served
        service.registry.append_rows("default", "Codes", [["c", "charlie"]])
        host_port = base[len("http://") :].split(":")
        with socket.create_connection(
            (host_port[0], int(host_port[1])), timeout=20
        ) as sock:
            sock.sendall(
                b"GET /catalogs/default/changes?since=0&sse=1&limit=2 "
                b"HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            raw = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert b" 200 OK" in head
        assert b"Content-Type: text/event-stream" in head
        frames = [f for f in payload.split(b"\n\n") if f]
        assert len(frames) == 2
        for index, frame in enumerate(frames, start=1):
            lines = frame.split(b"\n")
            assert lines[0] == b"id: %d" % index
            assert lines[1] == b"event: change"
            event = json.loads(lines[2][len(b"data: ") :])
            assert event["seq"] == index

    def test_zero_409s_on_old_refs_under_concurrent_appends(self, served):
        """The acceptance gate: grow-only appends racing versioned fills
        never produce a StaleProgramError."""
        service, base = served
        status, body = http_post(
            base,
            "/learn",
            {"examples": [list(e) for e in LOOKUP_EXAMPLES], "save": "lookup"},
        )
        assert status == 200, body

        def do_fill(_):
            return http_post(
                base, "/fill", {"program": "lookup@1", "rows": [["a"]]}
            )

        def do_append(index):
            return http_post(
                base,
                "/catalogs/default/rows",
                {"table": "Codes", "rows": [[f"x{index}", f"val{index}"]]},
            )

        with ThreadPoolExecutor(max_workers=8) as executor:
            fills = [executor.submit(do_fill, i) for i in range(16)]
            appends = [executor.submit(do_append, i) for i in range(8)]
            for future in appends:
                status, body = future.result(timeout=60)
                assert status == 200, body
            for future in fills:
                status, body = future.result(timeout=60)
                assert status == 200, body
                assert body["outputs"] == ["alpha"]
        assert service.revalidator.wait_idle(timeout=30.0)
        status, body = http_post(
            base, "/fill", {"program": "lookup@1", "rows": [["x3"]]}
        )
        assert status == 200 and body["outputs"] == ["val3"]


# ---------------------------------------------------------------------------
class TestWatchCli:
    def test_watch_once_prints_events_as_json_lines(self, capsys):
        from repro.cli import main

        service = SynthesisService(codes_catalog())
        server = create_server(service, port=0)
        thread = boot(server)
        host, port = server.server_address[:2]
        try:
            service.registry.append_rows(
                "default", "Codes", [["c", "charlie"]]
            )
            code = main(
                [
                    "catalog",
                    "watch",
                    "--url",
                    f"http://{host}:{port}",
                    "--once",
                    "default",
                ]
            )
            assert code == 0
            lines = [
                json.loads(line)
                for line in capsys.readouterr().out.strip().splitlines()
            ]
            assert [e["seq"] for e in lines] == [1, 2]
            assert lines[1]["diff"]["grow_only"] is True
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
            service.close()
