"""Unit tests for the SynthesisService facade and its request cache."""

import threading

import pytest

from repro.api.engine import Synthesizer
from repro.config import DEFAULT_CONFIG
from repro.exceptions import MissingTablesError, ServiceError
from repro.service.service import (
    CACHE_HIT,
    CACHE_MISS,
    RequestCache,
    SynthesisService,
)
from repro.service.store import ProgramStore
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
EXAMPLES = [(("c4 c3 c1",), "Facebook Apple Microsoft")]


def make_catalog():
    return Catalog([Table("Comp", ["Id", "Name"], ROWS, keys=[("Id",)])])


@pytest.fixture()
def catalog():
    return make_catalog()


@pytest.fixture()
def service(catalog, tmp_path):
    return SynthesisService(catalog, store=ProgramStore(tmp_path / "store"))


class TestRequestCache:
    def test_lru_eviction_and_stats(self):
        cache = RequestCache(limit=2)
        cache.put(("a",), "A")
        cache.put(("b",), "B")
        assert cache.get(("a",)) == "A"  # refresh a
        cache.put(("c",), "C")  # evicts b
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == "A"
        stats = cache.stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        assert stats["limit"] == 2

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            RequestCache(limit=0)


class TestLearnCaching:
    def test_miss_then_hit_same_object(self, service):
        first, status1 = service.learn(EXAMPLES)
        second, status2 = service.learn(EXAMPLES)
        assert (status1, status2) == (CACHE_MISS, CACHE_HIT)
        assert second is first  # the hit serves the identical result

    def test_hit_is_byte_identical_to_direct_synthesizer(self, service, catalog):
        result, _ = service.learn(EXAMPLES, k=3)
        cached, status = service.learn(EXAMPLES, k=3)
        direct = Synthesizer(make_catalog()).synthesize(EXAMPLES, k=3)
        assert status == CACHE_HIT
        assert [c.program.to_dict() for c in cached.programs] == [
            c.program.to_dict() for c in direct.programs
        ]

    def test_k_is_part_of_the_key(self, service):
        service.learn(EXAMPLES, k=1)
        _, status = service.learn(EXAMPLES, k=2)
        assert status == CACHE_MISS

    def test_different_examples_miss(self, service):
        service.learn(EXAMPLES)
        _, status = service.learn([(("c2",), "Google")])
        assert status == CACHE_MISS

    def test_input_sequence_type_does_not_change_the_key(self, service):
        service.learn([(("c2",), "Google")])
        _, status = service.learn([(["c2"], "Google")])
        assert status == CACHE_HIT

    def test_keys_stable_across_equal_services(self, tmp_path):
        one = SynthesisService(make_catalog())
        two = SynthesisService(make_catalog())
        assert one.cache_key(EXAMPLES, k=2) == two.cache_key(EXAMPLES, k=2)

    def test_config_changes_the_key(self):
        base = SynthesisService(make_catalog())
        canonical = SynthesisService(
            make_catalog(), config=DEFAULT_CONFIG.with_matchers("canonical")
        )
        assert base.cache_key(EXAMPLES) != canonical.cache_key(EXAMPLES)

    def test_catalog_changes_the_key(self):
        other = Catalog(
            [Table("Comp", ["Id", "Name"], ROWS + [("c7", "Tesla")], keys=[("Id",)])]
        )
        assert (
            SynthesisService(make_catalog()).cache_key(EXAMPLES)
            != SynthesisService(other).cache_key(EXAMPLES)
        )


class TestFill:
    def test_fill_by_store_name(self, service):
        service.learn(EXAMPLES, save_as="expand")
        assert service.fill("expand", [["c2 c5 c6"]]) == ["Google IBM Xerox"]

    def test_fill_by_payload(self, service):
        result, _ = service.learn(EXAMPLES)
        payload = result.program.to_dict()
        assert service.fill(payload, [["c2 c5 c6"]]) == ["Google IBM Xerox"]

    def test_blank_rows_preserved_as_empty_outputs(self, service):
        service.learn(EXAMPLES, save_as="expand")
        outputs = service.fill("expand", [["c2 c5 c6"], [], ["c1 c1 c1"]])
        assert outputs == ["Google IBM Xerox", "", "Microsoft Microsoft Microsoft"]

    def test_arity_mismatch_is_clean_error(self, service):
        service.learn(EXAMPLES, save_as="expand")
        with pytest.raises(ServiceError, match="fill row 2"):
            service.fill("expand", [["ok"], ["two", "cells"]])

    def test_missing_tables_rejected_up_front(self, service, tmp_path):
        result, _ = service.learn(EXAMPLES)
        payload = result.program.to_dict()
        bare = SynthesisService(Catalog())  # no Comp table loaded
        with pytest.raises(MissingTablesError, match="Comp"):
            bare.fill(payload, [["c2 c5 c6"]])

    def test_bad_program_reference_type_is_typed_error(self, service):
        with pytest.raises(ServiceError, match="bad program reference"):
            service.fill(42, [["c1"]])

    def test_live_program_honors_explicit_catalog(self, service):
        """A live Program filled with an explicit catalog= must validate
        and run against that snapshot, not its learn-time catalog."""
        result, _ = service.learn(EXAMPLES)
        service.registry.register(
            "bare", [Table("Unrelated", ["a"], [("x",)])]
        )
        with pytest.raises(MissingTablesError, match="Comp"):
            service.fill(result.program, [["c2 c5 c6"]], catalog="bare")

    def test_engine_cached_even_for_copying_configs(self):
        """A non-default matcher spec cannot share frozen snapshots (the
        engine derives a matcher clone), but the per-catalog engine must
        still be reused."""
        service = SynthesisService(
            make_catalog(), config=DEFAULT_CONFIG.with_matchers("canonical")
        )
        assert service.engine.catalog is not service.registry.get(
            service.default_catalog
        )
        assert service.engine is service.engine

    def test_unresolvable_reference_without_store(self):
        bare = SynthesisService(make_catalog())
        with pytest.raises(ServiceError, match="no program store"):
            bare.fill("anything", [["x"]])


class TestSaveAs:
    def test_requires_a_store(self):
        bare = SynthesisService(make_catalog())
        with pytest.raises(ServiceError, match="no program store"):
            bare.learn(EXAMPLES, save_as="expand")

    def test_requires_a_store_before_synthesis(self):
        bare = SynthesisService(make_catalog())
        with pytest.raises(ServiceError):
            bare.learn(EXAMPLES, save_as="expand")
        # The request failed fast: nothing was synthesized or cached.
        assert bare.stats()["request_cache"]["entries"] == 0

    def test_bad_name_fails_before_synthesis(self, service):
        from repro.exceptions import ProgramStoreError

        with pytest.raises(ProgramStoreError):
            service.learn(EXAMPLES, save_as="bad/name")
        assert service.stats()["request_cache"]["entries"] == 0

    def test_versions_accumulate_when_the_program_changes(self, service):
        service.learn(EXAMPLES, save_as="expand")
        service.learn([(("c2",), "Google")], save_as="expand")
        assert service.store.versions("expand") == [1, 2]

    def test_repeated_identical_saves_do_not_grow_the_store(self, service):
        """An idempotent retry loop (same examples, same save name) must
        not mint a new version per request."""
        for _ in range(3):
            service.learn(EXAMPLES, save_as="expand")
        assert service.store.versions("expand") == [1]

    def test_learn_reply_carries_the_stored_version(self, service):
        reply = service.learn(EXAMPLES, save_as="expand")
        assert (reply.stored.name, reply.stored.version) == ("expand", 1)
        again = service.learn(EXAMPLES, save_as="expand")
        assert again.stored.version == 1  # deduped, exact version reported
        assert service.learn(EXAMPLES).stored is None  # no save requested

    def test_concurrent_identical_saves_write_one_version(self, service):
        """The dedupe compare-and-save is atomic under the store lock:
        concurrent identical learn+save requests must not each write."""
        errors = []

        def learn_and_save():
            try:
                service.learn(EXAMPLES, save_as="expand")
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=learn_and_save) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert service.store.versions("expand") == [1]

    def test_metadata_with_non_string_keys_still_dedupes(self, service):
        """JSON coerces metadata keys to strings on disk; the dedupe
        comparison must match after the same normalization."""
        service.learn(EXAMPLES, save_as="expand", metadata={1: "a"})
        reply = service.learn(EXAMPLES, save_as="expand", metadata={1: "a"})
        assert reply.stored.version == 1
        assert service.store.versions("expand") == [1]

    def test_new_metadata_on_unchanged_program_writes_a_new_version(self, service):
        """Dedupe must not silently drop a metadata update."""
        service.learn(EXAMPLES, save_as="expand", metadata={"owner": "alice"})
        reply = service.learn(EXAMPLES, save_as="expand", metadata={"owner": "bob"})
        assert reply.stored.version == 2
        assert service.store.get("expand").metadata == {"owner": "bob"}
        # Retrying with the same metadata dedupes again.
        again = service.learn(EXAMPLES, save_as="expand", metadata={"owner": "bob"})
        assert again.stored.version == 2

    def test_save_program_returns_the_exact_version(self, service):
        result, _ = service.learn(EXAMPLES)
        other, _ = service.learn([(("c2",), "Google")])
        first = service.save_program("expand", result.program)
        second = service.save_program("expand", other.program)
        again = service.save_program("expand", other.program)  # deduped
        assert (first.version, second.version, again.version) == (1, 2, 2)


class TestStatsInvariant:
    def test_failed_learn_still_counts_as_a_miss(self, service):
        from repro.exceptions import SynthesisError

        service.learn(EXAMPLES)
        with pytest.raises(SynthesisError):
            service.learn([(("a",), "x"), (("a",), "y")])  # contradiction
        stats = service.stats()
        assert stats["requests"]["learn_requests"] == 2
        assert (
            stats["request_cache"]["hits"] + stats["request_cache"]["misses"] == 2
        )


class TestCatalogMutation:
    def test_served_catalog_cannot_be_mutated_in_place(self, service):
        """The PR-4 footgun is closed: the engine's catalog is a frozen
        registry snapshot, so the old in-place ``Catalog.add`` (which
        could hand out results inconsistent with cached memos) raises."""
        from repro.exceptions import FrozenCatalogError

        with pytest.raises(FrozenCatalogError):
            service.engine.catalog.add(
                Table("Extra", ["K", "V"], [("k1", "v1")], keys=[("K",)])
            )

    def test_cache_key_tracks_registry_updates(self, service):
        """Growing a catalog through the registry must invalidate cache
        keys -- the fingerprint is the snapshot's, never stale."""
        before = service.cache_key(EXAMPLES)
        service.learn(EXAMPLES)
        service.registry.add_table(
            service.default_catalog,
            Table("Extra", ["K", "V"], [("k1", "v1")], keys=[("K",)]),
        )
        after = service.cache_key(EXAMPLES)
        assert before != after
        _, status = service.learn(EXAMPLES)
        assert status == CACHE_MISS  # re-synthesized against the new catalog
        assert service.engine.catalog.table_names() == ["Comp", "Extra"]


class TestStats:
    def test_stats_shape(self, service):
        service.learn(EXAMPLES, save_as="expand")
        service.learn(EXAMPLES)
        service.fill("expand", [["c2 c5 c6"], []])
        stats = service.stats()
        assert stats["requests"]["learn_requests"] == 2
        assert stats["requests"]["fill_requests"] == 1
        assert stats["requests"]["rows_filled"] == 2
        assert stats["request_cache"]["hits"] == 1
        assert stats["request_cache"]["misses"] == 1
        assert stats["catalog"]["tables"] == ["Comp"]
        assert stats["store"]["attached"] is True
        assert stats["store"]["programs"] == 1
        for name in ("positions", "boundaries", "intersections", "dags"):
            assert "hits" in stats["engine_caches"][name]


class TestConcurrency:
    def test_concurrent_learns_converge_on_one_synthesis(self, catalog):
        service = SynthesisService(catalog)
        statuses = []
        results = []
        lock = threading.Lock()

        def learn():
            result, status = service.learn(EXAMPLES)
            with lock:
                statuses.append(status)
                results.append(result)

        threads = [threading.Thread(target=learn) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every request got the same answer; at least one was a cold miss
        # (concurrent cold starts may race to a couple of misses, but the
        # cache must converge and never return a divergent result).
        reference = results[0].program.to_dict()
        assert all(r.program.to_dict() == reference for r in results)
        assert CACHE_MISS in statuses
        assert service.stats()["request_cache"]["entries"] == 1

    def test_cold_learns_are_single_flight(self, catalog):
        """Concurrent identical misses must not each pay full synthesis:
        one leader synthesizes, followers wait and serve its result."""
        import time

        service = SynthesisService(catalog)
        synth_calls = []
        original = service.engine.synthesize
        release_leader = threading.Event()
        lock = threading.Lock()
        queued = []
        statuses = []

        def slow_synthesize(task, k=5):
            with lock:
                synth_calls.append(1)
            release_leader.wait(timeout=10)  # hold until everyone queued
            return original(task, k=k)

        service.engine.synthesize = slow_synthesize

        def learn():
            with lock:
                queued.append(1)
            reply = service.learn(EXAMPLES)
            with lock:
                statuses.append(reply.cache_status)

        threads = [threading.Thread(target=learn) for _ in range(4)]
        for thread in threads:
            thread.start()
        # Release the leader only once every request is underway, so the
        # followers genuinely race the in-flight synthesis.
        deadline = time.time() + 5
        while (len(queued) < 4 or not synth_calls) and time.time() < deadline:
            time.sleep(0.005)
        release_leader.set()
        for thread in threads:
            thread.join()
        assert len(synth_calls) == 1  # exactly one synthesis ran
        assert statuses.count(CACHE_MISS) == 1
        assert statuses.count(CACHE_HIT) == 3
        # Exactly one hit-or-miss counted per request, even under races.
        stats = service.stats()
        assert (
            stats["request_cache"]["hits"] + stats["request_cache"]["misses"]
            == stats["requests"]["learn_requests"]
        )
