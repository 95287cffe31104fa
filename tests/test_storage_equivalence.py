"""Byte-identity of the SQLite tier against the in-memory oracle.

Three layers of evidence, mirroring the repo's equivalence-oracle
discipline (every optimization must be observationally invisible):

* **Static**: for every benchsuite catalog (all 50 problems), the
  ingested SQLite snapshot reports the same fingerprints, distinct-value
  scan, occurrence postings and substring-candidate answers as the plain
  in-memory catalog.
* **End-to-end**: learning and filling through a ``StorageCatalog`` over
  SQLite produces the identical ranked programs and outputs as (a) the
  plain catalog and (b) ``StorageCatalog.materialize()``, which lifts
  the storage catalog back into memory.
* **Randomized growth**: hypothesis drives random append sequences into
  a SQLite backend and the COW in-memory catalog side by side; after
  every step the fingerprint chain, distinct order and occurrence
  postings must match -- including the moved-first-occurrence splicing
  that appends can trigger.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.engine import Synthesizer
from repro.benchsuite import all_benchmarks
from repro.storage import SQLiteBackend, StorageCatalog, ingest_catalog
from repro.tables.catalog import Catalog
from repro.tables.table import Table

BENCHMARKS = all_benchmarks()


def sqlite_catalog(tmp_path, catalog, name="catalog.db"):
    path = tmp_path / name
    ingest_catalog(path, catalog)
    return StorageCatalog(SQLiteBackend(path))


def assert_static_equivalence(disk, oracle):
    assert disk.fingerprint() == oracle.fingerprint()
    assert disk.distinct_values() == oracle.distinct_values()
    assert disk.table_names() == oracle.table_names()
    for name in oracle.table_names():
        ours, base = disk.table(name), oracle.table(name)
        assert tuple(ours.rows) == tuple(base.rows)
        assert ours.fingerprint() == base.fingerprint()
        assert ours.keys == base.keys
    index = disk.substring_index().build()
    base_index = oracle.substring_index().build()
    assert list(index.values) == list(base_index.values)
    # Probe with real catalog content plus misses.
    probes = list(oracle.distinct_values()[:8]) + ["", "zz-not-there"]
    for probe in probes:
        assert disk.occurrences_of(probe) == oracle.occurrences_of(probe)
        assert index.contained_in(probe) == base_index.contained_in(probe)
        assert index.containing(probe) == base_index.containing(probe)
        assert index.overlapping(probe, 2) == base_index.overlapping(probe, 2)


class TestStaticEquivalenceAllBenchmarks:
    @pytest.mark.parametrize(
        "bench", BENCHMARKS, ids=[bench.ident for bench in BENCHMARKS]
    )
    def test_benchsuite_catalog_is_byte_identical(self, tmp_path, bench):
        oracle = bench.catalog().freeze()
        disk = sqlite_catalog(tmp_path, oracle)
        try:
            assert_static_equivalence(disk, oracle)
        finally:
            disk.backend.close()


class TestEndToEndSynthesisEquivalence:
    # A spread of problems across language classes; full-suite synthesis
    # equivalence is the (slower) perf-gated benchmark's job.
    SUBSET = [bench for bench in BENCHMARKS[::7]][:8]

    @pytest.mark.parametrize(
        "bench", SUBSET, ids=[bench.ident for bench in SUBSET]
    )
    def test_learn_and_fill_match_oracle(self, tmp_path, bench):
        examples = [
            (tuple(inputs), output) for inputs, output in bench.rows[:3]
        ]
        plain = bench.catalog().freeze()
        disk = sqlite_catalog(tmp_path, plain)
        try:
            base = Synthesizer(catalog=plain).synthesize(examples, k=3)
            stored = Synthesizer(catalog=disk).synthesize(examples, k=3)
            oracle = Synthesizer(catalog=disk.materialize()).synthesize(
                examples, k=3
            )
            expected = [str(ranked.program.expr) for ranked in base.programs]
            assert [str(r.program.expr) for r in stored.programs] == expected
            assert [str(r.program.expr) for r in oracle.programs] == expected
            assert stored.consistent_count == base.consistent_count
            for inputs, _ in bench.rows:
                assert stored.program.run(tuple(inputs)) == base.program.run(
                    tuple(inputs)
                )
        finally:
            disk.backend.close()


CELL = st.text(alphabet="abcxy01", min_size=1, max_size=4)
ROW = st.tuples(CELL, CELL)


class TestRandomizedAppendSequences:
    @given(
        initial_a=st.lists(ROW, min_size=1, max_size=4),
        initial_b=st.lists(ROW, min_size=1, max_size=4),
        appends=st.lists(
            st.tuples(st.sampled_from(["A", "B"]), st.lists(ROW, min_size=0, max_size=3)),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_append_sequence_stays_identical(self, initial_a, initial_b, appends):
        # tempfile, not the tmp_path fixture: hypothesis re-enters the
        # test body many times per pytest item and needs a fresh database
        # path on every example.
        import shutil
        import tempfile
        from pathlib import Path

        tmp_path = Path(tempfile.mkdtemp(prefix="repro-growth-"))
        self._run_sequence(tmp_path, initial_a, initial_b, appends)
        shutil.rmtree(tmp_path, ignore_errors=True)

    @staticmethod
    def _run_sequence(tmp_path, initial_a, initial_b, appends):
        oracle = Catalog(
            [
                Table("A", ["K", "V"], initial_a),
                Table("B", ["K", "V"], initial_b),
            ]
        ).freeze()
        path = tmp_path / "catalog.db"
        ingest_catalog(path, oracle)
        backend = SQLiteBackend(path)
        try:
            disk = StorageCatalog(backend)
            assert disk.fingerprint() == oracle.fingerprint()
            for table_name, rows in appends:
                oracle = oracle.with_rows(table_name, rows)
                disk = disk.with_rows(table_name, rows)
                assert disk.fingerprint() == oracle.fingerprint()
                assert disk.distinct_values() == oracle.distinct_values()
                for value in list(oracle.distinct_values())[:6]:
                    assert disk.occurrences_of(value) == oracle.occurrences_of(
                        value
                    )
                probe = oracle.distinct_values()[0] + "x"
                assert disk.substring_index().build().overlapping(
                    probe, 1
                ) == oracle.substring_index().build().overlapping(probe, 1)
        finally:
            backend.close()

    def test_moved_first_occurrence_splice(self, tmp_path):
        """A value first seen in table B later appended to table A must
        re-rank in the distinct scan -- the trickiest append case."""
        oracle = Catalog(
            [
                Table("A", ["X"], [("one",)]),
                Table("B", ["X"], [("two",), ("three",)]),
            ]
        ).freeze()
        path = tmp_path / "catalog.db"
        ingest_catalog(path, oracle)
        backend = SQLiteBackend(path)
        try:
            disk = StorageCatalog(backend)
            oracle = oracle.with_rows("A", [("three",), ("four",)])
            disk = disk.with_rows("A", [("three",), ("four",)])
            assert disk.distinct_values() == oracle.distinct_values()
            assert disk.fingerprint() == oracle.fingerprint()
            ours = disk.substring_index().build()
            base = oracle.substring_index().build()
            assert list(ours.values) == list(base.values)
            assert ours.id_of("three") == base.id_of("three")
        finally:
            backend.close()
