"""Synthesis results must not depend on PYTHONHASHSEED or repetition.

Phase 1 of ``generate_semantic`` used to iterate the ``untriggered``
*set*, so node-id assignment -- and therefore ranking tie-breaks --
varied with string hash randomization across interpreter runs.  The
trigger now emits newly triggered values in catalog insertion order;
these tests pin that by re-running the same synthesis under different
hash seeds in subprocesses.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.config import DEFAULT_CONFIG
from repro.semantic.generate import generate_semantic
from repro.tables.catalog import Catalog
from repro.tables.table import Table

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

# A catalog with deliberate value overlaps so many entries trigger in the
# same reachability step (the order-sensitive situation).
SNAPSHOT_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from repro.api import Synthesizer
from repro.tables.catalog import Catalog
from repro.tables.table import Table

catalog = Catalog([
    Table("Parts", ["Id", "Name", "Bin"], [
        ("p1", "bolt", "A1"),
        ("p2", "bolt-x", "A2"),
        ("p3", "nut", "A1"),
        ("p4", "x-bolt", "B1"),
    ], keys=[("Id",)]),
    Table("Bins", ["Bin", "Zone"], [
        ("A1", "north"),
        ("A2", "south"),
        ("B1", "north"),
    ], keys=[("Bin",)]),
])
result = Synthesizer(catalog).synthesize([(("p1",), "north")], k=5)

# The raw structure too: node-id order is exactly what set iteration
# used to scramble, even when ranked output happened to coincide.
from repro.semantic.generate import generate_semantic
structure = generate_semantic(catalog, ("p1",), "north")
print(json.dumps({
    "programs": [[c.rank, c.score, str(c.program)] for c in result.programs],
    "consistent_count": result.consistent_count,
    "structure_size": result.structure_size,
    "node_values": structure.store.vals,
    "node_depths": structure.store.depths,
}))
"""


def run_snapshot(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    output = subprocess.run(
        [sys.executable, "-c", SNAPSHOT_SCRIPT, SRC_DIR],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(output.stdout)


def test_results_stable_across_hash_seeds():
    snapshots = [run_snapshot(seed) for seed in ("0", "1", "42")]
    assert snapshots[0] == snapshots[1] == snapshots[2]


def test_repeated_generate_identical_in_process():
    catalog = Catalog(
        [
            Table(
                "T",
                ["Id", "A"],
                [("k1", "alpha"), ("k2", "alp"), ("k3", "ha")],
                keys=[("Id",)],
            )
        ]
    )
    runs = [
        generate_semantic(catalog, ("k1",), "alpha", DEFAULT_CONFIG)
        for _ in range(3)
    ]
    keys = [
        (tuple(run.store.vals), tuple(run.store.depths), run.store.target)
        for run in runs
    ]
    assert keys[0] == keys[1] == keys[2]
