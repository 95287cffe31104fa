#!/usr/bin/env python3
"""Quickstart: learn a semantic string transformation from one example.

This is the paper's Example 6: a spreadsheet column holds series of
company codes ("c4 c3 c1") that should be expanded into company names
using a lookup table.  One input-output example is enough -- the ranking
of §5.4 picks the generalizing lookup program over the constant one.

The `Synthesizer` engine returns a structured result: ranked candidate
programs with scores, the Figure 11 version-space metrics, timing and an
ambiguity flag.  The learned program serializes to JSON, so it can be
cached and applied later with zero synthesis cost.

Run:  python examples/quickstart.py
"""

from repro import Catalog, Program, Synthesizer, Table


def main() -> None:
    # The user's lookup table (Figure 7 of the paper).
    comp = Table(
        "Comp",
        ["Id", "Name"],
        [
            ("c1", "Microsoft"),
            ("c2", "Google"),
            ("c3", "Apple"),
            ("c4", "Facebook"),
            ("c5", "IBM"),
            ("c6", "Xerox"),
        ],
        keys=[("Id",), ("Name",)],
    )

    catalog = Catalog([comp])
    engine = Synthesizer(catalog)

    # One example expresses the intent.
    result = engine.synthesize(
        [(("c4 c3 c1",), "Facebook Apple Microsoft")], k=3
    )

    program = result.program
    print("Learned program:")
    print(" ", program.source())
    print()
    print("In plain words:")
    print(" ", program.describe())
    print()

    print("Top-ranked candidates (lower score = preferred):")
    for candidate in result.programs:
        print(f"  rank {candidate.rank}  score {candidate.score:7.1f}  "
              f"[{candidate.provenance}]")
    print()

    # Fill in the rest of the column.
    pending = [("c2 c5 c6",), ("c1 c5 c4",), ("c2 c3 c4",)]
    print("Applying to the remaining rows:")
    for row, value in zip(pending, result.fill(pending)):
        print(f"  {row[0]!r:14} -> {value!r}")

    # How big is the space of consistent programs it chose from?
    from repro.api.result import count_log10

    print()
    print(f"Consistent programs represented: about 10^"
          f"{count_log10(result.consistent_count):.0f}")
    print(f"Version-space structure size:    {result.structure_size} units")
    print(f"Learned in:                      {result.elapsed_seconds * 1000:.0f} ms")
    print(f"Still ambiguous:                 {result.ambiguous}")

    # Serialize the program, reload it, and serve without re-synthesis.
    # Serving runs lookups against the table's inverted value index, so
    # fill() over large tables is O(1) per row (see PERFORMANCE.md).
    payload = program.to_json()
    served = Program.from_json(payload, catalog=catalog)
    print()
    print("Round-tripped through JSON:")
    print(f"  {'c6 c2 c5'!r:14} -> {served(('c6 c2 c5',))!r}")

    # Synthesis itself runs on indexed hot paths (catalog substring
    # index, dag occurrence index, worklist pruning, lazy cached
    # intersection).  Each has one implementation; the committed goldens
    # under tests/golden pin what they produce.

    # To keep this loop resident -- learned programs persisted by name,
    # repeated learns served from an LRU request cache, everything
    # behind a JSON HTTP API -- see examples/service_loop.py and
    # `repro serve` (the repro.service package).


if __name__ == "__main__":
    main()
