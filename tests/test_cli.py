"""Unit tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import main


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "Comp.csv").write_text(
        "Id,Name\nc1,Microsoft\nc2,Google\nc3,Apple\nc4,Facebook\n",
        encoding="utf-8",
    )
    (tmp_path / "examples.csv").write_text(
        "c4 c3 c1,Facebook Apple Microsoft\n", encoding="utf-8"
    )
    (tmp_path / "pending.csv").write_text("c2 c3 c1\nc1 c4 c2\n", encoding="utf-8")
    return tmp_path


class TestCli:
    def test_learn_and_fill(self, workdir, capsys):
        code = main(
            [
                "--table", str(workdir / "Comp.csv"),
                "--examples", str(workdir / "examples.csv"),
                "--fill", str(workdir / "pending.csv"),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "program: " in output
        assert "Google Apple Microsoft" in output
        assert "Microsoft Facebook Google" in output

    def test_describe_flag(self, workdir, capsys):
        code = main(
            [
                "--table", str(workdir / "Comp.csv"),
                "--examples", str(workdir / "examples.csv"),
                "--describe",
            ]
        )
        assert code == 0
        assert "meaning: " in capsys.readouterr().out

    def test_background_tables(self, tmp_path, capsys):
        (tmp_path / "ex.csv").write_text("6-3-2008,Jun 3rd, 2008\n", encoding="utf-8")
        # csv parses the quoted-less comma: 3 columns -> 2 inputs, 1 output;
        # use a proper quoted file instead.
        (tmp_path / "ex.csv").write_text(
            '6-3-2008,"Jun 3rd, 2008"\n', encoding="utf-8"
        )
        code = main(
            [
                "--examples", str(tmp_path / "ex.csv"),
                "--background", "Month",
                "--background", "DateOrd",
            ]
        )
        assert code == 0
        assert "Select" in capsys.readouterr().out

    def test_bad_example_row(self, tmp_path, capsys):
        (tmp_path / "ex.csv").write_text("only-one-column\n", encoding="utf-8")
        code = main(["--examples", str(tmp_path / "ex.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_contradiction_reports_error(self, tmp_path, capsys):
        (tmp_path / "ex.csv").write_text("a,x\na,y\n", encoding="utf-8")
        code = main(["--examples", str(tmp_path / "ex.csv"), "--language", "syntactic"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_language_aliases(self, workdir, capsys):
        code = main(
            [
                "--table", str(workdir / "Comp.csv"),
                "--examples", str(workdir / "examples.csv"),
                "--language", "Lu",
            ]
        )
        assert code == 0

    def test_unknown_language_lists_backends(self, workdir, capsys):
        code = main(
            [
                "--examples", str(workdir / "examples.csv"),
                "--language", "prolog",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err
        assert "semantic" in captured.err

    def test_fill_row_wrong_arity_exits_cleanly(self, workdir, capsys):
        # A pending row with two columns against a one-input program used
        # to escape as an uncaught ValueError from Program.run.
        (workdir / "bad.csv").write_text("c2 c3 c1,extra\n", encoding="utf-8")
        code = main(
            [
                "--table", str(workdir / "Comp.csv"),
                "--examples", str(workdir / "examples.csv"),
                "--fill", str(workdir / "bad.csv"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "error: fill row 1" in captured.err


class TestSubcommands:
    def test_learn_subcommand(self, workdir, capsys):
        code = main(
            [
                "learn",
                "--table", str(workdir / "Comp.csv"),
                "--examples", str(workdir / "examples.csv"),
                "--fill", str(workdir / "pending.csv"),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "program: " in output
        assert "Google Apple Microsoft" in output

    def test_learn_top_k(self, workdir, capsys):
        code = main(
            [
                "learn",
                "--table", str(workdir / "Comp.csv"),
                "--examples", str(workdir / "examples.csv"),
                "--top", "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "rank 1: score=" in output
        assert "rank 2: score=" in output

    def test_learn_top_above_max_k_exits_1(self, workdir, capsys):
        code = main(
            [
                "learn",
                "--table", str(workdir / "Comp.csv"),
                "--examples", str(workdir / "examples.csv"),
                "--top", "101",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --top must be at most 100, got 101\n"
        assert captured.out == ""

    def test_learn_save_then_fill(self, workdir, capsys):
        artifact = workdir / "program.json"
        code = main(
            [
                "learn",
                "--table", str(workdir / "Comp.csv"),
                "--examples", str(workdir / "examples.csv"),
                "--save", str(artifact),
            ]
        )
        assert code == 0
        assert artifact.exists()
        capsys.readouterr()

        # Serve from the artifact: no examples, no synthesis.
        code = main(
            [
                "fill",
                "--program", str(artifact),
                "--table", str(workdir / "Comp.csv"),
                "--rows", str(workdir / "pending.csv"),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Google Apple Microsoft" in output
        assert "Microsoft Facebook Google" in output

    def test_fill_missing_artifact(self, workdir, capsys):
        code = main(
            [
                "fill",
                "--program", str(workdir / "nope.json"),
                "--rows", str(workdir / "pending.csv"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_fill_corrupt_artifact(self, workdir, capsys):
        (workdir / "bad.json").write_text("{not json", encoding="utf-8")
        code = main(
            [
                "fill",
                "--program", str(workdir / "bad.json"),
                "--rows", str(workdir / "pending.csv"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_fill_blank_lines_preserved(self, workdir, capsys):
        """A blank line in --rows used to be dropped, shifting every later
        output against the input file; it must come back as a blank line."""
        artifact = workdir / "program.json"
        main(
            [
                "learn",
                "--table", str(workdir / "Comp.csv"),
                "--examples", str(workdir / "examples.csv"),
                "--save", str(artifact),
            ]
        )
        capsys.readouterr()
        (workdir / "gaps.csv").write_text("c2 c3 c1\n\nc1 c4 c2\n", encoding="utf-8")
        code = main(
            [
                "fill",
                "--program", str(artifact),
                "--table", str(workdir / "Comp.csv"),
                "--rows", str(workdir / "gaps.csv"),
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.split("\n")
        assert lines[0].endswith("Google Apple Microsoft")
        assert lines[1] == ""  # the blank line, in place
        assert lines[2].endswith("Microsoft Facebook Google")

    def test_fill_missing_tables_listed(self, workdir, capsys):
        """Serving a lookup program without its tables must exit 1 with the
        missing table names, not an opaque evaluation error."""
        artifact = workdir / "program.json"
        main(
            [
                "learn",
                "--table", str(workdir / "Comp.csv"),
                "--examples", str(workdir / "examples.csv"),
                "--save", str(artifact),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "fill",
                "--program", str(artifact),
                "--rows", str(workdir / "pending.csv"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err
        assert "Comp" in captured.err
        assert "--table" in captured.err

    def test_fill_wrong_arity_row(self, workdir, capsys):
        artifact = workdir / "program.json"
        main(
            [
                "learn",
                "--table", str(workdir / "Comp.csv"),
                "--examples", str(workdir / "examples.csv"),
                "--save", str(artifact),
            ]
        )
        capsys.readouterr()
        (workdir / "bad.csv").write_text("c2 c3 c1,extra\n", encoding="utf-8")
        code = main(
            [
                "fill",
                "--program", str(artifact),
                "--table", str(workdir / "Comp.csv"),
                "--rows", str(workdir / "bad.csv"),
            ]
        )
        assert code == 1
        assert "error: fill row 1" in capsys.readouterr().err


class TestServeSubcommand:
    def test_serve_boots_and_answers(self):
        """`repro serve` (the real subprocess) answers /healthz, /learn
        (cached on repeat) and /fill -- the one canonical smoke scenario,
        shared with the CI `service-smoke` job via bench_service.run_smoke."""
        import importlib.util

        bench = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_service.py"
        spec = importlib.util.spec_from_file_location("bench_service_smoke", bench)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.run_smoke() == 0

    def test_serve_bad_table_exits_cleanly(self, workdir, capsys):
        code = main(["serve", "--table", str(workdir / "missing.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_async_flag_still_parses_but_is_hidden(self):
        """asyncio is the only server: ``--async`` selects nothing, but
        old command lines that pass it must keep working."""
        from repro.cli import build_serve_parser

        parser = build_serve_parser()
        assert "--async" not in parser.format_help()
        parser.parse_args(["--async", "--port", "0"])


class TestCatalogSubcommand:
    def test_add_list_show_append_roundtrip(self, workdir, capsys):
        root = workdir / "catalogs"
        code = main(
            ["catalog", "add", "--root", str(root), "products",
             str(workdir / "Comp.csv")]
        )
        assert code == 0
        assert (root / "products" / "Comp.csv").is_file()

        assert main(["catalog", "list", "--root", str(root)]) == 0
        assert "products: 1 table" in capsys.readouterr().out

        (workdir / "more.csv").write_text("c5,IBM\nc6,Xerox\n", encoding="utf-8")
        code = main(
            ["catalog", "append", "--root", str(root), "products", "Comp",
             str(workdir / "more.csv")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "appended 2 rows" in out and "(4 -> 6 rows)" in out

        assert main(["catalog", "show", "--root", str(root), "products"]) == 0
        out = capsys.readouterr().out
        assert "Comp: 6 rows x 2 columns" in out and "fingerprint:" in out

    def test_append_skips_matching_header_row_with_notice(self, workdir, capsys):
        root = workdir / "catalogs"
        main(["catalog", "add", "--root", str(root), "products",
              str(workdir / "Comp.csv")])
        (workdir / "withheader.csv").write_text(
            "Id,Name\nc9,Intel\n", encoding="utf-8"
        )
        code = main(
            ["catalog", "append", "--root", str(root), "products", "Comp",
             str(workdir / "withheader.csv")]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "appended 1 row " in captured.out
        assert "treating it as a header" in captured.err  # never silent

    def test_append_header_absent_keeps_lookalike_row(self, workdir, capsys):
        root = workdir / "catalogs"
        main(["catalog", "add", "--root", str(root), "products",
              str(workdir / "Comp.csv")])
        # First row is literal data that happens to equal the header.
        (workdir / "lookalike.csv").write_text(
            "Id,Name\nc9,Intel\n", encoding="utf-8"
        )
        code = main(
            ["catalog", "append", "--root", str(root), "--header", "absent",
             "products", "Comp", str(workdir / "lookalike.csv")]
        )
        assert code == 0
        assert "appended 2 rows" in capsys.readouterr().out

    def test_append_header_present_validates_columns(self, workdir, capsys):
        root = workdir / "catalogs"
        main(["catalog", "add", "--root", str(root), "products",
              str(workdir / "Comp.csv")])
        (workdir / "wrongheader.csv").write_text(
            "Ident,Title\nc9,Intel\n", encoding="utf-8"
        )
        code = main(
            ["catalog", "append", "--root", str(root), "--header", "present",
             "products", "Comp", str(workdir / "wrongheader.csv")]
        )
        assert code == 1
        assert "does not match table" in capsys.readouterr().err

    def test_add_refuses_existing_table(self, workdir, capsys):
        root = workdir / "catalogs"
        main(["catalog", "add", "--root", str(root), "products",
              str(workdir / "Comp.csv")])
        code = main(
            ["catalog", "add", "--root", str(root), "products",
             str(workdir / "Comp.csv")]
        )
        assert code == 1
        assert "already has table(s): Comp" in capsys.readouterr().err

    def test_append_broken_key_rediscovers_like_a_rebuild(self, workdir, capsys):
        # CSV tables carry *discovered* keys: a duplicated Id re-runs
        # discovery (Name still identifies rows) instead of failing --
        # exactly what rebuilding the table from the grown CSV would do.
        from repro.service.registry import CatalogRegistry

        root = workdir / "catalogs"
        main(["catalog", "add", "--root", str(root), "products",
              str(workdir / "Comp.csv")])
        (workdir / "dup.csv").write_text("c1,Clone\n", encoding="utf-8")
        code = main(
            ["catalog", "append", "--root", str(root), "products", "Comp",
             str(workdir / "dup.csv")]
        )
        assert code == 0
        table = CatalogRegistry(root=root).get("products").table("Comp")
        assert ("Id",) not in table.keys and ("Name",) in table.keys

    def test_append_ragged_row_exits_cleanly(self, workdir, capsys):
        root = workdir / "catalogs"
        main(["catalog", "add", "--root", str(root), "products",
              str(workdir / "Comp.csv")])
        (workdir / "ragged.csv").write_text("c9,Intel,extra\n", encoding="utf-8")
        code = main(
            ["catalog", "append", "--root", str(root), "products", "Comp",
             str(workdir / "ragged.csv")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "3 cells" in err
        # The CSV on disk is untouched by the failed append.
        assert (root / "products" / "Comp.csv").read_text().count("\n") == 5

    def test_served_catalog_root_reflects_cli_appends(self, workdir):
        # What `repro catalog` writes is exactly what a fresh
        # `serve --catalog-root` would load.
        from repro.service.registry import CatalogRegistry

        root = workdir / "catalogs"
        main(["catalog", "add", "--root", str(root), "products",
              str(workdir / "Comp.csv")])
        (workdir / "more.csv").write_text("c5,IBM\n", encoding="utf-8")
        main(["catalog", "append", "--root", str(root), "products", "Comp",
              str(workdir / "more.csv")])
        registry = CatalogRegistry(root=root)
        table = registry.get("products").table("Comp")
        assert table.num_rows == 5
        assert table.lookup("Name", {"Id": "c5"}) == "IBM"


class TestProfileFlag:
    def test_profile_prints_phase_timings(self, workdir, capsys):
        code = main(
            [
                "learn",
                "--table", str(workdir / "Comp.csv"),
                "--examples", str(workdir / "examples.csv"),
                "--profile",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "program: " in captured.out
        assert "profile: " in captured.err
        for phase in ("generate", "intersect", "rank", "total"):
            assert phase in captured.err
