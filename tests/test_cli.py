import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import posetgames
from posetgames import (
    Graph,
    complete_graph,
    disjoint_union,
    format_graph,
    format_poset,
    antichain,
    chain,
    parse_poset,
    parse_setgame,
    random_poset,
)
from posetgames import cli
from posetgames.cli import main


@pytest.fixture
def k2k2_file(tmp_path):
    g = disjoint_union(complete_graph(2), complete_graph(2))
    path = tmp_path / "k2k2.graph"
    path.write_text(format_graph(g))
    return str(path)


@pytest.fixture
def antichain3_file(tmp_path):
    path = tmp_path / "a3.poset"
    path.write_text(format_poset(antichain(3)))
    return str(path)


class TestWinner:
    def test_poset_first(self, antichain3_file, capsys):
        assert main(["winner", "--game", "poset", antichain3_file]) == 0
        out, err = capsys.readouterr()
        assert out.strip() == "first"
        assert "states=" in err

    def test_kayles_second(self, k2k2_file, capsys):
        assert main(["winner", "--game", "kayles", k2k2_file]) == 1
        assert capsys.readouterr().out.strip() == "second"

    def test_empty_poset_second(self, tmp_path, capsys):
        path = tmp_path / "empty.poset"
        path.write_text("0\n")
        assert main(["winner", "--game", "poset", str(path)]) == 1
        assert capsys.readouterr().out.strip() == "second"

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_text("2\n0 5\n")
        assert main(["winner", "--game", "kayles", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_internal_failure_exit_2(self, antichain3_file, capsys, monkeypatch):
        # exit 1 means "second", so a crash must not produce it
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_solve", boom)
        assert main(["winner", "--game", "poset", antichain3_file]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1] == "error: internal RuntimeError: boom"

    def test_internal_failure_prints_traceback(self, antichain3_file, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_solve", boom)
        assert main(["winner", "--game", "poset", antichain3_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):")
        assert 'raise RuntimeError("boom")' in err

    def test_header_past_maxsize_exit_2(self, tmp_path, capsys):
        path = tmp_path / "big.poset"
        path.write_text("10000000000000000000\n0 9223372036854775808\n")
        assert main(["winner", "--game", "poset", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "Traceback" not in err

    def test_budget_exit_2(self, tmp_path, capsys):
        path = tmp_path / "k4.graph"
        path.write_text(format_graph(complete_graph(4)))
        assert main(["winner", "--game", "kayles", "--budget", "1", str(path)]) == 2
        assert "budget" in capsys.readouterr().err


class TestGrundy:
    def test_antichain(self, antichain3_file, capsys):
        assert main(["grundy", "--game", "poset", antichain3_file]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_setgame(self, tmp_path, capsys):
        path = tmp_path / "s.sets"
        path.write_text("2 2\n0\n1\n")
        assert main(["grundy", "--game", "setgame", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_deep_top_first_chain(self, tmp_path, capsys):
        m = 1500
        path = tmp_path / "top.poset"
        path.write_text(f"{m}\n" + "".join(f"{x + 1} {x}\n" for x in range(m - 1)))
        assert main(["grundy", "--game", "poset", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out.strip() == str(m)
        assert "Traceback" not in err and "error" not in err
        assert err.startswith("states=1 ")  # a chain is a Nim heap: no search


class TestReduce:
    def test_kayles_to_poset(self, tmp_path, capsys):
        src = tmp_path / "k2.graph"
        src.write_text(format_graph(complete_graph(2)))
        out = tmp_path / "k2.poset"
        mapping = tmp_path / "k2.map"
        rc = main([
            "reduce", str(src), "--from", "kayles", "--to", "poset",
            "--out", str(out), "--map-out", str(mapping),
        ])
        assert rc == 0
        poset = parse_poset(out.read_text())
        assert poset.m == 12
        lines = mapping.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("B ")) == 6
        # winner must be preserved across the written files
        assert main(["winner", "--game", "kayles", str(src)]) == main(
            ["winner", "--game", "poset", str(out)]
        )

    def test_poset_to_setgame_nested(self, tmp_path):
        src = tmp_path / "c3.poset"
        src.write_text(format_poset(chain(3)))
        out = tmp_path / "c3.sets"
        assert main(["reduce", str(src), "--from", "poset", "--to", "setgame", "--out", str(out)]) == 0
        s = parse_setgame(out.read_text())
        assert s.sets == (frozenset({0, 1, 2}), frozenset({1, 2}), frozenset({2}))

    def test_poset_to_setgame_writes_upper_cones(self, tmp_path):
        p = random_poset(240, 0.05, 11)
        src = tmp_path / "r240.poset"
        src.write_text(format_poset(p))
        out = tmp_path / "r240.sets"
        assert main(["reduce", str(src), "--from", "poset", "--to", "setgame", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "240 240"
        assert lines[1:] == [" ".join(str(y) for y in range(240) if p.leq(x, y)) for x in range(240)]

    def test_unsupported_direction(self, tmp_path, capsys):
        src = tmp_path / "c3.poset"
        src.write_text(format_poset(chain(3)))
        rc = main(["reduce", str(src), "--from", "poset", "--to", "poset"])
        assert rc == 2
        assert "unsupported" in capsys.readouterr().err


class TestVerify:
    def test_theorem_suite_ok(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        rc = main(["verify", "--suite", "theorem", "--max-n", "2", "--out", str(records)])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        recs = [json.loads(l) for l in records.read_text().splitlines()]
        assert len(recs) == 3
        assert all(r["verdict"] == "pass" for r in recs)

    def test_over_cap_rejected(self, capsys):
        assert main(["verify", "--suite", "lemma2", "--max-n", "9"]) == 2
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("max_n", ["0", "-2"])
    def test_empty_regime_rejected(self, capsys, max_n):
        assert main(["verify", "--suite", "theorem", "--max-n", max_n]) == 2
        assert "max_n" in capsys.readouterr().err

    def test_parser_defaults_are_the_suites(self):
        from posetgames.verify import SuiteConfig

        args = cli.build_parser().parse_args(["verify", "--suite", "psi"])
        assert (args.seed, args.budget) == (SuiteConfig.seed, SuiteConfig.budget)

    def test_unknown_suite_is_a_usage_error(self, capsys):
        from posetgames.verify import SUITES

        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "lemma9"])
        assert exc.value.code == 2
        choices = ", ".join(f"'{s}'" for s in SUITES)
        assert f"invalid choice: 'lemma9' (choose from {choices})" in capsys.readouterr().err


class TestExportDot:
    def test_chain(self, tmp_path, capsys):
        src = tmp_path / "c3.poset"
        src.write_text(format_poset(chain(3)))
        assert main(["export-dot", str(src)]) == 0
        out = capsys.readouterr().out
        assert out.count("->") == 2


class TestPlay:
    def test_single_element_human_wins(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "a1.poset"
        src.write_text("1\n")
        feed = iter(["0"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
        assert main(["play", "--game", "poset", str(src)]) == 0
        assert "you win" in capsys.readouterr().out

    def test_engine_mirrors_on_k2k2(self, k2k2_file, capsys, monkeypatch):
        # engine moves second and mirrors in the other component
        feed = iter(["0", "2", "3"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
        assert main(["play", "--game", "kayles", k2k2_file]) == 0
        out = capsys.readouterr().out
        assert "engine plays vertex 2" in out or "engine plays vertex 3" in out
        assert "engine wins" in out

    def test_illegal_move_reprompts(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "a1.poset"
        src.write_text("1\n")
        feed = iter(["7", "x", "0"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
        assert main(["play", "--game", "poset", str(src)]) == 0
        out = capsys.readouterr().out
        assert "illegal move 7" in out
        assert "you win" in out

    def test_budget_exit_2(self, tmp_path, capsys, monkeypatch):
        # after 0 takes 0-1, the engine's first candidate leaves {2} + P3,
        # which needs more than one state
        src = tmp_path / "p3p3.graph"
        src.write_text(format_graph(Graph.of(6, [(0, 1), (1, 2), (3, 4), (4, 5)])))
        feed = iter(["0"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
        assert main(["play", "--game", "kayles", "--budget", "1", str(src)]) == 2
        assert "undecided: budget exhausted" in capsys.readouterr().err
        feed = iter(["0", "2"])
        assert main(["play", "--game", "kayles", "--budget", "100", str(src)]) == 0
        out = capsys.readouterr().out
        assert "engine plays vertex 3" in out and "engine wins" in out

    def test_eof_ends_cleanly(self, antichain3_file, capsys, monkeypatch):
        def raise_eof(prompt=""):
            raise EOFError

        monkeypatch.setattr("builtins.input", raise_eof)
        assert main(["play", "--game", "poset", antichain3_file]) == 0


class TestStartup:
    def test_import_does_not_load_process_pool(self):
        # only verify --jobs N with N > 1 needs the pool, so plain runs skip its imports
        env = dict(os.environ, PYTHONPATH=str(Path(posetgames.__file__).parent.parent))
        code = (
            "import sys, posetgames.cli; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_import_does_not_load_the_suites(self):
        # only the verify subcommand needs them; every other run would compile verify.py for nothing
        env = dict(os.environ, PYTHONPATH=str(Path(posetgames.__file__).parent.parent))
        code = "import sys, posetgames.cli; print('posetgames.verify' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_import_loads_no_dataclass_machinery(self):
        # the CLI's records are slotted classes and its traceback is imported on failure only;
        # -S keeps site's .pth preloads from hiding typing and pathlib
        env = dict(os.environ, PYTHONPATH=str(Path(posetgames.__file__).parent.parent))
        code = (
            "import sys, posetgames.cli; "
            "print([m for m in ('dataclasses', 'inspect', 'traceback', 'typing', 'pathlib') if m in sys.modules])"
        )
        out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
