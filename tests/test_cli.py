import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bipminor
from bipminor.canonical import canonical_form
from bipminor.families import FAMILIES, bull, cycle, dog, h_tree
from bipminor.graph_core import build
from bipminor.relations import bipartite_minor_closure
from bipminor.cli.main import run_cli
from bipminor.cli.serialize import emit_graph6, parse_graph6, validate_witness


def write_g6(tmp_path, name, g):
    p = tmp_path / name
    p.write_text(emit_graph6(g) + "\n")
    return str(p)


class TestGen:
    def test_dog_g6(self, capsys):
        assert run_cli(["gen", "dog", "10", "4", "4", "--format", "g6"]) == 0
        out = capsys.readouterr().out
        assert out == emit_graph6(dog(10, [4, 4])) + "\n"
        assert len(out.strip().splitlines()) == 1

    def test_cycle_default_format(self, capsys):
        assert run_cli(["gen", "cycle", "6"]) == 0
        assert parse_graph6(capsys.readouterr().out) == cycle(6)

    def test_h_tree_dot(self, capsys):
        assert run_cli(["gen", "h_tree", "2", "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph {")
        assert sum("--" in ln for ln in out.splitlines()) == 5

    @pytest.mark.parametrize("module", ["bipminor", "bipminor.cli.main"])
    def test_python_m_bipminor(self, module):
        # Both modules run the CLI without the installed script, and
        # without a warning.
        src = str(Path(bipminor.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", module, "gen", "cycle", "4"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == emit_graph6(cycle(4)) + "\n"

    def test_bull_params(self, capsys):
        assert run_cli(["gen", "bull", "4", "1", "2"]) == 0
        assert parse_graph6(capsys.readouterr().out) == bull(4, [1, 2])

    def test_invalid_params_exit_2(self, capsys):
        assert run_cli(["gen", "dog", "3", "2"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_family_exit_2(self, capsys):
        assert run_cli(["gen", "wheel", "5"]) == 2

    @pytest.mark.parametrize("kind", list(FAMILIES))
    def test_every_family_kind_prints_its_builders_graph6(self, kind, capsys):
        builder, takes_appendages = FAMILIES[kind]
        if takes_appendages:
            assert run_cli(["gen", kind, "6", "3"]) == 0
            want = builder(6, [3])
        else:
            assert run_cli(["gen", kind, "6"]) == 0
            want = builder(6)
        assert capsys.readouterr().out == emit_graph6(want) + "\n"

    @pytest.mark.parametrize("kind", list(FAMILIES))
    def test_appendages_rejected_where_the_table_takes_none(self, kind, capsys):
        takes_appendages = FAMILIES[kind][1]
        code = run_cli(["gen", kind, "6", "3"])
        assert code == (0 if takes_appendages else 2)
        assert ("takes no appendage lengths" in capsys.readouterr().err) == (
            not takes_appendages
        )


class TestCheck:
    def test_positive_bipminor_with_witness(self, tmp_path, capsys):
        h = write_g6(tmp_path, "h.g6", bull(4, [1]))
        g = write_g6(tmp_path, "g.g6", cycle(6))
        witness = tmp_path / "w.json"
        code = run_cli(["check", "bipminor", h, g, "--witness", str(witness)])
        assert code == 0
        assert capsys.readouterr().out == "true\n"
        doc = json.loads(witness.read_text())
        assert doc["relation"] == "bipartite_minor"
        assert doc["holds"] is True
        assert validate_witness(doc)

    def test_relation_name_and_alias_agree(self, tmp_path, capsys):
        h = write_g6(tmp_path, "h.g6", cycle(4))
        g = write_g6(tmp_path, "g.g6", dog(6, [4]))
        results = []
        for name in ("bipartite_minor", "bipminor"):
            witness = tmp_path / f"{name}.json"
            code = run_cli(["check", name, h, g, "--witness", str(witness)])
            results.append((code, capsys.readouterr().out, witness.read_text()))
        assert results[0] == results[1]
        assert results[0][:2] == (0, "true\n")
        assert validate_witness(json.loads(results[0][2]))

    def test_negative_bipminor(self, tmp_path, capsys):
        h = write_g6(tmp_path, "h.g6", dog(5, [3, 3]))
        g = write_g6(tmp_path, "g.g6", dog(6, [3, 3]))
        assert run_cli(["check", "bipminor", h, g]) == 1
        assert capsys.readouterr().out == "false\n"

    def test_minor_with_witness(self, tmp_path, capsys):
        h = write_g6(tmp_path, "h.g6", dog(5, [3, 3]))
        g = write_g6(tmp_path, "g.g6", dog(6, [3, 3]))
        witness = tmp_path / "w.json"
        assert run_cli(["check", "minor", h, g, "--witness", str(witness)]) == 0
        assert validate_witness(json.loads(witness.read_text()))

    def test_subgraph_negative(self, tmp_path, capsys):
        h = write_g6(tmp_path, "h.g6", h_tree(2))
        g = write_g6(tmp_path, "g.g6", h_tree(3))
        assert run_cli(["check", "subgraph", h, g]) == 1

    def test_subgraph_positive_with_witness(self, tmp_path, capsys):
        h = write_g6(tmp_path, "h.g6", cycle(4))
        g = write_g6(tmp_path, "g.g6", dog(6, [4]))
        witness = tmp_path / "w.json"
        assert run_cli(["check", "subgraph", h, g, "--witness", str(witness)]) == 0
        doc = json.loads(witness.read_text())
        assert doc["relation"] == "subgraph" and validate_witness(doc)

    def test_missing_file_exit_2(self, tmp_path, capsys):
        g = write_g6(tmp_path, "g.g6", cycle(6))
        assert run_cli(["check", "minor", str(tmp_path / "nope.g6"), g]) == 2

    def test_bad_graph6_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.g6"
        bad.write_text("D?garbage\n")
        g = write_g6(tmp_path, "g.g6", cycle(6))
        assert run_cli(["check", "minor", str(bad), g]) == 2

    def test_unwritable_witness_exit_2(self, tmp_path, capsys):
        h = write_g6(tmp_path, "h.g6", bull(4, [1]))
        g = write_g6(tmp_path, "g.g6", cycle(6))
        target = tmp_path / "no" / "such" / "dir" / "w.json"
        assert run_cli(["check", "bipminor", h, g, "--witness", str(target)]) == 2
        assert "cannot write witness" in capsys.readouterr().err


class TestAdmissible:
    def test_c6_pairs(self, tmp_path, capsys):
        g = write_g6(tmp_path, "g.g6", cycle(6))
        assert run_cli(["admissible", g]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert lines[0] == "u=0 v=2 w=1 cycle=0,1,2,3,4,5"

    def test_forest_prints_nothing(self, tmp_path, capsys):
        g = write_g6(tmp_path, "g.g6", h_tree(2))
        assert run_cli(["admissible", g]) == 0
        assert capsys.readouterr().out == ""


GOLDEN = Path(__file__).parent / "golden"


class TestClosure:
    @pytest.mark.parametrize(
        "family, golden",
        [
            (["cycle", "8"], "closure_C8.g6"),
            (["dog", "6", "4"], "closure_D6_4.g6"),
            (["cycle", "10"], "closure_C10.g6"),
        ],
    )
    def test_output_matches_golden_file(self, tmp_path, capsys, family, golden):
        # Any change to canonical forms or to the closure shows up here.
        assert run_cli(["gen", *family]) == 0
        host = tmp_path / "g.g6"
        host.write_text(capsys.readouterr().out)
        assert run_cli(["closure", str(host)]) == 0
        assert capsys.readouterr().out == (GOLDEN / golden).read_text()

    def test_closure_lines_parse_and_match(self, tmp_path, capsys):
        g = write_g6(tmp_path, "g.g6", cycle(6))
        assert run_cli(["closure", g]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        got = {canonical_form(parse_graph6(ln)) for ln in lines}
        assert got == set(bipartite_minor_closure(cycle(6)))

    def test_two_connected_only_standard(self, tmp_path, capsys):
        g = write_g6(tmp_path, "g.g6", cycle(8))
        assert run_cli(["closure", g, "--two-connected", "standard"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        got = {canonical_form(parse_graph6(ln)) for ln in lines}
        assert got == {canonical_form(cycle(k)) for k in (4, 6, 8)}

    def test_two_connected_only_paper_adds_k2(self, tmp_path, capsys):
        g = write_g6(tmp_path, "g.g6", cycle(8))
        assert run_cli(["closure", g, "--two-connected", "paper"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        got = {canonical_form(parse_graph6(ln)) for ln in lines}
        want = [build(2, [(0, 1)]), cycle(4), cycle(6), cycle(8)]
        assert got == {canonical_form(x) for x in want}
        assert len(lines) == 4

    @pytest.mark.parametrize(
        "options", [["--mode", "standard"], ["--two-connected-only"], ["--two-connected"]]
    )
    def test_old_and_bare_options_exit_2(self, tmp_path, capsys, options):
        # One option names the reading; a mode alone no longer passes
        # unread, and the option needs its reading.
        g = write_g6(tmp_path, "g.g6", cycle(8))
        assert run_cli(["closure", g, *options]) == 2
        assert capsys.readouterr().out == ""


class TestBlocks:
    def test_bull_blocks(self, tmp_path, capsys):
        g = write_g6(tmp_path, "g.g6", bull(3, [1, 1]))
        assert run_cli(["blocks", g]) == 0
        out = capsys.readouterr().out
        assert out.count("block") == 3
        assert "cut_vertices=0,1" in out


class TestAntichain:
    def test_dog_family_is_antichain(self, tmp_path, capsys):
        family = tmp_path / "dogs.g6"
        family.write_text(
            "".join(emit_graph6(dog(k, [4, 4])) + "\n" for k in (4, 6, 8))
        )
        code = run_cli(["antichain", str(family), "--relation", "bipartite_minor"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[:3] == ["1 0 0", "0 1 0", "0 0 1"]
        assert out.splitlines()[-1] == "antichain: true"

    def test_chain_is_not_antichain(self, tmp_path, capsys):
        family = tmp_path / "htrees.g6"
        family.write_text(
            "".join(emit_graph6(h_tree(k)) + "\n" for k in (2, 3, 4))
        )
        code = run_cli(["antichain", str(family), "--relation", "minor"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.splitlines()[-1] == "antichain: false"


class TestVerify:
    def test_bull_suite_passes(self, capsys):
        assert run_cli(["verify", "bull"]) == 0
        out = capsys.readouterr().out
        assert "suite bull: 18/18 claims passed" in out
        assert out.count("[PASS]") == 18

    def test_unknown_suite_exit_2(self, capsys):
        assert run_cli(["verify", "everything"]) == 2

    def test_stdout_is_byte_deterministic(self, capsys):
        run_cli(["verify", "antichain"])
        first = capsys.readouterr().out
        run_cli(["verify", "antichain"])
        second = capsys.readouterr().out
        assert first == second


class TestSizeCapEnv:
    def test_env_override(self, tmp_path, capsys, monkeypatch):
        h = write_g6(tmp_path, "h.g6", build(3, []))
        g = write_g6(tmp_path, "g.g6", build(15, []))
        assert run_cli(["check", "bipminor", h, g]) == 2
        monkeypatch.setenv("BIPMINOR_SIZE_CAP", "15")
        capsys.readouterr()
        assert run_cli(["check", "bipminor", h, g]) == 0

    def test_admissible_checks_its_graph(self, tmp_path, capsys, monkeypatch):
        # The cycles of a graph read from outside are enumerated only
        # below the cap.
        g = write_g6(tmp_path, "g.g6", cycle(15))
        monkeypatch.delenv("BIPMINOR_SIZE_CAP", raising=False)
        assert run_cli(["admissible", g]) == 2
        assert "size cap is 14" in capsys.readouterr().err
        monkeypatch.setenv("BIPMINOR_SIZE_CAP", "15")
        assert run_cli(["admissible", g]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 15

    @pytest.mark.parametrize("value", ["lots", "-3"])
    def test_bad_env_value(self, tmp_path, capsys, monkeypatch, value):
        h = write_g6(tmp_path, "h.g6", build(3, []))
        g = write_g6(tmp_path, "g.g6", build(15, []))
        monkeypatch.setenv("BIPMINOR_SIZE_CAP", value)
        assert run_cli(["check", "bipminor", h, g]) == 2
        assert "BIPMINOR_SIZE_CAP" in capsys.readouterr().err


class TestUsage:
    def test_no_args(self):
        assert run_cli([]) == 2

    def test_unknown_command(self):
        assert run_cli(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "bipminor" in capsys.readouterr().out
