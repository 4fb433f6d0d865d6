import importlib.util
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import lts_of
from genspecs import (
    gen_formula, gen_pair, gen_parseq_spec, gen_spec, mutate_spec, render_spec,
    ring_text, worker_grid_text,
)
from oracles import reference_cli_valuation, reference_load_formulas

import gvpa.sos
import gvpa.syntax
from gvpa.cli import console_main, main
from gvpa.hml import all_labels, formula_str, holds, parse_formula, parse_formulas
from gvpa.parser import parse_expr, parse_spec, parse_valuation
from gvpa.sos import GvState
from gvpa.syntax import InitSpec, enumerate_valuations, expr_str

DATA = pathlib.Path(__file__).parent / "data"
TRAFFIC = str(DATA / "traffic.gvpa")
PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"
SRC = str(pathlib.Path(gvpa.syntax.__file__).resolve().parent.parent)

EXAMPLE3 = """
domain { 0, 1 }
vars { v }
acts { a }
init (v = 0) -> a.delta || assign(v, 1).delta with { v = 0 }
"""


def run(argv) -> int:
    """The exit code of `main`, also when argparse rejects the arguments."""
    try:
        return main(argv)
    except SystemExit as exit:
        return exit.code


@pytest.fixture()
def example3_file(tmp_path):
    path = tmp_path / "example3.gvpa"
    path.write_text(EXAMPLE3, encoding="utf-8")
    return str(path)


class TestValidate:
    def test_ok(self, capsys):
        assert main(["validate", TRAFFIC]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_input_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.gvpa"
        bad.write_text("domain { } acts { a } init delta with { }")
        assert main(["validate", str(bad)]) == 2

    def test_missing_file_exit_2(self):
        assert main(["validate", "/nonexistent.gvpa"]) == 2

    @pytest.mark.parametrize("text, error", [
        ("domain { v }\nacts { a, b, c }\ncomm { a|a -> b; a|a -> c }\ninit delta\n",
         "3:18: duplicate comm entry for a|a"),
        ("domain { v }\nacts { a }\ncomm { a|a -> a }\ninit delta\n",
         "comm entry a|a -> a: a is itself a communication result (handshake violation)"),
        ("domain { v }\nvars { x }\nacts { x }\ninit delta with { x = v }\n",
         "x is declared both as variable and action"),
    ], ids=["duplicate-self-comm", "self-comm-result", "variable-and-action"])
    def test_spec_error_exit_2(self, tmp_path, capsys, text, error):
        path = tmp_path / "spec.gvpa"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


class TestDeepNesting:
    """A 3,000-prefix chain exceeds Python's recursion limit in the parser."""

    @pytest.mark.parametrize("command", ["validate", "lts"])
    def test_deep_prefix_chain_is_input_error(self, tmp_path, capsys, command):
        path = tmp_path / "deep.gvpa"
        path.write_text("domain { 0 }\nacts { a }\ninit " + "a." * 3000
                        + "delta with { }\n", encoding="utf-8")
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("prefixes, argv", [
        (400, ["translate", "{file}", "--out", "{dir}"]),
        (800, ["lts", "{file}", "--format", "dot"]),
        (900, ["translate", "{file}", "--out", "{dir}"]),
    ])
    def test_chain_within_the_recursion_limit_exits_0(self, tmp_path, prefixes, argv):
        # a fresh interpreter, so the test runner's frames do not count; a
        # printer that spends more than one frame per nesting level fails,
        # and at 900 prefixes one that recurses on the translated term does
        path = tmp_path / "deep.gvpa"
        path.write_text("domain { 0 }\nvars { x }\nacts { a }\ninit " + "a." * prefixes
                        + "delta with { x = 0 }\n", encoding="utf-8")
        argv = [a.format(file=path, dir=tmp_path / "out") for a in argv]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run(
            [sys.executable, "-c", "import sys\nfrom gvpa.cli import main\n"
             "sys.exit(main(sys.argv[1:]))", *argv],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestUnusableInput:
    """Unreadable files and bad caps are input errors, not crashes."""

    @pytest.mark.parametrize("argv", [
        ["lts", "{dir}"],
        ["validate", "{latin1}"],
        ["lts", TRAFFIC, "--out", "{dir}"],
        ["modelcheck", TRAFFIC, "--formula-file", "{dir}"],
        ["translate", TRAFFIC, "--out", "{file}"],
        ["lts", TRAFFIC, "--max-states", "0"],
    ])
    def test_exit_2_with_one_error_line(self, tmp_path, capsys, argv):
        latin1 = tmp_path / "latin1.gvpa"
        latin1.write_bytes("domain { café }".encode("latin-1"))
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = [a.format(dir=tmp_path, latin1=latin1, file=taken) for a in argv]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1


class TestInternalError:
    """An unexpected exception is a bug, not a verdict: it exits 4 with one
    line, since exit 1 means "false"."""

    def test_unexpected_exception_exits_4(self, monkeypatch, capsys):
        def broken(spec, init=None):
            raise AssertionError("broken invariant")

        monkeypatch.setattr(gvpa.syntax, "validate_spec", broken)
        assert run(["validate", TRAFFIC]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "internal error: AssertionError('broken invariant')"]


class TestLts:
    def test_aut_header_on_stdout(self, capsys):
        assert main(["lts", TRAFFIC, "--format", "aut"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "des (0,9,6)"

    def test_dot_to_file(self, tmp_path, capsys):
        target = tmp_path / "traffic.dot"
        assert main(["lts", TRAFFIC, "--format", "dot",
                     "--out", str(target)]) == 0
        assert target.read_text().startswith("digraph")

    def test_resource_cap_exit_3(self, capsys):
        assert main(["lts", TRAFFIC, "--max-states", "2"]) == 3

    @pytest.mark.parametrize("fmt", ["aut", "dot"])
    def test_stdout_and_out_file_bytes_match_the_golden(self, tmp_path, fmt):
        # a fresh interpreter, so the bytes are those a shell sees
        golden = (DATA.parent / "golden" / f"traffic.lts.{fmt}").read_bytes()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        target = tmp_path / f"traffic.{fmt}"
        for extra in ([], ["--out", str(target)]):
            done = subprocess.run(
                [sys.executable, "-c", "import sys\nfrom gvpa.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))", "lts", TRAFFIC, "--format", fmt, *extra],
                env=env, capture_output=True, timeout=120)
            assert done.returncode == 0, done.stderr
            if not extra:
                assert done.stdout == golden
        assert target.read_bytes() == golden

    @pytest.mark.parametrize("fmt", ["aut", "dot"])
    def test_ring_exports_match_the_goldens(self, tmp_path, capsys, fmt):
        # R(3,3) has an encap and a handshake; its DOT prints each state's
        # term, built from the state's frame vector when the export reads it.
        # forks has moves that change the frame: a || after a prefix, and
        # an encap after a prefix inside a ||
        ring = tmp_path / "R33.gvpa"
        ring.write_text(ring_text(3, 3), encoding="utf-8")
        for name, spec in (("R33", ring), ("forks", DATA / "forks.gvpa")):
            assert main(["lts", str(spec), "--format", fmt]) == 0
            golden = (DATA.parent / "golden" / f"{name}.lts.{fmt}").read_text(encoding="utf-8")
            assert capsys.readouterr().out == golden, name


class TestModelcheck:
    def test_true_formula_exit_0(self, capsys):
        assert main(["modelcheck", TRAFFIC, "--formula", "<drive> true"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_false_formula_exit_1(self, capsys):
        assert main(["modelcheck", TRAFFIC, "--formula", "(t = red)"]) == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_formula_file(self, tmp_path, capsys):
        path = tmp_path / "prop.hml"
        path.write_text("[assign(t, red)] (t = red)")
        assert main(["modelcheck", TRAFFIC, "--formula-file", str(path)]) == 0

    @pytest.mark.parametrize("formula", ["<*> true", "[*] false"])
    def test_star_over_an_empty_alphabet_exit_2(self, tmp_path, capsys, formula):
        path = tmp_path / "empty.gvpa"
        path.write_text("domain { a }\nacts { }\ninit delta\n", encoding="utf-8")
        assert main(["modelcheck", str(path), "--formula", formula]) == 2
        assert capsys.readouterr().err == "error: 1:2: * names no label: the spec has none\n"

    def test_json_payload(self, capsys):
        assert main(["--json", "modelcheck", TRAFFIC,
                     "--formula", "set t := red . (t = red)"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"verdict": True, "fragment": "HML^check+set",
                           "formula": "set t := red . (t = red)"}


class TestBisim:
    def test_stateless_reflexive_exit_0(self, capsys):
        assert main(["bisim", TRAFFIC, "--mode", "stateless",
                     "--left", "CAR", "--right", "CAR"]) == 0

    def test_strong_pair(self, example3_file):
        assert main(["bisim", example3_file, "--mode", "strong",
                     "--left", "(v = 0) -> a.delta",
                     "--right", "a.delta"]) == 0

    def test_stateless_false_includes_witness(self, example3_file, capsys):
        code = main(["--json", "bisim", example3_file, "--mode", "stateless",
                     "--left", "a.delta", "--right", "(v = 0) -> a.delta"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] is False
        assert payload["witness_formula"] == "set v := 1 . <a> true"
        assert payload["witness_valuation"] == "v=0"

    def test_state_based_with_valuation_flag(self, example3_file):
        # at v=0 the pair is bisimilar, at v=1 the condition silences the left
        assert main(["bisim", example3_file, "--mode", "state-based",
                     "--left", "(v = 0) -> a.delta", "--right", "a.delta",
                     "--valuation", "v=0"]) == 0
        assert main(["bisim", example3_file, "--mode", "state-based",
                     "--left", "(v = 0) -> a.delta", "--right", "a.delta",
                     "--valuation", "v=1"]) == 1

    def test_the_cap_counts_expression_valuation_pairs(self, capsys):
        # CAR's closure holds 3 expressions, each under traffic's 2 valuations
        argv = ["bisim", TRAFFIC, "--mode", "stateless", "--left", "CAR", "--right", "CAR"]
        assert main([*argv, "--max-states", "6"]) == 0
        assert capsys.readouterr().out == "stateless: bisimilar\n"
        assert main([*argv, "--max-states", "5"]) == 3
        assert capsys.readouterr().err == (
            "resource limit: expression closure cap of 5 (expression, valuation) pairs "
            "exceeded: 3 expressions under 2 valuations\n")

    def test_a_valuation_space_past_the_cap_is_refused_first(self, tmp_path, monkeypatch,
                                                            capsys):
        names = [f"x{i}" for i in range(17)]
        path = tmp_path / "v17.gvpa"
        path.write_text(
            f"domain {{ a, b }}\nvars {{ {', '.join(names)} }}\nacts {{ t }}\n"
            f"init t.delta with {{ {', '.join(f'{x} = a' for x in names)} }}\n",
            encoding="utf-8")
        stepped = []
        monkeypatch.setattr(gvpa.sos._Stepper, "table", lambda self, e: stepped.append(e))
        assert main(["bisim", str(path), "--mode", "stateless",
                     "--left", "t.delta", "--right", "t.delta"]) == 3
        assert stepped == []
        assert capsys.readouterr().err == (
            "resource limit: valuation space has 131072 elements, "
            "exceeding the cap of 100000\n")

    def test_max_valuations_is_a_usage_error(self, capsys):
        # --max-states is the one cap
        assert run(["bisim", TRAFFIC, "--mode", "stateless", "--left", "CAR",
                    "--right", "CAR", "--max-valuations", "1"]) == 2
        assert "unrecognized arguments: --max-valuations 1" in capsys.readouterr().err


class TestDistinguish:
    def test_stateless_formula_rechecks_through_modelcheck(self, tmp_path, capsys):
        base = ("domain {{ 0, 1 }}\nvars {{ v }}\nacts {{ a }}\n"
                "init {root} with {{ v = 0 }}\n")
        pair_file = tmp_path / "pair.gvpa"
        pair_file.write_text(base.format(root="a.delta"))
        code = main(["distinguish", str(pair_file), "--mode", "stateless",
                     "--left", "a.delta", "--right", "(v = 0) -> a.delta"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        formula, valuation = out[0], out[1].removeprefix("valuation: ")
        # the formula must hold at the left expression and fail at the right,
        # under the reported witness valuation
        left = tmp_path / "left.gvpa"
        left.write_text(base.format(root="a.delta")
                        .replace("v = 0 }", f"{valuation.replace('=', ' = ')} }}"))
        right = tmp_path / "right.gvpa"
        right.write_text(base.format(root="(v = 0) -> a.delta")
                         .replace("v = 0 }", f"{valuation.replace('=', ' = ')} }}"))
        capsys.readouterr()
        assert main(["modelcheck", str(left), "--formula", formula]) == 0
        assert main(["modelcheck", str(right), "--formula", formula]) == 1

    @pytest.mark.parametrize("mode", ["state-based", "stateless"])
    @pytest.mark.parametrize("left, right, formula", [
        # one refutation per a-partner, joined by a conjunction
        ("a.b.delta", "a.(b.delta + c.delta) + a.(b.delta + d.delta)",
         "<a> (!<c> true && !<d> true)"),
        # the pair (c.delta, d.delta) is refuted once and then read back
        ("a.b.c.delta", "a.b.d.delta + a.(b.d.delta + b.d.delta)", "<a> <b> <c> true"),
    ], ids=["conjunction", "memo"])
    def test_formula_holds_left_and_fails_right(self, tmp_path, capsys, mode,
                                                left, right, formula):
        path = tmp_path / "abcd.gvpa"
        path.write_text("domain { v } acts { a, b, c, d } init delta\n", encoding="utf-8")
        assert main(["distinguish", str(path), "--mode", mode,
                     "--left", left, "--right", right]) == 0
        assert capsys.readouterr().out == f"{formula}\nvaluation: {{}}\n"
        spec, init = parse_spec(path.read_text(encoding="utf-8"))
        for expr, verdict in ((left, True), (right, False)):
            state = GvState(parse_expr(expr, spec), init.valuation)
            assert holds(spec, state, parse_formula(formula, spec)) is verdict

    def test_identical_processes_exit_1(self, capsys):
        code = main(["distinguish", TRAFFIC, "--mode", "stateless",
                     "--left", "CAR", "--right", "CAR"])
        assert code == 1
        assert "no distinguishing formula" in capsys.readouterr().out

    def test_state_based_parallel_pair(self, example3_file, capsys):
        code = main(["distinguish", example3_file, "--mode", "state-based",
                     "--left", "(v = 0) -> a.delta || assign(v, 1).delta",
                     "--right", "a.delta || assign(v, 1).delta"])
        assert code == 0
        assert capsys.readouterr().out


class TestTranslate:
    def test_writes_files(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        formulas = tmp_path / "props.txt"
        formulas.write_text("(t = green)\n// comment\n<drive> true\n")
        code = main(["translate", TRAFFIC, "--out", str(out_dir),
                     "--formulas", str(formulas)])
        assert code == 0
        assert (out_dir / "traffic.mcrl2").exists()
        assert (out_dir / "traffic_prop1.mcf").read_text() \
            == "<value(t, green)>true\n"
        assert (out_dir / "traffic_prop2.mcf").read_text() == "<drive>true\n"

    def test_exports_both_aut_files(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["translate", TRAFFIC, "--out", str(out_dir)]) == 0
        source = (out_dir / "traffic.source.aut").read_text()
        translated = (out_dir / "traffic.translated.aut").read_text()
        assert source.splitlines()[0] == "des (0,9,6)"
        assert translated.splitlines()[0] == "des (0,15,6)"
        assert '"value(t,green)"' in translated


class TestVerifyTranslation:
    def test_traffic_all_pass(self, capsys):
        assert main(["verify-translation", TRAFFIC]) == 0
        out = capsys.readouterr().out
        assert "PASS variable-consistency" in out
        assert "FAIL" not in out

    def test_json_schema(self, capsys):
        assert main(["--json", "verify-translation", TRAFFIC]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert {c["name"] for c in payload["checks"]} >= {
            "variable-consistency", "structure-preservation",
            "bisimilarity-preservation"}

    def test_a_failing_check_exits_1(self, capsys, monkeypatch):
        # the translated side loses the move from CAR || TLC under assign(t, red)
        import gvpa.translate as tr

        run_pipeline = tr.run_pipeline

        def dropped(spec, root, valuation, cfg):
            pipe = run_pipeline(spec, root, valuation, cfg)
            m = pipe.m_lts
            m_lts = lts_of(m.states, [t for t in m.transitions
                                      if t != (0, "assign(t,red)", 2)], m.initial)
            return tr.PipelineResult(
                pipe.out, pipe.gv_lts, m_lts, pipe.link,
                tr.verify_variable_consistency(spec, pipe.gv_lts, m_lts, pipe.link))

        monkeypatch.setattr(tr, "run_pipeline", dropped)
        assert main(["verify-translation", TRAFFIC]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if not line.startswith("PASS ")]
        assert failed == [
            "FAIL variable-consistency (condition 3: source transition "
            "<CAR || TLC, t=green> --assign(t,red)--> <CAR || TLC, t=red> has no image)",
            "FAIL structure-preservation (source 6/9, translated 6/14)"]
        assert main(["--json", "verify-translation", TRAFFIC]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["consistency"]["condition"] == 3
        assert [c["name"] for c in payload["checks"] if not c["ok"]] == [
            "variable-consistency", "structure-preservation"]

    @pytest.mark.parametrize("text, refusal", [
        ("domain { a } vars { x } acts { go } proc go = go.go init go with { x = a }",
         "cannot render proc name 'go'"),
        ("domain { go } vars { x } acts { go } proc P = go.P init P with { x = go }",
         "cannot render action name 'go'"),
        ("domain { d, v_d } vars { x } acts { a } proc P = a.P init P with { x = d }",
         "cannot render value name 'v_d'"),
        ("domain { a, x } vars { x } acts { b } proc P = b.P init P with { x = a }",
         "cannot render var name 'x'"),
    ], ids=["action-and-proc", "value-and-action", "prefixed-value", "value-and-var"])
    def test_refuses_what_translate_refuses(self, tmp_path, capsys, text, refusal):
        """A name the emitted model cannot render is refused by both
        commands, with one message."""
        spec = tmp_path / "clash.gvpa"
        spec.write_text(text, encoding="utf-8")
        assert main(["verify-translation", str(spec)]) == 2
        verify = capsys.readouterr()
        assert main(["translate", str(spec), "--out", str(tmp_path / "out")]) == 2
        translate = capsys.readouterr()
        assert verify.out == translate.out == ""
        assert verify.err == translate.err
        assert refusal in verify.err

    def test_refuses_comm_entries_that_share_an_action(self, tmp_path, capsys):
        """Both handshakes of the shared action fire on both sides, but the
        model's comm set would keep one product by entry order: both
        commands refuse the spec with one message, and its source LTS is
        still explored."""
        spec = tmp_path / "overlap.gvpa"
        spec.write_text("domain { u, w } vars { x } acts { a, b, d, c, e }\n"
                        "comm { a|b -> c; a|d -> e }\n"
                        "init encap({a, b, d}) (a.delta || b.delta || d.delta) with { x = u }\n",
                        encoding="utf-8")
        assert main(["verify-translation", str(spec)]) == 2
        verify = capsys.readouterr()
        assert main(["translate", str(spec), "--out", str(tmp_path / "out")]) == 2
        translate = capsys.readouterr()
        assert verify.out == translate.out == ""
        assert verify.err == translate.err == (
            "error: comm entries a|b -> c and a|d -> e share the action a; the "
            "translation needs each action in at most one entry\n")
        assert not (tmp_path / "out").exists()
        assert main(["lts", str(spec)]) == 0
        assert capsys.readouterr().out == 'des (0,2,3)\n(0,"c",1)\n(0,"e",2)\n'

    def test_a_state_without_image_is_a_verdict(self, capsys, monkeypatch):
        # a Globs of its two check summands only never assigns, so the
        # images of the states after an assign are never reached
        import gvpa.translate as tr
        from gvpa.mcrl2 import MChoice

        make_globs = tr.make_globs

        def checks_only(slots, values):
            name, params, body = make_globs(slots, values)
            while isinstance(body.left, MChoice):
                body = body.left
            return name, params, body

        monkeypatch.setattr(tr, "make_globs", checks_only)
        assert main(["verify-translation", TRAFFIC]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[0] == (
            "FAIL variable-consistency (condition 3: the image of "
            "<CAR || TLC, t=red> is not a state of the translated LTS)")
        assert main(["--json", "verify-translation", TRAFFIC]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["consistency"] == {
            "ok": False, "condition": 3,
            "witness": "the image of <CAR || TLC, t=red> is not a state of the translated LTS"}

    def test_thirteen_variables_pass_under_the_default_caps(self, tmp_path, capsys):
        # 2^13 valuations: only the two explored states are ever read
        names = [f"x{i}" for i in range(13)]
        path = tmp_path / "v13.gvpa"
        path.write_text(
            "domain { a, b }\n"
            f"vars {{ {', '.join(names)} }}\n"
            "acts { t }\n"
            "proc P = ((x0 = a) -> assign(x0, b).P) + ((x0 = b) -> t.P)\n"
            f"init P with {{ {', '.join(f'{x} = a' for x in names)} }}\n",
            encoding="utf-8")
        assert main(["verify-translation", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 1 + 1 + 2 * 13 + 1
        assert all(line.startswith("PASS ") for line in lines)
        # modelcheck steps the states the formula reaches; stateless
        # bisimilarity steps P under every valuation: 8192 pairs
        assert main(["modelcheck", str(path), "--formula", "<assign(x0, b)> <t> true"]) == 0
        assert capsys.readouterr().out == "true\n"
        stateless = ["bisim", str(path), "--mode", "stateless", "--left", "P", "--right", "P"]
        assert main(stateless) == 0
        assert capsys.readouterr().out == "stateless: bisimilar\n"
        assert main([*stateless, "--max-states", "8191"]) == 3
        assert capsys.readouterr().err == (
            "resource limit: valuation space has 8192 elements, "
            "exceeding the cap of 8191\n")


class TestJsonStability:
    def test_same_output_across_runs(self, capsys):
        main(["--json", "bisim", TRAFFIC, "--mode", "stateless",
              "--left", "CAR", "--right", "TLC"])
        first = capsys.readouterr().out
        main(["--json", "bisim", TRAFFIC, "--mode", "stateless",
              "--left", "CAR", "--right", "TLC"])
        second = capsys.readouterr().out
        assert first == second


class _Stdout(io.StringIO):
    """A stdout that records what it held at each flush, or fails to flush."""

    def __init__(self, events, error=None):
        super().__init__()
        self.events = events
        self.error = error

    def flush(self):
        if self.error is not None:
            raise self.error
        self.events.append(("flush", self.getvalue()))


class TestConsoleMain:
    """`console_main` ends the process with `os._exit` and `main`'s code,
    once the streams are flushed."""

    @pytest.fixture()
    def events(self, monkeypatch):
        events = []
        monkeypatch.setattr(os, "_exit", lambda code: events.append(("exit", code)))
        return events

    @pytest.mark.parametrize("argv, code", [
        (["validate", TRAFFIC], 0),
        (["modelcheck", TRAFFIC, "--formula", "(t = red)"], 1),
        (["validate", str(DATA / "missing.gvpa")], 2),
        (["lts", TRAFFIC, "--max-states", "2"], 3),
    ], ids=["ok", "false", "input", "resource"])
    def test_passes_on_the_code_of_main(self, monkeypatch, capsys, events, argv, code):
        monkeypatch.setattr(sys, "argv", ["gvpa", *argv])
        console_main()
        assert events == [("exit", code)]

    def test_stdout_is_flushed_before_the_exit(self, monkeypatch, capsys, events):
        monkeypatch.setattr(sys, "stdout", _Stdout(events))
        monkeypatch.setattr(sys, "argv", ["gvpa", "validate", TRAFFIC])
        console_main()
        assert events[-2:] == [("flush", "ok\n"), ("exit", 0)]

    def test_no_stdout_is_no_error(self, monkeypatch, capsys, events):
        # fd 1 closed at start-up
        monkeypatch.setattr(sys, "stdout", None)
        monkeypatch.setattr(sys, "argv", ["gvpa", "validate", TRAFFIC])
        console_main()
        assert events == [("exit", 0)]
        assert capsys.readouterr().err == ""

    def test_a_failed_flush_is_an_input_error(self, monkeypatch, capsys, events):
        stdout = _Stdout(events, OSError(28, "No space left on device"))
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "argv", ["gvpa", "validate", TRAFFIC])
        try:
            console_main()
        finally:
            stdout.error = None
        assert events[-1] == ("exit", 2)
        assert capsys.readouterr().err.splitlines() == [
            "error: [Errno 28] No space left on device"]


def _console(argv, **kwargs):
    """`argv` through the console script in a fresh interpreter with
    buffered stdout, as a shell runs it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen(
        [sys.executable, "-c", "from gvpa.cli import console_main; console_main()", *argv],
        env=env, **kwargs)


def _files(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestConsoleScript:
    """The console script prints what `main` prints, to the last byte,
    and reports a write error at its final flush as an input error."""

    PROPS = str(DATA / "traffic_props.txt")

    @pytest.mark.parametrize("argv, code", [
        (["validate", TRAFFIC], 0),
        (["lts", TRAFFIC], 0),
        (["lts", TRAFFIC, "--format", "dot", "--out", "traffic.dot"], 0),
        (["--json", "bisim", TRAFFIC, "--mode", "stateless", "--left", "CAR", "--right", "TLC"], 1),
        (["bisim", TRAFFIC, "--mode", "strong", "--left", "CAR", "--right", "CAR || delta"], 0),
        (["modelcheck", TRAFFIC, "--formula", "(t = red)"], 1),
        (["distinguish", TRAFFIC, "--mode", "stateless", "--left", "CAR", "--right", "delta"], 0),
        (["translate", TRAFFIC, "--out", "out", "--formulas", PROPS], 0),
        (["verify-translation", TRAFFIC, "--formulas", PROPS], 0),
        (["lts", TRAFFIC, "--max-states", "2"], 3),
    ], ids=["validate", "lts", "lts-out", "bisim-json", "bisim-strong", "modelcheck-false",
            "distinguish", "translate", "verify-translation", "resource"])
    def test_same_bytes_files_and_code_as_main(self, tmp_path, monkeypatch, capsys, argv, code):
        inner, fresh = tmp_path / "main", tmp_path / "console"
        inner.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(inner)
        assert main(argv) == code
        out = capsys.readouterr().out.encode("utf-8")
        done = _console(argv, cwd=fresh, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        stdout, stderr = done.communicate(timeout=120)
        assert (done.returncode, stdout) == (code, out), stderr
        assert _files(fresh) == _files(inner)

    def test_a_large_export_arrives_whole_through_a_slow_pipe(self, tmp_path):
        path = tmp_path / "W64.gvpa"
        path.write_text(worker_grid_text(6, 4), encoding="utf-8")
        proc = _console(["lts", str(path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        chunks = []
        while chunk := proc.stdout.read(16384):
            chunks.append(chunk)
            time.sleep(0.002)
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 0, stderr
        data = b"".join(chunks)
        assert (data.count(b"\n"), len(data)) == (49153, 1079299)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_full_disk_at_the_final_flush_exits_2(self):
        with open("/dev/full", "wb") as full:
            proc = _console(["validate", TRAFFIC], stdout=full, stderr=subprocess.PIPE)
            stderr = proc.communicate(timeout=120)[1].decode()
        assert proc.returncode == 2
        assert stderr.splitlines() == ["error: [Errno 28] No space left on device"]

    def test_a_reader_gone_before_the_final_flush_exits_2(self):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _console(["validate", TRAFFIC], stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        stderr = proc.communicate(timeout=120)[1].decode()
        assert proc.returncode == 2
        assert stderr.splitlines() == ["error: [Errno 32] Broken pipe"]

    def test_a_closed_stdout_exits_0(self):
        proc = _console(["validate", TRAFFIC], stderr=subprocess.PIPE,
                        preexec_fn=lambda: os.close(1))
        stderr = proc.communicate(timeout=120)[1].decode()
        assert (proc.returncode, stderr) == (0, "")

    def test_help_exits_0(self):
        proc = _console(["--help"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        stdout, stderr = proc.communicate(timeout=120)
        assert (proc.returncode, stderr) == (0, b"")
        assert stdout.startswith(b"usage: gvpa")


class _Unwritable(io.StringIO):
    """A stderr on a read-only file descriptor."""

    def write(self, text):
        raise OSError(9, "Bad file descriptor")


class TestUnusableStderr:
    """An error line that cannot reach stderr is lost; its exit code is
    not, and the line does not go to stdout, where verdicts are read."""

    MISSING = str(DATA / "missing.gvpa")

    @pytest.mark.parametrize("stderr", [None, _Unwritable()], ids=["closed", "read-only"])
    def test_in_process(self, monkeypatch, capsys, stderr):
        monkeypatch.setattr(sys, "stderr", stderr)
        assert main(["validate", self.MISSING]) == 2
        assert capsys.readouterr().out == ""

    def test_a_closed_stderr_in_a_fresh_interpreter(self):
        proc = _console(["validate", self.MISSING], stdout=subprocess.PIPE,
                        preexec_fn=lambda: os.close(2))
        assert (proc.communicate(timeout=120)[0], proc.returncode) == (b"", 2)

    def test_a_read_only_stderr_in_a_fresh_interpreter(self, tmp_path):
        path = tmp_path / "stderr.txt"
        path.write_bytes(b"")
        with path.open("rb") as read_only:
            proc = _console(["validate", self.MISSING], stdout=subprocess.PIPE,
                            stderr=read_only)
            stdout = proc.communicate(timeout=120)[0]
        assert (stdout, proc.returncode) == (b"", 2)


class TestFuzz:
    """Seeded generated specs, byte mutations of their text and
    parse-preserving mutations of their AST, through every command that
    reads a spec: each run ends with a documented exit code and no
    traceback."""

    @staticmethod
    def _draw(seed: int, parseq: bool):
        rng = random.Random(seed)
        if parseq:
            spec, left, valuation = gen_parseq_spec(rng)
            right = left
        else:
            spec = gen_spec(rng)
            left, right = gen_pair(rng, spec)
            valuation = enumerate_valuations(spec)[0]
        return rng, spec, left, right, valuation

    @staticmethod
    def _run_every_command(tmp_path, capsys, file, seed, left, right):
        mode = ("strong", "state-based", "stateless")[seed % 3]
        pair = ["--left", expr_str(left), "--right", expr_str(right)]
        caps = ["--max-states", "200"]
        codes = {}
        for argv in (["validate", file], ["lts", file],
                     ["bisim", file, "--mode", mode, *pair],
                     ["distinguish", file, "--mode",
                      ("state-based", "stateless")[seed % 2], *pair],
                     ["modelcheck", file, "--formula", "<a> true"],
                     ["translate", file, "--out", str(tmp_path / "out")],
                     ["verify-translation", file]):
            codes[argv[0]] = run(caps + argv)
            assert codes[argv[0]] in (0, 1, 2, 3), argv
            assert "Traceback" not in capsys.readouterr().err
        return codes

    @settings(max_examples=50, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), parseq=st.booleans(),
           edits=st.lists(st.tuples(st.floats(0, 1), st.binary(max_size=3)),
                          max_size=3))
    def test_documented_exit_codes(self, tmp_path, capsys, seed, parseq, edits):
        _, spec, left, right, valuation = self._draw(seed, parseq)
        text = render_spec(spec, InitSpec(left, valuation)).encode("utf-8")
        for where, chunk in edits:
            i = int(where * len(text))
            text = text[:i] + chunk + text[i + 1:]
        path = tmp_path / "fuzz.gvpa"
        path.write_bytes(text)
        self._run_every_command(tmp_path, capsys, str(path), seed, left, right)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), parseq=st.booleans(),
           edits=st.integers(1, 3))
    def test_parse_preserving_mutations(self, tmp_path, capsys, seed, parseq, edits):
        rng, spec, left, right, valuation = self._draw(seed, parseq)
        spec, root, valuation = mutate_spec(rng, spec, left, valuation, edits)
        init = InitSpec(root, valuation)
        text = render_spec(spec, init)
        assert parse_spec(text) == (spec, init)
        path = tmp_path / "fuzz.gvpa"
        path.write_text(text, encoding="utf-8")
        # a parallel-sequential draw compares its root with itself
        codes = self._run_every_command(tmp_path, capsys, str(path), seed,
                                        root, root if parseq else right)
        assert codes["validate"] == 0


_TWO_VARS = "domain { a, b } vars { x, y } acts { c } init delta with "
_COMM = "domain { a } acts { b, c, d, e, f, g }\ncomm { b|c -> d e|f -> g }\ninit delta"
_BISIM = ["--left", "CAR", "--right", "TLC", "--valuation"]


class TestReaderErrors:
    """Inputs the README grammar forbids that the hand-split readers and
    the separator-optional `with`/`comm` loops let through or misplaced:
    each exits 2 with one positioned error line. The last two cases
    failed before as well."""

    @pytest.mark.parametrize("argv, text, line", [
        (["validate", "{file}"], _TWO_VARS + "{ x = a y = b }",
         "1:66: found 'y' (expected ',' or '}')"),
        (["validate", "{file}"], _TWO_VARS + "{ x = a, }",
         "1:67: found '}' (expected variable name)"),
        (["validate", "{file}"], _COMM, "2:17: found 'e' (expected ';' or '}')"),
        (["bisim", TRAFFIC, "--mode", "stateless", *_BISIM, "t=green,t=red"], None,
         "1:9: variable t assigned twice"),
        (["bisim", TRAFFIC, "--mode", "state-based", *_BISIM, "t=purple"], None,
         "1:3: unknown value purple"),
        (["distinguish", TRAFFIC, "--mode", "stateless", *_BISIM, "t"], None,
         "1:2: unexpected end of input (expected '=')"),
        (["validate", "{file}"], _TWO_VARS + "{ y = b }",
         "1:66: init valuation misses variable x"),
        (["validate", "{file}"], _TWO_VARS.replace(" with ", "\n"),
         "2:1: init valuation misses variables x, y"),
        (["bisim", "{file}", "--mode", "stateless", "--left", "delta", "--right", "delta",
          "--valuation", "x=a"], _TWO_VARS + "{ x = a, y = b }",
         "1:4: valuation misses variable y"),
        (["translate", TRAFFIC, "--out", "{dir}", "--formulas", "{file}"],
         "(t = green)\n// a comment\n\n<drive> (t = purple)\n",
         "4:14: unknown value purple"),
        (["modelcheck", TRAFFIC, "--formula-file", "{file}"],
         "\n\n<drive> (t = purple)\n", "3:14: unknown value purple"),
        (["verify-translation", TRAFFIC, "--formulas", "{file}"],
         "(t = green)\n<drive> true <brake> true\n",
         "2:14: found '<' (expected end of formula)"),
        (["verify-translation", TRAFFIC, "--formulas", "{file}"],
         "<drive> true &&\n(t = red)\n",
         "1:16: unexpected end of input (expected formula)"),
    ], ids=["with-no-comma", "with-trailing-comma", "comm-no-semicolon",
            "valuation-twice", "valuation-unknown-value", "valuation-no-value",
            "with-misses-variable", "no-with-misses-variables", "valuation-misses-variable",
            "formulas-bad-fourth-line", "formula-file-leading-blank-lines",
            "formulas-two-on-one-line", "formulas-cut-off-line"])
    def test_exit_2_with_the_position(self, tmp_path, capsys, argv, text, line):
        path = tmp_path / "input.txt"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        argv = [a.format(file=path, dir=tmp_path / "out") for a in argv]
        assert run(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {line}"]


def _load_by_path(name: str, monkeypatch):
    """A perfbench module, read from its file without writing bytecode
    next to it, and registered under its own name for the test's duration
    (its dataclasses and its sibling imports look modules up by name)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


class TestReadersAgreeWithTheReference:
    """`parse_valuation` and `parse_formulas` return what the hand-split
    readers they replaced (`oracles.reference_cli_valuation` and
    `oracles.reference_load_formulas`) returned, on valid input."""

    SPACES = ("", " ", "  ", "\t")

    @staticmethod
    def _agree_on_valuation(spec, text):
        assert parse_valuation(text, spec) == reference_cli_valuation(text, spec), text

    def test_valuations_the_tests_write(self):
        specs = {"v": parse_spec(EXAMPLE3)[0],
                 "f": parse_spec(ring_text(3, 3))[0],
                 "t": parse_spec(pathlib.Path(TRAFFIC).read_text(encoding="utf-8"))[0]}
        for text in ("v=0", "v=1", "f=lo", "f=hi", "t=green", "t = red"):
            self._agree_on_valuation(specs[text[0]], text)

    @pytest.mark.parametrize("workload", ["grid", "closure"])
    def test_valuations_the_benchmark_writes(self, tmp_path, monkeypatch, workload):
        _load_by_path("families", monkeypatch)
        workloads = _load_by_path("workloads", monkeypatch)
        seen = 0
        for seed in range(4):
            workdir = tmp_path / f"{workload}{seed}"
            workdir.mkdir()
            _, _, jobs = workloads.build(workload, seed, workdir)
            for job in jobs:
                if "--valuation" in job.args:
                    text = job.args[job.args.index("--valuation") + 1]
                    spec, _ = parse_spec((workdir / job.args[1]).read_text(encoding="utf-8"))
                    self._agree_on_valuation(spec, text)
                    seen += 1
        assert seen >= 8

    def test_seeded_valuations_with_arbitrary_spacing(self):
        rng = random.Random(1818)
        checked = 0
        while checked < 300:
            spec = gen_spec(rng)
            if not spec.variables:
                continue
            variables = rng.sample(spec.variables, len(spec.variables))
            pad = lambda: rng.choice(self.SPACES)
            text = ",".join(f"{pad()}{v}{pad()}={pad()}{rng.choice(spec.domain.values)}{pad()}"
                            for v in variables)
            self._agree_on_valuation(spec, text)
            checked += 1

    def test_traffic_props(self, traffic):
        spec, _ = traffic
        text = (DATA / "traffic_props.txt").read_text(encoding="utf-8")
        assert parse_formulas(text, spec) == reference_load_formulas(text, spec)

    def test_seeded_files_with_comments_and_blank_lines(self, traffic):
        spec, _ = traffic
        labels = list(all_labels(spec))
        rng = random.Random(1819)
        for _ in range(100):
            lines = []
            for _ in range(rng.randint(0, 8)):
                kind = rng.random()
                if kind < 0.15:
                    lines.append(rng.choice(self.SPACES))
                elif kind < 0.3:
                    lines.append(f"{rng.choice(self.SPACES)}// a comment")
                else:
                    formula = formula_str(gen_formula(rng, spec, labels, 3))
                    comment = rng.choice(["", " // trailing", "//"])
                    lines.append(f"{rng.choice(self.SPACES)}{formula}{comment}")
            text = rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"])
            expected = reference_load_formulas(text, spec)
            assert parse_formulas(text, spec) == expected, text
