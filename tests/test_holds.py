"""Local model checking: `holds` decides one state by stepping only the
states a formula reaches, and agrees with the grid evaluator."""
import os
import pathlib
import random
import subprocess
import sys

import pytest

from genspecs import gen_pair, gen_parseq_spec, gen_spec, ring_text, worker_grid_text
from oracles import (
    ReferenceGrid, enumerate_check_formulas, reference_eval_formula, states_of,
)

import gvpa.hml
import gvpa.sos
from gvpa.cli import main
from gvpa.errors import FragmentError, ResourceLimitError
from gvpa.hml import (
    FALSE, And, Box, Check, Diamond, Not, Or, SetVar, TRUE, all_labels,
    build_state_space, eval_formula, eval_modal_on_lts, formula_str, holds,
    lts_checker, parse_formula,
)
from gvpa.parser import parse_spec
from gvpa.sos import ExplorationConfig, GvState, reachable_exprs
from gvpa.syntax import ValuationCodes
from gvpa.translate import check_theorem4, run_pipeline, translate_formula

TRAFFIC = str(pathlib.Path(__file__).parent / "data" / "traffic.gvpa")
SRC = str(pathlib.Path(gvpa.hml.__file__).resolve().parent.parent)
CFG = ExplorationConfig(max_states=2000)


def _formulas(spec, cap: int) -> list:
    """Check-fragment formulas up to depth 2, and `Not`, `SetVar`, `Or` and
    `Box` wrappers over a sample of them."""
    labels = all_labels(spec)
    formulas = enumerate_check_formulas(spec, labels, max_depth=2, cap=cap)
    sample = formulas[::9]
    formulas += [Not(f) for f in sample]
    formulas += [SetVar(v, d, f) for f in sample
                 for v in spec.variables for d in spec.domain.values]
    formulas += [Or(f, g) for f, g in zip(sample, reversed(sample))]
    formulas += [Box(frozenset({label}), SetVar(v, d, f))
                 for f in sample[::3] for label in labels[:2]
                 for v in spec.variables[:1] for d in spec.domain.values[-1:]]
    return formulas


def _agree_on_grid(spec, space, grid, formulas, sample) -> int:
    reference_memo: dict = {}
    compared = 0
    for formula in formulas:
        den = eval_formula(space, formula)
        assert states_of(space, den) == states_of(
            grid, reference_eval_formula(grid, formula, reference_memo)), \
            formula_str(formula)
        for i in sample:
            assert holds(spec, space.states[i], formula, CFG) is (i in den), \
                formula_str(formula)
            compared += 1
    return compared


class TestAgreesWithTheGrid:
    """`holds` against `eval_formula`, and `eval_formula` against the
    successor-scan reference on the oracles' own grid, on sampled grid
    states, states off the reachable fragment included."""

    def test_gen_spec_grids(self):
        rng = random.Random(5150)
        compared = 0
        for _ in range(20):
            spec = gen_spec(rng)
            p, q = gen_pair(rng, spec)
            space = build_state_space(spec, [p, q], CFG)
            sample = rng.sample(range(len(space.states)), min(4, len(space.states)))
            compared += _agree_on_grid(spec, space, ReferenceGrid(spec, [p, q]),
                                       _formulas(spec, 150), sample)
        assert compared > 20000

    def test_parseq_grids(self):
        rng = random.Random(5151)
        compared = 0
        for seed in range(12):
            spec, root, _ = gen_parseq_spec(rng, state_cap=30, n_vars=1 + seed % 2)
            space = build_state_space(spec, [root], CFG)
            sample = rng.sample(range(len(space.states)), min(4, len(space.states)))
            compared += _agree_on_grid(spec, space, ReferenceGrid(spec, [root]),
                                       _formulas(spec, 150), sample)
        assert compared > 12000

    def test_translated_side(self):
        rng = random.Random(5152)
        compared = 0
        for _ in range(4):
            spec, root, valuation = gen_parseq_spec(rng, state_cap=30)
            pipe = run_pipeline(spec, root, valuation, CFG)
            space = build_state_space(spec, [root], CFG)
            source_root = space.index_of(pipe.gv_lts.states[pipe.gv_lts.initial])
            formulas = enumerate_check_formulas(spec, all_labels(spec),
                                                max_depth=2, cap=150)
            reports = check_theorem4(pipe, formulas)
            assert [report.formula for report in reports] == formulas
            check = lts_checker(pipe.m_lts)
            for formula, report in zip(formulas, reports):
                translated = translate_formula(formula)
                den = eval_modal_on_lts(pipe.m_lts, translated)
                for i in range(0, len(pipe.m_lts.states), 3):
                    assert check(i, translated) is (i in den)
                assert report.source_verdict is (source_root in eval_formula(space, formula))
                assert report.translated_verdict is (pipe.m_lts.initial in den)
                compared += 1
        assert compared > 500

    def test_checks_and_sets_are_not_defined_on_a_plain_lts(self, traffic):
        spec, init = traffic
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        # a short-circuit must not hide a check or a set
        for formula in (Check("t", "red"), SetVar("t", "red", TRUE),
                        Or(TRUE, Check("t", "red")),
                        And(FALSE, SetVar("t", "red", TRUE))):
            with pytest.raises(FragmentError):
                eval_modal_on_lts(pipe.m_lts, formula)
        # the translated side's states carry no valuation to check, and a
        # set operator would leave the explored states
        with pytest.raises(FragmentError):
            lts_checker(pipe.m_lts)(pipe.m_lts.initial, Check("t", "red"))
        with pytest.raises(FragmentError):
            lts_checker(pipe.gv_lts)(pipe.gv_lts.initial, SetVar("t", "red", TRUE))


class TestExploredSourceAgreesWithHolds:
    """`lts_checker` on the explored source LTS, which `check_theorem4`
    asks, against `holds`, which steps the spec itself, at every explored
    state."""

    @staticmethod
    def _agree(spec, init_root, valuation) -> int:
        pipe = run_pipeline(spec, init_root, valuation, CFG)
        labels = all_labels(spec)
        formulas = enumerate_check_formulas(spec, labels, max_depth=2, cap=3000)[::15]
        # `[*]` over a depth-one formula reads every state two moves away
        formulas += [Box(frozenset(labels), f) for f in formulas[::10]]
        gv = pipe.gv_lts
        check = lts_checker(gv)
        for i, state in enumerate(gv.states):
            for formula in formulas:
                assert check(i, formula) is holds(spec, state, formula, CFG), \
                    (i, formula_str(formula))
        return len(gv.states) * len(formulas)

    @pytest.mark.parametrize("text", [
        pathlib.Path(TRAFFIC).read_text(encoding="utf-8"),
        worker_grid_text(3, 3), ring_text(3, 3)], ids=["traffic", "W33", "R33"])
    def test_examples(self, text):
        spec, init = parse_spec(text)
        assert self._agree(spec, init.root, init.valuation) > 1000

    def test_parseq_corpora(self):
        rng = random.Random(5153)
        compared = 0
        for seed in range(8):
            spec, root, valuation = gen_parseq_spec(rng, state_cap=30,
                                                    n_vars=1 + seed % 2)
            compared += self._agree(spec, root, valuation)
        assert compared > 5000


class TestWorkDone:
    """The evaluation steps a state only when a modality asks for it."""

    @pytest.fixture()
    def stepped(self, monkeypatch):
        keys = []
        successors = gvpa.sos._Stepper.successors
        monkeypatch.setattr(gvpa.sos._Stepper, "successors",
                            lambda self, key: keys.append(key) or successors(self, key))
        monkeypatch.setattr(gvpa.hml, "expression_closure",
                            lambda *args: pytest.fail("a closure was built"))
        return keys

    @pytest.mark.parametrize("text, at_most", [
        ("[*] <*> true", 1 + 12),
        ("<*> <*> false || [w1] [*] (x1 = v1)", 1 + 12),
        ("[*] set x2 := v3 . <*> (x2 = v3) && <assign(x1, v1)> [*] false", 1 + 12 + 12),
    ])
    def test_depth_two_on_a_4096_state_grid(self, stepped, text, at_most):
        spec, init = parse_spec(worker_grid_text(6, 4))
        formula = parse_formula(text, spec)
        holds(spec, GvState(init.root, init.valuation), formula)
        # each state is stepped once, and within distance 2 of the root
        # (the set operator reaches 12 more)
        assert len(stepped) == len(set(stepped)) <= at_most <= 1 + 12 + 144

    def test_theorem4_steps_no_source_state(self, stepped):
        # the formulas `verify-translation` checks when given none, read
        # from the explored source LTS
        spec, init = parse_spec(worker_grid_text(3, 3))
        texts = [f"<{a}> true" for a in spec.actions]
        texts += [f"({v} = {d})" for v in spec.variables for d in spec.domain.values]
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        del stepped[:]
        reports = check_theorem4(pipe, [parse_formula(t, spec) for t in texts])
        assert len(reports) == len(texts) and all(r.agrees for r in reports)
        assert stepped == []

    def test_theorem4_cap_is_shared_and_fits_the_exploration(self, tmp_path, capsys):
        # W(3,3) has 27 states, and each formula reaches all of them; the
        # formulas read the explored LTS, so only its exploration can trip
        source = tmp_path / "w33.gvpa"
        source.write_text(worker_grid_text(3, 3), encoding="utf-8")
        props = tmp_path / "props.txt"
        props.write_text("[*] [*] [*] [*] [*] [*] [*] true\n"
                         "!<*> <*> <*> <*> <*> <*> <*> false\n", encoding="utf-8")
        argv = ["verify-translation", str(source), "--formulas", str(props)]
        assert main(["--max-states", "27", *argv]) == 0
        assert main(["--max-states", "26", *argv]) == 3
        assert "stepped-state" not in capsys.readouterr().err

    def test_each_state_and_subformula_is_evaluated_once(self, monkeypatch):
        # a formula DAG of 5 levels whose tree unfolds to 9^5 visits
        spec, init = parse_spec(worker_grid_text(2, 2))
        reads = []
        test = ValuationCodes.test
        monkeypatch.setattr(ValuationCodes, "test",
                            lambda self, *args: reads.append(args) or test(self, *args))
        every = frozenset(all_labels(spec))
        formula, subformulas = Check("x1", "v0"), 1
        for _ in range(5):
            formula = And(Box(every, Or(formula, Not(formula))), Diamond(every, formula))
            subformulas += 5
        assert holds(spec, GvState(init.root, init.valuation), formula)
        # a check is read once per (state, parent) pair at most; W(2,2) has 4 states
        assert len(reads) <= 4 * subformulas

    def test_cap_below_the_closure_answers_a_depth_one_formula(self, capsys):
        spec, init = parse_spec(open(TRAFFIC, encoding="utf-8").read())
        assert len(reachable_exprs(spec, init.root)) > 1
        assert main(["modelcheck", TRAFFIC, "--max-states", "1",
                     "--formula", "<drive> true && [brake] false"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_a_formula_past_the_cap_exits_3(self, capsys):
        assert main(["modelcheck", TRAFFIC, "--max-states", "2",
                     "--formula", "[*] [*] [*] false"]) == 3
        err = capsys.readouterr().err
        assert err == ("resource limit: stepped-state cap of 2 exceeded: the formula "
                       "needs more than 2 distinct states stepped\n")

    def test_cap_counts_distinct_states(self):
        spec, init = parse_spec(worker_grid_text(2, 2))
        state = GvState(init.root, init.valuation)
        # the four valuations of one expression, each stepped once
        formula = parse_formula("[*] [*] [*] [*] true", spec)
        assert holds(spec, state, formula, ExplorationConfig(max_states=4))
        with pytest.raises(ResourceLimitError):
            holds(spec, state, formula, ExplorationConfig(max_states=3))

    def test_valuation_cap_bounds_only_the_enumeration(self, capsys):
        # holds enumerates no valuation: one stepped state answers, while
        # the same cap refuses traffic's two valuations in a closure
        assert main(["modelcheck", TRAFFIC, "--max-states", "1",
                     "--formula", "<drive> true"]) == 0
        assert capsys.readouterr().out == "true\n"
        assert main(["bisim", TRAFFIC, "--mode", "stateless", "--max-states", "1",
                     "--left", "CAR", "--right", "CAR"]) == 3
        assert capsys.readouterr().err == (
            "resource limit: valuation space has 2 elements, exceeding the cap of 1\n")


def test_300_levels_in_two_frames_each():
    """A fresh interpreter, so the runner's frames do not count: the
    recursion limit leaves room for two frames per formula level."""
    levels = 300
    code = f"""
import sys
from gvpa.hml import And, Box, Diamond, Not, Or, SetVar, TRUE, all_labels, holds
from gvpa.parser import parse_spec
from gvpa.sos import GvState

spec, init = parse_spec(open({TRAFFIC!r}, encoding="utf-8").read())
labels = all_labels(spec)
formula = TRUE
for i in range({levels}):
    step = frozenset({{labels[i % len(labels)]}})
    formula = [lambda f: Diamond(step, f), lambda f: Box(step, f), Not,
               lambda f: SetVar("t", "red", f), lambda f: Or(Not(TRUE), f),
               lambda f: And(TRUE, f)][i % 6](formula)
state = GvState(init.root, init.valuation)
sys.setrecursionlimit(2 * {levels} + 60)
print(holds(spec, state, formula))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout in ("True\n", "False\n")


def test_300_level_formula_through_the_cli(tmp_path):
    text = "".join(("!", "<*> ", "set t := red . ", "[drive] ")[i % 4]
                   for i in range(300)) + "(t = red)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", "import sys\nfrom gvpa.cli import main\n"
         "sys.exit(main(sys.argv[1:]))", "--json", "modelcheck", TRAFFIC,
         "--formula", text],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode in (0, 1), done.stderr
