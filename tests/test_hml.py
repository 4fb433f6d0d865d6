import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genspecs import gen_pair, gen_parseq_spec, gen_spec
from oracles import (
    ReferenceGrid, enumerate_check_formulas, reference_eval_formula, states_of,
)

from gvpa.errors import SpecSyntaxError
from gvpa.hml import (
    And, Box, Check, Diamond, FALSE, Not, Or, SetVar, TRUE, all_labels,
    build_state_space, eval_formula, eval_modal_on_lts, formula_str, fragment,
    holds, parse_formula, set_all,
)
from gvpa.parser import parse_spec
from gvpa.sos import ExplorationConfig, GvState
from gvpa.syntax import Action, Assign, Deadlock, Name, Valuation
from gvpa.translate import run_pipeline, translate_formula


class TestParseFormula:
    def test_set_then_diamond(self, example3):
        spec, *_ = example3
        formula = parse_formula("set v := 1 . <a> true", spec)
        assert formula == SetVar("v", "1", Diamond(frozenset({Action("a")}), TRUE))
        assert fragment(formula) == "HML^set"

    def test_check(self, traffic):
        spec, _ = traffic
        formula = parse_formula("(t = green)", spec)
        assert formula == Check("t", "green")
        assert fragment(formula) == "HML^check"

    def test_empty_label_set_rejected(self, traffic):
        spec, _ = traffic
        with pytest.raises(SpecSyntaxError) as err:
            parse_formula("<> true", spec)
        assert "nonempty" in str(err.value)

    @pytest.mark.parametrize("text", ["<*> true", "[*] false"])
    def test_star_over_an_empty_alphabet_rejected(self, text):
        spec, _ = parse_spec("domain { a }\nacts { }\ninit delta\n")
        with pytest.raises(SpecSyntaxError) as err:
            parse_formula(text, spec)
        assert (err.value.line, err.value.col) == (1, 2)

    def test_fragments(self, example3):
        spec, *_ = example3
        assert fragment(parse_formula("<a> true", spec)) == "HML"
        assert fragment(parse_formula("(v = 0) && set v := 1 . true", spec)) \
            == "HML^check+set"

    def test_precedence_not_and_or(self, example3):
        spec, *_ = example3
        formula = parse_formula("!true && false || (v = 0)", spec)
        assert formula == Or(And(Not(TRUE), FALSE), Check("v", "0"))

    def test_assign_labels_and_star(self, example3):
        spec, *_ = example3
        formula = parse_formula("[assign(v, 1), a] false", spec)
        assert formula == Box(frozenset({Assign("v", "1"), Action("a")}), FALSE)
        star = parse_formula("<*> true", spec)
        assert star.labels == frozenset(
            {Action("a"), Assign("v", "0"), Assign("v", "1")})

    def test_round_trip(self, example3):
        spec, *_ = example3
        texts = ["set v := 1 . <a> true", "!(v = 0) && false",
                 "[a] ((v = 1) || <assign(v,0)> true)"]
        for text in texts:
            formula = parse_formula(text, spec)
            assert parse_formula(formula_str(formula), spec) == formula


_formula_labels = st.sampled_from(
    [frozenset({Action("a")}), frozenset({Assign("v", "0")}),
     frozenset({Action("a"), Assign("v", "1")})])


def _formula_st():
    leaves = st.sampled_from([TRUE, FALSE, Check("v", "0"), Check("v", "1")])
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(Not, children),
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Diamond, _formula_labels, children),
            st.builds(Box, _formula_labels, children),
            st.builds(SetVar, st.just("v"), st.sampled_from(["0", "1"]),
                      children),
        ),
        max_leaves=10,
    )


@given(_formula_st())
@settings(max_examples=200, deadline=None)
def test_formula_round_trip_property(formula):
    spec, _ = parse_spec(
        "domain { 0, 1 } vars { v } acts { a } init delta with { v = 0 }")
    assert parse_formula(formula_str(formula), spec) == formula


class TestStateSpace:
    def test_grid_size(self, example3):
        spec, p, _, _, _ = example3
        space = build_state_space(spec, [p])
        assert len(space.exprs) == 2
        assert len(space.valuations) == 2
        assert len(space.states) == 4

    def test_deadlock_grid(self, example3):
        spec, *_ = example3
        space = build_state_space(spec, [Deadlock()])
        assert len(space.states) == 2
        assert len(space.transitions) == 0
        assert [space.transitions.successors(i) for i in range(2)] == [[], []]

    def test_traffic_grid(self, traffic):
        spec, init = traffic
        space = build_state_space(spec, [init.root])
        assert len(space.states) == len(space.exprs) * 2


class TestEval:
    def test_true_is_everything(self, example3):
        spec, p, _, _, _ = example3
        space = build_state_space(spec, [p])
        assert eval_formula(space, TRUE) == frozenset(range(len(space.states)))

    def test_example3_distinguishing_formula(self, example3):
        spec, p, q, _, v0 = example3
        formula = parse_formula("set v := 1 . <a> true", spec)
        assert holds(spec, GvState(q, v0), formula)
        assert not holds(spec, GvState(p, v0), formula)

    def test_box_false_is_absence_of_labelled_steps(self, example3):
        spec, p, q, _, v0 = example3
        space = build_state_space(spec, [p, q])
        formula = parse_formula("[a] false", spec)
        denotation = eval_formula(space, formula)
        for i in denotation:
            assert all(label != Action("a")
                       for label, _ in space.transitions.successors(i))
        assert space.index_of(GvState(q, v0)) not in denotation

    def test_satisfies_traffic_examples(self, traffic):
        spec, init = traffic
        state = GvState(init.root, init.valuation)
        assert holds(spec, state, parse_formula("<drive> true", spec))
        assert not holds(spec, state, parse_formula("(t = red)", spec))
        assert holds(spec, state, parse_formula("[assign(t, red)] (t = red)", spec))

    def test_state_outside_grid(self, traffic):
        spec, init = traffic
        space = build_state_space(spec, [Deadlock()])
        with pytest.raises(KeyError):
            space.index_of(GvState(init.root, init.valuation))


class TestSetAll:
    def test_single_variable(self):
        v = Valuation((("t", "red"),))
        assert set_all(v, TRUE) == SetVar("t", "red", TRUE)

    def test_two_variables_declaration_order(self):
        v = Valuation((("u", "0"), ("v", "1")))
        assert set_all(v, FALSE) == SetVar("u", "0", SetVar("v", "1", FALSE))

    def test_order_of_sets_is_semantically_irrelevant(self):
        spec, _ = parse_spec(
            "domain { 0, 1 } vars { u, v } acts { a } "
            "proc X = (u = 0) -> a.X init X with { u = 0, v = 0 }")
        space = build_state_space(spec, [Name("X")])
        sub = parse_formula("<a> true", spec)
        one = SetVar("u", "1", SetVar("v", "0", sub))
        other = SetVar("v", "0", SetVar("u", "1", sub))
        assert eval_formula(space, one) == eval_formula(space, other)


class TestSemanticLaws:
    @pytest.fixture()
    def space(self, traffic):
        spec, init = traffic
        return build_state_space(spec, [init.root])

    def _random_formula(self, rng, spec, depth):
        roll = rng.random()
        if depth == 0 or roll < 0.2:
            return rng.choice(
                [TRUE, FALSE] + [Check(v, d) for v in spec.variables
                                 for d in spec.domain.values])
        if roll < 0.35:
            return Not(self._random_formula(rng, spec, depth - 1))
        if roll < 0.5:
            return And(self._random_formula(rng, spec, depth - 1),
                       self._random_formula(rng, spec, depth - 1))
        if roll < 0.6:
            return Or(self._random_formula(rng, spec, depth - 1),
                      self._random_formula(rng, spec, depth - 1))
        labels = [Action(a) for a in spec.actions]
        labels += [Assign(v, d) for v in spec.variables
                   for d in spec.domain.values]
        label = frozenset({rng.choice(labels)})
        if roll < 0.75:
            return Diamond(label, self._random_formula(rng, spec, depth - 1))
        if roll < 0.9:
            return Box(label, self._random_formula(rng, spec, depth - 1))
        return SetVar(rng.choice(spec.variables),
                      rng.choice(spec.domain.values),
                      self._random_formula(rng, spec, depth - 1))

    def test_boolean_and_modal_dualities(self, traffic, space):
        spec, _ = traffic
        rng = random.Random(7)
        everything = frozenset(range(len(space.states)))
        for _ in range(150):
            phi = self._random_formula(rng, spec, 3)
            psi = self._random_formula(rng, spec, 2)
            assert eval_formula(space, Not(phi)) == everything - eval_formula(space, phi)
            assert eval_formula(space, And(phi, psi)) == (
                eval_formula(space, phi) & eval_formula(space, psi))
            labels = frozenset({Action(rng.choice(spec.actions))})
            assert eval_formula(space, Diamond(labels, phi)) == eval_formula(
                space, Not(Box(labels, Not(phi))))

    def test_set_overwrite_and_check_laws(self, traffic, space):
        spec, _ = traffic
        rng = random.Random(8)
        for _ in range(60):
            phi = self._random_formula(rng, spec, 2)
            v = rng.choice(spec.variables)
            e1, e2 = (rng.choice(spec.domain.values) for _ in range(2))
            assert eval_formula(space, SetVar(v, e1, SetVar(v, e2, phi))) == \
                eval_formula(space, SetVar(v, e2, phi))
            assert eval_formula(space, SetVar(v, e1, Check(v, e1))) == \
                frozenset(range(len(space.states)))

    def test_idempotent_set(self, traffic, space):
        spec, _ = traffic
        rng = random.Random(9)
        for _ in range(40):
            phi = self._random_formula(rng, spec, 2)
            for i, state in enumerate(space.states):
                v = rng.choice(spec.variables)
                e = state.valuation.value_of(v)
                assert (i in eval_formula(space, SetVar(v, e, phi))) == (
                    i in eval_formula(space, phi))


class TestReferenceEvaluatorAgreement:
    """The evaluator against the successor-scan reference in oracles.py."""

    def test_grid_with_check_and_set(self):
        rng = random.Random(4242)
        for _ in range(12):
            spec = gen_spec(rng)
            p, q = gen_pair(rng, spec)
            space = build_state_space(spec, [p, q], ExplorationConfig(max_states=2000))
            grid = ReferenceGrid(spec, [p, q])
            labels = all_labels(spec)
            formulas = enumerate_check_formulas(spec, labels, max_depth=2, cap=400)
            sets = [SetVar(v, d, f) for f in formulas[::7]
                    for v in spec.variables for d in spec.domain.values]
            formulas += sets
            formulas += [Box(frozenset({label}), f) for f in sets[::5] for label in labels]
            reference_memo: dict = {}
            for formula in formulas:
                assert states_of(space, eval_formula(space, formula)) == states_of(
                    grid, reference_eval_formula(grid, formula, reference_memo)), \
                    formula_str(formula)

    def test_translated_lts(self):
        rng = random.Random(4343)
        for _ in range(6):
            spec, root, valuation = gen_parseq_spec(rng, state_cap=30)
            pipe = run_pipeline(spec, root, valuation, ExplorationConfig(max_states=3000))
            formulas = enumerate_check_formulas(spec, all_labels(spec), max_depth=2,
                                                cap=400)
            reference_memo: dict = {}
            for formula in formulas:
                translated = translate_formula(formula)
                assert eval_modal_on_lts(pipe.m_lts, translated) == \
                    reference_eval_formula(pipe.m_lts, translated, reference_memo), \
                    formula_str(formula)
