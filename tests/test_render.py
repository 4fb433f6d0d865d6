"""The precedence printer `syntax.render` against the isinstance-chain
printers it replaced (`tests/oracles.py`), byte for byte, on seeded
corpora of all four term languages."""
import random

import pytest

from genspecs import gen_pair, gen_parseq_spec, gen_spec
from oracles import (
    enumerate_check_formulas, reference_emit_mcrl2_files, reference_expr_str,
    reference_formula_str, reference_names,
)

from gvpa.errors import FragmentError, SpecValidationError
from gvpa.hml import (
    FORMULA_RULES, And, Box, Check, Diamond, FALSE, Not, Or, SetVar, TRUE,
    all_labels, formula_str,
)
from gvpa.parser import parse_spec
from gvpa.sos import reachable_exprs
from gvpa.syntax import Action, Encap, Name, Parallel, Prefix, expr_str, render
from gvpa.translate import emit_mcrl2_files, translate_formula, translate_init


def _outcome(fn, *args):
    """The value of a call, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as err:
        return type(err), str(err)


class TestRender:
    def test_unknown_node_class_is_a_type_error(self):
        with pytest.raises(TypeError, match="no rule to render"):
            render(Name("X"), FORMULA_RULES)
        with pytest.raises(TypeError, match="no rule to render"):
            expr_str(TRUE)
        with pytest.raises(TypeError, match="no rule to render"):
            formula_str(Prefix(Action("a"), Name("X")))
        with pytest.raises(TypeError, match="no rule to render"):
            render("a", {})


def _expression_corpus(seed: int, draws: int):
    rng = random.Random(seed)
    for _ in range(draws):
        spec = gen_spec(rng)
        p, q = gen_pair(rng, spec)  # a pair of at most 50 reachable expressions
        yield from (body for _, body in spec.equations)
        yield from reachable_exprs(spec, [p, q])


def _formula_corpus(seed: int, draws: int):
    rng = random.Random(seed)
    for _ in range(draws):
        spec = gen_spec(rng)
        labels = all_labels(spec)
        formulas = enumerate_check_formulas(spec, labels[:3], max_depth=3, cap=2000)
        both = frozenset(labels[:2])
        for f in formulas[::7]:
            g = rng.choice(formulas)
            var, value = spec.variables[0], spec.domain.values[-1]
            formulas += [Or(g, And(f, g)), And(Or(f, g), Not(Or(g, f))),
                         Box(both, Or(f, FALSE)), Diamond(both, And(g, FALSE)),
                         SetVar(var, value, Or(f, Check(var, value)))]
        yield spec, formulas


def _right_nested(expr):
    """The same components with the top parallel nested to the right, a
    shape the generator does not draw."""
    if isinstance(expr, Encap):
        return Encap(expr.blocked, _right_nested(expr.body))
    if isinstance(expr, Parallel) and isinstance(expr.left, Parallel):
        return _right_nested(Parallel(expr.left.left,
                                      Parallel(expr.left.right, expr.right)))
    return expr


class TestAgainstTheChains:
    def test_process_expressions(self):
        count = 0
        for expr in _expression_corpus(seed=9001, draws=600):
            assert expr_str(expr) == reference_expr_str(expr)
            count += 1
        assert count > 3000

    def test_formulas(self):
        count = 0
        for _, formulas in _formula_corpus(seed=9002, draws=12):
            for formula in formulas:
                assert formula_str(formula) == reference_formula_str(formula)
                count += 1
        assert count > 30000

    @pytest.mark.parametrize("n_vars", [1, 2])
    def test_emitted_mcrl2_files(self, n_vars):
        rng = random.Random(9003 + n_vars)
        for _ in range(200):
            spec, root, valuation = gen_parseq_spec(rng, n_vars=n_vars)
            labels = all_labels(spec)
            formulas = enumerate_check_formulas(spec, labels, max_depth=2, cap=300)
            picked = rng.sample(formulas, 12)
            picked += [Or(f, And(g, f)) for f, g in zip(picked[:4], picked[4:8])]
            theta = [translate_formula(f) for f in picked]
            for shape in {root, _right_nested(root)}:
                out = translate_init(spec, shape, valuation)
                files = emit_mcrl2_files(out, theta, base="m")
                assert files == reference_emit_mcrl2_files(out, theta, base="m")

    @pytest.mark.parametrize("text", [
        # a condition directly under a condition: a conjunction in checkP
        "domain { a, b } vars { x, y } acts { p } proc P = (x = a) -> (y = b) -> p.P "
        "init P || (y = a) -> (x = b) -> (y = a) -> assign(x, a).delta "
        "with { x = a, y = b }",
        # a self-communication entry renders as a|a
        "domain { 0, 1 } vars { v } acts { a, c } comm { a|a -> c } "
        "init encap({a}) a.delta || (v = 1) -> a.delta with { v = 0 }",
        # values, an action and a variable named like the model's binders
        # and machinery
        "domain { d, new } vars { x } acts { d1, go } "
        "proc P = d1.assign(x, new).P + (x = d) -> go.P init P with { x = d }",
        "domain { check, new } vars { value } acts { go } "
        "proc P = go.assign(value, new).P + (value = check) -> go.P "
        "init P with { value = check }",
    ])
    def test_shapes_the_generator_does_not_draw(self, text):
        spec, init = parse_spec(text)
        out = translate_init(spec, init.root, init.valuation)
        files = emit_mcrl2_files(out, base="m")
        assert files == reference_emit_mcrl2_files(out, base="m")

    @pytest.mark.parametrize("text", [
        "domain { sort, b } vars { sort } acts { a } "
        "init (sort = b) -> a.delta with { sort = sort }",
        "domain { x, y } vars { x } acts { a } "
        "init (x = y) -> a.delta with { x = x }",
    ])
    def test_naming_errors(self, text):
        """A name the model cannot render is refused before anything is
        translated, with the reference name table's message."""
        spec, init = parse_spec(text)
        got = _outcome(translate_init, spec, init.root, init.valuation)
        assert got[0] is SpecValidationError
        assert got == _outcome(reference_names, spec)

    @pytest.mark.parametrize("formula", [
        Check("t", "green"), Not(SetVar("t", "red", TRUE)),
        Or(TRUE, Diamond(frozenset({"drive"}), Check("t", "red"))),
    ])
    def test_source_only_formulas_are_fragment_errors(self, traffic, formula):
        spec, init = traffic
        out = translate_init(spec, init.root, init.valuation)
        got = _outcome(emit_mcrl2_files, out, [formula])
        assert got[0] is FragmentError
        assert got == _outcome(reference_emit_mcrl2_files, out, [formula])
