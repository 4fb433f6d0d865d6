import pytest

from gvpa.errors import SpecSyntaxError, SpecValidationError
from gvpa.parser import parse_expr, parse_spec, render_spec
from gvpa.syntax import (
    Action, Assign, Choice, Cond, Deadlock, Encap, InitSpec, Name, Parallel, Prefix,
)


class TestTrafficSpec:
    def test_structure(self, traffic):
        spec, init = traffic
        assert spec.domain.values == ("green", "red")
        assert spec.variables == ("t",)
        assert spec.actions == ("drive", "brake")
        assert spec.process_names == ("CAR", "TLC")
        car = spec.equation("CAR")
        assert isinstance(car, Choice)
        assert car.left == Cond("t", "green", Prefix(Action("drive"), Deadlock()))
        assert init.root == Parallel(Name("CAR"), Name("TLC"))
        assert init.valuation.value_of("t") == "green"

    def test_round_trip(self, traffic):
        spec, init = traffic
        again_spec, again_init = parse_spec(render_spec(spec, init))
        assert again_spec == spec
        assert again_init == init


class TestMinimalSpecs:
    def test_one_equation_guarded(self):
        spec, init = parse_spec(
            "domain { d } acts { a } proc X = a.X init X with { }")
        assert spec.equation("X") == Prefix(Action("a"), Name("X"))
        assert spec.comm.is_empty()

    def test_handshake_violation_rejected(self):
        text = ("domain { d } acts { a, b, c, d2, e }\n"
                "comm { a|b -> c; c|d2 -> e }\n"
                "init delta with { }")
        with pytest.raises(SpecValidationError) as err:
            parse_spec(text)
        assert "handshake" in str(err.value)

    def test_init_encap_scopes_whole_expression(self):
        spec, init = parse_spec(
            "domain { d } acts { a } proc X = a.X "
            "init encap({a}) X || X with { }")
        assert init.root == Encap(frozenset({"a"}),
                                  Parallel(Name("X"), Name("X")))

    @pytest.mark.parametrize("root", [
        Parallel(Encap(frozenset({"a"}), Name("X")), Name("X")),
        Choice(Encap(frozenset({"a"}), Name("X")), Deadlock()),
        Encap(frozenset({"a"}), Parallel(Name("X"), Name("X"))),
        Encap(frozenset({"a"}), Encap(frozenset({"a"}), Name("X"))),
    ])
    def test_render_keeps_the_scope_of_an_init_encap(self, root):
        spec, init = parse_spec("domain { d } acts { a } proc X = a.X init X with { }")
        text = render_spec(spec, InitSpec(root, init.valuation))
        assert parse_spec(text)[1].root == root

    def test_missing_init_valuation(self):
        with pytest.raises(SpecValidationError):
            parse_spec("domain { d } vars { x } acts { a } init delta with { }")


class TestSyntaxErrors:
    def test_position_and_expectation(self):
        with pytest.raises(SpecSyntaxError) as err:
            parse_spec("domain { d } acts { a } proc X a.X init X with { }")
        assert err.value.line == 1
        assert err.value.col == 32
        assert "'='" in str(err.value)

    def test_unknown_action_positioned(self):
        with pytest.raises(SpecSyntaxError) as err:
            parse_spec("domain { d } acts { a }\nproc X = zap.X\ninit X with { }")
        assert err.value.line == 2
        assert "zap" in str(err.value)

    def test_unknown_process_name(self):
        with pytest.raises(SpecSyntaxError) as err:
            parse_spec("domain { d } acts { a } init NOPE with { }")
        assert "NOPE" in str(err.value)

    def test_duplicate_equation(self):
        with pytest.raises(SpecValidationError) as err:
            parse_spec("domain { d } acts { a } proc X = a.delta "
                       "proc X = a.delta init X with { }")
        assert "duplicate equation" in str(err.value)

    def test_reserved_word_as_name(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("domain { d } acts { init } init delta with { }")

    def test_unguarded_spec_rejected(self):
        with pytest.raises(SpecValidationError) as err:
            parse_spec("domain { d } acts { a } proc A = a.delta || A "
                       "init A with { }")
        assert "unguarded" in str(err.value)

    def test_cond_without_arrow(self):
        spec, _ = parse_spec(
            "domain { 0, 1 } vars { v } acts { a } init delta with { v = 0 }")
        with pytest.raises(SpecSyntaxError):
            parse_expr("(v = 0) a.delta", spec)


class TestPrecedence:
    @pytest.fixture()
    def spec(self):
        spec, _ = parse_spec(
            "domain { 0, 1 } vars { v } acts { a, b } "
            "proc X = a.X init X with { v = 0 }")
        return spec

    def test_parallel_binds_tighter_than_choice(self, spec):
        expr = parse_expr("a.delta + b.delta || X", spec)
        assert expr == Choice(
            Prefix(Action("a"), Deadlock()),
            Parallel(Prefix(Action("b"), Deadlock()), Name("X")))

    def test_prefix_binds_tighter_than_parallel(self, spec):
        expr = parse_expr("a.b.delta || X", spec)
        assert expr == Parallel(
            Prefix(Action("a"), Prefix(Action("b"), Deadlock())), Name("X"))

    def test_cond_right_associates_over_prefix(self, spec):
        expr = parse_expr("(v = 0) -> a.delta + b.delta", spec)
        assert expr == Choice(
            Cond("v", "0", Prefix(Action("a"), Deadlock())),
            Prefix(Action("b"), Deadlock()))

    def test_nested_cond(self, spec):
        expr = parse_expr("(v = 0) -> (v = 1) -> a.delta", spec)
        assert expr == Cond("v", "0", Cond("v", "1",
                                           Prefix(Action("a"), Deadlock())))

    def test_assign_label(self, spec):
        expr = parse_expr("assign(v, 1).delta", spec)
        assert expr == Prefix(Assign("v", "1"), Deadlock())

    def test_parenthesised_choice_under_prefix(self, spec):
        expr = parse_expr("a.(b.delta + X)", spec)
        assert expr == Prefix(
            Action("a"),
            Choice(Prefix(Action("b"), Deadlock()), Name("X")))


_SITES_SPEC = """domain {{ v0, v1 }}
vars {{ x }}
acts {{ a }}
proc X = {proc}
init X with {{ {init} }}
"""


@pytest.mark.parametrize("site, text, message", [
    ("cond", "(BAD = v0) -> a.X", "4:11: unknown variable BAD"),
    ("cond", "(x = BAD) -> a.X", "4:15: unknown value BAD"),
    ("assign", "assign(BAD, v0).X", "4:17: unknown variable BAD"),
    ("assign", "assign(x, BAD).X", "4:20: unknown value BAD"),
    ("with", "BAD = v0", "5:15: unknown variable BAD"),
    ("with", "x = BAD", "5:19: unknown value BAD"),
    ("check", "(BAD = v0)", "1:2: unknown variable BAD"),
    ("check", "(x = BAD)", "1:6: unknown value BAD"),
    ("set", "set BAD := v0 . true", "1:5: unknown variable BAD"),
    ("set", "set x := BAD . true", "1:10: unknown value BAD"),
    ("assign label", "<assign(BAD, v0)> true", "1:9: unknown variable BAD"),
    ("assign label", "<assign(x, BAD)> true", "1:12: unknown value BAD"),
])
def test_variable_value_sites_report_unknown_names(site, text, message):
    """Every `variable <sep> value` production names the unknown variable or
    value at its own position, in specs and in formulas alike."""
    from gvpa.hml import parse_formula

    with pytest.raises(SpecSyntaxError) as err:
        if site in ("cond", "assign"):
            parse_spec(_SITES_SPEC.format(proc=text, init="x = v0"))
        elif site == "with":
            parse_spec(_SITES_SPEC.format(proc="a.X", init=text))
        else:
            spec, _ = parse_spec(_SITES_SPEC.format(proc="a.X", init="x = v0"))
            parse_formula(text, spec)
    assert str(err.value) == message
