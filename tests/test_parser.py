import random

import pytest

from conftest import DATA, TRAFFIC_TEXT
from genspecs import (
    gen_pair, gen_parseq_spec, gen_spec, render_spec, ring_text, worker_grid_text,
)
from gvpa.errors import SpecSyntaxError, SpecValidationError
from gvpa.hml import parse_formula
from gvpa.parser import parse_expr, parse_spec, tokenize
from gvpa.syntax import (
    Action, Assign, Choice, Cond, Deadlock, Encap, InitSpec, Name, Parallel, Prefix,
    expr_str,
)
from oracles import reference_tokenize

_TWO_VARS = "domain { a, b } vars { x, y } acts { c } init delta "


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

    def test_self_handshake_violation_names_the_pair(self):
        with pytest.raises(SpecValidationError) as err:
            parse_spec("domain { v }\nacts { a }\ncomm { a|a -> a }\ninit delta")
        assert err.value.violations == [
            "comm entry a|a -> a: a is itself a communication result "
            "(handshake violation)"]

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
        with pytest.raises(SpecSyntaxError) as err:
            parse_spec("domain { d } vars { x } acts { a } init delta with { }")
        assert str(err.value) == "1:54: init valuation misses variable x"


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
        with pytest.raises(SpecSyntaxError) as err:
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

    @pytest.mark.parametrize("text, message", [
        ("domain { a, b, a } acts { c } init delta", "1:16: domain value a is declared twice"),
        ("domain { a } vars { x, y, x, y } acts { c } init delta with { x = a, y = a }",
         "1:27: variable x is declared twice"),
        ("domain { a } acts { c, d, c } init delta", "1:27: action c is declared twice"),
    ])
    def test_a_repeated_declaration_is_named(self, text, message):
        with pytest.raises(SpecSyntaxError) as err:
            parse_spec(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, message, line, col", [
        ("domain { a, a } acts { c } init delta",
         "domain value a is declared twice", 1, 13),
        ("domain { a }\nvars { x,\n  x }\nacts { c } init delta with { x = a }",
         "variable x is declared twice", 3, 3),
        ("domain { a } acts { c, c } init delta", "action c is declared twice", 1, 24),
        ("domain { a } acts { c }\nproc P = c.P\nproc P = c.delta\ninit P",
         "duplicate equation for P", 3, 6),
        ("domain { a } acts { c, d, e }\ncomm { c|d -> e; d|c -> e }\ninit delta",
         "duplicate comm entry for c|d", 2, 18),
        ("domain { v }\nacts { a, b, c }\ncomm { a|a -> b; a|a -> c }\ninit delta",
         "duplicate comm entry for a|a", 3, 18),
    ], ids=["domain", "vars", "acts", "proc", "comm", "self-comm"])
    def test_a_repeated_declaration_is_reported_where_it_repeats(
            self, text, message, line, col):
        with pytest.raises(SpecSyntaxError) as err:
            parse_spec(text)
        assert (str(err.value), err.value.line, err.value.col) == (
            f"{line}:{col}: {message}", line, col)

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
    with pytest.raises(SpecSyntaxError) as err:
        if site in ("cond", "assign"):
            parse_spec(_SITES_SPEC.format(proc=text, init="x = v0"))
        elif site == "with":
            parse_spec(_SITES_SPEC.format(proc="a.X", init=text))
        else:
            spec, _ = parse_spec(_SITES_SPEC.format(proc="a.X", init="x = v0"))
            parse_formula(text, spec)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# The scanner against its character-loop reference


def _scan(tokenizer, text):
    """The tokens of ``text``, or the message and position of its error."""
    try:
        return tokenizer(text)
    except SpecSyntaxError as err:
        return str(err), err.line, err.col, err.expected


def _genspecs_texts() -> list[str]:
    rng = random.Random(1701)
    texts = [worker_grid_text(n, k) for n, k in ((1, 2), (3, 3), (6, 4))]
    texts += [ring_text(n, stages) for n, stages in ((2, 2), (3, 3), (4, 8))]
    for _ in range(20):
        spec = gen_spec(rng)
        texts.append(render_spec(spec))
        texts += [expr_str(e) for e in gen_pair(rng, spec)]
        spec, root, valuation = gen_parseq_spec(rng)
        texts.append(render_spec(spec, InitSpec(root, valuation)))
    return texts


# every punctuation character, the lone first characters of the
# two-character operators, and whitespace, names and digits beyond ASCII
_PIECES = ["//", "\r", "\t", "\x0b", "\n", " ", "é", "²", "٣", "_", "/", "-", ":",
           "&", "a", "Zq", "07", "x_1", "#", *"{}()[]<>,;.+=|!*"]


def _random_texts(count: int) -> list[str]:
    rng = random.Random(4242)
    return ["".join(rng.choices(_PIECES, k=rng.randrange(25))) for _ in range(count)]


class TestScanner:
    def test_data_files_match_the_reference(self):
        paths = sorted(DATA.iterdir())
        assert paths
        for path in paths:
            text = path.read_text(encoding="utf-8")
            assert _scan(tokenize, text) == _scan(reference_tokenize, text), path.name

    def test_genspecs_corpora_match_the_reference(self):
        for text in _genspecs_texts():
            assert _scan(tokenize, text) == _scan(reference_tokenize, text), text

    def test_random_strings_match_the_reference(self):
        texts = _random_texts(3000)
        errors = 0
        for text in texts:
            expected = _scan(reference_tokenize, text)
            assert _scan(tokenize, text) == expected, repr(text)
            errors += isinstance(expected, tuple)
        # both outcomes are well represented
        assert 300 < errors < 2700

    def test_crlf_line_ends_are_whitespace(self):
        crlf = TRAFFIC_TEXT.replace("\n", "\r\n")
        def shape(text):
            return [(t.kind, t.text, t.line) for t in tokenize(text)]

        assert shape(crlf) == shape(TRAFFIC_TEXT)
        assert parse_spec(crlf) == parse_spec(TRAFFIC_TEXT)

    def test_line_ends(self):
        # one end token per line, where the line's text or a comment ends;
        # without them the tokens are those of the whole text
        text = "a b  \n\n  // only a comment\nc // trailing\nd"
        tokens = tokenize(text, lines=True)
        ends = [(t.line, t.col) for t in tokens if t.kind == "EOF"]
        assert ends == [(1, 6), (2, 1), (3, 3), (4, 3), (5, 2)]
        assert [t for t in tokens if t.kind != "EOF"] == tokenize(text)[:-1]
        for text in _genspecs_texts():
            tokens = tokenize(text, lines=True)
            assert len([t for t in tokens if t.kind == "EOF"]) == text.count("\n") + 1
            assert [t for t in tokens if t.kind != "EOF"] + [tokens[-1]] == tokenize(text)


_HEAD = "domain { a }\nvars { v }\nacts { x, y }\n"
_WITH = " init P with { v = a }"


# (where, text, message, expected): "spec" texts go to parse_spec, "left"
# ones to parse_expr and "formula" ones to parse_formula against the
# traffic spec. The positions are the ones the character-loop scanner and
# the per-grammar productions gave; a missing punctuation token is spelled
# as written, and a braced list names its separator and its closer.
@pytest.mark.parametrize("where, text, message, expected", [
    # a token other than the expected one, and the end of input
    ("spec", "domain { a }\nacts { x }\nproc P = x.P\ninit // trailing",
     "4:6: unexpected end of input (expected process expression)", ("process expression",)),
    ("spec", _HEAD + "proc P = x.P",
     "4:13: unexpected end of input (expected 'init')", ("'init'",)),
    ("spec", "domain { a } proc P = x.P init P",
     "1:14: found 'proc' (expected 'acts')", ("'acts'",)),
    ("spec", _HEAD + "proc P x.P" + _WITH, "4:8: found 'x' (expected '=')", ("'='",)),
    ("spec", _HEAD + "proc P = x.)" + _WITH,
     "4:12: found ')' (expected process expression)", ("process expression",)),
    ("spec", _HEAD + "proc P = x.P" + _WITH + " P",
     "4:36: found 'P' (expected end of file)", ("end of file",)),
    ("left", "drive.delta delta",
     "1:13: found 'delta' (expected end of expression)", ("end of expression",)),
    ("left", "drive.",
     "1:7: unexpected end of input (expected process expression)", ("process expression",)),
    ("formula", "&& true", "1:1: found '&&' (expected formula)", ("formula",)),
    ("formula", "true true", "1:6: found 'true' (expected end of formula)",
     ("end of formula",)),
    ("formula", "set t := red true", "1:14: found 'true' (expected '.')", ("'.'",)),
    ("formula", "true || // no formula follows",
     "1:9: unexpected end of input (expected formula)", ("formula",)),
    # the arguments of assign
    ("spec", _HEAD + "proc P = assign(v a).P" + _WITH,
     "4:19: found 'a' (expected ',')", ("','",)),
    ("spec", _HEAD + "proc P = assign(v, a.P" + _WITH,
     "4:21: found '.' (expected ')')", ("')'",)),
    ("left", "assign(", "1:8: unexpected end of input (expected variable name)",
     ("variable name",)),
    ("left", "assign(t, red)", "1:15: unexpected end of input (expected '.')", ("'.'",)),
    ("formula", "<assign(t red)> true", "1:11: found 'red' (expected ',')", ("','",)),
    ("formula", "[assign(t, red] true", "1:15: found ']' (expected ')')", ("')'",)),
    ("formula", "<assign> true", "1:8: found '>' (expected '(')", ("'('",)),
    # braced lists
    ("spec", "domain a acts { x } init delta", "1:8: found 'a' (expected '{')",
     ("'{'",)),
    ("spec", "domain { a, } acts { x } init delta",
     "1:13: found '}' (expected domain value)", ("domain value",)),
    ("spec", "domain { a b } acts { x } init delta",
     "1:12: found 'b' (expected ',' or '}')", ("',' or '}'",)),
    ("spec", "domain { a } acts { x, init } init delta",
     "1:24: 'init' is a reserved word and cannot be used as a action name", ()),
    ("spec", "domain { a } acts { x\ninit delta",
     "2:1: found 'init' (expected ',' or '}')", ("',' or '}'",)),
    ("spec", _HEAD + "proc P = x.P init encap({x, }) P with { v = a }",
     "4:29: found '}' (expected action name)", ("action name",)),
    ("spec", _HEAD + "proc P = x.P init encap({z}) P with { v = a }",
     "4:26: encap blocks unknown action z", ()),
    ("spec", _HEAD + "proc P = encap({x} P" + _WITH,
     "4:20: found 'P' (expected ')')", ("')'",)),
    ("left", "encap(drive) CAR", "1:7: found 'drive' (expected '{')", ("'{'",)),
    ("left", "encap({drive, brake CAR", "1:21: found 'CAR' (expected ',' or '}')",
     ("',' or '}'",)),
    # operator chains
    ("spec", _HEAD + "proc P = x.P +\ninit P with { v = a }",
     "5:1: found reserved word 'init' (expected process expression)",
     ("process expression",)),
    ("spec", _HEAD + "proc P = x.P || )" + _WITH,
     "4:17: found ')' (expected process expression)", ("process expression",)),
    ("left", "CAR ||", "1:7: unexpected end of input (expected process expression)",
     ("process expression",)),
    ("left", "CAR + TLC || (CAR", "1:18: unexpected end of input (expected ')')",
     ("')'",)),
    ("left", "CAR + + TLC", "1:7: found '+' (expected process expression)",
     ("process expression",)),
    ("formula", "<drive> true &&", "1:16: unexpected end of input (expected formula)",
     ("formula",)),
    ("formula", "true || false && )", "1:18: found ')' (expected formula)", ("formula",)),
    ("formula", "(t = red", "1:9: unexpected end of input (expected ')')", ("')'",)),
    ("formula", "<drive,> true", "1:8: found '>' (expected transition label)",
     ("transition label",)),
    ("formula", "<> true",
     "1:2: modal label set must be nonempty (expected transition label)",
     ("transition label",)),
    # characters no token starts with
    ("spec", _HEAD + "proc P = x.P - y.P" + _WITH, "4:14: unexpected character '-'", ()),
    ("left", "CAR & TLC", "1:5: unexpected character '&'", ()),
    # one error names the variables a valuation misses, at its end
    ("spec", _TWO_VARS + "with { y = b }", "1:66: init valuation misses variable x", ()),
    ("spec", _TWO_VARS + "// no with block", "1:53: init valuation misses variables x, y",
     ()),
])
def test_error_positions(traffic, where, text, message, expected):
    """The errors of the productions that specs, expressions and formulas
    share, with their positions, in each grammar that uses them."""
    spec, _ = traffic
    with pytest.raises(SpecSyntaxError) as err:
        if where == "spec":
            parse_spec(text)
        elif where == "left":
            parse_expr(text, spec)
        else:
            parse_formula(text, spec)
    assert (str(err.value), err.value.expected) == (message, expected)
