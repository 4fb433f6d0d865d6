import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvpa.errors import ResourceLimitError, SpecValidationError
from gvpa.parser import parse_expr
from gvpa.syntax import (
    Action, Assign, Choice, CommFunction, Cond, Deadlock, DomainDef, Encap,
    Name, Parallel, Prefix, RecursiveSpec, Valuation, enumerate_valuations,
    expr_str, label_str, validate_comm, validate_guardedness, validate_spec,
)
from oracles import updated


def make_spec(equations=(), variables=("v",), values=("0", "1"),
              actions=("a", "b"), comm=()):
    return RecursiveSpec(
        domain=DomainDef(values), variables=variables, actions=actions,
        equations=equations, comm=CommFunction(comm))


class TestDomain:
    def test_rejects_empty(self):
        with pytest.raises(SpecValidationError):
            DomainDef(())

    def test_rejects_duplicates(self):
        with pytest.raises(SpecValidationError):
            DomainDef(("x", "x"))

    def test_order_is_declaration_order(self):
        assert DomainDef(("red", "green")).index("green") == 1


class TestValuation:
    def test_update_preserves_other_variables(self):
        v = Valuation((("u", "0"), ("v", "1")))
        after = updated(v, "u", "1")
        assert after.value_of("u") == "1"
        assert after.value_of("v") == "1"
        assert v.value_of("u") == "0"

    def test_str(self):
        assert str(Valuation((("t", "green"),))) == "t=green"


class TestCommFunction:
    def test_lookup_is_symmetric(self):
        comm = CommFunction(((frozenset(("a", "b")), "c"),))
        assert comm.lookup("a", "b") == "c"
        assert comm.lookup("b", "a") == "c"
        assert comm.lookup("a", "c") is None

    def test_self_communication_key(self):
        comm = CommFunction(((frozenset(("a",)), "c"),))
        assert comm.lookup("a", "a") == "c"

    def test_duplicate_entry_rejected(self):
        with pytest.raises(SpecValidationError):
            CommFunction(((frozenset(("a", "b")), "c"),
                          (frozenset(("b", "a")), "d")))

    def test_duplicate_self_entry_names_the_pair(self):
        with pytest.raises(SpecValidationError) as err:
            CommFunction(((frozenset(("a",)), "b"), (frozenset(("a",)), "c")))
        assert err.value.violations == ["duplicate comm entry for a|a"]

    def test_validate_ok(self):
        comm = CommFunction(((frozenset(("a", "b")), "c"),))
        assert validate_comm(comm, {"a", "b", "c"}) == []

    def test_handshake_violation(self):
        comm = CommFunction(((frozenset(("a", "b")), "c"),
                             (frozenset(("c", "d")), "e")))
        problems = validate_comm(comm, {"a", "b", "c", "d", "e"})
        assert any("handshake" in p for p in problems)

    def test_undeclared_name(self):
        comm = CommFunction(((frozenset(("a", "x")), "c"),))
        problems = validate_comm(comm, {"a", "c"})
        assert any("x is not a declared action" in p for p in problems)


class TestGuardedness:
    def test_traffic_ok(self, traffic):
        spec, _ = traffic
        assert validate_guardedness(spec) == []

    def test_unguarded_parallel_recursion(self):
        # A = a.delta || A: the paper's non-image-finite process
        spec = make_spec(equations=(
            ("A", Parallel(Prefix(Action("a"), Deadlock()), Name("A"))),))
        problems = validate_guardedness(spec)
        assert len(problems) == 1
        assert "A" in problems[0]

    def test_cond_does_not_guard(self):
        spec = make_spec(equations=(("X", Cond("v", "0", Name("X"))),))
        assert validate_guardedness(spec)

    def test_guardedness_stable_under_one_unfolding(self, traffic):
        spec, _ = traffic

        def unfold(expr):
            if isinstance(expr, Name):
                return spec.equation(expr.name)
            if isinstance(expr, Prefix):
                return Prefix(expr.label, unfold(expr.body))
            if isinstance(expr, Cond):
                return Cond(expr.var, expr.value, unfold(expr.body))
            if isinstance(expr, Encap):
                return Encap(expr.blocked, unfold(expr.body))
            if isinstance(expr, Choice):
                return Choice(unfold(expr.left), unfold(expr.right))
            if isinstance(expr, Parallel):
                return Parallel(unfold(expr.left), unfold(expr.right))
            return expr

        unfolded = tuple((n, unfold(b)) for n, b in spec.equations)
        once = RecursiveSpec(domain=spec.domain, variables=spec.variables,
                             actions=spec.actions, equations=unfolded,
                             comm=spec.comm)
        assert validate_guardedness(once) == []


class TestValidateSpec:
    def test_unknown_process_name(self):
        spec = make_spec(equations=(("X", Prefix(Action("a"), Name("MISSING"))),))
        assert any("MISSING" in p for p in validate_spec(spec))

    def test_encap_unknown_action(self):
        spec = make_spec(equations=(
            ("X", Encap(frozenset({"zap"}), Prefix(Action("a"), Deadlock()))),))
        assert any("zap" in p for p in validate_spec(spec))


class TestEnumerateValuations:
    def test_single_variable(self):
        spec = make_spec(values=("green", "red"), variables=("t",))
        vals = enumerate_valuations(spec)
        assert [v.value_of("t") for v in vals] == ["green", "red"]

    def test_two_variables_lexicographic(self):
        spec = make_spec(variables=("u", "v"))
        vals = enumerate_valuations(spec)
        assert [(v.value_of("u"), v.value_of("v")) for v in vals] == [
            ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]

    def test_cap_exceeded_names_the_size(self):
        spec = make_spec(values=tuple(f"k{i}" for i in range(17)),
                         variables=("w", "x", "y", "z"))
        expected = 17 ** 4
        with pytest.raises(ResourceLimitError) as err:
            enumerate_valuations(spec, cap=4096)
        assert err.value.reached == expected
        assert str(expected) in str(err.value)

    def test_no_variables_single_empty_valuation(self):
        spec = make_spec(variables=())
        assert enumerate_valuations(spec) == (Valuation(()),)


class TestValuationCodes:
    """Codes count the valuations in enumeration order; a test reads one
    digit, an assignment rewrites one."""

    @staticmethod
    def _spec():
        return make_spec(values=("a", "b", "c"), variables=("u", "v", "w"))

    def test_codes_follow_the_enumeration_order(self):
        spec = self._spec()
        vals = enumerate_valuations(spec)
        assert [spec.codes.code(v) for v in vals] == list(range(27))
        assert spec.codes.code(Valuation((("u", "b"), ("v", "a"), ("w", "c")))) == 11

    def test_one_canonical_valuation_per_code(self):
        spec = self._spec()
        vals = enumerate_valuations(spec)
        assert enumerate_valuations(spec) == vals
        assert all(a is b for a, b in zip(enumerate_valuations(spec), vals))
        assert all(spec.codes.valuation(c) is v for c, v in enumerate(vals))

    def test_tests_and_updates_are_digit_arithmetic(self):
        spec = self._spec()
        codes = spec.codes
        vals = enumerate_valuations(spec)
        for var in spec.variables:
            for value in spec.domain.values:
                weight, digit = codes.test(var, value)
                for c, v in enumerate(vals):
                    assert (c // weight % codes.base == digit) == (v.value_of(var) == value)
                    rewritten = c + (digit - c // weight % codes.base) * weight
                    assert vals[rewritten] == updated(v, var, value)

    def test_a_valuation_of_other_variables_has_no_code(self):
        spec = self._spec()
        with pytest.raises(ValueError):
            spec.codes.code(Valuation((("v", "a"), ("u", "a"), ("w", "a"))))


# ---------------------------------------------------------------------------
# Pretty-print round trips

_label_st = st.one_of(
    st.sampled_from([Action("a"), Action("b")]),
    st.sampled_from([Assign("v", "0"), Assign("v", "1")]),
)


def _expr_st():
    leaves = st.sampled_from([Deadlock(), Name("X")])
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(Prefix, _label_st, children),
            st.builds(Choice, children, children),
            st.builds(Parallel, children, children),
            st.builds(Cond, st.just("v"), st.sampled_from(["0", "1"]), children),
            st.builds(Encap,
                      st.sampled_from([frozenset({"a"}), frozenset({"a", "b"})]),
                      children),
        ),
        max_leaves=12,
    )


@given(_expr_st())
@settings(max_examples=200, deadline=None)
def test_expr_round_trip(expr):
    spec = make_spec(equations=(("X", Prefix(Action("a"), Deadlock())),))
    assert parse_expr(expr_str(expr), spec) == expr


def test_label_str():
    assert label_str(Action("drive")) == "drive"
    assert label_str(Assign("t", "red")) == "assign(t,red)"
