import random
from collections import Counter
from itertools import count

import pytest

from conftest import TRAFFIC_TEXT
from genspecs import (
    gen_pair, gen_parseq_spec, gen_spec, ring_text, step_corner_specs, worker_grid_text,
)
from oracles import reference_guarded_steps, reference_step, reference_step_table, updated

import gvpa.sos
from gvpa.errors import ResourceLimitError
from gvpa.parser import parse_expr, parse_spec
from gvpa.sos import (
    ExplorationConfig, GvState, Transitions, _RowMemo, _Stepper, explore,
    export_lts, expression_closure, generate_lts, reachable_exprs, step,
)
from gvpa.syntax import (
    Action, Assign, Choice, CommFunction, Cond, Deadlock, DomainDef, Encap,
    Name, Parallel, Prefix, RecursiveSpec, Valuation, enumerate_valuations,
)


class TestStep:
    def test_traffic_initial_state(self, traffic):
        spec, init = traffic
        got = step(spec, GvState(init.root, init.valuation))
        tlc = Name("TLC")
        drive_target = Parallel(Deadlock(), tlc)
        assert set(got) == {
            (Action("drive"),
             GvState(drive_target, Valuation((("t", "green"),)))),
            (Assign("t", "red"),
             GvState(init.root, Valuation((("t", "red"),)))),
        }

    def test_deadlock_has_no_steps(self, example3):
        spec, _, _, _, v0 = example3
        assert step(spec, GvState(Deadlock(), v0)) == ()

    def test_figure2_initial_state(self, example3):
        spec, p, _, r, v0 = example3
        got = step(spec, GvState(Parallel(p, r), v0))
        v1 = Valuation((("v", "1"),))
        assert set(got) == {
            (Action("a"), GvState(Parallel(Deadlock(), r), v0)),
            (Assign("v", "1"), GvState(Parallel(p, Deadlock()), v1)),
        }

    def test_cond_gates_only_its_branch(self, example3):
        spec, p, q, _, v0 = example3
        v1 = Valuation((("v", "1"),))
        # at v=1 the guarded branch is silent, the other branch still fires
        both = parse_expr("(v = 0) -> a.delta + a.delta", spec)
        got = step(spec, GvState(both, v1))
        assert got == ((Action("a"), GvState(Deadlock(), v1)),)
        assert step(spec, GvState(p, v1)) == ()
        assert step(spec, GvState(q, v1)) == (
            (Action("a"), GvState(Deadlock(), v1)),)

    def test_comm_synchronises_actions_under_same_valuation(self):
        spec = RecursiveSpec(
            domain=DomainDef(("0",)), variables=(), actions=("a", "b", "c"),
            equations=(), comm=CommFunction(((frozenset(("a", "b")), "c"),)))
        left = Prefix(Action("a"), Deadlock())
        right = Prefix(Action("b"), Deadlock())
        v = Valuation(())
        got = step(spec, GvState(Parallel(left, right), v))
        labels = [label for label, _ in got]
        assert labels == [Action("a"), Action("b"), Action("c")]
        comm_target = [t for (l, t) in got if l == Action("c")][0]
        assert comm_target == GvState(Parallel(Deadlock(), Deadlock()), v)

    def test_encap_blocks_actions_but_passes_assignments(self, example3):
        spec, _, q, r, v0 = example3
        from gvpa.syntax import Encap
        wrapped = Encap(frozenset({"a"}), Parallel(q, r))
        got = step(spec, GvState(wrapped, v0))
        assert [label for label, _ in got] == [Assign("v", "1")]
        target = got[0][1]
        assert isinstance(target.expr, Encap)

    def test_comm_closure_invariant(self):
        # every c-labelled step of P || Q decomposes into simultaneous
        # a and b steps of the components under the same valuation
        spec, init = parse_spec(
            "domain { 0, 1 } vars { v } acts { a, b, c } comm { a|b -> c } "
            "proc P = a.(v = 0) -> b.P proc Q = b.assign(v, 1).Q "
            "init P || Q with { v = 0 }")
        lts = generate_lts(spec, init)
        found_comm = False
        for src, label, dst in lts.transitions:
            if label != Action("c"):
                continue
            found_comm = True
            state = lts.states[src]
            target = lts.states[dst]
            assert target.valuation == state.valuation
            assert isinstance(state.expr, Parallel)
            left_steps = step(spec, GvState(state.expr.left, state.valuation))
            right_steps = step(spec, GvState(state.expr.right, state.valuation))
            decomposed = any(
                la == Action(x) and lb == Action(y)
                and spec.comm.lookup(x, y) == "c"
                and Parallel(ta.expr, tb.expr) == target.expr
                for x, y in (("a", "b"), ("b", "a"))
                for la, ta in left_steps
                for lb, tb in right_steps)
            assert decomposed
        assert found_comm

    def test_valuation_discipline(self, traffic):
        spec, init = traffic
        self._assert_valuation_discipline(generate_lts(spec, init))

    def test_valuation_discipline_on_random_specs(self):
        import random

        from genspecs import gen_pair, gen_spec
        from gvpa.syntax import enumerate_valuations

        rng = random.Random(314)
        for _ in range(20):
            spec = gen_spec(rng)
            p, q = gen_pair(rng, spec)
            valuation = enumerate_valuations(spec)[0]
            lts, _ = explore(spec, [GvState(p, valuation),
                                    GvState(q, valuation)])
            self._assert_valuation_discipline(lts)

    @staticmethod
    def _assert_valuation_discipline(lts):
        for src, label, dst in lts.transitions:
            before = lts.states[src].valuation
            after = lts.states[dst].valuation
            if isinstance(label, Action):
                assert after == before
            else:
                assert after == updated(before, label.var, label.value)
                for var, value in before.entries:
                    if var != label.var:
                        assert after.value_of(var) == value


class TestGenerateLts:
    def test_traffic_counts(self, traffic):
        spec, init = traffic
        lts = generate_lts(spec, init)
        assert len(lts.states) == 6
        assert len(lts.transitions) == 9

    def test_successors_read_from_the_store(self, traffic):
        spec, init = traffic
        lts = generate_lts(spec, init)
        assert isinstance(lts.transitions, Transitions)
        assert lts.transitions.labels == tuple(dict.fromkeys(
            label for _, label, _ in lts.transitions))
        for i in range(len(lts.states)):
            assert lts.successors(i) == [(label, dst) for src, label, dst
                                         in lts.transitions if src == i]

    def test_states_share_the_canonical_valuations(self):
        spec, init = parse_spec(worker_grid_text(2, 3))
        vals = enumerate_valuations(spec)
        for state in generate_lts(spec, init).states:
            assert state.valuation is vals[spec.codes.code(state.valuation)]

    def test_deadlock_lts(self, example3):
        spec, _, _, _, v0 = example3
        lts = generate_lts(spec, GvState(Deadlock(), v0))
        assert len(lts.states) == 1
        assert len(lts.transitions) == 0

    def test_unguarded_exploration_hits_cap(self):
        # A = a.delta || A, constructed directly to bypass validation
        spec = RecursiveSpec(
            domain=DomainDef(("0",)), variables=(), actions=("a",),
            equations=(("A", Parallel(Prefix(Action("a"), Deadlock()),
                                      Name("A"))),))
        with pytest.raises(ResourceLimitError) as err:
            generate_lts(spec, GvState(Name("A"), Valuation(())),
                         ExplorationConfig(max_states=100))
        assert err.value.limit == 100

    def test_determinism(self, traffic):
        spec, init = traffic
        first = generate_lts(spec, init)
        second = generate_lts(spec, init)
        assert tuple(first.states) == tuple(second.states)
        assert list(first.transitions) == list(second.transitions)
        assert export_lts(first) == export_lts(second)


class TestExplorationConfig:
    @pytest.mark.parametrize("cap", ["max_states"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_caps_below_one_are_rejected(self, cap, value):
        with pytest.raises(ValueError, match=f"{cap} must be at least 1"):
            ExplorationConfig(**{cap: value})

    def test_one_valuation_is_a_valid_cap(self):
        # two expressions under one valuation are two pairs
        spec, init = parse_spec("domain { 0 } vars { v } acts { a } init a.delta with { v = 0 }")
        closure = reachable_exprs(spec, init.root, ExplorationConfig(max_states=2))
        assert tuple(closure) == (init.root, Deadlock())
        with pytest.raises(ResourceLimitError, match=r"^expression closure cap of 1 "
                           r"\(expression, valuation\) pairs exceeded: "
                           r"2 expressions under 1 valuation$"):
            reachable_exprs(spec, init.root, ExplorationConfig(max_states=1))


class TestReachableExprs:
    def test_cond_root(self, example3):
        spec, p, _, _, _ = example3
        assert set(reachable_exprs(spec, p)) == {p, Deadlock()}

    def test_deadlock_root(self, example3):
        spec, _, _, _, _ = example3
        assert tuple(reachable_exprs(spec, Deadlock())) == (Deadlock(),)

    def test_car_closure(self, traffic):
        spec, _ = traffic
        closure = set(reachable_exprs(spec, Name("CAR")))
        drive_tail = Cond("t", "green", Prefix(Action("drive"), Deadlock()))
        assert closure == {Name("CAR"), drive_tail, Deadlock()}


class TestImageFiniteness:
    """Successor sets are computed, so finite per state; image-finiteness
    reduces to the expression closure staying under the cap."""

    def test_traffic_ok(self, traffic):
        spec, init = traffic
        assert len(reachable_exprs(spec, init.root)) <= ExplorationConfig().max_states

    def test_deadlock_ok(self, example3):
        spec, _, _, _, _ = example3
        assert tuple(reachable_exprs(spec, Deadlock())) == (Deadlock(),)

    def test_unguarded_bound_exceeded(self):
        spec = RecursiveSpec(
            domain=DomainDef(("0",)), variables=(), actions=("a",),
            equations=(("A", Parallel(Prefix(Action("a"), Deadlock()),
                                      Name("A"))),))
        with pytest.raises(ResourceLimitError) as err:
            reachable_exprs(spec, Name("A"), ExplorationConfig(max_states=50))
        assert err.value.limit == 50


class TestExport:
    def test_traffic_aut_header(self, traffic):
        spec, init = traffic
        text = export_lts(generate_lts(spec, init), "aut")
        assert text.splitlines()[0] == "des (0,9,6)"

    def test_deadlock_aut(self, example3):
        spec, _, _, _, v0 = example3
        text = export_lts(generate_lts(spec, GvState(Deadlock(), v0)), "aut")
        assert text == "des (0,0,1)\n"

    def test_assign_label_quoted_verbatim(self, traffic):
        spec, init = traffic
        text = export_lts(generate_lts(spec, init), "aut")
        assert '"assign(t,red)"' in text

    def test_dot_contains_states_and_edges(self, traffic):
        spec, init = traffic
        text = export_lts(generate_lts(spec, init), "dot")
        assert text.startswith("digraph")
        assert "CAR || TLC" in text
        assert "drive" in text


class TestMultiRootExplore:
    def test_roots_shared_states_are_merged(self, example3):
        spec, p, q, _, v0 = example3
        lts, (si, ti) = explore(spec, [GvState(p, v0), GvState(q, v0)])
        assert si == 0 and ti != si
        # both roots reach <delta, v0>, which is stored once
        deltas = [i for i, s in enumerate(lts.states) if s.expr == Deadlock()]
        assert len(deltas) == 1

    def test_duplicate_root_explored_once(self, traffic):
        spec, init = traffic
        root = GvState(init.root, init.valuation)
        single = generate_lts(spec, init)
        doubled, (a, b) = explore(spec, [root, root])
        assert a == b == 0
        assert list(doubled.transitions) == list(single.transitions)


def _seeded_specs():
    """(spec, roots, valuation) triples from both seeded corpora."""
    rng = random.Random(2718)
    out = []
    for _ in range(15):
        spec = gen_spec(rng)
        out.append((spec, gen_pair(rng, spec), rng.choice(enumerate_valuations(spec))))
    for n_vars in (1, 1, 2) * 5:
        spec, root, valuation = gen_parseq_spec(rng, n_vars=n_vars)
        out.append((spec, (root,), valuation))
    return out


class TestStepAgainstReference:
    """`step` filters each expression's guarded step table by the code of
    the valuation; `reference_step` derives the steps under the valuation
    itself. Both must give the same tuple, in the same order."""

    @pytest.mark.parametrize("text", [
        TRAFFIC_TEXT, worker_grid_text(2, 3), ring_text(3, 3)],
        ids=["traffic", "W(2,3)", "R(3,3)"])
    def test_every_reachable_state(self, text):
        spec, init = parse_spec(text)
        lts = generate_lts(spec, init)
        for state in lts.states:
            assert step(spec, state) == reference_step(spec, state)

    def test_every_reachable_state_of_the_seeded_corpora(self, placed_terms):
        for spec, roots, valuation in _seeded_specs():
            lts, _ = explore(spec, [GvState(root, valuation) for root in roots])
            for state in lts.states:
                assert step(spec, state) == reference_step(spec, state)
        # the corpora reach rows that change the frame: a || after a prefix
        # or a condition
        assert any(isinstance(term, Parallel) for term in placed_terms)

    def test_every_reachable_state_of_the_corner_specs(self):
        for spec, roots in step_corner_specs():
            lts, _ = explore(spec, [GvState(root, valuation) for root in roots
                                    for valuation in enumerate_valuations(spec)])
            for i, state in enumerate(lts.states):
                assert step(spec, state) == reference_step(spec, state)
                assert tuple((label, lts.states[j]) for label, j in lts.successors(i)) \
                    == reference_step(spec, state)

    def test_every_closure_expression_under_every_valuation(self, traffic):
        cases = [(traffic[0], (traffic[1].root,))]
        for text in (worker_grid_text(2, 3), ring_text(3, 3)):
            spec, init = parse_spec(text)
            cases.append((spec, (init.root,)))
        cases += [(spec, roots) for spec, roots, _ in _seeded_specs()]
        for spec, roots in cases + step_corner_specs():
            exprs, valuations, transitions, _ = expression_closure(spec, roots)
            for e, expr in enumerate(exprs):
                expected = []
                for v, valuation in enumerate(valuations):
                    got = step(spec, GvState(expr, valuation))
                    assert got == reference_step(spec, GvState(expr, valuation))
                    expected += [((v, label, valuations.index(target.valuation)),
                                  exprs.index(target.expr)) for label, target in got]
                assert transitions.successors(e) == expected

    @staticmethod
    def _spec(comm=(), equations=()):
        return RecursiveSpec(
            domain=DomainDef(("a", "b")), variables=("x", "y"),
            actions=("p", "q", "r"), equations=equations, comm=CommFunction(comm))

    def _assert_agrees_everywhere(self, spec, expr):
        for valuation in enumerate_valuations(spec):
            state = GvState(expr, valuation)
            assert step(spec, state) == reference_step(spec, state)

    def test_nested_conflicting_guards(self):
        spec = self._spec()
        tail = Prefix(Action("p"), Deadlock())
        conflicting = Cond("x", "a", Cond("x", "b", tail))
        repeated = Cond("x", "a", Cond("x", "a", tail))
        other_var = Cond("x", "a", Cond("y", "b", tail))
        for expr in (conflicting, repeated, other_var,
                     Choice(conflicting, repeated), Parallel(other_var, conflicting)):
            self._assert_agrees_everywhere(spec, expr)
        for valuation in enumerate_valuations(spec):
            assert step(spec, GvState(conflicting, valuation)) == ()
        assert [str(v) for v in enumerate_valuations(spec)
                if step(spec, GvState(other_var, v))] == ["x=a,y=b"]

    def test_comm_between_guarded_actions_under_encap(self):
        spec = self._spec(comm=((frozenset(("p", "q")), "r"),),
                          equations=(("Q", Prefix(Action("q"), Deadlock())),))
        left = Cond("x", "a", Prefix(Action("p"), Deadlock()))
        right = Choice(Cond("x", "b", Prefix(Action("q"), Deadlock())),
                       Cond("y", "a", Prefix(Action("q"), Name("Q"))))
        expr = Encap(frozenset({"p", "q"}), Parallel(left, right))
        self._assert_agrees_everywhere(spec, expr)
        self._assert_agrees_everywhere(spec, Parallel(left, right))
        # the handshake needs both guards: x = a on the left, y = a on the right
        fired = {str(v): [label.name for label, _ in step(spec, GvState(expr, v))]
                 for v in enumerate_valuations(spec)}
        assert fired == {"x=a,y=a": ["r"], "x=a,y=b": [], "x=b,y=a": [], "x=b,y=b": []}

    def test_unguarded_recursion_in_one_pass(self):
        # P and Q unfold each other without a guard: Q unfolded inside P
        # has no P-step, while Q on its own has one, so one pass must keep
        # the rows of the two unfoldings apart.
        p, q = (Prefix(Action(n), Deadlock()) for n in ("p", "q"))
        spec = self._spec(equations=(("P", Choice(p, Name("Q"))),
                                     ("Q", Choice(q, Name("P")))))
        roots = (Parallel(Name("P"), Name("Q")), Parallel(Name("Q"), Name("P")),
                 Choice(Name("P"), Parallel(Name("Q"), Cond("x", "a", Name("P")))))
        for expr in roots:
            self._assert_agrees_everywhere(spec, expr)
        valuations = enumerate_valuations(spec)
        lts, _ = explore(spec, [GvState(r, v) for r in roots for v in valuations])
        for i, state in enumerate(lts.states):
            got = tuple((label, lts.states[j]) for label, j in lts.successors(i))
            assert got == reference_step(spec, state)
        exprs, valuations, transitions, _ = expression_closure(spec, roots)
        for e, expr in enumerate(exprs):
            assert transitions.successors(e) == [
                ((v, label, valuations.index(target.valuation)), exprs.index(target.expr))
                for v, valuation in enumerate(valuations)
                for label, target in reference_step(spec, GvState(expr, valuation))]

    def test_duplicate_derivations_listed_once_at_first_position(self):
        spec = self._spec()
        act = Prefix(Action("p"), Deadlock())
        expr = Choice(Cond("x", "a", act), Choice(Prefix(Action("q"), Deadlock()), act))
        self._assert_agrees_everywhere(spec, expr)
        at_a = step(spec, GvState(expr, enumerate_valuations(spec)[0]))
        assert [label.name for label, _ in at_a] == ["p", "q"]


def _leaves(expr) -> list:
    """The maximal subterms of an expression with neither `||` nor
    `encap` on top, left to right."""
    if isinstance(expr, Encap):
        return _leaves(expr.body)
    if isinstance(expr, Parallel):
        return _leaves(expr.left) + _leaves(expr.right)
    return [expr]


def _frame_nodes(expr) -> set:
    """The `||` and `encap` nodes above an expression's leaves."""
    if isinstance(expr, Encap):
        return {expr} | _frame_nodes(expr.body)
    if isinstance(expr, Parallel):
        return {expr} | _frame_nodes(expr.left) | _frame_nodes(expr.right)
    return set()


class TestRowsPerPass:
    """A pass derives the rows of each leaf (the innermost operands of a
    frame's `||`) and each name body once per distinct (term, unfolding
    set), and composes every table from them."""

    @staticmethod
    def _count_rows(monkeypatch) -> list:
        derived = []
        missing = gvpa.sos._RowMemo.__missing__
        monkeypatch.setattr(gvpa.sos._RowMemo, "__missing__",
                            lambda memo, key: derived.append(key) or missing(memo, key))
        return derived

    @pytest.mark.parametrize("pass_over", ["closure", "explore"])
    def test_each_operand_and_name_body_derived_once(self, monkeypatch, pass_over):
        spec, init = parse_spec(ring_text(3, 3))
        derived = self._count_rows(monkeypatch)
        if pass_over == "closure":
            exprs = expression_closure(spec, init.root)[0]
        else:
            exprs = {state.expr for state in generate_lts(spec, init).states}
        assert len(derived) == len(set(derived))
        leaves = [leaf for expr in exprs for leaf in _leaves(expr)]
        keys = set(derived)
        none = frozenset()
        for leaf in leaves:
            assert (leaf, none) in keys
            assert (spec.equation(leaf.name), frozenset({leaf.name})) in keys
        # 27 expressions with 3 leaves each share the 9 stages, plus 9 bodies
        assert len(set(leaves)) == 9 < len(leaves) == 81
        assert len(derived) == 9 + 9

    def test_unfolding_sets_are_kept_apart(self, monkeypatch):
        p, q = (Prefix(Action(n), Deadlock()) for n in ("p", "q"))
        spec = RecursiveSpec(
            domain=DomainDef(("0",)), variables=(), actions=("p", "q"),
            equations=(("P", Choice(p, Name("Q"))), ("Q", Choice(q, Name("P")))))
        derived = self._count_rows(monkeypatch)
        step(spec, GvState(Parallel(Name("P"), Name("Q")), Valuation(())))
        body_q = spec.equation("Q")
        assert derived.count((body_q, frozenset({"P", "Q"}))) == 1
        assert derived.count((body_q, frozenset({"Q"}))) == 1
        assert len(derived) == len(set(derived))


class TestTablesPerPass:
    """A pass composes each frame vector's table once, not once per
    valuation; vectors and expressions correspond one to one."""

    @staticmethod
    def _count_tables(monkeypatch) -> list:
        calls = []
        table = gvpa.sos._Stepper.table
        monkeypatch.setattr(gvpa.sos._Stepper, "table",
                            lambda self, e: calls.append(self.frames.expr(e)) or table(self, e))
        return calls

    def test_closure_derives_one_table_per_expression(self, monkeypatch):
        spec, init = parse_spec(worker_grid_text(3, 2))
        calls = self._count_tables(monkeypatch)
        exprs, valuations, _, _ = expression_closure(spec, init.root)
        assert len(valuations) == 8
        assert sorted(map(repr, calls)) == sorted(map(repr, exprs))

    def test_explore_derives_one_table_per_expression(self, monkeypatch):
        spec, init = parse_spec(ring_text(3, 3))
        calls = self._count_tables(monkeypatch)
        lts = generate_lts(spec, init)
        exprs = {state.expr for state in lts.states}
        assert len(lts.states) == 2 * len(exprs)
        assert len(calls) == len(exprs)
        assert set(calls) == exprs


class TestStepKernelAgainstReference:
    """The rows of one pass (`_RowMemo`), and `_Stepper.table` read through
    the term view, against the tables as first written (`reference_guarded_steps`,
    `reference_step_table`) at every expression the closure reaches."""

    def test_tables_of_every_reached_expression(self, placed_terms):
        cases = []
        for text in (TRAFFIC_TEXT, worker_grid_text(2, 3), ring_text(3, 3)):
            spec, init = parse_spec(text)
            cases.append((spec, (init.root,)))
        cases += [(spec, roots) for spec, roots, _ in _seeded_specs()]
        flags = Counter()
        for spec, roots in cases + step_corner_specs():
            exprs = expression_closure(spec, roots)[0]
            stepper, memo = _Stepper(spec), _RowMemo(spec)
            for expr in exprs:
                expected = reference_step_table(spec, expr)
                assert memo[expr, frozenset()] == reference_guarded_steps(spec, expr)
                runs, twice = stepper.table(stepper.expr_key(expr))
                assert ([(tests, [(label, stepper.frames.expr(t), w, d)
                                  for label, t, w, d in rows])
                         for tests, rows in runs], twice) == expected
                rows = [(label, target) for _, run in expected[0] for label, target, _, _ in run]
                flags[twice, len(set(rows)) < len(rows)] += 1
        # the corpus reaches pairs derived twice, and repeated pairs whose
        # tests conflict
        assert flags[True, True] and flags[False, True] and flags[False, False]
        # and rows that change the frame: a || after a prefix or a condition
        assert any(isinstance(term, Parallel) for term in placed_terms)


class TestTermsOnDemand:
    """A pass numbers its states by frame vectors and builds no `||` or
    `encap` node; reading the states or expressions builds exactly the
    nodes of those reached."""

    @pytest.mark.parametrize("pass_over", ["closure", "explore"])
    def test_nodes_built_only_when_read(self, pass_over):
        # a ring under names that no earlier test interned
        tag = next(f"N{k}" for k in count() if (f"N{k}C1_0",) not in Name._table)
        spec, init = parse_spec(ring_text(3, 3).replace("C", tag + "C"))
        before = {cls: set(cls._table.values()) for cls in (Parallel, Encap)}
        if pass_over == "closure":
            read = expression_closure(spec, init.root)[0]
            assert len(read) == 27
        else:
            lts = generate_lts(spec, init)
            assert export_lts(lts, "aut").startswith("des (0,")
            read = lts.states
            assert len(read) == 54
        for cls in (Parallel, Encap):
            assert set(cls._table.values()) == before[cls]
        exprs = list(read) if pass_over == "closure" else [state.expr for state in read]
        reached = set().union(*map(_frame_nodes, exprs))
        for cls in (Parallel, Encap):
            new = set(cls._table.values()) - before[cls]
            assert new == {node for node in reached if isinstance(node, cls)} - before[cls]
            assert new
