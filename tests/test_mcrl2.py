from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import random

from conftest import GOLDEN, TRAFFIC_TEXT
from genspecs import (
    gen_bind_term, gen_mcrl2_term, gen_parseq_spec, ring_text, worker_grid_text,
)
from oracles import (
    comm_normal_forms, reference_apply_comm, reference_explore_mcrl2,
    reference_needs, reference_step_mcrl2, reference_subst,
)

import gvpa.mcrl2

from gvpa.errors import ResourceLimitError
from gvpa.mcrl2 import (
    DAnd, DBool, DConst, DEq, DVar, EMPTY_MULTISET, GroundAction, MAct, MAllow,
    MBar, MCall, MChoice, MComm, MDELTA, MHide, MParallel, MPrefix, MSum,
    Mcrl2Process, Mcrl2Spec, Multiset, TAU, _StepTable, apply_comm, apply_hide,
    canonical_label, explore_mcrl2, instantiate, sem_multiaction,
)
from gvpa.parser import parse_spec
from gvpa.sos import ExplorationConfig, export_lts
from gvpa.translate import make_globs, translate_init


def ms(*items):
    return Multiset(items)


def ga(name, *args):
    return GroundAction(name, tuple(args))


def of_counts(counts) -> Multiset:
    return Multiset(Counter(counts).elements())


class TestMultiset:
    small = st.dictionaries(st.sampled_from("abcd"), st.integers(0, 4))

    @given(small, small)
    @settings(max_examples=200, deadline=None)
    def test_addition_commutative(self, x, y):
        assert of_counts(x) + of_counts(y) == of_counts(y) + of_counts(x)

    @given(small, small, small)
    @settings(max_examples=200, deadline=None)
    def test_addition_associative(self, x, y, z):
        a, b, c = map(of_counts, (x, y, z))
        assert (a + b) + c == a + (b + c)

    @given(small, small)
    @settings(max_examples=200, deadline=None)
    def test_add_then_subtract_recovers(self, x, y):
        a, b = of_counts(x), of_counts(y)
        total = Counter((a + b).elements())
        assert total == Counter(x) + Counter(y)
        assert total - Counter(b.elements()) == Counter(a.elements())

    def test_equality_ignores_insertion_order(self):
        # both elements render as "a(true)"
        x, y = ga("a", "true"), ga("a", True)
        assert Multiset([x, y]) == Multiset([y, x])
        assert hash(Multiset([x, y])) == hash(Multiset([y, x]))
        assert Multiset([x, y]).items() == Multiset([y, x]).items()

    def test_names_are_ordered_as_strings(self):
        names = ["checkP", "a_b", "assignG", "Z", "check", "a"]
        assert Multiset(names).elements() == sorted(names)


class TestSemMultiaction:
    def test_tau_is_empty(self):
        assert sem_multiaction(TAU) == EMPTY_MULTISET

    def test_repeated_action_adds(self):
        alpha = MBar(MAct("a", (DConst("0"),)), MAct("a", (DConst("0"),)))
        assert sem_multiaction(alpha) == ms(ga("a", "0"), ga("a", "0"))

    def test_mixed_multi_action(self):
        alpha = MBar(MAct("checkG", (DConst("red"), DBool(True))),
                     MAct("assignG", (DConst("g"), DConst("green"))))
        assert sem_multiaction(alpha) == ms(ga("checkG", "red", True),
                                            ga("assignG", "g", "green"))

    def test_unbound_variable_rejected(self):
        with pytest.raises(ValueError):
            sem_multiaction(MAct("a", (DVar("x"),)))

    def test_instantiated_variables_evaluate(self):
        action = instantiate(MAct("a", (DVar("x"), DVar("y"))), {"x": "1"})
        assert action == MAct("a", (DConst("1"), DVar("y")))
        with pytest.raises(ValueError):
            sem_multiaction(action)
        assert sem_multiaction(instantiate(action, {"y": "0"})) == ms(ga("a", "1", "0"))

    @given(st.lists(st.sampled_from("ab"), max_size=4),
           st.lists(st.sampled_from("ab"), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_homomorphism(self, left, right):
        def build(names):
            acc = TAU
            for name in names:
                acc = MBar(acc, MAct(name))
            return acc

        assert sem_multiaction(MBar(build(left), build(right))) == \
            sem_multiaction(build(left)) + sem_multiaction(build(right))


def _subterms(term) -> list:
    """A term and all its data, multi-action and process subterms."""
    out, todo = [], [term]
    while todo:
        term = todo.pop()
        out.append(term)
        if isinstance(term, MPrefix):
            todo += [term.action, term.body]
        elif isinstance(term, (MChoice, MParallel, MBar, DEq)):
            todo += [term.left, term.right]
        elif isinstance(term, (MSum, MAllow, MHide, MComm)):
            todo.append(term.body)
        elif isinstance(term, (MAct, MCall)):
            todo += term.args
        elif isinstance(term, DAnd):
            todo += term.conjuncts
    return out


class TestInstantiate:
    """One walk binding several variables gives the term that one-variable
    substitutions give when applied in turn."""

    @pytest.mark.parametrize("gen", [gen_mcrl2_term, gen_bind_term],
                             ids=["fragment", "binders"])
    def test_matches_one_variable_substitutions(self, gen):
        rng = random.Random(2718)
        compared = shadowed = 0
        for seed in range(150):
            env, root = gen(random.Random(seed))
            terms = _subterms(root)
            for _, params, body in env.equations:
                terms += _subterms(body)
            names = sorted({t.name for t in terms if isinstance(t, DVar)}
                           | {t.var for t in terms if isinstance(t, MSum)} | {"absent"})
            for term in dict.fromkeys(terms):
                chosen = rng.sample(names, rng.randint(1, min(3, len(names))))
                values = {name: rng.choice(env.domain) for name in chosen}
                copy = dict(values)
                expected = term
                for name, value in values.items():
                    expected = reference_subst(expected, name, DConst(value))
                assert instantiate(term, values) is expected, (term, values)
                assert values == copy
                compared += 1
                shadowed += isinstance(term, MSum) and term.var in values
        assert compared > 4000
        # sums over a bound name occur, so shadowing is exercised
        assert shadowed > 50

    def test_sum_over_every_bound_name_is_unchanged(self):
        term = MSum("x", MPrefix(_a("a", DVar("x")), MCall("K", (DVar("x"),))))
        assert instantiate(term, {"x": "1"}) is term
        assert instantiate(MSum("y", term), {"x": "1", "y": "0"}) is MSum("y", term)


class TestApplyComm:
    C = ((Multiset(["a", "b"]), "c"),)

    def test_paper_worked_example(self):
        # [[a:2, b:3]] becomes [[b:1, c:2]]
        sem = ms(ga("a"), ga("a"), ga("b"), ga("b"), ga("b"))
        assert apply_comm(self.C, sem) == ms(ga("b"), ga("c"), ga("c"))

    def test_parameter_match_required(self):
        entries = ((Multiset(["checkP", "checkG"]), "check"),)
        matching = ms(ga("checkP", "0", True), ga("checkG", "0", True))
        assert apply_comm(entries, matching) == ms(ga("check", "0", True))
        mismatched = ms(ga("checkP", "0", True), ga("checkG", "1", True))
        assert apply_comm(entries, mismatched) == mismatched

    def test_result_carries_parameters(self):
        entries = ((Multiset(["a", "b"]), "c"),)
        sem = ms(ga("a", "1"), ga("b", "1"))
        assert apply_comm(entries, sem) == ms(ga("c", "1"))

    def test_each_handshake_shrinks_by_one(self):
        before = ms(ga("a"), ga("a"), ga("b"), ga("b"), ga("b"))
        after = apply_comm(self.C, before)
        assert len(after.elements()) == len(before.elements()) - 2


class TestApplyHide:
    def test_hides_named_labels(self):
        sem = ms(ga("check", "0", True), ga("a"))
        assert apply_hide(frozenset({"check"}), sem) == ms(ga("a"))

    def test_empty_set_is_identity(self):
        sem = ms(ga("check", "0", True), ga("a"))
        assert apply_hide(frozenset(), sem) == sem

    def test_all_hidden_renders_tau(self):
        sem = ms(ga("check", "0", True), ga("check", "0", True))
        hidden = apply_hide(frozenset({"check"}), sem)
        assert hidden == EMPTY_MULTISET
        assert canonical_label(("0",), hidden) == "tau"


DOMAIN = ("green", "red")


@pytest.fixture()
def globs_env():
    return Mcrl2Spec(domain=DOMAIN, equations=(make_globs(("g",), DOMAIN),))


class TestStepMcrl2:
    def test_deadlock(self, globs_env):
        assert _StepTable(globs_env).steps(MDELTA) == ()

    def test_globs_value_self_loop(self, globs_env):
        steps = _StepTable(globs_env).steps(MCall("Globs", (DConst("green"),)))
        labels = {canonical_label(DOMAIN, sem) for sem, _ in steps}
        assert "value(g,green)" in labels
        assert "value(g,red)" not in labels
        value_targets = [t for sem, t in steps
                         if canonical_label(DOMAIN, sem) == "value(g,green)"]
        assert value_targets == [MCall("Globs", (DConst("green"),))]

    def test_globs_assign_summand_per_new_value(self, globs_env):
        steps = _StepTable(globs_env).steps(MCall("Globs", (DConst("green"),)))
        for new in DOMAIN:
            label = canonical_label(
                DOMAIN, ms(ga("checkG", "green", True), ga("assignG", "g", new)))
            matches = [t for sem, t in steps
                       if canonical_label(DOMAIN, sem) == label]
            assert matches == [MCall("Globs", (DConst(new),))]

    def test_globs_double_check(self, globs_env):
        steps = _StepTable(globs_env).steps(MCall("Globs", (DConst("green"),)))
        sems = [sem for sem, _ in steps]
        assert ms(ga("checkG", "green", True), ga("checkG", "green", True)) in sems

    def test_sum_expands_over_domain(self, globs_env):
        proc = MSum("x", MPrefix(MAct("value", (DConst("g"), DVar("x"))), MDELTA))
        labels = {canonical_label(DOMAIN, sem)
                  for sem, _ in _StepTable(globs_env).steps(proc)}
        assert labels == {"value(g,green)", "value(g,red)"}

    def test_parallel_synchronous_merge(self, globs_env):
        p = MPrefix(MAct("a"), MDELTA)
        q = MPrefix(MAct("b"), MDELTA)
        steps = _StepTable(globs_env).steps(MParallel(p, q))
        labels = [canonical_label(DOMAIN, sem) for sem, _ in steps]
        assert labels == ["a", "b", "a|b"]

    def test_allow_filters_by_name_projection(self, globs_env):
        p = MChoice(MPrefix(MAct("a"), MDELTA),
                    MPrefix(MBar(MAct("a"), MAct("b")), MDELTA))
        allowed = MAllow(frozenset({Multiset(["a"])}), p)
        labels = [canonical_label(DOMAIN, sem)
                  for sem, _ in _StepTable(globs_env).steps(allowed)]
        assert labels == ["a"]

    def test_allow_empty_set_blocks_everything_but_tau(self, globs_env):
        p = MChoice(MPrefix(MAct("a"), MDELTA), MPrefix(TAU, MDELTA))
        allowed = MAllow(frozenset(), p)
        labels = [canonical_label(DOMAIN, sem)
                  for sem, _ in _StepTable(globs_env).steps(allowed)]
        assert labels == ["tau"]


class TestGenerateLtsMcrl2:
    def test_globs_alone_has_one_state_per_value(self, globs_env):
        lts, _ = explore_mcrl2(globs_env, [MCall("Globs", (DConst("green"),))])
        assert len(lts.states) == len(DOMAIN)

    def test_multi_root_exploration(self, globs_env):
        lts, roots = explore_mcrl2(
            globs_env, [MCall("Globs", (DConst("green"),)),
                        MCall("Globs", (DConst("red"),))])
        assert len(roots) == 2
        assert len(lts.states) == 2

    def test_par_rule_label_is_multiset_sum(self, globs_env):
        p = MParallel(MPrefix(MAct("a"), MDELTA), MPrefix(MAct("a"), MDELTA))
        steps = _StepTable(globs_env).steps(p)
        sems = [sem for sem, _ in steps]
        assert ms(ga("a"), ga("a")) in sems


def _explores_like_reference(env, roots, cap: int = 300) -> int:
    """Compares explore_mcrl2 with a BFS over reference_step_mcrl2: the
    same states in the same order and the same transitions, or both past
    the cap. Returns the number of transitions compared."""
    expected = reference_explore_mcrl2(env, roots, cap)
    cfg = ExplorationConfig(max_states=cap)
    if expected is None:
        with pytest.raises(ResourceLimitError):
            explore_mcrl2(env, roots, cfg)
        return 0
    lts, _ = explore_mcrl2(env, roots, cfg)
    assert (list(lts.states), list(lts.transitions)) == expected
    return len(expected[1])


def _translation(text: str):
    spec, init = parse_spec(text)
    return translate_init(spec, init.root, init.valuation)


def _a(name, *args):
    return MAct(name, tuple(DConst(a) if isinstance(a, str) else a for a in args))


def _bar(*acts):
    out = acts[0]
    for act in acts[1:]:
        out = MBar(out, act)
    return out


def _stack(allowed, entries, body, hidden=("c",)):
    return MAllow(frozenset(Multiset(names) for names in allowed),
                  MHide(frozenset(hidden), MComm(
                      tuple((Multiset(lhs), result) for lhs, result in entries), body)))


# p leaves only with a g of equal arguments, as checkP with checkG
P_WITH_G = [(["g", "p"], "c")]
SUM_P = MSum("x", MPrefix(_bar(_a("a"), _a("p", DVar("x"))), MDELTA))


class TestRestrictedComposition:
    """explore_mcrl2 builds only what an allow/hide/comm stack can keep,
    from one step table for the whole search; its LTS must be the one a
    BFS over the unrestricted rule gives, order included."""

    def test_translated_terms(self, traffic):
        spec, init = traffic
        sources = [(spec, init.root, init.valuation)] + [
            gen_parseq_spec(random.Random(seed), n_vars=1 + seed % 2)
            for seed in range(24)]
        compared = 0
        for spec, root, valuation in sources:
            out = translate_init(spec, root, valuation)
            compared += _explores_like_reference(out.menv, [out.top])
        assert compared > 200

    @pytest.mark.parametrize("text", [worker_grid_text(2, 2), ring_text(2, 3),
                                      ring_text(3, 3)],
                             ids=["W(2,2)", "R(2,3)", "R(3,3)"])
    def test_grid_and_ring_translations(self, text):
        # several components below the allow: their inner products are
        # incomplete and paired by name tuple
        out = _translation(text)
        assert _explores_like_reference(out.menv, [out.top]) >= 24

    def test_fragment_terms_unlike_the_translation(self):
        compared = 0
        for seed in range(300):
            env, root = gen_mcrl2_term(random.Random(seed))
            compared += _explores_like_reference(env, [root], cap=200)
        assert compared > 1000


class TestStepTable:
    """The cases the step table must keep apart, and the binding of sum
    binders at the outermost join, against the same reference."""

    def test_w33_translation_matches_the_pinned_aut(self):
        # one state of W(3,3) has about 10^6 unrestricted products, more
        # than the reference can hold, so the LTS is compared with the
        # .aut that the recursion this table replaced wrote
        out = _translation(worker_grid_text(3, 3))
        lts, _ = explore_mcrl2(out.menv, [out.top])
        assert export_lts(lts) == (GOLDEN / "W33.translated.aut").read_text()

    def test_terms_whose_sums_the_join_binds(self, monkeypatch):
        fixed = []
        bound = gvpa.mcrl2._Keep.bound
        monkeypatch.setattr(gvpa.mcrl2._Keep, "bound",
                            lambda keep, *args: fixed.append(bound(keep, *args))
                            or fixed[-1])
        compared = 0
        for seed in range(300):
            env, root = gen_bind_term(random.Random(seed))
            compared += _explores_like_reference(env, [root])
        assert compared > 1000
        # the corpus reaches both outcomes of binding
        assert sum(f is not None for f in fixed) > 50
        assert sum(f is None for f in fixed) > 50

    @pytest.mark.parametrize("left, right, transitions", [
        # two argument tuples on the partner: no single instance
        (SUM_P, MChoice(MPrefix(_a("g", "0"), MDELTA), MPrefix(_a("g", "1"), MCall("G"))),
         2),
        # a partner with other arguments on the left frees another instance
        (MParallel(SUM_P, MPrefix(_a("g", "1"), MDELTA)), MPrefix(_a("g", "0"), MDELTA), 2),
        # p is a partner too, and each instance frees itself
        (MSum("x", MPrefix(_bar(_a("a"), _a("p", DVar("x")), _a("g", DVar("x"))),
                           MCall("K", (DVar("x"),)))),
         MPrefix(_bar(_a("g", "0"), _a("p", "1")), MDELTA), 4),
        # the binder also feeds a plain action
        (MSum("x", MPrefix(_bar(_a("a", DVar("x")), _a("p", DVar("x"))), MDELTA)),
         MPrefix(_a("g", "0"), MDELTA), 1),
        # the binder feeds the continuation
        (MSum("x", MPrefix(_bar(_a("a"), _a("p", DVar("x"))), MCall("K", (DVar("x"),)))),
         MPrefix(_a("g", "1"), MCall("G")), 2),
    ], ids=["two-tuples", "partner-on-left", "bound-partner", "plain-action",
            "continuation"])
    def test_binding_only_where_one_instance_can_be_kept(self, left, right, transitions):
        env = Mcrl2Spec(domain=("0", "1"), equations=(
            ("K", ("k",), MPrefix(_a("a", DVar("k")), MDELTA)),
            ("G", (), MPrefix(_a("g", "0"), MDELTA))))
        root = _stack([["a"], ["a", "a"]], P_WITH_G, MParallel(left, right))
        assert _explores_like_reference(env, [root]) == transitions

    def test_restrictions_sharing_a_term(self):
        # b is stuck under the first allow and kept under the second, so
        # the rows of b(9) and their needs differ between the two; no other
        # test steps b(9)
        shared = MParallel(MPrefix(_a("b", "9"), MDELTA), MPrefix(_a("e", "9"), MDELTA))
        root = MChoice(_stack([["c"]], [(["b", "e"], "c")], shared, hidden=()),
                       _stack([["b"], ["c"]], [(["b", "e"], "c")], shared, hidden=()))
        env = Mcrl2Spec(domain=("0",), equations=())
        labels = [canonical_label(env.domain, sem) for sem, _ in _StepTable(env).steps(root)]
        assert labels == ["c(9)", "b(9)", "c(9)"]
        assert _explores_like_reference(env, [root]) == 3

    def test_complete_and_incomplete_steps_of_one_term(self):
        # b(0) alone is dropped where it is complete, and pairs with e(0)
        # where it is an operand; b is on two entries, so no binder is
        # fixed and both lookups of b(0) have the same bind
        b, e = MPrefix(_a("b", "0"), MDELTA), MPrefix(_a("e", "0"), MDELTA)
        entries = [(["b", "e"], "c"), (["b", "f"], "d")]
        root = MChoice(_stack([["c"]], entries, b, hidden=()),
                       _stack([["c"]], entries, MParallel(b, e), hidden=()))
        env = Mcrl2Spec(domain=("0",), equations=())
        assert _explores_like_reference(env, [root]) == 1

    def test_unfolding_sets_are_kept_apart(self):
        # P steps a and b from the root, but only a inside Q's unfolding
        env = Mcrl2Spec(domain=("0",), equations=(
            ("P", (), MChoice(MPrefix(_a("a"), MDELTA), MCall("Q"))),
            ("Q", (), MChoice(MPrefix(_a("b"), MDELTA), MCall("P")))))
        root = MParallel(MCall("Q"), MCall("P"))
        assert len(_StepTable(env).steps(root)) == 7
        assert _explores_like_reference(env, [root]) == 11

    def test_explorations_of_two_specs_sharing_a_term(self):
        root = MCall("P")
        for name in ("a", "b"):
            env = Mcrl2Spec(domain=("0",), equations=(
                ("P", (), MPrefix(_a(name), MCall("P"))),))
            lts, _ = explore_mcrl2(env, [root])
            assert [label for _, label, _ in lts.transitions] == [name]
            assert _explores_like_reference(env, [root]) == 1


class TestTableWork:
    """The table derives each key once per exploration, and binding at the
    join keeps the substitutions per transition from growing with k^n."""

    @staticmethod
    def _count_derivations(monkeypatch) -> list:
        derived = []
        missing = gvpa.mcrl2._StepTable.__missing__
        monkeypatch.setattr(gvpa.mcrl2._StepTable, "__missing__",
                            lambda table, key: derived.append(key) or missing(table, key))
        return derived

    def test_each_key_derived_once_per_exploration(self, monkeypatch):
        out = _translation(ring_text(3, 3))
        derived = self._count_derivations(monkeypatch)
        lts, _ = explore_mcrl2(out.menv, [out.top])
        first = list(derived)
        assert len(first) == len(set(first))
        # no state's own steps are stored; the parallel under each state's
        # allow stack is derived once, as a complete join, and each Globs
        # term once, however many states share it
        terms = [key[0] for key in first]
        assert not set(lts.states) & set(terms)
        joins = {state.body.body.body for state in lts.states}
        assert sorted((key[0] for key in first if key[3]), key=id) == sorted(joins, key=id)
        globs = [t for t in terms if isinstance(t, MCall) and t.name == "Globs"]
        assert len(globs) == len(set(globs)) == len({join.right for join in joins}) == 2
        # the next exploration starts from an empty table
        derived.clear()
        explore_mcrl2(out.menv, [out.top])
        assert derived == first

    def test_substitutions_per_transition(self, monkeypatch):
        ratios = []
        real = gvpa.mcrl2.instantiate
        for n in (2, 3, 4):
            out = _translation(worker_grid_text(n, 3))
            calls = []

            def counted(term, values):
                if isinstance(term, Mcrl2Process):
                    calls.append(term)
                return real(term, values)

            monkeypatch.setattr(gvpa.mcrl2, "instantiate", counted)
            lts, _ = explore_mcrl2(out.menv, [out.top])
            monkeypatch.setattr(gvpa.mcrl2, "instantiate", real)
            assert len(lts.transitions) == 3 ** n * 3 * n
            ratios.append(len(calls) / len(lts.transitions))
        # k^n grows ninefold from W(2,3) to W(4,3), and each state has n
        # components; a call binds all of Globs's n parameters in one walk,
        # so the process terms instantiated per transition do not grow
        # with n, where one walk per parameter gave 12.3, 16.7 and 21.0
        assert ratios[2] <= ratios[0] < 10, ratios


W22 = """
domain { v0, v1 }
vars { x1, x2 }
acts { w1, w2 }
proc W1 = ((x1 = v0) -> (w1.W1 + assign(x1, v1).W1))
        + ((x1 = v1) -> (w1.W1 + assign(x1, v0).W1))
proc W2 = ((x2 = v0) -> (w2.W2 + assign(x2, v1).W2))
        + ((x2 = v1) -> (w2.W2 + assign(x2, v0).W2))
init W1 || W2 with { x1 = v0, x2 = v0 }
"""


@pytest.mark.parametrize("text, transitions", [(TRAFFIC_TEXT, 15), (W22, 24)],
                         ids=["traffic", "W(2,2)"])
def test_allow_sees_few_candidates(monkeypatch, text, transitions):
    """The allow rule calls names_of once per non-tau candidate; on the
    translation nearly every candidate is kept (the unrestricted rule
    built 10,400 candidates for the 24 transitions of W(2,2))."""
    spec, init = parse_spec(text)
    out = translate_init(spec, init.root, init.valuation)
    calls = []
    names_of = gvpa.mcrl2.names_of
    monkeypatch.setattr(gvpa.mcrl2, "names_of",
                        lambda sem: calls.append(sem) or names_of(sem))
    lts, _ = explore_mcrl2(out.menv, [out.top])
    assert len(lts.transitions) == transitions
    assert len(calls) <= 2 * transitions


class TestRandomCommAgainstAllOrders:
    def test_greedy_agrees_with_every_order(self):
        import random
        rng = random.Random(42)
        entries = ((Multiset(["a", "b"]), "c"), (Multiset(["d", "e"]), "f"))
        names = ["a", "b", "c", "d", "e", "f"]
        for _ in range(300):
            sem = of_counts({
                ga(rng.choice(names), str(rng.randint(0, 1))): rng.randint(1, 3)
                for _ in range(rng.randint(0, 4))})
            greedy = apply_comm(entries, sem)
            forms = comm_normal_forms(entries, sem)
            assert forms == {greedy}

    NAMES = "abcde"

    def _entries(self, rng) -> tuple:
        # left-hand sides over a, b, c, d; results anywhere
        entries = {}
        for _ in range(rng.randint(1, 3)):
            lhs = Multiset(rng.choice(self.NAMES[:4]) for _ in range(2))
            entries.setdefault(lhs, rng.choice(self.NAMES))
        return tuple(entries.items())

    def test_overlapping_and_chained_entries(self):
        rng = random.Random(2404)
        unique = overlapping = chained = 0
        for _ in range(3000):
            entries = self._entries(rng)
            sem = of_counts({
                ga(rng.choice(self.NAMES), *rng.choice(((), ("0",)))): rng.randint(1, 3)
                for _ in range(rng.randint(0, 5))})
            got = apply_comm(entries, sem)
            forms = comm_normal_forms(entries, sem)
            assert got in forms
            # overlapping left-hand sides can leave several forms: the
            # entry order picks one
            assert got == reference_apply_comm(entries, sem)
            lhs_names = [n for lhs, _ in entries for n in set(lhs.elements())]
            if len(lhs_names) == len(set(lhs_names)):
                assert forms == {got}
                unique += 1
            overlapping += len(forms) > 1
            chained += got != sem and any(r in lhs_names for _, r in entries)
        assert unique > 1000 and overlapping > 50 and chained > 200


class TestRowNeeds:
    """The needs of `_Keep.row` fire comm entries through the routine
    apply_comm uses; compared with comm per argument group in every
    order."""

    @pytest.mark.parametrize("gen", [gen_mcrl2_term, gen_bind_term],
                             ids=["fragment", "binders"])
    def test_row_needs_against_brute_force(self, gen):
        compared = needing = 0
        for seed in range(300):
            env, root = gen(random.Random(seed))
            for allow in (t for t in _subterms(root) if isinstance(t, MAllow)):
                body, hidden, entries = allow.body, frozenset(), ()
                if isinstance(body, MHide):
                    body, hidden = body.body, body.hidden
                if isinstance(body, MComm):
                    body, entries = body.body, body.entries
                keep = gvpa.mcrl2._keep_for(allow.allowed, hidden, entries)
                if keep is None:  # a chain
                    continue
                steps = list(reference_step_mcrl2(env, body))
                for _, target in steps[:10]:
                    steps += reference_step_mcrl2(env, target)
                for alpha, target in steps[:400]:
                    needs = keep.row(alpha, target, keep.names(alpha))[3]
                    assert needs == reference_needs(allow.allowed, hidden, entries, alpha)
                    compared += 1
                    needing += bool(needs)
        # rows with and without needs both occur
        assert compared > 5000 and 1000 < needing < compared - 1000
