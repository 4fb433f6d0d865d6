import random
import re

import pytest

from conftest import lts_of
from genspecs import gen_parseq_spec

from gvpa.errors import FragmentError, SpecValidationError
from gvpa.hml import Box, Diamond, TRUE, parse_formula
from gvpa.mcrl2 import (
    DAnd, DBool, DConst, DEq, DVar, MAct, MBar, MCall, MChoice, MDELTA,
    MParallel, MPrefix, MSum, Mcrl2Spec, Multiset, _StepTable, canonical_label,
    explore_mcrl2,
)
from gvpa.parser import parse_expr, parse_spec
from gvpa import translate
from gvpa.sos import ExplorationConfig
from gvpa.syntax import (
    Action, Assign, Cond, Deadlock, Encap, Name, Parallel, Prefix, Valuation,
)
from gvpa.translate import (
    PipelineResult, check_bisimilarity_preservation, check_corollary1, check_theorem4, chi,
    emit_mcrl2_files, make_globs, run_pipeline, translate_formula,
    translate_init, validate_parseq, verification_checks,
    verify_variable_consistency,
)

CFG = ExplorationConfig(max_states=3000)


class TestValidateParseq:
    def test_traffic_root_ok(self, traffic):
        spec, init = traffic
        blocked, inner = validate_parseq(spec, init.root)
        assert blocked == frozenset()
        assert inner == init.root

    def test_encapsulated_root_ok(self, traffic):
        spec, init = traffic
        wrapped = Encap(frozenset({"brake"}), init.root)
        blocked, inner = validate_parseq(spec, wrapped)
        assert blocked == frozenset({"brake"})
        assert inner == init.root

    def test_parallel_under_prefix_rejected(self, traffic):
        spec, _ = traffic
        bad = Prefix(Action("drive"), Parallel(Name("CAR"), Name("TLC")))
        with pytest.raises(SpecValidationError) as err:
            validate_parseq(spec, bad)
        assert "parallel" in str(err.value)

    def test_nested_encapsulation_rejected(self, traffic):
        spec, _ = traffic
        bad = Encap(frozenset({"drive"}),
                    Parallel(Encap(frozenset({"brake"}), Name("CAR")),
                             Name("TLC")))
        with pytest.raises(SpecValidationError) as err:
            validate_parseq(spec, bad)
        assert "encapsulation" in str(err.value)

    def test_comm_entries_sharing_an_action_rejected(self):
        spec, init = parse_spec(
            "domain { u } vars { x } acts { a, b, c, d, e, f, g }\n"
            "comm { a|b -> c; d|a -> e; f|f -> g; d|f -> c }\n"
            "init a.delta || b.delta with { x = u }")
        with pytest.raises(SpecValidationError) as err:
            validate_parseq(spec, init.root)
        assert err.value.violations == [
            "comm entries a|b -> c and a|d -> e share the action a; the translation "
            "needs each action in at most one entry",
            "comm entries a|d -> e and d|f -> c share the action d; the translation "
            "needs each action in at most one entry",
            "comm entries f|f -> g and d|f -> c share the action f; the translation "
            "needs each action in at most one entry"]

    def test_machinery_name_collision_rejected(self):
        spec, init = parse_spec(
            "domain { 0 } vars { v } acts { value } "
            "init value.delta with { v = 0 }")
        with pytest.raises(SpecValidationError) as err:
            validate_parseq(spec, init.root)
        assert "collides" in str(err.value)


class TestChi:
    def test_condition_then_prefix(self, traffic):
        spec, _ = traffic
        expr = Cond("t", "green", Prefix(Action("drive"), Deadlock()))
        got = chi(spec, expr, tuple(sorted(spec.variables)))
        assert got == MSum("d1", MPrefix(
            MBar(MAct("drive"),
                 MAct("checkP", (DVar("d1"), DEq(DVar("d1"), DConst("green"))))),
            MDELTA))

    def test_deadlock_for_any_constraints(self, traffic):
        spec, _ = traffic
        slots = tuple(sorted(spec.variables))
        assert chi(spec, Deadlock(), slots) == MDELTA
        assert chi(spec, Deadlock(), slots, frozenset({("t", "red")})) == MDELTA

    def test_assign_prefix_with_empty_constraint(self, traffic):
        spec, _ = traffic
        expr = Prefix(Assign("t", "red"), Name("TLC"))
        got = chi(spec, expr, tuple(sorted(spec.variables)))
        assert got == MSum("d1", MPrefix(
            MBar(MAct("assignP", (DConst("t"), DConst("red"))),
                 MAct("checkP", (DVar("d1"), DBool(True)))),
            MCall("TLC")))

    def test_name_maps_to_name(self, traffic):
        spec, _ = traffic
        assert chi(spec, Name("CAR"), tuple(sorted(spec.variables))) == MCall("CAR")

    def test_parallel_distributes(self, traffic):
        spec, _ = traffic
        got = chi(spec, Parallel(Name("CAR"), Name("TLC")), tuple(sorted(spec.variables)))
        assert got == MParallel(MCall("CAR"), MCall("TLC"))


    def test_consistency_map_translates_each_subterm_once(self, monkeypatch):
        # on a chain each source state is a suffix of the one before, so
        # without a memo chi would run once per (state, suffix) pair
        n = 200
        spec, init = parse_spec("domain { 0 }\nvars { x }\nacts { a }\ninit " + "a." * n
                                + "delta with { x = 0 }\n")
        calls = []
        original = translate.chi
        monkeypatch.setattr(translate, "chi", lambda *args, **kwargs:
                            calls.append(args[1]) or original(*args, **kwargs))
        pipe = run_pipeline(spec, init.root, init.valuation)
        assert len(pipe.gv_lts.states) == n + 1
        assert pipe.consistency.ok
        # n + 1 subterms for the model's root; for the map, the n + 1 of
        # the first state and one call for each later state
        assert len(calls) == (n + 1) + (n + 1) + n


class TestMakeGlobs:
    def test_single_variable_shape(self):
        name, params, body = make_globs(("g",), ("green", "red"))
        assert name == "Globs" and params == ("d",)
        summands = []

        def flatten(node):
            if isinstance(node, MChoice):
                flatten(node.left)
                flatten(node.right)
            else:
                summands.append(node)

        flatten(body)
        assert len(summands) == 4
        check = MAct("checkG", (DVar("d"), DBool(True)))
        assert summands[0] == MPrefix(check, MCall("Globs", (DVar("d"),)))
        assert summands[1] == MPrefix(MBar(check, check),
                                      MCall("Globs", (DVar("d"),)))
        assert summands[2] == MSum("new", MPrefix(
            MBar(check, MAct("assignG", (DConst("g"), DVar("new")))),
            MCall("Globs", (DVar("new"),))))
        assert summands[3] == MPrefix(
            MAct("value", (DConst("g"), DVar("d"))),
            MCall("Globs", (DVar("d"),)))

    def test_globs_double_check_step(self):
        env = Mcrl2Spec(domain=("green", "red"),
                        equations=(make_globs(("g",), ("green", "red")),))
        steps = _StepTable(env).steps(MCall("Globs", (DConst("green"),)))
        labels = {canonical_label(("green", "red"), sem) for sem, _ in steps}
        assert "checkG(green,true)|checkG(green,true)" in labels

    def test_value_loop_only_at_current_value(self):
        env = Mcrl2Spec(domain=("green", "red"),
                        equations=(make_globs(("g",), ("green", "red")),))
        steps = _StepTable(env).steps(MCall("Globs", (DConst("green"),)))
        labels = {canonical_label(("green", "red"), sem) for sem, _ in steps}
        assert "value(g,green)" in labels and "value(g,red)" not in labels


class TestPsi:
    def test_traffic_allow_set(self, traffic):
        spec, init = traffic
        out = translate_init(spec, init.root, init.valuation)
        assert out.allow_names == ("brake", "drive", "value", "assign")

    def test_comm_set_with_empty_gamma(self, traffic):
        spec, init = traffic
        out = translate_init(spec, init.root, init.valuation)
        assert out.comm_entries == ((Multiset(["checkP", "checkG"]), "check"),
                                    (Multiset(["assignP", "assignG"]), "assign"))

    def test_psi_of_deadlock_value_loop_only(self, traffic):
        spec, init = traffic
        out = translate_init(spec, Deadlock(), init.valuation)
        lts, _ = explore_mcrl2(out.menv, [out.top])
        assert len(lts.states) == 1
        assert [label for _, label, _ in lts.transitions] == ["value(t,green)"]

    def test_gamma_entries_join_the_comm_set(self):
        spec, init = parse_spec(
            "domain { 0 } vars { v } acts { a, b, c } comm { b|a -> c } "
            "init a.delta || b.delta with { v = 0 }")
        out = translate_init(spec, init.root, init.valuation)
        assert out.comm_entries[0] == (Multiset(["a", "b"]), "c")


class TestTranslateFormula:
    def test_check_becomes_value_diamond(self, traffic):
        spec, _ = traffic
        got = translate_formula(parse_formula("(t = green)", spec))
        assert got == Diamond(frozenset({"value(t,green)"}), TRUE)

    def test_true_unchanged(self):
        assert translate_formula(TRUE) == TRUE

    def test_homomorphic_descent(self, traffic):
        spec, _ = traffic
        got = translate_formula(
            parse_formula("[assign(t, red)] (t = red)", spec))
        assert got == Box(frozenset({"assign(t,red)"}),
                          Diamond(frozenset({"value(t,red)"}), TRUE))

    def test_set_operator_rejected(self, traffic):
        spec, _ = traffic
        with pytest.raises(FragmentError):
            translate_formula(parse_formula("set t := red . true", spec))


class TestVariableConsistency:
    def test_traffic_pipeline_ok(self, traffic):
        spec, init = traffic
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        assert pipe.consistency.ok
        assert len(pipe.m_lts.states) == len(pipe.gv_lts.states)
        assert len(pipe.m_lts.transitions) == (
            len(pipe.gv_lts.transitions) + len(pipe.gv_lts.states))

    def test_deleted_value_loop_detected_as_condition_2(self, traffic):
        spec, init = traffic
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        kept = [t for t in pipe.m_lts.transitions
                if not t[1].startswith("value(")]
        kept += [t for t in pipe.m_lts.transitions
                 if t[1].startswith("value(")][1:]
        mutated = lts_of(pipe.m_lts.states, kept, pipe.m_lts.initial)
        report = verify_variable_consistency(spec, pipe.gv_lts, mutated,
                                             pipe.link)
        assert not report.ok and report.condition == 2

    def test_relabelled_transition_detected_as_condition_3(self, traffic):
        spec, init = traffic
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        transitions = list(pipe.m_lts.transitions)
        index = next(i for i, t in enumerate(transitions) if t[1] == "drive")
        src, _, dst = transitions[index]
        transitions[index] = (src, "brake", dst)
        mutated = lts_of(pipe.m_lts.states, transitions, pipe.m_lts.initial)
        report = verify_variable_consistency(spec, pipe.gv_lts, mutated,
                                             pipe.link)
        assert not report.ok and report.condition == 3

    def test_alien_label_detected_as_condition_1(self, traffic):
        spec, init = traffic
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        transitions = list(pipe.m_lts.transitions)
        src, _, dst = transitions[0]
        transitions[0] = (src, "checkG(green,true)", dst)
        mutated = lts_of(pipe.m_lts.states, transitions, pipe.m_lts.initial)
        report = verify_variable_consistency(spec, pipe.gv_lts, mutated,
                                             pipe.link)
        assert not report.ok and report.condition == 1

    def test_redirected_edge_detected_as_condition_3(self, traffic):
        spec, init = traffic
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        transitions = list(pipe.m_lts.transitions)
        index = next(i for i, t in enumerate(transitions) if t[1] == "drive")
        src, label, dst = transitions[index]
        other = next(i for i in range(len(pipe.m_lts.states)) if i != dst)
        transitions[index] = (src, label, other)
        mutated = lts_of(pipe.m_lts.states, transitions, pipe.m_lts.initial)
        report = verify_variable_consistency(spec, pipe.gv_lts, mutated,
                                             pipe.link)
        assert not report.ok and report.condition == 3

    def test_merged_link_with_divergent_successors_detected(self, example3):
        # two equal-valuation source states forced onto one image: the one
        # with an a-step and the deadlocked one, so condition 3 must fire
        spec, p, _, _, v0 = example3
        pipe = run_pipeline(spec, p, v0, CFG)
        source = next(i for i, s in enumerate(pipe.gv_lts.states)
                      if s.expr == p and s.valuation == v0)
        sink = next(i for i, s in enumerate(pipe.gv_lts.states)
                    if s.expr == Deadlock() and s.valuation == v0)
        link = list(pipe.link)
        link[sink] = link[source]
        report = verify_variable_consistency(spec, pipe.gv_lts, pipe.m_lts, link)
        assert not report.ok and report.condition == 3


    def test_step_out_of_the_image_detected_as_condition_3(self, monkeypatch):
        # with only the first conjunct of x = a, y = b left, the translation
        # steps go from the image of the initial state to a term that is
        # the image of no source state
        import gvpa.translate
        spec, init = parse_spec(
            "domain { a, b }\nvars { x, y }\nacts { go }\n"
            "init (x = a) -> (y = b) -> go.delta with { x = a, y = a }\n")
        assert run_pipeline(spec, init.root, init.valuation, CFG).consistency.ok
        constraint = gvpa.translate._constraint
        monkeypatch.setattr(gvpa.translate, "_constraint",
                            lambda *args: (lambda c: c.conjuncts[0]
                                           if isinstance(c, DAnd) else c)(constraint(*args)))
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        assert [label for _, label, _ in pipe.m_lts.transitions if label == "go"] == ["go"]
        report = pipe.consistency
        assert not report.ok and report.condition == 3
        assert "--go--> 1 leaves the image" in report.witness


class TestTheorems:
    def test_theorem4_traffic_examples(self, traffic):
        spec, init = traffic
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        cases = [("<drive> true", True), ("(t = red)", False),
                 ("[assign(t, red)] (t = red)", True)]
        formulas = [parse_formula(text, spec) for text, _ in cases]
        reports = check_theorem4(pipe, formulas)
        assert [report.formula for report in reports] == formulas
        for report, (_, expected) in zip(reports, cases):
            assert report.agrees
            assert report.source_verdict is expected

    def test_theorem4_builds_no_grid(self, traffic, monkeypatch):
        import gvpa.hml
        import gvpa.sos
        spec, init = traffic
        builds = []
        for module, name in ((gvpa.hml, "build_state_space"),
                             (gvpa.hml, "expression_closure"),
                             (gvpa.sos, "expression_closure")):
            monkeypatch.setattr(module, name, lambda *args, name=name: builds.append(name))
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        texts = ("<drive> true", "(t = red)", "(t = green)",
                 "[assign(t, red)] (t = red)")
        reports = check_theorem4(pipe, [parse_formula(t, spec) for t in texts])
        assert len(reports) == len(texts) and all(r.agrees for r in reports)
        assert builds == []

    def test_corollary1_reflexive(self, traffic):
        spec, init = traffic
        report = check_corollary1(spec, init.root, init.root,
                                  init.valuation, init.valuation, CFG)
        assert report.agrees and report.source.equivalent

    def test_corollary1_different_valuations(self, traffic):
        spec, init = traffic
        red = Valuation((("t", "red"),))
        report = check_corollary1(spec, init.root, init.root,
                                  init.valuation, red, CFG)
        assert report.agrees and not report.source.equivalent

    def test_corollary1_idempotent_choice(self, example3):
        spec, _, q, _, v0 = example3
        from gvpa.syntax import Choice
        report = check_corollary1(spec, Choice(q, q), q, v0, v0, CFG)
        assert report.agrees and report.source.equivalent

    @pytest.mark.parametrize("procs, root, mutate, source_bisimilar", [
        # X and Y are merged; redirecting X's `a` to D splits their images
        ("proc X = a.Y + b.D proc Y = a.X + b.D proc D = delta", "X",
         lambda t: (t[0], t[1], 2) if t[:2] == (0, "a") else t, True),
        # X and Y are apart; relabelling Y's `b` to `a` merges their images
        ("proc X = a.D proc Y = b.D proc D = delta", "c.X + c.Y",
         lambda t: (t[0], "a", t[2]) if t[1] == "b" else t, False),
    ])
    def test_bisimilarity_preservation_names_the_mutated_pair(
            self, procs, root, mutate, source_bisimilar):
        spec, init = parse_spec(
            f"domain {{ 0 }} vars {{ v }} acts {{ a, b, c }} {procs} "
            f"init {root} with {{ v = 0 }}")
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        assert check_bisimilarity_preservation(pipe).ok
        m = pipe.m_lts
        mutant = PipelineResult(pipe.out, pipe.gv_lts,
                                lts_of(m.states, map(mutate, m.transitions), m.initial),
                                pipe.link, pipe.consistency)
        report = check_bisimilarity_preservation(mutant)
        assert not report.ok
        assert {state.expr for state in report.pair} == {Name("X"), Name("Y")}
        assert report.source_bisimilar is source_bisimilar


def _mutant(pipe, mutate):
    """The pipeline with each translated transition passed through
    ``mutate`` (a list in, a list out) and its consistency checked again."""
    m = pipe.m_lts
    m_lts = lts_of(m.states, mutate(list(m.transitions)), m.initial)
    return PipelineResult(pipe.out, pipe.gv_lts, m_lts, pipe.link,
                          verify_variable_consistency(pipe.out.spec, pipe.gv_lts,
                                                      m_lts, pipe.link))


def _replaced(old, new):
    return lambda transitions: [new if t == old else t for t in transitions]


_TRAFFIC_FORMULAS = [
    ("formula-preservation <drive> true", True, "source=True translated=True"),
    ("formula-preservation <brake> true", True, "source=False translated=False"),
    ("formula-preservation (t = green)", True, "source=True translated=True"),
    ("formula-preservation (t = red)", True, "source=False translated=False"),
]


class TestVerificationChecks:
    """The lines `verify-translation` prints, pinned on mutants of a
    correct translation; each mutant breaks the checks its fault reaches."""

    def test_traffic_passes_with_the_default_formulas(self, traffic):
        spec, init = traffic
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        assert verification_checks(pipe, []) == [
            ("variable-consistency", True, ""),
            ("structure-preservation", True, "source 6/9, translated 6/15"),
            *_TRAFFIC_FORMULAS,
            ("bisimilarity-preservation", True, ""),
        ]

    def test_given_formulas_replace_the_defaults(self, traffic):
        spec, init = traffic
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        formula = parse_formula("[assign(t, red)] (t = red)", spec)
        assert [check[0] for check in verification_checks(pipe, [formula])] == [
            "variable-consistency", "structure-preservation",
            "formula-preservation [assign(t,red)] (t = red)",
            "bisimilarity-preservation"]

    def test_dropped_transition(self, traffic):
        spec, init = traffic
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        mutant = _mutant(pipe, lambda ts: [t for t in ts if t != (0, "assign(t,red)", 2)])
        assert verification_checks(mutant, []) == [
            ("variable-consistency", False,
             "condition 3: source transition <CAR || TLC, t=green> --assign(t,red)--> "
             "<CAR || TLC, t=red> has no image"),
            ("structure-preservation", False, "source 6/9, translated 6/14"),
            *_TRAFFIC_FORMULAS,
            ("bisimilarity-preservation", True, ""),
        ]

    def test_relabelled_move(self, traffic):
        spec, init = traffic
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        mutant = _mutant(pipe, _replaced((0, "drive", 1), (0, "assign(t,red)", 1)))
        assert verification_checks(mutant, []) == [
            ("variable-consistency", False,
             "condition 3: source transition <CAR || TLC, t=green> --drive--> "
             "<delta || TLC, t=green> has no image"),
            ("structure-preservation", True, "source 6/9, translated 6/15"),
            ("formula-preservation <drive> true", False, "source=True translated=False"),
            *_TRAFFIC_FORMULAS[1:],
            ("bisimilarity-preservation", True, ""),
        ]

    def test_value_move_off_its_state(self, traffic):
        spec, init = traffic
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        mutant = _mutant(pipe, _replaced((0, "value(t,green)", 0), (0, "value(t,green)", 1)))
        assert verification_checks(mutant, []) == [
            ("variable-consistency", False,
             "condition 2: value(t,green) from the image of <CAR || TLC, t=green> "
             "is not a self-loop"),
            ("structure-preservation", True, "source 6/9, translated 6/15"),
            *_TRAFFIC_FORMULAS,
            ("bisimilarity-preservation", True, ""),
        ]

    def test_added_move_between_images(self, traffic):
        # <CAR || TLC, t=red> cannot drive; its image now drives to that of
        # <delta || TLC, t=red>
        spec, init = traffic
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        mutant = _mutant(pipe, lambda ts: ts + [(2, "drive", 3)])
        assert verification_checks(mutant, []) == [
            ("variable-consistency", False,
             "condition 3: translated transition 2 --drive--> 3 has no source "
             "counterpart between <CAR || TLC, t=red> and <delta || TLC, t=red>"),
            ("structure-preservation", False, "source 6/9, translated 6/16"),
            *_TRAFFIC_FORMULAS,
            ("bisimilarity-preservation", True, ""),
        ]

    def test_redirected_move_splits_images(self):
        # X and Y are bisimilar; sending X's `a` to D splits their images
        spec, init = parse_spec(
            "domain { 0 } vars { v } acts { a, b } "
            "proc X = a.Y + b.D proc Y = a.X + b.D proc D = delta "
            "init X with { v = 0 }")
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        mutant = _mutant(pipe, _replaced((0, "a", 1), (0, "a", 2)))
        assert verification_checks(mutant, []) == [
            ("variable-consistency", False,
             "condition 3: source transition <X, v=0> --a--> <Y, v=0> has no image"),
            ("structure-preservation", True, "source 3/4, translated 3/7"),
            ("formula-preservation <a> true", True, "source=True translated=True"),
            ("formula-preservation <b> true", True, "source=True translated=True"),
            ("formula-preservation (v = 0)", True, "source=True translated=True"),
            ("bisimilarity-preservation", False,
             "<X, v=0> and <Y, v=0>: source=True translated=False"),
        ]

    def test_wrong_transition_count_only(self):
        # two variables: every state carries two value loops
        spec, init = parse_spec(
            "domain { a, b } vars { x, y } acts { go } "
            "proc P = (x = a) -> (y = b) -> go.P + assign(y, b).P "
            "init P with { x = a, y = a }")
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        checks = verification_checks(pipe, [])
        assert checks[1] == ("structure-preservation", True, "source 2/3, translated 2/7")
        assert all(ok for _, ok, _ in checks)
        mutant = _mutant(pipe, lambda ts: ts + ts[-1:])
        assert verification_checks(mutant, []) == [
            checks[0], ("structure-preservation", False, "source 2/3, translated 2/8"),
            *checks[2:]]


class TestLemma3Shape:
    def test_chi_steps_land_in_translations(self, traffic):
        spec, _ = traffic
        from gvpa.sos import reachable_exprs
        closure = reachable_exprs(spec, [Name("CAR"), Name("TLC")])
        slots = tuple(sorted(spec.variables))
        env_eqs = tuple((n, (), chi(spec, b, slots)) for n, b in spec.equations)
        env = Mcrl2Spec(domain=spec.domain.values,
                        equations=env_eqs + (make_globs(("t",), spec.domain.values),))
        images = {chi(spec, e, slots) for e in closure}
        images |= {MCall(n) for n in spec.process_names}
        for expr in closure:
            for sem, target in _StepTable(env).steps(chi(spec, expr, slots)):
                has_true_check = any(
                    e.name == "checkP" and e.args[-1] is True
                    for e, _ in sem.items())
                if has_true_check:
                    assert target in images


class TestEmission:
    def test_traffic_mcrl2_contains_operator_stack(self, traffic):
        spec, init = traffic
        out = translate_init(spec, init.root, init.valuation)
        text = emit_mcrl2_files(out, base="traffic")["traffic.mcrl2"]
        assert ("hide({check}, comm({checkP|checkG -> check, "
                "assignP|assignG -> assign}," in text)
        assert "Globs(green)" in text

    def test_no_formulas_no_mcf(self, traffic):
        spec, init = traffic
        out = translate_init(spec, init.root, init.valuation)
        files = emit_mcrl2_files(out, [], base="traffic")
        assert sorted(files) == ["traffic.mcrl2"]

    def test_translated_check_renders_value_modality(self, traffic):
        spec, init = traffic
        out = translate_init(spec, init.root, init.valuation)
        theta = translate_formula(parse_formula("(t = green)", spec))
        files = emit_mcrl2_files(out, [theta], base="traffic")
        assert files["traffic_prop1.mcf"] == "<value(t, green)>true\n"

    def test_numeric_names_are_sanitised(self):
        spec, init = parse_spec(
            "domain { 0, 1 } vars { v } acts { a } "
            "init (v = 0) -> a.delta with { v = 0 }")
        out = translate_init(spec, init.root, init.valuation)
        text = emit_mcrl2_files(out, base="m")["m.mcrl2"]
        assert "sort GvValue = struct v_0 | v_1;" in text
        assert "Globs(v_0)" in text

    # d, new and d<k> are the model's binders, check and value its actions
    SPEC_A = ("domain { d, new } vars { x } acts { d1, go } "
              "proc P = d1.assign(x, new).P + (x = d) -> go.P init P with { x = d }")
    SPEC_B = ("domain { check, new } vars { value } acts { go } "
              "proc P = go.assign(value, new).P + (value = check) -> go.P "
              "init P with { value = check }")

    @staticmethod
    def _emitted(text):
        spec, init = parse_spec(text)
        out = translate_init(spec, init.root, init.valuation)
        formulas = [translate_formula(parse_formula(f, spec)) for f in (
            f"<{spec.actions[0]}> true", f"({spec.variables[0]} = {spec.domain.values[0]})",
            f"[assign({spec.variables[0]}, new)] ({spec.variables[0]} = new)")]
        return emit_mcrl2_files(out, formulas, base="m")

    @staticmethod
    def _declared(model: str):
        """The struct constructors, the actions and the sum and parameter
        binders a model declares."""
        lines = model.splitlines()
        constructors = [c.strip() for line in lines if line.startswith("sort ")
                        for c in line.split("= struct ")[1].rstrip(";").split("|")]
        acts = lines[lines.index("act") + 1:lines.index("proc") - 1]
        actions = [a.strip() for line in acts
                   for a in line.split(":")[0].rstrip(";").split(",")]
        binders = set(re.findall(r"(\w+): GvValue", "\n".join(lines[lines.index("proc"):])))
        return constructors, actions, binders

    @pytest.mark.parametrize("text, shown, formulas", [
        (SPEC_A, {"struct v_d | v_new;", "  a_d1, go;", "(a_d1|checkP(d1, true))",
                  "assignP(x, v_new)", "d1 == v_d", "init allow({a_d1, go, value, assign}",
                  "P || Globs(v_d)"},
         ["<a_d1>true\n", "<value(x, v_d)>true\n",
          "[assign(x, v_new)]<value(x, v_new)>true\n"]),
        (SPEC_B, {"struct v_check | v_new;", "struct g_value;", "assignP(g_value, v_new)",
                  "assignG(g_value, new)", "value(g_value, d)", "d1 == v_check",
                  "P || Globs(v_check)"},
         ["<go>true\n", "<value(g_value, v_check)>true\n",
          "[assign(g_value, v_new)]<value(g_value, v_new)>true\n"]),
    ], ids=["binders", "machinery"])
    def test_names_of_the_model_take_their_kind_prefix(self, text, shown, formulas):
        files = self._emitted(text)
        model = files["m.mcrl2"]
        for part in shown:
            assert part in model
        constructors, actions, binders = self._declared(model)
        declared = constructors + actions
        assert len(declared) == len(set(declared))
        assert binders == {"d", "new", "d1"}
        assert not binders & set(declared)
        assert [files[f"m_prop{i}.mcf"] for i in (1, 2, 3)] == formulas

    def test_byte_stable(self, traffic):
        spec, init = traffic
        out1 = translate_init(spec, init.root, init.valuation)
        out2 = translate_init(spec, init.root, init.valuation)
        assert emit_mcrl2_files(out1, base="x") == emit_mcrl2_files(out2, base="x")


class TestMultiVariable:
    def test_two_variable_checkp_condition(self):
        spec, init = parse_spec(
            "domain { 0, 1 } vars { u, v } acts { a } "
            "init (u = 0) -> (v = 1) -> a.delta with { u = 0, v = 0 }")
        expr = parse_expr("(u = 0) -> (v = 1) -> a.delta", spec)
        got = chi(spec, expr, slots=("u", "v"))
        condition = DAnd((DEq(DVar("d1"), DConst("0")),
                          DEq(DVar("d2"), DConst("1"))))
        assert got == MSum("d1", MSum("d2", MPrefix(
            MBar(MAct("a"),
                 MAct("checkP", (DVar("d1"), DVar("d2"), condition))),
            MDELTA)))

    def test_two_variable_pipeline_consistent(self):
        spec, init = parse_spec(
            "domain { 0, 1 } vars { u, v } acts { a, b } "
            "proc X = a.assign(u, 1).X "
            "init X || (u = 1) -> b.delta with { u = 0, v = 0 }")
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        assert pipe.consistency.ok
        assert len(pipe.m_lts.transitions) == (
            len(pipe.gv_lts.transitions) + 2 * len(pipe.gv_lts.states))

    def test_variables_declared_out_of_order(self):
        # checkP orders its arguments as Globs does, by sorted name
        spec, init = parse_spec(
            "domain { 0, 1 } vars { v, u } acts { a, b } "
            "proc X = (u = 1) -> a.assign(v, 1).X "
            "init X || assign(u, 1).(v = 1) -> b.delta with { v = 0, u = 0 }")
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        assert pipe.consistency.ok
        assert len(pipe.m_lts.transitions) == (
            len(pipe.gv_lts.transitions) + 2 * len(pipe.gv_lts.states))

    def test_globs_tracks_each_variable(self):
        name, params, body = make_globs(("u", "v"), ("0", "1"))
        assert params == ("d1", "d2")
        env = Mcrl2Spec(domain=("0", "1"), equations=((name, params, body),))
        steps = _StepTable(env).steps(MCall("Globs", (DConst("0"), DConst("1"))))
        labels = {canonical_label(("0", "1"), sem) for sem, _ in steps}
        assert "value(u,0)" in labels and "value(v,1)" in labels
        assert "value(u,1)" not in labels


class TestHandshakeTranslation:
    def test_self_handshake_gamma_a_a(self):
        spec, init = parse_spec(
            "domain { 0, 1 } vars { v } acts { a, c } comm { a|a -> c } "
            "init a.delta || a.delta with { v = 0 }")
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        assert pipe.consistency.ok
        labels = {l for _, l, _ in pipe.m_lts.transitions}
        assert "c" in labels

    def test_encapsulated_partners_leave_only_the_result(self):
        spec, init = parse_spec(
            "domain { 0, 1 } vars { v } acts { a, b, c } comm { a|b -> c } "
            "init encap({a, b}) a.delta || b.delta with { v = 0 }")
        pipe = run_pipeline(spec, init.root, init.valuation, CFG)
        assert pipe.consistency.ok
        labels = {l for _, l, _ in pipe.m_lts.transitions}
        assert labels == {"c", "value(v,0)"}


class TestRandomParseqCorpus:
    def test_pipeline_on_random_specs(self):
        rng = random.Random(2024)
        for _ in range(12):
            spec, root, valuation = gen_parseq_spec(rng)
            pipe = run_pipeline(spec, root, valuation, CFG)
            assert pipe.consistency.ok
            assert len(pipe.m_lts.states) == len(pipe.gv_lts.states)
            assert len(pipe.m_lts.transitions) == (
                len(pipe.gv_lts.transitions)
                + len(pipe.gv_lts.states) * len(spec.variables))


def _parallel_components(node, expr_type):
    if isinstance(node, expr_type):
        return (_parallel_components(node.left, expr_type)
                + _parallel_components(node.right, expr_type))
    return 1


def test_translation_adds_exactly_one_parallel_component(traffic):
    spec, init = traffic
    out = translate_init(spec, init.root, init.valuation)
    source = _parallel_components(init.root, Parallel)
    inner = out.top.body.body.body  # under allow/hide/comm
    translated = _parallel_components(inner, MParallel)
    assert translated == source + 1
