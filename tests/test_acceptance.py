"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. Random corpora are seeded, so every run checks the same instances.
Golden files are regenerated by setting GVPA_UPDATE_GOLDEN=1.
"""
import os
import pathlib
import random
import time
from collections import Counter

import pytest

from conftest import lts_of
from genspecs import gen_formula, gen_parseq_spec, gen_pair, gen_spec
from oracles import (
    ReferenceGrid, comm_normal_forms, enumerate_check_formulas,
    find_distinguishing_formula, isomorphic, naive_state_based_relation,
    naive_stateless_relation, naive_strong_relation,
)

from gvpa.bisim import (
    distinguishing_formula_state_based, distinguishing_formula_stateless,
    state_based_bisim, stateless_bisim, strong_bisim,
)
from gvpa.hml import (
    Box, Check, Diamond, Not, SetVar, all_labels, build_state_space,
    eval_formula, holds, parse_formula,
)
from gvpa.mcrl2 import GroundAction, Multiset, apply_comm
from gvpa.sos import ExplorationConfig, GvState, Lts, explore, generate_lts
from gvpa.syntax import Parallel, enumerate_valuations, label_str
from gvpa.translate import (
    check_bisimilarity_preservation, check_corollary1, check_theorem4,
    emit_mcrl2_files, run_pipeline, translate_formula, translate_init,
    verify_variable_consistency,
)

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = pathlib.Path(__file__).parent / "golden"
CFG = ExplorationConfig(max_states=5000)


def report(number: int, name: str, ok: bool, started: float, budget=None):
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE-{number:02d} {name}: "
          f"{'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert ok, f"criterion {number} failed"
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def parse_aut(text: str) -> Lts:
    lines = text.strip().splitlines()
    initial, n_trans, n_states = map(int, lines[0][4:].strip("()").split(","))
    transitions = []
    for line in lines[1:]:
        src, rest = line.strip("()").split(",", 1)
        label, dst = rest.rsplit(",", 1)
        transitions.append((int(src), label.strip('"'), int(dst)))
    assert len(transitions) == n_trans
    return lts_of(range(n_states), transitions, initial)


# ---------------------------------------------------------------------------
# Shared corpora


@pytest.fixture(scope="module")
def general_corpus():
    """200 random guarded specs with a comparison pair each (criteria 3/4/11)."""
    rng = random.Random(31337)
    corpus = []
    for _ in range(200):
        spec = gen_spec(rng, closure_cap=50)
        p, q = gen_pair(rng, spec, closure_cap=50)
        corpus.append((spec, p, q))
    return corpus


@pytest.fixture(scope="module")
def parseq_corpus():
    """100 random single-variable parallel-sequential specs with their
    verified pipelines (criteria 7/8/9/10)."""
    rng = random.Random(90210)
    corpus = []
    for _ in range(100):
        spec, root, valuation = gen_parseq_spec(rng)
        pipeline = run_pipeline(spec, root, valuation, CFG)
        corpus.append((spec, root, valuation, pipeline))
    return corpus


@pytest.fixture(scope="module")
def traffic_pipeline(traffic):
    spec, init = traffic
    return run_pipeline(spec, init.root, init.valuation, CFG)


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_01_traffic_light_reproduction(traffic):
    started = time.perf_counter()
    spec, init = traffic
    lts = generate_lts(spec, init, CFG)
    ok = len(lts.states) == 6 and len(lts.transitions) == 9
    golden = parse_aut((GOLDEN / "traffic_example1.aut").read_text())
    renames = {"change_red": "assign(t,red)", "change_green": "assign(t,green)"}
    ours = lts_of(range(len(lts.states)),
                  [(s, label_str(l), t) for s, l, t in lts.transitions], lts.initial)
    ok = ok and isomorphic(golden, ours,
                           label_map=lambda l: renames.get(l, l))
    report(1, "traffic-light LTS reproduction", ok, started, budget=1.0)


def test_criterion_02_congruence_counterexample(example3):
    started = time.perf_counter()
    spec, p, q, r, v0 = example3
    lts, (si, ti) = explore(spec, [GvState(p, v0), GvState(q, v0)], CFG)
    plain = strong_bisim(lts, si, ti).equivalent
    lts2, (s2, t2) = explore(
        spec, [GvState(Parallel(p, r), v0), GvState(Parallel(q, r), v0)], CFG)
    parallel = strong_bisim(lts2, s2, t2).equivalent
    stateless = stateless_bisim(spec, p, q, CFG).equivalent
    ok = plain is True and parallel is False and stateless is False
    report(2, "congruence counterexample verdicts", ok, started, budget=1.0)


def test_criterion_03_distinguishing_formula_soundness(general_corpus):
    started = time.perf_counter()
    ok = True
    for spec, p, q in general_corpus:
        labels = all_labels(spec)
        valuation = enumerate_valuations(spec)[0]
        grid = ReferenceGrid(spec, [p, q])
        s, t = GvState(p, valuation), GvState(q, valuation)

        sl = stateless_bisim(spec, p, q, CFG)
        if not sl.equivalent:
            formula, witness = distinguishing_formula_stateless(sl)
            ok &= (holds(spec, GvState(p, witness), formula, CFG)
                   and not holds(spec, GvState(q, witness), formula, CFG))
        else:
            # the set operator makes distinguishability valuation-independent,
            # so one grid point decides the whole check+set fragment
            found = find_distinguishing_formula(
                grid, s, t, labels, max_depth=max(sl.rounds, 1),
                include_check=True, include_set=True, cap=3000)
            ok &= found is None

        sb = state_based_bisim(spec, s, t, CFG)
        if not sb.equivalent:
            formula = distinguishing_formula_state_based(sb)
            ok &= (holds(spec, s, formula, CFG)
                   and not holds(spec, t, formula, CFG))
        else:
            found = find_distinguishing_formula(
                grid, s, t, labels, max_depth=max(sb.rounds, 1),
                include_check=True, include_set=False, cap=3000)
            ok &= found is None
        if not ok:
            break
    report(3, "distinguishing-formula soundness and completeness", ok,
           started, budget=60.0)


def test_criterion_04_hierarchy(general_corpus):
    started = time.perf_counter()
    ok = True
    for spec, p, q in general_corpus:
        if not stateless_bisim(spec, p, q, CFG).equivalent:
            continue
        for valuation in enumerate_valuations(spec):
            ok &= state_based_bisim(spec, GvState(p, valuation),
                                    GvState(q, valuation), CFG).equivalent
        if not ok:
            break
    report(4, "stateless implies state-based on full valuation grid", ok,
           started)


def test_criterion_05_hml_semantic_laws():
    started = time.perf_counter()
    rng = random.Random(5150)
    ok = True
    checked = 0
    while checked < 500:
        spec = gen_spec(rng)
        p, q = gen_pair(rng, spec)
        space = build_state_space(spec, [p, q], CFG)
        if len(space.states) > 200:
            continue
        labels = list(all_labels(spec))
        everything = frozenset(range(len(space.states)))
        for _ in range(25):
            phi = gen_formula(rng, spec, labels, 3)
            den = eval_formula(space, phi)
            ok &= eval_formula(space, Not(phi)) == everything - den
            label_set = frozenset(
                rng.sample(labels, rng.randint(1, min(3, len(labels)))))
            ok &= (eval_formula(space, Diamond(label_set, phi))
                   == eval_formula(space, Not(Box(label_set, Not(phi)))))
            v = rng.choice(spec.variables)
            e1, e2 = rng.choice(spec.domain.values), rng.choice(spec.domain.values)
            ok &= (eval_formula(space, SetVar(v, e1, SetVar(v, e2, phi)))
                   == eval_formula(space, SetVar(v, e2, phi)))
            ok &= eval_formula(space, SetVar(v, e1, Check(v, e1))) \
                == everything
            checked += 1
            if not ok:
                break
        if not ok:
            break
    report(5, "HML semantic laws on random grids", ok, started, budget=10.0)


def test_criterion_06_multiset_communication_oracle():
    started = time.perf_counter()
    ga = lambda name, *args: GroundAction(name, tuple(args))
    worked = apply_comm(
        ((Multiset(["a", "b"]), "c"),),
        Multiset([ga("a"), ga("a"), ga("b"), ga("b"), ga("b")]))
    ok = worked == Multiset([ga("b"), ga("c"), ga("c")])

    rng = random.Random(606)
    entries = ((Multiset(["a", "b"]), "c"),
               (Multiset(["d", "d"]), "e"),
               (Multiset(["f", "g"]), "h"))
    names = ["a", "b", "d", "f", "g", "c", "e", "h"]
    for _ in range(1000):
        sem = Multiset(Counter({
            ga(rng.choice(names), *([str(rng.randint(0, 1))]
                                    if rng.random() < 0.5 else [])):
                rng.randint(1, 3)
            for _ in range(rng.randint(0, 5))}).elements())
        greedy = apply_comm(entries, sem)
        if comm_normal_forms(entries, sem) != {greedy}:
            ok = False
            break
    report(6, "communication application matches all-orders oracle", ok,
           started)


def test_criterion_07_variable_consistency(traffic_pipeline, parseq_corpus):
    started = time.perf_counter()
    ok = traffic_pipeline.consistency.ok

    def mutants(pipe):
        m = pipe.m_lts
        triples = list(m.transitions)
        value_indices = [i for i, t in enumerate(triples)
                         if t[1].startswith("value(")]
        tl_indices = [i for i, t in enumerate(triples)
                      if not t[1].startswith("value(")]
        if value_indices:
            kept = [t for i, t in enumerate(triples) if i != value_indices[0]]
            yield 2, lts_of(m.states, kept, m.initial)
        if tl_indices:
            spec_labels = sorted(
                {t[1] for t in triples if not t[1].startswith("value(")})
            src, label, dst = triples[tl_indices[0]]
            others = [l for l in spec_labels if l != label]
            if others:
                swapped = list(triples)
                swapped[tl_indices[0]] = (src, others[0], dst)
                yield 3, lts_of(m.states, swapped, m.initial)
            if len(m.states) > 1:
                redirected = list(triples)
                new_dst = (dst + 1) % len(m.states)
                redirected[tl_indices[0]] = (src, label, new_dst)
                yield 3, lts_of(m.states, redirected, m.initial)

    for spec, root, valuation, pipe in parseq_corpus:
        ok &= pipe.consistency.ok
        for expected_condition, mutated in mutants(pipe):
            verdict = verify_variable_consistency(spec, pipe.gv_lts, mutated,
                                                  pipe.link)
            ok &= (not verdict.ok) and verdict.condition == expected_condition
        if not ok:
            break
    report(7, "variable consistency holds and faults are localised", ok,
           started, budget=60.0)


def test_criterion_08_formula_preservation(traffic, traffic_pipeline,
                                           parseq_corpus):
    started = time.perf_counter()
    ok = True
    spec, init = traffic
    entries = [(spec, init.root, init.valuation, traffic_pipeline)]
    entries += list(parseq_corpus)
    for spec_i, root, valuation, pipe in entries:
        labels = all_labels(spec_i)
        formulas = enumerate_check_formulas(spec_i, labels, max_depth=3,
                                            cap=2000)
        reports = check_theorem4(pipe, formulas)
        ok &= [report.formula for report in reports] == formulas
        ok &= all(report.agrees for report in reports)
        if not ok:
            break
    report(8, "check-formula preservation through the translation", ok,
           started)


def _parseq_variant(rng, root):
    """A second parallel-sequential expression over the same spec."""
    from gvpa.syntax import Encap

    blocked = root.blocked if isinstance(root, Encap) else None
    inner = root.body if isinstance(root, Encap) else root
    roll = rng.random()
    if roll < 0.45 and isinstance(inner, Parallel):
        inner = Parallel(inner.right, inner.left)
    elif roll < 0.7 and isinstance(inner, Parallel):
        inner = rng.choice((inner.left, inner.right))
    if blocked is not None:
        return Encap(blocked, inner)
    return inner


def test_criterion_09_corollary1(parseq_corpus):
    started = time.perf_counter()
    rng = random.Random(909)
    ok = True
    for _ in range(100):
        spec, root, valuation, _ = parseq_corpus[
            rng.randrange(len(parseq_corpus))]
        other = _parseq_variant(rng, root)
        valuations = enumerate_valuations(spec)
        v1 = rng.choice(valuations)
        v2 = rng.choice(valuations) if rng.random() < 0.4 else v1
        result = check_corollary1(spec, root, other, v1, v2, CFG)
        ok &= result.agrees
        if not ok:
            break
    # the same corollary for every pair of reachable states of each pipeline
    for _, _, _, pipe in parseq_corpus:
        ok &= check_bisimilarity_preservation(pipe).ok
    report(9, "state-based bisimilarity agrees across the translation", ok,
           started)


def test_criterion_10_structure_preservation(traffic_pipeline, parseq_corpus):
    started = time.perf_counter()
    ok = True
    for spec, _, _, pipe in parseq_corpus + [(None, None, None, traffic_pipeline)]:
        n_vars = len(pipe.out.spec.variables)
        ok &= len(pipe.m_lts.states) == len(pipe.gv_lts.states)
        ok &= len(pipe.m_lts.transitions) == (
            len(pipe.gv_lts.transitions) + len(pipe.gv_lts.states) * n_vars)
        if not ok:
            break
    report(10, "state and transition counts preserved", ok, started)


def test_criterion_11_bruteforce_oracle_equivalence(general_corpus):
    started = time.perf_counter()
    ok = True
    for spec, p, q in general_corpus:
        valuation = enumerate_valuations(spec)[0]
        lts, (si, ti) = explore(
            spec, [GvState(p, valuation), GvState(q, valuation)], CFG)
        if len(lts.states) <= 30:
            final = strong_bisim(lts, si, ti).history[-1]
            naive = naive_strong_relation(lts)
            for i in range(len(lts.states)):
                for j in range(len(lts.states)):
                    ok &= ((i, j) in naive) == (final[i] == final[j])
            sb = state_based_bisim(spec, GvState(p, valuation),
                                   GvState(q, valuation), CFG)
            naive_sb = naive_state_based_relation(sb)
            final_sb = sb.history[-1]
            for i in range(len(sb.states)):
                for j in range(len(sb.states)):
                    ok &= ((i, j) in naive_sb) == (final_sb[i] == final_sb[j])
        sl = stateless_bisim(spec, p, q, CFG)
        if len(sl.states) <= 30:
            naive_sl = naive_stateless_relation(spec, sl.states)
            final_sl = sl.history[-1]
            for i in range(len(sl.states)):
                for j in range(len(sl.states)):
                    ok &= ((i, j) in naive_sl) == (final_sl[i] == final_sl[j])
        if not ok:
            break
    report(11, "partition refinement agrees with naive fixpoints", ok, started)


def test_criterion_12_golden_mcrl2_files(traffic):
    started = time.perf_counter()
    spec, init = traffic
    out = translate_init(spec, init.root, init.valuation)
    # the same three formulas CI passes to `gvpa translate --formulas`
    texts = (DATA / "traffic_props.txt").read_text(encoding="utf-8").splitlines()
    formulas = [translate_formula(parse_formula(text, spec)) for text in texts]
    files = emit_mcrl2_files(out, formulas, base="traffic")
    if os.environ.get("GVPA_UPDATE_GOLDEN") == "1":
        for name, text in files.items():
            (GOLDEN / name).write_text(text, encoding="utf-8")
    ok = True
    for name, text in files.items():
        ok &= (GOLDEN / name).read_text(encoding="utf-8") == text
    report(12, "emitted mCRL2 files byte-match the goldens", ok, started)
