"""Interned terms: in each of the three term languages (process
expressions, HML formulas, mCRL2 terms) equal terms are one object.
Records, their non-interned sibling, behave as the dataclasses they
replace."""
import ast
import copy
import dataclasses
import pathlib
import pickle
import random

import pytest

from genspecs import (
    gen_mcrl2_term, gen_pair, gen_parseq_spec, gen_spec, ring_text,
    worker_grid_text,
)
from oracles import enumerate_check_formulas

from gvpa import bisim, hml, mcrl2, parser, sos, syntax, translate
from gvpa.hml import (
    Box, Check, Diamond, FALSE, HmlFormula, TRUE, all_labels, build_state_space,
    parse_formula,
)
from gvpa.mcrl2 import (
    DConst, DataExpr, GroundAction, MAct, MCall, MDELTA, MPrefix, Mcrl2Process,
    MultiAction, Multiset, _StepTable, explore_mcrl2,
)
from gvpa.parser import parse_spec
from gvpa.sos import ExplorationConfig, GvState, Payloads, Transitions, expression_closure
from gvpa.syntax import (
    Action, Assign, DELTA, Encap, Name, Parallel, Prefix, ProcessExpr, Record,
    Term, Valuation,
)
from gvpa.translate import (
    Theorem4Report, check_bisimilarity_preservation, check_theorem4, run_pipeline,
    translate_formula,
)

TERM_CLASSES = {
    syntax: {"Action", "Assign", "ProcessExpr", "Prefix", "Deadlock", "Choice",
             "Parallel", "Encap", "Name", "Cond"},
    hml: {"HmlFormula", "HTrue", "HFalse", "Check", "Not", "And", "Or",
          "Diamond", "Box", "SetVar"},
    mcrl2: {"GroundAction", "DataExpr", "DConst", "DBool", "DVar", "DEq", "DAnd",
            "MultiAction", "MTau", "MAct", "MBar", "Mcrl2Process", "MPrefix",
            "MDeadlock", "MChoice", "MParallel", "MAllow", "MCall", "MSum",
            "MHide", "MComm"},
}


def _subterms(roots) -> list:
    """Every term reachable from the roots through fields, tuples,
    frozensets and multisets, each object once."""
    seen: dict = {}
    todo = list(roots)
    while todo:
        value = todo.pop()
        if isinstance(value, Term):
            if id(value) not in seen:
                seen[id(value)] = value
                todo.extend(getattr(value, f) for f in type(value)._fields)
        elif isinstance(value, (tuple, frozenset)):
            todo.extend(value)
        elif isinstance(value, Multiset):
            todo.extend(value.elements())
    return list(seen.values())


def _structure(value, memo: dict):
    """A structural key of a value that never uses the terms' own
    equality or hash."""
    if isinstance(value, Term):
        key = memo.get(id(value))
        if key is None:
            key = memo[id(value)] = (type(value), tuple(
                _structure(getattr(value, f), memo) for f in type(value)._fields))
        return key
    if isinstance(value, tuple):
        return ("tuple",) + tuple(_structure(v, memo) for v in value)
    if isinstance(value, frozenset):
        return ("frozenset", frozenset(_structure(v, memo) for v in value))
    if isinstance(value, Multiset):
        return ("multiset", frozenset((_structure(e, memo), c) for e, c in value.items()))
    return (type(value), value)


def _assert_maximally_shared(terms, base) -> list:
    """No two objects among the subterms have one structure; returns the
    subterms, after checking that the corpus has some of the given base."""
    found = _subterms(terms)
    assert sum(isinstance(t, base) for t in found) > 20
    memo: dict = {}
    by_structure: dict = {}
    for term in found:
        by_structure.setdefault(_structure(term, memo), []).append(term)
    twins = [group for group in by_structure.values() if len(group) > 1]
    assert not twins, f"equal but distinct terms: {twins[0][:2]!r}"
    return found


def _process_corpus() -> list:
    """Equation bodies, closure expressions and labels of the seeded
    corpora and of the W/R families."""
    rng = random.Random(4242)
    cases = []
    for _ in range(8):
        spec = gen_spec(rng)
        cases.append((spec, gen_pair(rng, spec)))
    for n_vars in (1, 2, 1):
        spec, root, _ = gen_parseq_spec(rng, n_vars=n_vars)
        cases.append((spec, (root,)))
    for text in (worker_grid_text(2, 3), ring_text(3, 3)):
        spec, init = parse_spec(text)
        cases.append((spec, (init.root,)))
    terms = []
    for spec, roots in cases:
        exprs, _, transitions, _ = expression_closure(spec, roots)
        terms += [body for _, body in spec.equations] + list(exprs)
        terms += [label for _, label, _ in transitions.labels]
    return terms


def _formula_corpus() -> list:
    """`enumerate_check_formulas` output, its translation and parsed
    formulas."""
    terms = []
    for text in (worker_grid_text(2, 2), ring_text(2, 2)):
        spec, _ = parse_spec(text)
        formulas = enumerate_check_formulas(spec, all_labels(spec), max_depth=2,
                                            cap=1500)
        terms += formulas + [translate_formula(f) for f in formulas]
    spec, _ = parse_spec(worker_grid_text(2, 2))
    terms.append(parse_formula("set x1 := v1 . <w1> (x1 = v1) && [*] !false", spec))
    return terms


def _mcrl2_corpus() -> list:
    """Translated equations and states, and reachable terms of the
    fragment unlike the translation, with their ground actions."""
    rng = random.Random(4343)
    terms = []
    for n_vars in (1, 2):
        spec, root, valuation = gen_parseq_spec(rng, n_vars=n_vars)
        pipe = run_pipeline(spec, root, valuation)
        terms += [body for _, _, body in pipe.out.menv.equations]
        terms += list(pipe.m_lts.states)
    for seed in range(6):
        env, root = gen_mcrl2_term(random.Random(seed))
        lts, _ = explore_mcrl2(env, [root])
        for state in lts.states[:20]:
            terms.append(state)
            terms += [sem for sem, _ in _StepTable(env).steps(state)]
    return terms


@pytest.fixture(scope="module")
def corpora() -> dict:
    return {ProcessExpr: _process_corpus(), HmlFormula: _formula_corpus(),
            Mcrl2Process: _mcrl2_corpus()}


class TestMaximalSharing:
    @pytest.mark.parametrize("base", [ProcessExpr, HmlFormula, Mcrl2Process],
                             ids=["process", "hml", "mcrl2"])
    def test_equal_terms_are_one_object(self, corpora, base):
        found = _assert_maximally_shared(corpora[base], base)
        for term in found:
            assert hash(term) == object.__hash__(term)

    def test_mcrl2_corpus_covers_data_actions_and_ground_actions(self, corpora):
        found = _subterms(corpora[Mcrl2Process])
        for kind in (DataExpr, MultiAction, GroundAction):
            assert any(isinstance(t, kind) for t in found)

    def test_building_again_returns_the_same_objects(self):
        text = ring_text(3, 3)
        (first, init1), (second, init2) = parse_spec(text), parse_spec(text)
        assert init1.root is init2.root
        for (_, a), (_, b) in zip(first.equations, second.equations):
            assert a is b
        rebuilt = [type(t)(*(getattr(t, f) for f in type(t)._fields))
                   for t in _subterms([init1.root])]
        assert all(a is b for a, b in zip(rebuilt, _subterms([init1.root])))

    def test_trailing_defaults_and_keywords_are_normalised(self):
        assert MAct("a") is MAct("a", ()) is MAct(name="a", args=())
        assert MCall("P") is MCall("P", ())
        assert GroundAction("a") is GroundAction("a", ())
        assert Prefix(label=Action("a"), body=DELTA) is Prefix(Action("a"), DELTA)
        assert Encap(body=Name("P"), blocked=frozenset({"a"})) is Encap(
            frozenset({"a"}), Name("P"))

    def test_bad_arguments_raise(self):
        with pytest.raises(TypeError):
            Prefix(Action("a"))
        with pytest.raises(TypeError):
            Action("a", "b")
        with pytest.raises(TypeError):
            Name(nme="P")

    def test_one_interning_base_and_no_dataclass(self):
        for module, names in TERM_CLASSES.items():
            found = {name for name, value in vars(module).items()
                     if isinstance(value, type) and issubclass(value, Term)
                     and value.__module__ == module.__name__ and value is not Term}
            assert found == names
            for name in names:
                assert not dataclasses.is_dataclass(getattr(module, name))


class TestTermBehaviour:
    @pytest.mark.parametrize("base", [ProcessExpr, HmlFormula, Mcrl2Process],
                             ids=["process", "hml", "mcrl2"])
    def test_pickle_and_copy_return_the_same_object(self, corpora, base):
        for term in _subterms(corpora[base][:300]):
            assert pickle.loads(pickle.dumps(term)) is term
            assert copy.copy(term) is term
            assert copy.deepcopy(term) is term

    @pytest.mark.parametrize("base", [ProcessExpr, HmlFormula, Mcrl2Process],
                             ids=["process", "hml", "mcrl2"])
    def test_repr_is_the_dataclass_format(self, corpora, base):
        twins: dict = {}
        for term in _subterms(corpora[base]):
            cls = type(term)
            if cls not in twins:
                twins[cls] = dataclasses.make_dataclass(cls.__qualname__, cls._fields)
            assert repr(term) == repr(twins[cls](*(getattr(term, f) for f in cls._fields)))

    def test_repr_examples(self):
        assert repr(Parallel(Prefix(Assign("x", "1"), DELTA), Name("P"))) == (
            "Parallel(left=Prefix(label=Assign(var='x', value='1'), body=Deadlock()),"
            " right=Name(name='P'))")
        assert repr(Diamond(frozenset({Action("a")}), Check("x", "1"))) == (
            "Diamond(labels=frozenset({Action(name='a')}), sub=Check(var='x', value='1'))")
        assert repr(MPrefix(MAct("a", (DConst("v"),)), MDELTA)) == (
            "MPrefix(action=MAct(name='a', args=(DConst(symbol='v'),)), body=MDeadlock())")
        assert repr(GroundAction("a", ("v", True))) == "GroundAction(name='a', args=('v', True))"

    @pytest.mark.parametrize("modality", [Diamond, Box])
    def test_empty_modal_label_set_raises(self, modality):
        for _ in range(2):
            with pytest.raises(ValueError, match="nonempty"):
                modality(frozenset(), TRUE)
            with pytest.raises(ValueError, match="nonempty"):
                modality(labels=frozenset(), sub=FALSE)

    def test_terms_are_immutable(self):
        node = Prefix(Action("a"), DELTA)
        with pytest.raises(AttributeError):
            node.body = Name("P")
        with pytest.raises(AttributeError):
            del node.label
        with pytest.raises(AttributeError):
            node.other = 1
        assert node.body is DELTA


RECORD_CLASSES = {
    syntax: {"DomainDef", "Valuation", "CommFunction", "RecursiveSpec", "InitSpec"},
    parser: {"Token"},
    sos: {"GvState", "ExplorationConfig", "Lts"},
    hml: {"StateSpace"},
    bisim: {"BisimResult"},
    mcrl2: {"Mcrl2Spec"},
    translate: {"TranslationOutput", "ConsistencyReport", "PipelineResult",
                "Theorem4Report", "Corollary1Report", "PreservationReport"},
}


def _records(value, found):
    """The records reachable from a value through record fields, tuples
    and lists, by class."""
    if isinstance(value, Record):
        if found.setdefault(type(value), value) is value:
            for name in value._fields:
                _records(getattr(value, name), found)
    elif isinstance(value, (tuple, list)):
        for item in value[:3]:
            _records(item, found)
    return found


def _plain(value):
    """A value with each record spelled as its class and fields, each
    `Transitions` store, which compares by identity, as its triples, each
    refinement `History`, which also compares by identity, as its rounds,
    and each `Payloads`, likewise, as the tuple of its payloads."""
    if isinstance(value, Record):
        return type(value), tuple(_plain(getattr(value, name)) for name in value._fields)
    if isinstance(value, (Transitions, bisim.History)):
        return tuple(value)
    if isinstance(value, Payloads):
        return tuple(map(_plain, value))
    if isinstance(value, (tuple, list)):
        return type(value)(map(_plain, value))
    return value


@pytest.fixture(scope="module")
def records():
    """One instance of every record class, from one translation run."""
    spec, init = parse_spec(ring_text(2, 2))
    pipe = run_pipeline(spec, init.root, init.valuation)
    found = _records(pipe, {})
    _records(check_theorem4(pipe, [parse_formula("<t1> true", spec)]), found)
    _records(check_bisimilarity_preservation(pipe), found)
    _records(build_state_space(spec, [init.root]), found)
    _records(bisim.state_based_bisim_on_lts(pipe.gv_lts, 0, 0), found)
    _records(translate.check_corollary1(spec, init.root, init.root, init.valuation,
                                        init.valuation), found)
    _records(init, found)
    _records(parser.tokenize("a"), found)
    _records(ExplorationConfig(max_states=50), found)
    return found


class TestRecords:
    def test_the_record_classes_and_no_dataclasses_import(self):
        for module, names in RECORD_CLASSES.items():
            found = {name for name, value in vars(module).items()
                     if isinstance(value, type) and issubclass(value, Record)
                     and value.__module__ == module.__name__ and value is not Record}
            assert found == names
        assert sum(map(len, RECORD_CLASSES.values())) == 18
        for path in pathlib.Path(syntax.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = {alias.name for node in ast.walk(tree)
                        if isinstance(node, ast.Import) for alias in node.names}
            imported |= {node.module for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom)}
            assert "dataclasses" not in imported, path.name

    def test_behave_as_the_dataclasses_they_replace(self, records):
        assert {cls.__name__ for cls in records} == set().union(*RECORD_CLASSES.values())
        for cls, record in records.items():
            twin = dataclasses.make_dataclass(cls.__qualname__, cls._fields, frozen=True)
            values = [getattr(record, name) for name in cls._fields]
            assert repr(record) == repr(twin(*values))
            again = cls(*values)
            assert again == record and again is not record
            assert again == cls(**dict(zip(cls._fields, values)))
            assert record != twin(*values)
            assert hash(again) == hash(record) == hash(tuple(values))
            assert _plain(pickle.loads(pickle.dumps(record))) == _plain(record)
            with pytest.raises(AttributeError):
                setattr(record, cls._fields[0], values[0])
            with pytest.raises(AttributeError):
                delattr(record, cls._fields[0])
            with pytest.raises(AttributeError):
                again.other = 1

    def test_cache_slots_are_no_fields(self, records):
        spec = records[syntax.RecursiveSpec]
        assert spec._codes is not None and spec == syntax.RecursiveSpec(
            spec.domain, spec.variables, spec.actions, spec.equations, spec.comm)
        assert sos.Lts._fields == ("states", "transitions", "initial")
        assert sos.Lts._caches == translate.PipelineResult._caches == ()

    def test_constructor_signatures(self):
        state = GvState(Name("P"), Valuation(()))
        assert GvState(valuation=Valuation(()), expr=Name("P")) == state
        assert ExplorationConfig() == ExplorationConfig(100_000)
        assert ExplorationConfig(max_states=8).max_states == 8
        assert Theorem4Report(TRUE, True, False).agrees is False
        for bad in (lambda: GvState(Name("P")),
                    lambda: GvState(Name("P"), Valuation(()), 1),
                    lambda: GvState(Name("P"), Valuation(()), expr=Name("Q")),
                    lambda: ExplorationConfig(max_state=1),
                    lambda: ExplorationConfig(100_000, 4096)):
            with pytest.raises(TypeError):
                bad()
