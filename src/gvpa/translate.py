"""Translation of parallel-sequential processes into the mCRL2 fragment.

A dedicated Globs process tracks the global variables; each translated
prefix carries a checkP action whose Boolean parameter encodes the
accumulated condition constraints, so a step can only synchronise with
Globs when the constraints hold for the current values. The verifier
checks the three variable-consistency conditions relating the source LTS
to the translated one, and the theorem checkers compare formula
satisfaction and bisimilarity verdicts across the translation;
`verification_checks` turns their reports into the lines
`verify-translation` prints.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .errors import FragmentError, SpecValidationError
from .hml import (
    FORMULA_RULES, And, Box, Check, Diamond, HFalse, HTrue, HmlFormula, Not, Or,
    SetVar, TRUE, all_labels, formula_str, lts_checker,
)
from .bisim import (
    BisimResult, state_based_bisim, state_based_bisim_on_lts, strong_bisim,
)
from .mcrl2 import (
    DAnd, DBool, DConst, DEq, DVar, DataExpr, MAct, MAllow, MBar, MCall,
    MChoice, MComm, MDELTA, MDeadlock, MHide, MParallel, MPrefix, MSum,
    Mcrl2Process, Mcrl2Spec, Multiset, explore_mcrl2,
)
from .sos import DEFAULT_CONFIG, ExplorationConfig, GvState, Lts, explore, state_str
from .syntax import (
    Action, Choice, Cond, Deadlock, Encap, Name, Parallel, Prefix,
    ProcessExpr, Record, RecursiveSpec, Valuation, comm_names, expr_str,
    label_str, render,
)

#: Action and process names the translation introduces; source specs must
#: not use them.
MACHINERY_NAMES = frozenset(
    {"check", "checkP", "checkG", "assign", "assignP", "assignG",
     "value", "Globs"})


# ---------------------------------------------------------------------------
# Input validation


def _check_seq(expr: ProcessExpr, path: str, problems: list[str]):
    if isinstance(expr, Deadlock):
        return
    if isinstance(expr, Choice):
        _check_seq(expr.left, path + "/left", problems)
        _check_seq(expr.right, path + "/right", problems)
        return
    if isinstance(expr, Cond):
        _check_seq(expr.body, path + "/body", problems)
        return
    if isinstance(expr, Prefix):
        if isinstance(expr.body, Name):
            return
        _check_seq(expr.body, path + "/body", problems)
        return
    if isinstance(expr, Name):
        problems.append(
            f"{path}: bare process name; sequential grammar only allows "
            "names directly under a prefix")
        return
    if isinstance(expr, Parallel):
        problems.append(f"{path}: parallel composition inside a sequential expression")
        return
    if isinstance(expr, Encap):
        problems.append(f"{path}: encapsulation inside a sequential expression")
        return
    problems.append(f"{path}: unsupported construct")


def _check_parseq(expr: ProcessExpr, path: str, problems: list[str]):
    if isinstance(expr, Parallel):
        _check_parseq(expr.left, path + "/left", problems)
        _check_parseq(expr.right, path + "/right", problems)
        return
    if isinstance(expr, Name):
        return
    if isinstance(expr, Encap):
        problems.append(f"{path}: nested encapsulation")
        return
    _check_seq(expr, path, problems)


def validate_parseq(spec: RecursiveSpec,
                    expr: ProcessExpr) -> tuple[frozenset[str], ProcessExpr]:
    """Accepts an optionally encapsulated parallel-sequential expression
    over a sequential recursive specification whose names `_Namer` can
    render and whose comm entries share no action; returns (blocked,
    inner)."""
    problems: list[str] = []
    # the model's comm set would fire the shared action by entry order
    entries = [("|".join(comm_names(key)) + f" -> {result}", key)
               for key, result in spec.comm.entries]
    for i, (first, first_key) in enumerate(entries):
        for second, second_key in entries[i + 1:]:
            shared = first_key & second_key
            if shared:
                problems.append(f"comm entries {first} and {second} share the action "
                                f"{', '.join(sorted(shared))}; the translation needs "
                                "each action in at most one entry")
    clashes = sorted((set(spec.actions) | set(spec.process_names))
                     & MACHINERY_NAMES)
    for name in clashes:
        problems.append(
            f"name {name} collides with an action the translation introduces")
    if not spec.variables:
        problems.append("translation requires at least one global variable")
    for name, body in spec.equations:
        _check_seq(body, f"proc {name}", problems)
    if isinstance(expr, Encap):
        blocked, inner = expr.blocked, expr.body
    else:
        blocked, inner = frozenset(), expr
    _check_parseq(inner, "input", problems)
    try:
        _Namer(spec)
    except SpecValidationError as refusal:
        problems += refusal.violations
    if problems:
        raise SpecValidationError(problems)
    return blocked, inner


# ---------------------------------------------------------------------------
# The expression translation (chi) and Globs


def _slot_binders(n: int) -> tuple[str, ...]:
    return tuple(f"d{i + 1}" for i in range(n))


def _constraint(eps: frozenset[tuple[str, str]], slots: Sequence[str],
                binders: Sequence[str], domain) -> DataExpr:
    ordered = sorted(eps, key=lambda vd: (slots.index(vd[0]), domain.index(vd[1])))
    conjuncts = tuple(
        DEq(DVar(binders[slots.index(var)]), DConst(value))
        for var, value in ordered)
    if not conjuncts:
        return DBool(True)
    if len(conjuncts) == 1:
        return conjuncts[0]
    return DAnd(conjuncts)


def chi(spec: RecursiveSpec, expr: ProcessExpr, slots: Sequence[str],
        eps: frozenset[tuple[str, str]] = frozenset(),
        memo: dict | None = None) -> Mcrl2Process:
    """The six translation clauses; conditions accumulate into the checkP
    constraint of the next prefix, parallel distributes at the top.
    ``slots`` orders the variables of the checkP arguments, as in `Globs`.
    A ``memo`` passed to several calls on one spec translates each
    ``(expr, slots, eps)`` once; one nesting level costs one frame."""
    key = (expr, slots, eps)
    if memo is not None and key in memo:
        return memo[key]
    binders = _slot_binders(len(slots))
    if isinstance(expr, Choice):
        out = MChoice(chi(spec, expr.left, slots, eps, memo),
                      chi(spec, expr.right, slots, eps, memo))
    elif isinstance(expr, Cond):
        out = chi(spec, expr.body, slots, eps | {(expr.var, expr.value)}, memo)
    elif isinstance(expr, Prefix):
        condition = _constraint(eps, slots, binders, spec.domain)
        check_args = tuple(DVar(b) for b in binders) + (condition,)
        if isinstance(expr.label, Action):
            head = MAct(expr.label.name)
        else:
            head = MAct("assignP", (DConst(expr.label.var), DConst(expr.label.value)))
        multi = MBar(head, MAct("checkP", check_args))
        if isinstance(expr.body, Name):
            cont: Mcrl2Process = MCall(expr.body.name)
        else:
            cont = chi(spec, expr.body, slots, memo=memo)
        out = MPrefix(multi, cont)
        for binder in reversed(binders):
            out = MSum(binder, out)
    elif isinstance(expr, Name):
        out = MCall(expr.name)
    elif isinstance(expr, Deadlock):
        out = MDELTA
    elif isinstance(expr, Parallel):
        if eps:
            raise SpecValidationError(
                ["parallel composition under a condition is not translatable"])
        out = MParallel(chi(spec, expr.left, slots, memo=memo),
                        chi(spec, expr.right, slots, memo=memo))
    else:
        raise SpecValidationError([f"untranslatable construct: {expr_str(expr)}"])
    if memo is not None:
        memo[key] = out
    return out


def make_globs(slots: Sequence[str], domain_values: Sequence[str]) -> tuple[str, tuple[str, ...], Mcrl2Process]:
    """The variable tracker: single check, double check (for handshakes),
    check-and-assign per variable, and one value self-loop per variable."""
    n = len(slots)
    params = ("d",) if n == 1 else _slot_binders(n)
    param_args = tuple(DVar(p) for p in params)
    check = MAct("checkG", param_args + (DBool(True),))
    stay = MCall("Globs", param_args)

    summands: list[Mcrl2Process] = [
        MPrefix(check, stay),
        MPrefix(MBar(check, check), stay),
    ]
    for i, slot in enumerate(slots):
        updated = tuple(DVar("new") if j == i else DVar(p)
                        for j, p in enumerate(params))
        summands.append(MSum("new", MPrefix(
            MBar(check, MAct("assignG", (DConst(slot), DVar("new")))),
            MCall("Globs", updated))))
    for i, slot in enumerate(slots):
        summands.append(MPrefix(
            MAct("value", (DConst(slot), DVar(params[i]))), stay))

    body = summands[0]
    for summand in summands[1:]:
        body = MChoice(body, summand)
    return ("Globs", params, body)


# ---------------------------------------------------------------------------
# Pipeline assembly


class TranslationOutput(Record):
    spec: RecursiveSpec
    slots: tuple[str, ...]
    blocked: frozenset[str]
    wrapped: bool               # whether the source root carried the encap
    menv: Mcrl2Spec
    top: Mcrl2Process
    comm_entries: tuple[tuple[Multiset, str], ...]
    allow_names: tuple[str, ...]
    allow_set: frozenset[Multiset]
    hidden: frozenset[str]


#: The comm entries of the machinery, as ``(process side, Globs side,
#: result)``; the model lists them after the source's, in this order.
_MACHINERY_COMM = (("checkP", "checkG", "check"), ("assignP", "assignG", "assign"))


def _comm_sets(spec: RecursiveSpec) -> tuple[tuple[Multiset, str], ...]:
    """The source's comm entries as multisets of their `comm_names`, in
    the order of those names, then the machinery's."""
    gamma = sorted((comm_names(key), result) for key, result in spec.comm.entries)
    return tuple([(Multiset(names), result) for names, result in gamma]
                 + [(Multiset([process, globs]), result)
                    for process, globs, result in _MACHINERY_COMM])


def _psi_term(spec, slots, allow_set, hidden, comm_entries, expr, valuation, memo=None):
    globs_args = tuple(DConst(valuation.value_of(slot)) for slot in slots)
    par = MParallel(chi(spec, expr, slots, memo=memo),
                    MCall("Globs", globs_args))
    return MAllow(allow_set, MHide(hidden, MComm(comm_entries, par)))


def translate_init(spec: RecursiveSpec, root: ProcessExpr,
                   valuation: Valuation) -> TranslationOutput:
    """The translation of an (optionally encapsulated) parallel-sequential
    expression with an initial valuation; check slots are ordered
    lexicographically."""
    blocked, inner = validate_parseq(spec, root)
    slots = tuple(sorted(spec.variables))
    comm_entries = _comm_sets(spec)
    allow_names = tuple(sorted(set(spec.actions) - blocked)) + ("value", "assign")
    allow_set = frozenset(Multiset([name]) for name in allow_names)
    hidden = frozenset({"check"})

    equations = [(name, (), chi(spec, body, slots))
                 for name, body in spec.equations]
    equations.append(make_globs(slots, spec.domain.values))
    menv = Mcrl2Spec(domain=spec.domain.values, equations=tuple(equations))

    return TranslationOutput(
        spec=spec, slots=slots, blocked=blocked,
        wrapped=isinstance(root, Encap), menv=menv,
        top=_psi_term(spec, slots, allow_set, hidden, comm_entries, inner, valuation),
        comm_entries=comm_entries,
        allow_names=allow_names, allow_set=allow_set, hidden=hidden,
    )


# ---------------------------------------------------------------------------
# Formula translation (theta)


def translate_formula(formula: HmlFormula, memo: dict | None = None) -> HmlFormula:
    """check (v=e) becomes a diamond over the value(v,e) self-loop; modal
    label sets carry over as canonical label strings. Formulas are
    hash-consed, so a ``memo`` passed to several calls translates each
    shared subformula once."""
    if memo is None:
        memo = {}
    out = memo.get(formula)
    if out is None:
        out = memo[formula] = _translate(formula, memo)
    return out


def _translate(formula: HmlFormula, memo: dict) -> HmlFormula:
    if isinstance(formula, (HTrue, HFalse)):
        return formula
    if isinstance(formula, Check):
        return Diamond(frozenset({f"value({formula.var},{formula.value})"}), TRUE)
    if isinstance(formula, Not):
        return Not(translate_formula(formula.sub, memo))
    if isinstance(formula, And):
        return And(translate_formula(formula.left, memo),
                   translate_formula(formula.right, memo))
    if isinstance(formula, Or):
        return Or(translate_formula(formula.left, memo),
                  translate_formula(formula.right, memo))
    if isinstance(formula, Diamond):
        return Diamond(frozenset(label_str(l) for l in formula.labels),
                       translate_formula(formula.sub, memo))
    if isinstance(formula, Box):
        return Box(frozenset(label_str(l) for l in formula.labels),
                   translate_formula(formula.sub, memo))
    if isinstance(formula, SetVar):
        raise FragmentError(
            "the formula translation is defined on the check fragment only; "
            "set operators cannot be translated")
    raise TypeError(f"not a formula: {formula!r}")


# ---------------------------------------------------------------------------
# Variable consistency


class ConsistencyReport(Record):
    ok: bool
    condition: int | None = None
    witness: str | None = None

    def as_dict(self) -> dict:
        return {"ok": self.ok, "condition": self.condition, "witness": self.witness}


def build_consistency_map(out: TranslationOutput, gv_lts: Lts,
                          m_lts: Lts) -> tuple[int | None, ...]:
    """Maps the i-th source state to the index of its translated term, or
    to None where that term is not a state of the translated LTS."""
    m_index = {term: i for i, term in enumerate(m_lts.states)}
    # the states share subterms (on a chain each is a suffix of the last)
    memo: dict = {}
    link = []
    for state in gv_lts.states:
        expr = state.expr
        if out.wrapped:
            if not (isinstance(expr, Encap) and expr.blocked == out.blocked):
                raise SpecValidationError(
                    [f"source state lost its encapsulation: {state_str(state)}"])
            expr = expr.body
        link.append(m_index.get(_psi_term(out.spec, out.slots, out.allow_set, out.hidden,
                                          out.comm_entries, expr, state.valuation, memo)))
    return tuple(link)


def verify_variable_consistency(spec: RecursiveSpec, gv_lts: Lts, m_lts: Lts,
                                link: Sequence[int | None]) -> ConsistencyReport:
    """Checks the three conditions in order and reports the first failure;
    a source state without an image fails condition 3 before any is read."""
    for state, m_state in zip(gv_lts.states, link):
        if m_state is None:
            return ConsistencyReport(
                ok=False, condition=3,
                witness=(f"the image of {state_str(state)} is not a state of "
                         "the translated LTS"))
    value_labels = {f"value({v},{d})": (v, d)
                    for v in spec.variables for d in spec.domain.values}
    tl_labels = {label_str(label) for label in all_labels(spec)}

    # Condition 1: reachable translated labels stay inside TL + value loops.
    for src, label, dst in m_lts.transitions:
        if label not in tl_labels and label not in value_labels:
            return ConsistencyReport(
                ok=False, condition=1,
                witness=f"transition {src} --{label}--> {dst}")

    # Condition 2: value(v,d) self-loops exactly at the current value.
    for i, state in enumerate(gv_lts.states):
        m_state = link[i]
        observed = {}
        for label, target in m_lts.successors(m_state):
            if label in value_labels:
                var, value = value_labels[label]
                if target != m_state:
                    return ConsistencyReport(
                        ok=False, condition=2,
                        witness=(f"value({var},{value}) from the image of "
                                 f"{state_str(state)} is not a self-loop"))
                observed[(var, value)] = True
        for var in spec.variables:
            for value in spec.domain.values:
                expected = state.valuation.value_of(var) == value
                if expected != ((var, value) in observed):
                    return ConsistencyReport(
                        ok=False, condition=2,
                        witness=(f"value({var},{value}) self-loop at the image of "
                                 f"{state_str(state)} is "
                                 f"{'missing' if expected else 'spurious'}"))

    # Condition 3: label-for-label correspondence through the map.
    gv_trans = {(i, label_str(label), j) for i, label, j in gv_lts.transitions}
    m_trans = {(s, label, t) for s, label, t in m_lts.transitions}
    for i, label, j in gv_lts.transitions:
        image = (link[i], label_str(label), link[j])
        if image not in m_trans:
            return ConsistencyReport(
                ok=False, condition=3,
                witness=(f"source transition {state_str(gv_lts.states[i])} "
                         f"--{label_str(label)}--> {state_str(gv_lts.states[j])} "
                         "has no image"))
    preimages: dict[int, list[int]] = {}
    for i, m_state in enumerate(link):
        preimages.setdefault(m_state, []).append(i)
    for s, label, t in m_lts.transitions:
        if label not in tl_labels or s not in preimages:
            continue
        if t not in preimages:
            return ConsistencyReport(
                ok=False, condition=3,
                witness=(f"translated transition {s} --{label}--> {t} leaves "
                         f"the image of {state_str(gv_lts.states[preimages[s][0]])}: "
                         f"state {t} is the image of no source state"))
        for i in preimages[s]:
            for j in preimages[t]:
                if (i, label, j) not in gv_trans:
                    return ConsistencyReport(
                        ok=False, condition=3,
                        witness=(f"translated transition {s} --{label}--> {t} has "
                                 f"no source counterpart between "
                                 f"{state_str(gv_lts.states[i])} and "
                                 f"{state_str(gv_lts.states[j])}"))
    return ConsistencyReport(ok=True)


# ---------------------------------------------------------------------------
# End-to-end checks (theorem validation surfaces)


class PipelineResult(Record):
    out: TranslationOutput
    gv_lts: Lts
    m_lts: Lts
    link: tuple[int | None, ...]
    consistency: ConsistencyReport


def run_pipeline(spec: RecursiveSpec, root: ProcessExpr, valuation: Valuation,
                 cfg: ExplorationConfig = DEFAULT_CONFIG) -> PipelineResult:
    """Translate, generate both LTSs, build the state map, verify."""
    out = translate_init(spec, root, valuation)
    gv_lts, _ = explore(spec, [GvState(root, valuation)], cfg)
    m_lts, _ = explore_mcrl2(out.menv, [out.top], cfg)
    link = build_consistency_map(out, gv_lts, m_lts)
    report = verify_variable_consistency(spec, gv_lts, m_lts, link)
    return PipelineResult(out=out, gv_lts=gv_lts, m_lts=m_lts, link=link,
                          consistency=report)


class Theorem4Report(Record):
    formula: HmlFormula
    source_verdict: bool
    translated_verdict: bool

    @property
    def agrees(self) -> bool:
        return self.source_verdict == self.translated_verdict


def check_theorem4(pipeline: PipelineResult,
                   formulas: Sequence[HmlFormula]) -> list[Theorem4Report]:
    """Evaluates check-fragment formulas at the roots of both sides of the
    translation, one report per formula in order.

    Every formula is translated before any is evaluated, through one memo,
    so a set operator is rejected before a state is read. One checker of
    each explored LTS answers all the formulas: a check-fragment formula
    only reaches states the exploration already holds, so no state is
    stepped again and no cap can trip."""
    memo: dict = {}
    translated = [translate_formula(formula, memo) for formula in formulas]
    gv, m = pipeline.gv_lts, pipeline.m_lts
    source, target = lts_checker(gv), lts_checker(m)
    return [Theorem4Report(formula=formula,
                           source_verdict=source(gv.initial, formula),
                           translated_verdict=target(m.initial, image))
            for formula, image in zip(formulas, translated)]


class Corollary1Report(Record):
    source: BisimResult
    translated: BisimResult

    @property
    def agrees(self) -> bool:
        return self.source.equivalent == self.translated.equivalent


class PreservationReport(Record):
    """Corollary 1 over every pair of reachable source states; on failure
    ``pair`` holds two source states whose verdicts disagree, and
    ``source_bisimilar`` their state-based verdict."""
    pair: tuple[GvState, GvState] | None
    source_bisimilar: bool | None

    @property
    def ok(self) -> bool:
        return self.pair is None


def check_bisimilarity_preservation(pipeline: PipelineResult) -> PreservationReport:
    """Compares the state-based partition of the source LTS with the strong
    partition of the translated LTS through the state map: two source
    states must share a block exactly when their translations do."""
    gv, m = pipeline.gv_lts, pipeline.m_lts
    source = state_based_bisim_on_lts(gv, gv.initial, gv.initial).history.final
    translated = strong_bisim(m, m.initial, m.initial).history.final
    first_in_source: dict[int, int] = {}
    first_in_translated: dict[int, int] = {}
    for i, image in enumerate(pipeline.link):
        a = first_in_source.setdefault(source[i], i)
        # a state without an image is related to no other on that side
        b = i if image is None else first_in_translated.setdefault(translated[image], i)
        if a != b:
            # the earlier of the two is related to i on one side only
            return PreservationReport(pair=(gv.states[min(a, b)], gv.states[i]),
                                      source_bisimilar=a < b)
    return PreservationReport(pair=None, source_bisimilar=None)


def verification_checks(pipeline: PipelineResult,
                        formulas: Sequence[HmlFormula]) -> list[tuple[str, bool, str]]:
    """The ``(name, ok, detail)`` of every line `verify-translation` prints,
    in order: variable consistency, the state and transition counts, one
    formula-preservation line per formula (Theorem 4) and bisimilarity
    preservation (Corollary 1). Without ``formulas``, each action's
    ``<a> true`` and each ``(x = v)`` are checked."""
    spec, gv, m = pipeline.out.spec, pipeline.gv_lts, pipeline.m_lts
    consistency = pipeline.consistency
    checks = [("variable-consistency", consistency.ok,
               "" if consistency.ok else
               f"condition {consistency.condition}: {consistency.witness}")]
    # every source move has one image, and every state one value loop per variable
    expected = len(gv.transitions) + len(gv.states) * len(spec.variables)
    checks.append(("structure-preservation",
                   len(m.states) == len(gv.states) and len(m.transitions) == expected,
                   f"source {len(gv.states)}/{len(gv.transitions)}, "
                   f"translated {len(m.states)}/{len(m.transitions)}"))
    if not formulas:
        formulas = [Diamond(frozenset({Action(a)}), TRUE) for a in spec.actions]
        formulas += [Check(v, d) for v in spec.variables for d in spec.domain.values]
    checks += [(f"formula-preservation {formula_str(report.formula)}", report.agrees,
                f"source={report.source_verdict} translated={report.translated_verdict}")
               for report in check_theorem4(pipeline, formulas)]
    preservation = check_bisimilarity_preservation(pipeline)
    pair = preservation.pair
    checks.append(("bisimilarity-preservation", preservation.ok,
                   "" if preservation.ok else
                   f"{state_str(pair[0])} and {state_str(pair[1])}: "
                   f"source={preservation.source_bisimilar} "
                   f"translated={not preservation.source_bisimilar}"))
    return checks


# ---------------------------------------------------------------------------
# File emission (.mcrl2 / .mcf)

_MCRL2_RESERVED = frozenset(
    "sort cons map var eqn act glob proc init struct true false if div mod in "
    "lambda forall exists whr end sum dist delta tau block allow hide rename "
    "comm min max pred succ Bool Pos Nat Int Real List Set Bag FSet FBag".split())

#: The identifiers the model declares itself: its sorts, the binders of
#: its sums and of Globs (and the slot binders ``d<k>``) and the machinery.
_OWN_NAMES = MACHINERY_NAMES | {"GvValue", "GvName", "d", "new"}


def _needs_prefix(name: str) -> bool:
    if not name or not (name[0].isalpha() or name[0] == "_"):
        return True
    if not all(ch.isalnum() or ch == "_" for ch in name):
        return True
    return (name in _MCRL2_RESERVED or name in _OWN_NAMES
            or (name[0] == "d" and name[1:].isdigit()))


class _Namer:
    """The one table of the identifiers the model of ``spec`` uses: the
    machinery actions and Globs as themselves, and every source name as a
    valid mCRL2 id distinct from all others (see `_needs_prefix`), with
    the mCRL2 symbol of each domain value and variable name."""

    def __init__(self, spec: RecursiveSpec):
        self.maps: dict[str, dict[str, str]] = {
            "action": {n: n for n in MACHINERY_NAMES - {"Globs"}},
            "proc": {"Globs": "Globs"}}
        self.taken: set[str] = set(_OWN_NAMES)
        self.add("value", "v_", spec.domain.values)
        self.add("var", "g_", spec.variables)
        self.add("action", "a_", spec.actions)
        self.add("proc", "P_", spec.process_names)
        self.symbols = dict(self.maps["value"])
        for var in spec.variables:
            if var in self.symbols:
                raise SpecValidationError(
                    [f"variable {var} also names a domain value; the rendered "
                     "model cannot keep both"])
            self.symbols[var] = self.maps["var"][var]

    def add(self, kind: str, prefix: str, names: Iterable[str]):
        table = self.maps.setdefault(kind, {})
        for name in names:
            rendered = f"{prefix}{name}" if _needs_prefix(name) else name
            if rendered in self.taken:
                raise SpecValidationError(
                    [f"cannot render {kind} name {name!r}: identifier "
                     f"{rendered!r} is already in use"])
            self.taken.add(rendered)
            table[name] = rendered

    def get(self, kind: str, name: str) -> str:
        return self.maps[kind][name]


_M_CHOICE, _M_PAR, _M_PREFIX, _M_ATOM = 0, 1, 2, 3
# a data expression shares the scale: `&&` is loosest and `==` binds
# tighter; a multi-action's `|` sits below an atom, so a prefix keeps a
# multi-part action in parentheses
_M_AND, _M_EQ, _M_BAR = _M_CHOICE, _M_PAR, _M_PREFIX


def render_mcrl2_spec(out: TranslationOutput, namer: _Namer) -> str:
    """The .mcrl2 model under the names of `_Namer`; deterministic,
    byte-stable rendering."""
    symbols = namer.symbols

    def call(name: str, args) -> str:
        if not args:
            return name
        return f"{name}({', '.join(render(arg, rules) for arg in args)})"

    rules = {
        DConst: (_M_ATOM, (), lambda expr: symbols[expr.symbol]),
        DBool: (_M_ATOM, (), lambda expr: "true" if expr.value else "false"),
        DVar: (_M_ATOM, (), lambda expr: expr.name),
        DEq: (_M_EQ, (("left", _M_ATOM), ("right", _M_ATOM)),
              lambda expr, left, right: f"{left} == {right}"),
        DAnd: (_M_AND, (), lambda expr: " && ".join(
            render(c, rules, _M_EQ) for c in expr.conjuncts)),
        MAct: (_M_ATOM, (), lambda act: call(namer.get("action", act.name), act.args)),
        MBar: (_M_BAR, (("left", _M_BAR), ("right", _M_BAR)),
               lambda act, left, right: f"{left}|{right}"),
        MDeadlock: (_M_ATOM, (), lambda proc: "delta"),
        MCall: (_M_ATOM, (), lambda proc: call(namer.get("proc", proc.name), proc.args)),
        MPrefix: (_M_PREFIX, (("action", _M_ATOM), ("body", _M_PREFIX)),
                  lambda proc, action, body: f"{action} . {body}"),
        MSum: (_M_ATOM, (("body", _M_CHOICE),),
               lambda proc, body: f"(sum {proc.var}: GvValue . {body})"),
        MParallel: (_M_PAR, (("left", _M_PAR), ("right", _M_PREFIX)),
                    lambda proc, left, right: f"{left} || {right}"),
        MChoice: (_M_CHOICE, (("left", _M_CHOICE), ("right", _M_PAR)),
                  lambda proc, left, right: f"{left} + {right}"),
    }

    lines = ["% mCRL2 model generated from a global-variable process specification.",
             ""]
    lines.append("sort GvValue = struct "
                 + " | ".join(symbols[v] for v in out.spec.domain.values) + ";")
    lines.append("sort GvName = struct "
                 + " | ".join(symbols[v] for v in out.spec.variables) + ";")
    lines.append("")

    lines.append("act")
    plain = sorted(namer.get("action", a) for a in out.spec.actions)
    if plain:
        lines.append("  " + ", ".join(plain) + ";")
    lines.append("  assign, assignG, assignP: GvName # GvValue;")
    lines.append("  value: GvName # GvValue;")
    check_sorts = " # ".join(["GvValue"] * len(out.slots)) + " # Bool"
    lines.append(f"  check, checkG, checkP: {check_sorts};")
    lines.append("")

    lines.append("proc")
    for name, params, body in out.menv.equations:
        rendered_body = render(body, rules)
        shown = namer.get("proc", name)
        if params:
            plist = ", ".join(f"{p}: GvValue" for p in params)
            lines.append(f"  {shown}({plist}) = {rendered_body};")
        else:
            lines.append(f"  {shown} = {rendered_body};")
    lines.append("")

    allow_names = ", ".join(namer.get("action", name) for name in out.allow_names)
    # a multiset lists its names sorted; the machinery's entries list the
    # process side first
    parties = [(lhs.elements(), result) for lhs, result in out.comm_entries
               if result not in MACHINERY_NAMES]
    parties += [((process, globs), result) for process, globs, result in _MACHINERY_COMM]
    comm_part = ", ".join(
        "|".join(namer.get("action", n) for n in names)
        + " -> " + namer.get("action", result)
        for names, result in parties)
    hide_part = ", ".join(sorted(out.hidden))
    inner_par = out.top.body.body.body  # MAllow(MHide(MComm(parallel)))
    par = render(inner_par, rules)
    lines.append(f"init allow({{{allow_names}}}, hide({{{hide_part}}}, "
                 f"comm({{{comm_part}}}, {par})));")
    return "\n".join(lines) + "\n"


def _mcf_action(label: str, namer: _Namer) -> str:
    if "(" not in label:
        return namer.get("action", label)
    name, rest = label.split("(", 1)
    args = ", ".join(namer.symbols.get(a, a) for a in rest.rstrip(")").split(","))
    return f"{namer.get('action', name)}({args})"


def _not_on_mcrl2_side(formula: HmlFormula):
    raise FragmentError(
        "emit translated formulas; check/set do not exist on the mCRL2 side")


def render_mcf(formula: HmlFormula, namer: _Namer) -> str:
    """A single translated formula in mCRL2 modal-formula syntax, under the
    names of `_Namer`."""
    def modal(formula, sub):
        acts = " || ".join(sorted(_mcf_action(l, namer) for l in formula.labels))
        return f"<{acts}>{sub}" if formula.__class__ is Diamond else f"[{acts}]{sub}"

    level, children, _ = FORMULA_RULES[Diamond]
    rules = {**FORMULA_RULES,
             Diamond: (level, children, modal),
             Box: (level, children, modal),
             Check: (level, (), _not_on_mcrl2_side),
             SetVar: (level, (), _not_on_mcrl2_side)}
    return render(formula, rules) + "\n"


def emit_mcrl2_files(out: TranslationOutput,
                     formulas: Sequence[HmlFormula] = (),
                     base: str = "model") -> dict[str, str]:
    """Translated model plus one .mcf per (already translated) formula."""
    namer = _Namer(out.spec)
    files = {f"{base}.mcrl2": render_mcrl2_spec(out, namer)}
    for i, formula in enumerate(formulas, start=1):
        files[f"{base}_prop{i}.mcf"] = render_mcf(formula, namer)
    return files


def check_corollary1(spec: RecursiveSpec, p: ProcessExpr, q: ProcessExpr,
                     v1: Valuation, v2: Valuation,
                     cfg: ExplorationConfig = DEFAULT_CONFIG) -> Corollary1Report:
    """State-based bisimilarity of sources versus strong bisimilarity of
    their translations, on the joint translated LTS."""
    source = state_based_bisim(spec, GvState(p, v1), GvState(q, v2), cfg)
    out_p = translate_init(spec, p, v1)
    out_q = translate_init(spec, q, v2)
    m_lts, (ip, iq) = explore_mcrl2(out_p.menv, [out_p.top, out_q.top], cfg)
    translated = strong_bisim(m_lts, ip, iq)
    return Corollary1Report(source=source, translated=translated)
