"""Hennessy-Milner logic with valuation checks and valuation rewrites.

A state is numbered ``e + code`` by the key ``e`` of its frame vector, a
multiple of the valuation count, and its valuation code, so a check reads
one digit of the number and the set operator rewrites one. The set
operator may leave the reachable fragment.

One core decides every formula: a checker (`_checker`) that works top
down, memoised on (state, subformula), stepping a state only when a
modality asks for it (Stirling & Walker, "Local model checking in the
modal mu-calculus", TCS 1991). HML has no fixpoints, so a verdict depends
only on the states that the formula's modalities and set operators reach.
A checker answers any number of (state, formula) queries and steps each
state at most once over all of them. `holds` steps a spec's states on
demand; `lts_checker` asks the same core over the transitions of an
explored LTS, reading a check from a state's valuation.

`eval_formula` gives a formula's whole denotation on a grid state space
(`build_state_space`: the reachable-expression closure of the roots
crossed with every valuation, the smallest carrier closed under both
transitions and set) by asking a checker of the grid at every state;
`eval_modal_on_lts` does the same on a plain LTS.
"""
from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .errors import FragmentError, ResourceLimitError, SpecSyntaxError
from .parser import TokenStream, tokenize
from .sos import (
    DEFAULT_CONFIG, ExplorationConfig, GvState, Lts, Transitions, _Stepper,
    expression_closure, state_str,
)
from .syntax import (
    Action, Assign, ProcessExpr, Record, RecursiveSpec, Term, TransitionLabel,
    Valuation, ValuationCodes, label_str, render,
)


class HmlFormula(Term):
    pass


class HTrue(HmlFormula):
    pass


class HFalse(HmlFormula):
    pass


class Check(HmlFormula):
    var: str
    value: str


class Not(HmlFormula):
    sub: HmlFormula


class And(HmlFormula):
    left: HmlFormula
    right: HmlFormula


class Or(HmlFormula):
    left: HmlFormula
    right: HmlFormula


class Diamond(HmlFormula):
    labels: frozenset
    sub: HmlFormula

    def __post_init__(self):
        if not self.labels:
            raise ValueError("modal label set must be nonempty")


class Box(HmlFormula):
    labels: frozenset
    sub: HmlFormula

    def __post_init__(self):
        if not self.labels:
            raise ValueError("modal label set must be nonempty")


class SetVar(HmlFormula):
    var: str
    value: str
    sub: HmlFormula


TRUE = HTrue()
FALSE = HFalse()


def conjunction(parts: Sequence[HmlFormula]) -> HmlFormula:
    """Right-nested conjunction; empty input is `true`."""
    if not parts:
        return TRUE
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = And(part, out)
    return out


def set_all(valuation: Valuation, sub: HmlFormula) -> HmlFormula:
    """One set operator per variable, nested in declaration order."""
    out = sub
    for var, value in reversed(valuation.entries):
        out = SetVar(var, value, out)
    return out


def fragment(formula: HmlFormula) -> str:
    """One of HML, HML^check, HML^set, HML^check+set."""
    has_check = False
    has_set = False
    todo = [formula]
    while todo:
        node = todo.pop()
        if isinstance(node, Check):
            has_check = True
        elif isinstance(node, SetVar):
            has_set = True
            todo.append(node.sub)
        elif isinstance(node, Not):
            todo.append(node.sub)
        elif isinstance(node, (And, Or)):
            todo.extend((node.left, node.right))
        elif isinstance(node, (Diamond, Box)):
            todo.append(node.sub)
    if has_check and has_set:
        return "HML^check+set"
    if has_check:
        return "HML^check"
    if has_set:
        return "HML^set"
    return "HML"


# ---------------------------------------------------------------------------
# Pretty printing

_OR, _AND, _UNARY = 0, 1, 2


def _labels_str(labels: frozenset) -> str:
    rendered = sorted(
        (label_str(l) if isinstance(l, (Action, Assign)) else str(l))
        for l in labels
    )
    return ",".join(rendered)


#: The precedence table of formulas, for `syntax.render`.
FORMULA_RULES = {
    HTrue: (_UNARY, (), lambda f: "true"),
    HFalse: (_UNARY, (), lambda f: "false"),
    Check: (_UNARY, (), lambda f: f"({f.var} = {f.value})"),
    Not: (_UNARY, (("sub", _UNARY),), lambda f, sub: f"!{sub}"),
    Diamond: (_UNARY, (("sub", _UNARY),),
              lambda f, sub: f"<{_labels_str(f.labels)}> {sub}"),
    Box: (_UNARY, (("sub", _UNARY),),
          lambda f, sub: f"[{_labels_str(f.labels)}] {sub}"),
    SetVar: (_UNARY, (("sub", _UNARY),),
             lambda f, sub: f"set {f.var} := {f.value} . {sub}"),
    And: (_AND, (("left", _AND), ("right", _UNARY)),
          lambda f, left, right: f"{left} && {right}"),
    Or: (_OR, (("left", _OR), ("right", _AND)),
         lambda f, left, right: f"{left} || {right}"),
}


def formula_str(formula: HmlFormula) -> str:
    return render(formula, FORMULA_RULES)


# ---------------------------------------------------------------------------
# Parsing


class _FormulaParser:
    def __init__(self, ts: TokenStream, spec: RecursiveSpec):
        self.ts = ts
        self.spec = spec

    def parse(self) -> HmlFormula:
        return self.ts.chain("BARBAR", self._and, Or)

    def _and(self) -> HmlFormula:
        return self.ts.chain("AMPAMP", self._unary, And)

    def _unary(self) -> HmlFormula:
        tok = self.ts.peek()
        if tok.kind == "BANG":
            self.ts.next()
            return Not(self._unary())
        if tok.kind == "LT":
            self.ts.next()
            labels = self._label_set("GT")
            self.ts.expect("GT")
            return Diamond(labels, self._unary())
        if tok.kind == "LBRACK":
            self.ts.next()
            labels = self._label_set("RBRACK")
            self.ts.expect("RBRACK")
            return Box(labels, self._unary())
        if tok.kind == "WORD" and tok.text == "set":
            self.ts.next()
            var, value = self.ts.var_value("COLONEQ", self.spec.variables,
                                           self.spec.domain)
            self.ts.expect("DOT")
            return SetVar(var.text, value.text, self._unary())
        if tok.kind == "WORD" and tok.text in ("true", "false"):
            self.ts.next()
            return TRUE if tok.text == "true" else FALSE
        if tok.kind == "LPAREN":
            test = self.ts.test(self.spec.variables, self.spec.domain)
            if test is not None:
                return Check(*test)
            self.ts.next()
            out = self.parse()
            self.ts.expect("RPAREN")
            return out
        raise self.ts.unexpected("formula")

    def _label_set(self, closing: str) -> frozenset:
        tok = self.ts.peek()
        if tok.kind == closing:
            raise SpecSyntaxError("modal label set must be nonempty",
                                  tok.line, tok.col, expected=("transition label",))
        return frozenset(label for labels in self.ts.separated(self._label)
                         for label in labels)

    def _label(self) -> list[TransitionLabel]:
        tok = self.ts.peek()
        if tok.kind == "STAR":
            self.ts.next()
            labels = list(all_labels(self.spec))
            if not labels:
                raise SpecSyntaxError("* names no label: the spec has none", tok.line, tok.col)
            return labels
        word = self.ts.expect("WORD", "transition label")
        if word.text == "assign":
            return [self.ts.assign_args(self.spec.variables, self.spec.domain)]
        if word.text not in self.spec.actions:
            raise SpecSyntaxError(f"unknown action {word.text}", word.line, word.col)
        return [Action(word.text)]


def all_labels(spec: RecursiveSpec) -> tuple[TransitionLabel, ...]:
    """The full label alphabet TL of a spec, in declaration order."""
    out: list[TransitionLabel] = [Action(a) for a in spec.actions]
    for var in spec.variables:
        for value in spec.domain.values:
            out.append(Assign(var, value))
    return tuple(out)


def _parse(ts: TokenStream, spec: RecursiveSpec) -> HmlFormula:
    out = _FormulaParser(ts, spec).parse()
    ts.expect("EOF", "end of formula")
    return out


def parse_formula(text: str, spec: RecursiveSpec) -> HmlFormula:
    return _parse(TokenStream(tokenize(text)), spec)


def parse_formulas(text: str, spec: RecursiveSpec) -> list[HmlFormula]:
    """The formulas of a text that holds one per line, each of which ends
    in an end-of-input token; a line with no token holds none."""
    tokens = tokenize(text, lines=True)
    ends = [i for i, tok in enumerate(tokens) if tok.kind == "EOF"]
    return [_parse(TokenStream(tokens[a + 1:b + 1]), spec)
            for a, b in zip([-1, *ends], ends) if b > a + 1]


# ---------------------------------------------------------------------------
# Grid state spaces


class StateSpace(Record):
    """Expression closure x full valuation grid, with its transitions.

    State ``e * len(valuations) + v`` is expression ``e`` under the
    valuation of code ``v``.
    """

    spec: RecursiveSpec
    exprs: tuple[ProcessExpr, ...]
    valuations: tuple[Valuation, ...]
    states: tuple[GvState, ...]
    transitions: Transitions
    _expr_index: dict

    def __post_init__(self):
        object.__setattr__(self, "_expr_index",
                           {e: i for i, e in enumerate(self.exprs)})

    def index_of(self, state: GvState) -> int:
        try:
            e_i = self._expr_index[state.expr]
            v_i = self.spec.codes.code(state.valuation)
        except (KeyError, ValueError):
            raise KeyError(f"state outside the grid: {state_str(state)}") from None
        return e_i * len(self.valuations) + v_i


def build_state_space(spec: RecursiveSpec,
                      roots: ProcessExpr | Iterable[ProcessExpr],
                      cfg: ExplorationConfig = DEFAULT_CONFIG) -> StateSpace:
    exprs, valuations, closure, _ = expression_closure(spec, roots, cfg)
    nv = len(valuations)

    def rows():
        for e_i in range(len(exprs)):
            grid_rows = [[] for _ in valuations]
            for (v_i, label, target_v), e_j in closure.successors(e_i):
                grid_rows[v_i].append((label, e_j * nv + target_v))
            yield from grid_rows

    states = tuple(GvState(e, v) for e in exprs for v in valuations)
    return StateSpace(spec=spec, exprs=exprs, valuations=valuations,
                      states=states, transitions=Transitions(rows()))


# ---------------------------------------------------------------------------
# Evaluation


def _checker(successors: Callable[[int], list[tuple]],
             atom: Callable[[HmlFormula, int], bool | int],
             cap: int) -> Callable[[int, HmlFormula], bool]:
    """A checker of one transition system: ``check(i, formula)`` is whether
    the formula holds at state ``i``, for any number of queries.

    A query is evaluated top down with short-circuits. Verdicts are memoised
    on (state, subformula), and the moves of each stepped state are kept
    with the checker, so later queries reuse what earlier ones found.
    ``successors(i)`` lists the ``(label, j)`` moves of state ``i``; it is
    called once per state, and only for the states a modality asks about,
    at most ``cap`` of them over all queries. ``atom(formula, i)`` gives the
    truth of a check at ``i``, or the state a set operator rewrites ``i``
    to, or raises `FragmentError`. One formula level costs one Python frame.
    """
    memo: dict[tuple, bool] = {}
    moves: dict[int, list[tuple]] = {}

    def step(i: int) -> list[tuple]:
        out = moves.get(i)
        if out is None:
            if len(moves) >= cap:
                raise ResourceLimitError(
                    f"stepped-state cap of {cap} exceeded: the formula needs "
                    f"more than {cap} distinct states stepped",
                    limit=cap, reached=cap + 1)
            out = moves[i] = successors(i)
        return out

    def ev(i: int, f: HmlFormula) -> bool:
        cls = f.__class__
        if cls is HTrue:
            return True
        if cls is HFalse:
            return False
        if cls is Check:
            return atom(f, i)
        out = memo.get((i, f))
        if out is not None:
            return out
        if cls is And:
            out = ev(i, f.left) and ev(i, f.right)
        elif cls is Or:
            out = ev(i, f.left) or ev(i, f.right)
        elif cls is Not:
            out = not ev(i, f.sub)
        elif cls is Diamond:
            labels, sub = f.labels, f.sub
            out = False
            for label, j in step(i):
                if label in labels and ev(j, sub):
                    out = True
                    break
        elif cls is Box:
            labels, sub = f.labels, f.sub
            out = True
            for label, j in step(i):
                if label in labels and not ev(j, sub):
                    out = False
                    break
        elif cls is SetVar:
            out = ev(atom(f, i), f.sub)
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[i, f] = out
        return out

    return ev


def _digit_atom(codes: ValuationCodes) -> Callable[[HmlFormula, int], bool | int]:
    """Checks and set operators on states numbered ``e + code`` with ``e``
    a multiple of ``codes.count``, which is a multiple of every digit's
    ``weight * base``, so the digit of a variable reads the same in the
    state number as in its code."""
    base = codes.base

    def atom(formula: Check | SetVar, i: int) -> bool | int:
        weight, digit = codes.test(formula.var, formula.value)
        current = i // weight % base
        if formula.__class__ is Check:
            return current == digit
        return i + (digit - current) * weight

    return atom


def holds(spec: RecursiveSpec, state: GvState, formula: HmlFormula,
          cfg: ExplorationConfig = DEFAULT_CONFIG) -> bool:
    """Whether a formula holds at a state, stepping only the states that the
    formula's modalities and set operators reach.

    ``cfg.max_states`` bounds the distinct states stepped; no valuation is
    enumerated."""
    stepper = _Stepper(spec)
    return _checker(stepper.successors, _digit_atom(spec.codes),
                    cfg.max_states)(stepper.key(state), formula)


def eval_formula(space: StateSpace, formula: HmlFormula) -> frozenset[int]:
    """Denotation of a formula on the grid: the states where it holds."""
    check = _checker(space.transitions.successors, _digit_atom(space.spec.codes),
                     len(space.states))
    return frozenset(i for i in range(len(space.states)) if check(i, formula))


def lts_checker(lts: Lts) -> Callable[[int, HmlFormula], bool]:
    """A checker of an explored LTS. A check reads the valuation of a
    `GvState`; a set operator, or a check on states that carry no
    valuation (the translated side's), raises `FragmentError`."""
    states = lts.states

    def atom(formula: Check | SetVar, i: int) -> bool:
        if formula.__class__ is SetVar or not isinstance(states[i], GvState):
            raise FragmentError("set operators, and checks on states without a "
                                "valuation, are not defined on an explored LTS")
        return states[i].valuation.value_of(formula.var) == formula.value

    return _checker(lts.successors, atom, len(states))


def eval_modal_on_lts(lts: Lts, formula: HmlFormula) -> frozenset[int]:
    """Denotation of a check- and set-free formula on a plain LTS, such as
    the translated side, where labels are canonical multi-action strings."""
    if fragment(formula) != "HML":
        raise FragmentError("check/set operators are not defined on plain LTSs")
    check = lts_checker(lts)
    return frozenset(i for i in range(len(lts.states)) if check(i, formula))
