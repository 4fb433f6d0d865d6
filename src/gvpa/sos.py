"""Operational semantics: single steps, LTS construction, reachability.

States are pairs of a process expression and a valuation. The transition
relation is the least one closed under the rules Pref, Asgn, Con, Rec,
Sum-l/r, Par-l/r, Comm and Enc; communication synchronises actions only,
never assignments. The rules are applied once per expression, giving its
guarded step table, and each valuation filters that table by its code
(`syntax.ValuationCodes`).
"""
from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from .errors import ResourceLimitError
from .syntax import (
    Action, Assign, Choice, Cond, Deadlock, Encap, InitSpec, Name, Parallel,
    Prefix, ProcessExpr, Record, RecursiveSpec, TransitionLabel, Valuation,
    enumerate_valuations, expr_str, label_str,
)


class GvState(Record):
    expr: ProcessExpr
    valuation: Valuation


def state_str(state: GvState) -> str:
    return f"<{expr_str(state.expr)}, {state.valuation}>"


class ExplorationConfig(Record):
    max_states: int = 100_000
    max_valuations: int = 4096

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError("max_states must be at least 1")
        if self.max_valuations < 1:
            raise ValueError("max_valuations must be at least 1")


DEFAULT_CONFIG = ExplorationConfig()


class Lts(Record):
    """Explicit LTS with a designated initial state.

    State payloads are opaque; transitions refer to state indices. The
    index order is the (deterministic) discovery order of the BFS that
    built the system. The successor lists are built on the first call of
    `successors`, so an LTS that is only exported holds its transitions
    once.
    """

    states: tuple
    transitions: tuple[tuple[int, Any, int], ...]
    initial: int = 0
    _succ: list | None

    def successors(self, state: int) -> list[tuple[Any, int]]:
        succ = self._succ
        if succ is None:
            succ = [[] for _ in self.states]
            for src, label, dst in self.transitions:
                succ[src].append((label, dst))
            object.__setattr__(self, "_succ", succ)
        return succ[state]


# ---------------------------------------------------------------------------
# Guarded step tables
#
# A state <p, V> depends on V only through the conditions met while
# deriving the steps of p and through the assignments it performs. So the
# derivation runs once per expression, with the conditions collected as
# tests on valuation codes, and the steps of <p, V> are the rows whose
# tests the code of V passes, in table order.


def guarded_steps(spec: RecursiveSpec, expr: ProcessExpr,
                  memo: _RowMemo | None = None) -> list[tuple]:
    """The guarded step table of an expression.

    One ``(tests, label, target)`` row per derivation by the rules Pref,
    Asgn, Con, Rec, Sum-l/r, Par-l/r, Comm and Enc, in derivation order.
    ``tests`` are the ``(weight, digit)`` pairs (see `ValuationCodes.test`)
    of the conditions on the derivation; a derivation with conflicting
    conditions has no row. A pass hands its `_RowMemo`, so the rows of
    the name bodies and parallel operands it meets are derived once.
    """
    if memo is None:
        memo = _RowMemo(spec)
    return _rows(spec, memo.codes, expr, frozenset(), memo)


class _RowMemo(dict):
    """The rows of name bodies and parallel operands met in one pass,
    keyed by ``(term, unfolding set)``; a missing entry is derived.

    A table's own root is never stored here, so the pass's tables are not
    kept twice."""

    __slots__ = ("spec", "codes")

    def __init__(self, spec: RecursiveSpec):
        super().__init__()
        self.spec = spec
        self.codes = spec.codes

    def __missing__(self, key: tuple) -> list[tuple]:
        expr, unfolding = key
        rows = self[key] = _rows(self.spec, self.codes, expr, unfolding, self)
        return rows


def _conjoin(left: tuple, right: tuple) -> tuple | None:
    """Both sets of tests, or None if they require two values of one
    variable."""
    if not left:
        return right
    if not right:
        return left
    merged = dict(left)
    for weight, digit in right:
        if merged.setdefault(weight, digit) != digit:
            return None
    return tuple(merged.items())


def _rows(spec, codes, expr, unfolding, memo) -> list[tuple]:
    if isinstance(expr, Deadlock):
        return []
    if isinstance(expr, Prefix):
        return [((), expr.label, expr.body)]
    if isinstance(expr, Choice):
        return (_rows(spec, codes, expr.left, unfolding, memo)
                + _rows(spec, codes, expr.right, unfolding, memo))
    if isinstance(expr, Cond):
        test = (codes.test(expr.var, expr.value),)
        out = []
        for tests, label, target in _rows(spec, codes, expr.body, unfolding, memo):
            tests = _conjoin(test, tests)
            if tests is not None:
                out.append((tests, label, target))
        return out
    if isinstance(expr, Name):
        # A name already being unfolded on this derivation path contributes
        # nothing; guarded specs never re-enter, unguarded ones stay finite.
        if expr.name in unfolding:
            return []
        return memo[spec.equation(expr.name), unfolding | {expr.name}]
    if isinstance(expr, Encap):
        return [(tests, label, Encap(expr.blocked, target))
                for tests, label, target in _rows(spec, codes, expr.body, unfolding, memo)
                if not (isinstance(label, Action) and label.name in expr.blocked)]
    if isinstance(expr, Parallel):
        left = memo[expr.left, unfolding]
        right = memo[expr.right, unfolding]
        out = [(tests, label, Parallel(target, expr.right))
               for tests, label, target in left]
        out += [(tests, label, Parallel(expr.left, target))
                for tests, label, target in right]
        if not spec.comm.is_empty():
            right = [row for row in right if isinstance(row[1], Action)]
            for ta, la, pa in left:
                if not isinstance(la, Action):
                    continue
                for tb, lb, pb in right:
                    result = spec.comm.lookup(la.name, lb.name)
                    if result is not None:
                        # both sides step from the same valuation
                        tests = _conjoin(ta, tb)
                        if tests is not None:
                            out.append((tests, Action(result), Parallel(pa, pb)))
        return out
    raise TypeError(f"not a process expression: {expr!r}")


class _Stepper:
    """The expressions of one pass, numbered in the order they are met,
    and the steps of (expression number, valuation code) pairs."""

    def __init__(self, spec: RecursiveSpec):
        self.spec = spec
        self.codes = spec.codes
        self.exprs: list[ProcessExpr] = []
        self._number: dict[ProcessExpr, int] = {}
        self._memo = _RowMemo(spec)
        self._tables: dict[int, tuple] = {}

    def number(self, expr: ProcessExpr) -> int:
        e = self._number.get(expr)
        if e is None:
            e = self._number[expr] = len(self.exprs)
            self.exprs.append(expr)
        return e

    def table(self, e: int) -> tuple[list[tuple], bool]:
        """The expression's table made ready for `moves`: runs of rows with
        the same tests, as ``(tests, [(label, target number, weight,
        digit), ...])``, where a nonzero weight and its digit are what an
        assignment writes; and whether one valuation can derive a step
        twice (two rows with one label and target whose tests can both
        hold)."""
        runs: list[tuple] = []
        seen: dict[tuple, list] = {}
        twice = False
        for tests, label, target in guarded_steps(self.spec, self.exprs[e], self._memo):
            t = self.number(target)
            weight, digit = (self.codes.test(label.var, label.value)
                             if isinstance(label, Assign) else (0, 0))
            if runs and runs[-1][0] == tests:
                runs[-1][1].append((label, t, weight, digit))
            else:
                runs.append((tests, [(label, t, weight, digit)]))
            earlier = seen.setdefault((label, t), [])
            twice = twice or any(_conjoin(other, tests) is not None for other in earlier)
            earlier.append(tests)
        return runs, twice

    def moves(self, table: tuple[list[tuple], bool], code: int) -> list[tuple]:
        """``(label, target number, target code)`` for each step from the
        valuation ``code``, in table order, each step listed once."""
        runs, twice = table
        base = self.codes.base
        out = []
        for tests, rows in runs:
            for w, d in tests:
                if code // w % base != d:
                    break
            else:
                for label, target, weight, digit in rows:
                    out.append((label, target,
                                code + (digit - code // weight % base) * weight
                                if weight else code))
        # a step derived twice keeps its first position, as in a set of rules
        return list(dict.fromkeys(out)) if twice else out

    # A state is searched as its key ``e * count + code``: the number ``e``
    # of its expression and its valuation code.

    def key(self, state: GvState) -> int:
        return self.number(state.expr) * self.codes.count + self.codes.code(state.valuation)

    def state(self, key: int) -> GvState:
        e, code = divmod(key, self.codes.count)
        return GvState(self.exprs[e], self.codes.valuation(code))

    def successors(self, key: int) -> list[tuple]:
        """``(label, target key)`` for each step of a state; each
        expression's table is derived once and kept with the stepper."""
        count = self.codes.count
        e, code = divmod(key, count)
        table = self._tables.get(e)
        if table is None:
            table = self._tables[e] = self.table(e)
        return [(label, t * count + c) for label, t, c in self.moves(table, code)]


# ---------------------------------------------------------------------------
# Single steps


def step(spec: RecursiveSpec, state: GvState) -> tuple[tuple[TransitionLabel, GvState], ...]:
    """All transitions of a state, in deterministic derivation order:
    the rows of the expression's table that the valuation passes."""
    stepper = _Stepper(spec)
    table = stepper.table(stepper.number(state.expr))
    valuation = spec.codes.valuation
    return tuple((label, GvState(stepper.exprs[t], valuation(c)))
                 for label, t, c in stepper.moves(table, spec.codes.code(state.valuation)))


# ---------------------------------------------------------------------------
# Breadth-first exploration


def _bfs(roots: Iterable, successors: Callable[[Any], Iterable[tuple[Any, Any]]],
         cap: int, what: str = "state") -> tuple[list, list[list], tuple[int, ...]]:
    """Breadth-first search from several roots at once.

    Returns the nodes in discovery order, one row of ``(label, j)`` moves
    per node, where ``j`` indexes the nodes, and the index of each root.
    Raises ResourceLimitError rather than store more than ``cap`` nodes.
    """
    index: dict = {}
    nodes: list = []
    rows: list[list] = []

    def register(node) -> int:
        i = index.get(node)
        if i is None:
            if len(nodes) >= cap:
                raise ResourceLimitError(
                    f"{what} cap of {cap} exceeded "
                    f"(frontier size {len(nodes) - len(rows)})",
                    limit=cap, reached=len(nodes) + 1)
            i = index[node] = len(nodes)
            nodes.append(node)
        return i

    root_indices = tuple(register(root) for root in roots)
    while len(rows) < len(nodes):
        rows.append([(label, register(target))
                     for label, target in successors(nodes[len(rows)])])
    return nodes, rows, root_indices


def _bfs_lts(roots: Iterable, successors, cap: int,
             payload: Callable[[Any], Any] | None = None) -> tuple[Lts, tuple[int, ...]]:
    """The reachable LTS of the roots, states indexed in BFS order; each
    state holds ``payload(node)``, or the node itself."""
    nodes, rows, root_indices = _bfs(roots, successors, cap)
    transitions = tuple((i, label, j) for i, row in enumerate(rows) for label, j in row)
    del rows
    states = tuple(nodes if payload is None else map(payload, nodes))
    return Lts(states=states, transitions=transitions, initial=root_indices[0]), root_indices


def explore(spec: RecursiveSpec, roots: Sequence[GvState],
            cfg: ExplorationConfig = DEFAULT_CONFIG) -> tuple[Lts, tuple[int, ...]]:
    """BFS over the reachable fragment from several roots at once, on the
    keys of one `_Stepper`, which keeps each expression's table until the
    call returns."""
    stepper = _Stepper(spec)
    return _bfs_lts([stepper.key(root) for root in roots], stepper.successors,
                    cfg.max_states, stepper.state)


def generate_lts(spec: RecursiveSpec, init: InitSpec | GvState,
                 cfg: ExplorationConfig = DEFAULT_CONFIG) -> Lts:
    if isinstance(init, InitSpec):
        init = GvState(init.root, init.valuation)
    lts, _ = explore(spec, [init], cfg)
    return lts


# ---------------------------------------------------------------------------
# Reachable expressions


def expression_closure(spec: RecursiveSpec, roots: ProcessExpr | Iterable[ProcessExpr],
                       cfg: ExplorationConfig = DEFAULT_CONFIG):
    """Closure of the roots under steps taken from every valuation.

    One pass returns ``(exprs, valuations, rows, root_indices)``. Row ``e``
    lists the moves of ``exprs[e]`` from every valuation, valuation by
    valuation in grid order and in `step` order within one valuation, as
    ``((v, label, v2), e2)``: from ``valuations[v]`` the label leads to
    ``exprs[e2]`` under ``valuations[v2]``; equal triples are one shared
    tuple, as the rows of many expressions repeat them. Valuations are
    given by their codes, and each expression's table is derived once and
    dropped after its row is made.
    """
    if isinstance(roots, ProcessExpr):
        roots = [roots]
    valuations = enumerate_valuations(spec, cfg.max_valuations)
    stepper = _Stepper(spec)
    triples: dict[tuple, tuple] = {}

    def successors(e):
        table = stepper.table(e)
        for v in range(len(valuations)):
            for label, t, c in stepper.moves(table, v):
                triple = (v, label, c)
                yield triples.setdefault(triple, triple), t

    nodes, rows, root_indices = _bfs([stepper.number(root) for root in roots],
                                     successors, cfg.max_states, "expression closure")
    return tuple(stepper.exprs[e] for e in nodes), valuations, rows, root_indices


def reachable_exprs(spec: RecursiveSpec, roots: ProcessExpr | Iterable[ProcessExpr],
                    cfg: ExplorationConfig = DEFAULT_CONFIG) -> tuple[ProcessExpr, ...]:
    """Closure of the roots under steps taken from every valuation."""
    return expression_closure(spec, roots, cfg)[0]


# ---------------------------------------------------------------------------
# Export


def _label_text(label) -> str:
    if isinstance(label, (Action, Assign)):
        return label_str(label)
    return str(label)


def _state_text(payload) -> str:
    if isinstance(payload, GvState):
        return state_str(payload)
    return str(payload)


def export_lts(lts: Lts, fmt: str = "aut") -> str:
    if fmt == "aut":
        lines = [f"des ({lts.initial},{len(lts.transitions)},{len(lts.states)})"]
        for src, label, dst in lts.transitions:
            lines.append(f'({src},"{_label_text(label)}",{dst})')
        return "\n".join(lines) + "\n"
    if fmt == "dot":
        lines = ["digraph lts {", "  rankdir=LR;", '  node [shape=box];',
                 '  init [shape=point];', f"  init -> s{lts.initial};"]
        for i, payload in enumerate(lts.states):
            text = _state_text(payload).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  s{i} [label="{text}"];')
        for src, label, dst in lts.transitions:
            text = _label_text(label).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  s{src} -> s{dst} [label="{text}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")
