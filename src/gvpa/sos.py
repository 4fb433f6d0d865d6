"""Operational semantics: single steps, LTS construction, reachability.

States are pairs of a process expression and a valuation. The transition
relation is the least one closed under the rules Pref, Asgn, Con, Rec,
Sum-l/r, Par-l/r, Comm and Enc; communication synchronises actions only,
never assignments. The rules are applied once per expression, giving its
guarded step table, and each valuation filters that table by its code
(`syntax.ValuationCodes`).
"""
from __future__ import annotations

from array import array
from itertools import chain, islice, repeat
from operator import sub
from typing import Any, Callable, Iterable, Sequence, TextIO

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


class Transitions:
    """One transition relation in compressed sparse row form.

    The moves of state ``s`` sit at positions ``offsets[s]`` up to
    ``offsets[s + 1]`` of the flat ``label_ids`` and ``targets`` arrays; a
    label id indexes ``labels``, the relation's distinct labels in order of
    first occurrence. The store is read through ``successors``; iterating
    it gives its ``(src, label, dst)`` triples in source order, made on
    demand, and ``len`` is O(1).
    """

    __slots__ = ("offsets", "label_ids", "targets", "labels")

    def __init__(self, rows: Iterable[Iterable[tuple]] = (),
                 index: Callable[[Any], int] = int):
        """The store of ``rows``: one iterable of ``(label, target)`` moves
        per state, in state order. ``index`` maps a move's target to its
        state number as the move is stored (a search registers new states
        through it)."""
        offsets, label_ids, targets = array("i", [0]), array("i"), array("i")
        ids: dict = {}
        intern = ids.setdefault
        for row in rows:
            for label, target in row:
                label_ids.append(intern(label, len(ids)))
                targets.append(index(target))
            offsets.append(len(targets))
        self.offsets, self.label_ids, self.targets = offsets, label_ids, targets
        self.labels = tuple(ids)

    def successors(self, state: int) -> list[tuple[Any, int]]:
        """``(label, target)`` for each move of a state, in order."""
        start, stop = self.offsets[state], self.offsets[state + 1]
        return list(zip(map(self.labels.__getitem__, self.label_ids[start:stop]),
                        self.targets[start:stop]))

    def id_triples(self) -> Iterable[tuple[int, int, int]]:
        """``(src, label id, dst)`` for each transition, in source order."""
        offsets = self.offsets
        sources = chain.from_iterable(map(repeat, range(len(offsets) - 1),
                                          map(sub, offsets[1:], offsets)))
        return zip(sources, self.label_ids, self.targets)

    def __iter__(self):
        labels = self.labels
        for src, label, dst in self.id_triples():
            yield src, labels[label], dst

    def __len__(self) -> int:
        return len(self.targets)

    def __repr__(self) -> str:
        return (f"<Transitions: {len(self)} over {len(self.offsets) - 1} states, "
                f"{len(self.labels)} labels>")


class Lts(Record):
    """Explicit LTS with a designated initial state.

    State payloads are opaque; transitions refer to state indices. The
    index order is the (deterministic) discovery order of the BFS that
    built the system, which stores its moves as they are found.
    """

    states: tuple
    transitions: Transitions
    initial: int = 0

    def successors(self, state: int) -> list[tuple[Any, int]]:
        return self.transitions.successors(state)


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
    # The operators that a state's table starts from come first. A target
    # is looked up in its class's intern table and constructed only when
    # it is new: most targets exist already, and the lookup costs a
    # quarter of the constructor's call.
    if isinstance(expr, Encap):
        blocked = expr.blocked
        find = Encap.find()
        return [(tests, label, find((blocked, target)) or Encap(blocked, target))
                for tests, label, target in _rows(spec, codes, expr.body, unfolding, memo)
                if not (isinstance(label, Action) and label.name in blocked)]
    if isinstance(expr, Parallel):
        p, q = expr.left, expr.right
        left = memo[p, unfolding]
        right = memo[q, unfolding]
        find = Parallel.find()
        out = [(tests, label, find((target, q)) or Parallel(target, q))
               for tests, label, target in left]
        out += [(tests, label, find((p, target)) or Parallel(p, target))
                for tests, label, target in right]
        comm = spec.comm
        if not comm.is_empty():
            # only the rows of actions that some comm entry names can meet
            parties = comm.parties()
            left = [row for row in left
                    if isinstance(row[1], Action) and row[1].name in parties]
            right = [row for row in right
                     if isinstance(row[1], Action) and row[1].name in parties]
            find_action = Action.find()
            for ta, la, pa in left:
                for tb, lb, pb in right:
                    result = comm.lookup(la.name, lb.name)
                    if result is not None:
                        # both sides step from the same valuation
                        tests = _conjoin(ta, tb)
                        if tests is not None:
                            out.append((tests, find_action((result,)) or Action(result),
                                        find((pa, pb)) or Parallel(pa, pb)))
        return out
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
    raise TypeError(f"not a process expression: {expr!r}")


def _derived_twice(runs: list[tuple]) -> bool:
    """Whether two rows of a table's runs have one label and target and
    tests that can both hold."""
    seen: dict[tuple, list] = {}
    for tests, rows in runs:
        for label, t, _, _ in rows:
            earlier = seen.setdefault((label, t), [])
            if any(_conjoin(other, tests) is not None for other in earlier):
                return True
            earlier.append(tests)
    return False


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
        pairs: set[tuple] = set()
        numbered, number, test = self._number.get, self.number, self.codes.test
        last = rows = None
        n = 0
        for n, (tests, label, target) in enumerate(
                guarded_steps(self.spec, self.exprs[e], self._memo), 1):
            t = numbered(target)
            if t is None:
                t = number(target)
            row = ((label, t) + test(label.var, label.value) if isinstance(label, Assign)
                   else (label, t, 0, 0))
            if tests == last:
                rows.append(row)
            else:
                last, rows = tests, [row]
                runs.append((tests, rows))
            pairs.add((label, t))
        # only a repeated (label, target) pair can be derived twice
        return runs, len(pairs) < n and _derived_twice(runs)

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
         cap: int, what: str = "state") -> tuple[list, Transitions, tuple[int, ...]]:
    """Breadth-first search from several roots at once.

    Returns the nodes in discovery order, their ``(label, node)`` moves as
    one `Transitions` store whose targets index the nodes, and the index
    of each root. Raises ResourceLimitError rather than store more than
    ``cap`` nodes.
    """
    index: dict = {}
    nodes: list = []
    done = 0

    def register(node) -> int:
        i = index.get(node)
        if i is None:
            if len(nodes) >= cap:
                raise ResourceLimitError(
                    f"{what} cap of {cap} exceeded "
                    f"(frontier size {len(nodes) - done})",
                    limit=cap, reached=len(nodes) + 1)
            i = index[node] = len(nodes)
            nodes.append(node)
        return i

    def rows():
        nonlocal done
        while done < len(nodes):
            yield successors(nodes[done])
            done += 1

    root_indices = tuple(map(register, roots))
    return nodes, Transitions(rows(), register), root_indices


def _bfs_lts(roots: Iterable, successors, cap: int,
             payload: Callable[[Any], Any] | None = None) -> tuple[Lts, tuple[int, ...]]:
    """The reachable LTS of the roots, states indexed in BFS order; each
    state holds ``payload(node)``, or the node itself."""
    nodes, transitions, root_indices = _bfs(roots, successors, cap)
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

    One pass returns ``(exprs, valuations, transitions, root_indices)``.
    ``transitions`` is a `Transitions` store over the expressions whose
    labels are ``(v, label, v2)`` triples: ``transitions.successors(e)``
    lists the moves of ``exprs[e]`` from every valuation, valuation by
    valuation in grid order and in `step` order within one valuation, as
    ``((v, label, v2), e2)``: from ``valuations[v]`` the label leads to
    ``exprs[e2]`` under ``valuations[v2]``. Valuations are given by their
    codes, and each expression's table is derived once and dropped after
    its moves are stored.
    """
    if isinstance(roots, ProcessExpr):
        roots = [roots]
    valuations = enumerate_valuations(spec, cfg.max_valuations)
    stepper = _Stepper(spec)

    # one int object per code, shared by every label triple that holds it
    codes = list(range(len(valuations)))

    def successors(e):
        table = stepper.table(e)
        for v in codes:
            for label, t, c in stepper.moves(table, v):
                yield (v, label, codes[c]), t

    nodes, transitions, root_indices = _bfs([stepper.number(root) for root in roots],
                                            successors, cfg.max_states,
                                            "expression closure")
    return tuple(stepper.exprs[e] for e in nodes), valuations, transitions, root_indices


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


def _escaped(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_lts(lts: Lts, fmt: str = "aut", out: TextIO | None = None) -> str | None:
    """The LTS as Aldebaran (``aut``) or Graphviz (``dot``) text, written
    to the text file ``out`` in chunks of lines when one is given (and
    None returned), or else returned. Each distinct label is rendered
    once."""
    store = lts.transitions
    if fmt == "aut":
        texts = [_label_text(label) for label in store.labels]
        lines = chain([f"des ({lts.initial},{len(store)},{len(lts.states)})\n"],
                      (f'({src},"{texts[label]}",{dst})\n'
                       for src, label, dst in store.id_triples()))
    elif fmt == "dot":
        texts = [_escaped(_label_text(label)) for label in store.labels]
        lines = chain(["digraph lts {\n", "  rankdir=LR;\n", "  node [shape=box];\n",
                       "  init [shape=point];\n", f"  init -> s{lts.initial};\n"],
                      (f'  s{i} [label="{_escaped(_state_text(payload))}"];\n'
                       for i, payload in enumerate(lts.states)),
                      (f'  s{src} -> s{dst} [label="{texts[label]}"];\n'
                       for src, label, dst in store.id_triples()),
                      ["}\n"])
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    chunks: list[str] = []
    write = chunks.append if out is None else out.write
    while chunk := "".join(islice(lines, 4096)):
        write(chunk)
    return "".join(chunks) if out is None else None
