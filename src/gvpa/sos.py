"""Operational semantics: single steps, LTS construction, reachability.

States are pairs of a process expression and a valuation. The transition
relation is the least one closed under the rules Pref, Asgn, Con, Rec,
Sum-l/r, Par-l/r, Comm and Enc; communication synchronises actions only,
never assignments. The rules are applied once per expression, giving its
guarded step table, and each valuation filters that table by its code
(`syntax.ValuationCodes`). A search keys its states by frame vectors and
valuation codes, and builds their terms only when they are read.
"""
from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Sequence
from itertools import chain, islice, repeat
from operator import sub
from typing import Any, Callable, Iterable, TextIO

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

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError("max_states must be at least 1")


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
    built the system, which stores its moves as they are found. An
    exploration's states are `Payloads`, built on first read.
    """

    states: Sequence
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

_TOP = frozenset()  # the unfolding set of a table's root


class _RowMemo(dict):
    """The rows of the leaves, name bodies and parallel operands met in one
    pass, keyed by ``(term, unfolding set)``; a missing entry is derived."""

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


# The rules Enc and Par-l/r with Comm, written once for both forms of a
# row's target: a term, or a move of a frame vector (see `_Stepper`).


def _enc(blocked: frozenset, rows: list[tuple], wrap=None) -> list[tuple]:
    """The rows of ``encap(blocked)`` over ``rows``: the blocked actions
    dropped, and each target put through ``wrap``."""
    kept = [row for row in rows
            if not (isinstance(row[1], Action) and row[1].name in blocked)]
    if wrap is None:
        return kept
    return [(tests, label, wrap(target)) for tests, label, target in kept]


def _par(comm, left: list[tuple], right: list[tuple], join,
         lift_left=None, lift_right=None) -> list[tuple]:
    """The rows of a parallel composition from the rows of its operands:
    each left row with its target put through ``lift_left``, each right row
    through ``lift_right``, then one row per handshake of a left and a
    right action, whose target is ``join`` of the two targets."""
    out = left[:] if lift_left is None else [
        (tests, label, lift_left(target)) for tests, label, target in left]
    out += right if lift_right is None else [
        (tests, label, lift_right(target)) for tests, label, target in right]
    if not comm.is_empty():
        # only the rows of actions that some comm entry names can meet
        parties = comm.parties()
        left = [row for row in left
                if isinstance(row[1], Action) and row[1].name in parties]
        right = [row for row in right
                 if isinstance(row[1], Action) and row[1].name in parties]
        for ta, la, pa in left:
            for tb, lb, pb in right:
                result = comm.lookup(la.name, lb.name)
                if result is not None:
                    # both sides step from the same valuation
                    tests = _conjoin(ta, tb)
                    if tests is not None:
                        out.append((tests, Action(result), join(pa, pb)))
    return out


def _rows(spec, codes, expr, unfolding, memo) -> list[tuple]:
    """The guarded step table of an expression: one ``(tests, label,
    target)`` row per derivation by the rules, in derivation order.
    ``tests`` are the ``(weight, digit)`` pairs (see `ValuationCodes.test`)
    of the conditions on the derivation; a derivation with conflicting
    conditions has no row."""
    if isinstance(expr, Encap):
        blocked = expr.blocked
        return _enc(blocked, _rows(spec, codes, expr.body, unfolding, memo),
                    lambda target: Encap(blocked, target))
    if isinstance(expr, Parallel):
        p, q = expr.left, expr.right
        return _par(spec.comm, memo[p, unfolding], memo[q, unfolding], Parallel,
                    lambda target: Parallel(target, q),
                    lambda target: Parallel(p, target))
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


# ---------------------------------------------------------------------------
# Frame vectors
#
# An expression splits at its top `encap` and `||` nodes into a frame, the
# skeleton with its blocked sets, and leaves, the maximal subterms with
# neither operator on top (after LTSmin's state vectors: Blom, van de Pol
# & Weber, CAV 2010). A frame is a tuple in prefix order: `Parallel` for
# `||`, a blocked set for `encap`, and None for each leaf. Each expression
# has one split, so its frame and leaves name it as the term does.
#
# A leaf's steps that end in a leaf keep the frame; the leaves that a leaf
# reaches so, and that no earlier closure holds, are its closure, numbered
# from 0 in the order found.
# The frames of one pass with their slots' closures are blocks of keys, and
# a state's key is the block's base plus, in mixed radix, the leaves'
# numbers in their closures and, lowest, the valuation code. A move inside
# a closure adds ``(t - c) * weight`` to the key; a step to a term with
# `||` or `encap` on top, or to a leaf of another closure, changes the
# frame, and only that target is split again.


def _split(expr: ProcessExpr) -> tuple[tuple, list[ProcessExpr]]:
    """The frame and the leaves, left to right, of an expression."""
    frame, leaves, todo = [], [], [expr]
    while todo:
        node = todo.pop()
        if node.__class__ is Parallel:
            frame.append(Parallel)
            todo += (node.right, node.left)
        elif node.__class__ is Encap:
            frame.append(node.blocked)
            todo.append(node.body)
        else:
            frame.append(None)
            leaves.append(node)
    return tuple(frame), leaves


def _fold(frame: tuple, leaves: Sequence, parallel, encap):
    """Evaluates a frame bottom up: each leaf as itself, each `||` as
    ``parallel(left, right)`` and each ``encap(blocked)`` as ``encap(blocked,
    body)`` of the values below it."""
    stack: list = []
    leaf = len(leaves)
    for token in reversed(frame):
        if token is None:
            leaf -= 1
            stack.append(leaves[leaf])
        elif token is Parallel:
            left = stack.pop()
            stack.append(parallel(left, stack.pop()))
        else:
            stack.append(encap(token, stack.pop()))
    return stack[0]


def _join(a, b):
    """The target of a handshake: both operands' moves. A move is an int,
    what it adds to the key, or ``(int, ((slot, term), ...))`` when slots
    take terms that change the frame."""
    if a.__class__ is int and b.__class__ is int:
        return a + b
    da, sa = (a, ()) if a.__class__ is int else a
    db, sb = (b, ()) if b.__class__ is int else b
    return da + db, sa + sb


class _Frames:
    """The keys of one pass's states: the leaves' closures, and the blocks
    of keys of the (frame, closure per slot) pairs met. It builds a state
    or an expression from its key; a search's `Payloads` keep it and
    nothing more of the pass."""

    __slots__ = ("codes", "closures", "blocks", "bases", "shapes", "end", "exprs")

    def __init__(self, codes):
        self.codes = codes
        self.closures: list[list[ProcessExpr]] = []
        self.blocks: dict[tuple, int] = {}
        self.bases: list[int] = []
        # per block: the frame, each slot's closure and each slot's weight
        self.shapes: list[tuple] = []
        self.end = 0
        # the expressions built so far, by key under code 0
        self.exprs: dict[int, ProcessExpr] = {}

    def key(self, frame: tuple, numbers: list[tuple[int, int]]) -> int:
        """The key, under the valuation code 0, of a frame whose leaves have
        the ``(closure, number)`` pairs ``numbers``."""
        closures = tuple(c for c, _ in numbers)
        b = self.blocks.get((frame, closures))
        if b is None:
            b = self.blocks[frame, closures] = len(self.bases)
            weights = []
            weight = self.codes.count
            for c in reversed(closures):
                weights.append(weight)
                weight *= len(self.closures[c])
            self.bases.append(self.end)
            self.shapes.append((frame, closures, tuple(reversed(weights))))
            self.end += weight
        weights = self.shapes[b][2]
        return self.bases[b] + sum(n * w for (_, n), w in zip(numbers, weights))

    def block(self, key: int) -> int:
        return bisect_right(self.bases, key) - 1

    def split(self, key: int) -> tuple[tuple, list[ProcessExpr]]:
        """The frame and the leaves of a key's expression."""
        b = self.block(key)
        frame, closures, weights = self.shapes[b]
        rest = key - self.bases[b]
        leaves = []
        for c, weight in zip(closures, weights):
            n, rest = divmod(rest, weight)
            leaves.append(self.closures[c][n])
        return frame, leaves

    def expr(self, e: int) -> ProcessExpr:
        """The expression of the key ``e`` under code 0."""
        found = self.exprs.get(e)
        if found is None:
            found = self.exprs[e] = _fold(*self.split(e), Parallel, Encap)
        return found

    def state(self, key: int) -> GvState:
        code = key % self.codes.count
        return GvState(self.expr(key - code), self.codes.valuation(code))


class _Stepper:
    """The keys of one pass's states and their steps. Each frame vector's
    table is composed from the rows of its leaves, each derived once per
    pass, and of the parts of its frame that it shares with others."""

    def __init__(self, spec: RecursiveSpec):
        self.spec = spec
        self.codes = spec.codes
        self.frames = _Frames(spec.codes)
        self._number: dict[ProcessExpr, tuple[int, int]] = {}
        self._memo = _RowMemo(spec)
        self._plans: dict[int, tuple] = {}
        self._parts: dict[tuple, list[tuple]] = {}
        self._tables: dict[int, tuple] = {}

    def _numbers(self, leaves: list[ProcessExpr]) -> list[tuple[int, int]]:
        """``(closure, number)`` of each leaf; the closure of a leaf met for
        the first time is found and numbered, and ends at leaves that an
        earlier closure holds."""
        numbered = self._number
        out = []
        for leaf in leaves:
            found = numbered.get(leaf)
            if found is None:
                c = len(self.frames.closures)
                members = [leaf]
                self.frames.closures.append(members)
                found = numbered[leaf] = (c, 0)
                for member in members:
                    for _, _, target in self._memo[member, _TOP]:
                        if (target.__class__ is not Parallel and target.__class__ is not Encap
                                and target not in numbered):
                            numbered[target] = (c, len(members))
                            members.append(target)
            out.append(found)
        return out

    def expr_key(self, expr: ProcessExpr) -> int:
        frame, leaves = _split(expr)
        return self.frames.key(frame, self._numbers(leaves))

    def _moved(self, e: int, move: tuple) -> int:
        """The key that a frame-changing move leads ``e`` to."""
        shift, placed = move
        frame, leaves = self.frames.split(e + shift)
        holes = [i for i, token in enumerate(frame) if token is None]
        # from the last slot back, so the earlier slots keep their places
        for slot, term in sorted(placed, reverse=True):
            sub_frame, sub_leaves = _split(term)
            at = holes[slot]
            frame = frame[:at] + sub_frame + frame[at + 1:]
            leaves[slot:slot + 1] = sub_leaves
        return self.frames.key(frame, self._numbers(leaves))

    def _plan(self, b: int) -> tuple:
        """Block ``b``'s frame as a tree of ``(kind, first slot, last slot,
        high, low, ...)`` nodes: kind None for a leaf, then its closure;
        `Parallel` for a `||`, then its operands; a blocked set for an
        encap, then its body. A node's slots hold the digits ``x % high //
        low`` of a key ``x`` less the block's base; ``high`` is None at the
        top `||` and at an encap, whose rows are not kept."""
        frame, closures, weights = self.frames.shapes[b]
        sizes = [len(self.frames.closures[c]) for c in closures]
        last = len(closures) - 1

        def parallel(left, right):
            first, end = left[1], right[2]
            high = None if first == 0 and end == last else weights[first] * sizes[first]
            return Parallel, first, end, high, weights[end], left, right

        return _fold(frame, [(None, i, i, weights[i] * sizes[i], weights[i], c)
                             for i, c in enumerate(closures)],
                     parallel, lambda blocked, body: (blocked, body[1], body[2], None, None, body))

    def _part(self, b: int, node: tuple, x: int) -> list[tuple]:
        """The rows of a node of block ``b``'s plan in the vector ``x`` (its
        key less the block's base), by the rules Enc, Par-l/r and Comm on
        the moves of `_join`. The rows of each leaf and each `||` below the
        top are kept per (block, slots, digits), so the vectors that share
        a part of a frame share its rows."""
        kind, high = node[0], node[3]
        if kind is not None and kind is not Parallel:
            return _enc(kind, self._part(b, node[5], x))
        if high is None:
            return self._parallel(b, node, x)
        key = (b, node[1], node[2], x % high // node[4])
        rows = self._parts.get(key)
        if rows is None:
            rows = self._parts[key] = (self._parallel(b, node, x) if kind is Parallel
                                       else self._leaf_moves(node[5], node[1], node[4], key[3]))
        return rows

    def _parallel(self, b: int, node: tuple, x: int) -> list[tuple]:
        return _par(self.spec.comm, self._part(b, node[5], x), self._part(b, node[6], x), _join)

    def _leaf_moves(self, closure: int, slot: int, weight: int, n: int) -> list[tuple]:
        """The rows of leaf ``n`` of a closure in ``slot``, each target as
        the move of the vector: ``(t - n) * weight`` to leaf ``t`` of the
        closure, else the term put into the slot."""
        numbered = self._number.get
        rows = []
        for tests, label, target in self._memo[self.frames.closures[closure][n], _TOP]:
            found = numbered(target)
            rows.append((tests, label, (found[1] - n) * weight
                         if found is not None and found[0] == closure
                         else (0, ((slot, target),))))
        return rows

    def table(self, e: int) -> tuple[list[tuple], bool]:
        """The table of the frame vector with key ``e`` (under code 0) made
        ready for `moves`: runs of rows with the same tests, as ``(tests,
        [(label, target key, weight, digit), ...])`` with target keys under
        code 0, where a nonzero weight and its digit are what an assignment
        writes; and whether one valuation can derive a step twice (two
        rows with one label and target whose tests can both hold)."""
        b = self.frames.block(e)
        plan = self._plans.get(b)
        if plan is None:
            plan = self._plans[b] = self._plan(b)
        runs: list[tuple] = []
        pairs: set[tuple] = set()
        test = self.codes.test
        last = run = None
        n = 0
        for n, (tests, label, move) in enumerate(
                self._part(b, plan, e - self.frames.bases[b]), 1):
            t = e + move if move.__class__ is int else self._moved(e, move)
            row = ((label, t) + test(label.var, label.value) if label.__class__ is Assign
                   else (label, t, 0, 0))
            if tests == last:
                run.append(row)
            else:
                last, run = tests, [row]
                runs.append((tests, run))
            pairs.add((label, t))
        # only a repeated (label, target) pair can be derived twice
        return runs, len(pairs) < n and _derived_twice(runs)

    def moves(self, table: tuple[list[tuple], bool], code: int) -> list[tuple]:
        """``(label, target key under code 0, target code)`` for each step
        from the valuation ``code``, in table order, each step listed
        once."""
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

    # A state's key is its frame vector's key plus its valuation code.

    def key(self, state: GvState) -> int:
        return self.expr_key(state.expr) + self.codes.code(state.valuation)

    def successors(self, key: int) -> list[tuple]:
        """``(label, target key)`` for each step of a state; each frame
        vector's table is composed once and kept with the stepper."""
        code = key % self.codes.count
        e = key - code
        table = self._tables.get(e)
        if table is None:
            table = self._tables[e] = self.table(e)
        return [(label, t + c) for label, t, c in self.moves(table, code)]


# ---------------------------------------------------------------------------
# Single steps


def step(spec: RecursiveSpec, state: GvState) -> tuple[tuple[TransitionLabel, GvState], ...]:
    """All transitions of a state, in deterministic derivation order:
    the rows of the expression's table that the valuation passes."""
    stepper = _Stepper(spec)
    key = stepper.key(state)
    code = key % spec.codes.count
    state_of = stepper.frames.state
    return tuple((label, state_of(t + c))
                 for label, t, c in stepper.moves(stepper.table(key - code), code))


# ---------------------------------------------------------------------------
# Breadth-first exploration


def _bfs(roots: Iterable, successors: Callable[[Any], Iterable[tuple[Any, Any]]],
         cap: int) -> tuple[list, Transitions, tuple[int, ...]]:
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
                    f"state cap of {cap} exceeded "
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


class Payloads(Sequence):
    """The payloads of a search's nodes in index order, built from the
    nodes on first read and kept; ``len`` builds none. It compares and
    hashes as itself: ``tuple(payloads)`` is the value to compare."""

    __slots__ = ("_nodes", "_build", "_items")

    def __init__(self, nodes: Sequence, build: Callable[[Any], Any]):
        self._nodes, self._build, self._items = nodes, build, None

    def items(self) -> tuple:
        if self._items is None:
            self._items = tuple(map(self._build, self._nodes))
            self._nodes = self._build = None
        return self._items

    def __len__(self) -> int:
        return len(self._nodes if self._items is None else self._items)

    def __getitem__(self, i):
        return self.items()[i]

    def __iter__(self):
        return iter(self.items())

    def __repr__(self) -> str:
        return repr(self.items())


def _bfs_lts(roots: Iterable, successors, cap: int,
             payload: Callable[[Any], Any] | None = None) -> tuple[Lts, tuple[int, ...]]:
    """The reachable LTS of the roots, states indexed in BFS order; each
    state holds the node itself, or ``payload(node)``, built on first
    read (`Payloads`)."""
    nodes, transitions, root_indices = _bfs(roots, successors, cap)
    states = tuple(nodes) if payload is None else Payloads(nodes, payload)
    return Lts(states=states, transitions=transitions, initial=root_indices[0]), root_indices


def explore(spec: RecursiveSpec, roots: Sequence[GvState],
            cfg: ExplorationConfig = DEFAULT_CONFIG) -> tuple[Lts, tuple[int, ...]]:
    """BFS over the reachable fragment from several roots at once, on the
    keys of one `_Stepper`, which keeps each frame vector's table until the
    call returns. The states are built from their keys on first read."""
    stepper = _Stepper(spec)
    return _bfs_lts([stepper.key(root) for root in roots], stepper.successors,
                    cfg.max_states, stepper.frames.state)


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
    its moves are stored. The expressions are built from their keys on
    first read (`Payloads`). ``cfg.max_states`` bounds the (expression,
    valuation) pairs: a larger valuation space is refused before any
    expression is stepped.
    """
    if isinstance(roots, ProcessExpr):
        roots = [roots]
    valuations = enumerate_valuations(spec, cfg.max_states)
    stepper = _Stepper(spec)

    # one int object per code, shared by every label triple that holds it
    codes = list(range(len(valuations)))

    def successors(e):
        table = stepper.table(e)
        for v in codes:
            for label, t, c in stepper.moves(table, v):
                yield (v, label, codes[c]), t

    n = len(valuations)
    try:
        nodes, transitions, root_indices = _bfs(
            [stepper.expr_key(root) for root in roots], successors, cfg.max_states // n)
    except ResourceLimitError as err:
        raise ResourceLimitError(
            f"expression closure cap of {cfg.max_states} (expression, valuation) pairs "
            f"exceeded: {err.reached} expressions under {n} valuation{'s' * (n != 1)}",
            limit=cfg.max_states, reached=err.reached * n) from None
    return Payloads(nodes, stepper.frames.expr), valuations, transitions, root_indices


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
