"""Strong, state-based and stateless bisimilarity, plus synthesis of
distinguishing formulas from the refinement fixpoint.

All three equivalences run on signature-based partition refinement where
round k of the history equals bisimilarity up to depth k (seeded by the
initial partition). Stateless bisimilarity is strong bisimilarity on the
expression-level system whose labels are (valuation, label, target
valuation) triples: the matching clause of its definition quantifies over
every valuation and fixes the target valuation.

Refinement reads the label ids and targets of one `Transitions` store.
After the first round it signs again only the predecessors of states
that moved to a new block, so a round costs work in proportion to what
changed. The history logs the states each round moved; the rounds it
builds are those of full sweeps.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from itertools import islice
from operator import itemgetter, lt
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ContractViolationError
from .sos import (
    DEFAULT_CONFIG, ExplorationConfig, GvState, Lts, Transitions, explore,
    expression_closure,
)
from .syntax import ProcessExpr, Record, RecursiveSpec, Valuation

if TYPE_CHECKING:
    from .hml import HmlFormula


# ---------------------------------------------------------------------------
# Partition refinement
#
# Two states of one block stay together in the next round iff their
# signatures, the sets of (label, block) pairs of their moves, agree
# (Blom & Orzan, STTT 2005). Each row's moves are put in label order once
# per refinement: a pattern numbers the sorted label-id tuple of a row,
# and each state's row of targets is built once, in that order. A row
# whose labels are distinct signs as ``(pattern, block of each target)``:
# no set, no sort and no int computed per move, as the tuple holds the
# block list's own ints. A row that repeats a label signs from its sorted,
# deduplicated (label id, block) pairs in the same form, with the pattern
# of their label tuple, so equal sets of pairs give equal signatures. One
# dict groups the signed states by (block, signature). Block ids are
# stable: a block that splits keeps its id for one part and only the
# other parts' states move. A state's signature can change only when a
# successor moved, so after round 1 only the predecessors of moved states
# are signed again. Such a signature names a block id made in the last
# round, which the signature of no member left unsigned names, so the
# re-signed members of a block group apart from the rest: when every
# member was re-signed the first group keeps the id, and otherwise every
# group moves to a new one.
#
# The history is a change log: the states each round moved and their new
# block ids. A round costs work in proportion to the states it signs, and
# the log grows in proportion to the states it moves; a chain of n states
# takes n rounds of one move each. The block list, in stable ids, ends as
# the final partition (`History.final`), which the verdicts read.
# `History` builds a whole round on demand, in first-occurrence numbering,
# and reads the block of one state at one round by bisecting its changes.


class _Patterns(dict):
    """Sorted label-id tuples numbered in order of first sight; ``labels[p]``
    is the tuple of pattern ``p``."""

    def __init__(self):
        super().__init__()
        self.labels: list[tuple[int, ...]] = []

    def __missing__(self, labels: tuple[int, ...]) -> int:
        self[labels] = pattern = len(self.labels)
        self.labels.append(labels)
        return pattern


def _repeated_signature(labels: tuple[int, ...], blocks: Iterable[int],
                        patterns: _Patterns) -> tuple[int, ...]:
    """The signature of a row with the label ids ``labels`` (in order, with
    a repeat) whose targets lie in ``blocks``: the pattern of its
    deduplicated (label, block) pairs' labels, then their blocks."""
    labels, blocks = zip(*sorted(set(zip(labels, blocks))))
    return (patterns[labels], *blocks)


def _label_order(transitions: Transitions,
                 patterns: _Patterns) -> tuple[list[int], list[tuple[int, ...]]]:
    """Each state's pattern and its row of targets in label order. The
    pattern numbers the row's sorted labels if they are distinct, and is
    ``~p`` for the pattern ``p`` of a row that repeats a label. Each
    distinct label sequence is sorted once."""
    offsets, label_ids = transitions.offsets, transitions.label_ids
    raw, size = label_ids.tobytes(), label_ids.itemsize
    # one int object per state, shared by every row that names it
    states = list(range(len(offsets) - 1))
    targets = tuple(map(states.__getitem__, transitions.targets))
    orders: dict[bytes, tuple[int, itemgetter | None]] = {}
    pattern_of, rows = [], []
    for start, stop in zip(offsets, islice(offsets, 1, None)):
        found = orders.get(key := raw[start * size:stop * size])
        if found is None:
            sequence = label_ids[start:stop]
            labels = tuple(sorted(sequence))
            pattern = patterns[labels]
            found = orders[key] = (
                pattern if all(map(lt, labels, labels[1:])) else ~pattern,
                None if labels == tuple(sequence) else
                itemgetter(*sorted(range(stop - start), key=sequence.__getitem__)))
        pattern, order = found
        pattern_of.append(pattern)
        row = targets[start:stop]
        rows.append(row if order is None else order(row))
    return pattern_of, rows


def _first_occurrence(ids: Sequence[int]) -> tuple[int, ...]:
    rank = {b: i for i, b in enumerate(dict.fromkeys(ids))}
    return tuple(map(rank.__getitem__, ids))


class History:
    """The rounds of one refinement, stored as a change log.

    ``len(history)`` is the number of rounds plus one. ``history[0]`` is
    the initial partition as given and ``history[k]``, for k >= 1, the
    blocks after k rounds, numbered in order of first occurrence; each
    is built from the log on demand, and iterating builds every round in
    turn. ``final`` is the partition after the last round in the
    refinement's own stable block ids, and ``signed`` counts the states
    signed over all rounds. Round k moved the states
    ``moved[ends[k - 1]:ends[k]]`` to the new blocks ``ids[...]`` of the
    same positions; a state outside the log keeps its initial block.
    """

    __slots__ = ("initial", "final", "moved", "ids", "ends", "signed", "_changes")

    def __init__(self, initial: tuple, final: tuple[int, ...], moved: array,
                 ids: array, ends: array, signed: int):
        self.initial, self.final, self.signed = initial, final, signed
        self.moved, self.ids, self.ends = moved, ids, ends
        self._changes = None

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, k: int) -> tuple:
        k = range(len(self.ends))[k]
        if k == 0:
            return self.initial
        block = list(_first_occurrence(self.initial))
        for s, b in zip(self.moved[:self.ends[k]], self.ids):
            block[s] = b
        return _first_occurrence(block)

    def block(self, s: int, k: int) -> int:
        """The stable block id of state ``s`` after ``k`` rounds."""
        if self._changes is None:
            moved, ends = self.moved, self.ends
            round_of = [r for r in range(1, len(ends)) for _ in range(ends[r - 1], ends[r])]
            # the log's positions by state, each state's in round order
            order = sorted(range(len(moved)), key=moved.__getitem__)
            self._changes = (_first_occurrence(self.initial),
                             [moved[i] for i in order], [round_of[i] for i in order],
                             [self.ids[i] for i in order])
        start, states, rounds, ids = self._changes
        lo = bisect_left(states, s)
        j = bisect_right(rounds, k, lo, bisect_right(states, s, lo))
        return start[s] if j == lo else ids[j - 1]


def _predecessors(rows: list[tuple[int, ...]]) -> list[list[int]]:
    """The states with a move into each state, each listed once."""
    sources: list[list[int]] = [[] for _ in rows]
    appends = [found.append for found in sources]
    for s, row in enumerate(rows):
        for t in set(row):
            appends[t](s)
    return sources


def refinement_history(transitions: Transitions,
                       initial_blocks: Sequence[int]) -> History:
    """Rounds of signature refinement until stable, on the label ids and
    targets of a `Transitions` store.

    The result is a `History`: ``history[k][s]`` is the block of state
    ``s`` after k rounds, and ``history.final`` the last partition. States
    share a block at round k iff no formula of modal depth <= k (over the
    seeded atoms) tells them apart.
    """
    initial = tuple(initial_blocks)
    n_states = len(transitions.offsets) - 1
    patterns = _Patterns()
    pattern_of, rows = _label_order(transitions, patterns)
    block = list(_first_occurrence(initial))
    get = block.__getitem__
    size = [0] * (max(block, default=-1) + 1)
    for b in block:
        size[b] += 1
    moved, ids, ends = array("i"), array("i"), array("i", [0])
    signed = 0
    sources = None
    dirty: Iterable[int] = range(n_states)
    # a round either splits a block or is the last, so n_states rounds suffice
    for _ in range(n_states):
        # the signed states by (block, signature), in one dict pass
        groups: defaultdict[tuple[int, ...], list[int]] = defaultdict(list)
        for s in dirty:
            pattern = pattern_of[s]
            if pattern >= 0:
                groups[(block[s], pattern, *map(get, rows[s]))].append(s)
            else:
                groups[(block[s], *_repeated_signature(
                    patterns.labels[~pattern], map(get, rows[s]), patterns))].append(s)
        signed += len(dirty)
        signed_of: dict[int, int] = {}
        for key, members in groups.items():
            signed_of[key[0]] = signed_of.get(key[0], 0) + len(members)
        # blocks whose every member was re-signed: their first group keeps the id
        whole = {b for b, count in signed_of.items() if count == size[b]}
        for key, members in groups.items():
            b = key[0]
            if b in whole:
                whole.remove(b)
                continue
            new = len(size)
            size.append(len(members))
            size[b] -= len(members)
            for s in members:
                block[s] = new
            moved.fromlist(members)
            ids.fromlist([new] * len(members))
        if len(moved) == ends[-1]:
            break
        if sources is None:
            sources = _predecessors(rows)
        dirty = set().union(*map(sources.__getitem__, moved[ends[-1]:]))
        ends.append(len(moved))
    return History(initial, tuple(block), moved, ids, ends, signed)


def _rank(history: History, s: int, t: int) -> int | None:
    """The first round that puts ``s`` and ``t`` in different blocks."""
    last = len(history) - 1

    def apart(k: int) -> bool:
        return history.block(s, k) != history.block(t, k)

    return bisect_left(range(last + 1), True, key=apart) if apart(last) else None


def _in_relation(history: History, s: int, t: int, level: int) -> bool:
    level = min(level, len(history) - 1)
    return history.block(s, level) == history.block(t, level)


# ---------------------------------------------------------------------------
# One result type for the three bisimilarities


class BisimResult(Record):
    """A verdict with the structure its partition was refined on.

    ``states`` are LTS payloads (strong, state-based) or expressions
    (stateless); ``adjacency`` is the `Transitions` store the history was
    refined on, and ``successors(i)`` lists its ``(label, j)`` moves.
    Stateless labels are ``(v, label, v2)`` triples that index
    ``valuations``, which is empty in the other modes.
    """
    mode: str
    equivalent: bool
    left: int
    right: int
    rounds: int
    history: History
    states: tuple
    adjacency: Transitions
    valuations: tuple[Valuation, ...]

    def successors(self, i: int) -> list[tuple]:
        return self.adjacency.successors(i)

    @property
    def relation_size(self) -> int:
        return sum(n * (n + 1) // 2 for n in Counter(self.history.final).values())


def _result(mode: str, states: tuple, adjacency: Transitions,
            valuations: tuple[Valuation, ...], initial_blocks: Sequence[int],
            s: int, t: int) -> BisimResult:
    """Refines the seeded partition and reads the verdict on (s, t) off it."""
    history = refinement_history(adjacency, initial_blocks)
    final = history.final
    return BisimResult(mode=mode, equivalent=final[s] == final[t], left=s,
                       right=t, rounds=len(history) - 1, history=history,
                       states=states, adjacency=adjacency, valuations=valuations)


def strong_bisim(lts: Lts, s: int, t: int) -> BisimResult:
    """Coarsest strong bisimulation on a finite LTS, via refinement."""
    return _result("strong", lts.states, lts.transitions, (),
                   [0] * len(lts.states), s, t)


def state_based_bisim_on_lts(lts: Lts, s: int, t: int) -> BisimResult:
    """Greatest fixpoint of Definition 5 on an LTS of `GvState`s that
    `explore` built; the initial partition splits states by their full
    valuation, read as each key's valuation code, so no state is built."""
    initial = _first_occurrence(lts.states.codes())
    return _result("state-based", lts.states, lts.transitions, (), initial, s, t)


def state_based_bisim(spec: RecursiveSpec, s: GvState, t: GvState,
                      cfg: ExplorationConfig = DEFAULT_CONFIG) -> BisimResult:
    """Greatest fixpoint of Definition 5 on the joint reachable LTS."""
    lts, (si, ti) = explore(spec, [s, t], cfg)
    return state_based_bisim_on_lts(lts, si, ti)


def stateless_bisim(spec: RecursiveSpec, p: ProcessExpr, q: ProcessExpr,
                    cfg: ExplorationConfig = DEFAULT_CONFIG) -> BisimResult:
    """Greatest fixpoint of Definition 3 on the pair's expression closure."""
    exprs, valuations, adjacency, (pi, qi) = expression_closure(spec, [p, q], cfg)
    return _result("stateless", exprs, adjacency, valuations,
                   [0] * len(exprs), pi, qi)


# ---------------------------------------------------------------------------
# Distinguishing formulas


def _first_difference(a: Valuation, b: Valuation) -> str:
    for (var, left), (_, right) in zip(a.entries, b.entries):
        if left != right:
            return var
    raise ValueError("valuations do not differ")


def _distinguish(result: BisimResult, mode: str, diamond,
                 split=None) -> tuple[HmlFormula, object]:
    """A ``(formula, witness)`` pair that holds at ``result.left`` and fails
    at ``result.right``, read off the refinement history after Cleaveland
    (CAV 1990).

    A pair split at round k >= 1 has a move of one side that the other
    cannot match into round k-1; ``diamond(label, refutations)`` builds the
    formula for that move from one refutation per same-label partner.
    ``split(a, b)`` refutes pairs already apart in the initial partition.
    """
    from .hml import Not

    if result.mode != mode:
        raise ContractViolationError(
            f"{mode} distinguishing formula requested for a {result.mode} result")
    if result.equivalent:
        raise ContractViolationError(
            f"distinguishing formula requested for a {mode}-bisimilar pair")
    history, successors = result.history, result.successors
    memo: dict = {}

    def one_sided(a: int, b: int, k: int):
        """A failing move of `a` that `b` cannot match into round k-1."""
        b_moves = successors(b)
        for label, target in successors(a):
            partners = [u for l, u in b_moves if l == label]
            if any(_in_relation(history, target, u, k - 1) for u in partners):
                continue
            return diamond(label, [distinguish(target, u) for u in partners])
        return None

    def distinguish(a: int, b: int):
        key = (a, b)
        if key in memo:
            return memo[key]
        k = _rank(history, a, b)
        if k == 0:
            found = split(a, b)
        else:
            found = one_sided(a, b, k)
            if found is None:
                # a rank-k split guarantees a failing move on one of the sides
                formula, witness = one_sided(b, a, k)
                found = (Not(formula), witness)
        memo[key] = found
        return found

    return distinguish(result.left, result.right)


def distinguishing_formula_stateless(
        result: BisimResult,
        at: Valuation | None = None) -> tuple[HmlFormula, Valuation]:
    """A formula/valuation pair with ``<p,V> |= phi`` and ``<q,V> |/= phi``
    for the pair of a false stateless result.

    Mirrors the refutation construction behind the stateless
    correspondence theorem: an unmatched move yields a diamond over a
    conjunction of set-all-wrapped recursive refutations, one per partner
    with the same source valuation and label (which fix its target
    valuation). When ``at`` pins the evaluation valuation, the result is
    wrapped so the split holds there.
    """
    from .hml import Diamond, conjunction, set_all

    def diamond(move, refutations):
        v_i, label, _ = move
        body = conjunction(list(dict.fromkeys(
            set_all(witness, formula) for formula, witness in refutations)))
        return Diamond(frozenset({label}), body), result.valuations[v_i]

    formula, witness = _distinguish(result, "stateless", diamond)
    if at is not None and at != witness:
        return set_all(witness, formula), at
    return formula, witness


def distinguishing_formula_state_based(result: BisimResult) -> HmlFormula:
    """A check-only formula holding at the left state of a false
    state-based result and failing at its right state.

    Root pairs with differing valuations get a bare check; otherwise an
    unmatched move yields a diamond over recursive refutations.
    """
    from .hml import Check, Diamond, conjunction

    def diamond(label, refutations):
        body = conjunction(list(dict.fromkeys(f for f, _ in refutations)))
        return Diamond(frozenset({label}), body), None

    def split(a: int, b: int):
        va = result.states[a].valuation
        var = _first_difference(va, result.states[b].valuation)
        return Check(var, va.value_of(var)), None

    return _distinguish(result, "state-based", diamond, split)[0]
