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
changed; the history is the same as that of full sweeps.
"""
from __future__ import annotations

from array import array
from collections import Counter
from itertools import accumulate, islice
from operator import itemgetter, lt
from typing import TYPE_CHECKING, Sequence

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
# and the row's targets are kept in that order. A row whose labels are
# distinct signs as ``(pattern, block of each target)``: no set, no sort
# and no int computed per move, as the tuple holds the block list's own
# ints. A row that repeats a label signs from its sorted, deduplicated
# (label id, block) pairs in the same form, with the pattern of their
# label tuple, so equal sets of pairs give equal signatures. Block ids are
# stable: a block that splits keeps its id for one part and only the
# other parts' states move. A state's signature can change only when a
# successor moved, so after round 1 only the predecessors of moved states
# are signed again. Such a signature names a block id made in the last
# round, which the signature of no member left unsigned names, so the
# re-signed members of a block group apart from the rest: when every
# member was re-signed the first group keeps the id, and otherwise every
# group moves to a new one.


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


def _signature(pattern: int, targets: Sequence[int], block: list[int],
               patterns: _Patterns) -> tuple[int, ...]:
    """The signature of a state whose move targets are ``targets`` in label
    order. ``pattern`` numbers the row's sorted labels if they are
    distinct, and is ``~p`` for the pattern ``p`` of a row that repeats a
    label."""
    if pattern >= 0:
        return (pattern, *map(block.__getitem__, targets))
    labels, blocks = zip(*sorted(set(zip(patterns.labels[~pattern],
                                         map(block.__getitem__, targets)))))
    return (patterns[labels], *blocks)


def _label_order(transitions: Transitions,
                 patterns: _Patterns) -> tuple[list[int], array]:
    """Each state's pattern (see `_signature`) and the targets of all moves
    in label order, on the store's offsets; each distinct label sequence is
    sorted once."""
    offsets, label_ids, targets = (transitions.offsets, transitions.label_ids,
                                   transitions.targets)
    raw, size = label_ids.tobytes(), label_ids.itemsize
    orders: dict[bytes, tuple[int, itemgetter | None]] = {}
    pattern_of = []
    ordered = array("i", targets)
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
        if order is not None:
            ordered[start:stop] = array("i", order(targets[start:stop]))
    return pattern_of, ordered


def _first_occurrence(ids: Sequence[int]) -> tuple[int, ...]:
    rank = {b: i for i, b in enumerate(dict.fromkeys(ids))}
    return tuple(map(rank.__getitem__, ids))


def _predecessors(transitions: Transitions) -> tuple[array, array]:
    """The sources of each state's incoming moves in compressed sparse row
    form: those of state ``t`` are ``sources[starts[t]:starts[t + 1]]``,
    one per move."""
    offsets, targets = transitions.offsets, transitions.targets
    counts = [0] * len(offsets)
    for t in targets:
        counts[t + 1] += 1
    starts = array("i", accumulate(counts))
    fill = starts.tolist()
    sources = array("i", [0]) * len(targets)
    for s in range(len(offsets) - 1):
        for t in targets[offsets[s]:offsets[s + 1]]:
            sources[fill[t]] = s
            fill[t] += 1
    return starts, sources


def refinement_history(transitions: Transitions,
                       initial_blocks: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Rounds of signature refinement until stable, on the label ids and
    targets of a `Transitions` store.

    ``history[k][s]`` is the block of state ``s`` after k rounds, numbered
    in order of first occurrence for k >= 1 (``history[0]`` is the initial
    partition as given); states share a block at round k iff no formula of
    modal depth <= k (over the seeded atoms) tells them apart.
    """
    history = [tuple(initial_blocks)]
    offsets = transitions.offsets
    n_states = len(offsets) - 1
    patterns = _Patterns()
    pattern_of, ordered = _label_order(transitions, patterns)
    block = list(_first_occurrence(history[0]))
    size = [0] * (max(block, default=-1) + 1)
    for b in block:
        size[b] += 1
    sources = None
    dirty: Sequence[int] = range(n_states)
    # a round either splits a block or is the last, so n_states rounds suffice
    for _ in range(n_states):
        # the re-signed states of each block, by signature
        parts_of: dict[int, dict[tuple[int, ...], list[int]]] = {}
        for s in dirty:
            b = block[s]
            signature = _signature(pattern_of[s], ordered[offsets[s]:offsets[s + 1]],
                                   block, patterns)
            parts = parts_of.get(b)
            if parts is None:
                parts = parts_of[b] = {}
            members = parts.get(signature)
            if members is None:
                parts[signature] = [s]
            else:
                members.append(s)
        moved: list[int] = []
        for b, parts in parts_of.items():
            if size[b] == sum(map(len, parts.values())):
                # every member was re-signed: the first part keeps the id
                del parts[next(iter(parts))]
            for members in parts.values():
                new = len(size)
                size.append(len(members))
                size[b] -= len(members)
                for s in members:
                    block[s] = new
                moved += members
        if not moved:
            break
        history.append(_first_occurrence(block))
        if sources is None:
            starts, sources = _predecessors(transitions)
        dirty = sorted({p for t in moved for p in sources[starts[t]:starts[t + 1]]})
    return tuple(history)


def _rank(history, s: int, t: int) -> int | None:
    for k, blocks in enumerate(history):
        if blocks[s] != blocks[t]:
            return k
    return None


def _in_relation(history, s: int, t: int, level: int) -> bool:
    blocks = history[min(level, len(history) - 1)]
    return blocks[s] == blocks[t]


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
    history: tuple[tuple[int, ...], ...]
    states: tuple
    adjacency: Transitions
    valuations: tuple[Valuation, ...]

    def successors(self, i: int) -> list[tuple]:
        return self.adjacency.successors(i)

    @property
    def relation_size(self) -> int:
        return sum(n * (n + 1) // 2 for n in Counter(self.history[-1]).values())


def _result(mode: str, states: tuple, adjacency: Transitions,
            valuations: tuple[Valuation, ...], initial_blocks: Sequence[int],
            s: int, t: int) -> BisimResult:
    """Refines the seeded partition and reads the verdict on (s, t) off it."""
    history = refinement_history(adjacency, initial_blocks)
    final = history[-1]
    return BisimResult(mode=mode, equivalent=final[s] == final[t], left=s,
                       right=t, rounds=len(history) - 1, history=history,
                       states=states, adjacency=adjacency, valuations=valuations)


def strong_bisim(lts: Lts, s: int, t: int) -> BisimResult:
    """Coarsest strong bisimulation on a finite LTS, via refinement."""
    return _result("strong", lts.states, lts.transitions, (),
                   [0] * len(lts.states), s, t)


def state_based_bisim_on_lts(lts: Lts, s: int, t: int) -> BisimResult:
    """Greatest fixpoint of Definition 5 on an explored LTS of `GvState`s;
    the initial partition splits states by their full valuation."""
    seen: dict[Valuation, int] = {}
    initial = [seen.setdefault(state.valuation, len(seen)) for state in lts.states]
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
