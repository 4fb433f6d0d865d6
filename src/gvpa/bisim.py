"""Strong, state-based and stateless bisimilarity, plus synthesis of
distinguishing formulas from the refinement fixpoint.

All three equivalences run on signature-based partition refinement where
round k of the history equals bisimilarity up to depth k (seeded by the
initial partition). Stateless bisimilarity is strong bisimilarity on the
expression-level system whose labels are (valuation, label, target
valuation) triples: the matching clause of its definition quantifies over
every valuation and fixes the target valuation.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from .errors import ContractViolationError
from .hml import Check, Diamond, HmlFormula, Not, conjunction, set_all
from .sos import (
    DEFAULT_CONFIG, ExplorationConfig, GvState, Lts, explore, expression_closure,
)
from .syntax import ProcessExpr, RecursiveSpec, Valuation


# ---------------------------------------------------------------------------
# Partition refinement


def refinement_history(n_states: int,
                       adjacency: Sequence[Sequence[tuple]],
                       initial_blocks: Sequence[int]) -> list[list[int]]:
    """Rounds of signature refinement until stable.

    ``history[k][s]`` is the block of state ``s`` after k full sweeps;
    states share a block at round k iff no formula of modal depth <= k
    (over the seeded atoms) tells them apart.
    """
    history = [list(initial_blocks)]
    current = history[0]
    while True:
        ids: dict = {}
        nxt = []
        for s in range(n_states):
            signature = frozenset(
                (label, current[t]) for label, t in adjacency[s])
            key = (current[s], signature)
            if key not in ids:
                ids[key] = len(ids)
            nxt.append(ids[key])
        if len(ids) == len(set(current)):
            break
        history.append(nxt)
        current = nxt
    return history


def _rank(history, s: int, t: int) -> int | None:
    for k, blocks in enumerate(history):
        if blocks[s] != blocks[t]:
            return k
    return None


def _in_relation(history, s: int, t: int, level: int) -> bool:
    blocks = history[min(level, len(history) - 1)]
    return blocks[s] == blocks[t]


def _blocks_of(ids: Sequence[int]) -> tuple[frozenset[int], ...]:
    out: dict[int, set[int]] = {}
    for state, block in enumerate(ids):
        out.setdefault(block, set()).add(state)
    return tuple(frozenset(out[b]) for b in sorted(out))


def _verdict(history: list[list[int]], s: int, t: int) -> dict:
    """The fields every result type shares, read off a refinement history."""
    final = history[-1]
    return dict(equivalent=final[s] == final[t], left=s, right=t,
                rounds=len(history) - 1, blocks=_blocks_of(final),
                history=history)


# ---------------------------------------------------------------------------
# Strong bisimilarity


@dataclass
class StrongResult:
    equivalent: bool
    left: int
    right: int
    rounds: int
    blocks: tuple[frozenset[int], ...]
    history: list[list[int]]

    @property
    def relation_size(self) -> int:
        return sum(len(b) * (len(b) + 1) // 2 for b in self.blocks)


def strong_bisim(lts: Lts, s: int, t: int) -> StrongResult:
    """Coarsest strong bisimulation on a finite LTS, via refinement."""
    adjacency = [lts.successors(i) for i in range(len(lts.states))]
    history = refinement_history(len(lts.states), adjacency, [0] * len(lts.states))
    return StrongResult(**_verdict(history, s, t))


# ---------------------------------------------------------------------------
# State-based bisimilarity


@dataclass
class StateBasedResult:
    equivalent: bool
    lts: Lts
    left: int
    right: int
    rounds: int
    blocks: tuple[frozenset[int], ...]
    history: list[list[int]]

    @property
    def relation_size(self) -> int:
        return sum(len(b) * (len(b) + 1) // 2 for b in self.blocks)

    def related_pairs(self) -> frozenset:
        pairs = set()
        for block in self.blocks:
            for a, b in combinations(sorted(block), 2):
                pairs.add((self.lts.states[a], self.lts.states[b]))
        return frozenset(pairs)


def _valuation_seeded_history(lts: Lts) -> list[list[int]]:
    seen: dict[Valuation, int] = {}
    initial = [seen.setdefault(state.valuation, len(seen)) for state in lts.states]
    adjacency = [lts.successors(i) for i in range(len(lts.states))]
    return refinement_history(len(lts.states), adjacency, initial)


def state_based_bisim(spec: RecursiveSpec, s: GvState, t: GvState,
                      cfg: ExplorationConfig = DEFAULT_CONFIG) -> StateBasedResult:
    """Greatest fixpoint of Definition 5 on the joint reachable LTS; the
    initial partition splits states by their full valuation."""
    lts, (si, ti) = explore(spec, [s, t], cfg)
    history = _valuation_seeded_history(lts)
    return StateBasedResult(lts=lts, **_verdict(history, si, ti))


# ---------------------------------------------------------------------------
# Stateless bisimilarity


@dataclass
class StatelessResult:
    equivalent: bool
    exprs: tuple[ProcessExpr, ...]
    valuations: tuple[Valuation, ...]
    left: int
    right: int
    rounds: int
    blocks: tuple[frozenset[int], ...]
    history: list[list[int]]

    @property
    def relation_size(self) -> int:
        return sum(len(b) * (len(b) + 1) // 2 for b in self.blocks)

    def related_pairs(self) -> frozenset:
        pairs = set()
        for block in self.blocks:
            members = sorted(block)
            for a in members:
                pairs.add(frozenset({self.exprs[a]}))
            for a, b in combinations(members, 2):
                pairs.add(frozenset({self.exprs[a], self.exprs[b]}))
        return frozenset(pairs)


def stateless_bisim(spec: RecursiveSpec, p: ProcessExpr, q: ProcessExpr,
                    cfg: ExplorationConfig = DEFAULT_CONFIG) -> StatelessResult:
    """Greatest fixpoint of Definition 3, by valuation enumeration."""
    exprs, valuations, adjacency, (pi, qi) = expression_closure(spec, [p, q], cfg)
    history = refinement_history(len(exprs), adjacency, [0] * len(exprs))
    return StatelessResult(exprs=exprs, valuations=valuations,
                           **_verdict(history, pi, qi))


# ---------------------------------------------------------------------------
# Distinguishing formulas


def _first_difference(a: Valuation, b: Valuation) -> str:
    for (var, left), (_, right) in zip(a.entries, b.entries):
        if left != right:
            return var
    raise ValueError("valuations do not differ")


def _distinguish(successors: Callable[[int], Sequence[tuple]], history,
                 a: int, b: int, what: str, diamond,
                 split=None) -> tuple[HmlFormula, object]:
    """A ``(formula, witness)`` pair that holds at ``a`` and fails at ``b``,
    read off the refinement history after Cleaveland (CAV 1990).

    ``successors(i)`` lists the ``(label, j)`` moves of state ``i``. A pair
    split at round k >= 1 has a move of one side that the other cannot
    match into round k-1; ``diamond(label, refutations)`` builds the formula
    for that move from one refutation per same-label partner.
    ``split(a, b)`` refutes pairs already apart in the initial partition.
    """
    if _rank(history, a, b) is None:
        raise ContractViolationError(
            f"distinguishing formula requested for {what}")
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

    return distinguish(a, b)


def distinguishing_formula_stateless(
        spec: RecursiveSpec, p: ProcessExpr, q: ProcessExpr,
        cfg: ExplorationConfig = DEFAULT_CONFIG,
        at: Valuation | None = None) -> tuple[HmlFormula, Valuation]:
    """A formula/valuation pair with ``<p,V> |= phi`` and ``<q,V> |/= phi``.

    Mirrors the refutation construction behind the stateless
    correspondence theorem: an unmatched move yields a diamond over a
    conjunction of set-all-wrapped recursive refutations, one per partner
    with the same source valuation and label (which fix its target
    valuation). When ``at`` pins the evaluation valuation, the result is
    wrapped so the split holds there.
    """
    exprs, valuations, adjacency, (pi, qi) = expression_closure(spec, [p, q], cfg)
    history = refinement_history(len(exprs), adjacency, [0] * len(exprs))

    def diamond(move, refutations):
        v_i, label, _ = move
        body = conjunction(list(dict.fromkeys(
            set_all(witness, formula) for formula, witness in refutations)))
        return Diamond(frozenset({label}), body), valuations[v_i]

    formula, witness = _distinguish(adjacency.__getitem__, history, pi, qi,
                                    "stateless-bisimilar expressions", diamond)
    if at is not None and at != witness:
        return set_all(witness, formula), at
    return formula, witness


def distinguishing_formula_state_based(
        spec: RecursiveSpec, s: GvState, t: GvState,
        cfg: ExplorationConfig = DEFAULT_CONFIG) -> HmlFormula:
    """A check-only formula holding at `s` and failing at `t`.

    Root pairs with differing valuations get a bare check; otherwise an
    unmatched move yields a diamond over recursive refutations.
    """
    lts, (si, ti) = explore(spec, [s, t], cfg)
    history = _valuation_seeded_history(lts)

    def diamond(label, refutations):
        body = conjunction(list(dict.fromkeys(f for f, _ in refutations)))
        return Diamond(frozenset({label}), body), None

    def split(a: int, b: int):
        va = lts.states[a].valuation
        var = _first_difference(va, lts.states[b].valuation)
        return Check(var, va.value_of(var)), None

    return _distinguish(lts.successors, history, si, ti, "state-based-bisimilar states",
                        diamond, split)[0]
