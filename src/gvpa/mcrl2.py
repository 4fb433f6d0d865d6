"""Executable semantics of the mCRL2 fragment used by the translation.

Multi-actions with data parameters, their multiset interpretation, the
communication / hiding / allow operators on semantic multi-actions, and
the operational rules for the process fragment (synchronous merge, sum
over the finite domain, parameterised recursion).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .sos import DEFAULT_CONFIG, ExplorationConfig, Lts, _bfs_lts


# ---------------------------------------------------------------------------
# Multisets


class Multiset:
    """An immutable multiset with truncated subtraction and inclusion."""

    __slots__ = ("_pairs", "_hash")

    def __init__(self, items: Iterable = (), counts: Mapping | None = None):
        counter: Counter = Counter()
        for item in items:
            counter[item] += 1
        if counts:
            for item, count in counts.items():
                counter[item] += count
        pairs = tuple(sorted(
            ((e, c) for e, c in counter.items() if c > 0),
            key=lambda pair: str(pair[0])))
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_hash", hash(pairs))

    def items(self) -> tuple:
        return self._pairs

    def elements(self) -> list:
        out = []
        for element, count in self._pairs:
            out.extend([element] * count)
        return out

    def count(self, element) -> int:
        for e, c in self._pairs:
            if e == element:
                return c
        return 0

    def total(self) -> int:
        return sum(c for _, c in self._pairs)

    def __contains__(self, element) -> bool:
        return self.count(element) > 0

    def __bool__(self) -> bool:
        return bool(self._pairs)

    def __add__(self, other: "Multiset") -> "Multiset":
        counts = Counter(dict(self._pairs))
        for e, c in other._pairs:
            counts[e] += c
        return Multiset(counts=counts)

    def __sub__(self, other: "Multiset") -> "Multiset":
        counts = Counter(dict(self._pairs))
        for e, c in other._pairs:
            counts[e] -= c
        return Multiset(counts={e: c for e, c in counts.items() if c > 0})

    def includes(self, other: "Multiset") -> bool:
        """True iff ``other`` is a sub-multiset of self."""
        return all(self.count(e) >= c for e, c in other._pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Multiset) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{e}:{c}" for e, c in self._pairs)
        return f"[[{inner}]]"


EMPTY_MULTISET = Multiset()


# ---------------------------------------------------------------------------
# Ground action labels and data expressions


@dataclass(frozen=True)
class GroundAction:
    """An action name applied to evaluated parameters."""

    name: str
    args: tuple = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        rendered = ",".join(_ground_str(a) for a in self.args)
        return f"{self.name}({rendered})"


def _ground_str(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


class DataExpr:
    __slots__ = ()


@dataclass(frozen=True)
class DConst(DataExpr):
    symbol: str


@dataclass(frozen=True)
class DBool(DataExpr):
    value: bool


@dataclass(frozen=True)
class DVar(DataExpr):
    name: str


@dataclass(frozen=True)
class DEq(DataExpr):
    left: DataExpr
    right: DataExpr


@dataclass(frozen=True)
class DAnd(DataExpr):
    conjuncts: tuple[DataExpr, ...]


def eval_data(expr: DataExpr, env: Mapping[str, object] | None = None):
    if isinstance(expr, DConst):
        return expr.symbol
    if isinstance(expr, DBool):
        return expr.value
    if isinstance(expr, DVar):
        if env and expr.name in env:
            return env[expr.name]
        raise ValueError(f"unbound data variable {expr.name}")
    if isinstance(expr, DEq):
        return eval_data(expr.left, env) == eval_data(expr.right, env)
    if isinstance(expr, DAnd):
        return all(eval_data(c, env) for c in expr.conjuncts)
    raise TypeError(f"not a data expression: {expr!r}")


def subst_data(expr: DataExpr, var: str, replacement: DataExpr) -> DataExpr:
    if isinstance(expr, DVar):
        return replacement if expr.name == var else expr
    if isinstance(expr, DEq):
        return DEq(subst_data(expr.left, var, replacement),
                   subst_data(expr.right, var, replacement))
    if isinstance(expr, DAnd):
        return DAnd(tuple(subst_data(c, var, replacement) for c in expr.conjuncts))
    return expr


# ---------------------------------------------------------------------------
# Multi-actions


class MultiAction:
    __slots__ = ()


@dataclass(frozen=True)
class MTau(MultiAction):
    pass


@dataclass(frozen=True)
class MAct(MultiAction):
    name: str
    args: tuple[DataExpr, ...] = ()


@dataclass(frozen=True)
class MBar(MultiAction):
    left: MultiAction
    right: MultiAction


TAU = MTau()


def sem_multiaction(action: MultiAction,
                    env: Mapping[str, object] | None = None) -> Multiset:
    """The semantic multi-action: tau is empty, bar is multiset addition."""
    if isinstance(action, MTau):
        return EMPTY_MULTISET
    if isinstance(action, MAct):
        args = tuple(eval_data(a, env) for a in action.args)
        return Multiset([GroundAction(action.name, args)])
    if isinstance(action, MBar):
        return sem_multiaction(action.left, env) + sem_multiaction(action.right, env)
    raise TypeError(f"not a multi-action: {action!r}")


def names_of(sem: Multiset) -> Multiset:
    """Name projection of a semantic multi-action."""
    counts: Counter = Counter()
    for element, count in sem.items():
        counts[element.name] += count
    return Multiset(counts=counts)


def apply_comm(entries: Sequence[tuple[Multiset, str]], sem: Multiset) -> Multiset:
    """Exhaustively applies the renamings to parameter-matching handshakes.

    An entry (lhs, result) fires on a sub-multiset carrying one instance
    of every lhs name, all with identical parameter lists; those labels
    collapse into the result name carrying the same parameters. Disjoint
    left-hand sides make the outcome order-independent.
    """
    changed = True
    while changed:
        changed = False
        for lhs, result in entries:
            lhs_items = lhs.items()
            if not lhs_items:
                continue
            first_name = lhs_items[0][0]
            candidates = [e for e, _ in sem.items() if e.name == first_name]
            for candidate in candidates:
                args = candidate.args
                needed = Multiset(
                    counts={GroundAction(name, args): count
                            for name, count in lhs_items})
                if sem.includes(needed):
                    sem = sem - needed + Multiset([GroundAction(result, args)])
                    changed = True
                    break
            if changed:
                break
    return sem


def apply_hide(hidden: frozenset[str], sem: Multiset) -> Multiset:
    """Zeroes the multiplicity of every label whose name is hidden."""
    counts = {e: c for e, c in sem.items() if e.name not in hidden}
    return Multiset(counts=counts)


# ---------------------------------------------------------------------------
# Process terms


class Mcrl2Process:
    __slots__ = ()


@dataclass(frozen=True)
class MPrefix(Mcrl2Process):
    action: MultiAction
    body: Mcrl2Process


@dataclass(frozen=True)
class MDeadlock(Mcrl2Process):
    pass


@dataclass(frozen=True)
class MChoice(Mcrl2Process):
    left: Mcrl2Process
    right: Mcrl2Process


@dataclass(frozen=True)
class MParallel(Mcrl2Process):
    left: Mcrl2Process
    right: Mcrl2Process


@dataclass(frozen=True)
class MAllow(Mcrl2Process):
    allowed: frozenset[Multiset]  # multisets of action names
    body: Mcrl2Process


@dataclass(frozen=True)
class MCall(Mcrl2Process):
    name: str
    args: tuple[DataExpr, ...] = ()


@dataclass(frozen=True)
class MSum(Mcrl2Process):
    var: str
    body: Mcrl2Process


@dataclass(frozen=True)
class MHide(Mcrl2Process):
    hidden: frozenset[str]
    body: Mcrl2Process


@dataclass(frozen=True)
class MComm(Mcrl2Process):
    entries: tuple[tuple[Multiset, str], ...]
    body: Mcrl2Process


MDELTA = MDeadlock()


def subst_action(action: MultiAction, var: str, replacement: DataExpr) -> MultiAction:
    if isinstance(action, MAct):
        return MAct(action.name,
                    tuple(subst_data(a, var, replacement) for a in action.args))
    if isinstance(action, MBar):
        return MBar(subst_action(action.left, var, replacement),
                    subst_action(action.right, var, replacement))
    return action


def subst_proc(proc: Mcrl2Process, var: str, replacement: DataExpr) -> Mcrl2Process:
    if isinstance(proc, MPrefix):
        return MPrefix(subst_action(proc.action, var, replacement),
                       subst_proc(proc.body, var, replacement))
    if isinstance(proc, MDeadlock):
        return proc
    if isinstance(proc, MChoice):
        return MChoice(subst_proc(proc.left, var, replacement),
                       subst_proc(proc.right, var, replacement))
    if isinstance(proc, MParallel):
        return MParallel(subst_proc(proc.left, var, replacement),
                         subst_proc(proc.right, var, replacement))
    if isinstance(proc, MAllow):
        return MAllow(proc.allowed, subst_proc(proc.body, var, replacement))
    if isinstance(proc, MCall):
        return MCall(proc.name,
                     tuple(subst_data(a, var, replacement) for a in proc.args))
    if isinstance(proc, MSum):
        if proc.var == var:  # inner binder shadows
            return proc
        return MSum(proc.var, subst_proc(proc.body, var, replacement))
    if isinstance(proc, MHide):
        return MHide(proc.hidden, subst_proc(proc.body, var, replacement))
    if isinstance(proc, MComm):
        return MComm(proc.entries, subst_proc(proc.body, var, replacement))
    raise TypeError(f"not an mCRL2 process: {proc!r}")


# ---------------------------------------------------------------------------
# Recursive specification and steps


@dataclass(frozen=True)
class Mcrl2Spec:
    """Defining equations plus the finite data domain the sums range over."""

    domain: tuple[str, ...]
    equations: tuple[tuple[str, tuple[str, ...], Mcrl2Process], ...]
    _eqmap: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(
            self, "_eqmap",
            {name: (params, body) for name, params, body in self.equations})

    def equation(self, name: str) -> tuple[tuple[str, ...], Mcrl2Process]:
        return self._eqmap[name]


def step_mcrl2(env: Mcrl2Spec, proc: Mcrl2Process,
               _unfolding: frozenset = frozenset()) -> tuple[tuple[Multiset, Mcrl2Process], ...]:
    """All transitions of a process term, deterministically ordered."""
    return tuple(dict.fromkeys(_msteps(env, proc, _unfolding)))


def _msteps(env: Mcrl2Spec, proc: Mcrl2Process, unfolding):
    if isinstance(proc, MDeadlock):
        return []
    if isinstance(proc, MPrefix):
        return [(sem_multiaction(proc.action), proc.body)]
    if isinstance(proc, MChoice):
        return (_msteps(env, proc.left, unfolding)
                + _msteps(env, proc.right, unfolding))
    if isinstance(proc, MParallel):
        left = _msteps(env, proc.left, unfolding)
        right = _msteps(env, proc.right, unfolding)
        out = []
        for alpha, target in left:
            out.append((alpha, MParallel(target, proc.right)))
        for beta, target in right:
            out.append((beta, MParallel(proc.left, target)))
        for alpha, lt in left:
            for beta, rt in right:
                out.append((alpha + beta, MParallel(lt, rt)))
        return out
    if isinstance(proc, MSum):
        out = []
        for value in env.domain:
            body = subst_proc(proc.body, proc.var, DConst(value))
            out.extend(_msteps(env, body, unfolding))
        return out
    if isinstance(proc, MCall):
        if proc.name in unfolding:
            return []
        params, body = env.equation(proc.name)
        if len(params) != len(proc.args):
            raise ValueError(
                f"{proc.name} expects {len(params)} arguments, got {len(proc.args)}")
        for param, arg in zip(params, proc.args):
            value = eval_data(arg)
            if not isinstance(value, str):
                raise ValueError(
                    f"argument of {proc.name} must be a domain value, got {value!r}")
            body = subst_proc(body, param, DConst(value))
        return _msteps(env, body, unfolding | {proc.name})
    if isinstance(proc, MHide):
        return [(apply_hide(proc.hidden, alpha), MHide(proc.hidden, target))
                for alpha, target in _msteps(env, proc.body, unfolding)]
    if isinstance(proc, MComm):
        return [(apply_comm(proc.entries, alpha), MComm(proc.entries, target))
                for alpha, target in _msteps(env, proc.body, unfolding)]
    if isinstance(proc, MAllow):
        out = []
        for alpha, target in _msteps(env, proc.body, unfolding):
            if not alpha or names_of(alpha) in proc.allowed:
                out.append((alpha, MAllow(proc.allowed, target)))
        return out
    raise TypeError(f"not an mCRL2 process: {proc!r}")


# ---------------------------------------------------------------------------
# Canonical label strings and LTS generation


def _arg_sort_key(domain: tuple[str, ...], value) -> tuple:
    if isinstance(value, bool):
        return (1, int(value), "")
    if value in domain:
        return (0, domain.index(value), "")
    return (2, 0, str(value))


def canonical_label(domain: tuple[str, ...], sem: Multiset) -> str:
    """Elements sorted by name then argument values in domain order,
    repeated by multiplicity, bar-joined; the empty multiset is tau."""
    if not sem:
        return "tau"
    elements = sorted(
        sem.elements(),
        key=lambda e: (e.name, tuple(_arg_sort_key(domain, a) for a in e.args)))
    return "|".join(str(e) for e in elements)


def explore_mcrl2(env: Mcrl2Spec, roots: Sequence[Mcrl2Process],
                  cfg: ExplorationConfig = DEFAULT_CONFIG) -> tuple[Lts, tuple[int, ...]]:
    """BFS-reachable fragment from several roots; labels are canonical
    multi-action strings."""
    def successors(term: Mcrl2Process):
        return [(canonical_label(env.domain, sem), target)
                for sem, target in step_mcrl2(env, term)]

    return _bfs_lts(roots, successors, cfg.max_states)


def generate_lts_mcrl2(env: Mcrl2Spec, proc: Mcrl2Process,
                       cfg: ExplorationConfig = DEFAULT_CONFIG) -> Lts:
    lts, _ = explore_mcrl2(env, [proc], cfg)
    return lts
