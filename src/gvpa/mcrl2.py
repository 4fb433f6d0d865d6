"""Executable semantics of the mCRL2 fragment used by the translation.

Multi-actions with data parameters, their multiset interpretation, the
communication / hiding / allow operators on semantic multi-actions, and
the operational rules for the process fragment (synchronous merge, sum
over the finite domain, parameterised recursion). Under an allow, the
merge forms only the multi-actions the allow/hide/comm stack can keep,
and the outermost merge binds the sums whose binders one partner fixes.
One step table per exploration keeps the steps of every term it meets.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from typing import Iterable, Mapping, Sequence

from .sos import DEFAULT_CONFIG, ExplorationConfig, Lts, _bfs_lts
from .syntax import Record, Term


# ---------------------------------------------------------------------------
# Multisets


class Multiset:
    """An immutable multiset; ``+`` adds two.

    Equality and the hash read the element counts, so they do not depend
    on insertion order. ``items`` lists the elements in a total order that
    sorts plain strings as ``str`` does.
    """

    __slots__ = ("_counts", "_items", "_hash")

    def __init__(self, items: Iterable = ()):
        table: dict = {}
        for item in items:
            table[item] = table.get(item, 0) + 1
        self._counts = table
        self._items = None
        self._hash = None

    @classmethod
    def _of(cls, counts: dict) -> "Multiset":
        """Wraps a dict of positive counts; the caller gives it up."""
        out = cls.__new__(cls)
        out._counts = counts
        out._items = None
        out._hash = None
        return out

    def items(self) -> tuple:
        if self._items is None:
            self._items = tuple(sorted(self._counts.items(),
                                       key=lambda pair: _order_key(pair[0])))
        return self._items

    def elements(self) -> list:
        out = []
        for element, count in self.items():
            out.extend([element] * count)
        return out

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __add__(self, other: "Multiset") -> "Multiset":
        counts = dict(self._counts)
        for e, c in other._counts.items():
            counts[e] = counts.get(e, 0) + c
        return Multiset._of(counts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Multiset) and self._counts == other._counts

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._counts.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{e}:{c}" for e, c in self.items())
        return f"[[{inner}]]"


def _order_key(element) -> tuple:
    """A total order on multiset elements: names sort as strings, ground
    actions by name and then by their arguments' types and values."""
    if isinstance(element, str):
        return (0, element)
    if isinstance(element, GroundAction):
        return (1, element.name,
                tuple((type(a).__name__, repr(a)) for a in element.args))
    return (2, type(element).__name__, repr(element))


EMPTY_MULTISET = Multiset()


# ---------------------------------------------------------------------------
# Ground action labels and data expressions


class GroundAction(Term):
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


class DataExpr(Term):
    pass


class DConst(DataExpr):
    symbol: str


class DBool(DataExpr):
    value: bool


class DVar(DataExpr):
    name: str


class DEq(DataExpr):
    left: DataExpr
    right: DataExpr


class DAnd(DataExpr):
    conjuncts: tuple[DataExpr, ...]


def eval_data(expr: DataExpr):
    if isinstance(expr, DConst):
        return expr.symbol
    if isinstance(expr, DBool):
        return expr.value
    if isinstance(expr, DVar):
        raise ValueError(f"unbound data variable {expr.name}")
    if isinstance(expr, DEq):
        return eval_data(expr.left) == eval_data(expr.right)
    if isinstance(expr, DAnd):
        return all(eval_data(c) for c in expr.conjuncts)
    raise TypeError(f"not a data expression: {expr!r}")


# ---------------------------------------------------------------------------
# Multi-actions


class MultiAction(Term):
    pass


class MTau(MultiAction):
    pass


class MAct(MultiAction):
    name: str
    args: tuple[DataExpr, ...] = ()


class MBar(MultiAction):
    left: MultiAction
    right: MultiAction


TAU = MTau()


def _acts(action: MultiAction) -> list:
    """The actions of a multi-action, left to right; tau holds none."""
    if isinstance(action, MBar):
        return _acts(action.left) + _acts(action.right)
    if isinstance(action, MAct):
        return [action]
    if isinstance(action, MTau):
        return []
    raise TypeError(f"not a multi-action: {action!r}")


def sem_multiaction(action: MultiAction) -> Multiset:
    """The semantic multi-action: tau is empty, bar is multiset addition."""
    counts: dict = {}
    for act in _acts(action):
        element = GroundAction(act.name, tuple(eval_data(a) for a in act.args))
        counts[element] = counts.get(element, 0) + 1
    return Multiset._of(counts)


def names_of(sem: Multiset) -> Multiset:
    """Name projection of a semantic multi-action."""
    counts: dict = {}
    for element, count in sem._counts.items():
        counts[element.name] = counts.get(element.name, 0) + count
    return Multiset._of(counts)


def _groups(sem: Multiset) -> dict:
    """The name counts of a semantic multi-action per argument tuple."""
    groups: dict = {}
    for element, count in sem._counts.items():
        group = groups.setdefault(element.args, {})
        group[element.name] = group.get(element.name, 0) + count
    return groups


def _fire(entries: Sequence[tuple[Multiset, str]], group: dict) -> dict:
    """Fires comm entries on the name counts of one argument group, in
    place: the first entry whose names the group holds, again and again,
    until none applies. An entry with no names never fires."""
    fired = True
    while fired:
        fired = False
        for lhs, result in entries:
            need = lhs._counts
            if need and all(group.get(n, 0) >= c for n, c in need.items()):
                for n, c in need.items():
                    group[n] -= c
                group[result] = group.get(result, 0) + 1
                fired = True
                break
    return group


def apply_comm(entries: Sequence[tuple[Multiset, str]], sem: Multiset) -> Multiset:
    """Exhaustively applies the renamings to parameter-matching handshakes.

    An entry (lhs, result) fires on a sub-multiset carrying one instance
    of every lhs name, all with identical parameter lists; those labels
    collapse into the result name carrying the same parameters. Disjoint
    left-hand sides make the outcome order-independent; otherwise the
    entry order decides (see `_fire`).
    """
    counts: dict = {}
    for args, group in _groups(sem).items():
        for name, count in _fire(entries, group).items():
            if count:
                counts[GroundAction(name, args)] = count
    return Multiset._of(counts)


def apply_hide(hidden: frozenset[str], sem: Multiset) -> Multiset:
    """Zeroes the multiplicity of every label whose name is hidden."""
    return Multiset._of({e: c for e, c in sem._counts.items()
                         if e.name not in hidden})


# ---------------------------------------------------------------------------
# Process terms


class Mcrl2Process(Term):
    pass


class MPrefix(Mcrl2Process):
    action: MultiAction
    body: Mcrl2Process


class MDeadlock(Mcrl2Process):
    pass


class MChoice(Mcrl2Process):
    left: Mcrl2Process
    right: Mcrl2Process


class MParallel(Mcrl2Process):
    left: Mcrl2Process
    right: Mcrl2Process


class MAllow(Mcrl2Process):
    allowed: frozenset[Multiset]  # multisets of action names
    body: Mcrl2Process


class MCall(Mcrl2Process):
    name: str
    args: tuple[DataExpr, ...] = ()


class MSum(Mcrl2Process):
    var: str
    body: Mcrl2Process


class MHide(Mcrl2Process):
    hidden: frozenset[str]
    body: Mcrl2Process


class MComm(Mcrl2Process):
    entries: tuple[tuple[Multiset, str], ...]
    body: Mcrl2Process


MDELTA = MDeadlock()


def instantiate(term, values: Mapping[str, str]):
    """A data expression, multi-action or process term with every free
    variable named in ``values`` replaced by its value as a constant, in
    one walk. A sum over a bound name drops that name from what it passes
    on, and returns the sum unchanged when no name is left."""
    cls = term.__class__
    if cls is DVar:
        value = values.get(term.name)
        return term if value is None else DConst(value)
    if cls is MAct:
        return MAct(term.name, tuple(instantiate(a, values) for a in term.args))
    if cls is MPrefix:
        return MPrefix(instantiate(term.action, values), instantiate(term.body, values))
    if cls is MCall:
        return MCall(term.name, tuple(instantiate(a, values) for a in term.args))
    if cls is MSum:
        if term.var in values:  # the binder shadows its name
            values = {k: v for k, v in values.items() if k != term.var}
            if not values:
                return term
        return MSum(term.var, instantiate(term.body, values))
    if cls is MChoice or cls is MParallel or cls is MBar or cls is DEq:
        return cls(instantiate(term.left, values), instantiate(term.right, values))
    if cls is DAnd:
        return DAnd(tuple(instantiate(c, values) for c in term.conjuncts))
    if cls is MAllow:
        return MAllow(term.allowed, instantiate(term.body, values))
    if cls is MHide:
        return MHide(term.hidden, instantiate(term.body, values))
    if cls is MComm:
        return MComm(term.entries, instantiate(term.body, values))
    if isinstance(term, (DataExpr, MultiAction, MDeadlock)):
        return term
    raise TypeError(f"not an mCRL2 term: {term!r}")


# ---------------------------------------------------------------------------
# Recursive specification and steps


class Mcrl2Spec(Record):
    """Defining equations plus the finite data domain the sums range over."""

    domain: tuple[str, ...]
    equations: tuple[tuple[str, tuple[str, ...], Mcrl2Process], ...]
    _eqmap: dict

    def __post_init__(self):
        object.__setattr__(
            self, "_eqmap",
            {name: (params, body) for name, params, body in self.equations})

    def equation(self, name: str) -> tuple[tuple[str, ...], Mcrl2Process]:
        return self._eqmap[name]


class _StepTable(dict):
    """The steps of the terms met in one exploration, keyed by ``(term,
    unfolding set, keep, complete, bind)``; a missing entry is derived.

    Without ``keep`` an entry lists ``(alpha, target)`` pairs. With it, it
    lists only the steps the enclosing allow stack can keep (see `_Keep`),
    as rows ``(alpha, target, names, needs, args)`` made once by
    `_Keep.row`; ``complete`` says that nothing is added to a step before
    that stack's comm, so its argument groups are final. ``bind`` holds the
    ``(name, arguments)`` pairs with which the outermost join fixes sum
    binders (see `_Keep.bound`). Terms are interned, so keys hash by id.
    """

    __slots__ = ("env",)

    def __init__(self, env: Mcrl2Spec):
        super().__init__()
        self.env = env

    def steps(self, proc: Mcrl2Process) -> tuple:
        # a root's own steps are not stored: the explorer steps each once
        return tuple(dict.fromkeys(self._derive(proc, frozenset(), None, False, None)))

    def __missing__(self, key: tuple) -> list:
        rows = self[key] = self._derive(*key)
        return rows

    def _derive(self, proc, unfolding, keep, complete, bind) -> list:
        if isinstance(proc, MDeadlock):
            return []
        if isinstance(proc, MPrefix):
            steps = [(sem_multiaction(proc.action), proc.body)]
            return steps if keep is None else keep.rows(steps, complete)
        if isinstance(proc, MChoice):
            return (self[proc.left, unfolding, keep, complete, bind]
                    + self[proc.right, unfolding, keep, complete, bind])
        if isinstance(proc, MParallel):
            if keep is not None:
                return keep.parallel(self, proc, unfolding, complete, bind)
            left = self[proc.left, unfolding, None, False, None]
            right = self[proc.right, unfolding, None, False, None]
            return ([(alpha, MParallel(target, proc.right)) for alpha, target in left]
                    + [(beta, MParallel(proc.left, target)) for beta, target in right]
                    + [(alpha + beta, MParallel(lt, rt))
                       for alpha, lt in left for beta, rt in right])
        if isinstance(proc, MSum):
            fixed = keep.bound(proc, bind, self.env.domain) if bind else None
            if fixed is not None:
                prefix = instantiate(*fixed)
                return keep.rows([(sem_multiaction(prefix.action), prefix.body)], complete)
            return [row for value in self.env.domain
                    for row in self[instantiate(proc.body, {proc.var: value}),
                                    unfolding, keep, complete, bind]]
        if isinstance(proc, MCall):
            if proc.name in unfolding:
                return []
            params, body = self.env.equation(proc.name)
            if len(params) != len(proc.args):
                raise ValueError(
                    f"{proc.name} expects {len(params)} arguments, got {len(proc.args)}")
            values = {}
            for param, arg in zip(params, proc.args):
                value = eval_data(arg)
                if not isinstance(value, str):
                    raise ValueError(
                        f"argument of {proc.name} must be a domain value, got {value!r}")
                values[param] = value
            if values:
                body = instantiate(body, values)
            return self[body, unfolding | {proc.name}, keep, complete, bind]
        # hide, comm and allow rewrite or filter labels, so an enclosing
        # stack's restriction applies to what they return
        steps = self._operator_steps(proc, unfolding)
        return steps if keep is None else keep.rows(steps, complete)

    def _operator_steps(self, proc: Mcrl2Process, unfolding) -> list:
        if isinstance(proc, (MHide, MComm)):
            return _relabel(proc, self[proc.body, unfolding, None, False, None])
        if not isinstance(proc, MAllow):
            raise TypeError(f"not an mCRL2 process: {proc!r}")
        body, hide, comm = proc.body, None, None
        if isinstance(body, MHide):
            hide, body = body, body.body
        if isinstance(body, MComm):
            comm, body = body, body.body
        keep = _keep_for(proc.allowed, hide.hidden if hide else frozenset(),
                         comm.entries if comm else ())
        steps = (self[body, unfolding, None, False, None] if keep is None
                 else [row[:2] for row in self[body, unfolding, keep, True, None]])
        for op in (comm, hide):
            if op is not None:
                steps = _relabel(op, steps)
        return [(alpha, MAllow(proc.allowed, target)) for alpha, target in steps
                if not alpha or names_of(alpha) in proc.allowed]


def _relabel(op: MHide | MComm, steps) -> list:
    """The steps of a hide or comm over the steps of its body."""
    if isinstance(op, MHide):
        return [(apply_hide(op.hidden, alpha), MHide(op.hidden, target))
                for alpha, target in steps]
    return [(apply_comm(op.entries, alpha), MComm(op.entries, target))
            for alpha, target in steps]


# ---------------------------------------------------------------------------
# What an allow/hide/comm stack can keep


class _Keep:
    """The multi-actions that ``allow(A, hide(H, comm(C, ...)))`` can keep,
    judged before comm, for comm entries that do not chain.

    Names: a name that is hidden, or sits on the left of a comm entry
    whose result is hidden, is *free* and may occur any number of times.
    The other names of a step must form a sub-multiset of the pre-image
    of an allowed multiset (or of tau) through comm; ``closed`` holds these
    pre-images with all their sub-multisets, as sorted name tuples. A step
    outside ``closed`` is outside it after anything is added to it too.

    Arguments: comm fires only among elements with identical arguments,
    and its result keeps them. A name that no allowed multiset holds and
    hide does not remove is *stuck*: a kept step holds none after comm.
    So an argument group that still holds a stuck name after comm *needs*
    a partner with its arguments, and a complete step that needs one is
    dropped.

    Binders: a stuck name N whose only way out is the entry ``N|G`` (and
    G is on no other entry) leaves with a G of equal arguments only;
    ``partner`` maps G to N. When every G of a complete join carries one
    argument tuple, an N element holding a sum binder as a whole argument
    fixes that binder, and the join steps only that instance.
    """

    def __init__(self, allowed, hidden, entries):
        self.entries = entries
        self.free = frozenset(hidden).union(
            *(lhs._counts for lhs, result in entries if result in hidden))
        self.kept = frozenset(hidden).union(*(f._counts for f in allowed))
        producers: dict = {}
        for lhs, result in entries:
            producers.setdefault(result, []).append(
                tuple(sorted(n for n in lhs.elements() if n not in self.free)))
        closed = set()
        for f in (*allowed, EMPTY_MULTISET):
            choices = [[() if x in self.free else (x,)] + producers.get(x, [])
                       for x in f.elements()]
            for parts in product(*choices):
                closed.update(_sub_multisets(sum(parts, ())))
        self.closed = frozenset(closed)
        on_lhs = Counter(n for lhs, _ in entries for n in lhs._counts)
        self.partner = {}
        for lhs, _ in entries:
            pair = tuple(lhs._counts.items())
            if len(pair) == 2 and all(c == 1 and on_lhs[n] == 1 for n, c in pair):
                for (n, _), (g, _) in (pair, pair[::-1]):
                    if n not in self.kept:
                        self.partner[g] = n

    def names(self, alpha: Multiset) -> tuple:
        out = []
        for element, count in alpha._counts.items():
            if element.name not in self.free:
                out.extend([element.name] * count)
        out.sort()
        return tuple(out)

    def row(self, alpha: Multiset, target, names: tuple) -> tuple:
        """The row of a step: its names, the argument tuples of the groups
        of ``alpha`` that still hold a stuck name after comm (its needs),
        and all its argument tuples."""
        groups = _groups(alpha)
        needs = frozenset(args for args, group in groups.items()
                          if any(c and n not in self.kept
                                 for n, c in _fire(self.entries, group).items()))
        return (alpha, target, names, needs, frozenset(groups))

    def rows(self, steps, complete: bool) -> list:
        """The rows of the steps this stack admits."""
        out = []
        for alpha, target in steps:
            names = self.names(alpha)
            if names in self.closed:
                row = self.row(alpha, target, names)
                if not (complete and row[3]):
                    out.append(row)
        return out

    def binding(self, rows) -> dict:
        """N -> arguments, for each N whose partner names carry a single
        argument tuple in ``rows``."""
        found: dict = {}
        for row in rows:
            for element in row[0]._counts:
                if element.name in self.partner:
                    found.setdefault(self.partner[element.name], set()).add(element.args)
        return {n: args.pop() for n, args in found.items() if len(args) == 1}

    def bound(self, proc: MSum, bind: tuple, domain) -> tuple | None:
        """For a chain of sums over a prefix whose binders ``bind`` fixes
        all, the prefix and the binders' values; otherwise None.

        A binder is fixed when the action holds it only in arguments of
        bound names N, once as a whole argument: an instance with another
        value holds an N whose group only a partner with other arguments
        than the join's could free. The N must not be a partner itself,
        since its instances would then carry partners the join never sees.
        """
        binders, body = [], proc
        while isinstance(body, MSum):
            if body.var in binders:
                return None
            binders.append(body.var)
            body = body.body
        if not isinstance(body, MPrefix):
            return None
        fixed, values, probe = dict(bind), {}, dict.fromkeys(binders, "")
        for act in _acts(body.action):
            args = fixed.get(act.name)
            if args is None or self.partner.get(act.name) in fixed:
                if instantiate(act, probe) is not act:  # it holds a binder
                    return None
            elif len(args) == len(act.args):
                for a, value in zip(act.args, args):
                    if isinstance(a, DVar) and a.name in binders and value in domain:
                        values.setdefault(a.name, value)
        return (body, values) if len(values) == len(binders) else None

    def parallel(self, table: _StepTable, proc: MParallel, unfolding,
                 complete: bool, bind) -> list:
        """The parallel rule over rows this stack admits: the unrestricted
        rule's order, restricted to what can be kept. When the products are
        incomplete, a left step is paired only with the right steps whose
        names fit its own, judged once per pair of name tuples. When they
        are complete, a left step is paired only with right steps that hold
        every argument tuple it needs, found through an index; and the
        left operand is stepped with the binders the right one fixes, as
        long as no partner name on the left carries other arguments."""
        right = table[proc.right, unfolding, self, False, bind]
        if complete:
            bind = tuple(sorted(self.binding(right).items())) or None
        left = table[proc.left, unfolding, self, False, bind]
        if complete and bind:
            fixed = self.binding(left + right)
            if any(fixed.get(n) != args for n, args in bind):
                left = table[proc.left, unfolding, self, False, None]
        fits: dict = {}

        def fit(a: tuple, b: tuple):
            if (a, b) not in fits:
                names = tuple(sorted(a + b))
                fits[a, b] = names if names in self.closed else None
            return fits[a, b]

        if not complete:
            by_names: dict = {}
            for j, row in enumerate(right):
                by_names.setdefault(row[2], []).append(j)
            partners: dict = {}
            out = [(row[0], MParallel(row[1], proc.right)) + row[2:] for row in left]
            out += [(row[0], MParallel(proc.left, row[1])) + row[2:] for row in right]
            for alpha, lt, a, _, _ in left:
                js = partners.get(a)
                if js is None:
                    js = partners[a] = sorted(j for b, group in by_names.items()
                                              if fit(a, b) is not None for j in group)
                for j in js:
                    beta, rt, b = right[j][:3]
                    out.append(self.row(alpha + beta, MParallel(lt, rt), fit(a, b)))
            return out
        holding: dict = {}
        for j, row in enumerate(right):
            for t in row[4]:
                holding.setdefault(t, []).append(j)
        out = [(row[0], MParallel(row[1], proc.right)) + row[2:] for row in left if not row[3]]
        out += [(row[0], MParallel(proc.left, row[1])) + row[2:] for row in right if not row[3]]
        for alpha, lt, a, needs, largs in left:
            js = holding.get(next(iter(needs)), ()) if needs else range(len(right))
            for j in js:
                beta, rt, b, rneeds, rargs = right[j]
                if needs <= rargs and rneeds <= largs:
                    names = fit(a, b)
                    if names is not None:
                        row = self.row(alpha + beta, MParallel(lt, rt), names)
                        if not row[3]:
                            out.append(row)
        return out


def _sub_multisets(names: tuple):
    """Every sub-multiset of a name tuple, as sorted tuples."""
    counts = Counter(names)
    distinct = sorted(counts)
    for picks in product(*(range(counts[n] + 1) for n in distinct)):
        yield tuple(n for n, k in zip(distinct, picks) for _ in range(k))


@lru_cache(maxsize=64)
def _keep_for(allowed: frozenset, hidden: frozenset, entries: tuple) -> _Keep | None:
    """The restriction of an allow/hide/comm stack, or None where a comm
    result is also a left-hand name (a chain), which it does not cover."""
    lhs_names = {n for lhs, _ in entries for n in lhs._counts}
    if any(result in lhs_names for _, result in entries):
        return None
    return _Keep(allowed, hidden, entries)


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
    table = _StepTable(env)

    def successors(term: Mcrl2Process):
        return [(canonical_label(env.domain, sem), target)
                for sem, target in table.steps(term)]

    return _bfs_lts(roots, successors, cfg.max_states)
