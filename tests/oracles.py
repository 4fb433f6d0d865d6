"""Independent oracles the tests compare the implementation against.

Everything here is written from the definitions directly (naive pairwise
fixpoints, all-orders rewriting, permutation search, full-sweep
refinement) and stays free of the package's partition-refinement and
greedy code paths. The printers keep one isinstance chain per term
language, free of `gvpa.syntax.render`, the scanner reads one
character at a time, free of the compiled pattern, and the readers of
`--valuation` and `--formulas` split their text by hand, free of the
token stream. The formula oracles read a grid built from the oracles'
own closure, free of `gvpa.hml.build_state_space`. The mCRL2 steps
flatten multi-actions, hide, allow and print labels by hand and take comm
from its all-orders normal forms, counting with `collections.Counter`,
free of `gvpa.mcrl2`'s routines and of `Multiset` arithmetic, and
the renderers of the emitted files keep their own name table, free of
`gvpa.translate`'s.
"""
from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations

from gvpa.errors import (
    FragmentError, GvpaError, SpecSyntaxError, SpecValidationError,
)
from gvpa.hml import (
    And, Box, Check, Diamond, FALSE, HFalse, HTrue, Not, Or, SetVar, TRUE,
    parse_formula,
)
from gvpa.mcrl2 import (
    DAnd, DBool, DConst, DEq, DVar, GroundAction, MAct, MAllow, MBar, MCall,
    MChoice, MComm, MDeadlock, MHide, MParallel, MPrefix, MSum, MTau, Multiset,
)
from gvpa.parser import Token
from gvpa.sos import GvState, Lts
from gvpa.syntax import (
    Action, Assign, Choice, Cond, Deadlock, Encap, Name, Parallel, Prefix,
    Valuation, enumerate_valuations, label_str,
)


# ---------------------------------------------------------------------------
# Source steps by the SOS rules, one valuation at a time


def updated(valuation, var: str, value: str) -> Valuation:
    """The valuation with ``var`` set to ``value``, entry by entry (the
    package rewrites one digit of a valuation code instead)."""
    return Valuation(tuple((v, value if v == var else d) for v, d in valuation.entries))


def reference_step(spec, state) -> tuple:
    """Every transition of a state by the rules as written, deriving them
    under the state's own valuation; repeated steps are listed once, at
    their first position."""
    return tuple(dict.fromkeys(
        _reference_source_steps(spec, state.expr, state.valuation, frozenset())))


def _reference_source_steps(spec, expr, valuation, unfolding) -> list:
    if isinstance(expr, Deadlock):
        return []
    if isinstance(expr, Prefix):
        label = expr.label
        if isinstance(label, Assign):
            target = updated(valuation, label.var, label.value)
        else:
            target = valuation
        return [(label, GvState(expr.body, target))]
    if isinstance(expr, Choice):
        return (_reference_source_steps(spec, expr.left, valuation, unfolding)
                + _reference_source_steps(spec, expr.right, valuation, unfolding))
    if isinstance(expr, Cond):
        if valuation.value_of(expr.var) == expr.value:
            return _reference_source_steps(spec, expr.body, valuation, unfolding)
        return []
    if isinstance(expr, Name):
        if expr.name in unfolding:
            return []
        return _reference_source_steps(spec, spec.equation(expr.name), valuation,
                                       unfolding | {expr.name})
    if isinstance(expr, Encap):
        return [(label, GvState(Encap(expr.blocked, target.expr), target.valuation))
                for label, target in _reference_source_steps(
                    spec, expr.body, valuation, unfolding)
                if not (isinstance(label, Action) and label.name in expr.blocked)]
    if isinstance(expr, Parallel):
        left = _reference_source_steps(spec, expr.left, valuation, unfolding)
        right = _reference_source_steps(spec, expr.right, valuation, unfolding)
        out = [(label, GvState(Parallel(target.expr, expr.right), target.valuation))
               for label, target in left]
        out += [(label, GvState(Parallel(expr.left, target.expr), target.valuation))
                for label, target in right]
        for la, ta in left:
            for lb, tb in right:
                if isinstance(la, Action) and isinstance(lb, Action):
                    result = spec.comm.lookup(la.name, lb.name)
                    if result is not None:
                        out.append((Action(result),
                                    GvState(Parallel(ta.expr, tb.expr), valuation)))
        return out
    raise TypeError(f"not a process expression: {expr!r}")


# ---------------------------------------------------------------------------
# Guarded step tables as first written: every target built through its
# constructor, the table's runs and repeat test in one loop over all rows


def _reference_conjoin(left: tuple, right: tuple):
    """Both sets of ``(weight, digit)`` tests, or None if they conflict."""
    if not left:
        return right
    if not right:
        return left
    merged = dict(left)
    for weight, digit in right:
        if merged.setdefault(weight, digit) != digit:
            return None
    return tuple(merged.items())


def reference_guarded_steps(spec, expr, unfolding=frozenset()) -> list:
    """The ``(tests, label, target)`` rows of an expression in derivation
    order, each operand and name body derived where it is met."""
    codes = spec.codes
    if isinstance(expr, Deadlock):
        return []
    if isinstance(expr, Prefix):
        return [((), expr.label, expr.body)]
    if isinstance(expr, Choice):
        return (reference_guarded_steps(spec, expr.left, unfolding)
                + reference_guarded_steps(spec, expr.right, unfolding))
    if isinstance(expr, Cond):
        test = (codes.test(expr.var, expr.value),)
        out = []
        for tests, label, target in reference_guarded_steps(spec, expr.body, unfolding):
            tests = _reference_conjoin(test, tests)
            if tests is not None:
                out.append((tests, label, target))
        return out
    if isinstance(expr, Name):
        if expr.name in unfolding:
            return []
        return reference_guarded_steps(spec, spec.equation(expr.name),
                                       unfolding | {expr.name})
    if isinstance(expr, Encap):
        return [(tests, label, Encap(expr.blocked, target))
                for tests, label, target in reference_guarded_steps(spec, expr.body, unfolding)
                if not (isinstance(label, Action) and label.name in expr.blocked)]
    if isinstance(expr, Parallel):
        left = reference_guarded_steps(spec, expr.left, unfolding)
        right = reference_guarded_steps(spec, expr.right, unfolding)
        out = [(tests, label, Parallel(target, expr.right)) for tests, label, target in left]
        out += [(tests, label, Parallel(expr.left, target)) for tests, label, target in right]
        for ta, la, pa in left:
            for tb, lb, pb in right:
                if isinstance(la, Action) and isinstance(lb, Action):
                    result = spec.comm.lookup(la.name, lb.name)
                    if result is not None:
                        tests = _reference_conjoin(ta, tb)
                        if tests is not None:
                            out.append((tests, Action(result), Parallel(pa, pb)))
        return out
    raise TypeError(f"not a process expression: {expr!r}")


def reference_step_table(spec, expr) -> tuple[list, bool]:
    """An expression's rows grouped into runs of equal tests, as
    ``(tests, [(label, target, weight, digit), ...])`` with the ``(weight,
    digit)`` an assignment writes (``(0, 0)`` for an action); and whether
    two rows with one label and target have tests that can both hold."""
    runs: list = []
    seen: dict = {}
    twice = False
    for tests, label, target in reference_guarded_steps(spec, expr):
        weight, digit = (spec.codes.test(label.var, label.value)
                         if isinstance(label, Assign) else (0, 0))
        if runs and runs[-1][0] == tests:
            runs[-1][1].append((label, target, weight, digit))
        else:
            runs.append((tests, [(label, target, weight, digit)]))
        earlier = seen.setdefault((label, target), [])
        twice = twice or any(_reference_conjoin(other, tests) is not None
                             for other in earlier)
        earlier.append(tests)
    return runs, twice


# ---------------------------------------------------------------------------
# Row-list exploration and export: one list of moves per state, and the
# LTS as a tuple of (src, label, dst) triples


def reference_bfs(roots, successors):
    """Breadth-first search from several roots at once: the nodes in
    discovery order, one row of ``(label, j)`` moves per node, where ``j``
    indexes the nodes, and the index of each root."""
    index: dict = {}
    nodes: list = []
    rows: list[list] = []

    def register(node) -> int:
        if node not in index:
            index[node] = len(nodes)
            nodes.append(node)
        return index[node]

    root_indices = tuple(register(root) for root in roots)
    while len(rows) < len(nodes):
        rows.append([(label, register(target))
                     for label, target in successors(nodes[len(rows)])])
    return nodes, rows, root_indices


def reference_explore(spec, roots):
    """The states, ``(i, label, j)`` triples and root indices of the LTS
    reachable from `GvState` roots, stepping by `reference_step`."""
    nodes, rows, root_indices = reference_bfs(
        roots, lambda state: reference_step(spec, state))
    return (tuple(nodes), [(i, label, j) for i, row in enumerate(rows) for label, j in row],
            root_indices)


def reference_closure(spec, roots):
    """The expressions, valuations, rows and root indices of the closure
    of the roots under steps from every valuation; a row lists
    ``((v, label, v2), e2)`` valuation by valuation, stepping by
    `reference_step`."""
    valuations = enumerate_valuations(spec)
    code = {valuation: v for v, valuation in enumerate(valuations)}

    def successors(expr):
        return [((v, label, code[target.valuation]), target.expr)
                for v, valuation in enumerate(valuations)
                for label, target in reference_step(spec, GvState(expr, valuation))]

    exprs, rows, root_indices = reference_bfs(roots, successors)
    return tuple(exprs), valuations, rows, root_indices


class ReferenceGrid:
    """The closure of the roots by `reference_closure`, crossed with every
    valuation: state ``e * len(valuations) + v`` is expression ``e`` under
    valuation ``v``, and ``transitions[i]`` lists its ``(label, j)`` moves."""

    def __init__(self, spec, roots):
        exprs, valuations, rows, _ = reference_closure(spec, roots)
        nv = len(valuations)
        self.spec = spec
        self.states = tuple(GvState(e, v) for e in exprs for v in valuations)
        self.transitions = [[] for _ in self.states]
        for e, row in enumerate(rows):
            for (v, label, v2), e2 in row:
                self.transitions[e * nv + v].append((label, e2 * nv + v2))
        self._index = {state: i for i, state in enumerate(self.states)}

    def index_of(self, state) -> int:
        return self._index[state]


def states_of(model, denotation) -> frozenset:
    """The states a denotation numbers, so that the denotations of two
    models that number one carrier apart compare."""
    return frozenset(model.states[i] for i in denotation)


def reference_lts_rows(n_states: int, triples) -> list[list[tuple]]:
    """The ``(label, dst)`` moves of each state, in the order of the
    triples."""
    rows: list[list[tuple]] = [[] for _ in range(n_states)]
    for src, label, dst in triples:
        rows[src].append((label, dst))
    return rows


def _reference_label_text(label) -> str:
    return label_str(label) if isinstance(label, (Action, Assign)) else str(label)


def _reference_state_text(payload) -> str:
    if isinstance(payload, GvState):
        return f"<{reference_expr_str(payload.expr)}, {payload.valuation}>"
    return str(payload)


def reference_export_lts(states, triples, initial: int, fmt: str = "aut") -> str:
    """The ``.aut`` or ``.dot`` text of an LTS, one line per transition,
    joined at the end."""
    if fmt == "aut":
        lines = [f"des ({initial},{len(triples)},{len(states)})"]
        for src, label, dst in triples:
            lines.append(f'({src},"{_reference_label_text(label)}",{dst})')
        return "\n".join(lines) + "\n"
    lines = ["digraph lts {", "  rankdir=LR;", '  node [shape=box];',
             '  init [shape=point];', f"  init -> s{initial};"]
    for i, payload in enumerate(states):
        text = _reference_state_text(payload).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  s{i} [label="{text}"];')
    for src, label, dst in triples:
        text = _reference_label_text(label).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  s{src} -> s{dst} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Full-sweep signature refinement


def reference_refinement_history(n_states: int, adjacency,
                                 initial_blocks) -> tuple[tuple[int, ...], ...]:
    """Rounds of signature refinement until stable.

    ``history[k][s]`` is the block of state ``s`` after k full sweeps;
    states share a block at round k iff no formula of modal depth <= k
    (over the seeded atoms) tells them apart.
    """
    history = [tuple(initial_blocks)]
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
        current = tuple(nxt)
        history.append(current)
    return tuple(history)


def related_pairs(result) -> frozenset:
    """Unordered pairs of distinct states that share a final block of a
    `BisimResult`."""
    blocks: dict = {}
    for state, block in enumerate(result.history[-1]):
        blocks.setdefault(block, []).append(state)
    return frozenset((result.states[a], result.states[b])
                     for members in blocks.values() for a, b in combinations(members, 2))


# ---------------------------------------------------------------------------
# Naive relational greatest fixpoints


def naive_strong_relation(lts) -> set[tuple[int, int]]:
    n = len(lts.states)
    rel = {(i, j) for i in range(n) for j in range(n)}

    def matches(i, j):
        for label, i2 in lts.successors(i):
            if not any(l2 == label and (i2, j2) in rel
                       for l2, j2 in lts.successors(j)):
                return False
        for label, j2 in lts.successors(j):
            if not any(l2 == label and (i2, j2) in rel
                       for l2, i2 in lts.successors(i)):
                return False
        return True

    changed = True
    while changed:
        changed = False
        for pair in sorted(rel):
            if not matches(*pair):
                rel.discard(pair)
                changed = True
    return rel


def naive_state_based_relation(lts) -> set[tuple[int, int]]:
    n = len(lts.states)
    rel = {(i, j) for i in range(n) for j in range(n)
           if lts.states[i].valuation == lts.states[j].valuation}

    def matches(i, j):
        for label, i2 in lts.successors(i):
            if not any(l2 == label
                       and lts.states[j2].valuation == lts.states[i2].valuation
                       and (i2, j2) in rel
                       for l2, j2 in lts.successors(j)):
                return False
        for label, j2 in lts.successors(j):
            if not any(l2 == label
                       and lts.states[i2].valuation == lts.states[j2].valuation
                       and (i2, j2) in rel
                       for l2, i2 in lts.successors(i)):
                return False
        return True

    changed = True
    while changed:
        changed = False
        for pair in sorted(rel):
            if not matches(*pair):
                rel.discard(pair)
                changed = True
    return rel


def naive_stateless_relation(spec, exprs) -> set[tuple[int, int]]:
    """Definition-level fixpoint over expression pairs, quantifying each
    matching clause over every valuation."""
    valuations = enumerate_valuations(spec)
    moves = [
        {valuation: reference_step(spec, GvState(expr, valuation))
         for valuation in valuations}
        for expr in exprs
    ]
    index = {expr: i for i, expr in enumerate(exprs)}
    n = len(exprs)
    rel = {(i, j) for i in range(n) for j in range(n)}

    def matches(i, j):
        for valuation in valuations:
            for label, target in moves[i][valuation]:
                if not any(l2 == label and t2.valuation == target.valuation
                           and (index[target.expr], index[t2.expr]) in rel
                           for l2, t2 in moves[j][valuation]):
                    return False
            for label, target in moves[j][valuation]:
                if not any(l2 == label and t2.valuation == target.valuation
                           and (index[t2.expr], index[target.expr]) in rel
                           for l2, t2 in moves[i][valuation]):
                    return False
        return True

    changed = True
    while changed:
        changed = False
        for pair in sorted(rel):
            if not matches(*pair):
                rel.discard(pair)
                changed = True
    return rel


# ---------------------------------------------------------------------------
# All-orders communication rewriting


def _applicable(entries, counts: Counter) -> list:
    """Every (entry, argument tuple) instance that can fire on the ground
    actions ``counts``, as the ``(needed, produced)`` of its firing."""
    out = []
    for lhs, result in entries:
        first = lhs.elements()[0]
        for element in counts:
            if element.name != first:
                continue
            needed = Counter({GroundAction(name, element.args): count
                              for name, count in lhs.items()})
            if needed <= counts:
                out.append((needed, GroundAction(result, element.args)))
    return out


def _fired(counts: Counter, needed: Counter, produced) -> Counter:
    return counts - needed + Counter([produced])


def comm_normal_forms(entries, sem) -> set[Multiset]:
    """All results reachable by applying communications in any order."""
    seen = {}

    def walk(counts):
        key = frozenset(counts.items())
        if key not in seen:
            options = _applicable(entries, counts)
            forms = set() if options else {Multiset(counts.elements())}
            for option in options:
                forms |= walk(_fired(counts, *option))
            seen[key] = forms
        return seen[key]

    return walk(Counter(sem.elements()))


def reference_apply_comm(entries, sem) -> Multiset:
    """Comm by the rule as written: fires the first instance `_applicable`
    lists (entries in order; argument groups fire independently) until
    none is left. Where left-hand sides overlap, this is the form the
    entry order picks among `comm_normal_forms`."""
    counts = Counter(sem.elements())
    while options := _applicable(entries, counts):
        counts = _fired(counts, *options[0])
    return Multiset(counts.elements())


def reference_needs(allowed, hidden, entries, sem) -> frozenset:
    """The argument tuples of ``sem`` whose elements, after comm over just
    those elements, still hold a name that no allowed multiset holds and
    hide does not remove."""
    kept = set(hidden).union(*(m.elements() for m in allowed))
    needs = set()
    for args in {e.args for e in sem.elements()}:
        group = Multiset(e for e in sem.elements() if e.args == args)
        (form,) = comm_normal_forms(entries, group)
        if any(e.name not in kept for e in form.elements()):
            needs.add(args)
    return frozenset(needs)


# ---------------------------------------------------------------------------
# mCRL2 steps by the unrestricted product rule


def reference_subst(term, var: str, replacement):
    """A data expression, multi-action or process term with the free
    occurrences of one variable replaced, one walk per variable; a sum over
    ``var`` shadows it."""
    if isinstance(term, DVar):
        return replacement if term.name == var else term
    if isinstance(term, (DConst, DBool, MTau, MDeadlock)):
        return term
    if isinstance(term, DEq):
        return DEq(reference_subst(term.left, var, replacement),
                   reference_subst(term.right, var, replacement))
    if isinstance(term, DAnd):
        return DAnd(tuple(reference_subst(c, var, replacement) for c in term.conjuncts))
    if isinstance(term, (MAct, MCall)):
        return type(term)(term.name,
                          tuple(reference_subst(a, var, replacement) for a in term.args))
    if isinstance(term, MBar):
        return MBar(reference_subst(term.left, var, replacement),
                    reference_subst(term.right, var, replacement))
    if isinstance(term, MPrefix):
        return MPrefix(reference_subst(term.action, var, replacement),
                       reference_subst(term.body, var, replacement))
    if isinstance(term, MChoice):
        return MChoice(reference_subst(term.left, var, replacement),
                       reference_subst(term.right, var, replacement))
    if isinstance(term, MParallel):
        return MParallel(reference_subst(term.left, var, replacement),
                         reference_subst(term.right, var, replacement))
    if isinstance(term, MSum):
        if term.var == var:
            return term
        return MSum(term.var, reference_subst(term.body, var, replacement))
    if isinstance(term, MAllow):
        return MAllow(term.allowed, reference_subst(term.body, var, replacement))
    if isinstance(term, MHide):
        return MHide(term.hidden, reference_subst(term.body, var, replacement))
    if isinstance(term, MComm):
        return MComm(term.entries, reference_subst(term.body, var, replacement))
    raise TypeError(f"not an mCRL2 term: {term!r}")


def _reference_value(expr):
    if isinstance(expr, DConst):
        return expr.symbol
    if isinstance(expr, DBool):
        return expr.value
    if isinstance(expr, DEq):
        return _reference_value(expr.left) == _reference_value(expr.right)
    if isinstance(expr, DAnd):
        return all(_reference_value(c) for c in expr.conjuncts)
    raise ValueError(f"not a closed data expression: {expr!r}")


def _reference_sem(action) -> Multiset:
    """The ground actions of a multi-action, its bars undone by hand."""
    ground, todo = [], [action]
    while todo:
        node = todo.pop()
        if isinstance(node, MBar):
            todo += [node.right, node.left]
        elif isinstance(node, MAct):
            ground.append(GroundAction(
                node.name, tuple(_reference_value(a) for a in node.args)))
        elif not isinstance(node, MTau):
            raise TypeError(f"not a multi-action: {node!r}")
    return Multiset(ground)


def _reference_comm(entries, sem) -> Multiset:
    """The one normal form of comm over ``sem``, from every firing order."""
    forms = comm_normal_forms(entries, sem)
    assert len(forms) == 1, forms
    return forms.pop()


def _reference_multi_label(domain, sem) -> str:
    """A multi-action's label: its ground actions by name, then by their
    arguments (domain values in domain order, then false and true, then
    other names such as variables, as text), bar-joined; tau when there is
    none."""
    def arg_key(arg):
        if isinstance(arg, bool):
            return (1, int(arg), "")
        if arg in domain:
            return (0, domain.index(arg), "")
        return (2, 0, arg)

    def text(element):
        if not element.args:
            return element.name
        shown = ("true" if a is True else "false" if a is False else a
                 for a in element.args)
        return f"{element.name}({','.join(shown)})"

    elements = sorted(sem.elements(),
                      key=lambda e: (e.name, tuple(arg_key(a) for a in e.args)))
    return "|".join(text(e) for e in elements) or "tau"


def reference_step_mcrl2(env, proc) -> tuple:
    """Every step of an mCRL2 term by the rules as written: the parallel
    rule forms every product and the operators filter afterwards; repeated
    steps are listed once, at their first position."""
    return tuple(dict.fromkeys(_reference_steps(env, proc, frozenset())))


def _reference_steps(env, proc, unfolding) -> list:
    if isinstance(proc, MDeadlock):
        return []
    if isinstance(proc, MPrefix):
        return [(_reference_sem(proc.action), proc.body)]
    if isinstance(proc, MChoice):
        return (_reference_steps(env, proc.left, unfolding)
                + _reference_steps(env, proc.right, unfolding))
    if isinstance(proc, MParallel):
        left = _reference_steps(env, proc.left, unfolding)
        right = _reference_steps(env, proc.right, unfolding)
        return ([(a, MParallel(t, proc.right)) for a, t in left]
                + [(b, MParallel(proc.left, t)) for b, t in right]
                + [(Multiset(a.elements() + b.elements()), MParallel(lt, rt))
                   for a, lt in left for b, rt in right])
    if isinstance(proc, MSum):
        return [step for value in env.domain
                for step in _reference_steps(
                    env, reference_subst(proc.body, proc.var, DConst(value)), unfolding)]
    if isinstance(proc, MCall):
        if proc.name in unfolding:
            return []
        params, body = env.equation(proc.name)
        for param, arg in zip(params, proc.args, strict=True):
            if not isinstance(arg, DConst):
                raise ValueError(f"argument of {proc.name} is not a domain value")
            body = reference_subst(body, param, arg)
        return _reference_steps(env, body, unfolding | {proc.name})
    steps = _reference_steps(env, proc.body, unfolding)
    if isinstance(proc, MHide):
        return [(Multiset(e for e in a.elements() if e.name not in proc.hidden),
                 MHide(proc.hidden, t)) for a, t in steps]
    if isinstance(proc, MComm):
        return [(_reference_comm(proc.entries, a), MComm(proc.entries, t))
                for a, t in steps]
    if isinstance(proc, MAllow):
        allowed = {tuple(sorted(m.elements())) for m in proc.allowed}
        return [(a, MAllow(proc.allowed, t)) for a, t in steps
                if not a or tuple(sorted(e.name for e in a.elements())) in allowed]
    raise TypeError(f"not an mCRL2 process: {proc!r}")


def reference_explore_mcrl2(env, roots, cap: int):
    """Breadth-first search over `reference_step_mcrl2` from several roots:
    the states in discovery order and the ``(i, label, j)`` transitions, or
    None once more than ``cap`` states are found."""
    index = {}
    for root in roots:
        index.setdefault(root, len(index))
    states, transitions = list(index), []
    for i, state in enumerate(states):
        for sem, target in reference_step_mcrl2(env, state):
            if target not in index:
                if len(states) == cap:
                    return None
                index[target] = len(states)
                states.append(target)
            transitions.append((i, _reference_multi_label(env.domain, sem), index[target]))
    return states, transitions


# ---------------------------------------------------------------------------
# Labelled graph isomorphism (small LTSs)


def isomorphic(lts_a, lts_b, label_map=None) -> bool:
    """Brute-force isomorphism respecting initial states; labels of the
    first system pass through label_map before comparison."""
    label_map = label_map or (lambda l: l)
    n = len(lts_a.states)
    if n != len(lts_b.states) or len(lts_a.transitions) != len(lts_b.transitions):
        return False
    edges_a = {(src, label_map(label), dst) for src, label, dst in lts_a.transitions}
    edges_b = {(src, label, dst) for src, label, dst in lts_b.transitions}
    labels_a = {e[1] for e in edges_a}
    if labels_a != {e[1] for e in edges_b}:
        return False

    def signature(edges, i):
        outs = sorted(l for s, l, _ in edges if s == i)
        ins = sorted(l for _, l, d in edges if d == i)
        return (tuple(outs), tuple(ins))

    sig_a = [signature(edges_a, i) for i in range(n)]
    sig_b = [signature(edges_b, i) for i in range(n)]
    for perm in permutations(range(n)):
        if perm[lts_a.initial] != lts_b.initial:
            continue
        if any(sig_a[i] != sig_b[perm[i]] for i in range(n)):
            continue
        if all((perm[s], l, perm[d]) in edges_b for s, l, d in edges_a):
            return True
    return False


# ---------------------------------------------------------------------------
# Reference formula evaluator


def reference_eval_formula(model, formula, memo: dict | None = None) -> frozenset[int]:
    """Denotation of a formula by scanning every state's successors,
    memoized on subformulas.

    ``model`` is a `ReferenceGrid`, where a check reads a state's valuation
    and a set operator rewrites it, or a plain Lts for the modal fragment.
    """
    memo = {} if memo is None else memo
    if formula in memo:
        return memo[formula]
    n = len(model.states)
    everything = frozenset(range(n))
    if isinstance(model, Lts):
        moves = model.successors
    else:
        moves = model.transitions.__getitem__
    if isinstance(formula, HTrue):
        out = everything
    elif isinstance(formula, HFalse):
        out = frozenset()
    elif isinstance(formula, Check):
        out = frozenset(
            i for i in range(n)
            if model.states[i].valuation.value_of(formula.var) == formula.value)
    elif isinstance(formula, Not):
        out = everything - reference_eval_formula(model, formula.sub, memo)
    elif isinstance(formula, And):
        out = (reference_eval_formula(model, formula.left, memo)
               & reference_eval_formula(model, formula.right, memo))
    elif isinstance(formula, Or):
        out = (reference_eval_formula(model, formula.left, memo)
               | reference_eval_formula(model, formula.right, memo))
    elif isinstance(formula, Diamond):
        sub = reference_eval_formula(model, formula.sub, memo)
        out = frozenset(
            i for i in range(n)
            if any(label in formula.labels and j in sub for label, j in moves(i)))
    elif isinstance(formula, Box):
        sub = reference_eval_formula(model, formula.sub, memo)
        out = frozenset(
            i for i in range(n)
            if all(label not in formula.labels or j in sub for label, j in moves(i)))
    elif isinstance(formula, SetVar):
        sub = reference_eval_formula(model, formula.sub, memo)
        out = frozenset(
            i for i, state in enumerate(model.states)
            if model.index_of(GvState(
                state.expr, updated(state.valuation, formula.var, formula.value))) in sub)
    else:
        raise TypeError(f"not a formula: {formula!r}")
    memo[formula] = out
    return out


# ---------------------------------------------------------------------------
# Deterministic formula enumeration


def enumerate_check_formulas(spec, labels, max_depth: int, cap: int) -> list:
    """Deterministic check-fragment enumeration by modal depth waves."""
    atoms = [TRUE, FALSE]
    atoms += [Check(v, d) for v in spec.variables for d in spec.domain.values]
    result = list(atoms)
    frontier = list(atoms)
    for _ in range(max_depth):
        modal = []
        for sub in frontier:
            for label in labels:
                modal.append(Diamond(frozenset({label}), sub))
                modal.append(Box(frozenset({label}), sub))
        combos = [Not(f) for f in modal]
        for f in modal:
            for g in atoms:
                combos.append(And(f, g))
                combos.append(Or(f, g))
        frontier = modal + combos
        result.extend(frontier)
        if len(result) >= cap:
            return result[:cap]
    return result[:cap]


class _Found(Exception):
    def __init__(self, formula):
        self.formula = formula


def find_distinguishing_formula(space, left, right, labels, max_depth: int,
                                include_check: bool, include_set: bool,
                                cap: int = 4000):
    """Searches the fragment up to the given modal depth for a formula
    separating the two states of a `ReferenceGrid`.

    Complete in distinguishing power relative to the fragment: Boolean
    connectives cannot separate states that agree on every generator, and
    diamonds distribute over unions, so it suffices to apply modalities to
    characteristic formulas of the blocks of the partition the generators
    induce. Set operators are closed as denotation preimages per level.
    Returns the witness formula, or None when the fragment cannot separate
    the states within the depth bound.
    """
    li = space.index_of(left)
    ri = space.index_of(right)
    memo: dict = {}
    gens: list = []           # (formula, denotation)
    seen_denotations: set = set()

    def admit(formula) -> bool:
        """Adds a generator; True iff its denotation is new."""
        if len(gens) >= cap:
            return False
        den = reference_eval_formula(space, formula, memo)
        if (li in den) != (ri in den):
            raise _Found(formula)
        if den in seen_denotations:
            return False
        seen_denotations.add(den)
        gens.append((formula, den))
        return True

    def close_sets():
        if not include_set:
            return
        grew = True
        while grew and len(gens) < cap:
            grew = False
            for formula, _ in list(gens):
                for v in space.spec.variables:
                    for d in space.spec.domain.values:
                        grew |= admit(SetVar(v, d, formula))

    def block_formulas():
        """One formula per equivalence class of generator membership."""
        vectors: dict[tuple, list[int]] = {}
        for state in range(len(space.states)):
            key = tuple(state in den for _, den in gens)
            vectors.setdefault(key, []).append(state)
        blocks = [(frozenset(states), key) for key, states in vectors.items()]
        out = []
        for block, key in blocks:
            parts = []
            for other, other_key in blocks:
                if other is block:
                    continue
                at = next(i for i in range(len(gens))
                          if key[i] != other_key[i])
                parts.append(gens[at][0] if key[at] else Not(gens[at][0]))
            formula = conjunction_of(parts)
            out.append(formula)
        return out

    def conjunction_of(parts):
        if not parts:
            return TRUE
        out = parts[-1]
        for part in reversed(parts[:-1]):
            out = And(part, out)
        return out

    try:
        admit(TRUE)
        admit(FALSE)
        if include_check:
            for v in space.spec.variables:
                for d in space.spec.domain.values:
                    admit(Check(v, d))
        close_sets()
        for _ in range(max_depth):
            for formula in block_formulas():
                for label in labels:
                    admit(Diamond(frozenset({label}), formula))
                    admit(Box(frozenset({label}), formula))
            close_sets()
    except _Found as hit:
        return hit.formula
    return None


# ---------------------------------------------------------------------------
# The scanner as a character loop (before the compiled pattern of
# `gvpa.parser.tokenize`)

_REFERENCE_PUNCT = [
    ("||", "BARBAR"), ("&&", "AMPAMP"), ("->", "ARROW"), (":=", "COLONEQ"),
    ("{", "LBRACE"), ("}", "RBRACE"), ("(", "LPAREN"), (")", "RPAREN"),
    ("[", "LBRACK"), ("]", "RBRACK"), ("<", "LT"), (">", "GT"),
    (",", "COMMA"), (";", "SEMI"), (".", "DOT"), ("+", "PLUS"),
    ("=", "EQUALS"), ("|", "BAR"), ("!", "BANG"), ("*", "STAR"),
]


def _reference_is_word_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def reference_tokenize(text: str) -> list:
    """Tokens one character at a time; a comment advances no column."""
    tokens = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if _reference_is_word_char(ch):
            start = i
            while i < n and _reference_is_word_char(text[i]):
                i += 1
            word = text[start:i]
            tokens.append(Token("WORD", word, line, col))
            col += len(word)
            continue
        for lit, kind in _REFERENCE_PUNCT:
            if text.startswith(lit, i):
                tokens.append(Token(kind, lit, line, col))
                i += len(lit)
                col += len(lit)
                break
        else:
            raise SpecSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Printers as one isinstance chain per term language (before the shared
# precedence table of `gvpa.syntax.render`)

_CHOICE, _PAR, _TIGHT = 0, 1, 2


def reference_expr_str(expr, _req: int = _CHOICE) -> str:
    """Pretty-print so that reparsing yields a structurally identical AST."""
    if isinstance(expr, Deadlock):
        text, level = "delta", _TIGHT
    elif isinstance(expr, Name):
        text, level = expr.name, _TIGHT
    elif isinstance(expr, Prefix):
        text, level = f"{label_str(expr.label)}.{reference_expr_str(expr.body, _TIGHT)}", _TIGHT
    elif isinstance(expr, Cond):
        text = f"({expr.var} = {expr.value}) -> {reference_expr_str(expr.body, _TIGHT)}"
        level = _TIGHT
    elif isinstance(expr, Encap):
        inner = ", ".join(sorted(expr.blocked))
        text, level = f"encap({{{inner}}}) {reference_expr_str(expr.body, _TIGHT)}", _TIGHT
    elif isinstance(expr, Parallel):
        text = f"{reference_expr_str(expr.left, _PAR)} || {reference_expr_str(expr.right, _TIGHT)}"
        level = _PAR
    elif isinstance(expr, Choice):
        text = f"{reference_expr_str(expr.left, _CHOICE)} + {reference_expr_str(expr.right, _PAR)}"
        level = _CHOICE
    else:
        raise TypeError(f"not a process expression: {expr!r}")
    if level < _req:
        return f"({text})"
    return text


_OR, _AND, _UNARY = 0, 1, 2


def _labels_str(labels: frozenset) -> str:
    rendered = sorted(
        (label_str(l) if isinstance(l, (Action, Assign)) else str(l))
        for l in labels
    )
    return ",".join(rendered)


def reference_formula_str(formula, _req: int = _OR) -> str:
    if isinstance(formula, HTrue):
        text, level = "true", _UNARY
    elif isinstance(formula, HFalse):
        text, level = "false", _UNARY
    elif isinstance(formula, Check):
        text, level = f"({formula.var} = {formula.value})", _UNARY
    elif isinstance(formula, Not):
        text, level = f"!{reference_formula_str(formula.sub, _UNARY)}", _UNARY
    elif isinstance(formula, Diamond):
        text = f"<{_labels_str(formula.labels)}> {reference_formula_str(formula.sub, _UNARY)}"
        level = _UNARY
    elif isinstance(formula, Box):
        text = f"[{_labels_str(formula.labels)}] {reference_formula_str(formula.sub, _UNARY)}"
        level = _UNARY
    elif isinstance(formula, SetVar):
        text = (f"set {formula.var} := {formula.value} . "
                f"{reference_formula_str(formula.sub, _UNARY)}")
        level = _UNARY
    elif isinstance(formula, And):
        text = (f"{reference_formula_str(formula.left, _AND)} && "
                f"{reference_formula_str(formula.right, _UNARY)}")
        level = _AND
    elif isinstance(formula, Or):
        text = (f"{reference_formula_str(formula.left, _OR)} || "
                f"{reference_formula_str(formula.right, _AND)}")
        level = _OR
    else:
        raise TypeError(f"not a formula: {formula!r}")
    if level < _req:
        return f"({text})"
    return text


# The model's machinery actions, and every identifier it declares itself.
_MACHINERY_ACTIONS = ("check", "checkP", "checkG", "assign", "assignP", "assignG", "value")
_MODEL_NAMES = frozenset({"GvValue", "GvName", "Globs", "d", "new", *_MACHINERY_ACTIONS})
_MCRL2_WORDS = frozenset(
    "sort cons map var eqn act glob proc init struct true false if div mod in "
    "lambda forall exists whr end sum dist delta tau block allow hide rename "
    "comm min max pred succ Bool Pos Nat Int Real List Set Bag FSet FBag".split())


def _shown_as_is(name: str) -> bool:
    """A plain identifier that is no mCRL2 word and none of the model's
    own names, the slot binders d1, d2, ... included."""
    if not name or not (name[0].isalpha() or name[0] == "_"):
        return False
    if any(not (ch.isalnum() or ch == "_") for ch in name):
        return False
    if name[0] == "d" and name[1:].isdigit():
        return False
    return name not in _MCRL2_WORDS and name not in _MODEL_NAMES


def reference_names(spec) -> tuple[dict, dict]:
    """The emitted identifier of every ``(kind, name)`` the model uses,
    and the symbol of every domain value and variable."""
    names = {("action", name): name for name in _MACHINERY_ACTIONS}
    names["proc", "Globs"] = "Globs"
    used = set(_MODEL_NAMES)
    for kind, prefix, group in (("value", "v_", spec.domain.values),
                                ("var", "g_", spec.variables),
                                ("action", "a_", spec.actions),
                                ("proc", "P_", spec.process_names)):
        for name in group:
            shown = name if _shown_as_is(name) else prefix + name
            if shown in used:
                raise SpecValidationError(
                    [f"cannot render {kind} name {name!r}: identifier "
                     f"{shown!r} is already in use"])
            used.add(shown)
            names[kind, name] = shown
    symbols = {value: names["value", value] for value in spec.domain.values}
    for var in spec.variables:
        if var in symbols:
            raise SpecValidationError(
                [f"variable {var} also names a domain value; the rendered "
                 "model cannot keep both"])
        symbols[var] = names["var", var]
    return names, symbols


def _render_data(expr, symbols: dict[str, str]) -> str:
    if isinstance(expr, DConst):
        return symbols[expr.symbol]
    if isinstance(expr, DBool):
        return "true" if expr.value else "false"
    if isinstance(expr, DVar):
        return expr.name
    if isinstance(expr, DEq):
        return (f"{_render_data(expr.left, symbols)} == "
                f"{_render_data(expr.right, symbols)}")
    if isinstance(expr, DAnd):
        return " && ".join(_render_data(c, symbols) for c in expr.conjuncts)
    raise TypeError(f"not a data expression: {expr!r}")


def _render_act(act, names: dict, symbols: dict[str, str]) -> str:
    name = names["action", act.name]
    if not act.args:
        return name
    args = ", ".join(_render_data(a, symbols) for a in act.args)
    return f"{name}({args})"


def _render_maction(action, names: dict, symbols: dict[str, str]) -> str:
    parts = []

    def collect(node):
        if isinstance(node, MBar):
            collect(node.left)
            collect(node.right)
        elif isinstance(node, MAct):
            parts.append(_render_act(node, names, symbols))
        else:
            parts.append("tau")

    collect(action)
    text = "|".join(parts)
    return f"({text})" if len(parts) > 1 else text


_M_CHOICE, _M_PAR, _M_PREFIX, _M_ATOM = 0, 1, 2, 3


def reference_render_proc(proc, names: dict, symbols: dict[str, str],
                          req: int = _M_CHOICE) -> str:
    if isinstance(proc, MDeadlock):
        text, level = "delta", _M_ATOM
    elif isinstance(proc, MCall):
        name = names["proc", proc.name]
        if proc.args:
            args = ", ".join(_render_data(a, symbols) for a in proc.args)
            text = f"{name}({args})"
        else:
            text = name
        level = _M_ATOM
    elif isinstance(proc, MPrefix):
        act = _render_maction(proc.action, names, symbols)
        text = f"{act} . {reference_render_proc(proc.body, names, symbols, _M_PREFIX)}"
        level = _M_PREFIX
    elif isinstance(proc, MSum):
        body = reference_render_proc(proc.body, names, symbols, _M_CHOICE)
        text, level = f"(sum {proc.var}: GvValue . {body})", _M_ATOM
    elif isinstance(proc, MParallel):
        text = (f"{reference_render_proc(proc.left, names, symbols, _M_PAR)} || "
                f"{reference_render_proc(proc.right, names, symbols, _M_PREFIX)}")
        level = _M_PAR
    elif isinstance(proc, MChoice):
        text = (f"{reference_render_proc(proc.left, names, symbols, _M_CHOICE)} + "
                f"{reference_render_proc(proc.right, names, symbols, _M_PAR)}")
        level = _M_CHOICE
    elif isinstance(proc, MAllow):
        shown = ", ".join(
            "|".join(sorted(m.elements())) for m in sorted(
                proc.allowed, key=lambda m: sorted(m.elements())))
        # the allow set is rendered from the caller's ordered name list
        text = f"allow({{{shown}}}, {reference_render_proc(proc.body, names, symbols)})"
        level = _M_ATOM
    elif isinstance(proc, MHide):
        shown = ", ".join(sorted(proc.hidden))
        text = f"hide({{{shown}}}, {reference_render_proc(proc.body, names, symbols)})"
        level = _M_ATOM
    elif isinstance(proc, MComm):
        entries = ", ".join(
            "|".join(lhs.elements()) + " -> " + result
            for lhs, result in proc.entries)
        text = f"comm({{{entries}}}, {reference_render_proc(proc.body, names, symbols)})"
        level = _M_ATOM
    else:
        raise TypeError(f"not an mCRL2 process: {proc!r}")
    if level < req:
        return f"({text})"
    return text


def _reference_render_mcrl2_spec(out) -> str:
    """The .mcrl2 model; deterministic, byte-stable rendering."""
    names, symbols = reference_names(out.spec)

    lines = ["% mCRL2 model generated from a global-variable process specification.",
             ""]
    lines.append("sort GvValue = struct "
                 + " | ".join(symbols[v] for v in out.spec.domain.values) + ";")
    lines.append("sort GvName = struct "
                 + " | ".join(symbols[v] for v in out.spec.variables) + ";")
    lines.append("")

    lines.append("act")
    plain = sorted(names["action", a] for a in out.spec.actions)
    if plain:
        lines.append("  " + ", ".join(plain) + ";")
    lines.append("  assign, assignG, assignP: GvName # GvValue;")
    lines.append("  value: GvName # GvValue;")
    check_sorts = " # ".join(["GvValue"] * len(out.slots)) + " # Bool"
    lines.append(f"  check, checkG, checkP: {check_sorts};")
    lines.append("")

    lines.append("proc")
    for name, params, body in out.menv.equations:
        rendered_body = reference_render_proc(body, names, symbols)
        shown = names["proc", name]
        if params:
            plist = ", ".join(f"{p}: GvValue" for p in params)
            lines.append(f"  {shown}({plist}) = {rendered_body};")
        else:
            lines.append(f"  {shown} = {rendered_body};")
    lines.append("")

    allow_names = ", ".join(names["action", name] for name in out.allow_names)
    parties = [(sorted(key) if len(key) == 2 else [*key, *key], result)
               for key, result in sorted(out.spec.comm.entries,
                                         key=lambda entry: sorted(entry[0]))]
    parties += [(["checkP", "checkG"], "check"), (["assignP", "assignG"], "assign")]
    comm_part = ", ".join(
        "|".join(names["action", n] for n in lhs) + " -> " + names["action", result]
        for lhs, result in parties)
    hide_part = ", ".join(sorted(out.hidden))
    inner_par = out.top.body.body.body  # MAllow(MHide(MComm(parallel)))
    par = reference_render_proc(inner_par, names, symbols, _M_CHOICE)
    lines.append(f"init allow({{{allow_names}}}, hide({{{hide_part}}}, "
                 f"comm({{{comm_part}}}, {par})));")
    return "\n".join(lines) + "\n"


def _mcf_action(label: str, names: dict, symbols: dict[str, str]) -> str:
    if "(" not in label:
        return names["action", label]
    name, rest = label.split("(", 1)
    args = rest.rstrip(")").split(",")
    return f"{names['action', name]}({', '.join(symbols.get(a, a) for a in args)})"


_F_OR, _F_AND, _F_UNARY = 0, 1, 2


def reference_render_mcf(formula, names: dict, symbols: dict[str, str],
                         req: int = _F_OR) -> str:
    if isinstance(formula, HTrue):
        text, level = "true", _F_UNARY
    elif isinstance(formula, HFalse):
        text, level = "false", _F_UNARY
    elif isinstance(formula, Not):
        text = f"!{reference_render_mcf(formula.sub, names, symbols, _F_UNARY)}"
        level = _F_UNARY
    elif isinstance(formula, And):
        text = (f"{reference_render_mcf(formula.left, names, symbols, _F_AND)} && "
                f"{reference_render_mcf(formula.right, names, symbols, _F_UNARY)}")
        level = _F_AND
    elif isinstance(formula, Or):
        text = (f"{reference_render_mcf(formula.left, names, symbols, _F_OR)} || "
                f"{reference_render_mcf(formula.right, names, symbols, _F_AND)}")
        level = _F_OR
    elif isinstance(formula, (Diamond, Box)):
        acts = " || ".join(sorted(
            _mcf_action(l, names, symbols) for l in formula.labels))
        sub = reference_render_mcf(formula.sub, names, symbols, _F_UNARY)
        if isinstance(formula, Diamond):
            text = f"<{acts}>{sub}"
        else:
            text = f"[{acts}]{sub}"
        level = _F_UNARY
    elif isinstance(formula, (Check, SetVar)):
        raise FragmentError(
            "emit translated formulas; check/set do not exist on the mCRL2 side")
    else:
        raise TypeError(f"not a formula: {formula!r}")
    if level < req:
        return f"({text})"
    return text


def _reference_render_mcf(formula, out) -> str:
    """A single translated formula in mCRL2 modal-formula syntax."""
    return reference_render_mcf(formula, *reference_names(out.spec)) + "\n"


def reference_emit_mcrl2_files(out, formulas=(), base: str = "model") -> dict[str, str]:
    """Translated model plus one .mcf per (already translated) formula."""
    files = {f"{base}.mcrl2": _reference_render_mcrl2_spec(out)}
    for i, formula in enumerate(formulas, start=1):
        files[f"{base}_prop{i}.mcf"] = _reference_render_mcf(formula, out)
    return files


# ---------------------------------------------------------------------------
# The command line's readers of `--valuation` and `--formulas`, by hand


def reference_cli_valuation(text: str, spec) -> Valuation:
    """A `--valuation` text split on `,` and `=`; a repeated variable
    keeps its last value, and errors carry no position."""
    assignment = {}
    for part in text.split(","):
        var, _, value = part.partition("=")
        var, value = var.strip(), value.strip()
        if var not in spec.variables:
            raise GvpaError(f"unknown variable {var}")
        if value not in spec.domain:
            raise GvpaError(f"unknown value {value}")
        assignment[var] = value
    missing = [v for v in spec.variables if v not in assignment]
    if missing:
        raise GvpaError(f"valuation misses variables: {', '.join(missing)}")
    return Valuation.make(spec.variables, assignment)


def reference_load_formulas(text: str, spec) -> list:
    """The formulas of a `--formulas` text, each line parsed on its own;
    blank lines and lines that start with `//` hold none."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("//"):
            out.append(parse_formula(line, spec))
    return out
