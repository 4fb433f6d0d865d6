"""Seeded random generators for test corpora.

Three families: small guarded specs over the full grammar (for the
equivalence/logic criteria), parallel-sequential single-variable specs
(for the translation criteria) and terms of the mCRL2 fragment that the
translation never produces (for the restricted composition), and terms
whose sums feed a checkP-like name (for the binding of sum binders at the
join). Two scaled
families as spec texts: the worker grid W(n,k) (many valuations) and the
handshake ring R(n,L) (many expressions); and hand-built corners of step
tables. The
parallel-sequential generator never puts a condition directly over delta
and never nests conditions, so the translated state map stays injective
and the structure-preservation counts are meaningful. `render_spec`
prints a spec back as text, `mutate_spec` edits a spec's AST so that its
text still parses (for the CLI fuzz), and `gen_formula` draws formulas
over a spec.
"""
from __future__ import annotations

import random

from gvpa.errors import ResourceLimitError
from gvpa.hml import FALSE, TRUE, And, Box, Check, Diamond, Not, Or, SetVar
from gvpa.mcrl2 import (
    DBool, DConst, DEq, DVar, MAct, MAllow, MBar, MCall, MChoice, MComm, MDELTA,
    MHide, MParallel, MPrefix, MSum, Mcrl2Spec, Multiset, TAU,
)
from gvpa.sos import ExplorationConfig, GvState, explore, reachable_exprs
from gvpa.syntax import (
    Action, Assign, Choice, CommFunction, Cond, Deadlock, DomainDef, Encap,
    InitSpec, Name, Parallel, Prefix, ProcessExpr, RecursiveSpec,
    enumerate_valuations, expr_str, validate_spec,
)
from oracles import updated

_ACTIONS = ("a", "b", "c")
_VARS = ("u", "v")
_VALUES = ("0", "1", "2")
_NAMES = ("X", "Y", "Z")


def _label(rng: random.Random, spec_parts):
    actions, variables, values = spec_parts
    if variables and rng.random() < 0.35:
        return Assign(rng.choice(variables), rng.choice(values))
    return Action(rng.choice(actions))


def gen_expr(rng: random.Random, spec_parts, depth: int, guarded: bool,
             names: tuple[str, ...]):
    """Random expression; process names appear only under a prefix."""
    actions, variables, values = spec_parts
    if depth <= 0:
        if guarded and names and rng.random() < 0.5:
            return Name(rng.choice(names))
        return Deadlock()
    roll = rng.random()
    if roll < 0.40:
        return Prefix(_label(rng, spec_parts),
                      gen_expr(rng, spec_parts, depth - 1, True, names))
    if roll < 0.58:
        return Choice(gen_expr(rng, spec_parts, depth - 1, guarded, names),
                      gen_expr(rng, spec_parts, depth - 1, guarded, names))
    if roll < 0.70 and variables:
        return Cond(rng.choice(variables), rng.choice(values),
                    gen_expr(rng, spec_parts, depth - 1, guarded, names))
    if roll < 0.80:
        return Parallel(gen_expr(rng, spec_parts, depth - 1, guarded, names),
                        gen_expr(rng, spec_parts, depth - 1, guarded, names))
    if roll < 0.85 and actions:
        blocked = frozenset(rng.sample(actions, rng.randint(1, len(actions))))
        return Encap(blocked, gen_expr(rng, spec_parts, depth - 1, guarded, names))
    if guarded and names and roll < 0.95:
        return Name(rng.choice(names))
    return Deadlock()


def gen_spec(rng: random.Random, max_names: int = 3, max_vars: int = 2,
             max_domain: int = 3, closure_cap: int = 50) -> RecursiveSpec:
    """A random guarded spec whose name closures stay under the cap."""
    for _ in range(60):
        n_actions = rng.randint(1, 3)
        actions = _ACTIONS[:n_actions]
        n_vars = rng.randint(1, max_vars)
        variables = _VARS[:n_vars]
        n_values = rng.randint(2, max_domain)
        values = _VALUES[:n_values]
        comm_entries = ()
        if n_actions == 3 and rng.random() < 0.4:
            comm_entries = ((frozenset(("a", "b")), "c"),)
        n_names = rng.randint(1, max_names)
        names = _NAMES[:n_names]
        parts = (actions, variables, values)
        equations = tuple(
            (name, gen_expr(rng, parts, rng.randint(1, 3), False, names))
            for name in names)
        spec = RecursiveSpec(
            domain=DomainDef(values), variables=variables, actions=actions,
            equations=equations, comm=CommFunction(comm_entries))
        if validate_spec(spec):
            continue
        try:
            # the cap counts (expression, valuation) pairs
            reachable_exprs(spec, [Name(n) for n in names],
                            ExplorationConfig(max_states=closure_cap * spec.codes.count))
        except ResourceLimitError:
            continue
        return spec
    raise AssertionError("generator failed to produce a small guarded spec")


def gen_pair(rng: random.Random, spec: RecursiveSpec, closure_cap: int = 50):
    """Two expressions to compare; roughly half the draws are equivalent
    by construction (p against a stuttered copy)."""
    parts = (spec.actions, spec.variables, spec.domain.values)
    names = spec.process_names
    for _ in range(40):
        p = gen_expr(rng, parts, rng.randint(1, 3), False, names)
        roll = rng.random()
        if roll < 0.25:
            q = Choice(p, p)
        elif roll < 0.4:
            q = rng.choice((Parallel(p, Deadlock()), Choice(p, Deadlock())))
        else:
            q = gen_expr(rng, parts, rng.randint(1, 3), False, names)
        try:
            closure = reachable_exprs(
                spec, [p, q], ExplorationConfig(max_states=closure_cap * spec.codes.count))
        except ResourceLimitError:
            continue
        if len(closure) <= closure_cap:
            return p, q
    raise AssertionError("generator failed to produce a comparable pair")


# ---------------------------------------------------------------------------
# Parallel-sequential corpus (translation criteria)


def _gen_seq(rng: random.Random, parts, depth: int, names):
    """Sequential grammar with the chi-injectivity discipline."""
    actions, variables, values = parts
    roll = rng.random()
    if depth <= 0 or roll < 0.15:
        return Deadlock()
    if roll < 0.60:
        if names and rng.random() < 0.3:
            body = Name(rng.choice(names))
        else:
            body = _gen_seq(rng, parts, depth - 1, names)
        return Prefix(_label(rng, parts), body)
    if roll < 0.80:
        return Choice(_gen_seq(rng, parts, depth - 1, names),
                      _gen_seq(rng, parts, depth - 1, names))
    # condition body must start with a prefix or a choice of prefixes
    guarded_body = Prefix(_label(rng, parts),
                          _gen_seq(rng, parts, depth - 1, names))
    if rng.random() < 0.3:
        guarded_body = Choice(
            guarded_body,
            Prefix(_label(rng, parts), _gen_seq(rng, parts, depth - 1, names)))
    return Cond(rng.choice(variables), rng.choice(values), guarded_body)


def gen_parseq_spec(rng: random.Random, state_cap: int = 60,
                    n_vars: int = 1):
    """A parallel-sequential spec plus an (optionally encapsulated) root
    and an initial valuation; the reachable LTS stays under the cap."""
    for _ in range(80):
        n_actions = rng.randint(2, 3)
        actions = _ACTIONS[:n_actions]
        variables = _VARS[:n_vars]
        values = _VALUES[:rng.randint(2, 3)]
        comm_entries = ()
        if n_actions == 3 and rng.random() < 0.35:
            comm_entries = ((frozenset(("a", "b")), "c"),)
        names = _NAMES[:rng.randint(0, 2)]
        parts = (actions, variables, values)
        equations = tuple(
            (name, Prefix(_label(rng, parts), _gen_seq(rng, parts, 2, names)))
            for name in names)
        spec = RecursiveSpec(
            domain=DomainDef(values), variables=variables, actions=actions,
            equations=equations, comm=CommFunction(comm_entries))
        if validate_spec(spec):
            continue
        components = [
            Name(rng.choice(names)) if names and rng.random() < 0.35
            else _gen_seq(rng, parts, rng.randint(1, 3), names)
            for _ in range(rng.randint(1, 3))]
        root = components[0]
        for comp in components[1:]:
            root = Parallel(root, comp)
        if rng.random() < 0.3:
            blocked = frozenset(rng.sample(actions, rng.randint(1, len(actions))))
            root = Encap(blocked, root)
        valuation = rng.choice(enumerate_valuations(spec))
        try:
            lts, _ = explore(spec, [GvState(root, valuation)],
                             ExplorationConfig(max_states=state_cap))
        except ResourceLimitError:
            continue
        if len(lts.transitions) == 0 and rng.random() < 0.8:
            continue  # keep mostly live systems
        return spec, root, valuation
    raise AssertionError("generator failed to produce a parallel-sequential spec")


# ---------------------------------------------------------------------------
# Spec texts


def render_spec(spec: RecursiveSpec, init: InitSpec | None = None) -> str:
    """Inverse of parse_spec: the text parses back to the same spec and init."""
    lines = [f"domain {{ {', '.join(spec.domain.values)} }}"]
    if spec.variables:
        lines.append(f"vars {{ {', '.join(spec.variables)} }}")
    lines.append(f"acts {{ {', '.join(spec.actions)} }}")
    if not spec.comm.is_empty():
        entries = "; ".join(
            "|".join(sorted(key)) + " -> " + result
            for key, result in spec.comm.entries
        )
        lines.append(f"comm {{ {entries} }}")
    for name, body in spec.equations:
        lines.append(f"proc {name} = {expr_str(body)}")
    if init is not None:
        with_part = ""
        if init.valuation.entries:
            pairs = ", ".join(f"{v} = {d}" for v, d in init.valuation.entries)
            with_part = f" with {{ {pairs} }}"
        root = expr_str(init.root)
        if root.startswith("encap") and not isinstance(init.root, Encap):
            root = f"({root})"  # a leading encap would scope over the whole line
        lines.append(f"init {root}{with_part}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parse-preserving mutations (CLI fuzz)


def _paths(expr, path=()):
    """Every subterm of an expression with the field path that reaches it."""
    yield path, expr
    for name in type(expr)._fields:
        child = getattr(expr, name)
        if isinstance(child, ProcessExpr):
            yield from _paths(child, path + (name,))


def _replaced(expr, path, new):
    if not path:
        return new
    fields = {name: getattr(expr, name) for name in type(expr)._fields}
    fields[path[0]] = _replaced(fields[path[0]], path[1:], new)
    return type(expr)(**fields)


def _edited(rng: random.Random, spec: RecursiveSpec, node):
    """One edit of one node. Names, values and actions change only to
    declared ones, and no process name loses its guard, so the text of the
    result still parses and validates."""
    parts = (spec.actions, spec.variables, spec.domain.values)
    if rng.random() < 0.25:
        return rng.choice((
            Deadlock(),
            Prefix(_label(rng, parts), node),
            Cond(rng.choice(spec.variables), rng.choice(spec.domain.values), node),
            Encap(frozenset(rng.sample(spec.actions, rng.randint(1, len(spec.actions)))),
                  node)))
    if isinstance(node, Prefix):
        return Prefix(_label(rng, parts), node.body)
    if isinstance(node, Cond):
        return Cond(rng.choice(spec.variables), rng.choice(spec.domain.values), node.body)
    if isinstance(node, (Choice, Parallel)):
        operands = (node.left, node.right) if rng.random() < 0.5 else (node.right, node.left)
        return rng.choice((Choice, Parallel))(*operands)
    if isinstance(node, Encap):
        return Encap(frozenset(rng.sample(spec.actions, rng.randint(1, len(spec.actions)))),
                     node.body)
    if isinstance(node, Name):
        return Name(rng.choice(spec.process_names))
    return Prefix(_label(rng, parts), node)


def mutate_spec(rng: random.Random, spec: RecursiveSpec, root, valuation, edits: int):
    """``edits`` AST edits spread over the equation bodies, the root and
    the initial valuation; returns the mutated (spec, root, valuation)."""
    equations = list(spec.equations)
    for _ in range(edits):
        where = rng.randrange(len(equations) + 2)
        if where == len(equations) + 1:
            valuation = updated(valuation, rng.choice(spec.variables),
                                rng.choice(spec.domain.values))
            continue
        expr = root if where == len(equations) else equations[where][1]
        path, node = rng.choice(list(_paths(expr)))
        expr = _replaced(expr, path, _edited(rng, spec, node))
        if where == len(equations):
            root = expr
        else:
            equations[where] = (equations[where][0], expr)
    spec = RecursiveSpec(domain=spec.domain, variables=spec.variables,
                         actions=spec.actions, equations=tuple(equations),
                         comm=spec.comm)
    return spec, root, valuation


def gen_formula(rng: random.Random, spec: RecursiveSpec, labels, depth: int):
    """A formula with every operator of the logic, nested at most ``depth``
    operators deep, over a spec's variables and values and ``labels``."""
    roll = rng.random()
    if depth == 0 or roll < 0.18:
        atoms = [TRUE, FALSE] + [Check(v, d) for v in spec.variables
                                 for d in spec.domain.values]
        return rng.choice(atoms)
    if roll < 0.33:
        return Not(gen_formula(rng, spec, labels, depth - 1))
    if roll < 0.48:
        return And(gen_formula(rng, spec, labels, depth - 1),
                   gen_formula(rng, spec, labels, depth - 1))
    if roll < 0.58:
        return Or(gen_formula(rng, spec, labels, depth - 1),
                  gen_formula(rng, spec, labels, depth - 1))
    label_set = frozenset(rng.sample(labels, rng.randint(1, min(3, len(labels)))))
    if roll < 0.75:
        return Diamond(label_set, gen_formula(rng, spec, labels, depth - 1))
    if roll < 0.9:
        return Box(label_set, gen_formula(rng, spec, labels, depth - 1))
    return SetVar(rng.choice(spec.variables), rng.choice(spec.domain.values),
                  gen_formula(rng, spec, labels, depth - 1))


# ---------------------------------------------------------------------------
# Scaled families


def worker_grid_text(n: int, k: int) -> str:
    """W(n,k): worker i cycles its own variable x_i over k values and can
    do its local action w_i at every value; k^n valuations, one expression."""
    values = [f"v{j}" for j in range(k)]
    lines = [f"domain {{ {', '.join(values)} }}",
             f"vars {{ {', '.join(f'x{i}' for i in range(1, n + 1))} }}",
             f"acts {{ {', '.join(f'w{i}' for i in range(1, n + 1))} }}"]
    for i in range(1, n + 1):
        lines.append(f"proc W{i} = " + " + ".join(
            f"((x{i} = {values[j]}) -> (w{i}.W{i} + assign(x{i}, {values[(j + 1) % k]}).W{i}))"
            for j in range(k)))
    workers = " || ".join(f"W{i}" for i in range(1, n + 1))
    start = ", ".join(f"x{i} = v0" for i in range(1, n + 1))
    lines.append(f"init {workers} with {{ {start} }}")
    return "\n".join(lines) + "\n"


def ring_text(n: int, stages: int) -> str:
    """R(n,L): n components of L stages under encap({a1, a2}) with the
    handshake a1|a2 -> s. Stage 0 offers a1 when f = lo, stage 1 offers
    a2, component 1 toggles f at its last stage; every stage has its local
    action t_i. L^n expressions over two valuations."""
    acts = [f"t{i}" for i in range(1, n + 1)] + ["a1", "a2", "s"]
    lines = ["domain { lo, hi }", "vars { f }", f"acts {{ {', '.join(acts)} }}",
             "comm { a1|a2 -> s }"]
    for i in range(1, n + 1):
        for stage in range(stages):
            nxt = f"C{i}_{(stage + 1) % stages}"
            summands = [f"t{i}.{nxt}"]
            if stage == 0:
                summands.append(f"((f = lo) -> a1.{nxt})")
            if stage == 1:
                summands.append(f"a2.{nxt}")
            if i == 1 and stage == stages - 1:
                summands += [f"((f = lo) -> assign(f, hi).{nxt})",
                             f"((f = hi) -> assign(f, lo).{nxt})"]
            lines.append(f"proc C{i}_{stage} = " + " + ".join(summands))
    ring = " || ".join(f"C{i}_0" for i in range(1, n + 1))
    lines.append(f"init encap({{a1, a2}}) ({ring}) with {{ f = lo }}")
    return "\n".join(lines) + "\n"


def step_corner_specs() -> list[tuple[RecursiveSpec, tuple]]:
    """(spec, roots) pairs built by hand for the corners of step tables:
    operands that meet in both orders, so that a target built from swapped
    operands already exists; a nested encap; a handshake that the
    enclosing encap blocks; one step derived twice under tests that can
    both hold, that conflict, and under none; the unguarded
    P = p + Q, Q = q + P; and handshakes that change the frame on the
    left, on the right or on both sides."""
    p, q, r = (Prefix(Action(n), Deadlock()) for n in ("p", "q", "r"))
    P, Q, R = Name("P"), Name("Q"), Name("R")
    spec = RecursiveSpec(
        domain=DomainDef(("a", "b")), variables=("x", "y"),
        actions=("p", "q", "r", "s"),
        equations=(("P", Choice(Cond("x", "a", Prefix(Action("p"), P)),
                                Prefix(Assign("y", "b"), Q))),
                   ("Q", Choice(Prefix(Action("q"), Q), Prefix(Assign("x", "b"), P))),
                   ("R", Choice(Prefix(Action("p"), R),
                                Cond("y", "a", Prefix(Action("q"), Deadlock()))))),
        comm=CommFunction(((frozenset(("p", "q")), "r"),)))
    compatible = Choice(Cond("x", "a", p), Cond("y", "b", p))
    conflicting = Choice(Cond("x", "a", p), Cond("x", "b", p))
    roots = (Parallel(Encap(frozenset({"p"}), Parallel(P, Q)), R),
             Parallel(R, Encap(frozenset({"p"}), Parallel(Q, P))),
             # the handshake p|q -> r happens inside and is blocked outside
             Encap(frozenset({"r"}), Parallel(P, Q)), Encap(frozenset({"r"}), Parallel(Q, P)),
             compatible, conflicting, Choice(Choice(p, q), p),
             Parallel(compatible, conflicting), Parallel(conflicting, compatible))
    # unfolding sets keep the two bodies apart
    loop = RecursiveSpec(
        domain=DomainDef(("a",)), variables=(), actions=("p", "q", "r"),
        equations=(("P", Choice(p, Q)), ("Q", Choice(q, P))),
        comm=CommFunction(((frozenset(("p", "q")), "r"),)))
    # after the handshake p|q -> r an operand is a || or an encap
    forks = RecursiveSpec(
        domain=DomainDef(("a", "b")), variables=("x",), actions=("p", "q", "r", "s"),
        equations=(), comm=CommFunction(((frozenset(("p", "q")), "r"),)))
    s = Prefix(Action("s"), Deadlock())
    fork_p = Prefix(Action("p"), Parallel(q, s))
    fork_q = Prefix(Action("q"), Encap(frozenset({"s"}), Parallel(s, Cond("x", "a", p))))
    plain_q = Prefix(Action("q"), Prefix(Assign("x", "b"), r))
    return [(spec, roots),
            (loop, (Parallel(P, Q), Parallel(Q, P), Choice(P, Parallel(Q, r)))),
            (forks, (Parallel(fork_p, plain_q), Parallel(plain_q, fork_p),
                     Parallel(fork_p, fork_q), Encap(frozenset({"p", "q"}),
                                                     Parallel(fork_q, fork_p))))]


# ---------------------------------------------------------------------------
# mCRL2 fragment terms (restricted composition)

_M_DOMAIN = ("0", "1")
_M_ARITY = {"a": 1, "b": 1, "c": 0, "d": 0, "e": 1}  # a|b and c|d can match
_M_NAMES = tuple(_M_ARITY)


def _m_act(rng: random.Random, binders: tuple) -> MAct:
    name = rng.choice(_M_NAMES)
    return MAct(name, tuple(
        DVar(rng.choice(binders)) if binders and rng.random() < 0.6
        else DConst(rng.choice(_M_DOMAIN)) for _ in range(_M_ARITY[name])))


def _m_call(rng: random.Random, binders: tuple):
    if rng.random() < 0.5:
        return MCall("P")
    arg = (DVar(rng.choice(binders)) if binders and rng.random() < 0.5
           else DConst(rng.choice(_M_DOMAIN)))
    return MCall("Q", (arg,))


def _m_seq(rng: random.Random, depth: int, binders: tuple):
    roll = rng.random()
    if depth <= 0 or roll < 0.15:
        return MDELTA if rng.random() < 0.2 else _m_call(rng, binders)
    if roll < 0.55:
        if rng.random() < 0.1:
            action = TAU
        else:
            action = _m_act(rng, binders)
            if rng.random() < 0.35:
                action = MBar(action, _m_act(rng, binders))
        return MPrefix(action, _m_seq(rng, depth - 1, binders))
    if roll < 0.75:
        return MChoice(_m_seq(rng, depth - 1, binders),
                       _m_seq(rng, depth - 1, binders))
    var = f"x{len(binders)}"
    return MSum(var, _m_seq(rng, depth - 1, binders + (var,)))


def _m_allowed(rng: random.Random) -> frozenset:
    return frozenset(
        Multiset(rng.choice(_M_NAMES) for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(1, 4)))


def _m_comm(rng: random.Random, chain: bool) -> tuple:
    names = list(_M_NAMES)
    rng.shuffle(names)
    first = (names[0], names[1] if rng.random() < 0.8 else names[0])
    second = (names[2], names[3])
    # a chain: one entry's result is a left-hand name of the other
    results = (second[0], rng.choice(_M_NAMES)) if chain else (
        rng.choice([names[4], names[0], names[2]]), rng.choice(_M_NAMES[2:]))
    entries = [(Multiset(first), results[0])]
    if chain or rng.random() < 0.6:
        entries.append((Multiset(second), results[1]))
    return tuple(entries)


def gen_mcrl2_term(rng: random.Random):
    """An environment and a term of the mCRL2 fragment unlike the
    translation's output: allow sets of multi-name multisets, hide of
    visible names, comm whose left-hand names are allowed too, comm chains,
    operators stacked in any order, allow nested under parallel, and sums
    whose binders feed plain actions."""
    env = Mcrl2Spec(domain=_M_DOMAIN, equations=(
        ("P", (), _m_seq(rng, 3, ())), ("Q", ("p",), _m_seq(rng, 3, ("p",)))))
    components = [_m_seq(rng, 3, ()) for _ in range(rng.randint(2, 3))]
    if rng.random() < 0.3:
        components[-1] = MAllow(_m_allowed(rng),
                                MParallel(components[-1], _m_seq(rng, 2, ())))
    term = components[0]
    for component in components[1:]:
        term = MParallel(term, component)
    hidden = frozenset(rng.sample(_M_NAMES, rng.randint(0, 2)))
    comm = _m_comm(rng, chain=rng.random() < 0.25)
    shape = rng.choice(("allow-hide-comm", "allow-hide-comm", "allow-comm",
                        "allow-hide", "allow-comm-hide", "hide-allow-comm"))
    for op in reversed(shape.split("-")):
        if op == "comm":
            term = MComm(comm, term)
        elif op == "hide":
            term = MHide(hidden, term)
        else:
            term = MAllow(_m_allowed(rng), term)
    return env, term


# ---------------------------------------------------------------------------
# mCRL2 terms whose sums feed a stuck name (binding at the join)

_B_DOMAIN = ("0", "1")


def _b_arg(rng: random.Random, binders: tuple):
    roll = rng.random()
    if binders and roll < 0.6:
        return DVar(rng.choice(binders))
    if binders and roll < 0.75:
        return DEq(DVar(rng.choice(binders)), DConst(rng.choice(_B_DOMAIN)))
    return DConst(rng.choice(_B_DOMAIN))


def _b_action(rng: random.Random, binders: tuple):
    acts = [MAct("p", (_b_arg(rng, binders), _b_arg(rng, binders)))]
    if rng.random() < 0.5:
        acts.append(MAct("a", (_b_arg(rng, binders),) if rng.random() < 0.2 else ()))
    if rng.random() < 0.15:
        acts.append(MAct("g", (_b_arg(rng, binders), _b_arg(rng, binders))))
    rng.shuffle(acts)
    action = acts[0]
    for act in acts[1:]:
        action = MBar(action, act)
    return action


def _b_seq(rng: random.Random, depth: int, binders: tuple):
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        if binders and rng.random() < 0.3:
            return MCall("K", (DVar(rng.choice(binders)),))
        return MCall("L") if rng.random() < 0.7 else MDELTA
    if roll < 0.55:
        return MPrefix(_b_action(rng, binders), _b_seq(rng, depth - 1, binders))
    if roll < 0.7:
        return MChoice(_b_seq(rng, depth - 1, binders), _b_seq(rng, depth - 1, binders))
    var = rng.choice(binders) if binders and rng.random() < 0.15 else f"x{len(binders)}"
    binders += (var,)
    if rng.random() < 0.6:  # a chain of sums over a prefix, as chi makes
        return MSum(var, MPrefix(_b_action(rng, binders), _b_seq(rng, depth - 1, binders)))
    return MSum(var, _b_seq(rng, depth - 1, binders))


def _b_partner(rng: random.Random, second):
    """A summand of R(r): g carries r and mostly R's one second argument,
    else another constant or a value of n."""
    if rng.random() < 0.25:
        second = DVar("n") if rng.random() < 0.3 else rng.choice(
            (DConst("0"), DConst("1"), DBool(True)))
    g = MAct(rng.choice("ggggp"), (DVar("r"), second))
    action = rng.choice((g, g, MBar(g, g), MAct("b"), MBar(g, MAct("b"))))
    target = MCall("R", (rng.choice((DVar("r"), DVar("n"), DConst("0"))),))
    return MSum("n", MPrefix(action, target))


def gen_bind_term(rng: random.Random):
    """An environment and a term shaped like the translation's top: allow
    over hide({c}) over comm(p|g -> c) over a left operand and a partner
    R. As checkP does, p leaves only with a g of equal arguments. Sums on
    the left feed p, and also plain actions, g, conditions, continuations
    and shadowed binders; R offers g with one or several argument tuples,
    and sometimes p."""
    second = rng.choice((DConst("0"), DBool(True)))
    right = _b_partner(rng, second)
    for _ in range(rng.randint(0, 2)):
        right = MChoice(right, _b_partner(rng, second))
    env = Mcrl2Spec(domain=_B_DOMAIN, equations=(
        ("L", (), _b_seq(rng, 4, ())),
        ("K", ("k",), MPrefix(MBar(MAct("a"), MAct("p", (DVar("k"), DConst("0")))),
                              MCall("L"))),
        ("R", ("r",), right)))
    left = MCall("L") if rng.random() < 0.5 else MParallel(MCall("L"), _b_seq(rng, 3, ()))
    allowed = frozenset(Multiset(names) for names in (["a"], ["b"], ["a", "b"], ["a", "a"])
                        if rng.random() < 0.8)
    comm = ((Multiset(["g", "p"]), "c"),)
    return env, MAllow(allowed, MHide(frozenset({"c"}), MComm(
        comm, MParallel(left, MCall("R", (DConst(rng.choice(_B_DOMAIN)),))))))
