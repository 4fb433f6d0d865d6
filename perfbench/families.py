"""Seeded model families, their known answers and an independent oracle.

The families follow BEEM (Pelanek, SPIN 2007): parametric models scaled
by size knobs, not unbounded random draws.

- W(n,k), the worker grid: n workers, worker i cycles its own variable
  x_i over k values and has one local action w_i at every value. One
  expression, k^n valuations, 2n*k^n transitions.
- R(n,L), the ring: n components of L named stages under
  encap({a1, a2}) with the handshake a1|a2 -> s and one shared variable f
  over {lo, hi}. Every stage has the local action t_i; stage 0 offers a1
  when f = lo, stage 1 offers a2, and component 1 toggles f at stage L-1.
  L^n expressions, 2L^n states and 2nL^n + 2L^(n-1) + n(n-1)L^(n-2)
  transitions.
- Parallel-sequential draws over one variable, in the style of the test
  corpora, kept small so that their cost hardly depends on the seed.

The seed never changes a size. It picks a name tag, spliced into every
user name after its first character; a common infix keeps every sorted
order of names, so outputs stripped of the tag are byte-identical across
seeds and their digests can be pinned once. It also picks the initial
valuations of jobs whose answers are derived analytically, the draws,
and the job order.

Known answers come from the formulas above, from constructions whose
verdicts are fixed (p + p ~ p, commutativity of ||), and from `explore`
below, a small SOS explorer for top-level parallel compositions of
sequential processes that shares no code with the program under test.
"""
from __future__ import annotations

import random
import string

# Sequential terms: ("pre", label, body) | ("sum", l, r) | ("cond", var, value,
# body) | ("name", N) | ("delta",). Labels: ("act", a) | ("asg", var, value).
DELTA = ("delta",)


def pre(label, body):
    return ("pre", label, body)


def act(name):
    return ("act", name)


def asg(var, value):
    return ("asg", var, value)


def name(n):
    return ("name", n)


def cond(var, value, body):
    return ("cond", var, value, body)


def choice(*terms):
    out = terms[0]
    for term in terms[1:]:
        out = ("sum", out, term)
    return out


class Spec:
    """A spec in the oracle's terms, renderable as a .gvpa file."""

    def __init__(self, values, variables, actions, equations, components,
                 init, comm=(), blocked=()):
        self.values = tuple(values)
        self.variables = tuple(variables)
        self.actions = tuple(actions)
        self.equations = dict(equations)      # name -> sequential term
        self.components = tuple(components)   # root: c1 || c2 || ...
        self.init = dict(init)                # var -> value
        self.comm = tuple(comm)               # ((a, b), result)
        self.blocked = frozenset(blocked)     # top-level encap

    def text(self) -> str:
        lines = [f"domain {{ {', '.join(self.values)} }}",
                 f"vars {{ {', '.join(self.variables)} }}",
                 f"acts {{ {', '.join(self.actions)} }}"]
        if self.comm:
            lines.append("comm { " + "; ".join(
                f"{a}|{b} -> {c}" for (a, b), c in self.comm) + " }")
        for n, body in self.equations.items():
            lines.append(f"proc {n} = {term_text(body)}")
        root = " || ".join(term_text(c) for c in self.components)
        if self.blocked:
            root = f"encap({{{', '.join(sorted(self.blocked))}}}) {root}"
        valuation = ", ".join(f"{v} = {self.init[v]}" for v in self.variables)
        lines.append(f"init {root} with {{ {valuation} }}")
        return "\n".join(lines) + "\n"


def label_text(label) -> str:
    if label[0] == "act":
        return label[1]
    return f"assign({label[1]}, {label[2]})"


def term_text(term) -> str:
    """Fully parenthesised, so the parsed tree is this tree."""
    kind = term[0]
    if kind == "delta":
        return "delta"
    if kind == "name":
        return term[1]
    if kind == "pre":
        return f"{label_text(term[1])}.{term_text(term[2])}"
    if kind == "sum":
        return f"({term_text(term[1])} + {term_text(term[2])})"
    return f"(({term[1]} = {term[2]}) -> {term_text(term[3])})"


# ---------------------------------------------------------------------------
# Oracle


def _moves(spec: Spec, term, valuation: dict, unfolding=frozenset()):
    kind = term[0]
    if kind == "pre":
        return [(term[1], term[2])]
    if kind == "sum":
        return (_moves(spec, term[1], valuation, unfolding)
                + _moves(spec, term[2], valuation, unfolding))
    if kind == "cond":
        if valuation[term[1]] == term[2]:
            return _moves(spec, term[3], valuation, unfolding)
        return []
    if kind == "name" and term[1] not in unfolding:
        return _moves(spec, spec.equations[term[1]], valuation,
                      unfolding | {term[1]})
    return []


def explore(spec: Spec, cap: int = 200_000) -> tuple[int, int]:
    """(states, transitions) of the init state's reachable LTS."""
    comm = {frozenset(pair): result for pair, result in spec.comm}
    start = (spec.components, tuple(spec.init[v] for v in spec.variables))
    seen = {start}
    frontier = [start]
    transitions = 0
    while frontier:
        comps, values = frontier.pop()
        valuation = dict(zip(spec.variables, values))
        moves = [_moves(spec, c, valuation) for c in comps]
        targets = set()
        for i, own in enumerate(moves):
            for label, body in own:
                if label[0] == "act" and label[1] in spec.blocked:
                    continue
                new_values = values
                if label[0] == "asg":
                    new_values = tuple(label[2] if v == label[1] else old
                                       for v, old in zip(spec.variables, values))
                targets.add((label, comps[:i] + (body,) + comps[i + 1:],
                             new_values))
            for j in range(i + 1, len(comps)):
                for la, ta in own:
                    for lb, tb in moves[j]:
                        result = (la[0] == lb[0] == "act"
                                  and comm.get(frozenset((la[1], lb[1]))))
                        if result and result not in spec.blocked:
                            new = list(comps)
                            new[i], new[j] = ta, tb
                            targets.add((act(result), tuple(new), values))
        transitions += len(targets)
        for _, c, v in targets:
            if (c, v) not in seen:
                if len(seen) >= cap:
                    raise ValueError("oracle state cap exceeded")
                seen.add((c, v))
                frontier.append((c, v))
    return len(seen), transitions


# ---------------------------------------------------------------------------
# Families


def make_tag(rng: random.Random) -> str:
    """A digit then three letters: spliced after the first character of a
    name it keeps every comparison with other names and with the
    translation's own names, whose second characters are letters."""
    return rng.choice(string.digits) + "".join(
        rng.choice(string.ascii_lowercase) for _ in range(3))


def tagged(tag: str):
    return lambda s: s[0] + tag + s[1:]


def worker_grid(n: int, k: int, tag: str, init=None, extras: bool = True) -> Spec:
    """W(n,k). With `extras`, adds the stuttered copies S_i (every summand
    doubled, so S_i ~ W_i) and M1, a copy of W1 without its local action
    at the last value (so M1 || W2.. is not bisimilar to W1 || W2..)."""
    t = tagged(tag)
    values = [t(f"v{j}") for j in range(k)]
    xs = [t(f"x{i}") for i in range(1, n + 1)]
    ws = [t(f"w{i}") for i in range(1, n + 1)]

    def body(i, me, stutter=False, drop_last=False):
        summands = []
        for j in range(k):
            moves = [pre(asg(xs[i], values[(j + 1) % k]), name(me))]
            if not (drop_last and j == k - 1):
                moves.insert(0, pre(act(ws[i]), name(me)))
            if stutter:
                moves = moves + moves
            summands.append(cond(xs[i], values[j], choice(*moves)))
        return choice(*summands)

    equations = {t(f"W{i + 1}"): body(i, t(f"W{i + 1}")) for i in range(n)}
    if extras:
        equations.update({t(f"S{i + 1}"): body(i, t(f"S{i + 1}"), stutter=True)
                          for i in range(n)})
        equations[t("M1")] = body(0, t("M1"), drop_last=True)
    init = init or [0] * n
    return Spec(values, xs, ws, equations,
                [name(t(f"W{i + 1}")) for i in range(n)],
                {x: values[r] for x, r in zip(xs, init)})


def ring(n: int, L: int, tag: str, f_init: int = 0) -> Spec:
    """R(n,L); f_init picks lo (0) or hi (1) as f's initial value."""
    t = tagged(tag)
    lo, hi, f = t("lo"), t("hi"), t("f")
    a1, a2, s = t("a1"), t("a2"), t("s")
    ts = [t(f"t{i}") for i in range(1, n + 1)]

    def stage(i, j):
        return t(f"C{i + 1}_{j}")

    equations = {}
    for i in range(n):
        for j in range(L):
            nxt = name(stage(i, (j + 1) % L))
            summands = [pre(act(ts[i]), nxt)]
            if j == 0:
                summands.append(cond(f, lo, pre(act(a1), nxt)))
            if j == 1:
                summands.append(pre(act(a2), nxt))
            if j == L - 1 and i == 0:
                summands.append(cond(f, lo, pre(asg(f, hi), nxt)))
                summands.append(cond(f, hi, pre(asg(f, lo), nxt)))
            equations[stage(i, j)] = choice(*summands)
    return Spec([lo, hi], [f], ts + [a1, a2, s], equations,
                [name(stage(i, 0)) for i in range(n)], {f: (lo, hi)[f_init]},
                comm=[((a1, a2), s)], blocked=[a1, a2])


def grid_counts(n: int, k: int) -> tuple[int, int]:
    return k ** n, 2 * n * k ** n


def ring_counts(n: int, L: int) -> tuple[int, int]:
    return (2 * L ** n,
            2 * n * L ** n + 2 * L ** (n - 1) + n * (n - 1) * L ** (n - 2))


def traffic(tag: str) -> Spec:
    """The paper's traffic light and car (Example 1)."""
    t = tagged(tag)
    green, red, v = t("green"), t("red"), t("t")
    drive, brake = t("drive"), t("brake")
    car = choice(cond(v, green, pre(act(drive), DELTA)),
                 cond(v, red, pre(act(brake),
                                  cond(v, green, pre(act(drive), DELTA)))))
    tlc = choice(cond(v, green, pre(asg(v, red), name(t("TLC")))),
                 cond(v, red, pre(asg(v, green), name(t("TLC")))))
    return Spec([green, red], [v], [drive, brake],
                {t("CAR"): car, t("TLC"): tlc},
                [name(t("CAR")), name(t("TLC"))], {v: green})


def _draw_seq(rng, labels, values, var, names, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.15:
        return DELTA
    if roll < 0.6:
        if names and rng.random() < 0.3:
            return pre(rng.choice(labels), name(rng.choice(names)))
        return pre(rng.choice(labels),
                   _draw_seq(rng, labels, values, var, names, depth - 1))
    if roll < 0.8:
        return choice(_draw_seq(rng, labels, values, var, names, depth - 1),
                      _draw_seq(rng, labels, values, var, names, depth - 1))
    # a condition guards a prefix or a choice of prefixes, never delta and
    # never another condition, so the translated state map stays injective
    guarded = pre(rng.choice(labels),
                  _draw_seq(rng, labels, values, var, names, depth - 1))
    if rng.random() < 0.3:
        guarded = choice(guarded, pre(rng.choice(labels), _draw_seq(
            rng, labels, values, var, names, depth - 1)))
    return cond(var, rng.choice(values), guarded)


def parseq_draw(rng: random.Random, tag: str, max_states: int = 10) -> tuple[Spec, int, int]:
    """A live one-variable parallel-sequential spec of two components with
    at most `max_states` reachable states, and its oracle counts."""
    t = tagged(tag)
    var = t("y")
    while True:
        values = [t(f"u{j}") for j in range(rng.randint(2, 3))]
        actions = [t(f"b{j}") for j in range(1, rng.randint(2, 3) + 1)]
        labels = [act(a) for a in actions] + [asg(var, v) for v in values]
        names = [t(f"D{j}") for j in range(1, rng.randint(0, 2) + 1)]
        equations = {n: pre(rng.choice(labels),
                            _draw_seq(rng, labels, values, var, names, 2))
                     for n in names}
        components = [name(rng.choice(names)) if names and rng.random() < 0.35
                      else _draw_seq(rng, labels, values, var, names,
                                     rng.randint(1, 3))
                      for _ in range(2)]
        spec = Spec(values, [var], actions, equations, components,
                    {var: rng.choice(values)})
        try:
            states, transitions = explore(spec, cap=max_states)
        except ValueError:
            continue
        if transitions >= states >= 3:
            return spec, states, transitions
