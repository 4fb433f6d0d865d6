"""Operational semantics: single steps, LTS construction, reachability.

States are pairs of a process expression and a valuation. The transition
relation is the least one closed under the rules Pref, Asgn, Con, Rec,
Sum-l/r, Par-l/r, Comm and Enc; communication synchronises actions only,
never assignments.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from .errors import ResourceLimitError
from .syntax import (
    Action, Assign, Choice, Cond, Deadlock, Encap, InitSpec, Name, Parallel,
    Prefix, ProcessExpr, RecursiveSpec, TransitionLabel, Valuation,
    enumerate_valuations, expr_str, label_str,
)


@dataclass(frozen=True)
class GvState:
    expr: ProcessExpr
    valuation: Valuation


def state_str(state: GvState) -> str:
    return f"<{expr_str(state.expr)}, {state.valuation}>"


@dataclass(frozen=True)
class ExplorationConfig:
    max_states: int = 100_000
    max_valuations: int = 4096

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError("max_states must be at least 1")


DEFAULT_CONFIG = ExplorationConfig()


@dataclass(frozen=True)
class Lts:
    """Explicit LTS with a designated initial state.

    State payloads are opaque; transitions refer to state indices. The
    index order is the (deterministic) discovery order of the BFS that
    built the system.
    """

    states: tuple
    transitions: tuple[tuple[int, Any, int], ...]
    initial: int = 0
    _succ: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        succ: dict[int, list] = {i: [] for i in range(len(self.states))}
        for src, label, dst in self.transitions:
            succ[src].append((label, dst))
        object.__setattr__(self, "_succ", succ)

    def successors(self, state: int) -> list[tuple[Any, int]]:
        return self._succ[state]


# ---------------------------------------------------------------------------
# Single steps


def step(spec: RecursiveSpec, state: GvState) -> tuple[tuple[TransitionLabel, GvState], ...]:
    """All transitions of a state, in deterministic derivation order."""
    out = _steps(spec, state.expr, state.valuation, frozenset())
    return tuple(dict.fromkeys(out))


def _steps(spec, expr, valuation, unfolding):
    if isinstance(expr, Deadlock):
        return []
    if isinstance(expr, Prefix):
        label = expr.label
        if isinstance(label, Assign):
            target = valuation.updated(label.var, label.value)
        else:
            target = valuation
        return [(label, GvState(expr.body, target))]
    if isinstance(expr, Choice):
        return (_steps(spec, expr.left, valuation, unfolding)
                + _steps(spec, expr.right, valuation, unfolding))
    if isinstance(expr, Cond):
        if valuation.value_of(expr.var) == expr.value:
            return _steps(spec, expr.body, valuation, unfolding)
        return []
    if isinstance(expr, Name):
        # A name already being unfolded on this derivation path contributes
        # nothing; guarded specs never re-enter, unguarded ones stay finite.
        if expr.name in unfolding:
            return []
        body = spec.equation(expr.name)
        return _steps(spec, body, valuation, unfolding | {expr.name})
    if isinstance(expr, Encap):
        out = []
        for label, target in _steps(spec, expr.body, valuation, unfolding):
            if isinstance(label, Action) and label.name in expr.blocked:
                continue
            out.append((label, GvState(Encap(expr.blocked, target.expr),
                                       target.valuation)))
        return out
    if isinstance(expr, Parallel):
        left = _steps(spec, expr.left, valuation, unfolding)
        right = _steps(spec, expr.right, valuation, unfolding)
        out = []
        for label, target in left:
            out.append((label, GvState(Parallel(target.expr, expr.right),
                                       target.valuation)))
        for label, target in right:
            out.append((label, GvState(Parallel(expr.left, target.expr),
                                       target.valuation)))
        if not spec.comm.is_empty():
            for la, ta in left:
                if not isinstance(la, Action):
                    continue
                for lb, tb in right:
                    if not isinstance(lb, Action):
                        continue
                    result = spec.comm.lookup(la.name, lb.name)
                    if result is not None:
                        out.append((Action(result),
                                    GvState(Parallel(ta.expr, tb.expr), valuation)))
        return out
    raise TypeError(f"not a process expression: {expr!r}")


# ---------------------------------------------------------------------------
# Breadth-first exploration


def _bfs(roots: Iterable, successors: Callable[[Any], Iterable[tuple[Any, Any]]],
         cap: int, what: str = "state") -> tuple[list, list[list], tuple[int, ...]]:
    """Breadth-first search from several roots at once.

    Returns the nodes in discovery order, one row of ``(label, j)`` moves
    per node, where ``j`` indexes the nodes, and the index of each root.
    Raises ResourceLimitError rather than store more than ``cap`` nodes.
    """
    index: dict = {}
    nodes: list = []
    rows: list[list] = []

    def register(node) -> int:
        i = index.get(node)
        if i is None:
            if len(nodes) >= cap:
                raise ResourceLimitError(
                    f"{what} cap of {cap} exceeded "
                    f"(frontier size {len(nodes) - len(rows)})",
                    limit=cap, reached=len(nodes) + 1)
            i = index[node] = len(nodes)
            nodes.append(node)
        return i

    root_indices = tuple(register(root) for root in roots)
    while len(rows) < len(nodes):
        rows.append([(label, register(target))
                     for label, target in successors(nodes[len(rows)])])
    return nodes, rows, root_indices


def _bfs_lts(roots: Iterable, successors, cap: int) -> tuple[Lts, tuple[int, ...]]:
    """The reachable LTS of the roots, states indexed in BFS order."""
    states, rows, root_indices = _bfs(roots, successors, cap)
    transitions = tuple((i, label, j) for i, row in enumerate(rows) for label, j in row)
    # Lts builds its own successor lists; the rows must not outlive that.
    del rows
    return (Lts(states=tuple(states), transitions=transitions,
                initial=root_indices[0]),
            root_indices)


def explore(spec: RecursiveSpec, roots: Sequence[GvState],
            cfg: ExplorationConfig = DEFAULT_CONFIG) -> tuple[Lts, tuple[int, ...]]:
    """BFS over the reachable fragment from several roots at once."""
    return _bfs_lts(roots, lambda state: step(spec, state), cfg.max_states)


def generate_lts(spec: RecursiveSpec, init: InitSpec | GvState,
                 cfg: ExplorationConfig = DEFAULT_CONFIG) -> Lts:
    if isinstance(init, InitSpec):
        init = GvState(init.root, init.valuation)
    lts, _ = explore(spec, [init], cfg)
    return lts


# ---------------------------------------------------------------------------
# Reachable expressions and image-finiteness


def expression_closure(spec: RecursiveSpec, roots: ProcessExpr | Iterable[ProcessExpr],
                       cfg: ExplorationConfig = DEFAULT_CONFIG):
    """Closure of the roots under steps taken from every valuation.

    One pass returns ``(exprs, valuations, rows, root_indices)``. Row ``e``
    lists the moves of ``exprs[e]`` from every valuation, valuation by
    valuation in grid order and in `step` order within one valuation, as
    ``((v, label, v2), e2)``: from ``valuations[v]`` the label leads to
    ``exprs[e2]`` under ``valuations[v2]``.
    """
    if isinstance(roots, ProcessExpr):
        roots = [roots]
    valuations = enumerate_valuations(spec, cfg.max_valuations)
    val_index = {v: i for i, v in enumerate(valuations)}

    def successors(expr):
        for v_i, valuation in enumerate(valuations):
            for label, target in step(spec, GvState(expr, valuation)):
                yield (v_i, label, val_index[target.valuation]), target.expr

    exprs, rows, root_indices = _bfs(roots, successors, cfg.max_states,
                                     "expression closure")
    return tuple(exprs), valuations, rows, root_indices


def reachable_exprs(spec: RecursiveSpec, roots: ProcessExpr | Iterable[ProcessExpr],
                    cfg: ExplorationConfig = DEFAULT_CONFIG) -> tuple[ProcessExpr, ...]:
    """Closure of the roots under steps taken from every valuation."""
    return expression_closure(spec, roots, cfg)[0]


@dataclass(frozen=True)
class ImageFinitenessReport:
    status: str  # "ok" or "bound-exceeded"
    explored: int
    cap: int

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def check_image_finite(spec: RecursiveSpec, root: ProcessExpr,
                       cfg: ExplorationConfig = DEFAULT_CONFIG) -> ImageFinitenessReport:
    """Successor sets here are computed and therefore finite per state, so
    the check reduces to the reachable-expression closure staying under
    the cap."""
    try:
        closure = reachable_exprs(spec, root, cfg)
    except ResourceLimitError as err:
        return ImageFinitenessReport(
            status="bound-exceeded", explored=err.reached, cap=err.limit)
    return ImageFinitenessReport(
        status="ok", explored=len(closure), cap=cfg.max_states)


# ---------------------------------------------------------------------------
# Export


def _default_label_str(label) -> str:
    if isinstance(label, (Action, Assign)):
        return label_str(label)
    return str(label)


def _default_state_str(payload) -> str:
    if isinstance(payload, GvState):
        return state_str(payload)
    return str(payload)


def export_lts(lts: Lts, fmt: str = "aut",
               label_to_str: Callable[[Any], str] | None = None,
               state_to_str: Callable[[Any], str] | None = None) -> str:
    label_to_str = label_to_str or _default_label_str
    state_to_str = state_to_str or _default_state_str
    if fmt == "aut":
        lines = [f"des ({lts.initial},{len(lts.transitions)},{len(lts.states)})"]
        for src, label, dst in lts.transitions:
            lines.append(f'({src},"{label_to_str(label)}",{dst})')
        return "\n".join(lines) + "\n"
    if fmt == "dot":
        lines = ["digraph lts {", "  rankdir=LR;", '  node [shape=box];',
                 '  init [shape=point];', f"  init -> s{lts.initial};"]
        for i, payload in enumerate(lts.states):
            text = state_to_str(payload).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  s{i} [label="{text}"];')
        for src, label, dst in lts.transitions:
            text = label_to_str(label).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  s{src} -> s{dst} [label="{text}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")
