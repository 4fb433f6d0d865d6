import pathlib

import pytest

import gvpa.sos
from gvpa.parser import parse_expr, parse_spec
from gvpa.sos import Lts, Transitions
from gvpa.syntax import Valuation

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = pathlib.Path(__file__).parent / "golden"

TRAFFIC_TEXT = (DATA / "traffic.gvpa").read_text(encoding="utf-8")

EXAMPLE3_TEXT = """
domain { 0, 1 }
vars { v }
acts { a }
init (v = 0) -> a.delta with { v = 0 }
"""


def lts_of(states, triples, initial: int = 0) -> Lts:
    """The LTS whose store holds ``(src, label, dst)`` triples, each
    state's moves in the order given."""
    rows = [[] for _ in states]
    for src, label, dst in triples:
        rows[src].append((label, dst))
    return Lts(states=tuple(states), transitions=Transitions(rows), initial=initial)


@pytest.fixture(scope="session")
def traffic():
    return parse_spec(TRAFFIC_TEXT)


@pytest.fixture(scope="session")
def example3():
    """The congruence counterexample: P, Q, R with V(v)=0 over D={0,1}."""
    spec, _ = parse_spec(EXAMPLE3_TEXT)
    p = parse_expr("(v = 0) -> a.delta", spec)
    q = parse_expr("a.delta", spec)
    r = parse_expr("assign(v, 1).delta", spec)
    v0 = Valuation((("v", "0"),))
    return spec, p, q, r, v0


@pytest.fixture()
def placed_terms(monkeypatch):
    """The terms that frame-changing rows put into a slot, in the order
    the test's passes meet them: a target with `||` or `encap` on top, or
    a leaf outside the slot's closure."""
    terms = []
    moved = gvpa.sos._Stepper._moved
    monkeypatch.setattr(gvpa.sos._Stepper, "_moved",
                        lambda self, e, move: terms.extend(t for _, t in move[1])
                        or moved(self, e, move))
    return terms
