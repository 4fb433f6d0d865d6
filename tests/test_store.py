"""The transition store, `sos.Transitions`, against the row lists it
replaced (`oracles.reference_bfs` and friends): the same LTS triples, the
same .aut and .dot bytes, and the same refinement history on seeded corpora
and the W and R families. Then the store read through iteration, ``len``
and ``successors``, and a bound on the memory that exploring and exporting take."""
import io
import pickle
import random
import tracemalloc

import pytest

from conftest import TRAFFIC_TEXT, lts_of
from genspecs import (
    gen_pair, gen_parseq_spec, gen_spec, ring_text, step_corner_specs, worker_grid_text,
)
from oracles import (
    reference_closure, reference_explore, reference_export_lts,
    reference_lts_rows, reference_refinement_history,
)

from gvpa.bisim import refinement_history
from gvpa.parser import parse_spec
from gvpa.sos import (
    GvState, Transitions, explore, export_lts, expression_closure,
    generate_lts,
)
from gvpa.syntax import Parallel, enumerate_valuations
from gvpa.translate import run_pipeline


@pytest.fixture(scope="module")
def corpus():
    """(spec, roots, valuation) from both seeded generators, the families
    and the hand-built step corners; W(5,4) has more lines than one export
    chunk."""
    rng = random.Random(1313)
    out = []
    for _ in range(10):
        spec = gen_spec(rng)
        out.append((spec, gen_pair(rng, spec), rng.choice(enumerate_valuations(spec))))
    for n_vars in (1, 2, 1, 2):
        spec, root, valuation = gen_parseq_spec(rng, n_vars=n_vars)
        out.append((spec, (root,), valuation))
    for text in (TRAFFIC_TEXT, worker_grid_text(3, 3), worker_grid_text(5, 4),
                 ring_text(2, 2), ring_text(3, 3)):
        spec, init = parse_spec(text)
        out.append((spec, (init.root,), init.valuation))
    for spec, roots in step_corner_specs():
        out += [(spec, roots, valuation) for valuation in enumerate_valuations(spec)]
    return out


def _explored(spec, roots, valuation):
    """The store's LTS and root indices, and the row-list search's states,
    triples and root indices, from the same roots."""
    states = [GvState(root, valuation) for root in roots]
    return explore(spec, states), reference_explore(spec, states)


class TestAgainstRowLists:
    def test_lts_triples(self, corpus, placed_terms):
        for spec, roots, valuation in corpus:
            (lts, indices), (states, triples, ref_indices) = _explored(spec, roots, valuation)
            assert tuple(lts.states) == states and indices == ref_indices
            assert list(lts.transitions) == triples
        # the corpus reaches rows that change the frame: a || after a
        # prefix or a condition
        assert any(isinstance(term, Parallel) for term in placed_terms)

    def test_aut_and_dot_bytes(self, corpus):
        for spec, roots, valuation in corpus:
            (lts, _), (states, triples, _) = _explored(spec, roots, valuation)
            for fmt in ("aut", "dot"):
                text = export_lts(lts, fmt)
                assert text == reference_export_lts(states, triples, lts.initial, fmt)
                sink = io.StringIO()
                assert export_lts(lts, fmt, sink) is None
                assert sink.getvalue() == text

    def test_translated_side_bytes(self, traffic):
        cases = [(traffic[0], traffic[1].root, traffic[1].valuation)]
        rng = random.Random(1314)
        cases += [gen_parseq_spec(rng, n_vars=n_vars) for n_vars in (1, 2)]
        for spec, root, valuation in cases:
            m = run_pipeline(spec, root, valuation).m_lts
            for fmt in ("aut", "dot"):
                assert export_lts(m, fmt) == reference_export_lts(
                    m.states, list(m.transitions), m.initial, fmt)

    def test_refinement_history_in_all_three_modes(self, corpus):
        for spec, roots, valuation in corpus:
            (lts, _), (states, triples, _) = _explored(spec, roots, valuation)
            n = len(states)
            rows = reference_lts_rows(n, triples)
            seen: dict = {}
            by_valuation = [seen.setdefault(s.valuation, len(seen)) for s in states]
            for initial in ([0] * n, by_valuation):
                assert (tuple(refinement_history(lts.transitions, initial))
                        == reference_refinement_history(n, rows, initial))
            exprs, _, closure, indices = expression_closure(spec, roots)
            ref_exprs, _, ref_rows, ref_indices = reference_closure(spec, roots)
            assert tuple(exprs) == ref_exprs and indices == ref_indices
            assert [closure.successors(e) for e in range(len(exprs))] == ref_rows
            initial = [0] * len(exprs)
            assert (tuple(refinement_history(closure, initial))
                    == reference_refinement_history(len(exprs), ref_rows, initial))


class TestSequenceView:
    """The store read in source order: iteration, ``len`` and
    ``successors``."""

    def test_reads_as_the_tuple_of_triples(self, traffic):
        transitions = generate_lts(*traffic).transitions
        triples = tuple(transitions)
        assert len(transitions) == len(triples) == 9
        assert triples == tuple((src, label, dst) for src in range(6)
                                for label, dst in transitions.successors(src))
        assert tuple(pickle.loads(pickle.dumps(transitions))) == triples

    def test_len_and_index_make_no_triples(self, traffic, monkeypatch):
        transitions = generate_lts(*traffic).transitions
        last = tuple(transitions)[-1]
        monkeypatch.setattr(Transitions, "id_triples",
                            lambda self: pytest.fail("the triples were made"))
        assert len(transitions) == 9
        assert transitions.successors(last[0])[-1] == last[1:]

    def test_rows_of_states_without_moves(self):
        transitions = Transitions([[], [("a", 0), ("b", 2)], [], [("a", 3)], []])
        assert list(transitions) == [(1, "a", 0), (1, "b", 2), (3, "a", 3)]
        assert [transitions.successors(s) for s in range(5)] == [
            [], [("a", 0), ("b", 2)], [], [("a", 3)], []]
        assert transitions.labels == ("a", "b")
        empty = Transitions()
        assert len(empty) == 0 and list(empty) == []

    def test_lts_from_triples_in_any_source_order(self, traffic):
        """`lts_of`, which builds the tests' LTSs from triples, keeps each
        state's moves in the order given."""
        lts = generate_lts(*traffic)
        triples = list(lts.transitions)
        again = lts_of(lts.states, triples, lts.initial)
        assert export_lts(again) == export_lts(lts)
        shuffled = triples[::-1]
        built = lts_of(lts.states, shuffled, lts.initial)
        for i in range(len(lts.states)):
            assert built.successors(i) == [(label, dst) for src, label, dst
                                           in shuffled if src == i]
        assert sorted(built.transitions, key=repr) == sorted(triples, key=repr)


class _Discard:
    def write(self, text: str) -> int:
        return len(text)


# About 1.5x the peaks measured with the store on CPython 3.11 (0.84 MB for
# aut, 1.04 MB for dot); the row-list search with a joined export took
# 2.35 MB and 3.07 MB.
PEAK_BOUND_BYTES = {"aut": 1_300_000, "dot": 1_600_000}


@pytest.mark.parametrize("fmt", ["aut", "dot"])
def test_explore_and_export_memory_is_bounded(fmt):
    spec, init = parse_spec(worker_grid_text(5, 4))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        lts = generate_lts(spec, init)
        export_lts(lts, fmt, _Discard())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(lts.transitions) == 10240
    assert peak < PEAK_BOUND_BYTES[fmt], f"{peak} bytes"
