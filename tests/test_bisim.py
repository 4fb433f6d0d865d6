import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import pytest

from conftest import TRAFFIC_TEXT
from genspecs import (
    gen_expr, gen_pair, gen_parseq_spec, gen_spec, ring_text, worker_grid_text,
)
from oracles import (
    naive_state_based_relation, naive_stateless_relation, naive_strong_relation,
    reference_refinement_history, related_pairs,
)

import gvpa.bisim
from gvpa.bisim import (
    distinguishing_formula_state_based, distinguishing_formula_stateless,
    refinement_history, state_based_bisim, state_based_bisim_on_lts,
    stateless_bisim, strong_bisim,
)
from gvpa.errors import ContractViolationError
from gvpa.hml import (
    Check, Diamond, TRUE, formula_str, fragment, holds,
)
from gvpa.parser import parse_spec
from gvpa.sos import ExplorationConfig, GvState, Transitions, explore
from gvpa.syntax import (
    Action, Choice, Cond, Deadlock, Encap, Parallel, Prefix, Valuation,
    enumerate_valuations,
)
from gvpa.translate import run_pipeline

CFG = ExplorationConfig(max_states=2000)
SRC = str(pathlib.Path(gvpa.bisim.__file__).resolve().parent.parent)


class TestStrong:
    def test_example3_plain_pair_bisimilar(self, example3):
        spec, p, q, _, v0 = example3
        lts, (si, ti) = explore(spec, [GvState(p, v0), GvState(q, v0)])
        assert strong_bisim(lts, si, ti).equivalent

    def test_example3_parallel_pair_not_bisimilar(self, example3):
        spec, p, q, r, v0 = example3
        lts, (si, ti) = explore(
            spec, [GvState(Parallel(p, r), v0), GvState(Parallel(q, r), v0)])
        assert not strong_bisim(lts, si, ti).equivalent

    def test_reflexive(self, traffic):
        spec, init = traffic
        lts, (si,) = explore(spec, [GvState(init.root, init.valuation)])
        assert strong_bisim(lts, si, si).equivalent

    def test_partition_is_a_partition(self, traffic):
        spec, init = traffic
        lts, (si,) = explore(spec, [GvState(init.root, init.valuation)])
        result = strong_bisim(lts, si, si)
        blocks: dict = {}
        for state, block in enumerate(result.history[-1]):
            blocks.setdefault(block, set()).add(state)
        assert set().union(*blocks.values()) == set(range(len(lts.states)))
        # the relation size (unordered pairs with repetition) is read off
        # the partition
        assert result.relation_size == sum(
            len(b) * (len(b) + 1) // 2 for b in blocks.values())


class TestStateBased:
    def test_example3_pair_bisimilar(self, example3):
        spec, p, q, _, v0 = example3
        assert state_based_bisim(spec, GvState(p, v0), GvState(q, v0)).equivalent

    def test_different_valuations_not_bisimilar(self, example3):
        spec, p, q, _, v0 = example3
        v1 = Valuation((("v", "1"),))
        assert not state_based_bisim(spec, GvState(p, v0),
                                     GvState(q, v1)).equivalent

    def test_example3_parallel_pair(self, example3):
        spec, p, q, r, v0 = example3
        assert not state_based_bisim(spec, GvState(Parallel(p, r), v0),
                                     GvState(Parallel(q, r), v0)).equivalent

    def test_seeded_from_valuation_codes_without_building_states(self):
        """The initial partition reads each explored key's valuation code,
        so the check builds no term: in a fresh interpreter, where no
        R(3,4) state was built before, `Parallel`'s intern table keeps its
        size. ``history[0]`` numbers the valuations by first occurrence."""
        code = f"""
from gvpa.bisim import state_based_bisim_on_lts
from gvpa.parser import parse_spec
from gvpa.sos import GvState, explore
from gvpa.syntax import Parallel
spec, init = parse_spec({ring_text(3, 4)!r})
lts, _ = explore(spec, [GvState(init.root, init.valuation)])
before = len(Parallel._table)
result = state_based_bisim_on_lts(lts, 0, 0)
assert len(Parallel._table) == before, (before, len(Parallel._table))
seen = {{}}
assert result.history[0] == tuple(
    seen.setdefault(state.valuation, len(seen)) for state in lts.states)
assert len(Parallel._table) > before
print(len(lts.states))
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "128\n"

    def test_related_pairs_have_equal_valuations(self, example3):
        spec, p, q, _, v0 = example3
        result = state_based_bisim(spec, GvState(p, v0), GvState(q, v0))
        for a, b in related_pairs(result):
            assert a.valuation == b.valuation


class TestStateless:
    def test_paper_pair_not_stateless(self, example3):
        spec, p, q, _, _ = example3
        assert not stateless_bisim(spec, p, q).equivalent

    def test_reflexive(self, example3):
        spec, p, _, _, _ = example3
        assert stateless_bisim(spec, p, p).equivalent

    def test_idempotent_choice(self, example3):
        spec, _, q, _, _ = example3
        assert stateless_bisim(spec, Choice(q, q), q).equivalent


class TestDistinguishingStateless:
    def test_paper_formula_at_pinned_valuation(self, example3):
        spec, p, q, _, v0 = example3
        formula, witness = distinguishing_formula_stateless(
            stateless_bisim(spec, q, p), at=v0)
        assert witness == v0
        assert formula_str(formula) == "set v := 1 . <a> true"

    def test_trivial_empty_refutation(self, example3):
        spec, _, q, _, _ = example3
        formula, witness = distinguishing_formula_stateless(
            stateless_bisim(spec, q, Deadlock()))
        assert formula == Diamond(frozenset({Action("a")}), TRUE)

    def test_assign_pair_recheck(self, example3):
        spec, *_ = example3
        from gvpa.parser import parse_expr
        p = parse_expr("assign(v, 0).delta", spec)
        q = parse_expr("assign(v, 1).delta", spec)
        formula, witness = distinguishing_formula_stateless(
            stateless_bisim(spec, p, q))
        assert holds(spec, GvState(p, witness), formula)
        assert not holds(spec, GvState(q, witness), formula)

    def test_rejects_bisimilar_pair(self, example3):
        spec, p, _, _, _ = example3
        with pytest.raises(ContractViolationError):
            distinguishing_formula_stateless(stateless_bisim(spec, p, p))

    def test_rejects_result_of_another_mode(self, example3):
        spec, p, q, _, v0 = example3
        result = state_based_bisim(spec, GvState(p, v0), GvState(Deadlock(), v0))
        assert not result.equivalent
        with pytest.raises(ContractViolationError):
            distinguishing_formula_stateless(result)

    def test_fragment_is_check_set(self, example3):
        spec, p, q, _, v0 = example3
        formula, _ = distinguishing_formula_stateless(
            stateless_bisim(spec, q, p), at=v0)
        assert fragment(formula) in ("HML", "HML^set", "HML^check",
                                     "HML^check+set")


class TestDistinguishingStateBased:
    def test_example3_parallel_pair_recheck(self, example3):
        spec, p, q, r, v0 = example3
        s = GvState(Parallel(p, r), v0)
        t = GvState(Parallel(q, r), v0)
        formula = distinguishing_formula_state_based(state_based_bisim(spec, s, t))
        assert fragment(formula) in ("HML", "HML^check")
        assert holds(spec, s, formula) != holds(spec, t, formula)
        # the construction puts the satisfied side first
        assert holds(spec, s, formula)

    def test_root_valuation_split_gives_bare_check(self, example3):
        spec, p, _, _, v0 = example3
        v1 = Valuation((("v", "1"),))
        formula = distinguishing_formula_state_based(
            state_based_bisim(spec, GvState(p, v0), GvState(p, v1)))
        assert formula == Check("v", "0")

    def test_deadlock_pair(self, example3):
        spec, _, q, _, v0 = example3
        formula = distinguishing_formula_state_based(
            state_based_bisim(spec, GvState(q, v0), GvState(Deadlock(), v0)))
        assert formula == Diamond(frozenset({Action("a")}), TRUE)

    def test_rejects_bisimilar_pair(self, example3):
        spec, p, q, _, v0 = example3
        with pytest.raises(ContractViolationError):
            distinguishing_formula_state_based(
                state_based_bisim(spec, GvState(p, v0), GvState(q, v0)))

    def test_rejects_result_of_another_mode(self, example3):
        spec, p, q, _, _ = example3
        result = stateless_bisim(spec, p, q)
        assert not result.equivalent
        with pytest.raises(ContractViolationError):
            distinguishing_formula_state_based(result)


class TestHierarchyAndCongruence:
    def test_stateless_implies_state_based_small_corpus(self):
        rng = random.Random(101)
        for _ in range(25):
            spec = gen_spec(rng)
            p, q = gen_pair(rng, spec)
            if stateless_bisim(spec, p, q, CFG).equivalent:
                for valuation in enumerate_valuations(spec):
                    assert state_based_bisim(
                        spec, GvState(p, valuation), GvState(q, valuation),
                        CFG).equivalent

    def test_state_based_implies_strong(self):
        rng = random.Random(102)
        for _ in range(25):
            spec = gen_spec(rng)
            p, q = gen_pair(rng, spec)
            valuation = enumerate_valuations(spec)[0]
            s, t = GvState(p, valuation), GvState(q, valuation)
            if state_based_bisim(spec, s, t, CFG).equivalent:
                lts, (si, ti) = explore(spec, [s, t], CFG)
                assert strong_bisim(lts, si, ti).equivalent

    def test_congruence_counterexample_pattern(self, example3):
        spec, p, q, r, v0 = example3
        lts, (si, ti) = explore(spec, [GvState(p, v0), GvState(q, v0)])
        assert strong_bisim(lts, si, ti).equivalent
        lts2, (s2, t2) = explore(
            spec, [GvState(Parallel(p, r), v0), GvState(Parallel(q, r), v0)])
        assert not strong_bisim(lts2, s2, t2).equivalent

    def test_stateless_is_congruence_on_random_contexts(self):
        rng = random.Random(103)
        checked = 0
        attempts = 0
        while checked < 12 and attempts < 200:
            attempts += 1
            spec = gen_spec(rng)
            p, q = gen_pair(rng, spec)
            try:
                if not stateless_bisim(spec, p, q, CFG).equivalent:
                    continue
            except Exception:
                continue
            parts = (spec.actions, spec.variables, spec.domain.values)
            hole_side = gen_expr(rng, parts, 2, False, spec.process_names)
            wrappers = [
                lambda e: Prefix(Action(spec.actions[0]), e),
                lambda e: Choice(e, hole_side),
                lambda e: Parallel(hole_side, e),
                lambda e: Cond(spec.variables[0], spec.domain.values[0], e),
                lambda e: Encap(frozenset({spec.actions[0]}), e),
            ]
            wrap = wrappers[rng.randrange(len(wrappers))]
            assert stateless_bisim(spec, wrap(p), wrap(q), CFG).equivalent
            checked += 1
        assert checked == 12


class TestNaiveOracleAgreement:
    def test_strong_matches_naive(self):
        rng = random.Random(104)
        for _ in range(15):
            spec = gen_spec(rng)
            p, q = gen_pair(rng, spec)
            valuation = enumerate_valuations(spec)[0]
            lts, (si, ti) = explore(
                spec, [GvState(p, valuation), GvState(q, valuation)], CFG)
            if len(lts.states) > 30:
                continue
            naive = naive_strong_relation(lts)
            result = strong_bisim(lts, si, ti)
            final = result.history[-1]
            for i in range(len(lts.states)):
                for j in range(len(lts.states)):
                    assert ((i, j) in naive) == (final[i] == final[j])

    def test_state_based_matches_naive(self):
        rng = random.Random(105)
        for _ in range(15):
            spec = gen_spec(rng)
            p, q = gen_pair(rng, spec)
            valuation = enumerate_valuations(spec)[0]
            result = state_based_bisim(spec, GvState(p, valuation),
                                       GvState(q, valuation), CFG)
            if len(result.states) > 30:
                continue
            naive = naive_state_based_relation(result)
            final = result.history[-1]
            for i in range(len(result.states)):
                for j in range(len(result.states)):
                    assert ((i, j) in naive) == (final[i] == final[j])

    def test_stateless_matches_naive(self):
        rng = random.Random(106)
        for _ in range(15):
            spec = gen_spec(rng)
            p, q = gen_pair(rng, spec)
            result = stateless_bisim(spec, p, q, CFG)
            if len(result.states) > 30:
                continue
            naive = naive_stateless_relation(spec, result.states)
            final = result.history[-1]
            for i in range(len(result.states)):
                for j in range(len(result.states)):
                    assert ((i, j) in naive) == (final[i] == final[j])


def _results(spec, roots, valuation):
    """The strong, state-based and stateless results for roots under one
    valuation."""
    lts, _ = explore(spec, [GvState(root, valuation) for root in roots], CFG)
    return [strong_bisim(lts, 0, 0), state_based_bisim_on_lts(lts, 0, 0),
            stateless_bisim(spec, roots[0], roots[-1], CFG)]


def _seeded_cases():
    """(spec, roots, valuation) triples from both seeded corpora."""
    rng = random.Random(4242)
    cases = []
    for _ in range(12):
        spec = gen_spec(rng)
        cases.append((spec, gen_pair(rng, spec), rng.choice(enumerate_valuations(spec))))
    for n_vars in (1, 2) * 4:
        spec, root, valuation = gen_parseq_spec(rng, n_vars=n_vars)
        cases.append((spec, (root,), valuation))
    return cases


def _assert_same_history(n_states, adjacency, initial):
    expected = reference_refinement_history(n_states, adjacency, initial)
    assert tuple(refinement_history(Transitions(adjacency), initial)) == expected
    return expected


class TestRefinementAgainstReference:
    """`refinement_history` re-signs only the predecessors of states that
    moved; the full sweep of `reference_refinement_history` signs every
    state in every round. Every round of the two histories must agree,
    each built whole from the change log."""

    @staticmethod
    def _assert_matches(result):
        n = len(result.states)
        assert tuple(result.history) == reference_refinement_history(
            n, [result.successors(s) for s in range(n)], result.history[0])

    def test_seeded_corpora_in_all_three_modes(self):
        for spec, roots, valuation in _seeded_cases():
            for result in _results(spec, roots, valuation):
                self._assert_matches(result)

    @pytest.mark.parametrize("text", [
        TRAFFIC_TEXT, worker_grid_text(3, 3), ring_text(3, 4)],
        ids=["traffic", "W(3,3)", "R(3,4)"])
    def test_families_in_all_three_modes(self, text):
        spec, init = parse_spec(text)
        for result in _results(spec, (init.root,), init.valuation):
            self._assert_matches(result)

    def test_translated_systems(self, traffic):
        cases = [(traffic[0], traffic[1].root, traffic[1].valuation)]
        rng = random.Random(4243)
        cases += [gen_parseq_spec(rng, n_vars=n_vars) for n_vars in (1, 2, 1, 2)]
        for spec, root, valuation in cases:
            pipe = run_pipeline(spec, root, valuation, CFG)
            self._assert_matches(strong_bisim(pipe.m_lts, 0, 0))
            self._assert_matches(state_based_bisim_on_lts(pipe.gv_lts, 0, 0))

    def test_random_graphs_and_partitions(self):
        rng = random.Random(4244)
        for _ in range(300):
            n = rng.randint(0, 25)
            labels = "abc"[:rng.randint(1, 3)]
            adjacency = [[(rng.choice(labels), rng.randrange(n))
                          for _ in range(rng.randint(0, 3))] for _ in range(n)]
            initial = [rng.choice((7, 3, 11)) for _ in range(n)]
            _assert_same_history(n, adjacency, initial)
            _assert_same_history(n, adjacency, [0] * n)

    def test_chain_splits_one_state_per_round(self):
        n = 200
        adjacency = [[("a", s + 1)] for s in range(n - 1)] + [[]]
        history = _assert_same_history(n, adjacency, [0] * n)
        assert len(history) == n
        assert history[-1] == tuple(range(n))

    def test_non_canonical_initial_partition(self):
        adjacency = [[("a", 1)], [("b", 2)], [], [("a", 1)], [("b", 0)], []]
        history = _assert_same_history(6, adjacency, [9, 4, 9, 4, 2, 9])
        assert history[0] == (9, 4, 9, 4, 2, 9)
        assert history[1:] and history[1][0] == 0
        # no split at all: the history is the initial partition as given
        assert _assert_same_history(2, [[], []], [5, 3]) == ((5, 3),)

    def test_self_loops_duplicate_rows_and_empty_rows(self):
        adjacency = [
            [("a", 0)],                          # self-loop
            [("a", 1), ("a", 1)],                # self-loop, twice
            [("a", 3), ("a", 3), ("b", 2)],      # duplicate row and self-loop
            [],
            [("a", 3), ("b", 4)],
            [("b", 5), ("a", 3), ("a", 3)],
        ]
        history = _assert_same_history(6, adjacency, [0] * 6)
        final = history[-1]
        assert final[0] == final[1] and final[4] == final[5] == final[2]
        assert len(set(final)) == 3

    def test_no_states(self):
        assert _assert_same_history(0, [], []) == ((),)

    def test_tuple_labels_as_in_stateless_rows(self):
        a, b = Action("a"), Action("b")
        adjacency = [[((0, a, 1), 1)], [((1, b, 0), 0), ((0, a, 1), 1)],
                     [((0, a, 1), 2)], [((0, Action("a"), 1), 2), ((1, b, 0), 3)]]
        _assert_same_history(4, adjacency, [0] * 4)


class TestLabelOrderedSignatures:
    """A row whose labels are distinct signs with its targets' blocks in
    label order; a row that repeats a label signs from its deduplicated
    (label, block) pairs. Hand-made stores with rows of each kind, against
    the full-sweep reference round by round."""

    def test_repeated_label_into_one_block_signs_as_one_move(self):
        adjacency = [
            [("a", 1), ("a", 2)],            # 1 and 2 are bisimilar
            [("b", 1)],
            [("b", 2)],
            [("a", 1)],
            [("a", 2), ("a", 1), ("a", 2)],
        ]
        final = _assert_same_history(5, adjacency, [0] * 5)[-1]
        assert final[0] == final[3] == final[4]
        assert final[1] == final[2] != final[0]

    def test_repeated_label_into_two_blocks(self):
        adjacency = [
            [("a", 1), ("a", 2)],            # 1 and 2 are not bisimilar
            [("b", 1)],
            [],
            [("a", 2), ("a", 1)],
            [("a", 1)],
            [("a", 1), ("a", 2), ("a", 1)],
            [("b", 2), ("a", 1), ("a", 2)],  # a label still repeats after dedup
            [("a", 2), ("b", 2), ("a", 1), ("a", 1)],
            [("b", 2), ("a", 1)],
        ]
        final = _assert_same_history(9, adjacency, [0] * 9)[-1]
        assert final[0] == final[3] == final[5] != final[4]
        assert final[6] == final[7] != final[8]
        assert len({final[0], final[4], final[6], final[8]}) == 4

    def test_rows_without_moves(self):
        adjacency = [[], [("a", 0)], [], [("a", 2)], [("a", 1)]]
        final = _assert_same_history(5, adjacency, [0] * 5)[-1]
        assert final[0] == final[2] and final[1] == final[3] != final[4]
        assert _assert_same_history(3, [[], [], []], [0, 1, 0]) == ((0, 1, 0),)

    def test_equal_label_sets_in_different_orders(self):
        adjacency = [
            [("a", 1), ("b", 2), ("c", 3)],
            [],
            [("d", 2)],
            [("e", 3)],
            [("c", 3), ("a", 1), ("b", 2)],
            [("b", 2), ("c", 3), ("a", 1)],
            [("a", 2), ("b", 1), ("c", 3)],  # a and b swap blocks: not equal
            [("b", 1), ("c", 3), ("a", 2)],
        ]
        final = _assert_same_history(8, adjacency, [0] * 8)[-1]
        assert final[0] == final[4] == final[5] != final[6]
        assert final[6] == final[7]
        # the first row seen need not be the one in label order
        _assert_same_history(8, adjacency[::-1], [0] * 8)


class TestRowOrder:
    """The moves of a row may be stored in any order: shuffling them within
    each row keeps every round of the history, which equals the reference."""

    @staticmethod
    def _assert_order_free(result, rng):
        n = len(result.states)
        rows = [result.successors(s) for s in range(n)]
        initial = result.history[0]
        expected = reference_refinement_history(n, rows, initial)
        assert tuple(result.history) == expected
        for _ in range(3):
            shuffled = [rng.sample(row, len(row)) for row in rows]
            assert tuple(refinement_history(Transitions(shuffled), initial)) == expected

    def test_ring_stores(self):
        spec, init = parse_spec(ring_text(3, 6))
        lts, _ = explore(spec, [GvState(init.root, init.valuation)], CFG)
        rng = random.Random(4245)
        self._assert_order_free(stateless_bisim(spec, init.root, init.root, CFG), rng)
        self._assert_order_free(strong_bisim(lts, 0, 0), rng)

    def test_seeded_corpora_in_all_three_modes(self):
        rng = random.Random(4246)
        for spec, roots, valuation in _seeded_cases():
            for result in _results(spec, roots, valuation):
                self._assert_order_free(result, rng)




def _chain_store(n):
    """The store of ``P0 -a-> P1 -a-> ... -a-> P(n-1)``."""
    return Transitions([[("a", s + 1)] for s in range(n - 1)] + [[]])


class TestRefinementWork:
    """After round 1 only the predecessors of moved states are signed
    again, so a refinement signs fewer than the ``(rounds + 1) * n``
    states of full sweeps. The kernel counts the states it signs on the
    history it returns."""

    def test_stateless_ring_signs_less_than_full_sweeps(self):
        spec, init = parse_spec(ring_text(3, 6))
        result = stateless_bisim(spec, init.root, init.root, CFG)
        n = len(result.states)
        assert result.rounds >= 2
        assert n <= result.history.signed < (result.rounds + 1) * n

    def test_chain_signs_each_state_about_twice_and_logs_one_move_a_round(self):
        n = 500
        history = refinement_history(_chain_store(n), [0] * n)
        assert len(history) == n
        # round 1 signs every state, each later round, and the last that
        # moves none, the one predecessor of the state moved before
        assert history.signed == 2 * n - 1
        assert list(history.ends) == list(range(n))
        assert sorted(history.moved) == list(range(1, n))


class TestChangeLog:
    """The history logs the moves of each round instead of keeping each
    round whole, so a chain's refinement holds memory linear in its
    length, and `_rank` and `_in_relation` read the log by bisection."""

    @staticmethod
    def _held(n):
        store = _chain_store(n)
        tracemalloc.start()
        try:
            history = refinement_history(store, [0] * n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(history) == n
        return peak

    def test_chain_memory_grows_linearly(self):
        # a first run also fills the interpreter's free lists, which a
        # tracer counts as held
        self._held(2001)
        assert self._held(2001) <= 2.2 * self._held(1001)

    def test_rank_and_relation_equal_their_values_on_whole_rounds(self):
        for spec, roots, valuation in _seeded_cases():
            for result in _results(spec, roots, valuation):
                rounds = tuple(result.history)
                n = len(result.states)
                for s in range(n):
                    for t in range(n):
                        apart = [k for k, blocks in enumerate(rounds)
                                 if blocks[s] != blocks[t]]
                        assert gvpa.bisim._rank(result.history, s, t) == (
                            apart[0] if apart else None)
                        for level in range(len(rounds) + 1):
                            blocks = rounds[min(level, len(rounds) - 1)]
                            assert gvpa.bisim._in_relation(
                                result.history, s, t, level) == (blocks[s] == blocks[t])

    @pytest.mark.parametrize("text", [ring_text(3, 4), worker_grid_text(3, 3)],
                             ids=["R(3,4)", "W(3,3)"])
    def test_what_the_benchmark_and_the_translation_read(self, text):
        """``len(history) - 1`` is the rounds count that the benchmark
        records as ``bisim.rounds``, and ``history[-1]`` is the final
        partition in first-occurrence numbering: ``history.final``
        renumbered, and the last round built from the log. The grid's
        state-based check stops after one signing round with no split."""
        spec, init = parse_spec(text)
        for result in _results(spec, (init.root,), init.valuation):
            history = refinement_history(result.adjacency, result.history[0])
            assert len(history) - 1 == result.rounds == len(result.history) - 1
            first: dict = {}
            numbered = tuple(first.setdefault(b, len(first)) for b in history.final)
            assert history[-1] == numbered == tuple(history)[-1]
            assert result.history[-1] == numbered
