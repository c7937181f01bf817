"""Unit tests for the matching function M (paper Definition 3)."""

import signal
import time

import pytest

from repro.core.depfunc import DependencyFunction
from repro.core.heuristic import BoundedLearner
from repro.core.lattice import (
    DEPENDS,
    DETERMINES,
    MAY_DEPEND,
    MAY_DETERMINE,
)
from repro.core.matching import (
    allowed_pairs,
    certain_relations_hold,
    find_explanation,
    first_assignment,
    matches_period,
    matches_trace,
)
from repro.trace.synthetic import build_period, build_trace, paper_figure2_trace

TASKS = ("a", "b", "c")


def function(entries):
    return DependencyFunction(TASKS, entries)


def simple_period():
    return build_period(
        [("a", 0.0, 1.0), ("b", 2.0, 3.0)], [("m", 1.1, 1.5)]
    )


class TestCertainRelations:
    def test_certain_violated_by_absence(self):
        f = function({("a", "c"): DETERMINES, ("c", "a"): DEPENDS})
        assert not certain_relations_hold(f, simple_period())

    def test_certain_holds_when_both_run(self):
        f = function({("a", "b"): DETERMINES, ("b", "a"): DEPENDS})
        assert certain_relations_hold(f, simple_period())

    def test_probable_never_violated(self):
        f = function({("a", "c"): MAY_DETERMINE, ("c", "a"): MAY_DEPEND})
        assert certain_relations_hold(f, simple_period())

    def test_vacuous_when_antecedent_absent(self):
        f = function({("c", "a"): DETERMINES})
        # c does not run, so "c determines a" is unfalsified.
        assert certain_relations_hold(f, simple_period())


class TestExplanation:
    def test_allowed_pairs_filters_by_forward(self):
        f = function({("a", "b"): DETERMINES, ("b", "a"): DEPENDS})
        assert allowed_pairs(f, [("a", "b"), ("b", "a")]) == (("a", "b"),)

    def test_explanation_found(self):
        f = function({("a", "b"): DETERMINES, ("b", "a"): DEPENDS})
        explanation = find_explanation(f, simple_period())
        assert explanation == {"m": ("a", "b")}

    def test_no_explanation_without_allowed_pair(self):
        f = function({})  # everything parallel: nothing may carry a message
        assert find_explanation(f, simple_period()) is None

    def test_distinctness_forces_failure(self):
        # Two messages, but only one allowed pair.
        period = build_period(
            [("a", 0.0, 1.0), ("b", 2.0, 3.0)],
            [("m1", 1.1, 1.3), ("m2", 1.4, 1.6)],
        )
        f = function({("a", "b"): DETERMINES, ("b", "a"): DEPENDS})
        assert find_explanation(f, period) is None

    def test_distinctness_satisfied_with_two_pairs(self):
        period = build_period(
            [("a", 0.0, 1.0), ("b", 2.0, 3.0), ("c", 4.0, 5.0)],
            [("m1", 1.1, 1.3), ("m2", 1.4, 1.6)],
        )
        f = function(
            {
                ("a", "b"): MAY_DETERMINE,
                ("b", "a"): MAY_DEPEND,
                ("a", "c"): MAY_DETERMINE,
                ("c", "a"): MAY_DEPEND,
            }
        )
        explanation = find_explanation(f, period)
        assert explanation is not None
        assert set(explanation.values()) == {("a", "b"), ("a", "c")}

    def test_empty_period_trivially_explained(self):
        period = build_period([("a", 0.0, 1.0)], [])
        assert find_explanation(function({}), period) == {}


class TestMatches:
    def test_matches_period(self):
        f = function({("a", "b"): DETERMINES, ("b", "a"): DEPENDS})
        assert matches_period(f, simple_period())

    def test_matches_trace_all_periods(self):
        trace = build_trace(
            TASKS,
            [
                ([("a", 0.0, 1.0), ("b", 2.0, 3.0)], [("m", 1.1, 1.5)]),
                ([("a", 10.0, 11.0), ("b", 12.0, 13.0)], [("m", 11.1, 11.5)]),
            ],
        )
        good = function({("a", "b"): DETERMINES, ("b", "a"): DEPENDS})
        assert matches_trace(good, trace)
        assert not matches_trace(function({}), trace)

    def test_paper_results_match_paper_trace(self, paper_exact_result, paper_trace):
        for learned in paper_exact_result.functions:
            assert matches_trace(learned, paper_trace)

    def test_paper_lub_matches_paper_trace(self, paper_exact_result, paper_trace):
        assert matches_trace(paper_exact_result.lub(), paper_trace)


# ----------------------------------------------------------------------
# Worst cases: shapes on which a depth-first assignment search is
# factorial. Each call must finish in under 10 ms.
# ----------------------------------------------------------------------


def allowing(pairs):
    """A function permitting exactly *pairs* (as possible arrows)."""
    tasks = sorted({task for pair in pairs for task in pair})
    entries = {}
    for sender, receiver in pairs:
        entries[(sender, receiver)] = MAY_DETERMINE
        entries[(receiver, sender)] = MAY_DEPEND
    return DependencyFunction(tuple(tasks), entries)


def one_receiver(k):
    """k senders, one receiver, k + 1 messages: no assignment exists.

    Every message may take every ``s_i -> r`` pair, but there are only k.
    """
    senders = [f"s{i:02d}" for i in range(k)]
    period = build_period(
        [(s, float(i), i + 0.5) for i, s in enumerate(senders)]
        + [("r", 3.0 * k + 10, 3.0 * k + 11)],
        [(f"m{j:02d}", k + 2.0 * j, k + 2.0 * j + 1) for j in range(k + 1)],
    )
    return allowing([(s, "r") for s in senders]), period


def one_receiver_history(k):
    """The same shape as a repair history of pair bits."""
    return [[1 << i for i in range(k)] for _ in range(k + 1)]


def dead_end(k):
    """A feasible period whose preferred early choices strand the tail.

    k head messages may each take any ``a_j -> r`` or their own
    ``u_i -> w_i``; k + 1 tail messages may take any ``a_j -> r`` or
    ``v -> r``. Option lists are equally long, so the head comes first,
    and it prefers the ``a_j`` pairs: every such choice leaves the tail
    with fewer pairs than messages (Hall's condition fails). The only
    assignment gives each head message its own pair.
    """
    tasks = [(f"a{j:02d}", 0.0, 1.0) for j in range(k)]
    head = []
    for i in range(k):
        base = 10.0 * (i + 1)
        tasks.append((f"u{i:02d}", base, base + 1))
        tasks.append((f"w{i:02d}", base + 4, base + 5))
        head.append((f"h{i:02d}", base + 2, base + 3))
    start = 10.0 * (k + 2)
    tasks.append(("v", start - 2, start - 1))
    tail = [(f"t{j:02d}", start + 2 * j, start + 2 * j + 1) for j in range(k + 1)]
    tasks.append(("r", start + 2 * k + 5, start + 2 * k + 6))
    pairs = (
        [(f"a{j:02d}", "r") for j in range(k)]
        + [(f"u{i:02d}", f"w{i:02d}") for i in range(k)]
        + [("v", "r")]
    )
    return allowing(pairs), build_period(tasks, head + tail)


def dead_end_history(k):
    """The same shape as a repair history: bits a_j, then x_i, then y."""
    shared = [1 << j for j in range(k)]
    head = [shared + [1 << (k + i)] for i in range(k)]
    tail = [shared + [1 << (2 * k)] for _ in range(k + 1)]
    return head + tail


def fastest(call, repeats=3):
    """The best wall time of *call*, which may not hang the suite.

    A SIGALRM after two seconds turns a runaway search into a failure.
    """

    def expire(signum, frame):
        raise TimeoutError("assignment search did not finish in 2 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(2)
    try:
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            result = call()
            best = min(best, time.perf_counter() - started)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return best, result


class TestWorstCase:
    @pytest.mark.parametrize("k", [9, 40])
    def test_one_receiver_explanation(self, k):
        f, period = one_receiver(k)
        seconds, explanation = fastest(lambda: find_explanation(f, period))
        assert explanation is None
        assert seconds < 0.010

    @pytest.mark.parametrize("k", [9, 40])
    def test_one_receiver_repair(self, k):
        history = one_receiver_history(k)
        seconds, repaired = fastest(
            lambda: BoundedLearner._reassign_period(0, history)
        )
        assert repaired is None
        assert seconds < 0.010

    def test_dead_end_explanation(self):
        k = 9
        f, period = dead_end(k)
        seconds, explanation = fastest(lambda: find_explanation(f, period))
        assert seconds < 0.010
        expected = {f"h{i:02d}": (f"u{i:02d}", f"w{i:02d}") for i in range(k)}
        expected.update({f"t{j:02d}": (f"a{j:02d}", "r") for j in range(k)})
        expected[f"t{k:02d}"] = ("v", "r")
        assert explanation == expected

    def test_dead_end_repair(self):
        k = 9
        history = dead_end_history(k)
        seconds, repaired = fastest(
            lambda: BoundedLearner._reassign_period(0, history)
        )
        assert seconds < 0.010
        every = (1 << (2 * k + 1)) - 1
        assert repaired == (every, every)

    def test_first_assignment_takes_the_dfs_answer_on_the_dead_end(self):
        k = 9
        chosen = first_assignment(dead_end_history(k))
        assert chosen == [1 << (k + i) for i in range(k)] + [
            1 << j for j in range(k)
        ] + [1 << (2 * k)]
