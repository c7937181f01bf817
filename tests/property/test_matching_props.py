"""Property-based tests for the matching function's contracts."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import candidate_pairs
from repro.core.heuristic import learn_bounded
from repro.core.hypothesis import Hypothesis
from repro.core.interning import task_table
from repro.core.matching import (
    allowed_pairs,
    find_explanation,
    first_assignment,
    matches_trace,
)
from repro.core.stats import CoExecutionStats
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.systems.random_gen import RandomDesignConfig, random_design

CONFIG = RandomDesignConfig(
    task_count=6, ecu_count=2, layer_count=3, disjunction_probability=0.3
)


def workload(seed: int, periods: int = 5):
    design = random_design(CONFIG, seed=seed)
    return Simulator(
        design, SimulatorConfig(period_length=130.0), seed=seed
    ).run(periods).trace


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 300))
def test_explanations_are_injective_and_candidate_consistent(seed):
    trace = workload(seed)
    model = learn_bounded(trace, 6).lub()
    for period in trace.periods:
        explanation = find_explanation(model, period)
        assert explanation is not None
        # Injective: one pair per message.
        assert len(set(explanation.values())) == len(explanation)
        # Each assignment lies within the message's temporal candidates
        # and is allowed by the model.
        for message in period.messages:
            pair = explanation[message.label]
            candidates = candidate_pairs(period, message)
            assert pair in candidates
            assert pair in allowed_pairs(model, candidates)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 300))
def test_matching_monotone_under_trace_truncation(seed):
    """A hypothesis matching a trace matches every prefix of it."""
    trace = workload(seed)
    model = learn_bounded(trace, 6).lub()
    assert matches_trace(model, trace)
    for count in range(1, len(trace)):
        assert matches_trace(model, trace.subtrace(count))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 300), st.integers(1, 8))
def test_lub_of_any_bound_matches(seed, bound):
    """The reported dLUB itself matches the trace (not just survivors)."""
    trace = workload(seed)
    result = learn_bounded(trace, bound)
    assert matches_trace(result.lub(), trace)


# ----------------------------------------------------------------------
# The matching kernel against the depth-first search it replaced
# ----------------------------------------------------------------------


def dfs_first_assignment(options):
    """The depth-first assignment search, kept as the oracle."""
    chosen = []
    used = 0

    def backtrack(position: int) -> bool:
        nonlocal used
        if position == len(options):
            return True
        for bit in options[position]:
            if used & bit:
                continue
            used |= bit
            chosen.append(bit)
            if backtrack(position + 1):
                return True
            used &= ~bit
            chosen.pop()
        return False

    if backtrack(0):
        return chosen
    return None


def dfs_find_explanation(function, period, tolerance=0.0):
    """``find_explanation`` as it was with the depth-first search."""
    table = task_table(function.tasks)
    messages = period.messages
    options = []
    for message in messages:
        permitted = allowed_pairs(
            function, candidate_pairs(period, message, tolerance)
        )
        if not permitted:
            return None
        options.append((message.label, permitted, table.bits_of(permitted)))
    # Most-constrained first keeps the backtracking shallow.
    options.sort(key=lambda item: len(item[1]))
    assignment = {}
    used = 0

    def backtrack(position: int) -> bool:
        nonlocal used
        if position == len(options):
            return True
        label, permitted, bits = options[position]
        for pair, bit in zip(permitted, bits):
            if used & bit:
                continue
            used |= bit
            assignment[label] = pair
            if backtrack(position + 1):
                return True
            used &= ~bit
            del assignment[label]
        return False

    if backtrack(0):
        return dict(assignment)
    return None


BIT = st.integers(0, 9).map(lambda index: 1 << index)
OPTIONS = st.lists(st.lists(BIT, unique=True, max_size=10), max_size=8)


@settings(max_examples=300, deadline=None)
@given(OPTIONS)
def test_first_assignment_equals_the_dfs(options):
    assert first_assignment(options) == dfs_first_assignment(options)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_first_assignment_equals_the_dfs_when_feasible(data):
    """Plant one distinct bit per position among random shared bits."""
    planted = data.draw(st.permutations(range(10)))[: data.draw(st.integers(0, 8))]
    options = []
    for index in planted:
        extra = data.draw(st.lists(BIT, unique=True, max_size=6))
        bits = [bit for bit in extra if bit != 1 << index]
        bits.insert(data.draw(st.integers(0, len(bits))), 1 << index)
        options.append(bits)
    expected = dfs_first_assignment(options)
    assert expected is not None
    assert first_assignment(options) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda bits: st.lists(
        st.lists(
            st.integers(0, bits - 1).map(lambda index: 1 << index),
            unique=True, max_size=bits,
        ),
        min_size=bits + 1, max_size=8,
    )
))
def test_first_assignment_is_none_with_more_positions_than_bits(options):
    assert dfs_first_assignment(options) is None
    assert first_assignment(options) is None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 300), st.randoms(use_true_random=False))
def test_find_explanation_equals_the_dfs_oracle(seed, rng):
    """On simulated periods, under the learned model and under a random
    restriction of it (which leaves some periods unexplainable)."""
    trace = workload(seed)
    model = learn_bounded(trace, 6).lub()
    stats = CoExecutionStats(trace.tasks)
    for period in trace.periods:
        stats.add_period(period.executed_tasks)
    kept = [
        (s, r)
        for s in trace.tasks
        for r in trace.tasks
        if s != r and model.value(s, r).has_forward and rng.random() < 0.8
    ]
    restricted = Hypothesis(kept).to_function(stats)
    for function in (model, restricted):
        for period in trace.periods:
            assert find_explanation(function, period) == dfs_find_explanation(
                function, period
            )
