"""The exact learner against the string reference, and its mask helpers.

:class:`~repro.core.exact.ExactLearner` never builds the paper's working
set: it enumerates each period's reachable assignments once and counts
the product with the survivors. Every paper quantity must still equal
what :func:`~repro.core.reference.learn_exact_reference` reports — the
surviving hypotheses, their functions and LUB, the message count, the
peak working-set size, and the message at which the ``max_hypotheses``
cap trips.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import batch
from repro.core.batch import (
    batch_cleared_counts,
    batch_minimal_products,
    batch_remove_redundant_masks,
)
from repro.core.checkpoint import checkpoint_from_dict, checkpoint_to_dict
from repro.core.exact import ExactLearner, learn_exact
from repro.core.reference import ReferenceExactLearner, learn_exact_reference
from repro.errors import EmptyHypothesisSpaceError, LearningError
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.systems.examples import pipeline_design
from repro.systems.random_gen import RandomDesignConfig, random_design

DATA = Path(__file__).resolve().parents[1] / "data"

SMALL = RandomDesignConfig(
    task_count=5,
    ecu_count=2,
    layer_count=3,
    extra_edge_probability=0.15,
    disjunction_probability=0.3,
)

#: Nine tasks: 81 ordered pairs, so masks need two 64-bit words.
WIDE = RandomDesignConfig(
    task_count=9,
    ecu_count=3,
    layer_count=4,
    extra_edge_probability=0.1,
    disjunction_probability=0.2,
)


def simulated(config, seed: int, periods: int):
    design = random_design(config, seed=seed)
    simulator = Simulator(
        design, SimulatorConfig(period_length=120.0), seed=seed
    )
    return simulator.run(periods).trace


def canonical(masks):
    return sorted(masks, key=lambda mask: (mask.bit_count(), mask))


def assert_same_as_reference(result, reference):
    assert [h.pairs for h in result.hypotheses] == [
        h.pairs for h in reference.hypotheses
    ]
    assert result.functions == reference.functions
    assert result.lub() == reference.lub()
    assert result.peak_hypotheses == reference.peak_hypotheses
    assert result.messages == reference.messages
    assert result.periods == reference.periods


def learn_both(trace, cap: int = 50_000):
    """Both learners' results, or ``None`` when both hit the same error."""
    try:
        reference = learn_exact_reference(trace, max_hypotheses=cap)
    except (LearningError, EmptyHypothesisSpaceError) as error:
        with pytest.raises(type(error)) as raised:
            learn_exact(trace, max_hypotheses=cap)
        assert str(raised.value) == str(error)
        return None
    return learn_exact(trace, max_hypotheses=cap), reference


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1000), st.integers(1, 5))
def test_exact_learner_equals_reference(seed, periods):
    outcome = learn_both(simulated(SMALL, seed, periods))
    if outcome is not None:
        assert_same_as_reference(*outcome)


@pytest.mark.parametrize(
    "periods,seed", [(2, 53), (2, 58), (2, 293), (3, 80), (3, 252), (3, 383)]
)
def test_exact_learner_equals_reference_past_64_pair_bits(periods, seed):
    trace = simulated(WIDE, seed, periods)
    learner = ExactLearner(trace.tasks, max_hypotheses=20_000)
    learner.feed_trace(trace)
    assert max(mask.bit_length() for mask in learner._masks) > 64
    reference = learn_exact_reference(trace, max_hypotheses=20_000)
    assert_same_as_reference(learner.result(), reference)


def test_pipeline_design_matches_reference_exactly():
    """The benchmark's shape: a converged survivor set over many periods,
    so most messages skip the exact count."""
    trace = Simulator(
        pipeline_design(5), SimulatorConfig(period_length=100.0), seed=11
    ).run(12).trace
    assert_same_as_reference(learn_exact(trace), learn_exact_reference(trace))


def test_without_numpy_the_set_forms_give_the_same_result(monkeypatch):
    trace = Simulator(
        pipeline_design(4), SimulatorConfig(period_length=100.0), seed=5
    ).run(6).trace
    monkeypatch.setattr(batch, "np", None)
    assert_same_as_reference(learn_exact(trace), learn_exact_reference(trace))


def test_cap_trips_at_the_reference_message_and_rolls_back():
    trace = Simulator(
        pipeline_design(5), SimulatorConfig(period_length=100.0), seed=11
    ).run(6).trace
    peak = learn_exact_reference(trace).peak_hypotheses
    cap = peak - 1
    learner = ExactLearner(trace.tasks, max_hypotheses=cap)
    reference = ReferenceExactLearner(trace.tasks, max_hypotheses=cap)
    tripped = None
    for period in trace.periods:
        try:
            reference.feed(period)
        except LearningError as error:
            tripped = str(error)
            saved = checkpoint_to_dict(learner)
            with pytest.raises(LearningError) as raised:
                learner.feed(period)
            assert str(raised.value) == tripped
            # Rolled back: the state is the pre-call state (the stats
            # version is a change counter, so the undo advances it) ...
            after = checkpoint_to_dict(learner)
            for state in (saved, after):
                state.pop("elapsed"), state["stats"].pop("version")
            assert after == saved
            # ... and the learner keeps feeding once the cap allows it.
            learner.max_hypotheses = reference.max_hypotheses = peak
            reference.feed(period)
            learner.feed(period)
        else:
            learner.feed(period)
        assert learner._messages == reference._messages
        assert learner._peak == reference._peak
    assert tripped is not None
    assert_same_as_reference(learner.result(), reference.result())


def test_empty_assignment_set_raises_empty_space():
    from repro.trace.events import Event, EventKind
    from repro.trace.period import Period

    period = Period([
        Event(0.0, EventKind.TASK_START, "a"),
        Event(1.0, EventKind.TASK_END, "a"),
        Event(50.0, EventKind.MSG_RISE, "m"),
        Event(50.5, EventKind.MSG_FALL, "m"),
    ])
    learner = ExactLearner(["a", "b"])
    with pytest.raises(EmptyHypothesisSpaceError):
        learner.feed(period)
    assert learner._masks == [0] and learner._periods == 0


# ----------------------------------------------------------------------
# Canonical survivor order and checkpoints
# ----------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(st.integers(0, 1000))
def test_survivors_are_kept_in_canonical_order(seed):
    trace = simulated(SMALL, seed, 3)
    learner = ExactLearner(trace.tasks, max_hypotheses=50_000)
    try:
        learner.feed_trace(trace)
    except LearningError:
        return
    assert learner._masks == canonical(set(learner._masks))
    restored = checkpoint_from_dict(checkpoint_to_dict(learner))
    assert restored._masks == learner._masks


def test_checkpoint_from_parent_format_resumes_to_same_result():
    """A checkpoint saved before survivors were kept in canonical order
    (set-iteration order) still loads, and resumes to the same model."""
    with open(DATA / "exact_checkpoint_v1.json", "r", encoding="utf-8") as f:
        data = json.load(f)
    trace = Simulator(
        pipeline_design(4), SimulatorConfig(period_length=100.0), seed=3
    ).run(8).trace
    resumed = checkpoint_from_dict(data)
    assert isinstance(resumed, ExactLearner)
    assert resumed._masks == canonical(resumed._masks)
    stored = [sorted(map(tuple, pairs)) for pairs in data["hypotheses"]]
    assert sorted(stored) == sorted(
        sorted(h.pairs) for h in resumed._hypotheses
    )
    resumed.feed_trace(trace.periods[4:])
    whole = learn_exact_reference(trace)
    result = resumed.result()
    assert [h.pairs for h in result.hypotheses] == [
        h.pairs for h in whole.hypotheses
    ]
    assert result.lub() == whole.lub()
    assert result.messages == whole.messages
    assert result.peak_hypotheses == whole.peak_hypotheses


# ----------------------------------------------------------------------
# Mask helpers
# ----------------------------------------------------------------------

def quadratic_minimal(masks):
    """The textbook loop: keep masks no other kept mask is a subset of."""
    minimal = []
    for candidate in canonical(set(masks)):
        if not any(kept & candidate == kept for kept in minimal):
            minimal.append(candidate)
    return minimal


def random_masks(rng, width: int, count: int, density: float):
    return [
        sum(1 << bit for bit in range(width) if rng.random() < density)
        for _ in range(count)
    ]


@pytest.mark.parametrize("width", [6, 25, 64, 65, 130, 200])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_levelwise_minimality_matches_quadratic_loop(width, seed, monkeypatch):
    rng = random.Random(seed * 1000 + width)
    masks = random_masks(rng, width, 300, rng.choice([0.1, 0.3, 0.6]))
    masks += masks[:20]  # duplicates
    expected = quadratic_minimal(masks)
    assert batch_remove_redundant_masks(masks) == expected
    # Tiny blocks: the chunked subset test must not change the answer.
    monkeypatch.setattr(batch, "BLOCK_CELLS", 7)
    assert batch_remove_redundant_masks(masks) == expected


@pytest.mark.parametrize("width", [20, 64, 100])
def test_minimal_products_match_set_product(width, monkeypatch):
    rng = random.Random(width)
    survivors = quadratic_minimal(random_masks(rng, width, 40, 0.15))
    assignments = random_masks(rng, width, 30, 0.05)
    expected = quadratic_minimal({s | p for p in assignments for s in survivors})
    assert batch_minimal_products(survivors, assignments) == expected
    # Blocks of a few assignments: minimal of the blocks' minimal elements.
    monkeypatch.setattr(batch, "BLOCK_CELLS", 100)
    assert batch_minimal_products(survivors, assignments) == expected


@pytest.mark.parametrize("width", [20, 64, 100])
def test_cleared_counts_match_set_comprehension(width, monkeypatch):
    rng = random.Random(width + 1)
    masks = list(set(random_masks(rng, width, 60, 0.3)))
    keys = random_masks(rng, width, 25, 0.2) + [0]
    expected = [len({m & ~key for m in masks}) for key in keys]
    assert batch_cleared_counts(masks, keys) == expected
    monkeypatch.setattr(batch, "BLOCK_CELLS", 61)
    assert batch_cleared_counts(masks, keys) == expected
