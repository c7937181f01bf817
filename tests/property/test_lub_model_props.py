"""Property suite for the one-pass LUB (:func:`repro.core.heuristic.lub_model`).

The paper's Lemma says the LUB of the bound-``b`` heuristic's output
equals the bound-1 output; with the learner's repair rule that output is
the union of every message's candidate pairs ``A_m``. The one pass
computes that union (plus the co-execution statistics) without a
hypothesis pool, and the shard path runs it in place of the heuristic.
On random designs its model must be byte-identical to:

* ``learn_bounded(trace, b).lub()`` at ``b`` in {1, 8, 64};
* the string reference's LUB (:mod:`repro.core.reference`);
* ``learn_bounded_sharded`` at 2 and 3 workers;
* a bounded learner resumed from a mid-trace checkpoint;

at timing tolerance 0 and above. On traces with a period no hypothesis
explains (an empty ``A_m``, or messages with no distinct assignment)
it must raise the :class:`~repro.errors.EmptyHypothesisSpaceError` a
:class:`~repro.core.heuristic.BoundedLearner` fed the same shard
raises, at the same shard-local period index.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.report import dumps_model
from repro.core.checkpoint import checkpoint_from_dict, checkpoint_to_dict
from repro.core.heuristic import BoundedLearner, learn_bounded, lub_model
from repro.core.hypothesis import Hypothesis
from repro.core.reference import learn_bounded_reference
from repro.core.sharded import learn_bounded_sharded
from repro.errors import EmptyHypothesisSpaceError
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.systems.random_gen import RandomDesignConfig, random_design
from repro.trace.synthetic import build_period

TOLERANCES = (0.0, 2.0)
BOUNDS = (1, 8, 64)


def random_trace(seed: int, task_count: int, periods: int = 6):
    design = random_design(
        RandomDesignConfig(
            task_count=task_count,
            ecu_count=2,
            layer_count=3,
            extra_edge_probability=0.15,
            disjunction_probability=0.3,
        ),
        seed=seed,
    )
    return Simulator(
        design,
        SimulatorConfig(period_length=60.0 + 8.0 * task_count),
        seed=seed,
    ).run(periods).trace


def one_pass_bytes(tasks, periods, tolerance) -> str:
    model = lub_model(tasks, periods, tolerance)
    return dumps_model(Hypothesis(model.pairs).to_function(model.stats))


traces = st.builds(
    random_trace,
    seed=st.integers(0, 10_000),
    task_count=st.sampled_from((5, 7, 9, 12)),
)


@settings(max_examples=25, deadline=None)
@given(traces, st.sampled_from(TOLERANCES))
def test_one_pass_equals_bounded_lub(trace, tolerance):
    expected = one_pass_bytes(trace.tasks, trace.periods, tolerance)
    for bound in BOUNDS:
        result = learn_bounded(trace, bound, tolerance)
        assert dumps_model(result.lub()) == expected, f"bound {bound}"


@settings(max_examples=12, deadline=None)
@given(traces, st.sampled_from(TOLERANCES))
def test_one_pass_equals_reference_lub(trace, tolerance):
    expected = one_pass_bytes(trace.tasks, trace.periods, tolerance)
    for bound in BOUNDS:
        reference = learn_bounded_reference(trace, bound, tolerance)
        assert dumps_model(reference.lub()) == expected, f"bound {bound}"


@settings(max_examples=6, deadline=None)
@given(traces, st.sampled_from(TOLERANCES), st.sampled_from((2, 3)))
def test_one_pass_equals_sharded_lub(trace, tolerance, workers):
    expected = one_pass_bytes(trace.tasks, trace.periods, tolerance)
    sharded = learn_bounded_sharded(trace, 8, tolerance, workers=workers)
    assert dumps_model(sharded.lub()) == expected


@settings(max_examples=20, deadline=None)
@given(
    traces,
    st.sampled_from(TOLERANCES),
    st.sampled_from(BOUNDS),
    st.integers(1, 4),
)
def test_one_pass_equals_resumed_lub(trace, tolerance, bound, cut):
    """A learner checkpointed mid-trace and resumed keeps the union."""
    first = BoundedLearner(trace.tasks, bound, tolerance)
    first.feed_trace(trace.periods[:cut])
    resumed = checkpoint_from_dict(checkpoint_to_dict(first))
    resumed.feed_trace(trace.periods[cut:])
    expected = one_pass_bytes(trace.tasks, trace.periods, tolerance)
    assert dumps_model(resumed.result().lub()) == expected


# ---------------------------------------------------------------------------
# Periods no hypothesis explains


def unexplained_period(tasks, kind: str):
    """A period over two of *tasks* that no hypothesis explains.

    ``"empty"``: the message rises before any task ends, so it has no
    sender and ``A_m`` is empty. ``"crowded"``: two messages whose only
    candidate is the same pair, so they have no distinct assignment.
    The gaps exceed every tolerance used here.
    """
    first, second = tasks[0], tasks[1]
    if kind == "empty":
        return build_period(
            [(first, 30.0, 40.0), (second, 50.0, 60.0)],
            [("m0", 0.0, 1.0)],
        )
    return build_period(
        [(first, 0.0, 10.0), (second, 40.0, 50.0)],
        [("m0", 20.0, 21.0), ("m1", 22.0, 23.0)],
    )


def outcome(run):
    """``("ok", value)`` or ``("empty", period index)`` of *run*."""
    try:
        return ("ok", run())
    except EmptyHypothesisSpaceError as error:
        assert error.message_index is None
        return ("empty", error.period_index)


@settings(max_examples=40, deadline=None)
@given(
    traces,
    st.sampled_from(("empty", "crowded")),
    st.sampled_from(TOLERANCES),
    st.sampled_from(BOUNDS),
    st.data(),
)
def test_unexplained_period_raises_like_the_learner(
    trace, kind, tolerance, bound, data
):
    periods = list(trace.periods)
    at = data.draw(st.integers(0, len(periods)), label="at")
    periods.insert(at, unexplained_period(trace.tasks, kind))
    start = data.draw(st.integers(0, len(periods) - 1), label="start")
    stop = data.draw(st.integers(start + 1, len(periods)), label="stop")
    shard = periods[start:stop]

    def learner_run():
        learner = BoundedLearner(trace.tasks, bound, tolerance)
        learner.feed_trace(shard)
        union = 0
        for mask in learner._masks:
            union |= mask
        return union

    def one_pass_run():
        return lub_model(trace.tasks, shard, tolerance).pairs_mask

    expected = outcome(learner_run)
    assert outcome(one_pass_run) == expected
    if start <= at < stop:
        assert expected == ("empty", at - start)


@pytest.mark.parametrize("kind", ["empty", "crowded"])
def test_unchecked_union_accepts_unexplained_periods(kind):
    """Without the check the one pass is the plain candidate union, which
    brute force needs for traces that nothing explains."""
    trace = random_trace(1, 5)
    bad = unexplained_period(trace.tasks, kind)
    with pytest.raises(EmptyHypothesisSpaceError):
        lub_model(trace.tasks, [bad], 0.0)
    unchecked = lub_model(trace.tasks, [*trace.periods, bad], 0.0, check=False)
    clean = lub_model(trace.tasks, trace.periods, 0.0)
    assert clean.pairs <= unchecked.pairs
    assert unchecked.hot_loop.periods == len(trace.periods) + 1
