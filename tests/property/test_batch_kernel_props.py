"""Property-based identity of the bounded learner with the string reference.

:class:`~repro.core.heuristic.BoundedLearner` runs the interned-mask
message step (compact pair interning, one weight per distinct mask,
per-weight FIFO pool, and a single-queue step when the pool holds one
mask that already has every candidate of the period). It must be
*bit-for-bit* the string-kernel reference
:class:`~repro.core.reference.ReferenceBoundedLearner`, which
runs the per-hypothesis heap loop on frozensets — not statistically
close, identical. In the test names below, "batch" is the interned-mask
step and "loop" the reference's heap loop. Random small systems are
generated, simulated, and learned both ways; every observable of the run
must agree:

* the surviving hypothesis list, in order (order encodes the merge
  history, so equality here pins the whole exploration sequence);
* the materialized functions, the LUB, and its rendered graph;
* the run metadata the benchmark harness keys on (merge count, peak
  pool size, message count), the period reassignments, and the number
  of children the message step generated;
* resuming from a checkpoint mid-trace, and ``workers=2`` sharding.

The workload-scale section drives the same identity through traces big
enough to exercise the rare paths: designs with more than 64 candidate
pairs (key relayouts), bounds up to 64 over 20 periods (merged-lineage
repairs, equal-weight ties between different pair masks), and the GM
case study.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.graph import DependencyGraph
from repro.bench.workloads import gm_workload
from repro.core import lattice
from repro.core.checkpoint import (
    FORMAT_NAME,
    FORMAT_VERSION,
    _stats_from_dict,
    _stats_to_dict,
    checkpoint_from_dict,
    checkpoint_to_dict,
)
from repro.core.heuristic import BoundedLearner
from repro.core.hypothesis import Hypothesis
from repro.core.learner import learn_dependencies, make_learner
from repro.core.reference import (
    ReferenceBoundedLearner,
    learn_bounded_reference,
)
from repro.core.sharded import learn_bounded_sharded, split_periods
from repro.errors import LearningError
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.systems.random_gen import RandomDesignConfig, random_design

SMALL = RandomDesignConfig(
    task_count=5,
    ecu_count=2,
    layer_count=3,
    extra_edge_probability=0.15,
    disjunction_probability=0.3,
)


def small_trace(seed: int, periods: int = 4):
    design = random_design(SMALL, seed=seed)
    simulator = Simulator(
        design, SimulatorConfig(period_length=120.0), seed=seed
    )
    return simulator.run(periods).trace


def assert_results_identical(left, right):
    """Every representation-independent observable of two runs agrees."""
    assert left.hypotheses == right.hypotheses
    assert left.functions == right.functions
    assert left.lub() == right.lub()
    assert left.merge_count == right.merge_count
    assert left.peak_hypotheses == right.peak_hypotheses
    assert left.periods == right.periods
    assert left.messages == right.messages
    graph_left = DependencyGraph(left.lub()).to_dot()
    graph_right = DependencyGraph(right.lub()).to_dot()
    assert graph_left == graph_right


class CountingReferenceLearner(ReferenceBoundedLearner):
    """The string reference, also counting what the learner reports:
    feasible (hypothesis, candidate) cells, and pools that hold two
    different pair sets of equal weight (the FIFO tie case)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.children = 0
        self.tied_pools = 0

    def _process_message(self, entries, pairs, history):
        for hypothesis, _weight in entries:
            self.children += sum(
                1 for pair in pairs if hypothesis.can_extend(pair)
            )
        entries = super()._process_message(entries, pairs, history)
        pairs_of_weight = {}
        for hypothesis, weight in entries:
            if pairs_of_weight.setdefault(weight, hypothesis.pairs) != (
                hypothesis.pairs
            ):
                self.tied_pools += 1
                break
        return entries


class StepSpy(BoundedLearner):
    """The learner, counting which message step ran and the merged-lineage
    repairs that fired inside a single-mask step."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.single_steps = 0
        self.general_steps = 0
        self.single_repairs = 0

    def _process_single(self, keys, columns, history):
        self.single_steps += 1
        before = self._counters.reassignments
        keys = super()._process_single(keys, columns, history)
        self.single_repairs += self._counters.reassignments - before
        return keys

    def _process_combined(self, keys, columns, history):
        self.general_steps += 1
        return super()._process_combined(keys, columns, history)


def run_both(trace, bound, tolerance=0.0):
    """Learn *trace* with the learner and the counting reference; assert
    every observable agrees, the child and reassignment counts too."""
    reference = CountingReferenceLearner(trace.tasks, bound, tolerance)
    reference.feed_trace(trace.periods)
    learner = BoundedLearner(trace.tasks, bound, tolerance)
    learner.feed_trace(trace.periods)
    expected, result = reference.result(), learner.result()
    assert_results_identical(expected, result)
    assert result.hot_loop.batch_children == reference.children
    assert (
        result.hot_loop.reassignments == expected.hot_loop.reassignments
    )
    return reference, result


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 500), st.integers(1, 12))
def test_batch_equals_loop_bounded(seed, bound):
    run_both(small_trace(seed), bound)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 500), st.integers(1, 16))
def test_single_mask_steps_equal_loop(seed, bound):
    """Eight periods, bounds 1-16: the run mixes single-mask steps (one
    FIFO queue) with general ones, and still equals the reference in
    the model, merges, children, reassignments and FIFO tie order."""
    run_both(small_trace(seed, periods=8), bound)


@pytest.mark.parametrize("seed, bound", [(0, 2), (1, 8), (5, 1)])
def test_repair_inside_a_single_mask_step_equals_loop(seed, bound):
    """A merged-lineage repair that fires inside a single-mask step keeps
    the step's mask and the reference's counters."""
    trace = small_trace(seed, periods=8)
    learner = StepSpy(trace.tasks, bound)
    learner.feed_trace(trace.periods)
    assert learner.single_repairs > 0
    assert learner.general_steps > 0
    run_both(trace, bound)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 500), st.integers(1, 8))
def test_batch_equals_reference_bounded(seed, bound):
    """The public entry points run the same learner."""
    trace = small_trace(seed)
    reference = learn_bounded_reference(trace, bound)
    assert_results_identical(
        reference, learn_dependencies(trace, bound=bound)
    )
    learner = make_learner(trace.tasks, bound=bound)
    learner.feed_trace(trace.periods)
    assert_results_identical(reference, learner.result())


def checkpoint_json(learner):
    data = checkpoint_to_dict(learner)
    data.pop("elapsed")  # wall clock: varies with load
    return json.dumps(data)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 500), st.integers(2, 8))
def test_checkpoint_roundtrip_across_kernels(seed, bound):
    """Checkpoint mid-trace and resume: the spliced run equals the
    string-kernel reference, and its final checkpoint JSON is
    byte-identical to an uninterrupted run's."""
    trace = small_trace(seed, periods=6)
    half = len(trace.periods) // 2

    full = make_learner(trace.tasks, bound=bound)
    full.feed_trace(trace.periods)

    spliced = make_learner(trace.tasks, bound=bound)
    spliced.feed_trace(trace.periods[:half])
    resumed = checkpoint_from_dict(checkpoint_to_dict(spliced))
    resumed.feed_trace(trace.periods[half:])

    reference = learn_bounded_reference(trace, bound)
    assert_results_identical(reference, resumed.result())
    assert_results_identical(reference, full.result())
    assert checkpoint_json(resumed) == checkpoint_json(full)


@pytest.mark.parametrize("seed", [7, 42])
def test_sharded_workers2_batch_equals_loop(seed):
    """Each shard runs the learner; the merged LUB is the LUB of the
    reference's shard results."""
    trace = small_trace(seed, periods=6)
    sharded = learn_bounded_sharded(trace, bound=8, workers=2)
    shard_results = []
    for shard in split_periods(trace.periods, 2):
        reference = ReferenceBoundedLearner(trace.tasks, 8)
        reference.feed_trace(shard)
        shard_results.append(reference.result())
    expected_pairs = frozenset().union(
        *(h.pairs for result in shard_results for h in result.hypotheses)
    )
    assert [h.pairs for h in sharded.hypotheses] == [expected_pairs]
    assert sharded.merge_count == sum(r.merge_count for r in shard_results)
    assert sharded.hot_loop.batch_children > 0


# ---------------------------------------------------------------------------
# Workload scale

#: Timing tolerance of the workload-scale traces. It widens candidate
#: sets, so 12-task designs intern more than 64 candidate pairs.
WIDE_TOLERANCE = 2.0
WIDE_BOUNDS = (1, 2, 3, 5, 8, 16, 33, 64)


def wide_trace(tasks: int, seed: int, periods: int = 20):
    config = RandomDesignConfig(
        task_count=tasks,
        ecu_count=4,
        layer_count=4,
        extra_edge_probability=0.5,
    )
    simulator = Simulator(
        random_design(config, seed=seed),
        SimulatorConfig(period_length=200.0),
        seed=seed,
    )
    return simulator.run(periods).trace


@pytest.mark.parametrize("tasks, seed", [(9, 0), (12, 3)])
def test_bound_sweep_matches_loop_at_workload_scale(tasks, seed):
    trace = wide_trace(tasks, seed)
    repairs = relayouts = tied_pools = 0
    for bound in WIDE_BOUNDS:
        reference, result = run_both(trace, bound, WIDE_TOLERANCE)
        repairs += result.hot_loop.reassignments
        relayouts += result.hot_loop.batch_relayouts
        tied_pools += reference.tied_pools
        assert result.peak_hypotheses <= bound
    assert repairs > 0
    assert tied_pools > 0
    if tasks == 12:
        assert relayouts > 0


def test_wide_designs_relayout_keys_and_match_loop():
    """More than 64 pair bits: keys are re-laid mid-period."""
    relayouts = 0
    for tasks, seed in [(10, 0), (11, 0), (12, 0), (12, 1)]:
        _reference, result = run_both(
            wide_trace(tasks, seed), 4, WIDE_TOLERANCE
        )
        relayouts += result.hot_loop.batch_relayouts
    assert relayouts > 0


def reference_checkpoint(reference):
    """The checkpoint dictionary of a string-reference learner, in the
    public format :func:`checkpoint_to_dict` writes."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": "bounded",
        "tolerance": reference.tolerance,
        "stats": _stats_to_dict(reference.stats),
        "hypotheses": [
            [list(pair) for pair in sorted(h.pairs)]
            for h in reference._hypotheses
        ],
        "periods": reference._periods,
        "messages": reference._messages,
        "peak": reference._peak,
        "elapsed": reference._elapsed,
        "bound": reference.bound,
        "merges": reference._merges,
    }


def reference_from_checkpoint(data):
    """A string-reference learner resumed from a checkpoint dictionary;
    carried weights are left out, so the first refresh recomputes them."""
    stats = _stats_from_dict(data["stats"])
    reference = ReferenceBoundedLearner(
        stats.tasks, int(data["bound"]), float(data["tolerance"])
    )
    reference.stats = stats
    reference._hypotheses = [
        Hypothesis(tuple(pair) for pair in pairs)
        for pairs in data["hypotheses"]
    ]
    reference._weights = {}
    reference._merges = int(data["merges"])
    reference._periods = int(data["periods"])
    reference._messages = int(data["messages"])
    reference._peak = int(data["peak"])
    reference._elapsed = float(data["elapsed"])
    return reference


@pytest.mark.parametrize("first, second", [("loop", "batch"), ("batch", "loop")])
def test_wide_checkpoint_resume_across_kernels(first, second):
    """Resuming past 64 pair bits, with the first half learned by one
    implementation and the second by the other: the checkpoint format
    carries the run between them, a resumed learner re-interns the
    carried masks in a new compact layout, and the spliced run equals
    the uninterrupted reference and learner runs."""
    trace = wide_trace(12, 3)
    half = len(trace.periods) // 2
    full = make_learner(trace.tasks, bound=8, tolerance=WIDE_TOLERANCE)
    full.feed_trace(trace.periods)
    reference = learn_bounded_reference(trace, 8, WIDE_TOLERANCE)
    if first == "batch":
        spliced = make_learner(trace.tasks, bound=8, tolerance=WIDE_TOLERANCE)
        spliced.feed_trace(trace.periods[:half])
        saved = checkpoint_to_dict(spliced)
    else:
        spliced = ReferenceBoundedLearner(trace.tasks, 8, WIDE_TOLERANCE)
        spliced.feed_trace(trace.periods[:half])
        saved = reference_checkpoint(spliced)
    if second == "batch":
        resumed = checkpoint_from_dict(saved)
    else:
        resumed = reference_from_checkpoint(saved)
    resumed.feed_trace(trace.periods[half:])
    assert_results_identical(reference, resumed.result())
    assert_results_identical(full.result(), resumed.result())
    if second == "batch":
        assert checkpoint_json(resumed) == checkpoint_json(full)


def test_gm_bound64_merge_count_is_pinned():
    """48 GM periods, seed 7 (``repro simulate gm --periods 48 --seed
    7``): the merge and reassignment counts the reference also gives."""
    trace = gm_workload(48, seed=7).trace
    learner = StepSpy(trace.tasks, 64)
    learner.feed_trace(trace.periods)
    result = learner.result()
    assert result.merge_count == 473_223
    assert result.hot_loop.reassignments == 421
    assert result.hot_loop.batch_children == 559_064
    # One Definition 8 evaluation per repair, on either step.
    assert result.hot_loop.weight_scratch_calls == 421
    assert result.peak_hypotheses == 64
    # The single-mask step must carry the run, not sit unused.
    steps = learner.single_steps + learner.general_steps
    assert steps == result.messages
    assert learner.single_steps >= 0.9 * steps


def float_distance(value):
    return lattice.distance(value) + 0.5


def test_batch_kernel_rejects_a_float_distance():
    """Interned masks share one weight, which is exact only for integer
    distances; the learner rejects others and leaves no partial state.
    The string reference, which weighs every hypothesis apart, accepts
    the same distance."""
    trace = small_trace(3)
    learner = BoundedLearner(trace.tasks, 4, distance=float_distance)
    with pytest.raises(
        LearningError,
        match="the bounded learner requires an integer-valued distance function",
    ):
        learner.feed_trace(trace.periods)
    assert learner.result().periods == 0
    reference = ReferenceBoundedLearner(
        trace.tasks, 4, distance=float_distance
    )
    reference.feed_trace(trace.periods)
    assert reference.result().hypotheses
