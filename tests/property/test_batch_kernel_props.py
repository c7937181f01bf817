"""Property-based identity of the batch kernel (repro.core.batch).

The batch backend must be *bit-for-bit* the loop kernel on every
trace — not statistically close, identical. Random
small systems are generated, simulated, and learned three ways (loop,
batch, reference oracle); every observable of the run must agree
(exact learning has a single implementation, checked against the
reference under every kernel name):

* the surviving hypothesis list, in order (order encodes the merge
  history, so equality here pins the whole exploration sequence);
* the materialized functions, the LUB, and its rendered graph;
* the run metadata the benchmark harness keys on (merge count, peak
  pool size, message count);
* the checkpoint JSON — including saving under one kernel and resuming
  under the other mid-trace.

The workload-scale section drives the same identity through traces big
enough to exercise the batch kernel's rare paths: designs with more
than 64 candidate pairs (key relayouts), bounds up to 64 over 20
periods (merged-lineage repairs, equal-weight ties between different
pair masks), and the GM case study.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.graph import DependencyGraph
from repro.bench.workloads import gm_workload
from repro.core import lattice
from repro.core.batch import BatchBoundedLearner, batch_available, resolve_kernel
from repro.core.checkpoint import checkpoint_from_dict, checkpoint_to_dict
from repro.core.heuristic import BoundedLearner
from repro.core.learner import learn_dependencies, make_learner
from repro.core.reference import learn_bounded_reference, learn_exact_reference
from repro.core.sharded import learn_bounded_sharded
from repro.errors import LearningError
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.systems.random_gen import RandomDesignConfig, random_design

pytestmark = pytest.mark.skipif(
    not batch_available(), reason="numpy not importable"
)

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
    """Every kernel-independent observable of two runs must agree."""
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


def test_resolve_kernel_registry():
    assert resolve_kernel("loop") == "loop"
    assert resolve_kernel("batch") == "batch"
    assert resolve_kernel("auto") == "batch"  # numpy present (see skipif)
    with pytest.raises(ValueError):
        resolve_kernel("simd")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 500), st.integers(1, 12))
def test_batch_equals_loop_bounded(seed, bound):
    trace = small_trace(seed)
    loop = learn_dependencies(trace, bound=bound, kernel="loop")
    batch = learn_dependencies(trace, bound=bound, kernel="batch")
    assert loop.kernel == "loop" and batch.kernel == "batch"
    assert_results_identical(loop, batch)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 500), st.integers(1, 8))
def test_batch_equals_reference_bounded(seed, bound):
    trace = small_trace(seed)
    reference = learn_bounded_reference(trace, bound)
    batch = learn_dependencies(trace, bound=bound, kernel="batch")
    assert_results_identical(reference, batch)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 500))
def test_every_kernel_name_runs_the_reference_exact(seed):
    """Exact learning has one implementation: every kernel name runs
    it, and it equals the string reference."""
    trace = small_trace(seed, periods=3)
    try:
        reference = learn_exact_reference(trace, max_hypotheses=50_000)
    except LearningError:
        for kernel in ("loop", "batch", "auto"):
            with pytest.raises(LearningError):
                learn_dependencies(
                    trace, max_hypotheses=50_000, kernel=kernel
                )
        return
    for kernel in ("loop", "batch", "auto"):
        result = learn_dependencies(
            trace, max_hypotheses=50_000, kernel=kernel
        )
        assert_results_identical(reference, result)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 500), st.integers(2, 8))
def test_checkpoint_roundtrip_across_kernels(seed, bound):
    """Checkpoint under one kernel mid-trace, resume under the other:
    the spliced run is bit-identical to single-kernel runs, and the
    final checkpoint JSON is byte-identical from both backends."""
    trace = small_trace(seed, periods=6)
    half = len(trace.periods) // 2

    loop_full = make_learner(trace.tasks, bound=bound, kernel="loop")
    loop_full.feed_trace(trace.periods)

    spliced = make_learner(trace.tasks, bound=bound, kernel="loop")
    spliced.feed_trace(trace.periods[:half])
    resumed = checkpoint_from_dict(
        checkpoint_to_dict(spliced), kernel="batch"
    )
    resumed.feed_trace(trace.periods[half:])

    batch_full = make_learner(trace.tasks, bound=bound, kernel="batch")
    batch_full.feed_trace(trace.periods)

    assert_results_identical(loop_full.result(), resumed.result())
    assert_results_identical(loop_full.result(), batch_full.result())

    def dumps(learner):
        data = checkpoint_to_dict(learner)
        data.pop("elapsed")  # wall clock: varies with load, not kernel
        return json.dumps(data)

    assert dumps(loop_full) == dumps(batch_full)
    assert dumps(resumed) == dumps(loop_full)


@pytest.mark.parametrize("seed", [7, 42])
def test_sharded_workers2_batch_equals_loop(seed):
    """Both kernels shard to the same merged LUB under workers=2."""
    trace = small_trace(seed, periods=6)
    loop = learn_bounded_sharded(trace, bound=8, workers=2, kernel="loop")
    batch = learn_bounded_sharded(trace, bound=8, workers=2, kernel="batch")
    assert loop.kernel == "loop" and batch.kernel == "batch"
    assert loop.hypotheses == batch.hypotheses
    assert loop.lub() == batch.lub()
    assert loop.merge_count == batch.merge_count
    assert batch.hot_loop.batch_messages > 0


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


class CountingLoopLearner(BoundedLearner):
    """The loop kernel, also counting what the batch kernel reports:
    feasible (hypothesis, candidate) cells, and pools that hold two
    different pair masks of equal weight (the FIFO tie case)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.children = 0
        self.tied_pools = 0

    def _process_message(self, entries, bits, history):
        for _mask, period_mask, _weight in entries:
            self.children += sum(1 for bit in bits if not period_mask & bit)
        entries = super()._process_message(entries, bits, history)
        mask_of_weight = {}
        for mask, _period_mask, weight in entries:
            if mask_of_weight.setdefault(weight, mask) != mask:
                self.tied_pools += 1
                break
        return entries


def run_both(trace, bound, tolerance=WIDE_TOLERANCE):
    """Learn *trace* under both kernels; assert every observable agrees."""
    loop = CountingLoopLearner(trace.tasks, bound, tolerance)
    loop.feed_trace(trace.periods)
    batch = BatchBoundedLearner(trace.tasks, bound, tolerance)
    batch.feed_trace(trace.periods)
    loop_result, batch_result = loop.result(), batch.result()
    assert_results_identical(loop_result, batch_result)
    assert batch_result.hot_loop.batch_children == loop.children
    assert (
        batch_result.hot_loop.reassignments
        == loop_result.hot_loop.reassignments
    )
    return loop, batch_result


@pytest.mark.parametrize("tasks, seed", [(9, 0), (12, 3)])
def test_bound_sweep_matches_loop_at_workload_scale(tasks, seed):
    trace = wide_trace(tasks, seed)
    repairs = relayouts = tied_pools = 0
    for bound in WIDE_BOUNDS:
        loop, batch = run_both(trace, bound)
        repairs += batch.hot_loop.reassignments
        relayouts += batch.hot_loop.batch_relayouts
        tied_pools += loop.tied_pools
        assert batch.peak_hypotheses <= bound
    assert repairs > 0
    assert tied_pools > 0
    if tasks == 12:
        assert relayouts > 0


def test_wide_designs_relayout_keys_and_match_loop():
    """More than 64 pair bits: keys are re-laid mid-period."""
    relayouts = 0
    for tasks, seed in [(10, 0), (11, 0), (12, 0), (12, 1)]:
        _loop, batch = run_both(wide_trace(tasks, seed), bound=4)
        relayouts += batch.hot_loop.batch_relayouts
    assert relayouts > 0


@pytest.mark.parametrize("first, second", [("loop", "batch"), ("batch", "loop")])
def test_wide_checkpoint_resume_across_kernels(first, second):
    trace = wide_trace(12, 3)
    half = len(trace.periods) // 2
    full = make_learner(
        trace.tasks, bound=8, tolerance=WIDE_TOLERANCE, kernel="loop"
    )
    full.feed_trace(trace.periods)
    spliced = make_learner(
        trace.tasks, bound=8, tolerance=WIDE_TOLERANCE, kernel=first
    )
    spliced.feed_trace(trace.periods[:half])
    resumed = checkpoint_from_dict(checkpoint_to_dict(spliced), kernel=second)
    resumed.feed_trace(trace.periods[half:])
    assert_results_identical(full.result(), resumed.result())

    def dumps(learner):
        data = checkpoint_to_dict(learner)
        data.pop("elapsed")
        return json.dumps(data)

    assert dumps(resumed) == dumps(full)


def test_gm_bound64_merge_count_is_pinned():
    """48 GM periods, seed 7 (``repro simulate gm --periods 48 --seed
    7``): the merge count both kernels reproduce."""
    trace = gm_workload(48, seed=7).trace
    learner = BatchBoundedLearner(trace.tasks, 64)
    learner.feed_trace(trace.periods)
    result = learner.result()
    assert result.merge_count == 473_223
    assert result.peak_hypotheses == 64


def float_distance(value):
    return lattice.distance(value) + 0.5


def test_batch_kernel_rejects_a_float_distance():
    trace = small_trace(3)
    batch = BatchBoundedLearner(trace.tasks, 4, distance=float_distance)
    with pytest.raises(
        LearningError,
        match="the batch kernel requires an integer-valued distance function",
    ):
        batch.feed_trace(trace.periods)
    loop = BoundedLearner(trace.tasks, 4, distance=float_distance)
    loop.feed_trace(trace.periods)
    assert loop.result().hypotheses
