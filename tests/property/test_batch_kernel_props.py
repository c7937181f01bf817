"""Property-based identity of the batch kernel (repro.core.batch).

The vectorized array-of-masks backend must be *bit-for-bit* the loop
kernel on every trace — not statistically close, identical. Random
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
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.graph import DependencyGraph
from repro.core.batch import batch_available, resolve_kernel
from repro.core.checkpoint import checkpoint_from_dict, checkpoint_to_dict
from repro.core.heuristic import learn_bounded
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
