"""Merge-order properties: the shard LUB fold is order- and shape-free.

The fault-tolerant runtime (:mod:`repro.core.shardexec`) completes
shards in whatever order retries and pool rebuilds happen to produce,
and the worker count picks the partition. These properties pin why
neither can change the answer: :func:`~repro.core.sharded.merge_outcomes`
is a commutative, associative fold (mask union + stats sum), so any
permutation of the outcomes and any refinement of the shard partition
yields an identical pair-set mask and identical summed statistics.

The distributed runtime adds a wire in the middle: outcomes come back
as pickled result frames that network chaos may duplicate or deliver
out of dispatch order. The wire property below drives framed outcomes
through chaotic delivery schedules and the coordinator's
:class:`~repro.distributed.ledger.ResultLedger`, asserting the admitted
set always merges identically — exactly-once admission plus the
order-free fold is why chaos cannot change the learned model.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heuristic import learn_bounded
from repro.core.matching import matches_trace
from repro.core.sharded import learn_shard, merge_outcomes, split_periods
from repro.distributed import ResultLedger, decode_frame, encode_frame
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.systems.random_gen import RandomDesignConfig, random_design

SMALL = RandomDesignConfig(
    task_count=5,
    ecu_count=2,
    layer_count=3,
    extra_edge_probability=0.15,
    disjunction_probability=0.3,
)


def small_trace(seed: int, periods: int = 6):
    design = random_design(SMALL, seed=seed)
    simulator = Simulator(
        design, SimulatorConfig(period_length=120.0), seed=seed
    )
    return simulator.run(periods).trace


def shard_outcomes(trace, shards):
    return [learn_shard(trace.tasks, shard, 0.0) for shard in shards]


def stats_dict(stats):
    """The raw counts of a :class:`CoExecutionStats` for exact comparison."""
    return (
        dict(stats._exclusive),
        dict(stats._executions),
        stats.period_count,
    )


def refine(shards, cuts):
    """Cut each shard once at the given relative cut points.

    Replaces a shard with contiguous sub-shards covering the same
    periods, as a larger worker count would. ``cuts[i] == 0`` leaves
    shard *i* whole.
    """
    fine = []
    for shard, cut in zip(shards, cuts):
        point = cut % len(shard)
        if point == 0:
            fine.append(shard)
        else:
            fine.append(shard[:point])
            fine.append(shard[point:])
    return fine


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 500),
    st.integers(1, 12),
    st.integers(1, 6),
    st.randoms(use_true_random=False),
)
def test_merge_is_permutation_invariant(seed, bound, workers, rng):
    """Any completion order of the same outcomes merges identically."""
    trace = small_trace(seed)
    outcomes = shard_outcomes(trace, split_periods(trace.periods, workers))
    shuffled = list(outcomes)
    rng.shuffle(shuffled)
    base = merge_outcomes(trace.tasks, outcomes, bound, workers, 0.0)
    other = merge_outcomes(trace.tasks, shuffled, bound, workers, 0.0)
    assert [h.pairs for h in other.hypotheses] == [
        h.pairs for h in base.hypotheses
    ]
    assert other.functions == base.functions
    assert other.lub() == base.lub()
    assert stats_dict(other.stats) == stats_dict(base.stats)
    assert (other.periods, other.messages) == (base.periods, base.messages)
    assert other.merge_count == base.merge_count


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 500),
    st.integers(1, 12),
    st.integers(1, 4),
    st.lists(st.integers(0, 11), min_size=4, max_size=4),
)
def test_merge_is_refinement_invariant(seed, bound, workers, cuts):
    """Cutting shards finer yields an identical pair-set mask and
    identical summed stats."""
    trace = small_trace(seed)
    shards = split_periods(trace.periods, workers)
    fine = refine(shards, cuts)
    coarse = shard_outcomes(trace, shards)
    refined = shard_outcomes(trace, fine)

    coarse_mask = 0
    for outcome in coarse:
        coarse_mask |= outcome.pairs_mask
    fine_mask = 0
    for outcome in refined:
        fine_mask |= outcome.pairs_mask
    assert fine_mask == coarse_mask

    base = merge_outcomes(trace.tasks, coarse, bound, workers, 0.0)
    other = merge_outcomes(trace.tasks, refined, bound, workers, 0.0)
    assert other.functions == base.functions
    assert other.lub() == base.lub()
    assert stats_dict(other.stats) == stats_dict(base.stats)
    assert (other.periods, other.messages) == (base.periods, base.messages)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 500),
    st.integers(1, 12),
    st.integers(2, 6),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
def test_wire_round_trip_under_chaotic_delivery_merges_identically(
    seed, bound, workers, copies, rng
):
    """Outcomes framed onto the wire, duplicated, and delivered out of
    dispatch order merge to the identical result.

    Models what the coordinator actually sees under network chaos: each
    shard outcome is pickled into a result frame (``encode_frame``),
    every frame may be sent up to *copies* times (chaos ``duplicate``,
    work-stealing double delivery), and arrival order is an arbitrary
    permutation of dispatch order (chaos ``reorder`` plus ordinary
    cross-worker interleaving). The :class:`ResultLedger` must admit
    exactly one decoded outcome per task, and the admitted set — in
    arrival order — must merge bit-identically to the clean fold.
    """
    trace = small_trace(seed)
    outcomes = shard_outcomes(trace, split_periods(trace.periods, workers))
    base = merge_outcomes(trace.tasks, outcomes, bound, workers, 0.0)

    # Dispatch: every copy gets a worker and that worker's next seq
    # *before* the shuffle, so the shuffle really does deliver frames
    # out of their dispatch order.
    next_seq = {"w0": 0, "w1": 0}
    deliveries = []
    for task_id, outcome in enumerate(outcomes):
        for _ in range(1 + rng.randrange(copies)):
            worker = rng.choice(("w0", "w1"))
            seq = next_seq[worker]
            next_seq[worker] = seq + 1
            frame = encode_frame(
                {"kind": "result", "task_id": task_id, "value": outcome}
            )
            deliveries.append((worker, seq, frame))
    rng.shuffle(deliveries)

    ledger = ResultLedger()
    admitted = []
    for worker, seq, frame in deliveries:
        message = decode_frame(frame)
        if ledger.admit(message["task_id"], worker, seq).fresh:
            admitted.append(message["value"])
    assert len(admitted) == len(outcomes)

    other = merge_outcomes(trace.tasks, admitted, bound, workers, 0.0)
    assert [h.pairs for h in other.hypotheses] == [
        h.pairs for h in base.hypotheses
    ]
    assert other.functions == base.functions
    assert other.lub() == base.lub()
    assert stats_dict(other.stats) == stats_dict(base.stats)
    assert (other.periods, other.messages) == (base.periods, base.messages)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 500), st.integers(1, 12), st.integers(2, 6))
def test_merged_stats_equal_sequential_stats(seed, bound, workers):
    """Summed shard statistics are *exactly* the sequential run's —
    the certainty dimension of the merge is a theorem, not a LUB."""
    trace = small_trace(seed)
    outcomes = shard_outcomes(trace, split_periods(trace.periods, workers))
    merged = merge_outcomes(trace.tasks, outcomes, bound, workers, 0.0)
    sequential = learn_bounded(trace, bound)
    assert stats_dict(merged.stats) == stats_dict(sequential.stats)
    assert matches_trace(merged.lub(), trace)
    # Soundness direction of Theorem 2: the merged model can only
    # generalize the sequential LUB, never drop a dependency pair.
    assert sequential.lub().leq(merged.lub())
