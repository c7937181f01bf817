"""Differential tests for shard-parallel bounded learning.

The acceptance contract of ``learn_dependencies(..., workers=N)``:

* ``workers=1`` is bit-for-bit identical to the sequential bounded path
  (same hypothesis pair sets, same LUB, same merge count);
* ``workers>=2`` yields a sound LUB merge — on every randomized trace,
  every entry of the merged model is ``>=`` the corresponding entry of
  the sequential LUB in the value lattice, and the merged model still
  matches every period of the whole trace (Theorem 2 soundness survives
  sharding). Each shard computes its LUB in one pass, which by the
  paper's Lemma is the union of its candidate sets, so the merged model
  is in fact byte-identical to the sequential LUB.
"""

import pytest

from repro.analysis.report import dumps_model
from repro.core.heuristic import learn_bounded
from repro.core.learner import learn_dependencies
from repro.core.matching import matches_trace
from repro.core.sharded import (
    learn_bounded_sharded,
    learn_shard,
    merge_outcomes,
    split_periods,
)
from repro.core.stats import CoExecutionStats
from repro.errors import LearningError
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.systems.random_gen import RandomDesignConfig, random_design
from repro.trace.synthetic import paper_figure2_trace


def random_trace(seed, task_count=8, periods=10):
    design = random_design(
        RandomDesignConfig(task_count=task_count), seed=seed
    )
    return Simulator(
        design,
        SimulatorConfig(period_length=60.0 + 8.0 * task_count),
        seed=seed,
    ).run(periods).trace


RANDOM_SEEDS = (1, 2, 3, 4, 5)


class TestSplitPeriods:
    def test_balanced_contiguous(self):
        trace = paper_figure2_trace()
        shards = split_periods(trace.periods, 2)
        assert [p.index for shard in shards for p in shard] == [
            p.index for p in trace.periods
        ]
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_more_workers_than_periods(self):
        trace = paper_figure2_trace()
        shards = split_periods(trace.periods, 100)
        assert len(shards) == len(trace)
        assert all(len(shard) == 1 for shard in shards)

    def test_empty(self):
        assert split_periods((), 4) == []

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            split_periods((), 0)


class TestWorkersOne:
    """workers=1 must be the sequential path, bit for bit."""

    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_bit_for_bit_on_random_traces(self, seed):
        trace = random_trace(seed)
        sequential = learn_bounded(trace, 8)
        routed = learn_dependencies(trace, bound=8, workers=1)
        assert [h.pairs for h in routed.hypotheses] == [
            h.pairs for h in sequential.hypotheses
        ]
        assert routed.lub() == sequential.lub()
        assert routed.merge_count == sequential.merge_count
        assert routed.workers == 1
        assert routed.algorithm == "heuristic"

    def test_default_workers_is_one(self):
        trace = paper_figure2_trace()
        assert learn_dependencies(trace, bound=4).workers == 1


class TestShardedSoundness:
    """workers>=2: sound LUB merge, equal to the sequential LUB."""

    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    @pytest.mark.parametrize("workers", [2, 3])
    def test_merged_geq_sequential_in_lattice(self, seed, workers):
        trace = random_trace(seed)
        sequential = learn_bounded(trace, 8).lub()
        merged = learn_dependencies(
            trace, bound=8, workers=workers
        ).lub()
        # Every merged entry >= the sequential entry in the lattice.
        assert sequential.leq(merged), (
            f"sharded merge lost information (seed={seed}, "
            f"workers={workers})"
        )
        # ... which makes the specificity gap a nonnegative weight delta.
        assert merged.weight() >= sequential.weight()
        # By the Lemma that gap is zero: the shards' one-pass unions
        # compose to the sequential LUB, byte for byte.
        assert dumps_model(merged) == dumps_model(sequential)

    @pytest.mark.parametrize("seed", RANDOM_SEEDS[:3])
    def test_merged_model_matches_whole_trace(self, seed):
        trace = random_trace(seed)
        merged = learn_dependencies(trace, bound=8, workers=2)
        assert matches_trace(merged.lub(), trace)

    def test_merged_certainty_judged_globally(self):
        """Shard stats are summed, so certainty reflects the whole trace."""
        for seed in RANDOM_SEEDS:
            trace = random_trace(seed)
            sequential = learn_bounded(trace, 8)
            merged = learn_dependencies(trace, bound=8, workers=2)
            reference = sequential.stats
            stats = merged.stats
            assert stats.period_count == reference.period_count
            for s in trace.tasks:
                assert stats.execution_count(s) == reference.execution_count(s)
                for r in trace.tasks:
                    if s != r:
                        assert stats.exclusive_count(s, r) == (
                            reference.exclusive_count(s, r)
                        )

    def test_result_metadata(self):
        trace = random_trace(1)
        merged = learn_dependencies(trace, bound=8, workers=2)
        assert merged.workers == 2
        assert merged.algorithm == "heuristic"
        assert merged.bound == 8
        assert merged.periods == len(trace)
        assert merged.messages == trace.message_count()
        assert merged.hot_loop is not None
        assert merged.hot_loop.periods == len(trace)
        assert "workers=2" in merged.summary()

    def test_gm_scale_merge_equals_sequential_lub(self):
        """On the paper-scale workload the shard merge loses nothing:
        each shard's LUB equals its bound-1 union (Lemma), and those
        unions compose across shards."""
        from repro.bench.workloads import gm_workload

        trace = gm_workload(periods=8).trace
        sequential = learn_bounded(trace, 16).lub()
        merged = learn_dependencies(trace, bound=16, workers=2).lub()
        assert merged == sequential


class TestValidation:
    def test_exact_algorithm_not_shardable(self):
        trace = paper_figure2_trace()
        with pytest.raises(LearningError, match="workers"):
            learn_dependencies(trace, bound=None, workers=2)

    def test_workers_below_one_rejected(self):
        trace = paper_figure2_trace()
        with pytest.raises(ValueError):
            learn_dependencies(trace, bound=4, workers=0)
        with pytest.raises(ValueError):
            learn_bounded_sharded(trace, 4, workers=0)

    def test_bound_below_one_rejected(self):
        trace = paper_figure2_trace()
        with pytest.raises(ValueError):
            learn_bounded_sharded(trace, 0, workers=2)


class TestEdgeCases:
    def test_more_workers_than_periods(self):
        trace = paper_figure2_trace()
        merged = learn_dependencies(trace, bound=4, workers=64)
        sequential = learn_bounded(trace, 4).lub()
        assert sequential.leq(merged.lub())
        assert merged.periods == len(trace)

    def test_empty_trace(self):
        from repro.trace.trace import Trace

        empty = Trace(("t1", "t2"), [])
        merged = learn_bounded_sharded(empty, 4, workers=2)
        assert merged.periods == 0
        assert merged.lub().entry_count() == 0
        assert merged.workers == 2

    def test_single_period(self):
        trace = paper_figure2_trace().subtrace(1)
        merged = learn_bounded_sharded(trace, 4, workers=2)
        sequential = learn_bounded(trace, 4)
        assert merged.lub() == sequential.lub()


class TestMergePrimitives:
    def test_stats_merge_matches_sequential(self):
        trace = random_trace(2)
        half = len(trace) // 2
        left = CoExecutionStats(trace.tasks)
        right = CoExecutionStats(trace.tasks)
        for period in trace.periods[:half]:
            left.add_period(period.executed_tasks)
        for period in trace.periods[half:]:
            right.add_period(period.executed_tasks)
        reference = CoExecutionStats(trace.tasks)
        for period in trace.periods:
            reference.add_period(period.executed_tasks)
        left.merge(right)
        assert left.period_count == reference.period_count
        for s in trace.tasks:
            assert left.execution_count(s) == reference.execution_count(s)
            for r in trace.tasks:
                if s != r:
                    assert left.exclusive_count(s, r) == (
                        reference.exclusive_count(s, r)
                    )
                    assert left.always_implies(s, r) == (
                        reference.always_implies(s, r)
                    )

    def test_stats_merge_rejects_different_universes(self):
        with pytest.raises(ValueError):
            CoExecutionStats(("a", "b")).merge(CoExecutionStats(("a", "c")))

    def test_stats_merge_advances_version(self):
        left = CoExecutionStats(("a", "b"))
        right = CoExecutionStats(("a", "b"))
        right.add_period({"a"})
        before = left.version
        left.merge(right)
        assert left.version > before

    def test_counters_merge(self):
        from repro.core.instrumentation import HotLoopCounters

        a = HotLoopCounters(periods=2, messages=5, candidates_max=3)
        b = HotLoopCounters(periods=1, messages=2, candidates_max=7)
        a.merge(b)
        assert a.periods == 3
        assert a.messages == 7
        assert a.candidates_max == 7

    def test_counters_copy_is_an_independent_snapshot(self):
        import dataclasses

        from repro.core.instrumentation import HotLoopCounters

        fields = dataclasses.fields(HotLoopCounters)
        original = HotLoopCounters(
            **{
                f.name: (i + 1) * (0.5 if f.type == "float" else 1)
                for i, f in enumerate(fields)
            }
        )
        snapshot = original.copy()
        assert type(snapshot) is HotLoopCounters
        assert snapshot == original
        for f in fields:
            assert getattr(snapshot, f.name) == getattr(original, f.name)
        before = original.as_dict()
        for f in fields:
            setattr(snapshot, f.name, getattr(snapshot, f.name) + 100)
        snapshot.observe_candidates(1000)
        assert original.as_dict() == before

    def test_learn_shard_runs_in_process(self):
        """The worker function itself (what the pool executes)."""
        trace = paper_figure2_trace()
        outcome = learn_shard(trace.tasks, trace.periods, 0.0)
        assert outcome.periods == len(trace)
        assert outcome.pairs_mask  # learned something
        merged = merge_outcomes(trace.tasks, [outcome], 4, 1, 0.0)
        assert merged.lub() == learn_bounded(trace, 4).lub()
