"""Incremental weight maintenance and all-or-nothing feeding.

Differential tests pin the bounded learner's dirty-pair weight refresh
against the from-scratch Definition 8 evaluation (``set_weight``) on
randomized traces; recovery tests pin the all-or-nothing contract of
``feed`` for both learners.
"""

import pytest

from repro.core.exact import ExactLearner
from repro.core.heuristic import BoundedLearner
from repro.core.reference import flip_delta, set_weight
from repro.core.stats import CoExecutionStats
from repro.core.weights import NAMED_DISTANCES
from repro.errors import EmptyHypothesisSpaceError, LearningError
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.systems.random_gen import profiled_design
from repro.trace.synthetic import build_period, paper_figure2_trace


def random_trace(profile: str, task_count: int, periods: int, seed: int):
    design = profiled_design(profile, task_count, seed=seed)
    config = SimulatorConfig(period_length=60.0 + 8.0 * task_count)
    return Simulator(design, config, seed=seed).run(periods).trace


def bad_period(tasks):
    """A period whose only message has no possible sender.

    Every executed task is still running at the message's rising edge, so
    the candidate set is empty and every hypothesis dies.
    """
    first, second = sorted(tasks)[:2]
    return build_period(
        [(first, 0.0, 10.0), (second, 1.0, 9.0)], [("m", 0.5, 0.6)]
    )


class TestDirtyPairs:
    def test_add_period_reports_flips(self):
        stats = CoExecutionStats(("a", "b", "c"))
        # First period: a and b ran, c idle -> (a, c) and (b, c) flip.
        assert stats.add_period({"a", "b"}) == {("a", "c"), ("b", "c")}
        # Same execution set again: nothing new flips.
        assert stats.add_period({"a", "b"}) == frozenset()
        # b idle now: (a, b) flips; (a, c) already flipped.
        assert stats.add_period({"a"}) == {("a", "b")}

    def test_flips_are_one_way(self):
        stats = CoExecutionStats(("a", "b"))
        seen = set()
        for executed in ({"a"}, {"a", "b"}, {"b"}, {"a"}, {"b"}):
            dirty = stats.add_period(executed)
            assert not (dirty & seen), "an ordered pair flipped twice"
            seen |= dirty

    def test_remove_period_reverses_add(self):
        stats = CoExecutionStats(("a", "b", "c"))
        stats.add_period({"a", "b"})
        reference = stats.snapshot()
        stats.add_period({"a"})
        stats.remove_period({"a"})
        assert stats.period_count == reference.period_count
        for s in stats.tasks:
            assert stats.execution_count(s) == reference.execution_count(s)
            for r in stats.tasks:
                if s != r:
                    assert stats.exclusive_count(s, r) == (
                        reference.exclusive_count(s, r)
                    )
        # The version counter stays monotone across the rollback.
        assert stats.version > reference.version

    def test_remove_period_requires_a_period(self):
        stats = CoExecutionStats(("a",))
        with pytest.raises(ValueError):
            stats.remove_period({"a"})

    def test_flip_delta_matches_set_weight(self):
        # For every membership combination, applying the flip delta to the
        # pre-flip weight gives the post-flip weight.
        for name, distance in NAMED_DISTANCES.items():
            for pairs in (
                frozenset({("a", "b")}),
                frozenset({("b", "a")}),
                frozenset({("a", "b"), ("b", "a")}),
                frozenset({("b", "c")}),
            ):
                before = CoExecutionStats(("a", "b", "c"))
                before.add_period({"a", "b", "c"})
                old = set_weight(pairs, before, distance)
                dirty = before.add_period({"a", "c"})  # (a, b)/(c, b) flip
                new = set_weight(pairs, before, distance)
                applied = old + sum(
                    flip_delta(pairs, s, r, distance) for s, r in dirty
                )
                assert applied == new, (name, sorted(pairs))


class TestDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("profile", ["chain", "branchy", "mixed"])
    def test_carried_weights_match_scratch(self, profile, seed):
        trace = random_trace(profile, task_count=8, periods=8, seed=seed)
        learner = BoundedLearner(trace.tasks, bound=8)
        for period in trace.periods:
            learner.feed(period)
            for hypothesis in learner._hypotheses:
                mask = learner.table.mask_of(hypothesis.pairs)
                assert learner._weights[mask] == set_weight(
                    hypothesis.pairs, learner.stats
                )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_results_identical_to_scratch_mode(self, seed):
        trace = random_trace("branchy", task_count=10, periods=10, seed=seed)
        incremental = BoundedLearner(trace.tasks, bound=6)
        scratch = BoundedLearner(
            trace.tasks, bound=6, incremental_weights=False
        )
        incremental.feed_trace(trace)
        scratch.feed_trace(trace)
        left, right = incremental.result(), scratch.result()
        assert [h.pairs for h in left.hypotheses] == [
            h.pairs for h in right.hypotheses
        ]
        assert left.lub() == right.lub()
        assert left.merge_count == right.merge_count

    def test_custom_distance_stays_incremental_and_correct(self):
        trace = random_trace("branchy", task_count=8, periods=8, seed=1)
        distance = NAMED_DISTANCES["linear"]
        learner = BoundedLearner(trace.tasks, bound=6, distance=distance)
        for period in trace.periods:
            learner.feed(period)
            for hypothesis in learner._hypotheses:
                mask = learner.table.mask_of(hypothesis.pairs)
                assert learner._weights[mask] == set_weight(
                    hypothesis.pairs, learner.stats, distance
                )
        assert learner._counters.weight_refresh_scratch == 0

    def test_primed_memo_matches_definition8(self):
        trace = paper_figure2_trace()
        learner = BoundedLearner(trace.tasks, bound=4)
        learner.feed_trace(trace)
        for hypothesis in learner._hypotheses:
            cached = hypothesis._weight_cache
            assert cached == (
                learner.stats.version,
                set_weight(hypothesis.pairs, learner.stats),
            )


class TestCounters:
    def test_no_scratch_refresh_on_a_fresh_learner(self):
        trace = random_trace("mixed", task_count=10, periods=12, seed=4)
        learner = BoundedLearner(trace.tasks, bound=8)
        learner.feed_trace(trace)
        counters = learner.result().hot_loop
        assert counters.periods == len(trace)
        assert counters.messages == trace.message_count()
        assert counters.weight_refresh_scratch == 0
        assert counters.weight_refresh_incremental > 0
        assert counters.clean_periods + counters.dirty_pairs > 0

    def test_result_snapshot_does_not_alias_live_counters(self):
        trace = paper_figure2_trace()
        learner = BoundedLearner(trace.tasks, bound=4)
        learner.feed(trace[0])
        snapshot = learner.result().hot_loop
        learner.feed(trace[1])
        assert snapshot.periods == 1
        assert learner.result().hot_loop.periods == 2

    def test_checkpoint_resume_falls_back_to_scratch_once(self, tmp_path):
        from repro.core.checkpoint import load_checkpoint, save_checkpoint

        trace = paper_figure2_trace()
        learner = BoundedLearner(trace.tasks, bound=4)
        learner.feed(trace[0])
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(learner, path)
        resumed = load_checkpoint(path)
        resumed.feed(trace[1])
        counters = resumed.result().hot_loop
        # Carried weights are not serialized, so the first post-resume
        # refresh recomputes from scratch — and only that one.
        assert counters.weight_refresh_scratch > 0
        resumed.feed(trace[2])
        assert resumed.result().hot_loop.weight_refresh_scratch == (
            counters.weight_refresh_scratch
        )

    def test_exact_learner_carries_counters(self):
        trace = paper_figure2_trace()
        learner = ExactLearner(trace.tasks)
        learner.feed_trace(trace)
        counters = learner.result().hot_loop
        assert counters.periods == len(trace)
        assert counters.messages == trace.message_count()
        assert counters.candidates_max >= 1


class TestAllOrNothingFeed:
    def test_bounded_feed_recovers_after_error(self):
        trace = paper_figure2_trace()
        learner = BoundedLearner(trace.tasks, bound=4)
        learner.feed(trace[0])
        before = learner.result()
        with pytest.raises(EmptyHypothesisSpaceError):
            learner.feed(bad_period(trace.tasks))
        after = learner.result()
        # Nothing moved: stats, hypotheses, counters.
        assert learner.stats.period_count == 1
        assert after.periods == before.periods
        assert after.messages == before.messages
        assert after.merge_count == before.merge_count
        assert [h.pairs for h in after.hypotheses] == [
            h.pairs for h in before.hypotheses
        ]
        assert after.hot_loop.periods == before.hot_loop.periods
        # Keep feeding: the run ends exactly like one that never saw the
        # bad period.
        learner.feed(trace[1])
        learner.feed(trace[2])
        clean = BoundedLearner(trace.tasks, bound=4)
        clean.feed_trace(trace)
        assert set(learner.result().functions) == set(
            clean.result().functions
        )
        assert learner.result().lub() == clean.result().lub()

    def test_bounded_feed_error_on_first_period(self):
        trace = paper_figure2_trace()
        learner = BoundedLearner(trace.tasks, bound=4)
        with pytest.raises(EmptyHypothesisSpaceError):
            learner.feed(bad_period(trace.tasks))
        assert learner.stats.period_count == 0
        learner.feed_trace(trace)
        clean = BoundedLearner(trace.tasks, bound=4)
        clean.feed_trace(trace)
        assert learner.result().lub() == clean.result().lub()

    def test_exact_feed_recovers_after_empty_space(self):
        trace = paper_figure2_trace()
        learner = ExactLearner(trace.tasks)
        learner.feed(trace[0])
        with pytest.raises(EmptyHypothesisSpaceError):
            learner.feed(bad_period(trace.tasks))
        assert learner.stats.period_count == 1
        learner.feed(trace[1])
        learner.feed(trace[2])
        clean = ExactLearner(trace.tasks)
        clean.feed_trace(trace)
        assert set(learner.result().functions) == set(
            clean.result().functions
        )

    def test_exact_feed_recovers_after_cap(self):
        trace = paper_figure2_trace()
        learner = ExactLearner(trace.tasks, max_hypotheses=1)
        with pytest.raises(LearningError):
            learner.feed(trace[0])
        assert learner.stats.period_count == 0
        assert learner.hypothesis_count == 1
        # Raising the cap afterwards works on the untouched state.
        learner.max_hypotheses = 2_000_000
        learner.feed_trace(trace)
        clean = ExactLearner(trace.tasks)
        clean.feed_trace(trace)
        assert set(learner.result().functions) == set(
            clean.result().functions
        )

    def test_incremental_weights_survive_a_rolled_back_period(self):
        # The regression this guards: a failed feed must not leave carried
        # weights half-refreshed against statistics that were rolled back.
        trace = random_trace("branchy", task_count=8, periods=6, seed=2)
        learner = BoundedLearner(trace.tasks, bound=6)
        for index, period in enumerate(trace.periods):
            learner.feed(period)
            if index == 2:
                with pytest.raises(EmptyHypothesisSpaceError):
                    learner.feed(bad_period(trace.tasks))
            for hypothesis in learner._hypotheses:
                mask = learner.table.mask_of(hypothesis.pairs)
                assert learner._weights[mask] == set_weight(
                    hypothesis.pairs, learner.stats
                )
