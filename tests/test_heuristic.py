"""Unit tests for the bounded heuristic learner (paper Section 3.2)."""

import pytest

from repro.core.exact import learn_exact
from repro.core.heuristic import BoundedLearner, learn_bounded, lub_model
from repro.core.hypothesis import Hypothesis
from repro.core.lattice import DETERMINES, MAY_DETERMINE, MUTUAL, PARALLEL
from repro.core.reference import extension_delta, pair_value, union_weight
from repro.core.stats import CoExecutionStats
from repro.errors import LearningError
from repro.trace.synthetic import paper_figure2_trace, serial_chain_trace


class TestWeightHelpers:
    def make_stats(self):
        stats = CoExecutionStats(("a", "b", "c"))
        stats.add_period({"a", "b", "c"})
        stats.add_period({"a", "b"})
        return stats

    def test_pair_value_matches_hypothesis_value(self):
        stats = self.make_stats()
        pairs = frozenset({("a", "b"), ("c", "a")})
        hypothesis = Hypothesis(pairs)
        for x in ("a", "b", "c"):
            for y in ("a", "b", "c"):
                if x != y:
                    assert pair_value(pairs, x, y, stats) is hypothesis.value(
                        x, y, stats
                    )

    def test_extension_delta_consistent_with_full_weight(self):
        stats = self.make_stats()
        base = Hypothesis(frozenset({("a", "b")}))
        for pair in (("b", "a"), ("a", "c"), ("c", "b")):
            extended = Hypothesis(base.pairs | {pair})
            delta = extension_delta(base.pairs, pair, stats)
            assert base.weight(stats) + delta == extended.weight(stats)

    def test_extension_delta_zero_for_existing_pair(self):
        stats = self.make_stats()
        base = Hypothesis(frozenset({("a", "b")}))
        assert extension_delta(base.pairs, ("a", "b"), stats) == 0

    def test_union_weight_consistent(self):
        stats = self.make_stats()
        left = Hypothesis(frozenset({("a", "b"), ("b", "c")}))
        right = Hypothesis(frozenset({("b", "a"), ("c", "a")}))
        merged = left.merge(right)
        assert (
            union_weight(left.pairs, left.weight(stats), right.pairs, stats)
            == merged.weight(stats)
        )


class TestBoundedLearning:
    def test_bound_validation(self):
        with pytest.raises(ValueError):
            BoundedLearner(("a",), bound=0)

    def test_bound_one_always_converges(self):
        result = learn_bounded(paper_figure2_trace(), 1)
        assert result.converged
        assert result.algorithm == "heuristic"
        assert result.bound == 1

    def test_large_bound_covers_exact_set(self):
        # With a bound above the peak no merging happens; the heuristic's
        # minimal frontier is then exactly the exact algorithm's output
        # (the heuristic also retains dominated hypotheses — its Lemma
        # guarantee lives in the whole list's LUB).
        trace = paper_figure2_trace()
        bounded = learn_bounded(trace, 100)
        exact = learn_exact(trace)
        assert set(bounded.minimal_functions()) == set(exact.functions)
        assert set(exact.functions) <= set(bounded.functions)
        assert bounded.merge_count == 0

    def test_lemma_lub_equals_bound_one(self):
        trace = paper_figure2_trace()
        reference = learn_bounded(trace, 1).unique
        for bound in (2, 3, 5, 8, 50):
            assert learn_bounded(trace, bound).lub() == reference

    def test_bound_one_equals_exact_lub(self):
        trace = paper_figure2_trace()
        assert learn_bounded(trace, 1).unique == learn_exact(trace).lub()

    def test_hypothesis_count_never_exceeds_bound(self):
        trace = paper_figure2_trace()
        for bound in (1, 2, 3):
            result = learn_bounded(trace, bound)
            assert result.peak_hypotheses <= bound
            assert len(result.functions) <= bound

    def test_merge_counter_counts_merges(self):
        trace = paper_figure2_trace()
        assert learn_bounded(trace, 1).merge_count > 0

    def test_soundness_on_chain(self):
        from repro.core.matching import matches_trace

        trace = serial_chain_trace(5, 4)
        for bound in (1, 3, 10):
            result = learn_bounded(trace, bound)
            for function in result.functions:
                assert matches_trace(function, trace)

    def test_generalization_monotone_in_smaller_bound(self):
        # A smaller bound can only make the result more general: the
        # bound-1 hypothesis is an upper bound of any bounded run's LUB.
        trace = serial_chain_trace(5, 4)
        top = learn_bounded(trace, 1).unique
        for bound in (2, 4, 16):
            assert learn_bounded(trace, bound).lub() == top

    def test_incremental_equals_batch(self):
        trace = paper_figure2_trace()
        learner = BoundedLearner(trace.tasks, bound=3)
        for period in trace:
            learner.feed(period)
        batch = learn_bounded(trace, 3)
        assert set(learner.result().functions) == set(batch.functions)


class TestLemmaCertificate:
    """learn_bounded checks its LUB against the one pass."""

    def test_one_pass_equals_the_learned_lub(self):
        trace = paper_figure2_trace()
        model = lub_model(trace.tasks, trace.periods)
        for bound in (1, 3, 8):
            result = learn_bounded(trace, bound)
            assert result.lub() == Hypothesis(model.pairs).to_function(
                model.stats
            )

    @pytest.mark.parametrize("side", ["bounded run's", "one-pass"])
    def test_a_differing_pair_is_named(self, monkeypatch, side):
        import repro.core.heuristic as heuristic

        trace = paper_figure2_trace()
        table = BoundedLearner(trace.tasks, 1).table
        model = lub_model(trace.tasks, trace.periods)
        full = model.pairs_mask
        if side == "bounded run's":
            forged = full ^ (full & -full)  # drop the first pair
        else:
            outside = min(
                (s, r) for s in trace.tasks for r in trace.tasks
                if s != r and (s, r) not in model.pairs
            )
            forged = full | table.mask_of([outside])

        def forged_lub_model(*args, **kwargs):
            model = lub_model(*args, **kwargs)
            model.pairs_mask = forged
            return model

        monkeypatch.setattr(heuristic, "lub_model", forged_lub_model)
        differ = forged ^ full
        pair = table.pair_at((differ & -differ).bit_length() - 1)
        with pytest.raises(LearningError, match="Lemma certificate") as info:
            learn_bounded(trace, 4)
        assert str(pair) in str(info.value)
        assert f"only in the {side} LUB" in str(info.value)


class TestRuntimeScaling:
    def test_runtime_grows_with_bound(self):
        # Qualitative shape of the paper's Section 3.4 table: a strictly
        # larger bound processes at least as many hypothesis extensions.
        trace = serial_chain_trace(6, 6)
        peaks = [
            learn_bounded(trace, bound).peak_hypotheses
            for bound in (1, 4, 16)
        ]
        assert peaks == sorted(peaks)
        assert peaks[0] < peaks[-1]
