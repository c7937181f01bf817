"""Unit tests for learner checkpointing."""

import pytest

from repro.core.checkpoint import (
    checkpoint_from_dict,
    checkpoint_to_dict,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.exact import ExactLearner
from repro.core.heuristic import BoundedLearner
from repro.errors import LearningError
from repro.trace.synthetic import paper_figure2_trace


class TestRoundTrip:
    def test_bounded_resume_equals_continuous(self, tmp_path):
        trace = paper_figure2_trace()
        # Continuous run.
        continuous = BoundedLearner(trace.tasks, bound=4)
        continuous.feed_trace(trace)
        # Checkpointed run: 1 period, save, load, 2 more periods.
        first = BoundedLearner(trace.tasks, bound=4)
        first.feed(trace[0])
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(first, path)
        resumed = load_checkpoint(path)
        resumed.feed(trace[1])
        resumed.feed(trace[2])
        assert set(resumed.result().functions) == set(
            continuous.result().functions
        )
        assert resumed.result().lub() == continuous.result().lub()

    def test_exact_resume_equals_continuous(self, tmp_path):
        trace = paper_figure2_trace()
        continuous = ExactLearner(trace.tasks)
        continuous.feed_trace(trace)
        first = ExactLearner(trace.tasks)
        first.feed(trace[0])
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(first, path)
        resumed = load_checkpoint(path)
        assert isinstance(resumed, ExactLearner)
        resumed.feed(trace[1])
        resumed.feed(trace[2])
        assert set(resumed.result().functions) == set(
            continuous.result().functions
        )

    def test_parent_era_bounded_checkpoint_resumes(self):
        """A bounded checkpoint written while two bounded learners
        existed has the same keys as today's (it never held a kernel
        tag) and resumes to the uninterrupted result."""
        parent_era = {
            "format": "repro-learner-checkpoint", "version": 1,
            "kind": "bounded", "tolerance": 0.0,
            "stats": {
                "tasks": ["t1", "t2", "t3", "t4"], "periods": 1,
                "version": 1,
                "executions": {"t1": 1, "t2": 1, "t3": 0, "t4": 1},
                "exclusive": [["t1", "t3", 1], ["t2", "t3", 1],
                              ["t4", "t3", 1]],
            },
            "hypotheses": [
                [["t1", "t2"], ["t1", "t4"]],
                [["t1", "t2"], ["t2", "t4"]],
                [["t1", "t4"], ["t2", "t4"]],
            ],
            "periods": 1, "messages": 2, "peak": 3, "elapsed": 0.0,
            "bound": 4, "merges": 0,
        }
        trace = paper_figure2_trace()
        first = BoundedLearner(trace.tasks, bound=4)
        first.feed(trace[0])
        saved = checkpoint_to_dict(first)
        assert set(saved) == set(parent_era)
        saved["elapsed"] = 0.0
        assert saved == parent_era
        resumed = checkpoint_from_dict(parent_era)
        resumed.feed_trace(trace.periods[1:])
        continuous = BoundedLearner(trace.tasks, bound=4)
        continuous.feed_trace(trace)
        assert resumed.result().hypotheses == continuous.result().hypotheses
        assert resumed.result().merge_count == continuous.result().merge_count

    def test_counters_preserved(self, tmp_path):
        trace = paper_figure2_trace()
        learner = BoundedLearner(trace.tasks, bound=2)
        learner.feed_trace(trace)
        restored = checkpoint_from_dict(checkpoint_to_dict(learner))
        original = learner.result()
        recovered = restored.result()
        assert recovered.periods == original.periods
        assert recovered.messages == original.messages
        assert recovered.peak_hypotheses == original.peak_hypotheses
        assert recovered.merge_count == original.merge_count

    def test_stats_preserved(self):
        trace = paper_figure2_trace()
        learner = BoundedLearner(trace.tasks, bound=4)
        learner.feed_trace(trace)
        restored = checkpoint_from_dict(checkpoint_to_dict(learner))
        for s in trace.tasks:
            assert restored.stats.execution_count(
                s
            ) == learner.stats.execution_count(s)
            for r in trace.tasks:
                if s != r:
                    assert restored.stats.exclusive_count(
                        s, r
                    ) == learner.stats.exclusive_count(s, r)


class TestValidation:
    def test_bad_format(self):
        with pytest.raises(LearningError, match="format"):
            checkpoint_from_dict({"format": "zzz", "version": 1})

    def test_bad_version(self):
        with pytest.raises(LearningError, match="version"):
            checkpoint_from_dict(
                {"format": "repro-learner-checkpoint", "version": 99}
            )

    def test_bad_kind(self):
        data = checkpoint_to_dict(BoundedLearner(("a",), 1))
        data["kind"] = "quantum"
        with pytest.raises(LearningError, match="kind"):
            checkpoint_from_dict(data)

    def test_corrupt_file(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{")
        with pytest.raises(LearningError, match="invalid checkpoint"):
            load_checkpoint(path)
