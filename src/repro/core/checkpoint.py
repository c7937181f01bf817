"""Learner checkpointing: save and resume long learning runs.

Field traces arrive in sessions (a day of logging at a time); the
incremental learners already support feeding periods across calls, and
this module makes their state durable between processes::

    learner = BoundedLearner(tasks, bound=32)
    learner.feed_trace(monday_trace)
    save_checkpoint(learner, "monday.ckpt.json")

    # next session
    learner = load_checkpoint("monday.ckpt.json")
    learner.feed_trace(tuesday_trace)

The checkpoint captures the complete learner state: the task universe,
the co-execution statistics, the hypothesis pair sets, the bound and
tolerance, and the run counters. Resuming is bit-identical to having fed
both traces in one process (asserted by tests).
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.exact import ExactLearner
from repro.core.heuristic import BoundedLearner
from repro.core.stats import CoExecutionStats
from repro.errors import LearningError

FORMAT_NAME = "repro-learner-checkpoint"
FORMAT_VERSION = 1


def _stats_to_dict(stats: CoExecutionStats) -> dict[str, Any]:
    return {
        "tasks": list(stats.tasks),
        "periods": stats.period_count,
        "version": stats.version,
        "executions": {
            task: stats.execution_count(task) for task in stats.tasks
        },
        "exclusive": [
            [s, r, stats.exclusive_count(s, r)]
            for s in stats.tasks
            for r in stats.tasks
            if s != r and stats.exclusive_count(s, r) > 0
        ],
    }


def _stats_from_dict(data: dict[str, Any]) -> CoExecutionStats:
    stats = CoExecutionStats(tuple(data["tasks"]))
    # Rebuild private state directly; the class owns no other invariants
    # beyond these counters.
    stats._periods = int(data["periods"])
    stats.version = int(data["version"])
    stats._executions = {
        task: int(count) for task, count in data["executions"].items()
    }
    stats._exclusive = {
        (s, r): int(count) for s, r, count in data["exclusive"]
    }
    return stats


def checkpoint_to_dict(
    learner: BoundedLearner | ExactLearner,
) -> dict[str, Any]:
    """The JSON-ready dictionary form of a learner's state.

    Checkpoints are only meaningful at period boundaries (per-period
    assumptions are transient); both learners satisfy that between
    ``feed`` calls.
    """
    if isinstance(learner, BoundedLearner):
        kind = "bounded"
        extra: dict[str, Any] = {
            "bound": learner.bound,
            "merges": learner._merges,
        }
    elif isinstance(learner, ExactLearner):
        kind = "exact"
        extra = {"max_hypotheses": learner.max_hypotheses}
    else:
        raise LearningError(f"cannot checkpoint {type(learner).__name__}")
    # The learners keep their pool as pair-index bitmasks; the public
    # checkpoint format stays string pairs. Decoding via sorted_pairs_of
    # yields index order == lexicographic order, so the JSON is identical
    # to what the pre-kernel format produced.
    table = learner.table
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": kind,
        "tolerance": learner.tolerance,
        "stats": _stats_to_dict(learner.stats),
        "hypotheses": [
            [list(pair) for pair in table.sorted_pairs_of(mask)]
            for mask in learner._masks
        ],
        "periods": learner._periods,
        "messages": learner._messages,
        "peak": learner._peak,
        "elapsed": learner._elapsed,
        **extra,
    }


def checkpoint_from_dict(
    data: dict[str, Any],
) -> BoundedLearner | ExactLearner:
    """Rebuild a learner from its checkpoint dictionary.

    A bounded checkpoint resumes as
    :class:`~repro.core.heuristic.BoundedLearner`, an exact one as
    :class:`~repro.core.exact.ExactLearner`.
    """
    if data.get("format") != FORMAT_NAME:
        raise LearningError(
            f"unexpected checkpoint format: {data.get('format')!r}"
        )
    if data.get("version") != FORMAT_VERSION:
        raise LearningError(
            f"unsupported checkpoint version: {data.get('version')!r}"
        )
    stats = _stats_from_dict(data["stats"])
    kind = data.get("kind")
    learner: BoundedLearner | ExactLearner
    if kind == "bounded":
        learner = BoundedLearner(
            stats.tasks, int(data["bound"]), float(data["tolerance"])
        )
        learner._merges = int(data.get("merges", 0))
    elif kind == "exact":
        learner = ExactLearner(
            stats.tasks,
            float(data["tolerance"]),
            int(data.get("max_hypotheses", 2_000_000)),
        )
    else:
        raise LearningError(f"unknown learner kind: {kind!r}")
    learner.stats = stats
    # Translate the public string pairs back into the learner's interned
    # masks. The kernel's weight table is rebuilt lazily on the next feed
    # (the learner detects the statistics drift), and carried weights are
    # absent on purpose: the first refresh recomputes them from scratch.
    mask_of = learner.table.mask_of
    learner._masks = [
        mask_of(tuple(pair) for pair in pairs)
        for pairs in data["hypotheses"]
    ]
    if kind == "exact":  # older checkpoints kept set-iteration order
        learner._masks.sort(key=lambda mask: (mask.bit_count(), mask))
    learner._decoded = None
    learner._periods = int(data["periods"])
    learner._messages = int(data["messages"])
    learner._peak = int(data["peak"])
    learner._elapsed = float(data["elapsed"])
    return learner


def save_checkpoint(
    learner: BoundedLearner | ExactLearner, path: str
) -> None:
    """Write the learner's state to *path* as JSON."""
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(checkpoint_to_dict(learner), stream)


def load_checkpoint(path: str) -> BoundedLearner | ExactLearner:
    """Rebuild a learner from the checkpoint at *path*."""
    with open(path, "r", encoding="utf-8") as stream:
        try:
            data = json.load(stream)
        except json.JSONDecodeError as error:
            raise LearningError(f"invalid checkpoint JSON: {error}") from error
    return checkpoint_from_dict(data)
