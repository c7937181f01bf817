"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause
while still being able to distinguish the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` library."""


class TraceError(ReproError):
    """A trace is malformed or violates the paper's trace assumptions.

    Examples: a task starting twice in one period, a message whose falling
    edge precedes its rising edge, or a message crossing a period boundary.
    """


class TraceParseError(TraceError):
    """A textual or CSV trace could not be parsed."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class ModelError(ReproError):
    """A system design model is structurally invalid.

    Examples: a message edge referring to an unknown task, a cyclic design
    graph (the control-flow MOC requires acyclic periods), or duplicate task
    names.
    """


class SimulationError(ReproError):
    """The simulator reached an inconsistent state.

    This indicates a bug in a scenario definition, e.g. a period too short
    for all scheduled work so that a message would cross the boundary.
    """


class LearningError(ReproError):
    """The learning algorithm cannot continue."""


class ShardExecutionError(LearningError):
    """A shard of a parallel learn failed beyond the recovery policy.

    Raised by the fault-tolerant shard runtime
    (:mod:`repro.core.shardexec`) when a shard's worker keeps failing
    past its retry budget — or the process pool is irrecoverably broken
    — and the policy forbids degrading to in-process sequential learning
    (``degrade='fail'``). The message always names the failing shard's
    period range and attempt count, never a bare ``BrokenProcessPool``.
    A shard that raises a :class:`LearningError` of its own is not a
    fault of the runtime: that error surfaces unchanged.
    """


class EmptyHypothesisSpaceError(LearningError):
    """Every hypothesis died: the trace is inconsistent with the MOC.

    Mirrors the paper's Section 3.1 failure mode: either the instances
    contain errors, or the generalization language is not expressive enough
    to describe the observed behaviour.
    """

    def __init__(self, period_index: int, message_index: int | None = None):
        self.period_index = period_index
        self.message_index = message_index
        detail = f"period {period_index}"
        if message_index is not None:
            detail += f", message {message_index}"
        super().__init__(
            "hypothesis space became empty while processing "
            f"{detail}: the trace violates the model-of-computation "
            "assumptions or the hypothesis lattice is not expressive enough"
        )

    def __reduce__(self):
        # Rebuild from the indices: the default passes the formatted
        # message back in as ``period_index`` and nests it in itself.
        return type(self), (self.period_index, self.message_index)


class AnalysisError(ReproError):
    """A downstream analysis was asked an ill-posed question.

    Examples: a latency query over tasks that never execute, or a property
    query naming an unknown task.
    """
