"""Learning results: what a run of either algorithm returns.

A :class:`LearningResult` bundles the surviving most-specific hypotheses
(as materialized :class:`~repro.core.depfunc.DependencyFunction` objects),
their least upper bound (the paper's ``dLUB``, reported when the algorithm
does not converge to a single hypothesis), and run metadata used by the
benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.depfunc import DependencyFunction, lub_many
from repro.core.hypothesis import Hypothesis
from repro.core.instrumentation import HotLoopCounters
from repro.core.stats import CoExecutionStats


@dataclass
class LearningResult:
    """Outcome of a learning run.

    Attributes
    ----------
    functions:
        The surviving most-specific dependency functions, one per
        hypothesis, in deterministic order (ascending weight, then by the
        sorted pair set).
    hypotheses:
        The surviving hypotheses in pair-set form, aligned with
        ``functions``.
    stats:
        The co-execution statistics accumulated over the trace.
    algorithm:
        ``"exact"`` or ``"heuristic"``.
    bound:
        The heuristic's hypothesis bound; ``None`` for the exact algorithm.
    periods:
        Number of instances processed.
    messages:
        Number of message occurrences processed (the paper's ``m``).
    peak_hypotheses:
        Largest hypothesis-set size observed during the run — the exact
        algorithm's exponential growth shows up here.
    elapsed_seconds:
        Wall-clock learning time (excludes trace construction).
    workers:
        Number of parallel shards the trace was learned over (1 for the
        sequential learners). A ``workers > 1`` result is the sound LUB
        merge of per-shard bounded runs — see :mod:`repro.core.sharded`.
    hot_loop:
        Hot-loop instrumentation snapshot
        (:class:`~repro.core.instrumentation.HotLoopCounters`): dirty-pair
        counts, weight-recompute counters, candidate-set sizes, and
        per-phase timings. ``None`` for results built outside the
        incremental learners.
    """

    functions: list[DependencyFunction]
    hypotheses: list[Hypothesis]
    stats: CoExecutionStats
    algorithm: str
    bound: int | None = None
    periods: int = 0
    messages: int = 0
    peak_hypotheses: int = 0
    elapsed_seconds: float = 0.0
    merge_count: int = field(default=0)
    workers: int = 1
    hot_loop: HotLoopCounters | None = None

    @property
    def converged(self) -> bool:
        """True if exactly one most-specific hypothesis survived."""
        return len(self.functions) == 1

    @property
    def unique(self) -> DependencyFunction:
        """The single surviving function; raises if not converged."""
        if not self.converged:
            raise ValueError(
                f"algorithm did not converge: {len(self.functions)} hypotheses remain"
            )
        return self.functions[0]

    def lub(self) -> DependencyFunction:
        """The pointwise LUB of all surviving functions (paper's ``dLUB``)."""
        return lub_many(self.functions)

    def minimal_functions(self) -> list[DependencyFunction]:
        """The most-specific subset of the surviving functions.

        The exact algorithm already prunes dominated hypotheses; the
        bounded heuristic keeps them (its Lemma guarantee lives in the
        whole list's LUB), so use this accessor when only the minimal
        frontier is of interest.
        """
        return [
            function
            for function in self.functions
            if not any(
                other.lt(function) for other in self.functions
            )
        ]

    def summary(self) -> str:
        """A short human-readable report of the run."""
        lines = [
            f"algorithm       : {self.algorithm}"
            + (f" (bound={self.bound})" if self.bound is not None else "")
            + (f" (workers={self.workers})" if self.workers > 1 else ""),
            f"periods         : {self.periods}",
            f"messages        : {self.messages}",
            f"hypotheses left : {len(self.functions)}",
            f"peak hypotheses : {self.peak_hypotheses}",
            f"converged       : {self.converged}",
            f"elapsed         : {self.elapsed_seconds:.3f} s",
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"LearningResult(algorithm={self.algorithm!r}, bound={self.bound}, "
            f"hypotheses={len(self.functions)}, converged={self.converged})"
        )
