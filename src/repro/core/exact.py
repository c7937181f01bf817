"""The exact (exponential) generalization algorithm (paper Section 3.1).

The learner starts from the singleton set ``{d⊥}`` and processes one period
at a time. Within a period it analyzes each message in bus order: every
current hypothesis is extended with every feasible sender-receiver
assumption for the message (feasible = temporally possible and not already
used for another message of the same period). Hypotheses with no feasible
extension die. At the end of the period the per-period assumptions are
dropped, equal hypotheses are unified, and hypotheses that are strict
generalizations of another survivor are deleted.

The hypothesis set grows exponentially in the number of messages in the
worst case; Theorem 1 shows the underlying problem is NP-hard, so this is
unavoidable for an exact most-specific-set algorithm.

The working set is never built. Every hypothesis in flight is a survivor
``s`` plus the period's assignment mask ``p``, and feasibility reads only
``p``, so the set is the product ``{(s | p, p)}`` of the survivors and
the period's reachable assignments, which are enumerated once per period.
Its size, the paper's peak, is counted only when it could move the peak
or trip the cap (``docs/algorithm.md`` §4).
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

from repro.core.base import MaskedLearner
from repro.core.batch import batch_cleared_counts, batch_minimal_products
from repro.core.instrumentation import hot_loop
from repro.core.candidates import candidate_pairs
from repro.core.result import LearningResult
from repro.errors import EmptyHypothesisSpaceError, LearningError
from repro.trace.period import Period
from repro.trace.trace import Trace


@hot_loop
def _working_set_size(survivors: Sequence[int], reachable: Sequence[int]) -> int:
    """``|G_j| = Σ_{p∈P_j} |{s & ~p : s ∈ S}|``.

    Only the bits of ``p`` that some but not every survivor holds change
    the count: bits no survivor holds are cleared anyway, and clearing a
    bit every survivor holds is injective. So assignments are grouped by
    ``p & varying`` and each group is counted once.
    """
    union, common = 0, ~0
    for mask in survivors:
        union |= mask
        common &= mask
    varying = union & ~common
    groups: dict[int, int] = {}
    for period_mask in reachable:
        key = period_mask & varying
        groups[key] = groups.get(key, 0) + 1
    counts = batch_cleared_counts(survivors, list(groups))
    return sum(times * count for times, count in zip(groups.values(), counts))


class ExactLearner(MaskedLearner):
    """Incremental exact learner over a fixed task universe.

    Feed periods one at a time with :meth:`feed` (all-or-nothing, see
    :class:`~repro.core.base.IncrementalLearner`); read the current
    most-specific set at any point with :meth:`result`. Survivors are
    kept in canonical ``(popcount, mask)`` order.

    Parameters
    ----------
    tasks:
        The task universe ``T``.
    tolerance:
        Timing tolerance passed to candidate computation.
    max_hypotheses:
        Safety valve: abort with :class:`~repro.errors.LearningError` if the
        working set exceeds this size (the exact algorithm is exponential;
        runaway inputs are better stopped than swapped to death).
    """

    def __init__(
        self,
        tasks: Iterable[str],
        tolerance: float = 0.0,
        max_hypotheses: int = 2_000_000,
    ):
        super().__init__(tasks, tolerance)
        self.max_hypotheses = max_hypotheses

    # ------------------------------------------------------------------
    # Learning (the base class owns the all-or-nothing envelope)
    # ------------------------------------------------------------------

    def _save_run_state(self) -> object:
        return (self._messages, self._peak)

    def _restore_run_state(self, state: object) -> None:
        self._messages, self._peak = state

    @hot_loop
    def _absorb(
        self, period: Period, dirty: frozenset[tuple[str, str]], mark: float
    ) -> Sequence[int]:
        counters = self._counters
        table = self.table
        survivors = self._masks
        limit = self.max_hypotheses
        reachable: Sequence[int] = (0,)
        for message in period.messages:
            pairs = candidate_pairs(period, message, self.tolerance)
            counters.observe_candidates(len(pairs))
            bits = table.bits_of(pairs)
            reachable = list(
                {p | bit: None for p in reachable for bit in bits if not p & bit}
            )
            if not reachable or not survivors:
                raise EmptyHypothesisSpaceError(self._periods, len(pairs))
            # |P_j| <= |G_j| <= |S|·|P_j|: count only if the peak can move.
            ceiling = len(survivors) * len(reachable)
            if ceiling > self._peak or ceiling > limit:
                size = len(reachable)
                if size <= limit:
                    size = _working_set_size(survivors, reachable)
                if size > limit:
                    raise LearningError(
                        f"exact learner exceeded {limit} hypotheses "
                        f"in period {self._periods}; use the bounded heuristic"
                    )
                self._peak = max(self._peak, size)
            self._messages += 1
        counters.process_seconds += time.perf_counter() - mark
        return reachable

    def _finish_period(
        self, pending: Sequence[int], dirty: frozenset[tuple[str, str]]
    ) -> None:
        # Drop the assumptions, unify, remove the redundant.
        self._masks = batch_minimal_products(self._masks, pending)
        self._decoded = None

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def result(self) -> LearningResult:
        """The current most-specific hypothesis set as a result object."""
        ordered = sorted(
            self._hypotheses,
            key=lambda h: (h.weight(self.stats), sorted(h.pairs)),
        )
        return LearningResult(
            functions=[h.to_function(self.stats) for h in ordered],
            hypotheses=ordered,
            stats=self.stats,
            algorithm="exact",
            bound=None,
            periods=self._periods,
            messages=self._messages,
            peak_hypotheses=self._peak,
            elapsed_seconds=self._elapsed,
            hot_loop=self._counters.copy(),
        )


def learn_exact(
    trace: Trace,
    tolerance: float = 0.0,
    max_hypotheses: int = 2_000_000,
) -> LearningResult:
    """Run the exact algorithm over a complete trace."""
    learner = ExactLearner(trace.tasks, tolerance, max_hypotheses)
    learner.feed_trace(trace)
    return learner.result()
