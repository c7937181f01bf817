"""The bounded heuristic learner (paper Section 3.2) on the mask kernel.

The exact algorithm's hypothesis set grows exponentially; the heuristic
replaces the unordered set with a weight-ordered working list of at most
``bound`` hypotheses. Every time an extension pushes the list one past the
bound, the two hypotheses of least weight are replaced by their least upper
bound (pair-set union). Weight is the paper's Definition 8: the sum over
all ordered task pairs of the square distance of the pair's dependency
value from the lattice bottom, so merging the lightest pair sacrifices the
least specificity.

The heuristic is sound (Theorem 2) but conservative: the result is no
longer guaranteed to be the most-specific set. The paper's Lemma shows the
LUB of its output equals the bound-1 output, and Theorem 4 that on
convergence it coincides with the exact result; both are checked
empirically by ``repro.theory.theorems`` and experiment E4.

Three implementation notes:

* The hot loop runs entirely on the interned representation of
  :mod:`repro.core.interning`: a hypothesis in flight is a ``(mask,
  period_mask, weight)`` triple of two ints and a number. Extension is
  ``mask | bit``, the LUB merge is ``|``, pool dedup keys are ``(mask,
  period_mask)`` int tuples, and every Definition 8 delta is a couple of
  list lookups in the :class:`~repro.core.interning.WeightKernel` term
  table. Because the table assigns pair indices in lexicographic order,
  iterating candidate bits ascending, sorting, dict insertion and heap
  tie-breaking all reproduce the string-kernel reference
  (:mod:`repro.core.reference`) bit for bit — asserted by the property
  tests.
* Weights are maintained incrementally, both *within* and *across*
  periods. Within a period, extending a hypothesis by one pair changes at
  most two dependency-function entries (the pair and its mirror), so the
  child's weight is the parent's plus an O(1) delta; a merge adds one
  delta per pair unique to the second parent. Across periods, the only
  thing that can change a carried hypothesis's weight is an
  ``always_implies`` flip, and :meth:`CoExecutionStats.add_period` reports
  exactly the flipped (*dirty*) ordered pairs — so the per-period refresh
  applies one O(1) delta per dirty pair intersecting the hypothesis's
  touched set instead of re-evaluating Definition 8 over all ``t^2``
  entries. The same dirty indices refresh the kernel's term table (and
  un-refresh it when a failed period rolls back). This is what makes the
  paper's ``O(m b^2 + m b t^2)`` bound reachable in Python; the
  :class:`~repro.core.instrumentation.HotLoopCounters` carried on the
  result attest it (zero from-scratch refreshes on periods with no dirty
  pairs).
* Merging must preserve a *valid per-period assignment*. A merged
  hypothesis inherits the first parent's per-period assumptions: they are
  a legal distinct assignment of the period's messages so far, and remain
  legal inside the union pair set. If a later message still finds every
  candidate claimed, the whole period's assignment is *recomputed* by
  backtracking over the period's candidate history, preferring pairs the
  hypothesis already assumed (so the recovery generalizes minimally).
  Both rules keep every kept hypothesis matching every processed instance,
  which is what Theorem 2 requires of the heuristic.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Iterable, Sequence

from repro.core import lattice
from repro.core.base import MaskedLearner
from repro.core.instrumentation import hot_loop
from repro.core.candidates import candidate_pairs
from repro.core.hypothesis import Hypothesis
from repro.core.interning import WeightKernel
from repro.core.result import LearningResult
from repro.core.weights import DistanceFunction, square_distance
from repro.errors import EmptyHypothesisSpaceError
from repro.trace.events import MessageOccurrence
from repro.trace.period import Period
from repro.trace.trace import Trace

#: Pool identity of an in-flight hypothesis: ``(pair mask, period mask)``.
_PoolKey = tuple[int, int]

#: One in-flight hypothesis: ``(pair mask, period mask, weight)``.
_Entry = tuple[int, int, int]


class BoundedLearner(MaskedLearner):
    """Incremental heuristic learner with a hypothesis bound.

    Parameters
    ----------
    tasks:
        The task universe ``T``.
    bound:
        Maximum number of hypotheses kept (paper's ``b``); must be >= 1.
    tolerance:
        Timing tolerance passed to candidate computation.
    distance:
        Per-value weight contribution (paper Definition 7 by default);
        see :mod:`repro.core.weights` for alternatives and the
        monotonicity requirement.
    incremental_weights:
        When True (the default), carried-over hypothesis weights are
        refreshed per period by dirty-pair deltas instead of from-scratch
        Definition 8 evaluation. The False setting re-derives every
        weight each period — it exists as the differential-testing and
        benchmarking baseline and learns bit-identical results.
    """

    def __init__(
        self,
        tasks: Iterable[str],
        bound: int,
        tolerance: float = 0.0,
        distance: DistanceFunction = lattice.distance,
        incremental_weights: bool = True,
    ):
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        super().__init__(tasks, tolerance)
        self.bound = bound
        self.distance = distance
        self._incremental = incremental_weights
        # The default distance is what Hypothesis.weight reports, so only
        # then may carried weights be primed into its memo.
        self._prime_memo = incremental_weights and (
            distance is lattice.distance or distance is square_distance
        )
        #: Carried Definition 8 weight per surviving pair mask. The empty
        #: hypothesis weighs 0 under any statistics and distance.
        self._weights: dict[int, int] = {0: 0}
        self._merges = 0
        self._sequence = itertools.count()
        #: Term table of the current statistics; (re)built lazily on the
        #: first absorb and maintained by dirty-index flips afterwards.
        self._kernel: WeightKernel | None = None
        self._kernel_version = -1

    # ------------------------------------------------------------------
    # Learning (the base class owns the all-or-nothing envelope)
    # ------------------------------------------------------------------

    def _save_run_state(self) -> object:
        return (self._messages, self._peak, self._merges)

    def _restore_run_state(self, state: object) -> None:
        self._messages, self._peak, self._merges = state
        # The rolled-back period's flips were undone in _absorb, so the
        # kernel again matches the statistics content — resync the version
        # marker (remove_period bumped it) so the next feed keeps the
        # incremental flip path instead of rebuilding the table.
        self._kernel_version = self.stats.version

    @hot_loop
    def _absorb(
        self, period: Period, dirty: frozenset[tuple[str, str]], mark: float
    ) -> list[_Entry]:
        counters = self._counters
        table = self.table
        dirty_indices = table.indices_of(dirty)
        version = self.stats.version
        if self._kernel is None or self._kernel_version != version - 1:
            # Fresh or drifted statistics (construction, checkpoint
            # restore, shard merge): rebuild the term table outright. The
            # post-add statistics already carry this period's flips.
            self._kernel = WeightKernel(table, self.stats, self.distance)
        elif dirty_indices:
            self._kernel.flip(dirty_indices)
        self._kernel_version = version
        try:
            entries = self._refresh_weights(dirty_indices)
            now = time.perf_counter()
            counters.refresh_seconds += now - mark
            mark = now
            entries = self._process_period(period, entries)
            counters.process_seconds += time.perf_counter() - mark
            return entries
        except Exception:
            # Keep the term table consistent with the statistics rollback
            # the feed envelope is about to perform.
            self._kernel.unflip(dirty_indices)
            raise

    @hot_loop
    def _process_period(
        self, period: Period, entries: list[_Entry]
    ) -> list[_Entry]:
        """Run the period's messages over the refreshed carried entries."""
        history: list[tuple[int, ...]] = []
        for message in period.messages:
            bits = self._message_bits(period, message)
            history.append(bits)
            entries = self._process_message(entries, bits, history)
            self._messages += 1
            self._peak = max(self._peak, len(entries))
        return entries

    def _message_bits(
        self, period: Period, message: MessageOccurrence
    ) -> tuple[int, ...]:
        """Candidate pair bits of one message (canonical ascending order)."""
        pairs = candidate_pairs(period, message, self.tolerance)
        if not pairs:
            raise EmptyHypothesisSpaceError(self._periods)
        self._counters.observe_candidates(len(pairs))
        return self.table.bits_of(pairs)

    @hot_loop
    def _finish_period(self, pending: list[_Entry], dirty: frozenset[tuple[str, str]]) -> None:
        # Drop assumptions and unify equal pair sets. Unlike the exact
        # algorithm, the heuristic keeps dominated hypotheses: deleting a
        # strict generalization can remove pairs from the working list's
        # union that the bound-1 run retains, which would falsify the
        # paper's Lemma (⊔D*(b) = d*(1)). The union of kept pair sets is
        # invariant under extension, merging and equality-unification —
        # redundancy deletion is the only operation that could break it.
        by_mask: dict[int, int] = {}
        for mask, _period_mask, weight in pending:
            by_mask[mask] = weight
        self._masks = list(by_mask)
        self._decoded = None
        if self._incremental:
            self._weights = by_mask

    # Boundary code: primes decoded Hypothesis objects, not the mask pool.
    # repro-lint: ignore[RL002]
    def _prime_decoded(self, decoded: list[Hypothesis]) -> None:
        # Decoding happens at the boundary (result(), checkpoints,
        # sharding); seed the Hypothesis.weight memo with the carried
        # Definition 8 weights so the result sort never recomputes them.
        if not self._prime_memo:
            return
        version = self.stats.version
        weights = self._weights
        for hypothesis, mask in zip(decoded, self._masks):
            weight = weights.get(mask)
            if weight is not None:
                hypothesis.prime_weight(version, weight)

    @hot_loop
    def _refresh_weights(self, dirty_indices: Sequence[int]) -> list[_Entry]:
        """Bring carried hypothesis weights up to date with the new period.

        A carried weight is stale only in the terms of dirty indices the
        mask touches, each a constant-time delta. From-scratch evaluation
        remains as the fallback for masks without a carried weight (after
        a checkpoint resume) and as the whole refresh when incremental
        maintenance is disabled.
        """
        counters = self._counters
        kernel = self._kernel
        assert kernel is not None
        flip_delta = kernel.flip_delta
        weights = self._weights if self._incremental else None
        entries: list[_Entry] = []
        for mask in self._masks:
            carried = weights.get(mask) if weights is not None else None
            if carried is None:
                weight = kernel.set_weight(mask)
                counters.weight_refresh_scratch += 1
                counters.weight_scratch_calls += 1
            else:
                weight = carried
                for index in dirty_indices:
                    weight += flip_delta(mask, index)
                counters.weight_refresh_incremental += 1
            entries.append((mask, 0, weight))
        return entries

    @hot_loop
    def _process_message(
        self,
        entries: list[_Entry],
        bits: Sequence[int],
        history: Sequence[Sequence[int]],
    ) -> list[_Entry]:
        """One generalization step: extend every hypothesis, keep <= bound."""
        kernel = self._kernel
        assert kernel is not None
        extension_delta = kernel.extension_delta
        union_delta = kernel.union_delta
        bound = self.bound
        sequence = self._sequence
        pool: dict[_PoolKey, int] = {}
        heap: list[tuple[int, int, _PoolKey]] = []
        pop_lightest = self._pop_lightest

        def insert(mask: int, period_mask: int, weight: int) -> None:
            key = (mask, period_mask)
            if key in pool:
                return
            pool[key] = weight
            heapq.heappush(heap, (weight, next(sequence), key))
            while len(pool) > bound:
                (mask1, pmask1), weight1 = pop_lightest(pool, heap)
                (mask2, pmask2), _weight2 = pop_lightest(pool, heap)
                merged_key = (mask1 | mask2, pmask1 | pmask2)
                merged_weight = weight1 + union_delta(mask1, mask2)
                self._merges += 1
                if merged_key not in pool:
                    pool[merged_key] = merged_weight
                    heapq.heappush(
                        heap, (merged_weight, next(sequence), merged_key)
                    )

        for mask, period_mask, weight in entries:
            feasible = [bit for bit in bits if not period_mask & bit]
            if feasible:
                for bit in feasible:
                    insert(
                        mask | bit,
                        period_mask | bit,
                        weight + extension_delta(mask, bit),
                    )
            else:
                # Merged-lineage corner case: the inherited assignment
                # claims every candidate of this message. Recompute a
                # legal assignment for the whole period so far.
                repaired = self._reassign_period(mask, history)
                self._counters.reassignments += 1
                if repaired is not None:
                    repaired_mask, repaired_period = repaired
                    self._counters.weight_scratch_calls += 1
                    insert(
                        repaired_mask,
                        repaired_period,
                        kernel.set_weight(repaired_mask),
                    )
        if not pool:
            raise EmptyHypothesisSpaceError(self._periods)
        return [(mask, pmask, weight) for (mask, pmask), weight in pool.items()]

    @staticmethod
    @hot_loop
    def _reassign_period(
        mask: int, history: Sequence[Sequence[int]]
    ) -> tuple[int, int] | None:
        """Find a fresh distinct assignment of the period's messages.

        Candidate bits already assumed by the hypothesis are preferred so
        the repair generalizes as little as possible. Returns the repaired
        ``(mask, period_mask)`` or None when no assignment exists (the
        pool's other lineages may still survive). Bit order is index
        order is lexicographic pair order, so the backtracking explores
        assignments exactly as the string reference does.
        """
        options = sorted(
            (
                sorted(bits, key=lambda bit: not mask & bit),
                index,
            )
            for index, bits in enumerate(history)
        )
        # Most-constrained message first.
        options.sort(key=lambda item: len(item[0]))
        used = 0

        def backtrack(position: int) -> bool:
            nonlocal used
            if position == len(options):
                return True
            for bit in options[position][0]:
                if used & bit:
                    continue
                used |= bit
                if backtrack(position + 1):
                    return True
                used &= ~bit
            return False

        if not backtrack(0):
            return None
        # Also generalize by the current message's full candidate set (the
        # last history entry): an unbounded run would have spawned one
        # extension per candidate, and their LUB contributes all of them.
        # Keeping that contribution preserves the paper's Lemma — the LUB
        # of the bounded output stays equal to the bound-1 hypothesis.
        current = 0
        for bit in history[-1]:
            current |= bit
        return mask | used | current, used

    @staticmethod
    @hot_loop
    def _pop_lightest(
        pool: dict[_PoolKey, int],
        heap: list[tuple[int, int, _PoolKey]],
    ) -> tuple[_PoolKey, int]:
        """Pop the least-weight live entry (heap entries are lazily stale)."""
        while True:
            _weight, _seq, key = heapq.heappop(heap)
            weight = pool.pop(key, None)
            if weight is not None:
                return key, weight

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def result(self) -> LearningResult:
        """The current hypothesis list as a result object."""
        ordered = sorted(
            self._hypotheses,
            key=lambda h: (h.weight(self.stats), sorted(h.pairs)),
        )
        return LearningResult(
            functions=[h.to_function(self.stats) for h in ordered],
            hypotheses=ordered,
            stats=self.stats,
            algorithm="heuristic",
            bound=self.bound,
            periods=self._periods,
            messages=self._messages,
            peak_hypotheses=self._peak,
            elapsed_seconds=self._elapsed,
            merge_count=self._merges,
            hot_loop=self._counters.copy(),
        )


def learn_bounded(
    trace: Trace,
    bound: int,
    tolerance: float = 0.0,
    distance: DistanceFunction = lattice.distance,
) -> LearningResult:
    """Run the bounded heuristic over a complete trace."""
    learner = BoundedLearner(trace.tasks, bound, tolerance, distance)
    learner.feed_trace(trace)
    return learner.result()
