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

Implementation notes:

* The hot loop runs entirely on the interned representation of
  :mod:`repro.core.interning`: between periods a hypothesis is a pair
  mask with a carried weight, and every Definition 8 term is a list
  lookup in the :class:`~repro.core.interning.WeightKernel` term table.
  Because the table assigns pair indices in lexicographic order,
  iterating candidate bits ascending, sorting and dict insertion
  reproduce the string-kernel reference (:mod:`repro.core.reference`)
  bit for bit — asserted by the property tests
  (``tests/property/test_batch_kernel_props.py``).
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
* **Compact pair interning.** Real traces touch a small fraction of the
  ``t^2`` pair bits (the gm workload: ~130 of 324). Within a period,
  candidate bits are re-interned into a dense compact index space,
  first-seen append-only, so in-flight masks fit one or two machine
  words. Iteration stays in *canonical* bit order (ascending pair
  index), so exploration order — and therefore dedup and merge order —
  does not depend on the compact layout.
* **Interned masks.** Under fixed statistics a weight is a pure function
  of the pair mask, and with integer distances no sum rounds. So each
  distinct mask of a period is kept once (``masks[i]``) with one weight,
  and a pool key is one int, ``(i << field) | period_mask``. A child by
  bit ``b`` is feasible iff ``period_mask & b == 0``; its mask
  ``masks[i] | b`` is interned once per ``(i, candidate)`` and the child
  key is ``key`` plus a per-``(i, candidate)`` constant. Merging two
  keys of one mask is ``k1 | k2`` at the same weight; merging two masks
  interns their union, and its O(popcount) weight delta runs only when
  the union is new. On the GM trace the pool after a message holds a
  single distinct mask almost every time. A distance function with
  non-integer values is rejected with a
  :class:`~repro.errors.LearningError`: shared weights would round.
* **Per-weight FIFO pool.** The reference pops a heap in ``(weight,
  sequence)`` order, where sequence numbers only grow and entries leave
  only from the lightest end. One FIFO queue per weight plus the sorted
  list of live weights pops exactly that order.
* **Single-mask steps.** When every pool key has one mask index ``i``
  and ``masks[i]`` already holds every candidate bit of the period so
  far (a running OR, not a rescan of the history), nothing in the step
  can leave that mask: a child ``key | b`` keeps it because ``b`` is in
  it, a merge of two keys keeps it, and a repair keeps it because
  ``mask | used | current == mask``. Every key then weighs the same, so
  :meth:`BoundedLearner._process_single` runs the pool as one FIFO
  queue plus a membership set, with no weight lookups and no union
  interning. Repairs still evaluate the repaired weight, so the
  counters match the general step's. On the GM trace this step takes
  about 93% of the messages and 92% of the children.
* Merging must preserve a *valid per-period assignment*. A merged
  hypothesis inherits the first parent's per-period assumptions: they are
  a legal distinct assignment of the period's messages so far, and remain
  legal inside the union pair set. If a later message still finds every
  candidate claimed, the whole period's assignment is *recomputed* over
  the period's candidate history by the polynomial matching kernel
  :func:`repro.core.matching.first_assignment`, preferring pairs the
  hypothesis already assumed (so the recovery generalizes minimally).
  Both rules keep every kept hypothesis matching every processed instance,
  which is what Theorem 2 requires of the heuristic.
* **Period end.** :meth:`BoundedLearner._finish_period` keeps one weight
  per pair mask and drops period masks, so each distinct mask is decoded
  back to canonical bits once and period masks are never decoded.
"""

from __future__ import annotations

import numbers
import time
from bisect import insort
from collections import deque
from typing import Iterable, Sequence

from repro.core import lattice
from repro.core.base import MaskedLearner
from repro.core.instrumentation import hot_loop
from repro.core.candidates import candidate_pairs
from repro.core.hypothesis import Hypothesis
from repro.core.interning import WeightKernel
from repro.core.matching import first_assignment
from repro.core.result import LearningResult
from repro.core.weights import DistanceFunction, square_distance
from repro.errors import EmptyHypothesisSpaceError, LearningError
from repro.trace.events import MessageOccurrence
from repro.trace.period import Period
from repro.trace.trace import Trace

#: One carried hypothesis: ``(pair mask, weight)``.
_Entry = tuple[int, int]

#: The column row of a repaired key in a single-mask step: the key
#: itself, inserted once (``key | 0``).
_REPAIRED_ROW = (0,)


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
        monotonicity requirement. Its values must be integers.
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
        #: Term table of the current statistics; (re)built lazily on the
        #: first absorb and maintained by dirty-index flips afterwards.
        self._kernel: WeightKernel | None = None
        self._kernel_version = -1
        self._checked_kernel: WeightKernel | None = None
        #: canonical bit value -> compact index (first-seen, append-only)
        self._compact_of: dict[int, int] = {}
        #: compact index -> canonical bit value
        self._canonical_bit: list[int] = []
        #: compact index -> compact index of its mirror pair (the table
        #: size when the mirror is not interned)
        self._mirror_compact: list[int] = []
        self._field = 64  # period-mask field width of a pool key
        #: The period's interned compact pair masks, their Definition 8
        #: weights, and mask -> index (reset at every period start).
        self._pool_masks: list[int] = []
        self._pool_weights: list[int] = []
        self._pool_index: dict[int, int] = {}

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
        by_mask = dict(pending)
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
            entries.append((mask, weight))
        return entries

    # -- compact pair interning ----------------------------------------

    @hot_loop
    def _intern_bits(self, bits: Iterable[int]) -> bool:
        """Extend the compact table; True when the key field grew."""
        compact_of = self._compact_of
        for bit in bits:
            if bit not in compact_of:
                compact_of[bit] = len(self._canonical_bit)
                self._canonical_bit.append(bit)
        field = 64 * max(1, (len(self._canonical_bit) + 63) >> 6)
        if field != self._field:
            self._field = field
            return True
        return False

    @hot_loop
    def _encode_mask(self, mask: int) -> int:
        """Canonical mask -> compact mask (bits must be interned)."""
        compact_of = self._compact_of
        out = 0
        while mask:
            low = mask & -mask
            mask ^= low
            out |= 1 << compact_of[low]
        return out

    @hot_loop
    def _decode_compact(self, compact: int) -> int:
        """Compact mask -> canonical mask."""
        canonical = self._canonical_bit
        out = 0
        while compact:
            low = compact & -compact
            compact ^= low
            out |= canonical[low.bit_length() - 1]
        return out

    @hot_loop
    def _refresh_mirrors(self) -> None:
        """Rebuild the compact index of every compact bit's mirror pair.

        Interning a pair whose mirror arrives later changes that pair's
        mirror slot, so the table follows the compact table's size.
        """
        size = len(self._canonical_bit)
        if len(self._mirror_compact) == size:
            return
        mirror = self.table.mirror_index
        compact_of = self._compact_of
        self._mirror_compact = [
            compact_of.get(1 << mirror[bit.bit_length() - 1], size)
            for bit in self._canonical_bit
        ]

    # -- the period's pool: interned masks, combined keys --------------

    def _check_integer_terms(self) -> None:
        """Reject a term table whose weights could round when shared."""
        kernel = self._kernel
        if kernel is self._checked_kernel:
            return
        # Interned weights are shared by every hypothesis with the same
        # mask, which is exact only when term sums never round.
        if not all(
            isinstance(value, numbers.Integral)
            for value in (*kernel._d_certain, *kernel._d_maybe)
        ):
            raise LearningError(
                "the bounded learner requires an integer-valued distance "
                "function"
            )
        self._checked_kernel = kernel

    @hot_loop
    def _open_pool(
        self, entries: list[_Entry], bits: tuple[int, ...]
    ) -> list[int]:
        """Intern the carried masks and the first message's *bits*; the
        carried keys start with no period bits.

        The carried masks may hold bits that never crossed a candidate
        set (checkpoint restore, shard merge), so those are interned too.
        """
        carried = 0
        for mask, _weight in entries:
            carried |= mask
        fresh = list(bits)
        while carried:
            low = carried & -carried
            carried ^= low
            fresh.append(low)
        self._intern_bits(fresh)
        self._pool_masks = masks = []
        self._pool_weights = weights = []
        self._pool_index = index_of = {}
        field = self._field
        keys = []
        for mask, weight in entries:
            compact = self._encode_mask(mask)
            index = index_of.get(compact)
            if index is None:
                index = index_of[compact] = len(masks)
                masks.append(compact)
                weights.append(weight)
            keys.append(index << field)
        return keys

    @hot_loop
    def _process_period(
        self, period: Period, entries: list[_Entry]
    ) -> list[_Entry]:
        """Run the period's messages over combined keys; returns one
        ``(mask, weight)`` entry per distinct surviving pair mask."""
        self._check_integer_terms()
        counters = self._counters
        history: list[tuple[int, ...]] = []
        keys: list[int] | None = None
        seen = 0  # compact OR of every candidate bit of the period so far
        for message in period.messages:
            bits = self._message_bits(period, message)
            field = self._field
            if keys is None:
                keys = self._open_pool(entries, bits)
            elif self._intern_bits(bits):
                counters.batch_relayouts += 1
                low = (1 << field) - 1
                keys = [
                    ((key >> field) << self._field) | (key & low)
                    for key in keys
                ]
            field = self._field
            self._refresh_mirrors()
            history.append(bits)
            compact_of = self._compact_of
            columns = [1 << compact_of[bit] for bit in bits]
            seen |= sum(columns)  # distinct: a task runs once per period
            # One mask index holding every bit seen: no child, merge or
            # repair of this step can leave that mask.
            index = keys[0] >> field
            if (
                min(keys) >> field == index == max(keys) >> field
                and not seen & ~self._pool_masks[index]
            ):
                keys = self._process_single(keys, columns, history)
            else:
                keys = self._process_combined(keys, columns, history)
            self._messages += 1
            self._peak = max(self._peak, len(keys))
        if keys is None:
            # Message-free period: the refreshed entries carry through.
            return entries
        # _finish_period keeps one weight per pair mask and drops the
        # period masks, so each distinct mask is decoded once.
        field = self._field
        masks = self._pool_masks
        weights = self._pool_weights
        return [
            (self._decode_compact(masks[index]), weights[index])
            for index in dict.fromkeys(key >> field for key in keys)
        ]

    # -- the cascaded message step over combined keys ------------------

    @hot_loop
    def _process_single(
        self,
        keys: list[int],
        columns: list[int],
        history: Sequence[tuple[int, ...]],
    ) -> list[int]:
        """:meth:`_process_combined` for a pool of one mask index whose
        mask already holds every candidate bit of the period so far.

        Every child, merge and repair keeps that mask, so every key
        weighs the same and the per-weight FIFO pool is one queue plus
        a membership set: the two lightest keys are the two oldest. An
        insert into a full pool merges once (one key in, two out, at
        most one back), so a running size replaces ``len``.
        """
        counters = self._counters
        field = self._field
        bound = self.bound
        index = keys[0] >> field
        base = index << field
        every = sum(columns)
        width = len(columns)
        pool: set[int] = set()
        queue: deque[int] = deque()
        add = pool.add
        discard = pool.discard
        append = queue.append
        popleft = queue.popleft
        size = 0
        merges = 0
        children = 0
        canonical: int | None = None
        for key in keys:
            taken = key & every
            row = columns
            if taken == every:
                # Merged-lineage repair. Every assigned bit is already in
                # the mask, so only the period mask changes; the weight
                # is still evaluated, as the general step does, so the
                # counters agree.
                if canonical is None:
                    canonical = self._decode_compact(self._pool_masks[index])
                repaired = self._reassign_period(canonical, history)
                counters.reassignments += 1
                if repaired is None:
                    continue
                repaired_mask, repaired_period = repaired
                counters.weight_scratch_calls += 1
                self._kernel.set_weight(repaired_mask)
                key = base | self._encode_mask(repaired_period)
                taken = 0
                row = _REPAIRED_ROW
            else:
                children += width - taken.bit_count()
            for bit in row:
                if taken & bit:
                    continue
                child = key | bit
                if child in pool:
                    continue
                add(child)
                append(child)
                if size < bound:
                    size += 1
                    continue
                first = popleft()
                second = popleft()
                discard(first)
                discard(second)
                merges += 1
                merged = first | second
                if merged in pool:
                    size -= 1
                else:
                    add(merged)
                    append(merged)
        self._merges += merges
        counters.batch_children += children
        if not size:
            raise EmptyHypothesisSpaceError(self._periods)
        return list(queue)

    @hot_loop
    def _process_combined(
        self,
        keys: list[int],
        columns: list[int],
        history: Sequence[tuple[int, ...]],
    ) -> list[int]:
        """One generalization step on combined keys ``(index << field) |
        period_mask``: extend every hypothesis, keep <= bound, and return
        the keys in pool (insertion) order. *columns* are the message's
        candidate bits in compact space, canonical order.

        Rows are consumed in pool order and columns in canonical bit
        order, and the pool pops the lightest weight, first in first
        out, so insertion, dedup and merge order all match the
        reference's heap exactly.
        """
        counters = self._counters
        field = self._field
        low = (1 << field) - 1
        bound = self.bound
        masks = self._pool_masks
        weights = self._pool_weights
        index_of = self._pool_index
        kernel = self._kernel
        term_f = kernel._term_f
        term_b = kernel._term_b
        term_fb = kernel._term_fb
        mirror_compact = self._mirror_compact
        mirror_index = self.table.mirror_index
        canonical_bit = self._canonical_bit
        every = sum(columns)
        width = len(columns)
        rows: dict[int, list[tuple[int, int, int]]] = {}
        pool: dict[int, int] = {}
        queues: dict[int, deque[int]] = {}
        live: list[int] = []  # weights with a nonempty queue, ascending
        merges = 0
        children = 0

        def union_index(index: int, other: int) -> int:
            """Index of ``masks[index] | other``, interned on first sight
            with an O(popcount) delta on ``weights[index]``."""
            base = masks[index]
            union = base | other
            found = index_of.get(union)
            if found is not None:
                return found
            acquired = union ^ base
            delta = 0
            remaining = acquired
            while remaining:
                bit = remaining & -remaining
                remaining ^= bit
                i = bit.bit_length() - 1
                mi = mirror_compact[i]
                term = canonical_bit[i].bit_length() - 1
                mirror = mirror_index[term]
                if (acquired >> mi) & 1:  # pair and mirror both new
                    delta += term_fb[term]
                elif (base >> mi) & 1:  # both ordered terms turn mutual
                    delta += (
                        term_fb[term] - term_b[term]
                        + term_fb[mirror] - term_f[mirror]
                    )
                else:
                    delta += term_f[term] + term_b[mirror]
            found = index_of[union] = len(masks)
            masks.append(union)
            weights.append(weights[index] + delta)
            return found

        def insert(key: int, weight: int) -> None:
            """Add a key known to be new, then merge down to the bound."""
            nonlocal merges
            while True:
                pool[key] = weight
                queue = queues.get(weight)
                if queue is None:
                    queues[weight] = deque((key,))
                    insort(live, weight)
                else:
                    queue.append(key)
                if len(pool) <= bound:
                    return
                # Pop the two lightest keys, first in first out.
                weight = live[0]
                queue = queues[weight]
                first = queue.popleft()
                if not queue:
                    del queues[weight]
                    del live[0]
                    queue = queues[live[0]]
                second = queue.popleft()
                if not queue:
                    del queues[live[0]]
                    del live[0]
                del pool[first]
                del pool[second]
                merges += 1
                key = first | second
                if (first ^ second) > low:  # two masks: intern their union
                    index = union_index(first >> field, masks[second >> field])
                    weight = weights[index]
                    key = (index << field) | (key & low)
                if key in pool:
                    return

        for key in keys:
            index = key >> field
            taken = key & every
            if taken == every:
                # Merged-lineage corner case: the inherited assignment
                # claims every candidate of this message. Recompute a
                # legal assignment for the whole period so far. The
                # repair runs in canonical space: its option order sorts
                # candidate *bit values*, and compact values would give
                # a different order.
                repaired = self._reassign_period(
                    self._decode_compact(masks[index]), history
                )
                counters.reassignments += 1
                if repaired is not None:
                    repaired_mask, repaired_period = repaired
                    counters.weight_scratch_calls += 1
                    weight = kernel.set_weight(repaired_mask)
                    compact = self._encode_mask(repaired_mask)
                    found = index_of.get(compact)
                    if found is None:
                        found = index_of[compact] = len(masks)
                        masks.append(compact)
                        weights.append(weight)
                    key = (found << field) | self._encode_mask(repaired_period)
                    if key not in pool:
                        insert(key, weight)
                continue
            children += width - taken.bit_count()
            row = rows.get(index)
            if row is None:
                # A child by bit b has mask masks[index] | b and key
                # key - (index << field) + (child << field) + b.
                row = rows[index] = []
                for bit in columns:
                    child = union_index(index, bit)
                    row.append((bit, ((child - index) << field) + bit, weights[child]))
            for bit, offset, weight in row:
                if not taken & bit:
                    child_key = key + offset
                    if child_key not in pool:
                        insert(child_key, weight)
        self._merges += merges
        counters.batch_children += children
        if not pool:
            raise EmptyHypothesisSpaceError(self._periods)
        return list(pool)

    @staticmethod
    @hot_loop
    def _reassign_period(
        mask: int, history: Sequence[Sequence[int]]
    ) -> tuple[int, int] | None:
        """Find a fresh distinct assignment of the period's messages.

        Candidate bits already assumed by the hypothesis are preferred so
        the repair generalizes as little as possible. Returns the repaired
        ``(mask, period_mask)`` or None when no assignment exists (the
        pool's other lineages may still survive). The assignment is the
        first one in the option order below, as found by the polynomial
        matching kernel :func:`~repro.core.matching.first_assignment`.
        Bit order is index order is lexicographic pair order, so it is
        the assignment the string reference picks.
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
        chosen = first_assignment([bits for bits, _index in options])
        if chosen is None:
            return None
        used = 0
        for bit in chosen:
            used |= bit
        # Also generalize by the current message's full candidate set (the
        # last history entry): an unbounded run would have spawned one
        # extension per candidate, and their LUB contributes all of them.
        # Keeping that contribution preserves the paper's Lemma — the LUB
        # of the bounded output stays equal to the bound-1 hypothesis.
        current = 0
        for bit in history[-1]:
            current |= bit
        return mask | used | current, used

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
