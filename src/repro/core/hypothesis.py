"""Hypotheses: pair-set representation of dependency functions under learning.

During learning, a hypothesis is characterized by:

* ``pairs`` — the set of ordered ``(sender, receiver)`` pairs it has assumed
  for at least one message anywhere in the trace;
* ``period_pairs`` — the subset assumed within the *current* period, used to
  enforce the at-most-one-message-per-pair-per-period rule (Section 2.1);
* the shared :class:`~repro.core.stats.CoExecutionStats` of the learning
  run.

The hypothesis's dependency function is *derived*: for an ordered task pair
``(a, b)``,

* membership ``(a, b) ∈ pairs`` contributes a forward arrow to ``d(a, b)``
  — certain (``→``) if every period where ``a`` executed also executed
  ``b``, probable (``→?``) otherwise;
* membership ``(b, a) ∈ pairs`` contributes a backward arrow to ``d(a, b)``
  the same way;
* the two contributions combine by lattice LUB (yielding ``↔``/``↔?`` when
  both directions were assumed);
* with neither membership, ``d(a, b) = ‖``.

This representation is exact: two hypotheses have equal dependency
functions if and only if they have equal pair sets, and the pointwise
lattice order on functions coincides with pair-set inclusion (both proved
as properties in the test suite). That turns the paper's post-processing
into set operations — unification is pair-set deduplication and redundancy
elimination is strict-superset removal — and makes the heuristic's LUB
merge a set union.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

from repro.core import lattice
from repro.core.depfunc import DependencyFunction
from repro.core.lattice import DepValue
from repro.core.stats import CoExecutionStats

Pair = tuple[str, str]


class Hypothesis:
    """One version-space hypothesis in pair-set form. Immutable."""

    __slots__ = ("pairs", "period_pairs", "_weight_cache")

    def __init__(
        self,
        pairs: FrozenSet[Pair] | Iterable[Pair] = frozenset(),
        period_pairs: FrozenSet[Pair] | Iterable[Pair] = frozenset(),
    ):
        self.pairs: frozenset[Pair] = frozenset(pairs)
        self.period_pairs: frozenset[Pair] = frozenset(period_pairs)
        if not self.period_pairs <= self.pairs:
            raise ValueError("period_pairs must be a subset of pairs")
        self._weight_cache: tuple[int, int] | None = None  # (version, weight)

    @classmethod
    def most_specific(cls) -> "Hypothesis":
        """The paper's ``d⊥``: no assumed dependencies at all."""
        return cls()

    # ------------------------------------------------------------------
    # Learning operations
    # ------------------------------------------------------------------

    def can_extend(self, pair: Pair) -> bool:
        """True if *pair* is not yet used for a message this period."""
        return pair not in self.period_pairs

    def extend(self, pair: Pair) -> "Hypothesis":
        """Assume one more message's sender-receiver pair this period.

        Generalizes only as much as necessary: the derived function grows by
        at most the one arrow the new pair contributes.
        """
        sender, receiver = pair
        if sender == receiver:
            raise ValueError(f"sender and receiver coincide: {pair}")
        return Hypothesis(self.pairs | {pair}, self.period_pairs | {pair})

    def end_period(self) -> "Hypothesis":
        """Drop the per-period assumptions (paper's assumption removal)."""
        if not self.period_pairs:
            return self
        return Hypothesis(self.pairs)

    def merge(self, other: "Hypothesis") -> "Hypothesis":
        """Least upper bound of two hypotheses (the heuristic's merge).

        Pair-set union; the per-period sets are united as well. The union
        blocking set stays sound: the first parent's per-period assignment
        is contained in it and remains a legal distinct assignment inside
        the union pair set, and later extensions only pick pairs outside
        the blocking set, so distinctness is preserved. (When the blocking
        set over-approximates so much that a later message finds every
        candidate claimed, the learner repairs by recomputing the period's
        assignment with the polynomial matching kernel
        :func:`repro.core.matching.first_assignment` — see
        ``BoundedLearner._reassign_period``.)
        """
        return Hypothesis(
            self.pairs | other.pairs, self.period_pairs | other.period_pairs
        )

    # ------------------------------------------------------------------
    # Order and derived function
    # ------------------------------------------------------------------

    def leq(self, other: "Hypothesis") -> bool:
        """More-specific-than in the dependency-function lattice.

        With shared statistics this coincides with pair-set inclusion.
        """
        return self.pairs <= other.pairs

    def value(self, a: str, b: str, stats: CoExecutionStats) -> DepValue:
        """The derived dependency value ``d(a, b)`` under *stats*."""
        if a == b:
            return lattice.PARALLEL
        forward = (a, b) in self.pairs
        backward = (b, a) in self.pairs
        if not forward and not backward:
            return lattice.PARALLEL
        certain = stats.always_implies(a, b)
        result = lattice.PARALLEL
        if forward:
            result = lattice.DETERMINES if certain else lattice.MAY_DETERMINE
        if backward:
            back = lattice.DEPENDS if certain else lattice.MAY_DEPEND
            result = lattice.lub(result, back)
        return result

    def to_function(self, stats: CoExecutionStats) -> DependencyFunction:
        """Materialize the full dependency function under *stats*."""
        entries: dict[Pair, DepValue] = {}
        for a, b in self.pairs:
            entries[a, b] = self.value(a, b, stats)
            entries[b, a] = self.value(b, a, stats)
        return DependencyFunction(stats.tasks, entries)

    def weight(self, stats: CoExecutionStats) -> int:
        """Heuristic weight (paper Definition 8), memoized per stats version.

        Computed directly from the pair set without materializing the full
        function: each ordered task pair touched by an assumption
        contributes the square distance of its derived value.
        """
        cached = self._weight_cache
        if cached is not None and cached[0] == stats.version:
            return cached[1]
        touched: set[Pair] = set()
        for a, b in self.pairs:
            touched.add((a, b))
            touched.add((b, a))
        total = sum(
            lattice.distance(self.value(a, b, stats)) for a, b in touched
        )
        self._weight_cache = (stats.version, total)
        return total

    def prime_weight(self, version: int, weight: int) -> None:
        """Seed the :meth:`weight` memo with an externally maintained value.

        The bounded learner carries Definition 8 weights incrementally
        across periods (dirty-pair deltas, see
        :meth:`~repro.core.stats.CoExecutionStats.add_period`); priming the
        memo at the end of each period means a later :meth:`weight` call —
        e.g. the sort in ``result()`` — never recomputes from scratch on an
        unchanged stats version. Callers must only prime values computed
        with the default square distance, which is what :meth:`weight`
        reports.
        """
        self._weight_cache = (version, weight)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypothesis):
            return NotImplemented
        return self.pairs == other.pairs and self.period_pairs == other.period_pairs

    def __hash__(self) -> int:
        return hash((self.pairs, self.period_pairs))

    def __repr__(self) -> str:
        return (
            f"Hypothesis(pairs={sorted(self.pairs)}, "
            f"period_pairs={sorted(self.period_pairs)})"
        )
