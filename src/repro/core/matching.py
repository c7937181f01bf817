"""The matching function ``M : H × I → bool`` (paper Definition 3).

A dependency function (hypothesis) matches a period instance when

1. every *certain* relation is observed: if ``d(a, b)`` carries a certain
   arrow (``→``, ``←`` or ``↔``) and ``a`` executed in the period, then
   ``b`` executed as well; and
2. the period's messages are *explainable*: each message occurrence can be
   assigned a temporally possible sender-receiver pair allowed by the
   hypothesis, with at most one message per ordered pair in the period.

Condition 2 asks for a matching of the period's messages into distinct
allowed pairs: bipartite matching, solvable in polynomial time. Every
caller answers it through :func:`first_assignment`, which computes one
maximum matching by augmenting paths and then fixes the positions in the
caller's order, each by at most one alternating-path search per
candidate: ``O(d · E)`` per position for ``d`` candidates and ``E``
candidate edges in the period. The NP-hardness of paper Theorem 1
concerns *learning*, that is finding the set of most-specific
hypotheses, not checking one hypothesis against one period.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.core.candidates import candidate_pairs
from repro.core.depfunc import DependencyFunction
from repro.core.hypothesis import Pair
from repro.core.instrumentation import hot_loop
from repro.core.interning import task_table
from repro.trace.period import Period
from repro.trace.trace import Trace


def certain_relations_hold(function: DependencyFunction, period: Period) -> bool:
    """Check condition 1: certain arrows imply co-execution."""
    for a, b, value in function.nonparallel_pairs():
        if value.is_certain and period.executed(a) and not period.executed(b):
            return False
    return True


def allowed_pairs(
    function: DependencyFunction, pairs: Iterable[Pair]
) -> tuple[Pair, ...]:
    """Filter candidate pairs down to those the hypothesis permits.

    A pair ``(s, r)`` is permitted when ``d(s, r)`` includes a (possible)
    forward arrow — equivalently ``d(r, s)`` a backward one under a
    well-formed function.
    """
    return tuple(
        (s, r) for s, r in pairs if function.value(s, r).has_forward
    )


def find_explanation(
    function: DependencyFunction,
    period: Period,
    tolerance: float = 0.0,
) -> Optional[dict[str, Pair]]:
    """An assignment of message labels to allowed distinct pairs, or None.

    Returns a map from message label to the chosen ``(sender, receiver)``
    pair if the period's messages can all be explained under *function*;
    otherwise ``None``.
    """
    # The search runs on interned pair bits (one shared table per task
    # universe); a chosen bit decodes back through the same table.
    table = task_table(function.tasks)
    messages = period.messages
    options: list[tuple[str, tuple[int, ...]]] = []
    for message in messages:
        permitted = allowed_pairs(
            function, candidate_pairs(period, message, tolerance)
        )
        if not permitted:
            return None
        options.append((message.label, table.bits_of(permitted)))
    # Most-constrained first: the assignment returned is the first one in
    # this order, so the order is part of the result.
    options.sort(key=lambda item: len(item[1]))
    chosen = first_assignment([bits for _label, bits in options])
    if chosen is None:
        return None
    return {
        label: table.pair_at(bit.bit_length() - 1)
        for (label, _bits), bit in zip(options, chosen)
    }


@hot_loop
def _augment(
    options: Sequence[Sequence[int]],
    chosen: list[int],
    owner: dict[int, int],
    start: int,
    floor: int,
) -> bool:
    """Give the unmatched position *start* a bit along an augmenting path.

    Breadth-first over alternating paths: a bit held by a position at or
    above *floor* may be re-routed, a bit held below it is fixed. On
    success the path is flipped into *chosen*/*owner*; on failure
    nothing is changed.
    """
    seen = 0
    reached_by: dict[int, int] = {}
    queue = [start]
    for position in queue:
        for bit in options[position]:
            if seen & bit:
                continue
            seen |= bit
            holder = owner.get(bit)
            if holder is None:
                while True:
                    previous = chosen[position]
                    chosen[position] = bit
                    owner[bit] = position
                    if position == start:
                        return True
                    bit = previous
                    position = reached_by[bit]
            if holder >= floor:
                reached_by[bit] = position
                queue.append(holder)
    return False


@hot_loop
def first_assignment(options: Sequence[Sequence[int]]) -> list[int] | None:
    """The first distinct assignment of one bit per position, or None.

    ``options[i]`` lists position ``i``'s candidate bits (distinct
    powers of two) in the caller's preference order. The result is the
    assignment a depth-first search over positions in order, trying each
    position's bits in order, would return first: the lexicographically
    first complete assignment. It is found in polynomial time. One
    maximum matching is computed up front by augmenting paths (None if
    it leaves a position unmatched); then each position in turn takes
    its first bit that still leaves the later positions completely
    matchable, checked by one alternating-path search that re-routes
    the current matching. A position whose first free bit is already
    matched to it costs nothing.
    """
    count = len(options)
    chosen = [0] * count
    owner: dict[int, int] = {}
    for position in range(count):
        for bit in options[position]:
            if bit not in owner:
                chosen[position] = bit
                owner[bit] = position
                break
        else:
            if not _augment(options, chosen, owner, position, 0):
                return None
    for position in range(count):
        current = chosen[position]
        for bit in options[position]:
            if bit == current:
                break
            holder = owner.get(bit)
            if holder is not None and holder < position:
                continue  # fixed by an earlier position
            del owner[current]
            chosen[position] = bit
            owner[bit] = position
            if holder is None:
                break
            chosen[holder] = 0
            if _augment(options, chosen, owner, holder, position + 1):
                break
            owner[bit] = holder
            chosen[holder] = bit
            owner[current] = position
            chosen[position] = current
    return chosen


def matches_period(
    function: DependencyFunction,
    period: Period,
    tolerance: float = 0.0,
) -> bool:
    """``M(h, i)`` for one instance (period)."""
    return certain_relations_hold(function, period) and (
        find_explanation(function, period, tolerance) is not None
    )


def matches_trace(
    function: DependencyFunction,
    trace: Trace | Sequence[Period],
    tolerance: float = 0.0,
) -> bool:
    """``M(h, I)``: the hypothesis matches every instance of the trace."""
    periods = trace.periods if isinstance(trace, Trace) else trace
    return all(matches_period(function, p, tolerance) for p in periods)
