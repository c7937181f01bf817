"""The matching function ``M : H × I → bool`` (paper Definition 3).

A dependency function (hypothesis) matches a period instance when

1. every *certain* relation is observed: if ``d(a, b)`` carries a certain
   arrow (``→``, ``←`` or ``↔``) and ``a`` executed in the period, then
   ``b`` executed as well; and
2. the period's messages are *explainable*: each message occurrence can be
   assigned a temporally possible sender-receiver pair allowed by the
   hypothesis, with at most one message per ordered pair in the period.

Condition 2 asks for a matching of the period's messages into distinct
allowed pairs: bipartite matching, solvable in polynomial time. It is
solved here by backtracking with most-constrained-message-first
ordering, which is fast on the small periods of real traces (tens of
messages). The NP-hardness of paper Theorem 1 concerns *learning*, that
is finding the set of most-specific hypotheses, not checking one
hypothesis against one period.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.core.candidates import candidate_pairs
from repro.core.depfunc import DependencyFunction
from repro.core.hypothesis import Pair
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
    # Distinctness bookkeeping runs on interned pair bits (one shared
    # table per task universe): membership and claim/release are single
    # mask operations instead of set-of-tuple mutations.
    table = task_table(function.tasks)
    messages = period.messages
    options: list[tuple[str, tuple[Pair, ...], tuple[int, ...]]] = []
    for message in messages:
        permitted = allowed_pairs(
            function, candidate_pairs(period, message, tolerance)
        )
        if not permitted:
            return None
        options.append((message.label, permitted, table.bits_of(permitted)))
    # Most-constrained first keeps the backtracking shallow.
    options.sort(key=lambda item: len(item[1]))
    assignment: dict[str, Pair] = {}
    used = 0

    def backtrack(position: int) -> bool:
        nonlocal used
        if position == len(options):
            return True
        label, permitted, bits = options[position]
        for pair, bit in zip(permitted, bits):
            if used & bit:
                continue
            used |= bit
            assignment[label] = pair
            if backtrack(position + 1):
                return True
            used &= ~bit
            del assignment[label]
        return False

    if backtrack(0):
        return dict(assignment)
    return None


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
