"""Executable checks for the paper's Theorems 2-4 and the Lemma.

The paper proves these in a technical report; here each becomes a runtime
checker usable in tests and in the E4 benchmark:

* **Theorem 2 (correctness)** — every hypothesis returned (exact or
  heuristic) matches every instance of the trace;
* **Theorem 3 (optimality & completeness)** — the exact algorithm's output
  is the set of *minimal* matching hypotheses. Verified against an
  independent brute-force search over pair subsets (feasible for small
  traces);
* **Lemma** — the LUB of the bound-``b`` output equals the bound-1 output;
* **Theorem 4 (convergence)** — when the algorithm converges to a single
  hypothesis regardless of bound, that hypothesis equals the bound-1
  result (and, where the exact run is feasible, the exact LUB).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.candidates import candidate_pairs
from repro.core.depfunc import DependencyFunction
from repro.core.heuristic import learn_bounded, lub_model
from repro.core.hypothesis import Hypothesis, Pair
from repro.core.matching import first_assignment, matches_trace
from repro.core.result import LearningResult
from repro.core.stats import CoExecutionStats
from repro.trace.trace import Trace


@dataclass(frozen=True)
class TheoremCheck:
    """Outcome of one theorem check."""

    theorem: str
    holds: bool
    detail: str

    def __str__(self) -> str:
        status = "OK" if self.holds else "VIOLATED"
        return f"[{status}] {self.theorem}: {self.detail}"


# ----------------------------------------------------------------------
# Theorem 2: correctness
# ----------------------------------------------------------------------

def check_correctness(
    result: LearningResult, trace: Trace, tolerance: float = 0.0
) -> TheoremCheck:
    """Every returned hypothesis matches every instance."""
    failing = [
        index
        for index, function in enumerate(result.functions)
        if not matches_trace(function, trace, tolerance)
    ]
    return TheoremCheck(
        theorem="Theorem 2 (correctness)",
        holds=not failing,
        detail=(
            f"all {len(result.functions)} hypotheses match the trace"
            if not failing
            else f"hypotheses {failing} fail to match"
        ),
    )


# ----------------------------------------------------------------------
# Theorem 3: optimality and completeness (exact algorithm)
# ----------------------------------------------------------------------

def feasible_pair_universe(trace: Trace, tolerance: float = 0.0) -> frozenset[Pair]:
    """Union of candidate pairs over every message in the trace.

    The union is the one-pass LUB's, decoded; it skips the one pass's
    explainability check, because brute force must accept (and find no
    matching set for) a trace that no hypothesis explains.
    """
    return lub_model(trace.tasks, trace.periods, tolerance, check=False).pairs


def brute_force_most_specific(
    trace: Trace,
    tolerance: float = 0.0,
    max_universe: int = 18,
) -> list[DependencyFunction]:
    """Independent most-specific-set computation by subset enumeration.

    Enumerates every subset of the feasible pair universe (so it is only
    usable when that universe has at most *max_universe* pairs), keeps the
    subsets whose induced function matches the whole trace, and reduces to
    the minimal ones. This is the specification the exact learner must
    reproduce (Theorem 3).
    """
    universe = sorted(feasible_pair_universe(trace, tolerance))
    if len(universe) > max_universe:
        raise ValueError(
            f"pair universe has {len(universe)} pairs; brute force capped "
            f"at {max_universe}"
        )
    stats = CoExecutionStats(trace.tasks)
    for period in trace.periods:
        stats.add_period(period.executed_tasks)
    # Each message's candidate pairs as bits over the universe, computed
    # once and masked by each subset.
    bit_of = {pair: 1 << index for index, pair in enumerate(universe)}
    periods = [
        [
            [bit_of[pair] for pair in candidate_pairs(period, message, tolerance)]
            for message in period.messages
        ]
        for period in trace.periods
    ]
    matching_sets: list[frozenset[Pair]] = []
    for size in range(len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            candidate = frozenset(combo)
            # Skip supersets of an already-found matching set: they cannot
            # be minimal (matching is monotone in the pair set).
            if any(found <= candidate for found in matching_sets):
                continue
            subset = sum(bit_of[pair] for pair in combo)
            if all(
                first_assignment(
                    [[bit for bit in bits if subset & bit] for bits in period]
                )
                is not None
                for period in periods
            ):
                matching_sets.append(candidate)
    return [
        Hypothesis(pair_set).to_function(stats) for pair_set in matching_sets
    ]


def check_optimality(
    result: LearningResult, trace: Trace, tolerance: float = 0.0
) -> TheoremCheck:
    """The exact learner's output equals the brute-force most-specific set."""
    expected = brute_force_most_specific(trace, tolerance)
    got = set(result.functions)
    want = set(expected)
    return TheoremCheck(
        theorem="Theorem 3 (optimality & completeness)",
        holds=got == want,
        detail=(
            f"{len(want)} most-specific hypotheses reproduced exactly"
            if got == want
            else f"mismatch: learner {len(got)}, brute force {len(want)}"
        ),
    )


# ----------------------------------------------------------------------
# Lemma and Theorem 4
# ----------------------------------------------------------------------

def check_lemma(
    trace: Trace, bound: int, tolerance: float = 0.0
) -> TheoremCheck:
    """``⊔ D*(bound=b)`` equals the bound-1 hypothesis."""
    bounded = learn_bounded(trace, bound, tolerance)
    singleton = learn_bounded(trace, 1, tolerance)
    holds = bounded.lub() == singleton.unique
    return TheoremCheck(
        theorem=f"Lemma (bound={bound})",
        holds=holds,
        detail=(
            "LUB of bounded output equals bound-1 hypothesis"
            if holds
            else "LUB differs from bound-1 hypothesis"
        ),
    )


def check_convergence(
    trace: Trace, bounds: list[int], tolerance: float = 0.0
) -> TheoremCheck:
    """Theorem 4: converged results are bound-independent.

    For every bound in *bounds* under which the run converges to a single
    hypothesis, that hypothesis must equal the bound-1 result.
    """
    reference = learn_bounded(trace, 1, tolerance).unique
    converged = []
    for bound in bounds:
        result = learn_bounded(trace, bound, tolerance)
        if result.converged and result.unique != reference:
            return TheoremCheck(
                theorem="Theorem 4 (convergence)",
                holds=False,
                detail=f"bound {bound} converged to a different hypothesis",
            )
        if result.converged:
            converged.append(bound)
    return TheoremCheck(
        theorem="Theorem 4 (convergence)",
        holds=True,
        detail=f"converged bounds {converged} all equal the bound-1 result",
    )
