"""High-level learning facade.

:func:`learn_dependencies` is the library's main entry point: give it a
trace and optionally a hypothesis bound, get back a
:class:`~repro.core.result.LearningResult`.

>>> from repro.systems.examples import simple_four_task_design
>>> from repro.trace.synthetic import paper_figure2_trace
>>> result = learn_dependencies(paper_figure2_trace())
>>> len(result.functions)
5
>>> print(result.lub().value("t1", "t4"))
->
"""

from __future__ import annotations

from repro.core.exact import ExactLearner, learn_exact
from repro.core.heuristic import BoundedLearner, learn_bounded
from repro.core.result import LearningResult
from repro.core.sharded import learn_bounded_sharded, require_shardable
from repro.core.shardexec import ShardExecutorFactory, ShardPolicy
from repro.trace.trace import Trace


def learn_dependencies(
    trace: Trace,
    bound: int | None = None,
    tolerance: float = 0.0,
    max_hypotheses: int = 2_000_000,
    workers: int = 1,
    shard_policy: ShardPolicy | None = None,
    executor_factory: "ShardExecutorFactory | None" = None,
) -> LearningResult:
    """Learn the most-specific dependency hypotheses from *trace*.

    Parameters
    ----------
    trace:
        The execution trace (task universe + periods).
    bound:
        ``None`` runs the exact, exponential algorithm; a positive integer
        runs the polynomial bounded heuristic with that hypothesis bound.
    tolerance:
        Timing tolerance for candidate sender/receiver computation, in the
        trace's time unit. Use a small epsilon for quantized timestamps.
    max_hypotheses:
        Safety cap for the exact algorithm's working set.
    workers:
        ``1`` (the default) learns sequentially — bit-for-bit the classic
        path. ``N > 1`` requires a bound: the periods are split into
        ``N`` contiguous shards, each reduced to its LUB in one pass in
        its own process, and the shard LUBs merged
        (:mod:`repro.core.sharded`). By the paper's Lemma the merged
        model equals the sequential LUB; the result holds only it.
    shard_policy:
        Fault-tolerance policy for the sharded path's worker faults
        (timeouts, retries, degradation to sequential learning); ``None``
        uses :class:`~repro.core.shardexec.ShardPolicy`'s defaults.
        Ignored when ``workers=1``.
    executor_factory:
        Execution substrate for the sharded path (``workers > 1``):
        ``None`` uses local process pools; a
        :class:`repro.distributed.TcpExecutorFactory` dispatches shards
        to remote ``repro worker`` daemons instead. Either way the
        model is bit-identical — only where the shards run changes.

    Returns
    -------
    LearningResult
        Surviving hypotheses, their LUB, and run metadata.
    """
    require_shardable(bound, workers)
    if bound is None:
        return learn_exact(trace, tolerance, max_hypotheses)
    if workers > 1:
        return learn_bounded_sharded(
            trace, bound, tolerance, workers, policy=shard_policy,
            executor_factory=executor_factory,
        )
    return learn_bounded(trace, bound, tolerance)


def make_learner(
    tasks,
    bound: int | None = None,
    tolerance: float = 0.0,
) -> ExactLearner | BoundedLearner:
    """An incremental learner for online use (feed periods as they arrive)."""
    if bound is None:
        return ExactLearner(tasks, tolerance)
    return BoundedLearner(tasks, bound, tolerance)


__all__ = [
    "learn_dependencies",
    "make_learner",
    "LearningResult",
    "ExactLearner",
    "BoundedLearner",
    "learn_exact",
    "learn_bounded",
    "learn_bounded_sharded",
]
