"""Shard-parallel bounded learning: split periods, learn, merge by LUB.

The bounded heuristic is sound under least-upper-bound generalization
(paper Theorem 2): every hypothesis it keeps matches every processed
instance, and taking a LUB only ever *generalizes*. So each contiguous
chunk of the trace's periods can be learned on its own and the chunk
LUBs combined with the lattice LUB, and the merged model still matches
every period of the whole trace.

A shard keeps only its LUB, never its hypothesis set. By the paper's
Lemma that LUB is the same at every bound, and with the learner's
repair rule it is the union of the shard's candidate sets ``A_m``
(see :mod:`repro.core.heuristic`). So a shard runs the one pass
:func:`~repro.core.heuristic.lub_model` (``O(Σ |A_m|)`` plus one
assignment search per period) instead of the ``b·|A_m|`` heuristic, and
raises the :class:`~repro.errors.EmptyHypothesisSpaceError` a
:class:`~repro.core.heuristic.BoundedLearner` would raise on the shard,
at the same shard-local period.

The merge is done at the pair-set level, where the LUB is a plain set
union (see :mod:`repro.core.hypothesis`):

* the merged hypothesis's pair set is the union of the shards' pair
  masks;
* the merged co-execution statistics are the *sum* of the shard
  statistics — per-period counts are order-independent, so the summed
  statistics are identical to a sequential run's, and the merged model's
  certain/probable verdicts are judged against the whole trace rather
  than any single shard.

Unions compose, so sharding loses neither soundness nor specificity:
the merged model equals the sequential run's LUB, byte for byte, at any
partition. The differential tests in ``tests/test_sharded.py`` pin it:
``workers=1`` is bit-for-bit the sequential path (the heuristic, whose
hypothesis set is the paper's output), and ``workers>=2`` is ``⊒`` the
sequential LUB and byte-identical to it.

Workers are OS processes (:class:`concurrent.futures.ProcessPoolExecutor`)
because the hot loop is pure Python and the GIL would serialize threads.
Shards are contiguous period ranges so streamed traces shard by reading
position. For an mmap-backed store trace
(:class:`~repro.trace.store.StoreTrace`), :func:`split_periods` slices
lazy zero-copy ranges and the runtime keeps them lazy
(:class:`~repro.trace.columnar.LazyPeriods`), so the pickle payload a
worker receives is the O(1) handle ``(store_path, period_range)`` rather
than O(events) of pickled periods — each worker process maps the store
itself and materializes only the periods it feeds.

Execution is delegated to the fault-tolerant runtime in
:mod:`repro.core.shardexec`: per-shard timeouts, bounded retries with
deterministic backoff, executor rebuilds after ``BrokenProcessPool``,
and graceful degradation to in-process sequential learning — all behind
one :class:`~repro.core.shardexec.ShardPolicy` value, and all for worker
faults only. The LUB merge is a commutative, associative fold, so none
of that machinery can change the answer. A shard that cannot explain a
period has answered: the runtime raises the error the sequential learn
raises, at the same trace period, without retrying it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.core.heuristic import BoundedLearner, lub_model
from repro.core.hypothesis import Hypothesis
from repro.core.instrumentation import HotLoopCounters, hot_loop
from repro.core.interning import TaskTable
from repro.core.result import LearningResult
from repro.core.shardexec import (
    ShardExecutorFactory,
    ShardPolicy,
    ShardRuntime,
    apply_chaos,
)
from repro.core.stats import CoExecutionStats
from repro.errors import LearningError
from repro.trace.period import Period
from repro.trace.trace import Trace


@dataclass
class ShardOutcome:
    """What one shard's learner sends back to the coordinator.

    Deliberately smaller than a full :class:`LearningResult`: the
    coordinator needs the union pair set (the shard's LUB in pair-set
    form), the shard statistics, and the run counters — not the shard's
    materialized functions, which would be judged against shard-local
    certainty and thrown away anyway.

    The pair set crosses the process boundary as a single interned
    bitmask (``pairs_mask``), not a string set: the
    :class:`~repro.core.interning.TaskTable` is a pure function of the
    task universe, so every worker and the coordinator agree on pair
    indices without shipping the table itself.
    """

    pairs_mask: int
    stats: CoExecutionStats
    periods: int
    messages: int
    elapsed_seconds: float
    hot_loop: HotLoopCounters


@hot_loop
def split_periods(
    periods: Sequence[Period], shard_count: int
) -> list[Sequence[Period]]:
    """Split *periods* into at most *shard_count* contiguous, balanced runs.

    Every shard gets at least one period; sizes differ by at most one.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    count = min(shard_count, len(periods))
    if count == 0:
        return []
    base, extra = divmod(len(periods), count)
    shards: list[Sequence[Period]] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        shards.append(periods[start:start + size])
        start += size
    return shards


@hot_loop
def learn_shard(
    tasks: Sequence[str],
    periods: Sequence[Period],
    tolerance: float,
) -> ShardOutcome:
    """Learn one shard's LUB in one pass (executed in a worker process).

    The outcome keeps only the LUB of the bounded learner's output, which
    by the paper's Lemma is the union of the shard's candidate sets at
    every bound, so :func:`~repro.core.heuristic.lub_model` computes it
    without a hypothesis pool — and without the bound. It raises what a
    :class:`~repro.core.heuristic.BoundedLearner` fed the shard raises,
    including :class:`~repro.errors.EmptyHypothesisSpaceError` with the
    shard-local period index.
    """
    started = time.perf_counter()
    model = lub_model(tasks, periods, tolerance)
    counters = model.hot_loop
    return ShardOutcome(
        pairs_mask=model.pairs_mask,
        stats=model.stats,
        periods=counters.periods,
        messages=counters.messages,
        elapsed_seconds=time.perf_counter() - started,
        hot_loop=counters,
    )


def _learn_shard_args(args: tuple) -> ShardOutcome:
    """Worker entry point: one argument tuple, executed in a pool process.

    The tuple is ``(tasks, periods, tolerance, shard_index, attempt)``;
    the trailing pair keys the deterministic ``REPRO_CHAOS``
    fault injection (crash / hang / slow / fail by shard index and
    attempt — see :func:`repro.core.shardexec.parse_chaos`), which is
    how the chaos suite exercises every recovery path of the runtime
    without real OOMs. With ``REPRO_CHAOS`` unset this is a no-op.
    """
    tasks, periods, tolerance, index, attempt = args
    apply_chaos(index, attempt)
    return learn_shard(tasks, periods, tolerance)


def _learn_shard_fallback(args: tuple) -> ShardOutcome:
    """In-process fallback for degraded shards: same learn, no pool.

    Deliberately skips :func:`~repro.core.shardexec.apply_chaos` — the
    degraded path exists to complete the learn when workers cannot, so
    injected worker faults must not follow the shard in-process.
    """
    tasks, periods, tolerance = args
    return learn_shard(tasks, periods, tolerance)


# Boundary code: decodes the merged LUB mask back to string pairs.
# repro-lint: ignore[RL002]
def merge_outcomes(
    tasks: Sequence[str],
    outcomes: Sequence[ShardOutcome],
    bound: int,
    workers: int,
    elapsed_seconds: float,
) -> LearningResult:
    """LUB-merge per-shard outcomes into one learning result.

    Each shard computes its LUB without a pool, so the result reports
    one hypothesis at peak and no merges.
    """
    if not outcomes:
        # Zero periods: same shape the sequential learner returns on an
        # empty trace — the single most-specific hypothesis.
        learner = BoundedLearner(tasks, bound)
        result = learner.result()
        result.workers = workers
        return result
    stats = CoExecutionStats(tasks)
    counters = HotLoopCounters()
    pairs_mask = 0
    for outcome in outcomes:
        stats.merge(outcome.stats)
        counters.merge(outcome.hot_loop)
        pairs_mask |= outcome.pairs_mask
    # The LUB of masks decodes through a coordinator-side table built
    # from the same task universe as every worker's.
    merged = Hypothesis(TaskTable(tasks).pairs_of(pairs_mask))
    return LearningResult(
        functions=[merged.to_function(stats)],
        hypotheses=[merged],
        stats=stats,
        algorithm="heuristic",
        bound=bound,
        periods=sum(o.periods for o in outcomes),
        messages=sum(o.messages for o in outcomes),
        peak_hypotheses=1,
        elapsed_seconds=elapsed_seconds,
        merge_count=0,
        workers=workers,
        hot_loop=counters,
    )


def learn_bounded_sharded(
    trace: Trace,
    bound: int,
    tolerance: float = 0.0,
    workers: int = 2,
    policy: ShardPolicy | None = None,
    executor_factory: "ShardExecutorFactory | None" = None,
) -> LearningResult:
    """Learn *trace* across *workers* period shards and LUB-merge.

    Sound by construction (LUB only generalizes — Theorem 2), and by the
    paper's Lemma the merged model equals a sequential run's LUB. The
    result holds that one hypothesis; each shard reports one hypothesis
    and no merges, because it computes its LUB without a pool.
    ``workers=1`` is not special-cased here on purpose: callers wanting
    the bit-for-bit sequential path should use
    :func:`~repro.core.learner.learn_dependencies`, which routes
    ``workers=1`` to :func:`~repro.core.heuristic.learn_bounded` without
    touching a process pool.

    *policy* configures the fault-tolerant runtime (timeouts, retries,
    degradation — see :class:`~repro.core.shardexec.ShardPolicy`); the
    default tolerates a couple of worker failures and degrades to
    in-process sequential learning rather than fail. Worker failures
    never surface as a bare ``BrokenProcessPool``: a terminal one raises
    :class:`~repro.errors.ShardExecutionError` naming the shard's period
    range and attempt count. A period no hypothesis explains raises the
    :class:`~repro.errors.EmptyHypothesisSpaceError` that ``workers=1``
    raises, with the same ``period_index``. The runtime's recovery
    counters (retries, pool rebuilds, degraded shards) are folded into
    the returned result's ``hot_loop`` counters.

    *executor_factory* plugs a different execution substrate into the
    runtime (see :class:`~repro.core.shardexec.ShardExecutorFactory`);
    ``None`` keeps the local process pool. The distributed scheduler
    passes a :class:`repro.distributed.TcpExecutorFactory` here — note
    that a one-shard learn (``workers=1`` or a tiny trace) still runs
    in-process, factory or not, because there is nothing to schedule.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    policy = policy if policy is not None else ShardPolicy()
    started = time.perf_counter()
    shards = split_periods(trace.periods, workers)
    runtime = None
    if len(shards) <= 1:
        # One shard (or an empty trace): the pool would only add overhead.
        outcomes = [
            learn_shard(trace.tasks, shard, tolerance) for shard in shards
        ]
    else:
        runtime = ShardRuntime(
            trace.tasks,
            tolerance,
            workers=len(shards),
            policy=policy,
            worker=_learn_shard_args,
            fallback=_learn_shard_fallback,
            executor_factory=executor_factory,
        )
        outcomes = runtime.run(shards)
    result = merge_outcomes(
        trace.tasks,
        outcomes,
        bound,
        workers,
        time.perf_counter() - started,
    )
    if runtime is not None and result.hot_loop is not None:
        result.hot_loop.merge(runtime.counters)
    return result


def require_shardable(bound: int | None, workers: int) -> None:
    """Validate a (bound, workers) combination before dispatch.

    The exact algorithm's output is the *most-specific set*, which has no
    sound cross-shard merge (a LUB of shard-wise most-specific sets is
    not most-specific); only the bounded heuristic's Theorem 2 soundness
    survives sharding.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > 1 and bound is None:
        raise LearningError(
            "workers > 1 requires a hypothesis bound: the exact "
            "algorithm's most-specific set cannot be soundly merged "
            "across shards (pass bound=b or workers=1)"
        )
