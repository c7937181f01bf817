"""Fault-tolerant shard execution: the runtime under sharded learning.

:mod:`repro.core.sharded` proved that shard-parallel bounded learning is
*algorithmically* cheap — Theorem 2 soundness survives the LUB merge, and
the merge itself is a commutative fold (pair-mask union, statistics sum),
so the answer cannot depend on which shard finishes first. What a bare
``ProcessPoolExecutor`` loop lacks is *operational* robustness: one
worker crash, hang or OOM used to abort the whole learn with an opaque
``BrokenProcessPool``. This module supplies the missing runtime.

Every shard moves through a small state machine driven by
:class:`ShardRuntime`::

    queued -> running -> done
                |-> failed    (the learn's own LearningError/TraceError:
                |              terminal, raised as the sequential learn
                |              raises it)
                |-> retrying  (worker fault or timeout, attempts remain)
                |-> degraded  (attempts exhausted, or the pool is
                               irrecoverably broken: learn the shard
                               in-process, sequentially)

and the policy knobs live in one :class:`ShardPolicy` value threaded
from the CLI (``--shard-timeout``, ``--shard-retries``, ``--degrade``)
through :class:`~repro.pipeline.config.PipelineConfig` down to
:func:`~repro.core.sharded.learn_bounded_sharded`.

Only faults of the machinery are retried. A shard's outcome is a pure
function of its period range (workers share no state), so a retry
reproduces a lost outcome exactly, and the in-process fallback runs the
same :func:`~repro.core.sharded.learn_shard` the worker would have. By
the same token a shard that raises a
:class:`~repro.errors.LearningError` or :class:`~repro.errors.TraceError`
has *answered*, and no re-run can change that: the runtime raises the
error the sequential learn raises (for
:class:`~repro.errors.EmptyHypothesisSpaceError`, the same
``period_index``, counted from the start of the trace). When several
shards fail, the earliest period wins. The merged statistics are
per-period sums, hence identical under any retry/completion order —
pinned by ``tests/property/test_merge_order_props.py``.

Worker faults, concretely:

* **Timeout** — each in-flight shard carries a wall-clock deadline. A
  hung worker cannot be cancelled through the executor API, so on expiry
  the runtime tears the pool down (terminating worker processes),
  requeues the innocent in-flight shards unchanged, and charges the
  expired shard one attempt.
* **Worker crash** — an abrupt worker death breaks the whole pool and
  every in-flight future raises ``BrokenProcessPool`` without naming a
  culprit. The runtime tears the executor down, keeps the result of
  every in-flight shard whose result arrived, and requeues the others
  with one attempt charged to each (the guilty shard is among them, so
  attempts still converge); a shard whose submit the broken pool
  refused counts as in flight. It then rebuilds the executor, at most
  :data:`MAX_POOL_REBUILDS` times, after which the runtime degrades.
* **Repeated failure** — a shard whose worker keeps raising is learned
  in-process (``degrade=sequential``) or reported with its period range
  and attempt count (``degrade=fail`` ->
  :class:`~repro.errors.ShardExecutionError`).

Chaos testing: the ``REPRO_CHAOS`` environment variable injects
deterministic faults in the worker entry point
(:func:`~repro.core.sharded._learn_shard_args`) keyed by shard index and
attempt, so every one of the paths above is exercised by
``tests/test_shardexec.py`` without real OOMs or flaky hardware — see
:func:`parse_chaos` for the grammar.

Backoff between retries is exponential with *deterministic* jitter (a
pure function of shard index and attempt, see :func:`backoff_seconds`):
the runtime must stay byte-reproducible under ``PYTHONHASHSEED``
variation and must not consume entropy, per
``tests/test_hashseed_determinism.py``.

The execution substrate itself is pluggable: the runtime mints and
disposes of executors only through a :class:`ShardExecutorFactory`.
The default :class:`ProcessExecutorFactory` supplies local
``ProcessPoolExecutor`` pools; :class:`repro.distributed
.TcpExecutorFactory` supplies a TCP coordinator over remote ``repro
worker`` daemons — and the state machine above drives either without
modification, because every recovery action it takes is expressed as
"tear this executor down, mint a fresh one, requeue".
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, replace
from typing import Callable, Protocol, Sequence

from repro.core.instrumentation import HotLoopCounters
from repro.errors import (
    EmptyHypothesisSpaceError,
    LearningError,
    ShardExecutionError,
    TraceError,
)
from repro.trace.columnar import LazyPeriods
from repro.trace.period import Period

#: Environment variable holding the chaos plan (see :func:`parse_chaos`).
CHAOS_ENV = "REPRO_CHAOS"

#: How long an injected hang sleeps. Effectively forever next to any
#: realistic ``--shard-timeout``; the coordinator terminates the worker
#: long before this expires.
HANG_SECONDS = 3600.0

#: Coordinator poll granularity when no deadline or backoff is nearer.
TICK_SECONDS = 0.1

#: Base of the exponential retry backoff, in seconds (see
#: :func:`backoff_seconds`).
BACKOFF_SECONDS = 0.05

#: Upper bound on a single backoff wait, before jitter.
BACKOFF_CAP_SECONDS = 1.0

#: Executor rebuilds allowed after a broken pool before the runtime
#: degrades (or, under ``degrade='fail'``, raises).
MAX_POOL_REBUILDS = 2


# ---------------------------------------------------------------------------
# Policy


@dataclass(frozen=True)
class ShardPolicy:
    """Fault-tolerance knobs for one sharded learn.

    These apply to worker faults only; a shard's
    :class:`~repro.errors.LearningError` or
    :class:`~repro.errors.TraceError` is never retried (see the module
    notes).

    Attributes
    ----------
    timeout:
        Per-shard wall-clock budget in seconds; ``None`` (the default)
        disables timeouts. On expiry the shard is charged one attempt
        and the pool is rebuilt (a hung worker cannot be cancelled).
    retries:
        Attempts a shard may consume beyond its first run before the
        ``degrade`` mode applies.
    degrade:
        What to do when a shard (or the whole pool) is beyond retrying:
        ``"sequential"`` learns the remaining work in-process —
        completing the learn at reduced parallelism — while ``"fail"``
        raises :class:`~repro.errors.ShardExecutionError` naming the
        shard's period range and attempt count.
    """

    timeout: float | None = None
    retries: int = 2
    degrade: str = "sequential"

    def __post_init__(self) -> None:
        if self.timeout is not None and not self.timeout > 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.degrade not in ("sequential", "fail"):
            raise ValueError(
                "degrade must be 'sequential' or 'fail', "
                f"got {self.degrade!r}"
            )


def backoff_seconds(index: int, attempt: int) -> float:
    """Deterministic exponential backoff with jitter for one retry.

    Attempt ``k`` waits ``BACKOFF_SECONDS * 2**k``, capped at
    :data:`BACKOFF_CAP_SECONDS`, scaled by a jitter in ``[1.0, 1.25)``.
    Pure in (index, attempt): no clock, no entropy. The jitter spreads
    simultaneous retries of different shards in time without making any
    run irreproducible.
    """
    base = min(BACKOFF_CAP_SECONDS, BACKOFF_SECONDS * (2 ** max(attempt, 0)))
    jitter = 1.0 + ((index * 73 + attempt * 37) % 101) / 404.0
    return base * jitter


def _is_data_error(error: BaseException) -> bool:
    """True when *error* is the learn's answer about its periods.

    A retry, a rebuilt pool or the fallback would raise it again.
    :class:`~repro.errors.ShardExecutionError` is the runtime's own
    verdict on the machinery and does not count.
    """
    return isinstance(error, (LearningError, TraceError)) and not isinstance(
        error, ShardExecutionError
    )


# ---------------------------------------------------------------------------
# Chaos injection (test-only, driven by the REPRO_CHAOS environment variable)


class ChaosFault(RuntimeError):
    """The failure raised by an injected ``fail`` fault."""


@dataclass(frozen=True)
class ChaosSpec:
    """One parsed fault: *kind* hits shard *index* while *attempt* < n."""

    kind: str
    index: int
    param: float

    def applies(self, index: int, attempt: int) -> bool:
        if index != self.index:
            return False
        if self.kind == "slow":
            # A slow worker still succeeds; keep it slow on every
            # attempt (it should never be retried in the first place).
            return True
        return attempt < int(self.param)


#: Wire-level fault kinds handled by :mod:`repro.distributed`, not by
#: :func:`apply_chaos`: they corrupt the *delivery* of a shard result,
#: never its computation, so the in-process compute path ignores them.
NETWORK_KINDS = frozenset({"drop", "duplicate", "reorder", "disconnect"})


def parse_chaos(plan: str) -> tuple[ChaosSpec, ...]:
    """Parse a ``REPRO_CHAOS`` plan into fault specs.

    Grammar: comma-separated ``kind@shard[:param]`` entries, e.g.
    ``"crash@2,hang@0:2,slow@3:0.25,fail@1:2"``.

    Compute faults (injected by :func:`apply_chaos` in the worker entry
    point):

    * ``crash@I[:N]`` — the worker process exits abruptly
      (``os._exit``) while the shard's attempt is below ``N``
      (default 1). Breaks the whole pool, like a real OOM kill.
    * ``hang@I[:N]`` — the worker sleeps ~forever while the attempt is
      below ``N`` (default 1); only a shard timeout recovers this.
    * ``fail@I[:N]`` — the worker raises :class:`ChaosFault` while the
      attempt is below ``N`` (default 1). The pool survives.
    * ``slow@I[:S]`` — the worker sleeps ``S`` seconds (default 0.2)
      and then succeeds, on every attempt.

    Network faults (injected by the distributed wire layer on shard
    *result delivery* — see :mod:`repro.distributed.chaos`; ignored by
    :func:`apply_chaos`):

    * ``drop@I[:N]`` — the result frame is never sent while the
      delivery attempt is below ``N`` (work stealing recovers it).
    * ``duplicate@I[:N]`` — the result frame is sent twice (the
      coordinator deduplicates).
    * ``reorder@I[:N]`` — the result frame is held back until a later
      frame has been sent (the LUB merge is order-free).
    * ``disconnect@I[:N]`` — the worker closes its connection instead
      of sending the result (the coordinator requeues, the worker
      reconnects).
    """
    specs: list[ChaosSpec] = []
    defaults = {
        "crash": 1.0, "hang": 1.0, "fail": 1.0, "slow": 0.2,
        "drop": 1.0, "duplicate": 1.0, "reorder": 1.0, "disconnect": 1.0,
    }
    for entry in plan.split(","):
        entry = entry.strip()
        if not entry:
            continue
        try:
            kind, _, target = entry.partition("@")
            if kind not in defaults:
                raise ValueError(f"unknown fault kind {kind!r}")
            index_text, _, param_text = target.partition(":")
            index = int(index_text)
            param = float(param_text) if param_text else defaults[kind]
        except ValueError as error:
            raise ValueError(
                f"bad {CHAOS_ENV} entry {entry!r}: {error}"
            ) from error
        specs.append(ChaosSpec(kind, index, param))
    return tuple(specs)


def apply_chaos(index: int, attempt: int) -> None:
    """Inject the configured fault for (*index*, *attempt*), if any.

    Called by the worker entry point
    (:func:`~repro.core.sharded._learn_shard_args`) inside the pool
    process, and nowhere else — the in-process degraded path bypasses
    injection by construction, which is what lets the chaos suite prove
    that degraded learns complete. Network fault kinds
    (:data:`NETWORK_KINDS`) are delivery faults, not compute faults, so
    they fall through here and are injected by the distributed wire
    layer instead.
    """
    plan = os.environ.get(CHAOS_ENV)
    if not plan:
        return
    for spec in parse_chaos(plan):
        if not spec.applies(index, attempt):
            continue
        if spec.kind == "crash":
            os._exit(3)
        elif spec.kind == "hang":
            time.sleep(HANG_SECONDS)
        elif spec.kind == "slow":
            time.sleep(spec.param)
        elif spec.kind == "fail":
            raise ChaosFault(
                f"injected failure (shard {index}, attempt {attempt})"
            )


# ---------------------------------------------------------------------------
# Executor seam


class ShardExecutorFactory(Protocol):
    """The pluggable executor seam under :class:`ShardRuntime`.

    The runtime's state machine (timeouts, retries, pool rebuild,
    degradation) is executor-agnostic: everything it needs from
    the execution substrate is the ability to mint a fresh
    ``concurrent.futures``-style executor and to dispose of one that may
    contain hung or dead workers. A factory provides exactly that pair,
    so the same runtime drives local process pools
    (:class:`ProcessExecutorFactory`) and remote TCP worker fleets
    (:class:`repro.distributed.TcpExecutorFactory`) unchanged.

    Contract:

    * :meth:`new_executor` returns a ready executor. A rebuild after
      breakage calls it again; the factory may return a fresh object or
      reset and return a long-lived one. ``OSError`` here is treated
      like pool construction failure (degrade or raise per policy).
    * :meth:`teardown` disposes of an executor that may hold hung or
      dead workers; it must return promptly and must not require the
      workers' cooperation.
    * An optional ``counters`` attribute
      (:class:`~repro.core.instrumentation.HotLoopCounters`) is merged
      into the runtime's counters after the run — this is how the TCP
      coordinator's wire/connection tallies reach ``--profile-json``.
    """

    def new_executor(self) -> Executor:
        """Mint (or reset and return) a ready executor."""
        ...  # pragma: no cover - protocol

    def teardown(self, executor: Executor) -> None:
        """Dispose of *executor*, tolerating hung or dead workers."""
        ...  # pragma: no cover - protocol


class ProcessExecutorFactory:
    """The default seam implementation: local OS process pools."""

    def __init__(self, workers: int) -> None:
        self.workers = workers

    def new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers)

    def teardown(self, executor: Executor) -> None:
        """Dispose of a pool that may contain hung or dead workers.

        A plain ``shutdown(wait=True)`` would block forever behind a
        hung worker, and ``shutdown(wait=False)`` leaks the executor's
        management thread into interpreter exit — so the worker
        processes are terminated explicitly first (best effort; the
        mapping is executor-internal, and sleeping workers die on
        SIGTERM), after which the blocking shutdown reaps the dead pool
        promptly and completely.
        """
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except (OSError, ValueError):  # already dead / closed
                pass
        executor.shutdown(wait=True, cancel_futures=True)


# ---------------------------------------------------------------------------
# Jobs


@dataclass
class ShardJob:
    """One schedulable unit: a contiguous period range plus its history.

    ``index`` is stable across retries (it keys chaos injection and
    backoff jitter). ``start`` is the position of the shard's first
    period in the trace, which turns a shard-local
    :class:`~repro.errors.EmptyHypothesisSpaceError` into the sequential
    learn's.

    ``periods`` is a materialized tuple for in-memory traces, but lazy
    :class:`~repro.trace.columnar.LazyPeriods` views (the store's
    zero-copy ranges) are kept intact: pickling one for a worker ships a
    ``(store_path, period_range)`` handle instead of the events.
    """

    index: int
    periods: Sequence[Period]
    start: int = 0
    attempt: int = 0
    not_before: float = 0.0

    @property
    def period_range(self) -> str:
        """Human-readable global period range, for error messages."""
        if not self.periods:
            return "empty"
        return f"{self.periods[0].index}..{self.periods[-1].index}"

    def describe(self) -> str:
        return (
            f"shard {self.index} (periods {self.period_range}, "
            f"attempt {self.attempt + 1})"
        )


# ---------------------------------------------------------------------------
# Runtime


class ShardRuntime:
    """Drive shard jobs through a process pool, surviving faults.

    Parameters
    ----------
    tasks, tolerance:
        The learning arguments shipped to every worker.
    workers:
        Pool size (and in-flight cap).
    policy:
        The :class:`ShardPolicy` in force.
    worker:
        Module-level callable executed in pool processes. Receives one
        argument tuple ``(tasks, periods, tolerance, index, attempt)``
        and returns a shard outcome. Must be picklable (lint rule RL004
        guards the submission sites below).
    fallback:
        In-process callable for degraded learning. Receives
        ``(tasks, periods, tolerance)`` and returns a shard outcome;
        never subject to chaos injection.
    executor_factory:
        The :class:`ShardExecutorFactory` supplying executors; ``None``
        (the default) uses :class:`ProcessExecutorFactory` — local OS
        process pools, the classic behavior. The distributed runtime
        passes a :class:`repro.distributed.TcpExecutorFactory` here and
        the state machine drives remote workers unchanged.

    The instance's :attr:`counters` accumulate the failure/retry/
    rebuild/degradation tallies that
    :func:`~repro.core.sharded.learn_bounded_sharded` folds into the
    merged result's :class:`~repro.core.instrumentation.HotLoopCounters`.
    """

    def __init__(
        self,
        tasks: Sequence[str],
        tolerance: float,
        workers: int,
        policy: ShardPolicy,
        worker: Callable,
        fallback: Callable,
        executor_factory: ShardExecutorFactory | None = None,
    ) -> None:
        self.tasks = tuple(tasks)
        self.tolerance = tolerance
        self.workers = workers
        self.policy = policy
        self.worker = worker
        self.fallback = fallback
        self.factory: ShardExecutorFactory = (
            executor_factory
            if executor_factory is not None
            else ProcessExecutorFactory(workers)
        )
        self.counters = HotLoopCounters()
        #: The earliest data error seen: (trace position, error).
        self._failure: tuple[int, BaseException] | None = None

    # -- public entry ----------------------------------------------------

    def run(self, shards: Sequence[Sequence[Period]]) -> list:
        """Learn every shard, tolerating faults; outcomes in any order.

        Raises the earliest shard's data error (a
        :class:`~repro.errors.LearningError` or
        :class:`~repro.errors.TraceError`) once every shard that starts
        before it has finished.
        """
        queue: deque[ShardJob] = deque()
        start = 0
        for index, shard in enumerate(shards):
            periods = shard if isinstance(shard, LazyPeriods) else tuple(shard)
            queue.append(ShardJob(index=index, periods=periods, start=start))
            start += len(periods)
        outcomes: list = []
        inflight: dict[Future, tuple[ShardJob, float | None]] = {}
        pool: Executor | None = None
        broken_rebuilds = 0
        degraded = False
        try:
            while True:
                if self._failure is not None:
                    self._drop_later(queue, inflight)
                if not (queue or inflight):
                    break
                if degraded:
                    self._run_fallback(queue.popleft(), outcomes)
                    continue
                if pool is None:
                    pool = self._new_pool()
                    if pool is None:
                        degraded = True
                        continue
                broken = not self._submit_ready(pool, queue, inflight)
                if not broken and not inflight:
                    # Everything runnable is backing off; sleep it out.
                    self._sleep_until_ready(queue)
                    continue
                if not broken:
                    broken = self._collect(
                        inflight, queue, outcomes,
                        self._wait_tick(inflight, queue),
                    )
                if not broken:
                    if self._expire_deadlines(pool, inflight, queue, outcomes):
                        pool = None  # torn down to kill the hung worker
                    continue
                # The pool is broken: the guilty shard cannot be told
                # apart from the bystanders, so every in-flight shard
                # without a result is charged one attempt and requeued,
                # and the executor is rebuilt within the budget.
                self._teardown(pool)
                pool = None
                self._settle_inflight(
                    inflight, queue, outcomes, charge_attempt=True
                )
                broken_rebuilds += 1
                if broken_rebuilds > MAX_POOL_REBUILDS:
                    degraded = self._degrade_or_raise(queue)
                else:
                    self.counters.pool_rebuilds += 1
        finally:
            if pool is not None:
                self._teardown(pool)
            extra = getattr(self.factory, "counters", None)
            if extra is not None:
                self.counters.merge(extra)
        if self._failure is not None:
            raise self._failure[1]
        return outcomes

    # -- scheduling ------------------------------------------------------

    def _args(self, job: ShardJob) -> tuple:
        return (self.tasks, job.periods, self.tolerance, job.index, job.attempt)

    def _submit_ready(
        self,
        pool: Executor,
        queue: deque[ShardJob],
        inflight: dict[Future, tuple[ShardJob, float | None]],
    ) -> bool:
        """Submit backoff-expired jobs up to the in-flight cap.

        Returns ``False`` when the pool turned out to be broken (the
        refused job joins the in-flight jobs, which the caller settles).
        """
        now = time.monotonic()
        rotations = 0
        while queue and len(inflight) < self.workers:
            if queue[0].not_before > now:
                queue.rotate(-1)
                rotations += 1
                if rotations > len(queue):
                    break  # every queued job is still backing off
                continue
            job = queue.popleft()
            try:
                future = pool.submit(self.worker, self._args(job))
            except (BrokenExecutor, RuntimeError) as error:
                # The job was dispatched to this executor, so it is
                # settled with the executor's in-flight jobs: whether the
                # break came just before or just after the submit does
                # not change its state.
                future = Future()
                future.set_exception(BrokenExecutor(str(error)))
                inflight[future] = (job, None)
                return False
            deadline = (
                now + self.policy.timeout
                if self.policy.timeout is not None
                else None
            )
            inflight[future] = (job, deadline)
        return True

    def _wait_tick(
        self,
        inflight: dict[Future, tuple[ShardJob, float | None]],
        queue: deque[ShardJob],
    ) -> float | None:
        """How long the coordinator may block waiting for completions."""
        now = time.monotonic()
        horizons = [
            deadline - now for _, deadline in inflight.values()
            if deadline is not None
        ]
        horizons.extend(
            job.not_before - now for job in queue if job.not_before > now
        )
        if not horizons:
            return None if inflight else TICK_SECONDS
        return max(0.0, min(min(horizons), TICK_SECONDS))

    def _sleep_until_ready(self, queue: deque[ShardJob]) -> None:
        delay = min(job.not_before for job in queue) - time.monotonic()
        if delay > 0:
            time.sleep(min(delay, TICK_SECONDS))

    # -- completion and failure ------------------------------------------

    def _collect(
        self,
        inflight: dict[Future, tuple[ShardJob, float | None]],
        queue: deque[ShardJob],
        outcomes: list,
        tick: float | None,
    ) -> bool:
        """Harvest finished futures; returns True if the pool broke.

        A job whose future reports the break stays in flight: the caller
        tears the pool down and settles every in-flight job at once.
        """
        if not inflight:
            return False
        done, _ = wait(
            set(inflight), timeout=tick, return_when=FIRST_COMPLETED
        )
        broken = False
        for future in done:
            if future not in inflight:
                continue  # dropped behind an earlier data error
            job, _ = inflight[future]
            try:
                outcome = future.result()
            except BrokenExecutor:
                broken = True
                continue
            except Exception as error:
                del inflight[future]
                if _is_data_error(error):
                    self._record_failure(job, error)
                    self._drop_later(queue, inflight)
                    continue
                self.counters.shard_failures += 1
                self._handle_failure(job, error, queue, outcomes)
                continue
            del inflight[future]
            outcomes.append(outcome)
        return broken

    def _expire_deadlines(
        self,
        pool: Executor,
        inflight: dict[Future, tuple[ShardJob, float | None]],
        queue: deque[ShardJob],
        outcomes: list,
    ) -> bool:
        """Time out overdue shards; tear the pool down if any expired.

        A running future cannot be cancelled through the executor API, so
        recovery from a hang means terminating the worker processes. The
        innocent in-flight shards are requeued unchanged — no attempt
        charged, their re-run is a pure replay. Returns True when the
        pool was torn down (the caller must rebuild it).
        """
        now = time.monotonic()
        expired = [
            (future, job)
            for future, (job, deadline) in inflight.items()
            if deadline is not None and now >= deadline
        ]
        if not expired:
            return False
        for future, job in expired:
            del inflight[future]
            self.counters.shard_timeouts += 1
            error = TimeoutError(
                f"shard exceeded --shard-timeout="
                f"{self.policy.timeout:g}s"
            )
            self._handle_failure(job, error, queue, outcomes)
        self._teardown(pool)
        self._settle_inflight(inflight, queue, outcomes, charge_attempt=False)
        self.counters.pool_rebuilds += 1
        return True

    def _handle_failure(
        self,
        job: ShardJob,
        error: BaseException,
        queue: deque[ShardJob],
        outcomes: list,
    ) -> None:
        """retrying -> degraded/fail escalation for one worker fault."""
        if job.attempt < self.policy.retries:
            retry = self._advanced(job)
            retry.not_before = time.monotonic() + backoff_seconds(
                job.index, job.attempt
            )
            self.counters.shard_retries += 1
            queue.append(retry)
            return
        if self.policy.degrade == "sequential":
            # Terminal failure of this one shard: learn it in-process.
            # (For a timed-out shard, the hung worker is dealt with by
            # the caller's pool teardown; the fallback itself cannot
            # hang — chaos only fires in pool workers.)
            self._run_fallback(job, outcomes)
            return
        raise ShardExecutionError(
            f"{job.describe()} failed after {job.attempt + 1} attempt(s): "
            f"{error}"
        ) from error

    def _record_failure(self, job: ShardJob, error: BaseException) -> None:
        """Keep *error* if it is the earliest data error so far.

        A shard counts an :class:`~repro.errors.EmptyHypothesisSpaceError`
        period from its own start; the kept copy counts from the trace's.
        Any other data error is placed at the shard's first period.
        """
        position = job.start
        if isinstance(error, EmptyHypothesisSpaceError):
            position += error.period_index
            error = EmptyHypothesisSpaceError(position, error.message_index)
        if self._failure is None or position < self._failure[0]:
            self._failure = (position, error)

    def _drop_later(
        self,
        queue: deque[ShardJob],
        inflight: dict[Future, tuple[ShardJob, float | None]],
    ) -> None:
        """Forget every job that starts at or after the recorded failure:
        it cannot change what the learn raises. Its worker, if any, dies
        with the executor's teardown."""
        position = self._failure[0]
        kept = [job for job in queue if job.start < position]
        queue.clear()
        queue.extend(kept)
        for future in [
            future for future, (job, _) in inflight.items()
            if job.start >= position
        ]:
            del inflight[future]

    def _advanced(self, job: ShardJob) -> ShardJob:
        return replace(job, attempt=job.attempt + 1, not_before=0.0)

    def _settle_inflight(
        self,
        inflight: dict[Future, tuple[ShardJob, float | None]],
        queue: deque[ShardJob],
        outcomes: list,
        charge_attempt: bool,
    ) -> None:
        """Settle the in-flight jobs of a torn-down executor.

        Runs after the teardown, when the executor has resolved every
        future it ever will. A job whose result or data error arrived is
        done, whether the runtime saw it before the break or after it;
        every other job is requeued and charged as one pool requeue. So
        the counters follow the jobs' states, not the order in which the
        executor reported them.
        """
        for future, (job, _) in inflight.items():
            if future.done() and not future.cancelled():
                error = future.exception()
                if error is None:
                    outcomes.append(future.result())
                    continue
                if _is_data_error(error):
                    self._record_failure(job, error)
                    continue
            queue.append(self._advanced(job) if charge_attempt else job)
            self.counters.pool_requeues += 1
        inflight.clear()

    # -- degraded path ---------------------------------------------------

    def _run_fallback(self, job: ShardJob, outcomes: list) -> None:
        """Learn one shard in-process (the ``degraded`` state)."""
        self.counters.degraded_shards += 1
        try:
            outcomes.append(
                self.fallback((self.tasks, job.periods, self.tolerance))
            )
        except Exception as error:
            if _is_data_error(error):
                self._record_failure(job, error)
                return
            raise ShardExecutionError(
                f"{job.describe()} failed even in the in-process "
                f"sequential fallback: {error}"
            ) from error

    def _degrade_or_raise(self, queue: deque[ShardJob]) -> bool:
        if self.policy.degrade == "sequential":
            return True
        survivor = queue[0] if queue else None
        detail = f"; next pending was {survivor.describe()}" if survivor else ""
        raise ShardExecutionError(
            "process pool broke more than "
            f"{MAX_POOL_REBUILDS} time(s) and degrade='fail'"
            f"{detail}"
        )

    # -- pool lifecycle --------------------------------------------------

    def _new_pool(self) -> Executor | None:
        """Mint an executor through the seam; None means degrade now."""
        try:
            return self.factory.new_executor()
        except OSError:
            if self.policy.degrade == "fail":
                raise
            return None

    def _teardown(self, pool: Executor) -> None:
        self.factory.teardown(pool)


__all__ = [
    "BACKOFF_CAP_SECONDS",
    "BACKOFF_SECONDS",
    "CHAOS_ENV",
    "MAX_POOL_REBUILDS",
    "NETWORK_KINDS",
    "ChaosFault",
    "ChaosSpec",
    "ProcessExecutorFactory",
    "ShardExecutorFactory",
    "ShardJob",
    "ShardPolicy",
    "ShardRuntime",
    "apply_chaos",
    "backoff_seconds",
    "parse_chaos",
]
