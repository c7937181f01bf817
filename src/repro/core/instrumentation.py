"""Hot-loop instrumentation for the incremental learners.

The bounded heuristic's claim to fame is the polynomial per-period cost
``O(m b^2 + m b t^2)`` (paper Theorems 2/3); these counters let the
benchmark drivers *attest* that claim instead of asserting it. Every
learner carries one :class:`HotLoopCounters` instance, updates it inside
``feed``, and attaches a snapshot to the
:class:`~repro.core.result.LearningResult` it returns. Rendering lives in
:mod:`repro.bench.reporting` (``format_hot_loop``) and behind the CLI's
``repro learn --hot-loop`` flag.

Counting is cheap (integer adds and ``perf_counter`` reads per phase, not
per hypothesis), so instrumentation is always on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable[..., object])


def hot_loop(func: F) -> F:
    """Marker: *func* is a mask-kernel hot loop; purity is lint-enforced.

    A zero-cost decorator (the function is returned unchanged, with an
    attribute stamped for introspection). Marked functions promise to
    operate on the interned integer representation only — no mask
    decoding, no string pair-set construction, no per-iteration string
    formatting — and ``repro-lint`` rule RL002 statically enforces that
    promise on every commit. Conversely, every loop-bearing function in
    the kernel modules must either carry this marker or a
    ``# repro-lint: ignore[RL002]`` waiver identifying it as boundary
    code.
    """
    func.__repro_hot_loop__ = True  # type: ignore[attr-defined]
    return func


@dataclass
class HotLoopCounters:
    """Per-run counters and phase timings of a learner's ``feed`` loop.

    Attributes
    ----------
    periods:
        Periods successfully absorbed (rolled-back periods don't count).
    messages:
        Message occurrences processed across those periods.
    clean_periods:
        Periods that produced no dirty pairs — on these, the incremental
        weight refresh does no work beyond reusing carried weights.
    dirty_pairs:
        Total dirty ordered pairs reported by
        :meth:`~repro.core.stats.CoExecutionStats.add_period`; flips are
        one-way, so this is bounded by ``t^2`` over a whole run.
    weight_refresh_incremental:
        Carried-over hypotheses whose weight was refreshed by applying
        dirty-pair deltas (no from-scratch Definition 8 evaluation).
    weight_refresh_scratch:
        Carried-over hypotheses whose weight had to be recomputed from
        scratch during the per-period refresh (only after a checkpoint
        resume, or with incremental maintenance disabled).
    weight_scratch_calls:
        All from-scratch Definition 8 evaluations anywhere in the hot
        loop, including per-period repairs of merged lineages.
    reassignments:
        Merged-lineage repairs: ``_reassign_period`` calls, each one
        assignment search by the matching kernel
        :func:`repro.core.matching.first_assignment`.
    candidates_total / candidates_max:
        Sum and maximum of candidate-set sizes ``|A_m|`` over processed
        messages.
    stats_seconds / refresh_seconds / process_seconds / post_seconds:
        Wall-clock per phase: statistics update, weight refresh, message
        processing, and end-of-period post-processing.
    shard_failures:
        Worker-raised exceptions observed by the shard runtime
        (:mod:`repro.core.shardexec`); excludes pool breakage, which
        cannot be attributed to one shard.
    shard_timeouts:
        Shards whose wall-clock deadline (``ShardPolicy.timeout``)
        expired before the worker returned.
    shard_retries:
        Resubmissions charged to a shard's *own* worker fault or
        timeout (a shard's data error is never resubmitted).
    pool_rebuilds:
        Process-pool teardowns followed by a rebuild (after breakage or
        a timeout — a hung worker can only be removed by teardown).
    pool_requeues:
        In-flight shards requeued because the pool went away underneath
        them (collateral, not charged as retries).
    degraded_shards:
        Shards learned by the in-process sequential fallback.
    batch_children:
        Child hypotheses the bounded learner's message step produced
        (feasible hypothesis × candidate cells).
    batch_relayouts:
        Pool-key layout growths — mid-period re-encodes of the bounded
        learner's in-flight pool after its compact pair set crossed a
        word boundary.
    wire_tasks_sent:
        Shard tasks framed and dispatched to remote workers by the TCP
        coordinator (:mod:`repro.distributed`), counting re-dispatches.
    wire_results:
        Result frames received back (including duplicates and stale
        deliveries, before deduplication).
    wire_bytes_sent / wire_bytes_received:
        Framed payload bytes over all worker connections.
    wire_duplicates:
        Result frames discarded because the task already had a result
        (chaos-duplicated sends, or a stolen task finishing twice).
    wire_reorders:
        Results delivered out of dispatch order by a single worker
        (harmless — the LUB merge is order-free — but counted).
    tasks_stolen:
        Outstanding tasks re-dispatched to another worker because the
        owner sat on them past the steal deadline (work stealing; this
        is what recovers a chaos-dropped result frame).
    worker_connects:
        Worker connections that completed the handshake.
    worker_disconnects:
        Worker connections lost (EOF, reset, or chaos ``disconnect``);
        their outstanding tasks are requeued.
    dead_workers:
        Workers declared dead after missing the heartbeat deadline.
    sessions_opened:
        Streaming sessions created by the service daemon
        (:mod:`repro.service`); resumes are counted separately.
    sessions_resumed:
        Sessions brought back live from a spooled checkpoint (an
        ``open`` of an evicted session).
    sessions_evicted:
        Sessions checkpointed to the spool and dropped from memory
        (LRU pressure or an explicit ``evict`` op).
    sessions_closed:
        Sessions ended by a ``close`` op (their learner counters are
        folded into the daemon aggregate at that moment).
    sessions_failed:
        Sessions torn down by the degrade policy after exhausting feed
        retries (``SessionPolicy.degrade == "close"``).
    session_appends:
        Append/events frames admitted into session queues (duplicates
        excluded).
    session_duplicates:
        Frames discarded by the exactly-once sequence ledger (a client
        re-sent an already-acked frame after reconnecting).
    session_feed_errors:
        Feed attempts that raised and were rolled back by the learner's
        all-or-nothing ``feed`` envelope.
    session_feed_retries:
        Always 0: the service feeds a period once, because a rolled-back
        feed of the same period would fail again. Kept so readers of
        the profile's ``hot_loop`` keys keep working.
    session_queue_peak:
        Highest number of ops co-queued in any one session's bounded
        ingest queue (a max, like ``candidates_max``; bounded above by
        ``SessionPolicy.queue_depth``).
    """

    periods: int = 0
    messages: int = 0
    clean_periods: int = 0
    dirty_pairs: int = 0
    weight_refresh_incremental: int = 0
    weight_refresh_scratch: int = 0
    weight_scratch_calls: int = 0
    reassignments: int = 0
    candidates_total: int = 0
    candidates_max: int = 0
    stats_seconds: float = 0.0
    refresh_seconds: float = 0.0
    process_seconds: float = 0.0
    post_seconds: float = 0.0
    shard_failures: int = 0
    shard_timeouts: int = 0
    shard_retries: int = 0
    pool_rebuilds: int = 0
    pool_requeues: int = 0
    degraded_shards: int = 0
    batch_children: int = 0
    batch_relayouts: int = 0
    wire_tasks_sent: int = 0
    wire_results: int = 0
    wire_bytes_sent: int = 0
    wire_bytes_received: int = 0
    wire_duplicates: int = 0
    wire_reorders: int = 0
    tasks_stolen: int = 0
    worker_connects: int = 0
    worker_disconnects: int = 0
    dead_workers: int = 0
    sessions_opened: int = 0
    sessions_resumed: int = 0
    sessions_evicted: int = 0
    sessions_closed: int = 0
    sessions_failed: int = 0
    session_appends: int = 0
    session_duplicates: int = 0
    session_feed_errors: int = 0
    session_feed_retries: int = 0
    session_queue_peak: int = 0

    def observe_candidates(self, size: int) -> None:
        """Record one message's candidate-set size ``|A_m|``."""
        self.messages += 1
        self.candidates_total += size
        if size > self.candidates_max:
            self.candidates_max = size

    def copy(self) -> "HotLoopCounters":
        """An independent snapshot (results must not alias live counters).

        Every field is an immutable scalar, so a ``__dict__`` copy is a
        full snapshot; ``feed`` takes one per period as its rollback
        point, and ``dataclasses.replace`` would re-run ``__init__``.
        """
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        return clone

    def merge(self, other: "HotLoopCounters") -> None:
        """Fold another run's counters into this one (shard merging).

        Sums and maxima compose the obvious way; phase seconds add up to
        total CPU work across shards (wall clock is tracked separately by
        the coordinating caller).
        """
        for f in dataclasses.fields(self):
            if f.name in ("candidates_max", "session_queue_peak"):
                setattr(
                    self, f.name, max(getattr(self, f.name), getattr(other, f.name))
                )
            else:
                setattr(
                    self, f.name, getattr(self, f.name) + getattr(other, f.name)
                )

    @property
    def mean_candidates(self) -> float:
        """Mean ``|A_m|`` over all processed messages (0.0 before any)."""
        if not self.messages:
            return 0.0
        return self.candidates_total / self.messages

    def as_dict(self) -> dict[str, object]:
        """Field name → value, plus the derived mean candidate size.

        The machine-readable twin of :meth:`as_rows`; this is what the
        pipeline's ``--profile-json`` output embeds.
        """
        data: dict[str, object] = {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
        }
        data["mean_candidates"] = self.mean_candidates
        return data

    def as_rows(self) -> list[tuple[str, object]]:
        """``(name, value)`` rows for table rendering."""
        return [
            ("periods", self.periods),
            ("messages", self.messages),
            ("clean periods (no dirty pairs)", self.clean_periods),
            ("dirty pairs (total)", self.dirty_pairs),
            ("weight refreshes, incremental", self.weight_refresh_incremental),
            ("weight refreshes, from scratch", self.weight_refresh_scratch),
            ("from-scratch weight evaluations", self.weight_scratch_calls),
            ("period reassignments", self.reassignments),
            ("candidate pairs (total)", self.candidates_total),
            ("candidate pairs (max |A_m|)", self.candidates_max),
            ("stats update (s)", self.stats_seconds),
            ("weight refresh (s)", self.refresh_seconds),
            ("message processing (s)", self.process_seconds),
            ("post-processing (s)", self.post_seconds),
            ("shard failures", self.shard_failures),
            ("shard timeouts", self.shard_timeouts),
            ("shard retries", self.shard_retries),
            ("pool rebuilds", self.pool_rebuilds),
            ("pool requeues (collateral)", self.pool_requeues),
            ("degraded shards (in-process)", self.degraded_shards),
            ("message-step children", self.batch_children),
            ("pool-key relayouts", self.batch_relayouts),
            ("wire tasks sent", self.wire_tasks_sent),
            ("wire results received", self.wire_results),
            ("wire bytes sent", self.wire_bytes_sent),
            ("wire bytes received", self.wire_bytes_received),
            ("wire duplicate results", self.wire_duplicates),
            ("wire reordered results", self.wire_reorders),
            ("tasks stolen (work stealing)", self.tasks_stolen),
            ("worker connects", self.worker_connects),
            ("worker disconnects", self.worker_disconnects),
            ("dead workers (heartbeat)", self.dead_workers),
            ("sessions opened", self.sessions_opened),
            ("sessions resumed (from spool)", self.sessions_resumed),
            ("sessions evicted (to spool)", self.sessions_evicted),
            ("sessions closed", self.sessions_closed),
            ("sessions failed (degraded)", self.sessions_failed),
            ("session appends admitted", self.session_appends),
            ("session duplicate frames", self.session_duplicates),
            ("session feed errors (rolled back)", self.session_feed_errors),
            ("session feed retries", self.session_feed_retries),
            ("session queue peak", self.session_queue_peak),
        ]
