"""Session-service policy: queue bounds, eviction pressure, degradation.

One frozen :class:`SessionPolicy` drives the whole daemon, mirroring how
:class:`~repro.core.shardexec.ShardPolicy` drives the shard runtime —
and deliberately reusing its vocabulary: ``retries`` is a deterministic
re-attempt budget, ``backoff`` spaces the attempts, and ``degrade``
names what happens when the budget runs out. The difference is the
failure domain: a shard failure is retried because pool children die
for environmental reasons; a session feed failure is usually a *trace*
problem (an unknown task, an empty hypothesis space), so the default
degradation rejects the offending append and keeps the session alive
rather than tearing anything down.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Degradation modes when an append's feed retries are exhausted.
#: ``reject`` errors the append and keeps the session (the learner is
#: untouched by the failed period — the all-or-nothing ``feed``
#: contract); ``close`` tears the session down and reports it failed.
DEGRADE_MODES = ("reject", "close")


@dataclass(frozen=True)
class SessionPolicy:
    """Fault-tolerance and resource policy for the session service.

    There is no feed concurrency to size: every learner runs on the
    daemon's event loop, one session op per turn, so ``queue_depth``
    and ``max_live`` are the only resource bounds.

    Attributes
    ----------
    queue_depth:
        Bound on each session's ingest queue, in ops. A full queue
        suspends the connection's frame reader — backpressure reaches
        the client as an unread socket, so a slow learner can never
        grow daemon memory.
    max_live:
        Live learners held in memory before LRU eviction starts
        checkpointing idle sessions to the spool. Busy sessions are
        never evicted, so the live count can transiently exceed this.
    retries:
        Feed re-attempts per period after a rolled-back failure, before
        the ``degrade`` mode applies.
    backoff:
        Seconds slept between those attempts (scaled by the attempt
        number, like the shard runtime's deterministic backoff).
    degrade:
        One of :data:`DEGRADE_MODES`.
    spool_dir:
        Directory for eviction checkpoints. ``None`` lets the server
        create a private temporary directory for the daemon's lifetime.
    """

    queue_depth: int = 8
    max_live: int = 64
    retries: int = 1
    backoff: float = 0.0
    degrade: str = "reject"
    spool_dir: str | None = None

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        if self.max_live < 1:
            raise ValueError("max_live must be at least 1")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.backoff < 0:
            raise ValueError("backoff must be non-negative")
        if self.degrade not in DEGRADE_MODES:
            raise ValueError(
                f"degrade must be one of {DEGRADE_MODES}, got {self.degrade!r}"
            )


__all__ = ["DEGRADE_MODES", "SessionPolicy"]
