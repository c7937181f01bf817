"""One live streaming session: settings, ledger, learner, spool form.

A session is the service's unit of isolation. It owns exactly one
incremental learner (built through the pipeline's session-mode config,
so a session and a ``repro learn`` run with the same settings are the
same computation), a contiguous sequence ledger for exactly-once
append admission, and a bounded asyncio queue that every op for the
session flows through — appends, queries, eviction, close — which is
what serializes learner access and carries backpressure to the socket.

Sessions round-trip through the *spool*: a JSON file holding the
learner checkpoint (:mod:`repro.core.checkpoint`) plus
the session-level state the checkpoint does not know about — the
settings, the sequence ledger, buffered partial-period events, and the
service counters. Eviction writes it, a later ``open`` of the same
session id reads it back; the learner that resumes is bit-identical in
model terms (the checkpoint contract), so clients cannot tell an
evicted-and-resumed session from one that stayed live.
"""

from __future__ import annotations

import asyncio

from repro.core.checkpoint import checkpoint_from_dict, checkpoint_to_dict
from repro.core.instrumentation import HotLoopCounters
from repro.core.learner import make_learner
from repro.pipeline.config import PipelineConfig
from repro.service.config import SessionPolicy
from repro.service.ops import ServiceError
from repro.trace.events import Event, EventKind

#: Spool file format marker and version.
SPOOL_FORMAT = "repro-service-session"
SPOOL_VERSION = 1


class SessionSettings:
    """The learner-shaping half of an ``open`` op, hashable and spoolable.

    Settings written by older versions (spool files, ``open`` ops) may
    carry a ``"kernel"`` key; it is ignored.
    """

    __slots__ = ("tasks", "bound", "tolerance", "format")

    def __init__(
        self,
        tasks: tuple[str, ...],
        bound: int | None = None,
        tolerance: float = 0.0,
        format: str | None = None,
    ) -> None:
        self.tasks = tuple(tasks)
        self.bound = bound
        self.tolerance = tolerance
        self.format = format

    @classmethod
    def from_open(cls, message: dict) -> "SessionSettings":
        tasks = message.get("tasks") or ()
        if not tasks:
            raise ServiceError("open requires a non-empty task set")
        return cls(
            tasks=tuple(tasks),
            bound=message.get("bound"),
            tolerance=float(message.get("tolerance", 0.0)),
            format=message.get("format"),
        )

    def pipeline_config(self) -> PipelineConfig:
        """The session-mode pipeline view of these settings."""
        return PipelineConfig.for_session(
            format=self.format,
            bound=self.bound,
            tolerance=self.tolerance,
        )

    def make_learner(self):
        config = self.pipeline_config()
        return make_learner(self.tasks, config.bound, config.tolerance)

    def to_dict(self) -> dict:
        return {
            "tasks": list(self.tasks),
            "bound": self.bound,
            "tolerance": self.tolerance,
            "format": self.format,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SessionSettings":
        return cls(
            tasks=tuple(data["tasks"]),
            bound=data["bound"],
            tolerance=data["tolerance"],
            format=data.get("format"),
        )


def _events_to_wire(events: list[Event]) -> list[list]:
    return [[e.time, e.kind.value, e.subject] for e in events]


def _events_from_wire(rows: list) -> list[Event]:
    return [Event(row[0], EventKind(row[1]), row[2]) for row in rows]


class Session:
    """Live state of one streaming session."""

    def __init__(
        self,
        session_id: str,
        settings: SessionSettings,
        policy: SessionPolicy,
        learner=None,
    ) -> None:
        self.session_id = session_id
        self.settings = settings
        self.policy = policy
        self.learner = learner if learner is not None else settings.make_learner()
        #: Highest admitted append sequence number (the ledger).
        self.last_seq = 0
        #: Events buffered by ``events`` ops until an ``end_period``.
        self.pending_events: list[Event] = []
        #: Every op for this session flows through here; the bound is
        #: the backpressure contract.
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=policy.queue_depth)
        #: Set while the worker is mid-op; an idle session has an empty
        #: queue and ``busy`` false — only those are evictable.
        self.busy = False
        #: LRU stamp: a monotone tick from the manager, not wall clock.
        self.lru_tick = 0
        self.worker: asyncio.Task | None = None
        # Per-session service counters (mirrored into profile output).
        self.appends = 0
        self.duplicates = 0
        self.feed_errors = 0
        self.resumed = 0
        self.queue_peak = 0

    # -- ledger ------------------------------------------------------------

    def admit(self, seq) -> str:
        """Classify an append's sequence number: next, duplicate, or gap."""
        if not isinstance(seq, int) or seq < 1:
            raise ServiceError(f"append seq must be a positive int, got {seq!r}")
        if seq <= self.last_seq:
            return "duplicate"
        if seq == self.last_seq + 1:
            return "next"
        return "gap"

    # -- profile -----------------------------------------------------------

    def hot_loop(self) -> HotLoopCounters:
        """Learner counters with this session's service counts stamped in."""
        counters = self.learner._counters.copy()
        counters.session_appends = self.appends
        counters.session_duplicates = self.duplicates
        counters.session_feed_errors = self.feed_errors
        counters.session_queue_peak = self.queue_peak
        return counters

    def profile(self) -> dict:
        """A per-session snapshot shaped like ``--profile-json`` output."""
        learner = self.learner
        return {
            "session": self.session_id,
            "learn": {
                "algorithm": "exact" if self.settings.bound is None else "heuristic",
                "bound": self.settings.bound,
                "workers": 1,
                "periods": learner._periods,
                "messages": learner._messages,
                "peak_hypotheses": learner._peak,
                "merge_count": getattr(learner, "_merges", 0),
                "elapsed_seconds": learner._elapsed,
            },
            "service": {
                "last_seq": self.last_seq,
                "appends": self.appends,
                "duplicates": self.duplicates,
                "feed_errors": self.feed_errors,
                "resumed": self.resumed,
                "queue_peak": self.queue_peak,
                "pending_events": len(self.pending_events),
            },
            "hot_loop": self.hot_loop().as_dict(),
        }

    # -- spool round-trip --------------------------------------------------

    def spool_state(self) -> dict:
        """The JSON-ready spool form: checkpoint + session metadata."""
        return {
            "format": SPOOL_FORMAT,
            "version": SPOOL_VERSION,
            "session": self.session_id,
            "settings": self.settings.to_dict(),
            "last_seq": self.last_seq,
            "resumed": self.resumed,
            "pending_events": _events_to_wire(self.pending_events),
            "checkpoint": checkpoint_to_dict(self.learner),
        }

    @classmethod
    def from_spool(
        cls, data: dict, policy: SessionPolicy
    ) -> "Session":
        if data.get("format") != SPOOL_FORMAT:
            raise ServiceError(
                f"not a session spool file: format={data.get('format')!r}"
            )
        if data.get("version") != SPOOL_VERSION:
            raise ServiceError(
                f"unsupported spool version {data.get('version')!r}"
            )
        settings = SessionSettings.from_dict(data["settings"])
        learner = checkpoint_from_dict(data["checkpoint"])
        session = cls(data["session"], settings, policy, learner=learner)
        session.last_seq = int(data["last_seq"])
        session.resumed = int(data.get("resumed", 0)) + 1
        session.pending_events = _events_from_wire(data.get("pending_events", []))
        return session


__all__ = [
    "SPOOL_FORMAT",
    "SPOOL_VERSION",
    "Session",
    "SessionSettings",
]
