"""Session registry with LRU eviction to an on-disk spool.

The daemon promises bounded memory: at most ``SessionPolicy.max_live``
learners live at once. The manager keeps every live session stamped
with a monotone LRU tick (an integer counter, not wall clock — ticks
are deterministic under test), and when an ``open`` would exceed the
bound it picks the least-recently-used *idle* session as the eviction
victim. Busy sessions — queue non-empty or mid-op — are never evicted,
so the bound is soft under pressure spikes and re-establishes itself
as queues drain.

Eviction is a checkpoint, not a loss: the victim's spool file carries
the learner checkpoint plus the session's ledger and
buffered events, and the next ``open`` of that session id resumes it
transparently. A ``close`` deletes the spool; a daemon restart with
the same spool directory can resume every evicted session.
"""

from __future__ import annotations

import json
import os

from repro.core.instrumentation import HotLoopCounters
from repro.service.config import SessionPolicy
from repro.service.ops import ServiceError
from repro.service.session import Session, SessionSettings


def spool_filename(session_id: str) -> str:
    """A filesystem-safe, collision-free name for a session's spool file.

    Alphanumerics, dash, and underscore pass through; every other
    character is percent-encoded, so distinct ids never collide.
    """
    encoded = "".join(
        c if c.isalnum() or c in "-_" else f"%{ord(c):02x}"
        for c in session_id
    )
    return f"{encoded}.session.json"


class SessionManager:
    """Owns the live-session table, the LRU order, and the spool."""

    def __init__(self, policy: SessionPolicy, spool_dir: str) -> None:
        self.policy = policy
        self.spool_dir = spool_dir
        self.live: dict[str, Session] = {}
        #: Daemon-level aggregate: service events plus the folded
        #: counters of every session that closed, failed, or evicted.
        self.counters = HotLoopCounters()
        self._tick = 0

    # -- LRU ---------------------------------------------------------------

    def touch(self, session: Session) -> None:
        self._tick += 1
        session.lru_tick = self._tick

    def pick_victim(self, exclude: Session | None = None) -> Session | None:
        """The least-recently-used idle session, or ``None``.

        Idle means an empty queue and no op mid-flight; evicting a busy
        session would drop admitted-but-unprocessed appends.
        """
        candidates = [
            s
            for s in self.live.values()
            if s is not exclude and not s.busy and s.queue.empty()
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda s: s.lru_tick)

    def over_capacity(self) -> bool:
        return len(self.live) > self.policy.max_live

    # -- open / resume -----------------------------------------------------

    def lookup(self, session_id: str) -> tuple[Session, str] | None:
        """Find a session by id: live (``"attached"``) or spooled
        (``"resumed"`` — brought back transparently); ``None`` when the
        id is unknown. Any successful lookup refreshes the LRU stamp.
        """
        existing = self.live.get(session_id)
        if existing is not None:
            self.touch(existing)
            return existing, "attached"
        spool = self.spool_path(session_id)
        if os.path.exists(spool):
            with open(spool, "r", encoding="utf-8") as stream:
                data = json.load(stream)
            session = Session.from_spool(data, self.policy)
            self.live[session_id] = session
            self.touch(session)
            self.counters.sessions_resumed += 1
            return session, "resumed"
        return None

    def open(self, message: dict) -> tuple[Session, str]:
        """Handle an ``open``: attach, resume from spool, or create.

        Returns the session and what happened (``"attached"`` /
        ``"resumed"`` / ``"created"``); the caller starts a worker task
        for anything that was not already live.
        """
        session_id = message.get("session")
        if not isinstance(session_id, str) or not session_id:
            raise ServiceError("open requires a non-empty session id")
        found = self.lookup(session_id)
        if found is not None:
            return found
        settings = SessionSettings.from_open(message)
        session = Session(session_id, settings, self.policy)
        self.live[session_id] = session
        self.touch(session)
        self.counters.sessions_opened += 1
        return session, "created"

    # -- spool -------------------------------------------------------------

    def spool_path(self, session_id: str) -> str:
        return os.path.join(self.spool_dir, spool_filename(session_id))

    def evict(self, session: Session) -> str:
        """Checkpoint *session* to the spool and drop it from memory."""
        path = self.spool_path(session.session_id)
        state = session.spool_state()
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as stream:
            json.dump(state, stream)
        os.replace(tmp, path)
        self._fold(session)
        self.counters.sessions_evicted += 1
        self.live.pop(session.session_id, None)
        return path

    def discard(self, session: Session, *, failed: bool = False) -> None:
        """Remove a closed (or degraded) session and its spool file."""
        self._fold(session)
        if failed:
            self.counters.sessions_failed += 1
        else:
            self.counters.sessions_closed += 1
        self.live.pop(session.session_id, None)
        spool = self.spool_path(session.session_id)
        if os.path.exists(spool):
            os.remove(spool)

    def _fold(self, session: Session) -> None:
        """Fold a departing session's counters into the daemon aggregate."""
        self.counters.merge(session.hot_loop())

    # -- daemon stats ------------------------------------------------------

    def spooled_ids(self) -> list[str]:
        if not os.path.isdir(self.spool_dir):
            return []
        return sorted(
            name[: -len(".session.json")]
            for name in os.listdir(self.spool_dir)
            if name.endswith(".session.json")
        )

    def aggregate_counters(self) -> HotLoopCounters:
        """Daemon totals: departed sessions plus everything still live."""
        total = self.counters.copy()
        for session in self.live.values():
            total.merge(session.hot_loop())
        return total

    def stats(self, server: str) -> dict:
        return {
            "kind": "stats",
            "server": server,
            "live_sessions": len(self.live),
            "spooled_sessions": len(self.spooled_ids()),
            "hot_loop": self.aggregate_counters().as_dict(),
        }


__all__ = ["SessionManager", "spool_filename"]
