"""Synchronous client library for the session service.

A :class:`ServiceClient` is a plain blocking-socket peer of the
asyncio daemon — callers above the service boundary stay synchronous
(lint rule RL008). One client drives one session at a time; the client
tracks the session's settings and append-sequence ladder so it can
reconnect, re-open (which attaches or resumes), and re-send unacked
frames — the server's ledger acks re-sent frames as duplicates without
feeding them, which is what makes delivery exactly-once end to end.

Chaos: constructing the client with a ``chaos_index`` arms the
deterministic ``REPRO_CHAOS`` plan at the append send site (see
:func:`repro.distributed.chaos.client_faults`): ``disconnect`` closes
the socket instead of sending and recovers through the resend path,
``drop`` skips a send attempt, ``duplicate`` sends the frame twice,
``slow`` stalls before sending. Faults are keyed by (index, delivery
attempt), so every chaos run is reproducible.
"""

from __future__ import annotations

import socket
import time

from repro.distributed.chaos import client_faults
from repro.distributed.framing import FrameError, recv_frame, send_frame
from repro.distributed.protocol import parse_address
from repro.service import ops
from repro.service.ops import ServiceError
from repro.trace.formats import resolve_format

#: Periods per append frame when streaming a whole file.
DEFAULT_BATCH = 16


class ServiceClient:
    """One connection to a service daemon, driving one session."""

    def __init__(
        self,
        address: str,
        *,
        name: str = "client",
        timeout: float = 30.0,
        chaos_index: int | None = None,
    ) -> None:
        self.address = address
        self.host, self.port = parse_address(address)
        self.name = name
        self.timeout = timeout
        self.chaos_index = chaos_index
        self._sock: socket.socket | None = None
        self._session_id: str | None = None
        self._open_message: dict | None = None
        self._next_seq = 1
        self._attempts: dict[int, int] = {}
        self.reconnects = 0

    # -- connection --------------------------------------------------------

    def connect(self) -> dict:
        """Dial and handshake; returns the server's ``welcome``."""
        self.close()
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        send_frame(self._sock, ops.hello(self.name))
        reply, _ = recv_frame(self._sock)
        return ops.expect(reply, "welcome")

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _ensure(self) -> socket.socket:
        if self._sock is None:
            self.connect()
            if self._open_message is not None:
                self._reopen()
        assert self._sock is not None
        return self._sock

    def _reconnect(self) -> None:
        """Reconnect and re-attach the session after a lost connection."""
        self.reconnects += 1
        self.close()
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                self.connect()
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)
        if self._open_message is not None:
            self._reopen()

    def _reopen(self) -> None:
        assert self._open_message is not None and self._sock is not None
        send_frame(self._sock, self._open_message)
        reply, _ = recv_frame(self._sock)
        opened = ops.expect(reply, "opened")
        # The server's ledger is the truth: anything at or below its
        # last_seq was admitted before the connection died.
        self._next_seq = max(self._next_seq, opened["last_seq"] + 1)

    def _rpc(self, payload: dict, expected: str) -> dict:
        """Send one request and read its reply, reconnecting on loss."""
        while True:
            sock = self._ensure()
            try:
                send_frame(sock, payload)
                reply, _ = recv_frame(sock)
            except (OSError, EOFError, FrameError):
                self._reconnect()
                continue
            return ops.expect(reply, expected)

    # -- session lifecycle -------------------------------------------------

    def open_session(
        self,
        session_id: str,
        tasks=(),
        *,
        bound: int | None = None,
        tolerance: float = 0.0,
        format: str | None = None,
    ) -> dict:
        """Open (create, attach, or resume) a session; returns ``opened``."""
        message = ops.open_op(
            session_id,
            tasks,
            bound=bound,
            tolerance=tolerance,
            format=format,
        )
        opened = self._rpc(message, "opened")
        self._session_id = session_id
        self._open_message = message
        self._next_seq = opened["last_seq"] + 1
        return opened

    def _require_session(self) -> str:
        if self._session_id is None:
            raise ServiceError("no session open on this client")
        return self._session_id

    def query_model(self) -> str:
        """The session's current model as JSON text."""
        reply = self._rpc(ops.query_op(self._require_session()), "model")
        return reply["model_json"]

    def profile(self) -> dict:
        """A ``--profile-json``-shaped snapshot of the session."""
        return self._rpc(ops.profile_op(self._require_session()), "profile")

    def evict_session(self) -> dict:
        """Checkpoint the session to the server's spool and drop it live.

        The session id stays re-openable: the next op on it (or an
        explicit :meth:`open_session`) resumes from the checkpoint.
        """
        return self._rpc(ops.evict_op(self._require_session()), "evicted")

    def close_session(self) -> dict:
        """End the session; the reply carries the final model JSON."""
        reply = self._rpc(ops.close_op(self._require_session()), "closed")
        self._session_id = None
        self._open_message = None
        self._next_seq = 1
        self._attempts.clear()
        return reply

    # -- appends (seq-laddered, chaos-armed) -------------------------------

    def append_periods(self, periods, *, seq: int | None = None) -> dict:
        """Stream a batch of periods; returns the server's ``ack``.

        An explicit *seq* re-sends a ladder position deliberately
        (tests use this to exercise the duplicate path); by default the
        client stamps the next ladder position and advances on ack.
        """
        session = self._require_session()
        explicit = seq is not None
        stamp = seq if explicit else self._next_seq
        ack = self._deliver(ops.append_op(session, stamp, list(periods)))
        if not explicit:
            self._next_seq = max(self._next_seq, stamp + 1)
        return ack

    def append_events(self, events, *, end_period: bool = False) -> dict:
        """Stream raw events; ``end_period`` closes them into a period."""
        session = self._require_session()
        stamp = self._next_seq
        ack = self._deliver(
            ops.events_op(session, stamp, list(events), end_period=end_period)
        )
        self._next_seq = max(self._next_seq, stamp + 1)
        return ack

    def _deliver(self, payload: dict) -> dict:
        """Send one append frame to an ack, surviving chaos and loss."""
        seq = payload["seq"]
        while True:
            # Attempts are zero-based, matching the shard executors: a
            # default ``N = 1`` fault hits attempt 0 (the first
            # delivery) and lets the resend through.
            attempt = self._attempts.get(seq, 0)
            self._attempts[seq] = attempt + 1
            faults = (
                client_faults(self.chaos_index, attempt)
                if self.chaos_index is not None
                else ()
            )
            kinds = {spec.kind for spec in faults}
            for spec in faults:
                if spec.kind == "slow":
                    time.sleep(spec.param)
            if "disconnect" in kinds:
                self._reconnect()
                continue
            if "drop" in kinds:
                continue  # this delivery attempt never happens
            sock = self._ensure()
            try:
                send_frame(sock, payload)
                if "duplicate" in kinds:
                    send_frame(sock, payload)
                reply, _ = recv_frame(sock)
                ack = ops.expect(reply, "ack")
                if "duplicate" in kinds:
                    extra, _ = recv_frame(sock)
                    ops.expect(extra, "ack")
                return ack
            except (OSError, EOFError, FrameError):
                self._reconnect()
                continue

    # -- whole-file streaming ----------------------------------------------

    def stream_file(
        self,
        session_id: str,
        path: str,
        *,
        format: str | None = None,
        bound: int | None = None,
        tolerance: float = 0.0,
        batch: int = DEFAULT_BATCH,
    ) -> dict:
        """Open a session for *path* and stream its periods in batches.

        The trace is parsed client-side through the same format
        registry ``repro learn`` uses, so a streamed session and a
        batch run see identical periods. Returns the final ``ack``
        (or the ``opened`` reply for an empty trace).
        """
        fmt = resolve_format(format, path)
        tasks, periods = fmt.open_periods(path)
        try:
            reply = self.open_session(
                session_id,
                tasks,
                bound=bound,
                tolerance=tolerance,
                format=format,
            )
            pending = []
            for period in periods:
                pending.append(period)
                if len(pending) >= batch:
                    reply = self.append_periods(pending)
                    pending = []
            if pending:
                reply = self.append_periods(pending)
            return reply
        finally:
            closer = getattr(periods, "close", None)
            if closer is not None:
                closer()

    # -- daemon ops --------------------------------------------------------

    def daemon_stats(self) -> dict:
        return self._rpc(ops.stats_op(), "stats")

    def shutdown_daemon(self) -> dict:
        reply = self._rpc(ops.shutdown_op(), "bye")
        self.close()
        return reply

    def __enter__(self) -> "ServiceClient":
        self.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["DEFAULT_BATCH", "ServiceClient"]
