"""The ``repro serve`` daemon: many live learning sessions, one loop.

This is the repo's one asyncio program (lint rule RL008 confines event
loops here). The shape:

* one ``asyncio.start_server`` accept loop; each connection handshakes
  (``hello``/``welcome``) and then reads RPF1 frames;
* one :class:`~repro.service.session.Session` per session id, each
  with a **bounded** op queue and one worker task draining it. The
  connection handler ``await``s the queue put, so a slow learner stops
  the handler reading its socket — backpressure reaches the client as
  TCP flow control, never as daemon memory;
* learner work (feeds, model dumps) runs on the loop itself, inside
  the session's worker task; the worker yields after every op, so
  sessions share the loop round-robin, one op per turn. Feeds are pure
  Python, so a thread pool would add a hand-off per period and no
  parallelism;
* op failures are contained per session: a feed that raises is rolled
  back by the learner's all-or-nothing ``feed`` envelope, charged once
  to ``feed_errors`` (never retried: the same period would fail again),
  and degraded per the :class:`~repro.service.config.SessionPolicy`
  (reject the append, or close the session) — the daemon itself never
  dies from a session's trace;
* LRU eviction checkpoints idle sessions to the spool when the live
  count exceeds ``max_live``; any later op on the session id resumes
  it transparently (see :mod:`repro.service.eviction`).

Synchronous entry points — :func:`serve_service` for the CLI and
:class:`ServiceThread` for tests and benchmarks — wrap the loop so no
caller above this module touches asyncio.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import tempfile

from repro.analysis.report import dumps_model
from repro.distributed.framing import (
    FrameError,
    HEADER_SIZE,
    decode_frame,
    encode_frame,
    parse_frame_header,
)
from repro.distributed.protocol import parse_address
from repro.service import ops
from repro.service.config import SessionPolicy
from repro.service.eviction import SessionManager
from repro.service.ops import ServiceError
from repro.service.session import Session
from repro.trace.events import Event
from repro.trace.period import Period

#: Op kinds that flow through a session's queue (everything that reads
#: or writes learner state); the rest are handled on the connection.
_SESSION_OPS = frozenset(
    {"append", "events", "query", "profile", "close", "evict"}
)


async def _read_frame(reader: asyncio.StreamReader):
    """One RPF1 frame off an asyncio stream, via the framing helpers."""
    header = await reader.readexactly(HEADER_SIZE)
    body = await reader.readexactly(parse_frame_header(header))
    return decode_frame(header + body)


class _Responder:
    """Serialized frame writes to one connection.

    Session workers and the connection handler may interleave replies
    on the same writer; the lock keeps frames whole. Sends to a client
    that vanished are swallowed — admitted ops still run to completion
    (that is what makes kill-mid-stream recoverable), their acks just
    have nowhere to go.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._lock = asyncio.Lock()

    async def send(self, payload: dict) -> bool:
        async with self._lock:
            try:
                self._writer.write(encode_frame(payload))
                await self._writer.drain()
                return True
            except (ConnectionError, OSError):
                return False


class ServiceServer:
    """The daemon: accept loop, session workers, eviction pressure."""

    def __init__(
        self,
        policy: SessionPolicy | None = None,
        *,
        name: str | None = None,
        log=lambda line: None,
    ) -> None:
        self.policy = policy or SessionPolicy()
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.log = log
        self.address: str | None = None
        self.manager: SessionManager | None = None
        self._spool_tmp: tempfile.TemporaryDirectory | None = None
        self._stop: asyncio.Event | None = None
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------------

    async def serve(self, host: str, port: int, *, ready=None) -> None:
        """Run the daemon until a ``shutdown`` frame arrives."""
        spool_dir = self.policy.spool_dir
        if spool_dir is None:
            self._spool_tmp = tempfile.TemporaryDirectory(prefix="repro-spool-")
            spool_dir = self._spool_tmp.name
        os.makedirs(spool_dir, exist_ok=True)
        self.manager = SessionManager(self.policy, spool_dir)
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(self._handle, host, port)
        bound_host, bound_port = self._server.sockets[0].getsockname()[:2]
        self.address = f"tcp://{bound_host}:{bound_port}"
        self.log(f"serving on {self.address}")
        if ready is not None:
            ready(self.address)
        try:
            await self._stop.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            # wait_closed() does not wait for in-flight connection
            # handlers on 3.11; cancel and reap them explicitly so the
            # loop closes with no pending tasks.
            for task in list(self._connections):
                task.cancel()
            if self._connections:
                await asyncio.gather(
                    *self._connections, return_exceptions=True
                )
            for session in list(self.manager.live.values()):
                if session.worker is not None:
                    session.worker.cancel()
            if self._spool_tmp is not None:
                self._spool_tmp.cleanup()

    def daemon_profile(self) -> dict:
        """The daemon's aggregate profile: policy echo + folded counters.

        The machine-readable artifact ``repro serve --profile-json``
        writes on exit; shaped like the pipeline's profile so tooling
        can read both.
        """
        manager = self.manager
        assert manager is not None
        return {
            "server": self.name,
            "policy": {
                "queue_depth": self.policy.queue_depth,
                "max_live": self.policy.max_live,
                "degrade": self.policy.degrade,
            },
            "live_sessions": len(manager.live),
            "spooled_sessions": len(manager.spooled_ids()),
            "hot_loop": manager.aggregate_counters().as_dict(),
        }

    # -- connection handling -----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        responder = _Responder(writer)
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            greeting = await _read_frame(reader)
            try:
                ops.expect(greeting, "hello")
            except ServiceError as error:
                await responder.send(ops.error_reply(None, str(error), fatal=True))
                return
            await responder.send(ops.welcome(self.name))
            while True:
                message = await _read_frame(reader)
                if not isinstance(message, dict) or "kind" not in message:
                    await responder.send(
                        ops.error_reply(None, f"malformed frame: {message!r}")
                    )
                    continue
                if await self._dispatch(message, responder):
                    return
        except (EOFError, ConnectionError, OSError, FrameError):
            pass  # client went away; its sessions live on
        except asyncio.CancelledError:
            pass  # daemon shutting down; swallow so the reap is clean
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _dispatch(self, message: dict, responder: _Responder) -> bool:
        """Route one request frame; returns True when the daemon stops."""
        kind = message["kind"]
        manager = self.manager
        assert manager is not None
        if kind == "shutdown":
            await responder.send({"kind": "bye", "server": self.name})
            assert self._stop is not None
            self._stop.set()
            return True
        if kind == "stats":
            await responder.send(manager.stats(self.name))
            return False
        if kind == "open":
            try:
                session, how = manager.open(message)
            except ServiceError as error:
                await responder.send(
                    ops.error_reply(message.get("session"), str(error))
                )
                return False
            self._ensure_worker(session)
            self._apply_pressure(keep=session)
            await responder.send(
                {
                    "kind": "opened",
                    "session": session.session_id,
                    "how": how,
                    "last_seq": session.last_seq,
                    "periods": session.learner._periods,
                }
            )
            return False
        if kind in _SESSION_OPS:
            session_id = message.get("session")
            found = (
                manager.lookup(session_id)
                if isinstance(session_id, str)
                else None
            )
            if found is None:
                await responder.send(
                    ops.error_reply(
                        session_id,
                        f"unknown session {session_id!r}; open it first",
                    )
                )
                return False
            session, _ = found
            self._ensure_worker(session)
            self._apply_pressure(keep=session)
            await session.queue.put((message, responder))
            # Measured after the (possibly blocking) put so the peak
            # reflects real occupancy and never exceeds the bound; the
            # worker may already have drained our item, hence the floor.
            depth = session.queue.qsize() or 1
            if depth > session.queue_peak:
                session.queue_peak = depth
            return False
        await responder.send(
            ops.error_reply(None, f"unknown op kind {kind!r}")
        )
        return False

    def _ensure_worker(self, session: Session) -> None:
        if session.worker is None or session.worker.done():
            session.worker = asyncio.get_running_loop().create_task(
                self._run_session(session),
                name=f"repro-session-{session.session_id}",
            )

    def _apply_pressure(self, keep: Session) -> None:
        """Evict LRU idle sessions while over the live-learner bound."""
        manager = self.manager
        assert manager is not None
        while manager.over_capacity():
            victim = manager.pick_victim(exclude=keep)
            if victim is None:
                return  # everyone is busy; the bound re-applies later
            try:
                victim.queue.put_nowait(
                    ({"kind": "evict", "session": victim.session_id}, None)
                )
            except asyncio.QueueFull:  # pragma: no cover - victim was idle
                return
            # The victim stays in `live` until its worker runs the
            # evict; stop after one victim per open to avoid a stampede.
            return

    # -- session worker ----------------------------------------------------

    async def _run_session(self, session: Session) -> None:
        """Drain one session's op queue until it closes or evicts.

        Every op is individually guarded: an exception is reported to
        the op's responder and charged to the session, never raised
        into the event loop — one crashing session cannot take down
        the daemon.
        """
        while True:
            message, responder = await session.queue.get()
            session.busy = True
            try:
                done = await self._apply(session, message, responder)
            except Exception as error:  # noqa: BLE001 - isolation boundary
                self.log(
                    f"session {session.session_id}: "
                    f"{type(error).__name__}: {error}"
                )
                done = await self._degrade(session, responder, error)
            finally:
                session.busy = False
                session.queue.task_done()
            if done:
                return
            # One op per turn: let the other sessions' workers run.
            await asyncio.sleep(0)

    async def _apply(
        self, session: Session, message: dict, responder: _Responder | None
    ) -> bool:
        kind = message["kind"]
        manager = self.manager
        assert manager is not None
        if kind in ("append", "events"):
            return await self._apply_append(session, message, responder)
        if kind == "query":
            model_json = dumps_model(session.learner.result().lub())
            await self._reply(
                responder,
                {
                    "kind": "model",
                    "session": session.session_id,
                    "model_json": model_json,
                    "periods": session.learner._periods,
                },
            )
            return False
        if kind == "profile":
            await self._reply(
                responder,
                {"kind": "profile", **session.profile()},
            )
            return False
        if kind == "evict":
            if not session.queue.empty():
                # An op was queued behind the evict: the session is no
                # longer idle, and returning here would strand that op.
                await self._reply(
                    responder,
                    ops.error_reply(
                        session.session_id,
                        "evict skipped: the session has queued ops",
                    ),
                )
                return False
            path = manager.evict(session)
            self.log(f"evicted session {session.session_id} to {path}")
            await self._reply(
                responder,
                {"kind": "evicted", "session": session.session_id},
            )
            return True
        if kind == "close":
            model_json = dumps_model(session.learner.result().lub())
            periods = session.learner._periods
            manager.discard(session)
            await self._reply(
                responder,
                {
                    "kind": "closed",
                    "session": session.session_id,
                    "model_json": model_json,
                    "periods": periods,
                },
            )
            return True
        await self._reply(
            responder,
            ops.error_reply(
                session.session_id, f"unknown session op {kind!r}"
            ),
        )
        return False

    async def _apply_append(
        self, session: Session, message: dict, responder: _Responder | None
    ) -> bool:
        manager = self.manager
        assert manager is not None
        seq = message.get("seq")
        verdict = session.admit(seq)
        if verdict == "duplicate":
            session.duplicates += 1
            await self._reply(
                responder,
                ops.ack(
                    session.session_id,
                    seq,
                    session.learner._periods,
                    duplicate=True,
                ),
            )
            return False
        if verdict == "gap":
            await self._reply(
                responder,
                ops.error_reply(
                    session.session_id,
                    f"sequence gap: expected {session.last_seq + 1}, "
                    f"got {seq}",
                ),
            )
            return False
        # Admit the frame before feeding: a partially-failed append is
        # reported, not replayed — resending it would double-feed the
        # periods that did absorb.
        session.last_seq = seq
        session.appends += 1
        periods = self._periods_of(session, message)
        for period in periods:
            try:
                session.learner.feed(period)
            except Exception as error:  # noqa: BLE001 - charged to policy
                # The all-or-nothing feed rolled the period back, and
                # feeding it again would raise again.
                session.feed_errors += 1
                return await self._degrade(session, responder, error)
        await self._reply(
            responder,
            ops.ack(session.session_id, seq, session.learner._periods),
        )
        return False

    def _periods_of(self, session: Session, message: dict) -> list[Period]:
        """Materialize an append's periods (``append`` or ``events`` form)."""
        if message["kind"] == "append":
            periods = list(message.get("periods") or ())
            for period in periods:
                if not isinstance(period, Period):
                    raise ServiceError(
                        f"append carries a non-Period payload: {period!r}"
                    )
            return periods
        events = message.get("events") or ()
        for event in events:
            if not isinstance(event, Event):
                raise ServiceError(
                    f"events carries a non-Event payload: {event!r}"
                )
        session.pending_events.extend(events)
        if not message.get("end_period"):
            return []
        if not session.pending_events:
            raise ServiceError("end_period with no buffered events")
        period = Period(
            session.pending_events, index=session.learner._periods
        )
        session.pending_events = []
        return [period]

    async def _degrade(
        self, session: Session, responder: _Responder | None, error: Exception
    ) -> bool:
        """Apply the policy's degradation mode after a failed op."""
        manager = self.manager
        assert manager is not None
        if self.policy.degrade == "close":
            manager.discard(session, failed=True)
            await self._reply(
                responder,
                ops.error_reply(
                    session.session_id,
                    f"session closed by degrade policy: {error}",
                    fatal=True,
                ),
            )
            return True
        await self._reply(
            responder,
            ops.error_reply(session.session_id, str(error)),
        )
        return False

    # -- small helpers -----------------------------------------------------

    async def _reply(self, responder: _Responder | None, payload: dict) -> None:
        if responder is not None:
            await responder.send(payload)


# ----------------------------------------------------------------------
# Synchronous entry points
# ----------------------------------------------------------------------

def serve_service(
    address: str,
    *,
    policy: SessionPolicy | None = None,
    name: str | None = None,
    log=lambda line: None,
    profile_json: str | None = None,
) -> int:
    """Run the daemon (blocking) until a ``shutdown`` frame; returns 0.

    When *profile_json* is set, the daemon's aggregate profile — the
    folded hot-loop counters of every session it ever held — is written
    there on the way out, shutdown frame or not.
    """
    host, port = parse_address(address)
    server = ServiceServer(policy, name=name, log=log)
    try:
        asyncio.run(server.serve(host, port))
    except KeyboardInterrupt:
        log("interrupted; shutting down")
    finally:
        if profile_json is not None and server.manager is not None:
            with open(profile_json, "w", encoding="utf-8") as stream:
                json.dump(server.daemon_profile(), stream, indent=2)
    return 0


class ServiceThread:
    """An in-process daemon for tests and benchmarks.

    The loop runs in a dedicated thread; ``address`` blocks until the
    listening socket is bound (pass port 0 for an OS-assigned port),
    and ``stop()`` shuts the loop down and joins the thread. The
    service holds no process pools, so in-process hosting is safe —
    unlike worker daemons, which must run in subprocesses.
    """

    def __init__(
        self,
        policy: SessionPolicy | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str | None = None,
    ) -> None:
        import threading

        self.server = ServiceServer(policy, name=name)
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(
            target=self._run, args=(host, port), name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise ServiceError("service thread failed to bind in time")

    def _run(self, host: str, port: int) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(
                self.server.serve(
                    host, port, ready=lambda addr: self._ready.set()
                )
            )
        finally:
            loop.close()

    @property
    def address(self) -> str:
        assert self.server.address is not None
        return self.server.address

    def stop(self) -> None:
        loop, stop = self._loop, self.server._stop
        if loop is not None and stop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already closed between the check and the call
        self._thread.join(timeout=30.0)


__all__ = ["ServiceServer", "ServiceThread", "serve_service"]
