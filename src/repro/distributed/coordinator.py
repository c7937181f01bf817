"""The TCP coordinator: a ``concurrent.futures`` executor over workers.

:class:`TcpShardExecutor` listens on a ``tcp://HOST:PORT`` address,
handshakes ``repro worker`` daemons as they connect, and exposes the
one method :class:`~repro.core.shardexec.ShardRuntime` actually calls —
``submit`` — plus the breakage semantics the runtime's state machine
expects (``BrokenExecutor`` when the fleet is gone). The runtime's
retry/rebuild/degrade machinery therefore drives remote workers through
exactly the code path it drives local process pools through. A worker
forwards a shard's exception verbatim, so a shard's data error reaches
the runtime as the error itself, never retried.

Scheduling is least-loaded with work stealing:

* a submitted task goes to the connected worker with the most free
  slots (ties broken by connection order, deterministically);
* a task outstanding on one worker past the steal deadline is
  re-dispatched to an idle worker that does not already hold it
  (``tasks_stolen``) — the first result to arrive wins and the
  :class:`~repro.distributed.ledger.ResultLedger` discards the loser.
  Stealing is what recovers a chaos-``drop``\\ ped result frame without
  waiting for the shard timeout.

Failure detection is deadline-based: every worker heartbeats on the
interval the coordinator announced in its welcome, and a worker silent
for :data:`~repro.distributed.protocol.HEARTBEAT_TIMEOUT_FACTOR`
intervals is declared dead (``dead_workers``), its connection closed
and its exclusive outstanding tasks requeued. A worker whose socket
simply closes (``worker_disconnects``) gets the same requeue treatment
and may reconnect at will — the handshake is stateless.

Epochs make teardown/rebuild cheap: the runtime's "tear this executor
down, mint a fresh one" recovery maps onto ``reset()`` — bump the
epoch, broadcast a RESET frame (workers kill and rebuild their local
pools, abandoning hung shards), drop all ledger and task state. Result
frames from a previous epoch are discarded as stale. Connections
survive resets, so a rebuild costs no reconnect round-trips.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from concurrent.futures import BrokenExecutor, Executor, Future
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.instrumentation import HotLoopCounters
from repro.distributed.framing import FrameError, recv_frame, send_frame
from repro.distributed.ledger import ResultLedger
from repro.distributed.protocol import (
    HEARTBEAT_INTERVAL,
    HEARTBEAT_TIMEOUT_FACTOR,
    ProtocolError,
    StoreFingerprint,
    check_protocol,
    parse_address,
    welcome,
)

#: Coordinator housekeeping cadence (dispatch, deadlines, steal checks).
MONITOR_TICK = 0.05

#: Default seconds a task may sit on one worker before an idle worker
#: may steal it. Deliberately generous next to typical shard learns;
#: chaos tests tighten it to exercise the steal path quickly.
STEAL_TIMEOUT = 5.0

#: Default seconds the executor tolerates having zero connected workers
#: while work is outstanding before declaring itself broken.
BROKEN_GRACE = 5.0


@dataclass
class _WorkerLink:
    """One handshaked worker connection."""

    name: str
    sock: socket.socket
    slots: int
    last_seen: float
    alive: bool = True
    next_seq: int = 0
    outstanding: set[int] = field(default_factory=set)

    @property
    def free_slots(self) -> int:
        return self.slots - len(self.outstanding)


@dataclass
class _TaskRecord:
    """One submitted task and its dispatch history."""

    task_id: int
    fn: Callable
    args: tuple
    index: int
    attempt: int
    future: Future
    epoch: int
    dispatch_count: int = 0
    owners: set[str] = field(default_factory=set)
    last_dispatch: float = 0.0


def _shard_identity(args: tuple) -> tuple[int, int]:
    """Best-effort (shard index, attempt) from a runtime submit call.

    :class:`~repro.core.shardexec.ShardRuntime` submits
    ``(worker_fn, (tasks, periods, tolerance, index, attempt))``; the
    identity keys deterministic network chaos on the worker. Any other
    argument shape gets a neutral identity (chaos plans simply won't
    match it).
    """
    if args and isinstance(args[-1], tuple) and len(args[-1]) >= 5:
        index, attempt = args[-1][3], args[-1][4]
        if isinstance(index, int) and isinstance(attempt, int):
            return index, attempt
    return -1, 0


class TcpShardExecutor(Executor):
    """Executor facade over a fleet of ``repro worker`` connections.

    Parameters
    ----------
    host, port:
        Listen address. Port 0 picks an ephemeral port; read it back
        from :attr:`address`.
    store:
        Fingerprint of the ``.rts`` store this learn reads from, or
        ``None`` for in-memory traces. Sent in every welcome; workers
        refuse the session when their local store differs.
    steal_timeout, broken_grace, heartbeat_interval:
        See module constants.
    counters:
        Wire/connection tallies land here (shared with the factory so
        they survive resets and reach ``--profile-json``).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        store: StoreFingerprint | None = None,
        steal_timeout: float = STEAL_TIMEOUT,
        broken_grace: float = BROKEN_GRACE,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        counters: HotLoopCounters | None = None,
    ) -> None:
        self.store = store
        self.steal_timeout = steal_timeout
        self.broken_grace = broken_grace
        self.heartbeat_interval = heartbeat_interval
        self.counters = counters if counters is not None else HotLoopCounters()
        self._lock = threading.RLock()
        #: Notified, under the lock, when a worker joins or leaves and
        #: when a result frame lands.
        self._changed = threading.Condition(self._lock)
        self._workers: dict[str, _WorkerLink] = {}
        #: Result frames stamped ``copies: N`` that still owe copies:
        #: (worker, epoch, task id, seq) -> copies yet to arrive.
        self._owed: dict[tuple[str, int, int, int], int] = {}
        self._tasks: dict[int, _TaskRecord] = {}
        self._pending: deque[_TaskRecord] = deque()
        self._ledger = ResultLedger()
        self._refusals: list[str] = []
        self._epoch = 0
        self._next_task_id = 0
        self._session = 0
        self._broken: str | None = None
        self._no_worker_since: float | None = None
        self._closing = False

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.address = (
            f"tcp://{self._listener.getsockname()[0]}"
            f":{self._listener.getsockname()[1]}"
        )

        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-tcp-accept", daemon=True
        )
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="repro-tcp-monitor", daemon=True
        )
        self._accept_thread.start()
        self._monitor_thread.start()

    # -- Executor interface ----------------------------------------------

    def submit(self, fn: Callable, /, *args: Any, **kwargs: Any) -> Future:
        if kwargs:
            raise TypeError("TcpShardExecutor.submit takes no kwargs")
        with self._lock:
            if self._closing:
                raise RuntimeError("cannot submit to a closed TcpShardExecutor")
            if self._broken is not None:
                raise BrokenExecutor(self._broken)
            index, attempt = _shard_identity(args)
            record = _TaskRecord(
                task_id=self._next_task_id,
                fn=fn,
                args=args,
                index=index,
                attempt=attempt,
                future=Future(),
                epoch=self._epoch,
            )
            self._next_task_id += 1
            self._tasks[record.task_id] = record
            self._pending.append(record)
            self._dispatch_ready()
            return record.future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Executor-protocol shutdown; the factory calls :meth:`close`."""
        self.close()

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Abandon the current epoch: the runtime's pool-rebuild action.

        Outstanding futures are cancelled (the runtime has already
        requeued their jobs), workers are told to kill and rebuild
        their local pools — which is what un-hangs a chaos-``hang``\\ ed
        shard — and late results from the old epoch will be dropped as
        stale.
        """
        with self._lock:
            self._epoch += 1
            self._broken = None
            self._no_worker_since = None
            for record in self._tasks.values():
                record.future.cancel()
            self._tasks.clear()
            self._pending.clear()
            self._ledger.reset_sequences()
            for link in list(self._workers.values()):
                link.outstanding.clear()
                link.next_seq = 0
                try:
                    send_frame(link.sock, {"kind": "reset", "epoch": self._epoch})
                except OSError:
                    self._drop_worker(link, reason="disconnect")

    def close(self) -> None:
        """Stop threads and close every socket. Workers stay running —
        a daemon whose connection drops simply retries its connect loop,
        ready for the next coordinator."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            links = list(self._workers.values())
            self._workers.clear()
            self._owed.clear()
            self._changed.notify_all()
        try:
            self._listener.close()
        except OSError:
            pass
        for link in links:
            link.alive = False
            try:
                link.sock.close()
            except OSError:
                pass

    def wait_for_workers(self, want: int, timeout: float) -> int:
        """Block until *want* workers are connected, or *timeout* passes.

        Returns the connected count (≥ 1); raises ``OSError`` if the
        deadline passes with **zero** workers — the seam contract turns
        that into the runtime's degrade-or-fail decision. A partial
        fleet proceeds: more workers may still join mid-run.
        """
        deadline = time.monotonic() + timeout
        with self._changed:
            while True:
                count = sum(1 for w in self._workers.values() if w.alive)
                if count >= want:
                    return count
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._changed.wait(remaining)
            refusals = list(self._refusals)
        if count:
            return count
        detail = f" (refused: {'; '.join(refusals)})" if refusals else ""
        raise OSError(
            f"no workers connected to {self.address} within "
            f"{timeout:g}s{detail}"
        )

    def drain(self, timeout: float) -> bool:
        """Block until no result frame owes a copy, or *timeout* passes.

        A worker stamps a frame it sends twice (chaos ``duplicate``)
        with ``copies: 2``; waiting here lets the second copy reach the
        wire tallies before the runtime snapshots them. Returns at once
        when nothing is owed; True when nothing is owed on return.
        """
        with self._changed:
            return self._changed.wait_for(lambda: not self._owed, timeout)

    # -- accept / handshake ------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._handshake, args=(sock,),
                name="repro-tcp-handshake", daemon=True,
            ).start()

    def _handshake(self, sock: socket.socket) -> None:
        try:
            sock.settimeout(10.0)
            message, _ = recv_frame(sock)
            hello = check_protocol(message, "hello")
            with self._lock:
                self._session += 1
                session = f"s{self._session}"
            send_frame(
                sock,
                welcome(session, self.store, self.heartbeat_interval),
            )
            sock.settimeout(None)
        except (ProtocolError, FrameError, EOFError, OSError) as error:
            try:
                send_frame(sock, {"kind": "refuse", "reason": str(error)})
            except OSError:
                pass
            sock.close()
            return
        name = f"{hello['worker']}#{session}"
        link = _WorkerLink(
            name=name,
            sock=sock,
            slots=max(1, int(hello["slots"])),
            last_seen=time.monotonic(),
        )
        with self._lock:
            if self._closing:
                sock.close()
                return
            self._workers[name] = link
            self.counters.worker_connects += 1
            self._no_worker_since = None
            self._dispatch_ready()
            self._changed.notify_all()
        threading.Thread(
            target=self._reader_loop, args=(link,),
            name=f"repro-tcp-read-{name}", daemon=True,
        ).start()

    # -- per-connection reader ---------------------------------------------

    def _reader_loop(self, link: _WorkerLink) -> None:
        reason = "disconnect"
        try:
            while link.alive:
                message, nbytes = recv_frame(link.sock)
                with self._lock:
                    link.last_seen = time.monotonic()
                    self.counters.wire_bytes_received += nbytes
                kind = message.get("kind")
                if kind == "result":
                    self._handle_result(link, message)
                elif kind == "refuse":
                    with self._lock:
                        self._refusals.append(
                            f"{link.name}: {message.get('reason', 'no reason')}"
                        )
                    reason = "refused"
                    return
                # heartbeats need nothing beyond the last_seen update
        except (EOFError, OSError, FrameError):
            pass
        finally:
            with self._lock:
                if link.alive:
                    self._drop_worker(link, reason=reason)

    def _handle_result(self, link: _WorkerLink, message: dict) -> None:
        with self._lock:
            self._count_copy(link, message)
            self.counters.wire_results += 1
            task_id = message["task_id"]
            if message.get("epoch") != self._epoch:
                # Sent before a reset. A straggling chaos-duplicate of a
                # task already answered is still a duplicate; any other
                # stale result is abandoned work, counted nowhere.
                if self._ledger.completed(task_id):
                    self.counters.wire_duplicates += 1
                return
            verdict = self._ledger.admit(task_id, link.name, message["seq"])
            if verdict.reordered:
                self.counters.wire_reorders += 1
            record = self._tasks.get(task_id)
            if not verdict.fresh or record is None:
                self.counters.wire_duplicates += 1
                return
            del self._tasks[task_id]
            for worker in self._workers.values():
                worker.outstanding.discard(task_id)
            future = record.future
            self._dispatch_ready()
        if message.get("ok"):
            future.set_result(message["value"])
        else:
            error = message.get("error")
            if not isinstance(error, BaseException):
                error = RuntimeError(str(error))
            future.set_exception(error)

    def _count_copy(self, link: _WorkerLink, message: dict) -> None:
        """Settle one copy of a result frame against the copies it owes.

        Called with the lock held, so a drain woken here sees the
        frame's tallies only after the caller has made them.
        """
        key = (link.name, message.get("epoch"), message["task_id"], message["seq"])
        owed = self._owed.pop(key, None)
        if owed is None:
            owed = int(message.get("copies", 1))
        if owed > 1:
            self._owed[key] = owed - 1
        self._changed.notify_all()

    # -- scheduling (all called with the lock held) --------------------------

    def _dispatch_ready(self) -> None:
        while self._pending:
            link = self._least_loaded(exclude=frozenset())
            if link is None:
                return
            record = self._pending.popleft()
            if record.epoch != self._epoch or record.future.cancelled():
                continue
            self._send_task(link, record)

    def _least_loaded(self, exclude: frozenset[str]) -> _WorkerLink | None:
        best: _WorkerLink | None = None
        for name in sorted(self._workers):
            link = self._workers[name]
            if not link.alive or link.free_slots <= 0 or name in exclude:
                continue
            if best is None or link.free_slots > best.free_slots:
                best = link
        return best

    def _send_task(self, link: _WorkerLink, record: _TaskRecord) -> None:
        seq = link.next_seq
        link.next_seq += 1
        net_key = record.attempt + record.dispatch_count
        frame = {
            "kind": "task",
            "epoch": self._epoch,
            "task_id": record.task_id,
            "seq": seq,
            "index": record.index,
            "net_key": net_key,
            "func": record.fn,
            "args": record.args,
        }
        try:
            sent = send_frame(link.sock, frame)
        except OSError:
            self._drop_worker(link, reason="disconnect")
            self._pending.appendleft(record)
            return
        record.dispatch_count += 1
        record.owners.add(link.name)
        record.last_dispatch = time.monotonic()
        link.outstanding.add(record.task_id)
        self.counters.wire_tasks_sent += 1
        self.counters.wire_bytes_sent += sent

    def _drop_worker(self, link: _WorkerLink, reason: str) -> None:
        link.alive = False
        self._workers.pop(link.name, None)
        self._ledger.forget_worker(link.name)
        # Copies still owed on a closed connection will never arrive.
        for key in [key for key in self._owed if key[0] == link.name]:
            del self._owed[key]
        self._changed.notify_all()
        if reason == "dead":
            self.counters.dead_workers += 1
        else:
            self.counters.worker_disconnects += 1
        try:
            link.sock.close()
        except OSError:
            pass
        # Requeue the tasks only this worker held; a stolen copy still
        # outstanding elsewhere keeps its chance to deliver first.
        for task_id in link.outstanding:
            record = self._tasks.get(task_id)
            if record is None:
                continue
            record.owners.discard(link.name)
            still_held = any(
                task_id in w.outstanding
                for w in self._workers.values()
                if w.alive
            )
            if not still_held and record not in self._pending:
                self._pending.appendleft(record)
        link.outstanding.clear()
        self._dispatch_ready()

    # -- monitor -------------------------------------------------------------

    def _monitor_loop(self) -> None:
        while True:
            time.sleep(MONITOR_TICK)
            with self._lock:
                if self._closing:
                    return
                now = time.monotonic()
                self._expire_heartbeats(now)
                self._steal_stale(now)
                self._dispatch_ready()
                self._check_broken(now)

    def _expire_heartbeats(self, now: float) -> None:
        deadline = self.heartbeat_interval * HEARTBEAT_TIMEOUT_FACTOR
        for link in list(self._workers.values()):
            if now - link.last_seen > deadline:
                self._drop_worker(link, reason="dead")

    def _steal_stale(self, now: float) -> None:
        for record in self._tasks.values():
            if not record.owners:
                continue
            if now - record.last_dispatch <= self.steal_timeout:
                continue
            thief = self._least_loaded(exclude=frozenset(record.owners))
            if thief is None:
                continue
            self.counters.tasks_stolen += 1
            self._send_task(thief, record)

    def _check_broken(self, now: float) -> None:
        if self._broken is not None or not (self._tasks or self._pending):
            self._no_worker_since = None
            return
        if any(w.alive for w in self._workers.values()):
            self._no_worker_since = None
            return
        if self._no_worker_since is None:
            self._no_worker_since = now
            return
        if now - self._no_worker_since < self.broken_grace:
            return
        self._broken = (
            f"all workers lost for {self.broken_grace:g}s with work outstanding"
        )
        failed = [r.future for r in self._tasks.values()]
        self._tasks.clear()
        self._pending.clear()
        error = BrokenExecutor(self._broken)
        for future in failed:
            if not future.cancelled():
                future.set_exception(error)


class TcpExecutorFactory:
    """:class:`~repro.core.shardexec.ShardExecutorFactory` over TCP.

    Owns one long-lived :class:`TcpShardExecutor` (listener, worker
    connections) across the whole learn. ``new_executor`` resets the
    epoch and blocks until the fleet is up; ``teardown`` resets again so
    workers abandon any hung local work — connections are kept, making
    the runtime's rebuild path nearly free. Call :meth:`close` when the
    learn is over.

    The ``counters`` attribute satisfies the seam's optional contract:
    the runtime merges it after the run, which is how wire and
    connection tallies reach ``--profile-json`` and the bench reports.
    """

    def __init__(
        self,
        address: str,
        *,
        workers: int = 1,
        store: StoreFingerprint | None = None,
        connect_timeout: float = 30.0,
        steal_timeout: float = STEAL_TIMEOUT,
        broken_grace: float = BROKEN_GRACE,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        drain_seconds: float = 0.1,
    ) -> None:
        self.host, self.port = parse_address(address)
        self.workers = workers
        self.store = store
        self.connect_timeout = connect_timeout
        self.steal_timeout = steal_timeout
        self.broken_grace = broken_grace
        self.heartbeat_interval = heartbeat_interval
        self.drain_seconds = drain_seconds
        self.counters = HotLoopCounters()
        self._executor: TcpShardExecutor | None = None

    def new_executor(self) -> TcpShardExecutor:
        if self._executor is None:
            self._executor = TcpShardExecutor(
                self.host,
                self.port,
                store=self.store,
                steal_timeout=self.steal_timeout,
                broken_grace=self.broken_grace,
                heartbeat_interval=self.heartbeat_interval,
                counters=self.counters,
            )
        else:
            self._executor.reset()
        self._executor.wait_for_workers(self.workers, self.connect_timeout)
        return self._executor

    def teardown(self, executor: Executor) -> None:
        if isinstance(executor, TcpShardExecutor):
            # A chaos duplicate rides right behind its original: wait
            # (at most drain_seconds) only while a copy is owed, so the
            # wire tallies see it before the runtime snapshots them.
            executor.drain(self.drain_seconds)
            executor.reset()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    @property
    def address(self) -> str:
        """The bound address (resolves port 0 once listening)."""
        if self._executor is not None:
            return self._executor.address
        return f"tcp://{self.host}:{self.port}"


__all__ = [
    "BROKEN_GRACE",
    "MONITOR_TICK",
    "STEAL_TIMEOUT",
    "TcpExecutorFactory",
    "TcpShardExecutor",
]
