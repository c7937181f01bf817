"""The ``repro worker`` daemon: remote muscle for distributed learning.

One daemon = one TCP connection to a coordinator + one **local**
``ProcessPoolExecutor`` that actually runs shard tasks. The local pool
is the whole fault story: a chaos ``crash`` (or a real OOM kill) takes
out a pool child, not the daemon — the daemon catches the broken pool,
rebuilds it, and reports the task as failed so the coordinator's
runtime charges the attempt and retries. The daemon itself only dies
when told to (a ``shutdown`` frame) or killed from outside.

Connection lifecycle is a retry loop: connect, handshake (send
``hello``, expect ``welcome``), serve frames until the socket drops,
reconnect. A dropped connection loses nothing durable — the
coordinator requeues whatever this worker held, and the handshake is
stateless. The one *permanent* exit is a store-fingerprint refusal: the
coordinator's ``welcome`` names the ``.rts`` store the learn reads and
its content hash, and a worker whose local file at that path differs
(or is missing) would silently learn the wrong periods — so it sends a
``refuse`` frame naming the mismatch and exits nonzero instead.

Network chaos lives here, at the result-send site: the deterministic
``REPRO_CHAOS`` plan (see :mod:`repro.distributed.chaos`) may drop,
duplicate, reorder, or disconnect-instead-of-send a result frame, keyed
by the shard index and the *delivery* attempt the coordinator stamped
into the task frame.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import socket
import threading
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import Iterator

from repro.core.shardexec import ProcessExecutorFactory
from repro.distributed.chaos import network_faults
from repro.distributed.framing import FrameError, send_frame, recv_frame
from repro.distributed.protocol import (
    ProtocolError,
    check_protocol,
    hello,
    parse_address,
    store_fingerprint,
)
from repro.trace.store import close_all_stores

#: Seconds between connect retries while the coordinator is away.
RECONNECT_DELAY = 0.5


class _FrameSender:
    """Serialized frame sends with a one-slot reorder hold-back.

    Results are sent from pool completion callbacks and heartbeats from
    their own thread, so every send is lock-serialized. A held frame
    (chaos ``reorder``) goes out immediately *after* the next frame of
    any kind — the heartbeat cadence guarantees the flush, so a reorder
    can delay a result but never withhold it.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._lock = threading.Lock()
        self._held: dict | None = None

    def send(self, payload: dict) -> None:
        with self._lock:
            send_frame(self._sock, payload)
            if self._held is not None:
                held, self._held = self._held, None
                send_frame(self._sock, held)

    def hold(self, payload: dict) -> None:
        with self._lock:
            if self._held is not None:
                send_frame(self._sock, self._held)
            self._held = payload

    def close(self) -> None:
        with self._lock:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()


class _Session:
    """One handshaked connection's serve state."""

    def __init__(
        self, sock: socket.socket, name: str, parallelism: int,
        heartbeat_interval: float,
    ) -> None:
        self.sock = sock
        self.name = name
        self.parallelism = parallelism
        self.heartbeat_interval = heartbeat_interval
        self.sender = _FrameSender(sock)
        self.factory = ProcessExecutorFactory(parallelism)
        self.pool: ProcessPoolExecutor = self.factory.new_executor()
        self.epoch = 0
        self.running = 0
        self.lock = threading.Lock()
        self.stop = threading.Event()

    # -- local pool --------------------------------------------------------

    def submit_local(self, message: dict) -> None:
        fn, args = message["func"], message["args"]
        with self.lock:
            try:
                future = self.pool.submit(fn, *args)
            except (BrokenExecutor, RuntimeError):
                # A previous task's crash broke the pool; this task has
                # not run yet, so a rebuild-and-resubmit cannot re-fire
                # its chaos.
                self.factory.teardown(self.pool)
                self.pool = self.factory.new_executor()
                future = self.pool.submit(fn, *args)
            self.running += 1
        epoch = message["epoch"]
        future.add_done_callback(
            lambda done: self._finish(message, epoch, done)
        )

    def rebuild_pool(self, epoch: int) -> None:
        """RESET: kill the pool (terminating hung children) and restart."""
        with self.lock:
            self.epoch = epoch
            self.running = 0
            self.factory.teardown(self.pool)
            self.pool = self.factory.new_executor()

    # -- result delivery ---------------------------------------------------

    def _finish(self, message: dict, epoch: int, done: Future) -> None:
        with self.lock:
            if epoch != self.epoch:
                return  # pre-reset task; the coordinator moved on
            self.running = max(0, self.running - 1)
        payload: dict = {
            "kind": "result",
            "epoch": epoch,
            "task_id": message["task_id"],
            "seq": message["seq"],
            "worker": self.name,
        }
        try:
            payload["ok"] = True
            payload["value"] = done.result()
        except BrokenExecutor:
            payload["ok"] = False
            payload["error"] = RuntimeError(
                f"worker {self.name}: local pool broke under this task "
                "(child process died)"
            )
        except BaseException as error:  # noqa: BLE001 - forwarded verbatim
            payload["ok"] = False
            payload["error"] = error
        self._deliver(message, payload)

    def _deliver(self, message: dict, payload: dict) -> None:
        faults = network_faults(message["index"], message["net_key"])
        try:
            if "disconnect" in faults:
                self.sender.close()  # the serve loop will reconnect
                return
            if "drop" in faults:
                return
            if "duplicate" in faults:
                # Tell the coordinator a second copy follows, so its
                # teardown waits for that copy instead of a timer.
                payload["copies"] = 2
            if "reorder" in faults:
                self.sender.hold(payload)
            else:
                self.sender.send(payload)
            if "duplicate" in faults:
                self.sender.send(payload)
        except (OSError, FrameError):
            pass  # connection already gone; coordinator requeues

    # -- heartbeats --------------------------------------------------------

    def heartbeat_loop(self) -> None:
        while not self.stop.wait(self.heartbeat_interval):
            with self.lock:
                running = self.running
            try:
                self.sender.send(
                    {"kind": "heartbeat", "worker": self.name, "running": running}
                )
            except (OSError, FrameError):
                return


def _serve_connection(
    sock: socket.socket,
    name: str,
    parallelism: int,
    log,
) -> str:
    """Serve one connection; returns ``shutdown``/``lost``/``refused``."""
    sock.settimeout(10.0)
    send_frame(sock, hello(name, parallelism))
    message, _ = recv_frame(sock)
    greeting = check_protocol(message, "welcome")
    expected = greeting.get("store")
    if expected is not None:
        try:
            local = store_fingerprint(expected.path)
        except OSError as error:
            local = None
            mismatch = f"store {expected.path} unreadable: {error}"
        else:
            mismatch = (
                f"store mismatch: coordinator has {expected.describe()}, "
                f"worker has {local.describe()}"
                if local != expected
                else ""
            )
        if mismatch:
            send_frame(sock, {"kind": "refuse", "reason": mismatch})
            log(f"refusing session: {mismatch}")
            return "refused"
    sock.settimeout(None)
    session = _Session(
        sock, name, parallelism, float(greeting["heartbeat_interval"])
    )
    beat = threading.Thread(
        target=session.heartbeat_loop, name="repro-worker-heartbeat", daemon=True
    )
    beat.start()
    log(f"serving session {greeting['session']} at parallelism {parallelism}")
    try:
        while True:
            message, _ = recv_frame(sock)
            kind = message.get("kind")
            if kind == "task":
                if message["epoch"] == session.epoch:
                    session.submit_local(message)
                elif message["epoch"] > session.epoch:
                    session.rebuild_pool(message["epoch"])
                    session.submit_local(message)
            elif kind == "reset":
                session.rebuild_pool(message["epoch"])
            elif kind == "shutdown":
                return "shutdown"
    except (EOFError, OSError, FrameError):
        return "lost"
    finally:
        session.stop.set()
        session.factory.teardown(session.pool)


@contextlib.contextmanager
def sigterm_exits() -> Iterator[None]:
    """Within the block, SIGTERM reaps the pool's children, then exits.

    The default action kills the daemon on the spot, so the children of
    its local process pool outlive it as orphans. Raising
    :class:`SystemExit` from the handler is no cure: a handler that runs
    inside a finalizer has its exception swallowed, and the daemon lives
    on. So the handler terminates and joins the children itself and
    exits with ``128 + signum``, skipping the interpreter's exit hooks,
    which would wait on the pool's threads. Pool children forked inside
    the block inherit the handler; in them it falls back to the default
    action. Enter from the main thread.
    """
    owner = os.getpid()

    def handler(signum, frame):
        if os.getpid() != owner:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        children = multiprocessing.active_children()
        for child in children:
            child.terminate()
        for child in children:
            child.join(timeout=5.0)
        os._exit(128 + signum)

    previous = signal.signal(signal.SIGTERM, handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def serve_worker(
    address: str,
    *,
    name: str | None = None,
    parallelism: int = 1,
    reconnect_delay: float = RECONNECT_DELAY,
    max_connects: int | None = None,
    log=lambda line: None,
) -> int:
    """Run the worker daemon against *address*; returns an exit code.

    Reconnects forever by default (it is a daemon); ``max_connects``
    bounds total connection attempts for tests and supervised runs.
    Exit codes: 0 after a clean ``shutdown`` frame, 2 after a store
    refusal (no retry — a wrong store will not fix itself), 1 when the
    connection budget runs out.

    On the way out the daemon closes every cached ``.rts`` store handle
    (:func:`repro.trace.store.close_all_stores`): sessions come and go
    over a long daemon life, and unpickling store-backed period ranges
    reopens stores into the process-wide cache, so exiting without
    closing would leak file descriptors and mmap views.
    """
    host, port = parse_address(address)
    worker_name = name or f"{socket.gethostname()}-{os.getpid()}"
    connects = 0
    try:
        while max_connects is None or connects < max_connects:
            connects += 1
            try:
                sock = socket.create_connection((host, port), timeout=10.0)
            except OSError as error:
                log(f"connect to {address} failed: {error}")
                time.sleep(reconnect_delay)
                continue
            try:
                outcome = _serve_connection(sock, worker_name, parallelism, log)
            except (ProtocolError, FrameError, EOFError, OSError) as error:
                log(f"session ended abnormally: {error}")
                outcome = "lost"
            finally:
                try:
                    sock.close()
                except OSError:
                    pass
            if outcome == "shutdown":
                log("coordinator sent shutdown; exiting")
                return 0
            if outcome == "refused":
                return 2
            time.sleep(reconnect_delay)
        return 1
    finally:
        close_all_stores()


__all__ = ["RECONNECT_DELAY", "serve_worker", "sigterm_exits"]
