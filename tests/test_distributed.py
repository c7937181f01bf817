"""Tests for the distributed shard runtime (``repro.distributed``).

Three layers, cheapest first:

* pure units — framing, address grammar, store fingerprints, the
  result ledger, chaos plan filtering;
* coordinator protocol — a *fake* worker speaking raw frames over a
  real socket exercises handshake, dispatch, dedupe, heartbeat death
  and breakage without ever creating a process pool;
* end to end — real ``repro worker`` daemons in **subprocesses**
  (never in-process threads: a worker owns a ProcessPoolExecutor whose
  atexit machinery deadlocks when the daemon shares the test
  interpreter) driven through ``learn_dependencies``, asserting the
  distributed model is bit-identical to the local sharded one — with
  and without network chaos.
"""

from __future__ import annotations

import os
import pickle
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.instrumentation import HotLoopCounters
from repro.core.learner import learn_dependencies
from repro.distributed import (
    Delivery,
    ResultLedger,
    TcpExecutorFactory,
    TcpShardExecutor,
    decode_frame,
    encode_frame,
    network_faults,
    parse_address,
    serve_worker,
    store_fingerprint,
)
from repro.distributed.framing import FrameError, recv_frame, send_frame
from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    check_protocol,
)
from repro.errors import ReproError
from repro.trace.synthetic import serial_chain_trace

REPO_ROOT = Path(__file__).resolve().parents[1]


# -- framing ---------------------------------------------------------------


class TestFraming:
    def test_round_trip(self):
        payload = {"kind": "result", "value": [1, 2, ("a", 3.5)]}
        assert decode_frame(encode_frame(payload)) == payload

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame({"x": 1}))
        frame[:4] = b"NOPE"
        with pytest.raises(FrameError):
            decode_frame(bytes(frame))

    def test_truncated_body_rejected(self):
        frame = encode_frame({"x": 1})
        with pytest.raises(FrameError):
            decode_frame(frame[:-2])

    def test_short_header_rejected(self):
        with pytest.raises(FrameError):
            decode_frame(b"RPF1")

    def test_socket_round_trip_preserves_boundaries(self):
        left, right = socket.socketpair()
        try:
            sent = send_frame(left, {"n": 1}) + send_frame(left, {"n": 2})
            first, n1 = recv_frame(right)
            second, n2 = recv_frame(right)
            assert (first, second) == ({"n": 1}, {"n": 2})
            assert n1 + n2 == sent
        finally:
            left.close()
            right.close()

    def test_eof_between_frames(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(EOFError):
                recv_frame(right)
        finally:
            right.close()


# -- protocol --------------------------------------------------------------


class TestProtocol:
    def test_parse_address(self):
        assert parse_address("tcp://127.0.0.1:7071") == ("127.0.0.1", 7071)
        assert parse_address("tcp://learn.host:0") == ("learn.host", 0)

    @pytest.mark.parametrize("bad", [
        "127.0.0.1:7071", "tcp://nohost", "tcp://h:port", "tcp://h:70000",
        "tcp://:7071", "udp://h:1",
    ])
    def test_parse_address_rejects(self, bad):
        with pytest.raises(ProtocolError):
            parse_address(bad)

    def test_check_protocol_version_mismatch(self):
        message = {"kind": "hello", "protocol": PROTOCOL_VERSION + 1}
        with pytest.raises(ProtocolError, match="version"):
            check_protocol(message, "hello")

    def test_check_protocol_surfaces_refusal(self):
        with pytest.raises(ProtocolError, match="wrong store"):
            check_protocol(
                {"kind": "refuse", "reason": "wrong store"}, "welcome"
            )

    def test_store_fingerprint_detects_divergence(self, tmp_path):
        path = tmp_path / "t.rts"
        path.write_bytes(b"RTSTORE1" + (4).to_bytes(8, "little") + b"head")
        first = store_fingerprint(str(path))
        assert first.path == str(path)
        assert store_fingerprint(str(path)) == first
        path.write_bytes(b"RTSTORE1" + (4).to_bytes(8, "little") + b"daeh")
        assert store_fingerprint(str(path)) != first


# -- result ledger ---------------------------------------------------------


class TestResultLedger:
    def test_exactly_once(self):
        ledger = ResultLedger()
        assert ledger.admit(7, "w", 0) == Delivery(fresh=True, reordered=False)
        assert ledger.admit(7, "w", 1).fresh is False
        assert ledger.completed(7)
        assert not ledger.completed(8)

    def test_reorder_is_per_worker(self):
        ledger = ResultLedger()
        ledger.admit(1, "a", 5)
        assert ledger.admit(2, "a", 3).reordered is True
        # another worker's lower seq is parallelism, not a reorder
        assert ledger.admit(3, "b", 0).reordered is False

    def test_reset_sequences_keeps_completed(self):
        ledger = ResultLedger()
        ledger.admit(1, "a", 4)
        ledger.reset_sequences()
        assert ledger.admit(2, "a", 0).reordered is False
        assert ledger.admit(1, "a", 1).fresh is False

    def test_forget_worker_clears_high_water(self):
        ledger = ResultLedger()
        ledger.admit(1, "a", 9)
        ledger.forget_worker("a")
        assert ledger.admit(2, "a", 0).reordered is False


# -- chaos plan filtering --------------------------------------------------


class TestNetworkFaults:
    def test_unset_plan_is_empty(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert network_faults(0, 0) == ()

    def test_network_kinds_filtered_and_keyed(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "drop@1,crash@1,duplicate@2:2")
        assert network_faults(1, 0) == ("drop",)  # crash is compute-side
        assert network_faults(1, 1) == ()  # default budget is one attempt
        assert network_faults(2, 1) == ("duplicate",)
        assert network_faults(2, 2) == ()


# -- coordinator protocol via a fake worker --------------------------------


def _echo_task(value):
    """Module-level so it pickles by reference into a task frame."""
    return ("echo", value)


class FakeWorker:
    """A raw-frame protocol client: handshake, then scripted replies."""

    def __init__(self, executor: TcpShardExecutor, slots: int = 2,
                 name: str = "fake"):
        host, port = parse_address(executor.address)
        self.sock = socket.create_connection((host, port), timeout=5.0)
        send_frame(self.sock, {
            "kind": "hello", "protocol": PROTOCOL_VERSION,
            "worker": name, "slots": slots, "pid": os.getpid(),
        })
        self.welcome, _ = recv_frame(self.sock)
        assert self.welcome["kind"] == "welcome"

    def recv_task(self, timeout: float = 5.0) -> dict:
        self.sock.settimeout(timeout)
        message, _ = recv_frame(self.sock)
        assert message["kind"] == "task"
        return message

    def send_result(self, task: dict, value, *, epoch=None, seq=None):
        send_frame(self.sock, {
            "kind": "result",
            "epoch": task["epoch"] if epoch is None else epoch,
            "task_id": task["task_id"],
            "seq": task["seq"] if seq is None else seq,
            "worker": "fake",
            "ok": True,
            "value": value,
        })

    def close(self):
        self.sock.close()


@pytest.fixture()
def executor():
    counters = HotLoopCounters()
    ex = TcpShardExecutor(
        "127.0.0.1", 0, counters=counters, broken_grace=0.5,
        heartbeat_interval=0.05,
    )
    try:
        yield ex
    finally:
        ex.close()


class TestCoordinator:
    def test_dispatch_and_result_round_trip(self, executor):
        worker = FakeWorker(executor)
        executor.wait_for_workers(1, timeout=5.0)
        future = executor.submit(_echo_task, 41)
        task = worker.recv_task()
        assert task["func"] is _echo_task
        assert task["args"] == (41,)
        assert task["net_key"] == 0
        worker.send_result(task, ("echo", 41))
        assert future.result(timeout=5.0) == ("echo", 41)
        assert executor.counters.wire_tasks_sent == 1
        assert executor.counters.wire_results == 1
        assert executor.counters.worker_connects == 1
        worker.close()

    def test_duplicate_result_discarded_and_counted(self, executor):
        worker = FakeWorker(executor)
        executor.wait_for_workers(1, timeout=5.0)
        future = executor.submit(_echo_task, 1)
        task = worker.recv_task()
        worker.send_result(task, "first")
        worker.send_result(task, "second")
        assert future.result(timeout=5.0) == "first"
        deadline = time.monotonic() + 5.0
        while (executor.counters.wire_duplicates < 1
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert executor.counters.wire_duplicates == 1
        worker.close()

    def test_stale_epoch_result_dropped(self, executor):
        worker = FakeWorker(executor)
        executor.wait_for_workers(1, timeout=5.0)
        future = executor.submit(_echo_task, 1)
        task = worker.recv_task()
        executor.reset()
        worker.send_result(task, "late")
        assert future.cancelled()
        deadline = time.monotonic() + 5.0
        while (executor.counters.wire_results < 1
               and time.monotonic() < deadline):
            time.sleep(0.01)
        # never completed, so the straggler is abandoned work, not a dup
        assert executor.counters.wire_duplicates == 0
        worker.close()

    def test_silent_worker_declared_dead(self, executor):
        worker = FakeWorker(executor)
        executor.wait_for_workers(1, timeout=5.0)
        # no heartbeats: 0.05s interval * factor 6 = dead within ~0.3s
        deadline = time.monotonic() + 5.0
        while (executor.counters.dead_workers < 1
               and time.monotonic() < deadline):
            time.sleep(0.02)
        assert executor.counters.dead_workers == 1
        worker.close()

    def test_work_stealing_redispatches(self, executor):
        executor.steal_timeout = 0.2
        lazy = FakeWorker(executor, slots=1, name="lazy")
        executor.wait_for_workers(1, timeout=5.0)
        future = executor.submit(_echo_task, 9)
        stalled = lazy.recv_task()
        keen = FakeWorker(executor, slots=1, name="keen")
        heartbeats = _keep_alive([lazy, keen])
        try:
            stolen = keen.recv_task(timeout=5.0)
            assert stolen["task_id"] == stalled["task_id"]
            keen.send_result(stolen, "keen wins")
            assert future.result(timeout=5.0) == "keen wins"
            assert executor.counters.tasks_stolen >= 1
        finally:
            heartbeats.set()
            lazy.close()
            keen.close()

    def test_zero_workers_times_out_with_oserror(self, executor):
        with pytest.raises(OSError, match="no workers connected"):
            executor.wait_for_workers(1, timeout=0.2)

    def test_broken_after_fleet_lost(self, executor):
        worker = FakeWorker(executor)
        executor.wait_for_workers(1, timeout=5.0)
        future = executor.submit(_echo_task, 1)
        worker.recv_task()
        worker.close()
        with pytest.raises(Exception) as info:
            future.result(timeout=10.0)
        assert "workers lost" in str(info.value)

    def test_submit_after_close_raises(self, executor):
        executor.close()
        with pytest.raises(RuntimeError):
            executor.submit(_echo_task, 1)


def _keep_alive(workers, interval: float = 0.02) -> threading.Event:
    """Heartbeat on behalf of fake workers so only silence under test
    (not the fixture's tight interval) can kill them."""
    stop = threading.Event()

    def beat():
        while not stop.wait(interval):
            for worker in workers:
                try:
                    send_frame(worker.sock, {"kind": "heartbeat"})
                except OSError:
                    return

    threading.Thread(target=beat, daemon=True).start()
    return stop


# -- end to end with real worker daemons -----------------------------------


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _spawn_worker(address: str, *, chaos: str | None = None,
                  parallelism: int = 2) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    if chaos is None:
        env.pop("REPRO_CHAOS", None)
    else:
        env["REPRO_CHAOS"] = chaos
    return subprocess.Popen(
        [
            sys.executable, "-c",
            "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
            "worker", address, "--parallelism", str(parallelism), "--quiet",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _model_key(result):
    return (
        [h.pairs for h in result.hypotheses],
        [str(f) for f in result.functions],
    )


@pytest.fixture()
def small_trace():
    return serial_chain_trace(5, 24)


def _distributed_learn(trace, *, daemons=1, chaos=None, workers=2,
                       steal_timeout=0.4):
    port = _free_port()
    address = f"tcp://127.0.0.1:{port}"
    factory = TcpExecutorFactory(
        address, workers=daemons, connect_timeout=30.0,
        steal_timeout=steal_timeout,
    )
    procs = [_spawn_worker(address, chaos=chaos) for _ in range(daemons)]
    try:
        result = learn_dependencies(
            trace, bound=8, workers=workers, executor_factory=factory,
        )
        return result, factory.counters
    finally:
        factory.close()
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.wait(timeout=10.0)


class TestEndToEnd:
    def test_two_daemons_bit_identical_to_local(self, small_trace):
        local = learn_dependencies(small_trace, bound=8, workers=2)
        remote, counters = _distributed_learn(small_trace, daemons=2)
        assert _model_key(remote) == _model_key(local)
        assert remote.lub() == local.lub()
        assert counters.wire_tasks_sent >= 2
        assert counters.wire_results >= 2
        assert counters.worker_connects >= 2
        assert counters.wire_bytes_sent > 0
        assert counters.wire_bytes_received > 0

    @pytest.mark.parametrize("chaos,counter,daemons", [
        # drop recovery is work stealing, which by design re-dispatches
        # to a *non-owner* — it needs a second daemon to steal to
        ("drop@0", "tasks_stolen", 2),
        ("duplicate@0", "wire_duplicates", 1),
        ("reorder@0", "wire_reorders", 1),
        ("disconnect@0", "worker_disconnects", 1),
    ])
    def test_network_chaos_recovers_bit_identical(
        self, small_trace, chaos, counter, daemons
    ):
        local = learn_dependencies(small_trace, bound=8, workers=2)
        remote, counters = _distributed_learn(
            small_trace, daemons=daemons, chaos=chaos
        )
        assert _model_key(remote) == _model_key(local)
        assert getattr(counters, counter) >= 1, counters.as_dict()


def _alive(pid: int) -> bool:
    """True while *pid* runs (a zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestWorkerShutdown:
    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_sigterm_reaps_pool_children(self):
        """A terminated ``repro worker --parallelism 2`` takes its
        process-pool children down with it instead of orphaning them."""
        ex = TcpShardExecutor("127.0.0.1", 0)
        proc = _spawn_worker(ex.address, parallelism=2)
        try:
            ex.wait_for_workers(1, timeout=30.0)
            futures = [ex.submit(os.getpid) for _ in range(4)]
            children = {future.result(timeout=30.0) for future in futures}
            assert children and proc.pid not in children
            proc.terminate()
            proc.wait(timeout=30.0)
            deadline = time.monotonic() + 10.0
            while any(map(_alive, children)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in children if _alive(pid)]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
            ex.close()


# -- store fingerprint refusal ---------------------------------------------


class TestStoreRefusal:
    def test_mismatched_store_refused_exit_2(self, tmp_path):
        """The worker proves its store matches before serving; a
        divergent file at the handshake path is a hard exit, and the
        coordinator reports the refusal when no one else shows up.

        Safe to run ``serve_worker`` in-process here: the refusal path
        returns before a session (and its process pool) ever exists.
        """
        store = tmp_path / "t.rts"
        store.write_bytes(b"RTSTORE1" + (4).to_bytes(8, "little") + b"aaaa")
        expected = store_fingerprint(str(store))
        store.write_bytes(b"RTSTORE1" + (4).to_bytes(8, "little") + b"bbbb")

        ex = TcpShardExecutor("127.0.0.1", 0, store=expected)
        try:
            codes = []
            thread = threading.Thread(
                target=lambda: codes.append(serve_worker(
                    ex.address, name="wrongstore", max_connects=1,
                    reconnect_delay=0.01,
                )),
                daemon=True,
            )
            thread.start()
            thread.join(timeout=10.0)
            assert codes == [2]
            # The worker has sent its refuse frame and exited, but the
            # coordinator registers a link at welcome time and only
            # drops it when the reader thread processes the refusal —
            # wait for that, or wait_for_workers can race the reader
            # and momentarily count the doomed link as a live worker.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                with ex._lock:
                    if ex._refusals and not ex._workers:
                        break
                time.sleep(0.01)
            with pytest.raises(OSError, match="store mismatch"):
                ex.wait_for_workers(1, timeout=0.5)
        finally:
            ex.close()


# -- CLI / pipeline wiring -------------------------------------------------


class TestCliWiring:
    def test_scheduler_requires_sharded_learning(self, tmp_path):
        from repro.pipeline.config import PipelineConfig
        from repro.pipeline.engine import run_pipeline

        config = PipelineConfig(
            bound=8, workers=1, scheduler="tcp://127.0.0.1:1",
        )
        with pytest.raises(ReproError, match="--workers >= 2"):
            run_pipeline(config, serial_chain_trace(3, 4))

    def test_worker_rejects_bad_parallelism(self):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(
            ["worker", "tcp://127.0.0.1:1", "--parallelism", "0"], out=out
        )
        assert code == 2
        assert "--parallelism" in out.getvalue()

    def test_task_frames_pickle_cleanly(self):
        # the executor pickles fn+args exactly as ProcessPoolExecutor
        # would; the shard worker entrypoint must survive that
        from repro.core.sharded import learn_shard

        frame = encode_frame({"func": learn_shard})
        assert decode_frame(frame)["func"] is learn_shard
