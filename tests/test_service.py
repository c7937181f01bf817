"""Session-service tests: equivalence, lifecycle, faults, backpressure.

Three layers, mirroring the distributed suite's doctrine:

1. pure units (policy validation, spool naming, ops vocabulary);
2. protocol-level tests against an in-process daemon
   (:class:`~repro.service.server.ServiceThread` — safe to host
   in-process because the service holds no process pools), including a
   raw-socket fake client for backpressure;
3. end-to-end equivalence: a trace streamed through a live session
   must produce model JSON **byte-identical** to ``repro learn`` on
   the same file — across every registered format, across a
   mid-stream evict/resume cycle, across a daemon restart, and under
   ``REPRO_CHAOS`` client faults.
"""

from __future__ import annotations

import io
import json
import os
import socket

import pytest

from repro.analysis.report import dumps_model
from repro.cli import main as cli_main
from repro.core.learner import learn_dependencies
from repro.service import ServiceClient, ServiceError, ServiceThread, SessionPolicy
from repro.service.config import DEGRADE_MODES
from repro.service.eviction import spool_filename
from repro.service.session import SPOOL_FORMAT, Session, SessionSettings
from repro.trace.events import Event, EventKind
from repro.trace.formats import format_names, get_format
from repro.trace.period import Period
from repro.trace.synthetic import (
    alternating_branch_trace,
    paper_figure2_trace,
    serial_chain_trace,
)

BOUND = 8


def canonical_trace():
    return alternating_branch_trace(8)


def trace_tasks(trace):
    return trace.tasks


def batch_model(trace) -> str:
    """The reference: the sequential learner over the whole trace."""
    return dumps_model(learn_dependencies(trace, bound=BOUND).lub())


def bad_period(index: int = 0) -> Period:
    """A period that empties the hypothesis space (no candidate sender)."""
    return Period(
        [
            Event(0.0, EventKind.TASK_START, "src"),
            Event(1.0, EventKind.TASK_END, "src"),
            Event(50.0, EventKind.MSG_RISE, "m_bad"),
            Event(50.5, EventKind.MSG_FALL, "m_bad"),
        ],
        index=index,
    )


class Replies:
    """A responder stand-in that records every reply frame in order."""

    def __init__(self):
        self.frames = []

    async def send(self, payload):
        self.frames.append(payload)
        return True


@pytest.fixture
def daemon():
    thread = ServiceThread(SessionPolicy(max_live=8, queue_depth=4))
    yield thread
    thread.stop()


@pytest.fixture
def client(daemon):
    c = ServiceClient(daemon.address)
    c.connect()
    yield c
    c.close()


# ----------------------------------------------------------------------
# Layer 1: pure units
# ----------------------------------------------------------------------

class TestPolicy:
    def test_defaults_valid(self):
        policy = SessionPolicy()
        assert policy.queue_depth >= 1
        assert policy.degrade in DEGRADE_MODES

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_depth": 0},
            {"max_live": 0},
            {"retries": -1},
            {"backoff": -0.1},
            {"degrade": "explode"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SessionPolicy(**kwargs)


class TestSpoolNaming:
    def test_plain_ids_pass_through(self):
        assert spool_filename("abc-123_x") == "abc-123_x.session.json"

    def test_hostile_ids_are_encoded_and_distinct(self):
        a = spool_filename("a/b")
        b = spool_filename("a%2fb")
        assert "/" not in a
        assert a != b

    def test_spool_round_trip_preserves_session_state(self):
        trace = canonical_trace()
        settings = SessionSettings(trace_tasks(trace), bound=BOUND)
        policy = SessionPolicy()
        session = Session("s", settings, policy)
        for period in trace.periods[:2]:
            session.learner.feed(period)
        session.last_seq = 2
        session.pending_events = [Event(1.0, EventKind.MSG_RISE, "m")]
        state = json.loads(json.dumps(session.spool_state()))
        assert state["format"] == SPOOL_FORMAT
        resumed = Session.from_spool(state, policy)
        assert resumed.last_seq == 2
        assert resumed.resumed == 1
        assert resumed.pending_events == session.pending_events
        for period in trace.periods[2:]:
            session.learner.feed(period)
            resumed.learner.feed(period)
        assert dumps_model(resumed.learner.result().lub()) == dumps_model(
            session.learner.result().lub()
        )


class TestOlderVersionKeys:
    """Spool files and ``open`` ops written while two bounded learners
    existed carry a ``"kernel"`` key; it is ignored."""

    def test_parent_era_spool_with_kernel_key_resumes(self, tmp_path):
        from repro.core.checkpoint import checkpoint_to_dict
        from repro.core.heuristic import BoundedLearner

        spool = tmp_path / "spool"
        spool.mkdir()
        trace = canonical_trace()
        learner = BoundedLearner(trace.tasks, BOUND)
        learner.feed_trace(trace.periods[:3])
        parent_era = {
            "format": SPOOL_FORMAT,
            "version": 1,
            "session": "old",
            "settings": {
                "tasks": list(trace.tasks),
                "bound": BOUND,
                "tolerance": 0.0,
                "kernel": "batch",
                "format": None,
            },
            "last_seq": 1,
            "resumed": 0,
            "pending_events": [],
            "checkpoint": checkpoint_to_dict(learner),
        }
        (spool / spool_filename("old")).write_text(json.dumps(parent_era))
        settings = SessionSettings.from_dict(parent_era["settings"])
        assert "kernel" not in settings.to_dict()
        thread = ServiceThread(SessionPolicy(spool_dir=str(spool)))
        try:
            c = ServiceClient(thread.address)
            c.connect()
            opened = c.open_session("old", (), bound=BOUND)
            assert opened["how"] == "resumed"
            assert opened["periods"] == 3
            c.append_periods(trace.periods[3:])
            assert c.query_model() == batch_model(trace)
            c.close()
        finally:
            thread.stop()

    def test_open_op_with_kernel_key_is_accepted(self, client):
        from repro.service import ops

        trace = canonical_trace()
        message = ops.open_op("s", trace.tasks, bound=BOUND)
        message["kernel"] = "loop"
        assert client._rpc(message, "opened")["how"] == "created"
        assert client.open_session("s", ())["how"] == "attached"
        client.append_periods(trace.periods)
        assert client.query_model() == batch_model(trace)


# ----------------------------------------------------------------------
# Layer 2: protocol against a live in-process daemon
# ----------------------------------------------------------------------

class TestSessionLifecycle:
    def test_open_create_attach_resume(self, client):
        trace = canonical_trace()
        opened = client.open_session("s", trace_tasks(trace), bound=BOUND)
        assert opened["how"] == "created"
        assert opened["last_seq"] == 0
        again = client.open_session("s", trace_tasks(trace), bound=BOUND)
        assert again["how"] == "attached"
        client.append_periods(trace.periods[:2])
        client.evict_session()
        resumed = client.open_session("s", (), bound=BOUND)
        assert resumed["how"] == "resumed"
        assert resumed["last_seq"] == 1
        assert resumed["periods"] == 2

    def test_open_requires_tasks_for_new_session(self, client):
        with pytest.raises(ServiceError, match="task"):
            client.open_session("fresh", ())

    def test_op_on_unknown_session_errors(self, client):
        client._session_id = "ghost"  # bypass open
        with pytest.raises(ServiceError, match="unknown session"):
            client.query_model()

    def test_duplicate_append_acked_not_fed(self, client):
        trace = canonical_trace()
        client.open_session("s", trace_tasks(trace), bound=BOUND)
        first = client.append_periods(trace.periods[:1])
        assert first == {
            "kind": "ack", "session": "s", "seq": 1, "periods": 1,
            "duplicate": False,
        }
        resent = client.append_periods(trace.periods[:1], seq=1)
        assert resent["duplicate"] is True
        assert resent["periods"] == 1  # nothing was re-fed
        profile = client.profile()
        assert profile["service"]["duplicates"] == 1

    def test_sequence_gap_rejected(self, client):
        trace = canonical_trace()
        client.open_session("s", trace_tasks(trace), bound=BOUND)
        with pytest.raises(ServiceError, match="sequence gap"):
            client.append_periods(trace.periods[:1], seq=5)

    def test_events_buffer_until_end_period(self, client):
        trace = paper_figure2_trace()
        period = trace.periods[0]
        client.open_session("s", trace_tasks(trace), bound=BOUND)
        events = list(period.events)
        client.append_events(events[: len(events) // 2])
        assert client.profile()["service"]["pending_events"] == len(events) // 2
        ack = client.append_events(events[len(events) // 2:], end_period=True)
        assert ack["periods"] == 1
        learner_model = client.query_model()
        reference = dumps_model(
            learn_dependencies(
                type(trace)(trace.tasks, [period]), bound=BOUND
            ).lub()
        )
        assert learner_model == reference

    def test_end_period_with_no_events_errors(self, client):
        trace = canonical_trace()
        client.open_session("s", trace_tasks(trace), bound=BOUND)
        with pytest.raises(ServiceError, match="no buffered events"):
            client.append_events([], end_period=True)

    def test_close_returns_final_model_and_forgets(self, client):
        trace = canonical_trace()
        client.open_session("s", trace_tasks(trace), bound=BOUND)
        client.append_periods(trace.periods)
        closed = client.close_session()
        assert closed["model_json"] == batch_model(trace)
        assert closed["periods"] == len(trace.periods)
        client._session_id = "s"
        with pytest.raises(ServiceError, match="unknown session"):
            client.query_model()

    def test_profile_shape_matches_pipeline_profile(self, client):
        trace = canonical_trace()
        client.open_session("s", trace_tasks(trace), bound=BOUND)
        client.append_periods(trace.periods)
        profile = client.profile()
        assert profile["learn"]["algorithm"] == "heuristic"
        assert profile["learn"]["bound"] == BOUND
        assert profile["learn"]["periods"] == len(trace.periods)
        assert profile["hot_loop"]["periods"] == len(trace.periods)
        assert profile["hot_loop"]["session_appends"] == 1
        assert "mean_candidates" in profile["hot_loop"]


class TestDegradation:
    def test_reject_keeps_session_and_learner(self, client):
        trace = canonical_trace()
        client.open_session("s", trace_tasks(trace), bound=BOUND)
        client.append_periods(trace.periods[:4])
        with pytest.raises(ServiceError, match="hypothesis space"):
            client.append_periods([bad_period()])
        # The failed feed rolled back; the stream continues and the
        # final model is the uninterrupted batch model.
        client.append_periods(trace.periods[4:])
        assert client.query_model() == batch_model(trace)
        profile = client.profile()
        assert profile["service"]["feed_errors"] >= 1

    def test_retries_are_charged(self, daemon):
        del daemon
        thread = ServiceThread(SessionPolicy(retries=2))
        try:
            c = ServiceClient(thread.address)
            c.connect()
            trace = canonical_trace()
            c.open_session("s", trace_tasks(trace), bound=BOUND)
            with pytest.raises(ServiceError):
                c.append_periods([bad_period()])
            profile = c.profile()
            assert profile["service"]["feed_errors"] == 3  # 1 + 2 retries
            assert profile["service"]["feed_retries"] == 2
            c.close()
        finally:
            thread.stop()

    def test_degrade_close_tears_down_one_session_only(self):
        thread = ServiceThread(SessionPolicy(degrade="close", retries=0))
        try:
            trace = canonical_trace()
            healthy = ServiceClient(thread.address)
            healthy.connect()
            healthy.open_session("ok", trace_tasks(trace), bound=BOUND)
            healthy.append_periods(trace.periods[:2])

            doomed = ServiceClient(thread.address)
            doomed.connect()
            doomed.open_session("doomed", trace_tasks(trace), bound=BOUND)
            with pytest.raises(ServiceError, match="degrade"):
                doomed.append_periods([bad_period()])
            doomed._session_id = "doomed"
            with pytest.raises(ServiceError, match="unknown session"):
                doomed.query_model()

            # The healthy session and the daemon never noticed.
            healthy.append_periods(trace.periods[2:])
            assert healthy.query_model() == batch_model(trace)
            stats = healthy.daemon_stats()
            assert stats["hot_loop"]["sessions_failed"] == 1
            doomed.close()
            healthy.close()
        finally:
            thread.stop()


class TestEvictionPressure:
    def test_lru_eviction_keeps_live_bounded(self):
        thread = ServiceThread(SessionPolicy(max_live=2))
        try:
            trace = canonical_trace()
            c = ServiceClient(thread.address)
            c.connect()
            for i in range(5):
                c.open_session(f"s{i}", trace_tasks(trace), bound=BOUND)
                c.append_periods(trace.periods[:2])
            stats = c.daemon_stats()
            assert stats["live_sessions"] <= 2
            assert stats["hot_loop"]["sessions_evicted"] >= 3
            # Every evicted session resumes transparently on its next op
            # and still reaches the batch model.
            for i in range(5):
                c.open_session(f"s{i}", (), bound=BOUND)
                c.append_periods(trace.periods[2:])
                assert c.query_model() == batch_model(trace)
            c.close()
        finally:
            thread.stop()

    def test_op_queued_behind_pressure_evict_is_answered(self, tmp_path):
        """Pressure queues an evict for an idle victim; an append that
        lands behind it on the victim's queue must still be acked."""
        import asyncio

        from repro.service import ops as service_ops
        from repro.service.eviction import SessionManager
        from repro.service.server import ServiceServer

        trace = canonical_trace()

        async def scenario():
            server = ServiceServer(SessionPolicy(max_live=1))
            server.manager = SessionManager(server.policy, str(tmp_path))
            replies = Replies()
            try:
                for name in ("victim", "other"):
                    await server._dispatch(
                        service_ops.open_op(name, trace.tasks, bound=BOUND),
                        replies,
                    )
                victim = server.manager.live["victim"]
                # Opening "other" pushed the live count over the bound.
                assert victim.queue.qsize() == 1
                await server._dispatch(
                    service_ops.append_op("victim", 1, trace.periods[:2]),
                    replies,
                )
                assert victim.queue.qsize() == 2
                await asyncio.wait_for(victim.queue.join(), timeout=10.0)
                return replies.frames, victim.learner._periods
            finally:
                for session in list(server.manager.live.values()):
                    if session.worker is not None:
                        session.worker.cancel()

        frames, periods = asyncio.run(scenario())
        acks = [f for f in frames if f["kind"] == "ack"]
        assert [(a["session"], a["seq"]) for a in acks] == [("victim", 1)]
        assert periods == 2

    def test_explicit_evict_then_any_op_resumes(self, client):
        trace = canonical_trace()
        client.open_session("s", trace_tasks(trace), bound=BOUND)
        client.append_periods(trace.periods[:3])
        client.evict_session()
        # No explicit re-open: the append itself resumes from the spool.
        client.append_periods(trace.periods[3:])
        assert client.query_model() == batch_model(trace)
        assert client.profile()["service"]["resumed"] == 1


class TestBackpressure:
    def test_queue_stays_bounded_under_flood(self, daemon):
        """A fake client floods appends without reading acks; the
        session queue must never exceed its bound (the reader stalls),
        every frame must eventually ack in order, and the model must
        be exact."""
        from repro.distributed.framing import recv_frame, send_frame
        from repro.service import ops as service_ops

        trace = serial_chain_trace(3, 40)
        depth = 4
        del daemon
        thread = ServiceThread(SessionPolicy(queue_depth=depth))
        try:
            host, port = thread.address[len("tcp://"):].rsplit(":", 1)
            sock = socket.create_connection((host, int(port)), timeout=30.0)
            send_frame(sock, service_ops.hello("flood"))
            reply, _ = recv_frame(sock)
            service_ops.expect(reply, "welcome")
            send_frame(
                sock,
                service_ops.open_op("s", trace.tasks, bound=BOUND),
            )
            reply, _ = recv_frame(sock)
            service_ops.expect(reply, "opened")
            for seq, period in enumerate(trace.periods, start=1):
                send_frame(sock, service_ops.append_op("s", seq, [period]))
            acks = []
            for _ in trace.periods:
                reply, _ = recv_frame(sock)
                acks.append(service_ops.expect(reply, "ack"))
            assert [a["seq"] for a in acks] == list(
                range(1, len(trace.periods) + 1)
            )
            send_frame(sock, service_ops.profile_op("s"))
            reply, _ = recv_frame(sock)
            profile = service_ops.expect(reply, "profile")
            assert 1 <= profile["service"]["queue_peak"] <= depth
            send_frame(sock, service_ops.query_op("s"))
            reply, _ = recv_frame(sock)
            model = service_ops.expect(reply, "model")
            assert model["model_json"] == batch_model(trace)
            sock.close()
        finally:
            thread.stop()


class TestLoopScheduling:
    def test_feeds_run_on_the_loop_thread(self, monkeypatch):
        """Learner work runs on the daemon's event-loop thread; the
        daemon starts no feed threads."""
        import threading

        from repro.core.base import IncrementalLearner

        fed_on = set()
        original = IncrementalLearner.feed

        def recording_feed(learner, period):
            fed_on.add(threading.current_thread().name)
            return original(learner, period)

        trace = canonical_trace()
        expected = batch_model(trace)
        monkeypatch.setattr(IncrementalLearner, "feed", recording_feed)
        thread = ServiceThread(SessionPolicy(max_live=2))
        try:
            c = ServiceClient(thread.address)
            c.connect()
            for i in range(3):
                c.open_session(f"s{i}", trace_tasks(trace), bound=BOUND)
                c.append_periods(trace.periods[:4])
            for i in range(3):
                c.open_session(f"s{i}", (), bound=BOUND)
                c.append_periods(trace.periods[4:])
                assert c.query_model() == expected
            names = {t.name for t in threading.enumerate()}
            c.close()
        finally:
            thread.stop()
        assert fed_on == {"repro-service"}
        assert not any(n.startswith("repro-service-feed") for n in names)

    def test_sessions_take_one_op_per_turn(self, tmp_path):
        """Ops queued on two sessions before either worker runs are
        served round-robin, one op per session per loop turn."""
        import asyncio

        from repro.service import ops as service_ops
        from repro.service.eviction import SessionManager
        from repro.service.server import ServiceServer

        trace = canonical_trace()

        async def scenario():
            server = ServiceServer(SessionPolicy())
            server.manager = SessionManager(server.policy, str(tmp_path))
            replies = Replies()
            try:
                for name in ("A", "B"):
                    await server._dispatch(
                        service_ops.open_op(name, trace.tasks, bound=BOUND),
                        replies,
                    )
                    for seq in (1, 2, 3):
                        await server._dispatch(
                            service_ops.append_op(
                                name, seq, trace.periods[seq - 1:seq]
                            ),
                            replies,
                        )
                assert all(
                    s.queue.qsize() == 3 for s in server.manager.live.values()
                )
                for session in server.manager.live.values():
                    await asyncio.wait_for(session.queue.join(), timeout=10.0)
                return replies.frames
            finally:
                for session in list(server.manager.live.values()):
                    if session.worker is not None:
                        session.worker.cancel()

        frames = asyncio.run(scenario())
        acks = [(f["session"], f["seq"]) for f in frames if f["kind"] == "ack"]
        assert acks == [
            ("A", 1), ("B", 1), ("A", 2), ("B", 2), ("A", 3), ("B", 3)
        ]


class TestClientFailure:
    def test_kill_evict_reconnect_converges(self, daemon):
        """The acceptance-criteria path: a client dies mid-stream, the
        session is evicted, and a reconnecting client resumes from the
        checkpoint and converges to the uninterrupted model."""
        trace = canonical_trace()
        first = ServiceClient(daemon.address)
        first.connect()
        first.open_session("s", trace_tasks(trace), bound=BOUND)
        first.append_periods(trace.periods[:4])
        # Kill the client abruptly: no close op, just a dead socket.
        first._sock.close()

        # An operator evicts the orphaned session to the spool.
        operator = ServiceClient(daemon.address)
        operator.connect()
        operator._session_id = "s"
        operator.evict_session()
        operator.close()

        # A new client reconnects: the open resumes from the checkpoint
        # and reports the admitted ladder position, so the client knows
        # to continue from period 4.
        second = ServiceClient(daemon.address)
        second.connect()
        opened = second.open_session("s", (), bound=BOUND)
        assert opened["how"] == "resumed"
        assert opened["last_seq"] == 1
        assert opened["periods"] == 4
        second.append_periods(trace.periods[4:])
        assert second.query_model() == batch_model(trace)
        second.close()

    def test_daemon_restart_resumes_from_spool(self, tmp_path):
        spool = str(tmp_path / "spool")
        trace = canonical_trace()
        thread = ServiceThread(SessionPolicy(spool_dir=spool))
        c = ServiceClient(thread.address)
        c.connect()
        c.open_session("s", trace_tasks(trace), bound=BOUND)
        c.append_periods(trace.periods[:5])
        c.evict_session()
        c.close()
        thread.stop()

        thread = ServiceThread(SessionPolicy(spool_dir=spool))
        try:
            c = ServiceClient(thread.address)
            c.connect()
            opened = c.open_session("s", (), bound=BOUND)
            assert opened["how"] == "resumed"
            assert opened["periods"] == 5
            c.append_periods(trace.periods[5:])
            assert c.query_model() == batch_model(trace)
            c.close()
        finally:
            thread.stop()


# ----------------------------------------------------------------------
# Layer 3: end-to-end equivalence with the batch CLI
# ----------------------------------------------------------------------

def cli_model_bytes(path: str, fmt_name: str, out_path: str) -> bytes:
    code = cli_main(
        [
            "learn", path, "--format", fmt_name, "--bound", str(BOUND),
            "--model-json", out_path,
        ],
        out=io.StringIO(),
    )
    assert code == 0
    with open(out_path, "rb") as stream:
        return stream.read()


class TestFormatMatrixEquivalence:
    def test_every_format_streams_to_cli_model(self, tmp_path, daemon):
        trace = canonical_trace()
        c = ServiceClient(daemon.address)
        c.connect()
        for name in format_names():
            fmt = get_format(name)
            path = str(tmp_path / f"t{fmt.extensions[0]}")
            fmt.write(trace, path)
            reference = cli_model_bytes(
                path, name, str(tmp_path / f"{name}.model.json")
            )
            c.stream_file(f"fmt-{name}", path, format=name, bound=BOUND, batch=3)
            streamed = c.query_model().encode()
            assert streamed == reference, f"format {name!r} diverged"
            closed = c.close_session()
            assert closed["model_json"].encode() == reference
        c.close()

    def test_every_format_survives_evict_resume_mid_stream(
        self, tmp_path, daemon
    ):
        trace = canonical_trace()
        c = ServiceClient(daemon.address)
        c.connect()
        for name in format_names():
            fmt = get_format(name)
            path = str(tmp_path / f"t{fmt.extensions[0]}")
            fmt.write(trace, path)
            reference = cli_model_bytes(
                path, name, str(tmp_path / f"{name}.model.json")
            )
            session = f"evict-{name}"
            tasks, periods = fmt.open_periods(path)
            periods = list(periods)
            half = len(periods) // 2
            c.open_session(session, tasks, bound=BOUND, format=name)
            c.append_periods(periods[:half])
            c.evict_session()
            c.open_session(session, (), bound=BOUND)
            c.append_periods(periods[half:])
            assert c.query_model().encode() == reference, (
                f"format {name!r} diverged after evict/resume"
            )
            c.close_session()
        c.close()

    def test_chaos_disconnect_client_converges(
        self, tmp_path, daemon, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", "disconnect@0")
        trace = canonical_trace()
        fmt = get_format("text")
        path = str(tmp_path / "t.log")
        fmt.write(trace, path)
        reference = cli_model_bytes(
            path, "text", str(tmp_path / "model.json")
        )
        c = ServiceClient(daemon.address, chaos_index=0)
        c.connect()
        c.stream_file("chaotic", path, format="text", bound=BOUND, batch=2)
        assert c.reconnects >= 1  # the plan actually fired
        assert c.query_model().encode() == reference
        profile = c.profile()
        # Disconnects happen before the send, so the ledger admits each
        # frame exactly once — no duplicates needed for convergence.
        assert profile["service"]["last_seq"] == profile["service"]["appends"]
        c.close_session()
        c.close()

    def test_chaos_duplicate_frames_deduplicated(
        self, tmp_path, daemon, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", "duplicate@0:99")
        trace = canonical_trace()
        fmt = get_format("text")
        path = str(tmp_path / "t.log")
        fmt.write(trace, path)
        reference = cli_model_bytes(
            path, "text", str(tmp_path / "model.json")
        )
        c = ServiceClient(daemon.address, chaos_index=0)
        c.connect()
        c.stream_file("dup", path, format="text", bound=BOUND, batch=2)
        profile = c.profile()
        assert profile["service"]["duplicates"] >= 1
        assert c.query_model().encode() == reference
        c.close_session()
        c.close()


class TestServeCLI:
    def test_serve_round_trip_with_profile_artifact(self, tmp_path):
        """Boot the daemon through the real CLI in a subprocess, drive a
        session, shut it down with a frame, and read the profile JSON
        it leaves behind."""
        import subprocess
        import sys

        profile_path = str(tmp_path / "daemon-profile.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_CHAOS", None)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "tcp://127.0.0.1:0", "--profile-json", profile_path,
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            line = proc.stdout.readline()
            assert "serving on tcp://" in line
            address = line.split("serving on ", 1)[1].strip()
            trace = canonical_trace()
            c = ServiceClient(address)
            c.connect()
            c.open_session("s", trace_tasks(trace), bound=BOUND)
            c.append_periods(trace.periods)
            assert c.query_model() == batch_model(trace)
            c.close_session()
            c.shutdown_daemon()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        with open(profile_path, "r", encoding="utf-8") as stream:
            profile = json.load(stream)
        assert profile["hot_loop"]["sessions_closed"] == 1
        assert profile["hot_loop"]["periods"] == len(trace.periods)
