"""``serve-stream``: one ``repro serve`` daemon, 128 streaming sessions.

The load generator is this process: one asyncio thread, two TCP
connections, speaking the session frame protocol (request and reply
payloads from ``repro.service.ops``, framed by
``repro.distributed.framing``). Sessions are split across the two
connections and each has at most one op outstanding, as with
``ServiceClient``. Every session streams its own seeded run of the
Figure 1 design, and no period is sent twice: before anything is timed,
each session is simulated for all its open-loop appends plus its share
of ``CAPACITY`` periods/s over the closed loop (see :func:`budgets`); a
session that still runs dry is left out of the rest of the closed loop.
The daemon keeps its default policy (``max_live`` 64), so the 128
sessions spill to the spool and resume. On two or more CPUs the daemon
is confined to the last one and this process to the others
(:func:`common.split_cpus`), and no CPU is let go idle
(:class:`common.IdleSpinners`): op latencies are a few milliseconds, and
a vCPU's wake-up delay, which follows the host's other load, would
otherwise set their tail.

Phases, after set-up (daemon launch until it listens and every session
is open, done ``SETUPS`` times; the median is reported). The run's
seconds are cut into ``ROUNDS`` rounds of the first two phases, so that
each figure samples the whole run and not one stretch of it, on hosts
whose speed drifts over seconds. Both phases draw sessions from the same
Zipf(1) ranking:

1. open loop: Poisson arrivals at ``OPEN_RATE`` ops/s, one op in ten a
   ``query``. An append carries ``OPEN_BATCH`` period, as a live stream
   sends each period when it ends; the load is low enough that ops seldom
   overlap in the daemon. Each op is timed from the moment it was due,
   so a stall counts against every op it delays; the generator's own
   lateness is reported beside the figures;
2. closed loop: ``CLIENTS`` clients append ``CLOSED_BATCH`` periods at
   a time, as fast as acks return; periods acknowledged per second of
   closed loop is the saturation rate;
3. every session is closed and its final model compared, outside the
   timed phases, with a batch learn over the periods it acknowledged.

An op whose reply does not arrive within ``DEADLINE`` seconds is
recovered the way ``ServiceClient`` recovers it: the session is re-opened
and every append past the ``last_seq`` the daemon reports is resent (a
query is asked again). The op then completes late, as it does for a user
of the client library, and its latency runs from its due time to that
late reply; the lost replies are counted and printed. An op whose reply
is an error has failed: it enters the latency percentiles as infinite,
and the session recovers the same way.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import statistics

import inputs
import tracing
from common import (BenchError, Child, IdleSpinners, free_port, median, now,
                    percentile, split_cpus)

SESSIONS = 128
BOUND = 8
OPEN_BATCH = 1
CLOSED_BATCH = 8
#: Closed-loop periods/s the simulated inputs can feed: 1.6 times the
#: highest saturation rate measured on a 2-vCPU host (about 2500, in its
#: faster spells), so that a faster daemon still gets fresh periods. A
#: session that runs dry is skipped. Simulating them is most of a run's
#: set-up, which is why this is not larger.
CAPACITY = 4000.0
#: Closed-loop appends simulated beyond each session's share.
SPARE = 3
OPEN_RATE = 50.0
QUERY_EVERY = 10
CLIENTS = 8
DEADLINE = 2.0
SETUPS = 3
ROUNDS = 8
#: Share of the run's seconds given to the open-loop phase.
OPEN_SHARE = 0.5
DAEMON_TIMEOUT = 30.0


class Session:
    """Client-side state of one session."""

    def __init__(self, index: int, link: "Link", trace) -> None:
        self.sid = f"s{index:03d}"
        self.link = link
        self.tasks = trace.tasks
        self.periods = list(trace.periods)
        self.cursor = 0
        self.next_seq = 1
        self.sent: dict[int, list] = {}
        self.acked_seq = 0
        self.busy = False
        self.waiter: asyncio.Future | None = None
        self.expect: tuple[str, int | None] = ("", None)

    def open_payload(self) -> dict:
        from repro.service import ops

        return ops.open_op(self.sid, self.tasks, bound=BOUND)

    @property
    def dry(self) -> bool:
        """True once too few unsent periods are left for a closed-loop append."""
        return self.cursor + CLOSED_BATCH > len(self.periods)

    def take(self, count: int) -> list:
        if self.cursor + count > len(self.periods):
            raise BenchError(f"session {self.sid} ran out of simulated periods")
        self.cursor += count
        return self.periods[self.cursor - count:self.cursor]

    def matches(self, reply: dict) -> bool:
        kind, seq = self.expect
        if reply.get("kind") == "error":
            return True
        return reply.get("kind") == kind and (seq is None or reply.get("seq") == seq)

    def acknowledged(self) -> list:
        return [p for seq in range(1, self.acked_seq + 1) for p in self.sent[seq]]


class Link:
    """One connection; a reader task routes replies to their session."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.sessions: dict[str, Session] = {}
        self.daemon_waiter: asyncio.Future | None = None
        self.stale = 0
        self.task: asyncio.Task | None = None

    @classmethod
    async def connect(cls, port: int) -> "Link":
        from repro.service import ops

        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        link = cls(reader, writer)
        await link.send(ops.hello("perfbench"))
        ops.expect(await link.read(), "welcome")
        link.task = asyncio.get_running_loop().create_task(link.route())
        return link

    async def send(self, payload: dict) -> None:
        from repro.distributed.framing import encode_frame

        self.writer.write(encode_frame(payload))
        await self.writer.drain()

    async def read(self) -> dict:
        from repro.distributed.framing import (
            HEADER_SIZE, decode_frame, parse_frame_header)

        header = await self.reader.readexactly(HEADER_SIZE)
        body = await self.reader.readexactly(parse_frame_header(header))
        return decode_frame(header + body)

    async def route(self) -> None:
        try:
            while True:
                reply = await self.read()
                session = self.sessions.get(reply.get("session"))
                if session is None and reply.get("kind") in ("stats", "bye"):
                    waiter = self.daemon_waiter
                else:
                    waiter = session.waiter if session is not None else None
                    if waiter is not None and not session.matches(reply):
                        waiter = None
                if waiter is None or waiter.done():
                    self.stale += 1
                    continue
                waiter.set_result(reply)
        except (asyncio.IncompleteReadError, ConnectionError):
            return

    async def daemon_call(self, payload: dict, kind: str) -> dict:
        from repro.service import ops

        self.daemon_waiter = asyncio.get_running_loop().create_future()
        await self.send(payload)
        reply = await asyncio.wait_for(self.daemon_waiter, DAEMON_TIMEOUT)
        return ops.expect(reply, kind)

    async def close(self) -> None:
        if self.task is not None:
            self.task.cancel()
            try:
                await self.task
            except asyncio.CancelledError:
                pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class Op:
    __slots__ = ("kind", "phase", "sid", "seq", "due", "sent", "done", "ok",
                 "recovered")

    def __init__(self, kind: str, phase: str, sid: str, due: float) -> None:
        self.kind, self.phase, self.sid, self.due = kind, phase, sid, due
        self.seq: int | None = None
        self.sent = self.done = math.nan
        self.ok = False
        self.recovered = False

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3 if self.ok else math.inf


class LoadGenerator:
    """The load generator against one running daemon."""

    def __init__(self, sessions: list[Session], links: list[Link]) -> None:
        self.sessions = sessions
        self.links = links
        self.ops: list[Op] = []
        self.lateness: list[float] = []
        self.lost = 0
        self.errors = 0

    async def call(self, session: Session, payload: dict, kind: str,
                   seq: int | None = None, deadline: float = DEADLINE) -> dict | None:
        """One request; the reply, or None when it was lost or an error."""
        session.waiter = asyncio.get_running_loop().create_future()
        session.expect = (kind, seq)
        try:
            await session.link.send(payload)
            reply = await asyncio.wait_for(session.waiter, deadline)
        except asyncio.TimeoutError:
            self.lost += 1
            return None
        finally:
            session.waiter = None
        if reply.get("kind") == "error":
            self.errors += 1
            return None
        return reply

    async def open(self, session: Session) -> dict:
        reply = await self.call(session, session.open_payload(), "opened",
                                deadline=DAEMON_TIMEOUT)
        if reply is None:
            raise BenchError(f"session {session.sid} could not be opened")
        return reply

    async def recover(self, session: Session) -> None:
        """Re-open, then resend every append the daemon has not admitted."""
        while True:
            opened = await self.open(session)
            last = opened["last_seq"]
            session.acked_seq = max(session.acked_seq, last)
            pending = sorted(seq for seq in session.sent if seq > last)
            for seq in pending:
                from repro.service import ops

                payload = ops.append_op(session.sid, seq, session.sent[seq])
                if await self.call(session, payload, "ack", seq) is None:
                    break
                session.acked_seq = seq
            else:
                session.next_seq = session.acked_seq + 1
                return

    async def op(self, session: Session, kind: str, phase: str, due: float) -> Op:
        from repro.service import ops

        record = Op(kind, phase, session.sid, due)
        self.ops.append(record)
        session.busy = True
        try:
            record.sent = now()
            if kind == "append":
                seq = record.seq = session.next_seq
                session.sent[seq] = session.take(
                    OPEN_BATCH if phase == "open" else CLOSED_BATCH)
                session.next_seq += 1
                payload = ops.append_op(session.sid, seq, session.sent[seq])
                reply = await self.call(session, payload, "ack", seq)
                if reply is not None:
                    session.acked_seq = seq
            else:
                payload = ops.query_op(session.sid)
                reply = await self.call(session, payload, "model")
            errors = self.errors
            while reply is None and self.errors == errors:
                # The reply was lost: recover as ServiceClient does. The
                # resent appends include this one; a query is asked again.
                record.recovered = True
                await self.recover(session)
                if kind == "append":
                    reply = {"kind": "ack", "seq": seq}
                else:
                    reply = await self.call(session, payload, "model")
            record.done = now()
            record.ok = reply is not None
            if not record.ok:
                await self.recover(session)
        finally:
            session.busy = False
        return record

    # -- phases ------------------------------------------------------------

    async def open_loop(self, schedule, start: float) -> None:
        per_session: dict[int, list] = {}
        for offset, index, kind in schedule:
            per_session.setdefault(index, []).append((start + offset, kind))

        async def drive(session: Session, rows) -> None:
            for due, kind in rows:
                delay = due - now()
                if delay > 0:
                    await asyncio.sleep(delay)
                    self.lateness.append(now() - due)
                await self.op(session, kind, "open", due)

        await asyncio.gather(*(drive(self.sessions[i], rows)
                               for i, rows in per_session.items()))

    async def closed_loop(self, popularity: inputs.Popularity,
                          end: float) -> None:
        async def client() -> None:
            while now() < end:
                session = self.sessions[popularity.pick()]
                if session.busy or session.dry:
                    if all(s.dry for s in self.sessions):
                        return
                    await asyncio.sleep(0)
                    continue
                await self.op(session, "append", "closed", now())

        await asyncio.gather(*(client() for _ in range(CLIENTS)))

    async def close_all(self) -> dict[str, str]:
        from repro.service import ops

        models: dict[str, str] = {}

        for session in self.sessions:
            while True:
                reply = await self.call(session, ops.close_op(session.sid),
                                        "closed")
                if reply is not None:
                    acked = len(session.acknowledged())
                    if reply["periods"] != acked:
                        raise BenchError(
                            f"session {session.sid} closed with "
                            f"{reply['periods']} periods, {acked} acknowledged")
                    models[session.sid] = reply["model_json"]
                    break
                await self.recover(session)
        return models


async def _set_up(workdir: str, tag: str, spans: str | None,
                  run_id: str, traces) -> tuple[Child, LoadGenerator, float]:
    port = free_port()
    spool = os.path.join(workdir, f"spool-{tag}")
    cpus = split_cpus()
    daemon = Child(["serve", f"tcp://127.0.0.1:{port}", "--quiet",
                    "--spool-dir", spool], workdir, f"serve-{tag}",
                   spans=spans, run_id=run_id,
                   cpus=cpus[1] if cpus else None)
    links: list[Link] = []
    deadline = now() + DAEMON_TIMEOUT
    try:
        while len(links) < 2:
            try:
                links.append(await Link.connect(port))
            except OSError:
                if now() >= deadline or daemon.poll():
                    raise BenchError(
                        f"daemon never listened:\n{daemon.log_text()[-2000:]}")
                await asyncio.sleep(0.01)
        sessions = [Session(i, links[i % 2], traces[i]) for i in range(SESSIONS)]
        for session in sessions:
            session.link.sessions[session.sid] = session
        load = LoadGenerator(sessions, links)
        await asyncio.gather(*(load.open(s) for s in sessions))
    except BaseException:
        for link in links:
            await link.close()
        daemon.stop()
        raise
    return daemon, load, now() - daemon.started_at


async def _shut_down(daemon: Child, load: LoadGenerator) -> dict:
    from repro.service import ops

    try:
        stats = await load.links[0].daemon_call(ops.stats_op(), "stats")
        await load.links[0].daemon_call(ops.shutdown_op(), "bye")
    finally:
        for link in load.links:
            await link.close()
    daemon.wait(DAEMON_TIMEOUT)
    daemon.check()
    return stats


async def _session_run(seed: int, seconds: float, workdir: str, tag: str,
                       spans: str | None, run_id: str, traces) -> dict:
    setups = []
    for attempt in range(SETUPS - 1):
        daemon, load, took = await _set_up(workdir, f"{tag}{attempt}",
                                             None, run_id, traces)
        setups.append(took)
        await _shut_down(daemon, load)
    daemon, load, took = await _set_up(workdir, tag, spans, run_id, traces)
    setups.append(took)
    try:
        open_s = seconds * OPEN_SHARE / ROUNDS
        closed_s = seconds * (1 - OPEN_SHARE) / ROUNDS
        schedule = inputs.open_loop_schedule(OPEN_RATE, open_s * ROUNDS,
                                             SESSIONS, QUERY_EVERY, seed)
        popularity = closed_popularity(seed)
        start = now()
        closed = []
        for r in range(ROUNDS):
            rows = [(offset - r * open_s, index, kind)
                    for offset, index, kind in schedule
                    if r * open_s <= offset < (r + 1) * open_s]
            await load.open_loop(rows, now() + 0.01)
            closed_start = now()
            closed_end = closed_start + closed_s
            await load.closed_loop(popularity, closed_end)
            # A closed loop whose sessions all ran dry ends early.
            closed.append((closed_start, min(closed_end, now())))
        end = now()
        models = await load.close_all()
        stats = await _shut_down(daemon, load)
    except BaseException:
        daemon.stop()
        raise
    return {
        "setups": setups, "load": load, "daemon": daemon, "stats": stats,
        "models": models, "window": (start, end), "closed": closed,
    }


def _in_windows(t: float, windows: list[tuple[float, float]]) -> bool:
    return any(lo <= t <= hi for lo, hi in windows)


def _saturation(outcome: dict) -> float:
    """Periods acknowledged per second of closed loop, over all rounds."""
    windows = outcome["closed"]
    acked = sum(1 for op in outcome["load"].ops
                if op.phase == "closed" and op.ok and _in_windows(op.done, windows))
    return acked * CLOSED_BATCH / sum(hi - lo for lo, hi in windows)


def _gate(outcome: dict) -> bool:
    from repro.analysis.report import dumps_model
    from repro.core import learn_dependencies
    from repro.trace.trace import Trace

    for session in outcome["load"].sessions:
        trace = Trace(session.tasks, session.acknowledged())
        expected = dumps_model(learn_dependencies(trace, bound=BOUND).lub())
        if outcome["models"][session.sid] != expected:
            print(f"gate: session {session.sid} model differs from a batch "
                  f"learn over its {len(trace)} acknowledged periods")
            return False
    return True


def closed_popularity(seed: int) -> inputs.Popularity:
    return inputs.Popularity(SESSIONS, seed, "closed")


def budgets(seed: int, seconds: float) -> list[int]:
    """Periods to simulate per session for a run of *seconds*: those of
    its open-loop appends, plus its Zipf share of ``CAPACITY`` periods/s
    over the closed loop, plus ``SPARE`` closed-loop batches for the
    sessions whose share is a handful of batches."""
    schedule = inputs.open_loop_schedule(OPEN_RATE, seconds * OPEN_SHARE,
                                         SESSIONS, QUERY_EVERY, seed)
    appends = [0] * SESSIONS
    for _, index, kind in schedule:
        appends[index] += kind == "append"
    closed = closed_popularity(seed)
    closed_batches = CAPACITY * seconds * (1 - OPEN_SHARE) / CLOSED_BATCH
    return [OPEN_BATCH * appends[i]
            + CLOSED_BATCH * (SPARE + math.ceil(closed.share(i) * closed_batches))
            for i in range(SESSIONS)]


def _simulate(seed: int, seconds: float) -> list:
    return [inputs.session_trace(i, periods, seed)
            for i, periods in enumerate(budgets(seed, seconds))]


def run(seed: int, seconds: float, traced: bool, workdir: str, run_id: str) -> dict:
    with IdleSpinners():
        return _run(seed, seconds, traced, workdir, run_id)


def _run(seed: int, seconds: float, traced: bool, workdir: str, run_id: str) -> dict:
    cpus = split_cpus()
    if cpus is not None:
        os.sched_setaffinity(0, cpus[0])
    traces = _simulate(seed, seconds)
    # The inputs live to the end; keep the collector from scanning them
    # mid-run, which stalls the load generator for a fifth of a second.
    gc.collect()
    gc.freeze()
    if not traced:
        outcome = asyncio.run(_session_run(seed, seconds, workdir, "plain",
                                           None, run_id, traces))
        correct = _gate(outcome)
        return _end_to_end(outcome, correct)
    plain = asyncio.run(_session_run(seed, seconds / 2, workdir, "plain",
                                     None, run_id, traces))
    from tracing import Tracer

    tracer = Tracer(run_id)
    tracer.install()
    spans_dir = os.path.join(workdir, "spans")
    os.makedirs(spans_dir)
    daemon_spans = os.path.join(spans_dir, "serve.json")
    outcome = asyncio.run(_session_run(seed, seconds / 2, workdir, "traced",
                                       daemon_spans, run_id, traces))
    tracer.active = False
    client_spans = os.path.join(spans_dir, "client.json")
    tracer.write(client_spans, "client")
    correct = _gate(plain) and _gate(outcome)
    figures = _layer_metrics(outcome, [daemon_spans, client_spans], run_id)
    figures["trace_overhead"] = _saturation(plain) / _saturation(outcome)
    load = outcome["load"]
    return {"correct": correct, "attempted": len(load.ops),
            "failed": sum(1 for op in load.ops if not op.ok),
            "metrics": figures}


def _end_to_end(outcome: dict, correct: bool) -> dict:
    load: LoadGenerator = outcome["load"]
    opened = [op for op in load.ops if op.phase == "open"]
    appends = [op.latency_ms for op in opened if op.kind == "append"]
    queries = [op.latency_ms for op in opened if op.kind == "query"]
    every = appends + queries
    failed = sum(1 for op in load.ops if not op.ok)
    attempted = len(load.ops)
    saturation = _saturation(outcome)
    lateness = [x * 1e3 for x in load.lateness]
    rss = outcome["daemon"].peak_rss_mb
    print(f"serve-stream: {SESSIONS} sessions, open loop {OPEN_RATE:g} ops/s "
          f"({len(every)} ops), closed loop {CLIENTS} clients")
    print(f"  append_ms_p50 {percentile(appends, 0.5):.3f} ms, append_ms_p90 "
          f"{percentile(appends, 0.9):.3f} ms ({len(appends)} appends)")
    print(f"  query_ms_p50 {percentile(queries, 0.5):.3f} ms, query_ms_p90 "
          f"{percentile(queries, 0.9):.3f} ms ({len(queries)} queries)")
    rounds = [_saturation({**outcome, "closed": [w]}) for w in outcome["closed"]]
    print(f"  serve_periods_per_s {saturation:.1f} periods/s (rounds "
          f"{', '.join(f'{r:.0f}' for r in rounds)})")
    sent = sum(s.cursor for s in load.sessions)
    simulated = sum(len(s.periods) for s in load.sessions)
    print(f"  {sent} of {simulated} simulated periods sent, none twice; "
          f"{sum(s.dry for s in load.sessions)} sessions ran dry")
    late = [op.latency_ms for op in load.ops if op.recovered]
    print(f"  error_rate {failed / attempted:.6f} ratio ({failed} of {attempted} "
          f"ops: {load.errors} error replies, "
          f"{sum(link.stale for link in load.links)} stale replies dropped)")
    print(f"  {load.lost} lost replies; {len(late)} ops answered only after "
          f"re-open and resend"
          + (f", latest {max(late):.1f} ms after due" if late else ""))
    print(f"  generator lateness p50 {percentile(lateness, 0.5):.3f} ms, "
          f"p90 {percentile(lateness, 0.9):.3f} ms, "
          f"max {max(lateness):.3f} ms ({len(lateness)} sends)")
    figures = {
        "setup_s": median(outcome["setups"]),
        "periods_per_s": saturation,
        "latency_ms_p50": percentile(every, 0.5),
        "latency_ms_p90": percentile(every, 0.9),
        "peak_rss_mb": rss,
        "success_rate": 1.0 - failed / attempted,
    }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": figures}


def _layer_metrics(outcome: dict, files: list[str], run_id: str) -> dict:
    load: LoadGenerator = outcome["load"]
    daemon_pid = outcome["daemon"].pid
    lo, hi = outcome["window"]
    spans, _ = tracing.load(files, run_id)
    spans = [s for s in spans if lo <= s.start <= hi]
    daemon = [s for s in spans if s.pid == daemon_pid]
    client = [s for s in spans if s.pid != daemon_pid]
    hot = outcome["stats"]["hot_loop"]

    def keyed(group, name):
        return {(s.attrs.get("session"), s.attrs.get("seq")): s for s in group
                if s.name == name and "seq" in s.attrs}

    requests = keyed(daemon, "distributed.decode")
    replies = keyed(daemon, "distributed.encode")
    sends = keyed(client, "distributed.encode")
    receipts = keyed(client, "distributed.decode")
    feeds: dict[str, list] = {}
    for span in daemon:
        if span.name == "core.feed":
            feeds.setdefault(span.attrs.get("session"), []).append(span)
    op_feed, op_wait = [], []
    for op in load.ops:
        key = (op.sid, op.seq)
        if op.kind != "append" or not op.ok or key not in requests \
                or key not in replies:
            continue
        t_in, t_out = requests[key].end, replies[key].start
        fed = sum(s.seconds for s in feeds.get(op.sid, ())
                  if t_in <= s.start <= t_out)
        codec = sum(group[key].seconds for group in (requests, replies, sends, receipts)
                    if key in group)
        op_feed.append(fed)
        op_wait.append((op.done - op.sent) - fed - codec)
    feed_times = tracing.durations(daemon, "core.feed")
    session_ops = len(load.ops)
    resumes = tracing.count(daemon, "service.spool_read")
    windows = outcome["closed"]
    busy = [s for s in spans if _in_windows(s.start, windows)]
    wall = sum(hi - lo for lo, hi in windows)
    figures = {
        "core.feed_s": sum(feed_times),
        "core.feed_ms_p50": statistics.median(feed_times) * 1e3,
        "core.feed_ms_p90": percentile(feed_times, 0.9) * 1e3,
        "core.lub_s": tracing.total(daemon, "core.lub"),
        "core.batch_ops_s": tracing.total(daemon, "core.batch_ops"),
        "core.candidates_s": tracing.total(daemon, "core.candidates"),
        "core.candidates_calls": tracing.count(daemon, "core.candidates"),
        "distributed.encode_s": tracing.total(spans, "distributed.encode"),
        "distributed.decode_s": tracing.total(spans, "distributed.decode"),
        "distributed.frames": (tracing.count(spans, "distributed.encode")
                               + tracing.count(spans, "distributed.decode")),
        "service.feed_ms_p50": statistics.median(op_feed) * 1e3,
        "service.wait_ms_p50": statistics.median(op_wait) * 1e3,
        "service.spool_write_s": tracing.total(daemon, "service.spool_write"),
        "service.evictions": tracing.count(daemon, "service.spool_write"),
        "service.spool_read_s": tracing.total(daemon, "service.spool_read"),
        "service.resumes": resumes,
        "service.resume_ratio": resumes / session_ops,
        "service.queue_peak": hot["session_queue_peak"],
        "service.render_s": (tracing.total(daemon, "analysis.dumps_model")
                             + tracing.total(daemon, "core.lub")),
        "service.lost_replies": load.lost,
        "service.error_replies": load.errors,
        "service.duplicates": hot["session_duplicates"],
        "service.feed_retries": hot["session_feed_retries"],
        "analysis.dumps_model_s": tracing.total(daemon, "analysis.dumps_model"),
        "residual_s": wall - tracing.covered(
            [s for s in busy if s.pid == daemon_pid]),
    }
    print(f"serve-stream: traced; closed-loop phases {wall:.3f} s, "
          f"{len(op_wait)} appends joined across processes")
    tracing.report_layers(busy, wall, figures["residual_s"])
    return figures


__all__ = ["run"]
