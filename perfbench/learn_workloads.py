"""The two batch-learning workloads: ``repro learn`` from a file.

Each timed learn is a fresh ``repro learn`` process, so the candidate
cache and the store cache start cold, as they do for a user, and the
process's peak memory is the learner's own. One iteration is:

* ``learn-store-tcp`` only: ``repro ingest`` the text log into a
  ``.rts`` store; the learn below coordinates over TCP two fresh
  ``repro worker --parallelism 1`` daemons, started as soon as it
  listens;
* ``repro learn <trace> ... --model-json --profile-json``.

The job is what a user runs to get a model from a text log: ``repro
learn`` alone on ``learn-exact``, or ``repro ingest`` then ``repro
learn`` on ``learn-store-tcp``. Its time is each command's launch to
exit, summed. Set-up is the part of it before each command is ready: the command has
imported the CLI and entered it and, for the learn over TCP, both
workers have connected to its coordinator. The rest is work, from the
text log to the model JSON written, and sets the period rate.
Iterations repeat until the run's seconds are spent (at least
``MIN_LEARNS``); medians are reported.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass

import inputs
import tracing
from common import Child, median, now, percentile, stop_all

#: Fewest timed learns in one run, whatever ``--seconds`` says.
MIN_LEARNS = 3
#: Upper limit on one learn, far above its normal time.
LEARN_TIMEOUT = 120.0


@dataclass(frozen=True)
class LearnSpec:
    name: str
    design: str            # "gm" or "pipeline"
    periods: int
    bound: int | None
    workers: int = 1
    tcp: bool = False      # ingest to .rts, learn with two worker daemons


SPECS = {
    "learn-store-tcp": LearnSpec(
        "learn-store-tcp", "gm", periods=48, bound=64, workers=2, tcp=True),
    "learn-exact": LearnSpec("learn-exact", "pipeline", periods=40, bound=None),
}


class Learn:
    """One timed iteration's processes and outputs."""

    def __init__(self, spec: LearnSpec, workdir: str, index: int,
                 log_path: str, spans_dir: str | None, run_id: str) -> None:
        self.spec = spec
        self.index = index
        self.children: list[Child] = []
        self.model = os.path.join(workdir, f"model-{index}.json")
        self.profile = os.path.join(workdir, f"profile-{index}.json")
        self.ingest: Child | None = None
        source = log_path

        def spans(tag: str) -> str | None:
            if spans_dir is None:
                return None
            return os.path.join(spans_dir, f"{tag}-{index}.json")

        if spec.tcp:
            source = os.path.join(workdir, f"trace-{index}.rts")
            self.ingest = Child(["ingest", log_path, "-o", source], workdir,
                                f"ingest-{index}", spans=spans("ingest"),
                                run_id=run_id)
            self.ingest.wait(LEARN_TIMEOUT)
            self.ingest.check()
        argv = ["learn", source, "--workers", str(spec.workers), "--quiet",
                "--model-json", self.model, "--profile-json", self.profile]
        if spec.bound is not None:
            argv += ["--bound", str(spec.bound)]
        address = None
        if spec.tcp:
            from common import free_port

            address = f"tcp://127.0.0.1:{free_port()}"
            argv += ["--scheduler", address]
        self.learn = Child(argv, workdir, f"learn-{index}",
                           spans=spans("learn"), run_id=run_id)
        self.children.append(self.learn)
        self.fleet_at: float | None = None
        try:
            if address is not None:
                # Workers start once the coordinator listens, so their
                # first dial succeeds: a worker that dials too early
                # sleeps a fixed reconnect delay, which would make
                # set-up time jump by that delay from run to run.
                port = int(address.rsplit(":", 1)[1])
                _await_socket(port, LISTEN, 1, self.learn)
                for w in range(2):
                    self.children.append(Child(
                        ["worker", address, "--parallelism", "1", "--quiet"],
                        workdir, f"worker-{index}-{w}",
                        spans=spans(f"worker{w}"), run_id=run_id))
                self.fleet_at = _await_socket(port, ESTABLISHED, 2, self.learn)
            self.learn.wait(LEARN_TIMEOUT)
            self.learn.check()
        finally:
            stop_all(self.children[1:])

    @property
    def ready_at(self) -> float:
        """End of set-up: the learn entered the CLI and, with workers,
        both worker connections to its coordinator are established."""
        ready = max(c.ready_at() for c in self.children)
        return max(ready, self.fleet_at) if self.fleet_at is not None else ready

    @property
    def setup_s(self) -> float:
        setup = self.ready_at - self.learn.started_at
        if self.ingest is not None:
            setup += self.ingest.ready_at() - self.ingest.started_at
        return setup

    @property
    def learn_s(self) -> float:
        return self.learn.ended_at - self.ready_at

    @property
    def wall_s(self) -> float:
        """The job: each command from launch to exit, summed."""
        wall = self.learn.ended_at - self.learn.started_at
        if self.ingest is not None:
            wall += self.ingest.ended_at - self.ingest.started_at
        return wall

    @property
    def work_s(self) -> float:
        return self.wall_s - self.setup_s

    @property
    def ingest_s(self) -> float:
        return self.ingest.ended_at - self.ingest.ready_at()

    @property
    def peak_rss_mb(self) -> float:
        together = sum(c.peak_rss_mb for c in self.children)
        alone = self.ingest.peak_rss_mb if self.ingest is not None else 0.0
        return max(together, alone)

    def read_profile(self) -> dict:
        with open(self.profile, "r", encoding="utf-8") as stream:
            return json.load(stream)


#: ``/proc/net/tcp`` socket states.
ESTABLISHED, LISTEN = "01", "0A"


def _sockets(port: int, state: str) -> int:
    """IPv4 sockets in *state* on 127.0.0.1:*port*: for LISTEN the local
    end, for ESTABLISHED the connecting (remote) end."""
    address = f"0100007F:{port:04X}"
    column = 1 if state == LISTEN else 2
    with open("/proc/net/tcp", "r", encoding="ascii") as table:
        next(table)
        rows = [row.split() for row in table]
    return sum(1 for row in rows if row[column] == address and row[3] == state)


def _await_socket(port: int, state: str, want: int, learn: Child) -> float | None:
    """The moment *want* sockets of the coordinator's port are in *state*.

    Polled every 5 ms; ``None`` if the learn ends first (a learn that
    cannot reach its workers fails the run on its own).
    """
    deadline = now() + LEARN_TIMEOUT
    while now() < deadline and not learn.poll():
        if _sockets(port, state) >= want:
            return now()
        time.sleep(0.005)
    return None


def _learn_for(spec: LearnSpec, seconds: float, workdir: str, log_path: str,
               spans_dir: str | None, run_id: str, first: int) -> list[Learn]:
    learns: list[Learn] = []
    started = now()
    while True:
        began = now()
        learns.append(Learn(spec, workdir, first + len(learns), log_path,
                            spans_dir, run_id))
        took = now() - began
        # Start another learn only if it should end within the budget.
        if len(learns) >= MIN_LEARNS and now() - started + took > seconds:
            return learns


def _expected_model(spec: LearnSpec, log_path: str) -> str:
    """The model the gate demands, from an independent learn in-process."""
    from repro.analysis.report import dumps_model
    from repro.trace.formats import read_trace_file

    trace = read_trace_file(log_path)
    if spec.tcp:
        from repro.core import learn_dependencies

        result = learn_dependencies(trace, bound=spec.bound, workers=2)
    else:
        from repro.core.reference import learn_exact_reference

        result = learn_exact_reference(trace)
    return dumps_model(result.lub())


def _gate(spec: LearnSpec, log_path: str, learns: list[Learn]) -> bool:
    expected = _expected_model(spec, log_path)
    for learn in learns:
        with open(learn.model, "r", encoding="utf-8") as stream:
            if stream.read() != expected:
                print(f"gate: model of learn {learn.index} differs from the "
                      f"reference learn")
                return False
    return True


def _make_trace(spec: LearnSpec, seed: int):
    if spec.design == "gm":
        return inputs.gm_trace(spec.periods, seed)
    return inputs.pipeline_trace(spec.periods, seed)


def run(name: str, seed: int, seconds: float, traced: bool,
        workdir: str, run_id: str) -> dict:
    spec = SPECS[name]
    log_path = os.path.join(workdir, "trace.log")
    inputs.write_text_log(_make_trace(spec, seed), log_path)
    periods = spec.periods
    if not traced:
        learns = _learn_for(spec, seconds, workdir, log_path, None, run_id, 0)
        correct = _gate(spec, log_path, learns)
        rates = [periods / learn.work_s for learn in learns]
        jobs = [learn.wall_s * 1e3 for learn in learns]
        figures = {
            "setup_s": median([learn.setup_s for learn in learns]),
            "periods_per_s": median(rates),
            "latency_ms_p50": median(jobs),
            "latency_ms_p90": percentile(jobs, 0.9),
            "peak_rss_mb": median([learn.peak_rss_mb for learn in learns]),
            "success_rate": 1.0,
        }
        print(f"{name}: {len(learns)} cold jobs of {periods} periods")
        print(f"  periods_per_s {median(rates):.2f} periods/s "
              f"(samples {', '.join(f'{r:.2f}' for r in rates)})")
        if spec.tcp:
            learn = [periods / learn.learn_s for learn in learns]
            ingest = [periods / learn.ingest_s for learn in learns]
            print(f"  of which learn_periods_per_s {median(learn):.2f} periods/s, "
                  f"ingest_periods_per_s {median(ingest):.2f} periods/s")
        print("  error_rate 0 ratio (a failed learn fails the run)")
        return {"correct": correct, "attempted": len(learns), "failed": 0,
                "metrics": figures}

    # Traced run: the same learns untraced, then traced, for the overhead.
    plain = _learn_for(spec, seconds / 2, workdir, log_path, None, run_id, 0)
    spans_dir = os.path.join(workdir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    learns = _learn_for(spec, seconds / 2, workdir, log_path, spans_dir,
                        run_id, len(plain))
    correct = _gate(spec, log_path, plain + learns)
    files = [os.path.join(spans_dir, f) for f in sorted(os.listdir(spans_dir))]
    figures = layer_metrics(spec, learns, files, run_id)
    figures["trace_overhead"] = (
        median([learn.wall_s for learn in learns])
        / median([learn.wall_s for learn in plain]))
    return {"correct": correct, "attempted": len(plain) + len(learns),
            "failed": 0, "metrics": figures}


def layer_metrics(spec: LearnSpec, learns: list[Learn], files: list[str],
                  run_id: str) -> dict[str, float]:
    """Per-learn averages of every per-layer figure the learns produce."""
    spans, counter_blocks = tracing.load(files, run_id)
    n = len(learns)
    learn_pids = {learn.learn.pid for learn in learns}
    job_pids = learn_pids | {learn.ingest.pid for learn in learns
                             if learn.ingest is not None}
    profiles = [learn.read_profile() for learn in learns]

    def hot(key: str) -> float:
        return sum(p["hot_loop"][key] for p in profiles) / n

    def stage(key: str) -> float:
        return sum(s["seconds"] for p in profiles for s in p["stages"]
                   if s["name"] == key) / n

    def per_learn(name: str) -> float:
        return tracing.total(spans, name) / n

    feeds = tracing.durations(spans, "core.feed")
    merges = [s for s in spans if s.name == "core.merge"]
    shard_times = [t for s in merges for t in s.attrs["shards"]]
    shard_learn_s = sum(shard_times) / n
    skews = [max(s.attrs["shards"]) / min(s.attrs["shards"])
             for s in merges if s.attrs["shards"]]
    cache = [c["candidate_cache"] for c in counter_blocks if "candidate_cache" in c]
    hits = sum(c.get("hits", 0) for c in cache)
    lookups = hits + sum(c.get("misses", 0) for c in cache)
    exact = spec.bound is None
    lubs = [s for s in spans if s.name == "core.lub" and s.pid in learn_pids]
    job_spans = [s for s in spans if s.pid in job_pids]
    wall = sum(learn.wall_s for learn in learns) / n
    figures = {
        "trace.read_s": per_learn("trace.read"),
        "trace.events": sum(s.attrs.get("events", 0) for s in spans
                            if s.name == "trace.read") / n,
        "trace.ingest_s": per_learn("trace.ingest"),
        "trace.store_open_s": per_learn("trace.store_open"),
        "pipeline.ingest_s": stage("ingest"),
        "pipeline.learn_s": stage("learn"),
        "pipeline.report_s": stage("report"),
        "core.feed_s": sum(feeds) / n,
        "core.feed_ms_p50": statistics.median(feeds) * 1e3 if feeds else 0.0,
        "core.feed_ms_p90": percentile(feeds, 0.9) * 1e3 if feeds else 0.0,
        "core.phase.stats_s": hot("stats_seconds"),
        "core.phase.refresh_s": hot("refresh_seconds"),
        "core.phase.process_s": hot("process_seconds"),
        "core.phase.post_s": hot("post_seconds"),
        "core.candidates_s": per_learn("core.candidates"),
        "core.candidates_calls": tracing.count(spans, "core.candidates") / n,
        "core.candidate_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "core.batch_ops_s": per_learn("core.batch_ops"),
        "core.messages": sum(p["learn"]["messages"] for p in profiles) / n,
        "core.peak_hypotheses": sum(p["learn"]["peak_hypotheses"]
                                    for p in profiles) / n,
        "core.merges": sum(p["learn"]["merge_count"] or 0 for p in profiles) / n,
        "core.batch_children": hot("batch_children"),
        "core.scratch_recomputes": hot("weight_scratch_calls"),
        "core.exact_survivors": (sum(s.attrs.get("hypotheses", 0) for s in lubs)
                                 / max(1, len(lubs))) if exact else 0.0,
        "core.exact_peak_hypotheses": (sum(p["learn"]["peak_hypotheses"]
                                           for p in profiles) / n) if exact else 0.0,
        "core.lub_s": per_learn("core.lub"),
        "core.shard_learn_s": shard_learn_s,
        "core.shard_skew": statistics.median(skews) if skews else 0.0,
        "core.merge_s": per_learn("core.merge"),
        "core.shard_retries": hot("shard_retries"),
        "core.shard_requeues": hot("pool_requeues"),
        "distributed.encode_s": per_learn("distributed.encode"),
        "distributed.decode_s": per_learn("distributed.decode"),
        "distributed.frames": (tracing.count(spans, "distributed.encode")
                               + tracing.count(spans, "distributed.decode")) / n,
        "distributed.bytes_sent": hot("wire_bytes_sent"),
        "distributed.bytes_received": hot("wire_bytes_received"),
        "distributed.dispatch_s": (per_learn("distributed.dispatch")
                                   - shard_learn_s) if merges and spec.tcp else 0.0,
        "distributed.requeues": (hot("wire_tasks_sent")
                                 - len(shard_times) / n) if spec.tcp else 0.0,
        "distributed.steals": hot("tasks_stolen"),
        "distributed.handshake_s": per_learn("distributed.handshake"),
        "analysis.dumps_model_s": per_learn("analysis.dumps_model"),
        "residual_s": wall - tracing.covered(job_spans) / n,
    }
    print(f"{spec.name}: traced {n} learns; per learn, wall {wall:.3f} s")
    tracing.report_layers(job_spans, wall, figures["residual_s"], n)
    return figures


__all__ = ["SPECS", "run"]
