"""Spans around the program's public functions, kept in memory.

A :class:`Tracer` replaces a fixed list of public functions and methods
of ``repro`` with wrappers that record one span per call: an id, the id
of the enclosing span on the same thread, a name ``<layer>.<what>``, a
start and an end on the shared monotonic clock, whether it ran on the
main thread, and a few attributes.
Spans stay in a list until :meth:`Tracer.write` puts them, with the run
id shared by every process of the run, into one JSON file per process.
:func:`load` reads those files back and :func:`self_times` charges each
span's duration minus its children's to the span's layer, for the main
thread or for the others, so that time on concurrent threads is never
counted twice.

The wrappers are installed in the benchmark process and, through
``boot.py``, in every process it spawns; the program itself is not
changed. End-to-end metrics are measured with no tracer installed.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pickle
import sys
import threading
from collections import defaultdict

from common import now

#: Spans that are waits measured across threads, not work on a stack;
#: they are reported on their own and never charged to a layer.
WAIT_SPANS = frozenset({"distributed.dispatch"})


def _frame_attrs(payload, size: int) -> dict:
    attrs = {"bytes": size}
    if isinstance(payload, dict):
        for key in ("kind", "session", "seq"):
            value = payload.get(key)
            if isinstance(value, (str, int)):
                attrs[key] = value
    return attrs


class _TimedPickle:
    """Stands in for :mod:`pickle` inside the framing module, so every
    frame body encoded or decoded there is one span."""

    def __init__(self, tracer: "Tracer") -> None:
        self.dumps = tracer.wrap(
            "distributed.encode", pickle.dumps,
            attrs=lambda args, data: _frame_attrs(args[0], len(data)),
        )
        self.loads = tracer.wrap(
            "distributed.decode", pickle.loads,
            attrs=lambda args, obj: _frame_attrs(obj, len(args[0])),
        )

    def __getattr__(self, name):
        return getattr(pickle, name)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.main_thread = threading.main_thread().ident
        #: Cleared to stop recording (the wrappers stay in place).
        self.active = True
        self.counters: dict = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: ``id(learner) -> session id``, so daemon-side feed spans can
        #: be charged to the session op that caused them.
        self.learner_sessions: dict[int, str] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float,
               parent: int | None = None, attrs: dict | None = None) -> int:
        sid = next(self._ids)
        main = threading.get_ident() == self.main_thread
        self.spans.append((sid, parent, name, start, end, main, attrs))
        return sid

    def wrap(self, name, fn, *, attrs=None):
        """A traced stand-in for *fn*.

        *name* may be a callable ``(args, result) -> str | None``; a
        ``None`` name drops the span. *attrs* is called the same way,
        after the span's end was taken.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            main = threading.get_ident() == tracer.main_thread
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = now()
                stack.pop()
                label = name(args, result) if callable(name) else name
                if label is not None:
                    extra = attrs(args, result) if attrs is not None else None
                    tracer.spans.append((sid, parent, label, start, end, main,
                                         extra))

        return traced

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr: str, name, **options) -> None:
        """Wrap ``owner.attr`` and every ``from ... import`` copy of it
        held by an already-imported ``repro`` module."""
        original = getattr(owner, attr)
        traced = self.wrap(name, original, **options)
        setattr(owner, attr, traced)
        if isinstance(owner, type):
            return
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                if module.__dict__.get(attr) is original:
                    setattr(module, attr, traced)

    def install(self) -> None:
        """Wrap the public functions each layer's metrics are read from."""
        import repro.analysis.report as report
        import repro.core.batch as batch
        import repro.core.exact  # noqa: F401 - binds candidate_pairs
        import repro.core.candidates as candidates
        import repro.core.learner as learner
        import repro.core.sharded as sharded
        import repro.distributed.coordinator as coordinator
        import repro.distributed.framing as framing
        import repro.pipeline.engine as engine
        import repro.pipeline.ingest as ingest
        import repro.service.eviction as eviction
        import repro.service.server  # noqa: F401 - binds dumps_model
        import repro.service.session as session
        import repro.trace.store as store
        from repro.core.base import IncrementalLearner
        from repro.core.result import LearningResult
        from repro.trace.formats import TraceFormat

        self.patch(TraceFormat, "read", "trace.read",
                   attrs=lambda args, trace: {"events": _event_count(trace)})
        self.patch(ingest, "ingest_to_store", "trace.ingest")
        self.patch(store, "open_store", "trace.store_open")
        self.patch(store.TraceStore, "trace", "trace.store_open")
        self.patch(engine.LearnPipeline, "run", "pipeline.run")
        self.patch(learner, "learn_dependencies", "core.learn")
        self.patch(IncrementalLearner, "feed", "core.feed",
                   attrs=lambda args, _: {
                       "session": self.learner_sessions.get(id(args[0]))})
        self.patch(candidates, "candidate_pairs", "core.candidates")
        for name in ("batch_set_weights", "batch_union_deltas",
                     "batch_extension_tables", "batch_remove_redundant_masks"):
            self.patch(batch, name, "core.batch_ops")
        self.patch(LearningResult, "lub", "core.lub",
                   attrs=lambda args, _: {"hypotheses": len(args[0].hypotheses)})
        self.patch(sharded, "merge_outcomes", "core.merge",
                   attrs=lambda args, _: {
                       "shards": [o.elapsed_seconds for o in args[1]]})
        self.patch(coordinator.TcpShardExecutor, "wait_for_workers",
                   "distributed.handshake")
        self._patch_submit(coordinator.TcpShardExecutor)
        framing.pickle = _TimedPickle(self)
        self.patch(report, "dumps_model", "analysis.dumps_model")
        self.patch(eviction.SessionManager, "evict", "service.spool_write",
                   attrs=lambda args, _: {"session": args[1].session_id})
        self.patch(eviction.SessionManager, "lookup",
                   lambda args, found: (
                       "service.spool_read"
                       if found is not None and found[1] == "resumed" else None),
                   attrs=lambda args, _: {"session": args[1]})
        self._patch_admit(session.Session)

    def _patch_submit(self, cls) -> None:
        """Shard submit to result, as a wait span closed by the future."""
        original = cls.submit
        tracer = self

        @functools.wraps(original)
        def submit(executor, fn, /, *args, **kwargs):
            start = now()
            future = original(executor, fn, *args, **kwargs)
            future.add_done_callback(
                lambda _: tracer.record("distributed.dispatch", start, now()))
            return future

        cls.submit = submit

    def _patch_admit(self, cls) -> None:
        original = cls.admit
        sessions = self.learner_sessions

        @functools.wraps(original)
        def admit(session, seq):
            sessions[id(session.learner)] = session.session_id
            return original(session, seq)

        cls.admit = admit

    # -- output ------------------------------------------------------------

    def collect_counters(self) -> None:
        from repro.core.candidates import candidate_cache_info

        self.counters["candidate_cache"] = candidate_cache_info()

    def write(self, path: str, role: str, pid: int | None = None) -> None:
        """Write the spans to *path*, filed under *pid* (this process's
        own by default)."""
        data = {
            "run_id": self.run_id,
            "pid": pid or self.pid,
            "role": role,
            "counters": self.counters,
            "spans": self.spans,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as stream:
            json.dump(data, stream)
        os.replace(tmp, path)


def _event_count(trace) -> int:
    count = getattr(trace, "event_count", None)
    if isinstance(count, int):
        return count
    return sum(len(period.events) for period in trace.periods)


# ----------------------------------------------------------------------
# Reading spans back
# ----------------------------------------------------------------------

class Span:
    __slots__ = ("pid", "sid", "parent", "name", "start", "end", "main", "attrs")

    def __init__(self, pid, row) -> None:
        self.pid = pid
        (self.sid, self.parent, self.name, self.start, self.end, self.main,
         attrs) = row
        self.attrs = attrs or {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def load(paths: list[str], run_id: str) -> tuple[list[Span], list[dict]]:
    """Spans and counter blocks of every file written for *run_id*."""
    spans: list[Span] = []
    counters: list[dict] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as stream:
            data = json.load(stream)
        if data["run_id"] != run_id:
            continue
        spans.extend(Span(data["pid"], row) for row in data["spans"])
        counters.append(data["counters"])
    return spans, counters


def self_times(spans: list[Span], *, main: bool = True) -> dict[str, float]:
    """Seconds per layer: each span's duration minus its children's,
    over the spans of main threads (or, with ``main=False``, of the
    other threads). A span's children are on its own thread."""
    spans = [s for s in spans if s.main == main and s.name not in WAIT_SPANS]
    child_time: dict[tuple[int, int], float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[(span.pid, span.parent)] += span.seconds
    layers: dict[str, float] = defaultdict(float)
    for span in spans:
        layers[span.layer] += span.seconds - child_time[(span.pid, span.sid)]
    return dict(layers)


def report_layers(spans: list[Span], wall: float, residual: float,
                  runs: int = 1) -> None:
    """Print each layer's self time per run and its share of *wall*, the
    seconds of one run; main threads first, then the other threads."""
    for main, where in ((True, "main"), (False, "other")):
        for layer, seconds in sorted(self_times(spans, main=main).items()):
            seconds /= runs
            print(f"  {layer:<12} {where:<5} self {seconds:8.4f} s  "
                  f"{100 * seconds / wall:5.1f}% of wall")
    print(f"  {'residual':<18}      {residual:8.4f} s  "
          f"{100 * residual / wall:5.1f}% of wall (no span open)")


def total(spans: list[Span], name: str) -> float:
    return sum(span.seconds for span in spans if span.name == name)


def count(spans: list[Span], name: str) -> int:
    return sum(1 for span in spans if span.name == name)


def durations(spans: list[Span], name: str) -> list[float]:
    return [span.seconds for span in spans if span.name == name]


def covered(spans: list[Span]) -> float:
    """Seconds of wall clock during which at least one span was open."""
    seconds, reach = 0.0, float("-inf")
    for span in sorted(spans, key=lambda s: s.start):
        if span.end > reach:
            seconds += span.end - max(span.start, reach)
            reach = span.end
    return seconds
