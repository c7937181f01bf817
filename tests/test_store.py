"""Tests for the mmap-backed trace store (repro.trace.store) and the
ingestion pipeline (repro.pipeline.ingest).

The load-bearing claims: the store round-trips traces exactly; shard
ranges pickle as O(1) ``(path, range)`` handles, not O(events) event
lists; a store-backed learn produces a model byte-identical to the
in-memory object path (including under ``--workers``); and a learn over
a store far larger than the learner's working set keeps RSS bounded.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.report import dumps_model
from repro.core.learner import learn_dependencies
from repro.errors import ReproError, TraceError
from repro.pipeline.ingest import ingest_to_store, store_info
from repro.trace.canlog import CanLogConfig, events_to_canlog
from repro.trace.columnar import LazyPeriods
from repro.trace.events import task_end, task_start
from repro.trace.formats import get_format
from repro.trace.period import Period
from repro.trace.store import (
    StorePeriodRange,
    StoreTrace,
    TraceStore,
    TraceStoreWriter,
    open_store,
    read_store,
    write_store,
)
from repro.trace.streaming import stream_learn
from repro.trace.synthetic import paper_figure2_trace

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


@pytest.fixture()
def figure2():
    return paper_figure2_trace()


@pytest.fixture()
def figure2_store(figure2, tmp_path):
    path = str(tmp_path / "figure2.rts")
    write_store(figure2, path)
    return open_store(path)


class TestRoundTrip:
    def test_events_identical(self, figure2, figure2_store):
        rebuilt = figure2_store.trace()
        assert isinstance(rebuilt, StoreTrace)
        assert rebuilt.tasks == figure2.tasks
        assert len(rebuilt) == len(figure2)
        for original, copy in zip(figure2.periods, rebuilt.periods):
            assert copy.index == original.index
            assert tuple(copy.events) == tuple(original.events)

    def test_header_facts(self, figure2, figure2_store):
        assert figure2_store.period_count == len(figure2)
        assert figure2_store.event_count == figure2.event_count()
        assert figure2_store.message_count == figure2.message_count()
        assert frozenset(figure2_store.observed_tasks) == (
            figure2.observed_tasks()
        )
        assert figure2_store.trace().observed_tasks() == (
            figure2.observed_tasks()
        )

    def test_read_store_is_format_reader(self, figure2, tmp_path):
        path = str(tmp_path / "t.rts")
        get_format("store").write(figure2, path)
        rebuilt = get_format("store").read(path)
        assert tuple(rebuilt.periods[0].events) == tuple(
            figure2.periods[0].events
        )
        assert read_store(path).tasks == figure2.tasks

    def test_empty_period_round_trips(self, tmp_path):
        periods = (
            Period([task_start(0.0, "a"), task_end(1.0, "a")], index=0),
            Period((), index=1),
            Period([task_start(20.0, "a"), task_end(21.0, "a")], index=2),
        )
        path = str(tmp_path / "gaps.rts")
        with TraceStoreWriter(path, ("a",)) as writer:
            for period in periods:
                writer.add_period(period)
        store = open_store(path)
        assert [len(p.events) for p in store.periods()] == [2, 0, 2]

    def test_unknown_task_rejected_at_write(self, tmp_path):
        writer = TraceStoreWriter(str(tmp_path / "bad.rts"), ("a",))
        with pytest.raises(TraceError):
            writer.add_period([task_start(0.0, "ghost")])
        writer.abort()

    def test_abort_leaves_no_file(self, tmp_path):
        path = str(tmp_path / "gone.rts")
        writer = TraceStoreWriter(path, ("a",))
        writer.add_period([task_start(0.0, "a"), task_end(1.0, "a")])
        writer.abort()
        assert not os.path.exists(path)
        assert os.listdir(tmp_path) == []


    def test_finalize_fsyncs_file_then_directory(self, tmp_path, monkeypatch):
        """The store's bytes reach the disk before the rename, and the
        rename reaches the disk before finalize returns."""
        import stat

        path = str(tmp_path / "durable.rts")
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            info = os.fstat(fd)
            synced.append((stat.S_ISDIR(info.st_mode), info.st_ino,
                           os.path.exists(path)))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        writer = TraceStoreWriter(path, ("a",))
        writer.add_period([task_start(0.0, "a"), task_end(1.0, "a")])
        writer.finalize()
        monkeypatch.undo()
        assert synced == [
            (False, os.stat(path).st_ino, False),  # the file, before replace
            (True, os.stat(tmp_path).st_ino, True),  # its directory, after
        ]

class TestPeriodRanges:
    def test_range_is_lazy(self, figure2_store):
        assert isinstance(figure2_store.periods(), LazyPeriods)
        assert isinstance(figure2_store.periods()[0:2], StorePeriodRange)

    def test_pickle_is_constant_size_handle(self, figure2_store):
        whole = figure2_store.periods()
        head = whole[: len(whole) // 2]
        payload_whole = pickle.dumps(whole)
        payload_head = pickle.dumps(head)
        eager = pickle.dumps(tuple(whole))
        # O(1) handle: (path, start, stop), not the event payload.
        assert len(payload_whole) < len(eager) / 2
        assert len(payload_whole) == pytest.approx(len(payload_head), abs=8)
        assert figure2_store.path.encode() in payload_whole

    def test_unpickled_range_yields_same_periods(self, figure2_store):
        window = figure2_store.periods(1, 3)
        clone = pickle.loads(pickle.dumps(window))
        assert [p.index for p in clone] == [p.index for p in window]
        for mine, theirs in zip(window, clone):
            assert tuple(mine.events) == tuple(theirs.events)

    def test_out_of_bounds_range_rejected(self, figure2_store):
        with pytest.raises(TraceError):
            figure2_store.periods(0, figure2_store.period_count + 1)


class TestOpenStoreCache:
    def test_same_path_same_object(self, figure2_store):
        assert open_store(figure2_store.path) is figure2_store

    def test_rewritten_file_reopened(self, figure2, tmp_path):
        path = str(tmp_path / "twice.rts")
        write_store(figure2, path)
        first = open_store(path)
        write_store(figure2.subtrace(2), path)
        second = open_store(path)
        assert second is not first
        assert second.period_count == 2


class TestLearningIdentity:
    def test_store_model_matches_object_path(self, figure2, figure2_store):
        reference = dumps_model(learn_dependencies(figure2, bound=16).lub())
        from_store = dumps_model(
            learn_dependencies(figure2_store.trace(), bound=16).lub()
        )
        assert from_store == reference

    def test_stream_learn_uses_batch_kernel_from_store(self, figure2_store):
        """Streaming from a store feeds the interned-mask learner every
        stored period."""
        result = stream_learn(figure2_store.path, bound=16)
        assert result.periods == figure2_store.period_count


class TestIngest:
    def test_text_log_round_trip(self, figure2, tmp_path):
        log = str(tmp_path / "t.log")
        get_format("text").write(figure2, log)
        summary = ingest_to_store(log, str(tmp_path / "t.rts"))
        assert summary.format == "text"
        assert summary.periods == len(figure2)
        assert summary.messages == figure2.message_count()
        rebuilt = open_store(summary.path).trace()
        for original, copy in zip(figure2.periods, rebuilt.periods):
            assert tuple(copy.events) == tuple(original.events)

    def test_candump_requires_period_length(self, tmp_path):
        log = tmp_path / "cap.candump"
        log.write_text("")
        with pytest.raises(ReproError, match="period-length"):
            ingest_to_store(str(log), str(tmp_path / "cap.rts"))

    def test_reingesting_store_rejected(self, figure2_store, tmp_path):
        with pytest.raises(ReproError, match="already a trace store"):
            ingest_to_store(figure2_store.path, str(tmp_path / "copy.rts"))

    def test_candump_ingest_matches_object_path(self, tmp_path):
        from repro.sim.simulator import Simulator, SimulatorConfig
        from repro.systems.examples import simple_four_task_design
        from repro.trace.canlog import canlog_to_events
        from repro.trace.trace import Trace

        trace = Simulator(
            simple_four_task_design(),
            SimulatorConfig(period_length=100.0),
            seed=5,
        ).run(8).trace
        events = [e for p in trace.periods for e in p.events]
        config = CanLogConfig(
            task_names={i + 1: t for i, t in enumerate(trace.tasks)}
        )
        log = tmp_path / "cap.candump"
        log.write_text("\n".join(events_to_canlog(events, config)) + "\n")

        summary = ingest_to_store(
            str(log),
            str(tmp_path / "cap.rts"),
            period_length=100.0,
            can_config=config,
        )
        assert summary.format == "canlog"

        with log.open() as stream:
            parsed = canlog_to_events(stream, config)
        reference = Trace.from_events(trace.tasks, parsed, 100.0)
        ref_model = dumps_model(learn_dependencies(reference, bound=16).lub())
        got_model = dumps_model(
            learn_dependencies(open_store(summary.path).trace(), bound=16)
            .lub()
        )
        assert got_model == ref_model

    def test_store_info_facts(self, figure2, figure2_store):
        info = store_info(figure2_store.path)
        assert info["periods"] == len(figure2)
        assert info["messages"] == figure2.message_count()
        assert set(info["columns"]) == {
            "times", "kinds", "subjects", "offsets",
        }


class TestCli:
    def run(self, *argv):
        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_ingest_and_store_info(self, figure2, tmp_path):
        log = str(tmp_path / "t.log")
        rts = str(tmp_path / "t.rts")
        get_format("text").write(figure2, log)
        code, output = self.run("ingest", log, "-o", rts)
        assert code == 0
        assert "ingested" in output
        code, output = self.run("store-info", rts)
        assert code == 0
        assert f"periods: {len(figure2)}" in output
        code, output = self.run("store-info", rts, "--json")
        assert code == 0
        assert json.loads(output)["periods"] == len(figure2)

    def test_learn_from_store_matches_log(self, figure2, tmp_path):
        log = str(tmp_path / "t.log")
        rts = str(tmp_path / "t.rts")
        get_format("text").write(figure2, log)
        assert self.run("ingest", log, "-o", rts)[0] == 0
        m1 = str(tmp_path / "m1.json")
        m2 = str(tmp_path / "m2.json")
        assert self.run(
            "learn", log, "--bound", "16", "--quiet", "--model-json", m1
        )[0] == 0
        assert self.run(
            "learn", rts, "--bound", "16", "--quiet", "--model-json", m2
        )[0] == 0
        with open(m1, "rb") as a, open(m2, "rb") as b:
            assert a.read() == b.read()

    def test_bad_can_task_mapping_rejected(self, tmp_path):
        log = tmp_path / "cap.candump"
        log.write_text("")
        code, output = self.run(
            "ingest", str(log), "-o", str(tmp_path / "cap.rts"),
            "--period-length", "100", "--can-task", "nonsense",
        )
        assert code == 2
        assert "BYTE=NAME" in output


#: Periods in the bounded-RSS fixture; raise via REPRO_BIG_STORE_PERIODS
#: for the multi-gigabyte acceptance run (e.g. 1_000_000).
_BIG_PERIODS = int(os.environ.get("REPRO_BIG_STORE_PERIODS", "4000"))

_WRITER_SCRIPT = """
import sys
from repro.trace.events import msg_fall, msg_rise, task_end, task_start
from repro.trace.store import TraceStoreWriter

path, periods = sys.argv[1], int(sys.argv[2])
tasks = ("t1", "t2")
with TraceStoreWriter(path, tasks) as writer:
    for index in range(periods):
        base = 100.0 * index
        label = "m%d" % index
        writer.add_period([
            task_start(base + 1.0, "t1"),
            task_end(base + 2.0, "t1"),
            msg_rise(base + 2.1, label),
            msg_fall(base + 2.5, label),
            task_start(base + 3.0, "t2"),
            task_end(base + 4.0, "t2"),
        ])
"""

_LEARN_SCRIPT = """
import resource, sys
from repro.cli import main

code = main(
    ["learn", sys.argv[1], "--bound", "8", "--workers", "2", "--quiet"]
)
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print("PEAK_KB", peak_kb)
sys.exit(code)
"""


class TestBoundedMemoryLearn:
    def _run(self, code, *argv):
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.run(
            [sys.executable, "-c", textwrap.dedent(code), *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )

    def test_learn_rss_stays_bounded(self, tmp_path):
        path = str(tmp_path / "big.rts")
        written = self._run(_WRITER_SCRIPT, path, str(_BIG_PERIODS))
        assert written.returncode == 0, written.stderr
        store_mb = os.path.getsize(path) / 1e6

        learned = self._run(_LEARN_SCRIPT, path)
        assert learned.returncode == 0, learned.stderr
        peak_line = [
            line
            for line in learned.stdout.splitlines()
            if line.startswith("PEAK_KB")
        ]
        peak_mb = int(peak_line[0].split()[1]) / 1e3
        # The interpreter + numpy floor is ~60-90 MB; the cap proves the
        # learn never materializes the store's event payload (store_mb
        # scales with REPRO_BIG_STORE_PERIODS, the cap's slack does not).
        assert peak_mb < 220 + 0.1 * store_mb, (
            f"peak RSS {peak_mb:.0f} MB for a {store_mb:.0f} MB store"
        )
