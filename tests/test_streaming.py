"""Unit tests for streamed trace ingestion."""

import gc
import io
import os

import pytest

from repro.core.learner import learn_dependencies
from repro.errors import EmptyHypothesisSpaceError, TraceParseError
from repro.trace.streaming import iter_periods, read_header, stream_learn
from repro.trace.synthetic import paper_figure2_trace
from repro.trace.textio import dumps_trace


def log_stream():
    return io.StringIO(dumps_trace(paper_figure2_trace()))


class TestHeader:
    def test_reads_tasks(self):
        header = read_header(log_stream())
        assert header.tasks == ("t1", "t2", "t3", "t4")

    def test_comments_skipped(self):
        stream = io.StringIO("# hello\n\ntasks a b\n")
        assert read_header(stream).tasks == ("a", "b")

    def test_missing_header(self):
        with pytest.raises(TraceParseError, match="tasks header"):
            read_header(io.StringIO("period 0\n"))

    def test_empty_stream(self):
        with pytest.raises(TraceParseError, match="ended"):
            read_header(io.StringIO(""))


class TestIteration:
    def test_periods_match_batch_loader(self):
        stream = log_stream()
        header = read_header(stream)
        streamed = list(iter_periods(stream, header))
        batch = paper_figure2_trace()
        assert len(streamed) == len(batch)
        for left, right in zip(streamed, batch.periods):
            assert left.events == right.events

    def test_lazy_yield(self):
        stream = log_stream()
        header = read_header(stream)
        iterator = iter_periods(stream, header)
        first = next(iterator)
        assert first.executed("t1")
        # The rest of the stream is not consumed yet.
        assert stream.tell() < len(log_stream().getvalue())

    def test_event_before_period_rejected(self):
        stream = io.StringIO("tasks a\n0.0 task_start a\n")
        header = read_header(stream)
        with pytest.raises(TraceParseError, match="before first period"):
            list(iter_periods(stream, header))

    def test_malformed_event_rejected(self):
        stream = io.StringIO("tasks a\nperiod 0\nbroken line here oops\n")
        header = read_header(stream)
        with pytest.raises(TraceParseError):
            list(iter_periods(stream, header))


class TestLineNumbers:
    def test_body_error_counts_header_lines(self):
        # Header consumes three lines (comment, blank, tasks); the broken
        # line is the fifth line of the stream and must be reported as
        # such, not as line 2 of the body.
        stream = io.StringIO("# comment\n\ntasks a b\nperiod 0\nbroken\n")
        header = read_header(stream)
        assert header.line_offset == 3
        with pytest.raises(TraceParseError) as excinfo:
            list(iter_periods(stream, header))
        assert excinfo.value.line_number == 5

    def test_first_body_line_follows_header(self):
        stream = io.StringIO("tasks a\nnonsense\n")
        header = read_header(stream)
        with pytest.raises(TraceParseError) as excinfo:
            list(iter_periods(stream, header))
        assert excinfo.value.line_number == 2


class TestSubjectValidation:
    def test_unknown_task_subject_rejected(self):
        stream = io.StringIO(
            "tasks a b\nperiod 0\n0.0 task_start a\n0.5 task_start ghost\n"
        )
        header = read_header(stream)
        with pytest.raises(TraceParseError, match="ghost") as excinfo:
            list(iter_periods(stream, header))
        assert excinfo.value.line_number == 4

    def test_error_names_the_header_tasks(self):
        stream = io.StringIO("tasks a b\nperiod 0\n1.0 task_end c\n")
        header = read_header(stream)
        with pytest.raises(TraceParseError, match="a, b"):
            list(iter_periods(stream, header))

    def test_message_labels_are_not_validated(self):
        # Message subjects are free-form labels, not task names.
        stream = io.StringIO(
            "tasks a\nperiod 0\n0.0 task_start a\n"
            "0.5 msg_rise anything_goes\n0.6 msg_fall anything_goes\n"
            "1.0 task_end a\n"
        )
        header = read_header(stream)
        periods = list(iter_periods(stream, header))
        assert len(periods) == 1
        assert periods[0].executed("a")


class TestStreamLearn:
    def test_matches_batch_learning(self):
        streamed = stream_learn(log_stream())
        batch = learn_dependencies(paper_figure2_trace())
        assert set(streamed.functions) == set(batch.functions)

    def test_bounded_mode(self):
        streamed = stream_learn(log_stream(), bound=1)
        batch = learn_dependencies(paper_figure2_trace(), bound=1)
        assert streamed.unique == batch.unique

    def test_large_stream_constant_period_memory(self):
        # Generate a 200-period log and learn without materializing it.
        from repro.trace.synthetic import serial_chain_trace

        text = dumps_trace(serial_chain_trace(4, 200))
        result = stream_learn(io.StringIO(text), bound=4)
        assert result.periods == 200


class TestStreamLearnFormats:
    """stream_learn goes through the trace-format registry."""

    def test_csv_format_batch_fallback(self):
        from repro.trace import csvio

        trace = paper_figure2_trace()
        buffer = io.StringIO()
        csvio.dump_csv(trace, buffer)
        buffer.seek(0)
        streamed = stream_learn(buffer, bound=4, format="csv")
        batch = learn_dependencies(trace, bound=4)
        assert streamed.lub() == batch.lub()

    def test_json_format_batch_fallback(self):
        from repro.trace import jsonio

        trace = paper_figure2_trace()
        buffer = io.StringIO()
        jsonio.dump_json(trace, buffer)
        buffer.seek(0)
        streamed = stream_learn(buffer, bound=4, format="json")
        batch = learn_dependencies(trace, bound=4)
        assert streamed.lub() == batch.lub()

    def test_unknown_format_rejected(self):
        from repro.trace.formats import UnknownFormatError

        with pytest.raises(UnknownFormatError):
            stream_learn(log_stream(), format="yaml")

    def test_text_format_is_the_default(self):
        explicit = stream_learn(log_stream(), bound=4, format="text")
        default = stream_learn(log_stream(), bound=4)
        assert explicit.lub() == default.lub()

    def test_path_source_infers_format_from_extension(self, tmp_path):
        from repro.trace.formats import get_format

        path = str(tmp_path / "t.log")
        get_format("text").write(paper_figure2_trace(), path)
        from_path = stream_learn(path, bound=4)
        from_stream = stream_learn(log_stream(), bound=4)
        assert from_path.lub() == from_stream.lub()


class TestStreamLearnKernel:
    """stream_learn runs the bounded learner of the mask kernel."""

    def test_kernels_agree(self):
        """The streamed mask-kernel learn equals the string-kernel
        reference on the same periods."""
        from repro.core.reference import learn_bounded_reference

        streamed = stream_learn(log_stream(), bound=4)
        reference = learn_bounded_reference(paper_figure2_trace(), 4)
        assert streamed.hypotheses == reference.hypotheses
        assert streamed.merge_count == reference.merge_count


class TestStreamLearnHandleRelease:
    """Regression: a feed that raises mid-stream must close the period
    generator (and with it the file handle a path source opened) rather
    than leak it until garbage collection."""

    pytestmark = pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"),
        reason="needs /proc to observe open file descriptors",
    )

    @staticmethod
    def _fds_for(path):
        real = os.path.realpath(path)
        owners = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                if os.readlink(f"/proc/self/fd/{fd}") == real:
                    owners.append(fd)
            except OSError:
                continue
        return owners

    @staticmethod
    def _poisoned_log(tmp_path):
        """One learnable period, then one that empties the hypothesis
        space (a message rise with no coinciding task end)."""
        good = dumps_trace(paper_figure2_trace())
        path = tmp_path / "poisoned.log"
        path.write_text(
            good + "period 99\n50.0 msg_rise m_bad\n50.5 msg_fall m_bad\n"
        )
        return str(path)

    def test_error_mid_stream_releases_path_source(self, tmp_path):
        path = self._poisoned_log(tmp_path)
        gc.disable()  # the fix must not rely on collection
        try:
            # Holding the ExceptionInfo keeps the traceback — and with
            # it stream_learn's frame and the suspended generator —
            # alive, so without the explicit close the descriptor would
            # still be open here (refcounting cannot save it either).
            with pytest.raises(EmptyHypothesisSpaceError) as excinfo:
                stream_learn(path, bound=4)
            assert self._fds_for(path) == []
            del excinfo
        finally:
            gc.enable()

    def test_clean_run_releases_path_source(self, tmp_path):
        good = tmp_path / "good.log"
        good.write_text(dumps_trace(paper_figure2_trace()))
        gc.disable()
        try:
            result = stream_learn(str(good), bound=4)
            assert self._fds_for(str(good)) == []
        finally:
            gc.enable()
        assert result.lub() == stream_learn(log_stream(), bound=4).lub()
