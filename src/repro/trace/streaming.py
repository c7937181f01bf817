"""Streamed trace ingestion: learn from logs too large to hold in memory.

Field traces can span hours (millions of events). The batch loaders in
:mod:`repro.trace.textio` build the whole :class:`~repro.trace.trace.Trace`
first; this module yields one :class:`~repro.trace.period.Period` at a
time from the textual log format, so an incremental learner can consume
arbitrarily long logs with per-period memory::

    learner = make_learner(tasks, bound=32)
    with open("huge.log") as stream:
        header = read_header(stream)
        for period in iter_periods(stream, header):
            learner.feed(period)
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, TextIO

from repro.errors import TraceParseError
from repro.trace.events import Event, EventKind
from repro.trace.period import Period

_KINDS = {kind.value: kind for kind in EventKind}

#: Hot-path lookup for :func:`iter_periods`: one dict probe resolves
#: both the kind and whether its subject must be a known task.
_KIND_INFO = {
    kind.value: (kind, kind.is_task_event) for kind in EventKind
}


@dataclass(frozen=True)
class StreamHeader:
    """The log's leading metadata: the task universe, plus how many lines
    of the stream the header consumed so body diagnostics can report real
    file positions."""

    tasks: tuple[str, ...]
    line_offset: int = 0


def read_header(stream: TextIO) -> StreamHeader:
    """Consume lines up to and including the ``tasks`` header."""
    for line_number, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] != "tasks":
            raise TraceParseError(
                f"expected tasks header, got {line!r}", line_number
            )
        if len(fields) < 2:
            raise TraceParseError("tasks header names no tasks", line_number)
        return StreamHeader(tasks=tuple(fields[1:]), line_offset=line_number)
    raise TraceParseError("stream ended before a tasks header")


def iter_periods(stream: TextIO, header: StreamHeader) -> Iterator[Period]:
    """Yield periods lazily from the body of a textual trace log.

    The stream must be positioned just after the header (see
    :func:`read_header`); line numbers in diagnostics continue from the
    header's ``line_offset``, so they point at the real file line. Periods
    are yielded as soon as their closing boundary (the next ``period``
    line or end of stream) is reached, so memory usage is bounded by the
    largest single period.

    Task events naming a task absent from the header's task universe are
    rejected here, with the offending line, rather than surfacing later as
    a bare ``ValueError`` deep inside the learner's statistics update.
    """
    # This loop runs once per line of a log that may span hours of
    # trace, so it is written for the common case: split the raw line
    # exactly once (``str.split`` with no argument already discards the
    # surrounding whitespace a separate ``strip`` would) and resolve
    # the event kind and its task-universe obligation with one dict
    # probe through the hoisted lookup.
    known_tasks = frozenset(header.tasks)
    kind_info = _KIND_INFO
    current: list[Event] | None = None
    index = 0
    for line_number, raw in enumerate(stream, start=header.line_offset + 1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        if fields[0] == "period":
            if current is not None:
                yield Period(current, index=index)
                index += 1
            current = []
            continue
        if current is None:
            raise TraceParseError(
                "event before first period header", line_number
            )
        if len(fields) != 3:
            raise TraceParseError(
                f"expected '<time> <kind> <subject>', got {raw.strip()!r}",
                line_number,
            )
        time_text, kind_text, subject = fields
        info = kind_info.get(kind_text)
        if info is None:
            raise TraceParseError(
                f"unknown event kind: {kind_text!r}", line_number
            )
        kind, needs_known_task = info
        if needs_known_task and subject not in known_tasks:
            raise TraceParseError(
                f"unknown task {subject!r}: not in the tasks header "
                f"({', '.join(header.tasks)})",
                line_number,
            )
        try:
            time = float(time_text)
        except ValueError:
            raise TraceParseError(
                f"event time is not a number: {time_text!r}", line_number
            ) from None
        current.append(Event(time, kind, subject))
    if current is not None:
        yield Period(current, index=index)


def stream_learn(
    source: TextIO | str,
    bound: int | None = None,
    tolerance: float = 0.0,
    format: str | None = None,
):
    """One-call streamed learning from a trace stream or file path.

    *source* is either an open text stream or a file path; binary
    formats (the mmap-backed ``store``) require a path. *format* names
    any entry of the :mod:`repro.trace.formats` registry; ``None`` (the
    default) infers the format from a path source's extension and means
    ``"text"`` for stream sources. The textual
    log and the store stream period-by-period (memory bounded by the
    largest single period); formats without a streamer — CSV and JSON
    must be parsed whole — fall back to a batch load and then feed
    incrementally, so the learner-side behavior is identical either way.

    A feed that raises mid-stream leaves the learner untouched (the
    all-or-nothing ``feed`` contract) *and* closes the suspended period
    generator, releasing the file handle a path source opened — without
    that, an ingest error would leak the handle until garbage
    collection.

    Returns the finished :class:`~repro.core.result.LearningResult`.
    """
    from repro.core.learner import make_learner
    from repro.trace.formats import get_format, resolve_format

    if isinstance(source, (str, os.PathLike)):
        fmt = resolve_format(format, os.fspath(source))
        tasks, periods = fmt.open_periods(os.fspath(source))
    else:
        tasks, periods = get_format(
            format if format is not None else "text"
        ).stream_periods(source)
    learner = make_learner(tasks, bound=bound, tolerance=tolerance)
    try:
        for period in periods:
            learner.feed(period)
    finally:
        closer = getattr(periods, "close", None)
        if closer is not None:
            closer()
    return learner.result()
