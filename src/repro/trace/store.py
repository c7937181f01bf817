"""The on-disk columnar trace store (``.rts``): mmap-backed, append-only.

A finalized store is one file::

    magic "RTSTORE1" | uint64-LE header length | JSON header | columns

The JSON header (sorted keys, so byte-identical across hash seeds)
carries the task universe, the interned subject table, the aggregate
counts, and the byte offset + element count of each column; the columns
are raw little-endian arrays — ``times`` float64, ``kinds`` uint8,
``subjects`` uint32, ``offsets`` uint64 — each 8-byte aligned. Readers
``mmap`` the file and cast zero-copy :class:`memoryview` windows over
the columns, so opening a multi-GB store is O(1) and learning from it
touches only the pages of the periods actually materialized.

Two halves:

* :class:`TraceStoreWriter` ingests periods in **bounded memory**: events
  are buffered in small fixed-size arrays, flushed to per-column
  temporary files, and concatenated into the final store atomically
  (``os.replace``) on :meth:`~TraceStoreWriter.finalize`. Any registered
  :class:`~repro.trace.formats.TraceFormat` or a candump log can be
  ingested this way (see :mod:`repro.pipeline.ingest`).
* :class:`TraceStore` reads a finalized store and exposes zero-copy
  period ranges (:class:`StorePeriodRange`) and a lazy
  :class:`StoreTrace`. A range pickles as ``(path, start, stop)`` — the
  receiving process reopens the store and maps its own view — so shard
  workers receive an O(1) handle instead of O(events) of pickled
  periods.

Boundary invariant (lint rule RL006): ``mmap`` and the raw column
buffers stay inside this module and :mod:`repro.trace.columnar`;
everything else consumes :class:`~repro.trace.period.Period` objects
through the lazy sequence API.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
import tempfile
from array import array
from typing import IO, Iterable, Iterator, Sequence, TextIO

from repro.errors import ReproError, TraceError
from repro.trace.columnar import (
    CODE_BY_KIND,
    ColumnarPeriods,
    LazyTrace,
    encode_subject,
)
from repro.trace.events import Event, EventKind
from repro.trace.period import Period
from repro.trace.trace import Trace

#: Store file magic: 8 bytes, versioned by the trailing digit.
MAGIC = b"RTSTORE1"

#: Header format version inside the JSON header.
VERSION = 1

#: Column layout: (name, element size in bytes), in file order.
COLUMN_LAYOUT = (
    ("times", 8),
    ("kinds", 1),
    ("subjects", 4),
    ("offsets", 8),
)

#: Events buffered in memory before a flush to the column temp files.
FLUSH_EVENTS = 65536

_RISE_CODE = CODE_BY_KIND[EventKind.MSG_RISE]


def _align8(value: int) -> int:
    return (value + 7) & ~7


def _tobytes_le(buffer: array) -> bytes:
    """The array's raw bytes in little-endian order (the disk format)."""
    if sys.byteorder == "little":
        return buffer.tobytes()
    swapped = array(buffer.typecode, buffer)  # pragma: no cover - BE host
    swapped.byteswap()  # pragma: no cover - BE host
    return swapped.tobytes()  # pragma: no cover - BE host


def _fsync_directory(path: str) -> None:
    """Flush a directory entry change (a rename into *path*) to disk."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class TraceStoreWriter:
    """Stream periods into a ``.rts`` store in bounded memory.

    Usage::

        with TraceStoreWriter("trace.rts", tasks) as writer:
            for period in periods:          # any iterable, lazy or not
                writer.add_period(period)

    The writer buffers at most :data:`FLUSH_EVENTS` events before
    spilling to per-column temporary files next to the destination (same
    filesystem, so the final concatenation + ``os.replace`` is atomic).
    Aborting (exception or :meth:`abort`) removes the temporaries and
    never touches the destination.
    """

    def __init__(self, path: str, tasks: Iterable[str]) -> None:
        self._path = os.fspath(path)
        self._tasks = tuple(tasks)
        if len(set(self._tasks)) != len(self._tasks):
            raise TraceError("duplicate task names in trace universe")
        self._task_set = frozenset(self._tasks)
        parent = os.path.dirname(os.path.abspath(self._path)) or "."
        self._tmpdir = tempfile.mkdtemp(prefix=".rts-", dir=parent)
        self._spill: dict[str, IO[bytes]] = {
            name: open(os.path.join(self._tmpdir, name), "w+b")
            for name, _size in COLUMN_LAYOUT
        }
        self._times = array("d")
        self._kinds = array("B")
        self._subjects = array("I")
        self._offsets = array("Q", [0])
        self._table: list[str] = []
        self._index_of: dict[str, int] = {}
        self._observed: set[str] = set()
        self._periods = 0
        self._events = 0
        self._messages = 0
        self._finalized = False
        self._aborted = False

    # -- ingestion -------------------------------------------------------

    def add_period(self, period: Period | Iterable[Event]) -> None:
        """Append one period (a :class:`Period` or its raw events)."""
        self._check_open()
        events = (
            period.events
            if isinstance(period, Period)
            else tuple(sorted(period))
        )
        times = self._times
        kinds = self._kinds
        subjects = self._subjects
        table = self._table
        index_of = self._index_of
        observed = self._observed
        messages = 0
        for event in events:
            times.append(event.time)
            code = CODE_BY_KIND[event.kind]
            kinds.append(code)
            subjects.append(encode_subject(event.subject, table, index_of))
            if code == _RISE_CODE:
                messages += 1
            elif event.kind is EventKind.TASK_START:
                if event.subject not in self._task_set:
                    raise TraceError(
                        f"period {self._periods} executes task "
                        f"{event.subject!r} outside the declared universe"
                    )
                observed.add(event.subject)
        self._events += len(events)
        self._messages += messages
        self._periods += 1
        self._offsets.append(self._events)
        if len(times) >= FLUSH_EVENTS:
            self._flush()

    def add_trace(self, trace: Trace) -> None:
        """Append every period of *trace* (lazily iterated)."""
        for period in trace.periods:
            self.add_period(period)

    # -- lifecycle -------------------------------------------------------

    def _check_open(self) -> None:
        if self._finalized or self._aborted:
            raise ReproError("trace store writer is closed")

    def _flush(self) -> None:
        for name, buffer in (
            ("times", self._times),
            ("kinds", self._kinds),
            ("subjects", self._subjects),
            ("offsets", self._offsets),
        ):
            if len(buffer):
                self._spill[name].write(_tobytes_le(buffer))
                del buffer[:]

    def finalize(self) -> "TraceStore":
        """Write the final store atomically; returns an open reader."""
        self._check_open()
        self._flush()
        header = {
            "format": "rts",
            "version": VERSION,
            "tasks": list(self._tasks),
            "subjects": list(self._table),
            "periods": self._periods,
            "events": self._events,
            "messages": self._messages,
            "observed_tasks": sorted(self._observed),
            "columns": self._column_map(),
        }
        payload = json.dumps(
            header, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        tmp_path = os.path.join(self._tmpdir, "store")
        with open(tmp_path, "wb") as out:
            out.write(MAGIC)
            out.write(struct.pack("<Q", len(payload)))
            out.write(payload)
            out.write(b"\0" * (_align8(len(payload)) - len(payload)))
            for name, _size in COLUMN_LAYOUT:
                spill = self._spill[name]
                spill.seek(0)
                written = 0
                while True:
                    chunk = spill.read(1 << 20)
                    if not chunk:
                        break
                    out.write(chunk)
                    written += len(chunk)
                out.write(b"\0" * (_align8(written) - written))
            # The rename must not reach the disk before the bytes do.
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp_path, self._path)
        _fsync_directory(os.path.dirname(os.path.abspath(self._path)))
        self._finalized = True
        self._cleanup()
        return open_store(self._path)

    def _column_map(self) -> dict[str, list[int]]:
        """Column name -> [byte offset relative to data start, count]."""
        counts = {
            "times": self._events,
            "kinds": self._events,
            "subjects": self._events,
            "offsets": self._periods + 1,
        }
        columns: dict[str, list[int]] = {}
        position = 0
        for name, size in COLUMN_LAYOUT:
            columns[name] = [position, counts[name]]
            position = _align8(position + size * counts[name])
        return columns

    def abort(self) -> None:
        """Discard everything written so far; the destination is untouched."""
        if not self._aborted and not self._finalized:
            self._aborted = True
            self._cleanup()

    def _cleanup(self) -> None:
        for spill in self._spill.values():
            try:
                spill.close()
            except OSError:  # pragma: no cover - close failures are benign
                pass
        for name in os.listdir(self._tmpdir):
            try:
                os.unlink(os.path.join(self._tmpdir, name))
            except OSError:  # pragma: no cover
                pass
        try:
            os.rmdir(self._tmpdir)
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "TraceStoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        elif not self._finalized:
            self.finalize()

    # -- progress facts --------------------------------------------------

    @property
    def periods(self) -> int:
        return self._periods

    @property
    def events(self) -> int:
        return self._events

    @property
    def messages(self) -> int:
        return self._messages


class TraceStore:
    """A finalized ``.rts`` store, mmap-backed and zero-copy.

    Prefer :func:`open_store` over direct construction: it caches one
    instance per path per process, so shard workers unpickling many
    :class:`StorePeriodRange` handles share a single mapping.
    """

    def __init__(self, path: str) -> None:
        self._path = os.path.abspath(os.fspath(path))
        self._file = open(self._path, "rb")
        try:
            stat = os.fstat(self._file.fileno())
            self._stamp = (stat.st_size, stat.st_mtime_ns)
            self._mmap = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
        except (OSError, ValueError):
            self._file.close()
            raise
        try:
            self._parse()
        except Exception:
            self.close()
            raise
        self._closed = False

    def _parse(self) -> None:
        view = memoryview(self._mmap)
        if len(view) < 16 or bytes(view[:8]) != MAGIC:
            raise TraceError(f"{self._path}: not a trace store (bad magic)")
        (header_len,) = struct.unpack("<Q", view[8:16])
        if 16 + header_len > len(view):
            raise TraceError(f"{self._path}: truncated store header")
        self.header: dict = json.loads(bytes(view[16:16 + header_len]))
        if self.header.get("version") != VERSION:
            raise TraceError(
                f"{self._path}: unsupported store version "
                f"{self.header.get('version')!r}"
            )
        self.tasks: tuple[str, ...] = tuple(self.header["tasks"])
        self._table: tuple[str, ...] = tuple(self.header["subjects"])
        data_start = _align8(16 + header_len)
        columns = self.header["columns"]
        typecodes = {"times": "d", "kinds": "B", "subjects": "I", "offsets": "Q"}
        views = {}
        for name, size in COLUMN_LAYOUT:
            offset, count = columns[name]
            lo = data_start + offset
            hi = lo + size * count
            if hi > len(view):
                raise TraceError(f"{self._path}: truncated column {name!r}")
            window = view[lo:hi]
            if sys.byteorder == "little":
                views[name] = window.cast(typecodes[name])
            else:  # pragma: no cover - big-endian host: copy + swap
                copied = array(typecodes[name])
                copied.frombytes(bytes(window))
                copied.byteswap()
                views[name] = copied
        self._columns = views

    # -- facts -----------------------------------------------------------

    @property
    def path(self) -> str:
        return self._path

    @property
    def closed(self) -> bool:
        return getattr(self, "_closed", True)

    @property
    def period_count(self) -> int:
        return int(self.header["periods"])

    @property
    def event_count(self) -> int:
        return int(self.header["events"])

    @property
    def message_count(self) -> int:
        return int(self.header["messages"])

    @property
    def observed_tasks(self) -> tuple[str, ...]:
        return tuple(self.header["observed_tasks"])

    @property
    def subject_table(self) -> tuple[str, ...]:
        return self._table

    def info(self) -> dict:
        """Header facts plus file size, for ``repro store-info``."""
        return {
            "path": self._path,
            "bytes": self._stamp[0],
            "version": int(self.header["version"]),
            "tasks": list(self.tasks),
            "periods": self.period_count,
            "events": self.event_count,
            "messages": self.message_count,
            "observed_tasks": list(self.observed_tasks),
            "subjects": len(self._table),
            "columns": {
                name: list(self.header["columns"][name])
                for name in sorted(self.header["columns"])
            },
        }

    # -- period access ---------------------------------------------------

    def periods(
        self, start: int = 0, stop: int | None = None
    ) -> "StorePeriodRange":
        """A zero-copy, picklable view of periods ``start:stop``."""
        count = self.period_count
        if stop is None:
            stop = count
        if not 0 <= start <= stop <= count:
            raise TraceError(
                f"period range {start}:{stop} out of bounds (0:{count})"
            )
        return StorePeriodRange(self, start, stop)

    def trace(self) -> "StoreTrace":
        """The whole store as a lazy :class:`Trace`."""
        return StoreTrace(self)

    def close(self) -> None:
        self._closed = True
        self._columns = {}
        try:
            self._mmap.close()
        except (AttributeError, ValueError, BufferError):
            # Live StorePeriodRange views still reference the mapping;
            # the OS reclaims it when the last view is dropped.
            pass
        self._file.close()

    def __repr__(self) -> str:
        return (
            f"TraceStore({self._path!r}, periods={self.period_count}, "
            f"events={self.event_count})"
        )


#: One open store per absolute path per process; revalidated by file
#: size + mtime so a rewritten store is transparently reopened.
_OPEN_STORES: dict[str, TraceStore] = {}


def open_store(path: str) -> TraceStore:
    """Open (or reuse) the process-wide :class:`TraceStore` for *path*."""
    key = os.path.abspath(os.fspath(path))
    cached = _OPEN_STORES.get(key)
    if cached is not None and not cached.closed:
        stat = os.stat(key)
        if cached._stamp == (stat.st_size, stat.st_mtime_ns):
            return cached
        cached.close()
    store = TraceStore(key)
    _OPEN_STORES[key] = store
    return store


def close_all_stores() -> int:
    """Close and evict every cached store; returns how many were open.

    Long-lived processes that serve many learns — the ``repro worker``
    daemon above all — accumulate entries in the process-wide cache as
    they unpickle :class:`StorePeriodRange` handles; each entry pins a
    file descriptor and an mmap view. Call this on shutdown (the worker
    daemon does) or between sessions to release them. Closing is safe
    at any point: a later :func:`open_store` transparently reopens.
    """
    count = 0
    for store in list(_OPEN_STORES.values()):
        if not store.closed:
            count += 1
            store.close()
    _OPEN_STORES.clear()
    return count


def _reopen_range(path: str, start: int, stop: int) -> "StorePeriodRange":
    """Unpickle target: rebuild a range from its (path, start, stop)."""
    return open_store(path).periods(start, stop)


class StorePeriodRange(ColumnarPeriods):
    """A contiguous period range of one store.

    Pickles as the O(1) handle ``(store_path, start, stop)`` — this is
    what shard workers receive instead of period lists; each worker
    process reopens the store (shared per process via
    :func:`open_store`) and maps its own zero-copy view.
    """

    __slots__ = ("_store",)

    def __init__(self, store: TraceStore, start: int, stop: int) -> None:
        self._store = store
        super().__init__(
            store._columns["times"],
            store._columns["kinds"],
            store._columns["subjects"],
            store._columns["offsets"],
            store._table,
            start=start,
            stop=stop,
            first_index=start,
            owner=store,
        )

    def _sliced(self, start: int, stop: int) -> "StorePeriodRange":
        return StorePeriodRange(
            self._store, self._start + start, self._start + stop
        )

    def __reduce__(self):
        return (_reopen_range, (self._store.path, self._start, self._stop))


class StoreTrace(LazyTrace):
    """A lazy trace over a whole store; aggregate facts come from the
    header (O(1)), period materialization from the mmap'd columns."""

    __slots__ = ("_store",)

    def __init__(self, store: TraceStore) -> None:
        self._store = store
        super().__init__(
            store.tasks,
            store.periods(),
            message_count=store.message_count,
            event_count=store.event_count,
            observed_tasks=store.observed_tasks,
        )

    @property
    def store(self) -> TraceStore:
        return self._store


# ---------------------------------------------------------------------------
# Trace-format adapter surface (registered as "store" in repro.trace.formats)


def write_store(trace: Trace, path: str) -> None:
    """Write *trace* to a ``.rts`` store at *path* (atomic)."""
    writer = TraceStoreWriter(path, trace.tasks)
    try:
        writer.add_trace(trace)
    except BaseException:
        writer.abort()
        raise
    writer.finalize()


def read_store(path: str) -> StoreTrace:
    """Open the store at *path* as a lazy trace."""
    return open_store(path).trace()


def stream_store(path: str) -> tuple[tuple[str, ...], Iterator[Period]]:
    """Task universe + lazy period iterator (the format's path streamer)."""
    store = open_store(path)
    return store.tasks, iter(store.periods())


def load_store_stream(stream: TextIO) -> Trace:
    """Stream-based loads are unsupported: the store is a binary format."""
    raise ReproError(
        "the 'store' trace format is binary and mmap-backed; read it "
        "by path (TraceFormat.read / repro learn trace.rts), not from "
        "an open text stream"
    )


def dump_store_stream(trace: Trace, stream: TextIO) -> None:
    """Stream-based dumps are unsupported: the store is a binary format."""
    raise ReproError(
        "the 'store' trace format is binary and mmap-backed; write it "
        "by path (TraceFormat.write / repro ingest -o trace.rts), not "
        "to an open text stream"
    )


__all__ = [
    "COLUMN_LAYOUT",
    "FLUSH_EVENTS",
    "MAGIC",
    "VERSION",
    "StorePeriodRange",
    "StoreTrace",
    "TraceStore",
    "TraceStoreWriter",
    "close_all_stores",
    "open_store",
    "read_store",
    "stream_store",
    "write_store",
]
