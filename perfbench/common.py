"""Shared plumbing: paths, child processes, clocks and statistics.

Every process under test is launched through ``boot.py`` in its own
process group, so stopping it also stops anything it forked (the worker
daemons' local pools). ``boot.py`` reports the peak resident set of the
program and of every descendant it reaped: that is the memory figure
the benchmark reports.
"""

from __future__ import annotations

import functools
import math
import os
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
BOOT = os.path.join(BENCH_DIR, "boot.py")

#: Seconds a child may take to exit after it was asked to stop.
STOP_GRACE = 10.0


class BenchError(RuntimeError):
    """A failed run: the benchmark prints no result and exits nonzero."""


def now() -> float:
    """The clock every span and stamp uses; system-wide on Linux, so
    stamps taken in different processes compare directly."""
    return time.monotonic()


def source_ready() -> None:
    """Fail unless the program's sources sit beside the benchmark."""
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        raise BenchError(f"no program sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``), so
    that every process the benchmark started can be waited for."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(36, 1, 0, 0, 0)


def child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_CHAOS", None)
    if extra:
        env.update(extra)
    return env


@functools.cache
def split_cpus() -> tuple[set[int], set[int]] | None:
    """Two disjoint CPU sets, (load generator, daemon), or None on a
    single CPU. A daemon kept on one CPU hands work between its own
    threads without waking a second CPU, and never competes with the
    load generator for one. Worked out once, from the CPUs this process
    may use before it confines itself to the first set."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return set(cpus[:-1]), {cpus[-1]}


class IdleSpinners:
    """Keep every CPU this process may use from going idle, at the lowest
    priority (``SCHED_IDLE``), while the ``with`` block runs.

    On a virtual machine an idle vCPU is handed back to the hypervisor,
    and waking it costs a delay that depends on the host's other load
    (it shows as steal time). A spinner of the idle class yields at once
    to any runnable process, so the processes under test never wait for
    a vCPU to wake and their latency is their own. Each spinner dies
    with this process and is reaped on exit from the block.
    """

    def __enter__(self) -> "IdleSpinners":
        import ctypes

        libc = ctypes.CDLL(None)
        parent = os.getpid()
        self.pids = []
        for cpu in sorted(os.sched_getaffinity(0)):
            pid = os.fork()
            if pid == 0:  # pragma: no cover - the spinner itself
                try:
                    # PR_SET_PDEATHSIG: die with the benchmark, however it ends.
                    libc.prctl(1, ctypes.c_ulong(signal.SIGKILL))
                    if os.getppid() != parent:
                        os._exit(0)
                    os.sched_setaffinity(0, {cpu})
                    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
                    while True:
                        pass
                finally:
                    os._exit(0)
            self.pids.append(pid)
        return self

    def __exit__(self, *exc) -> None:
        for pid in self.pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Child:
    """One process under test, started through ``boot.py``.

    ``ready_at`` is the moment the child finished importing the CLI and
    entered it (read back from its ready file); ``ended_at`` and
    ``peak_rss_mb`` are filled by :meth:`wait`.
    """

    def __init__(
        self,
        argv: list[str],
        workdir: str,
        tag: str,
        *,
        spans: str | None = None,
        run_id: str = "",
        cpus: set[int] | None = None,
    ) -> None:
        self.tag = tag
        self.ready_file = os.path.join(workdir, f"{tag}.ready")
        self.log_path = os.path.join(workdir, f"{tag}.log")
        self.rss_file = os.path.join(workdir, f"{tag}.rss")
        extra = {"PERFBENCH_READY": self.ready_file, "PERFBENCH_RSS": self.rss_file,
                 "TMPDIR": workdir}
        if spans is not None:
            extra["PERFBENCH_SPANS"] = spans
            extra["PERFBENCH_RUN_ID"] = run_id
        if cpus is not None:
            extra["PERFBENCH_CPUS"] = ",".join(map(str, sorted(cpus)))
        self.returncode: int | None = None
        self.ended_at: float | None = None
        self.peak_rss_mb = 0.0
        with open(self.log_path, "wb") as log:
            self.started_at = now()
            self.proc = subprocess.Popen(
                [sys.executable, BOOT, *argv],
                cwd=workdir,
                env=child_env(extra),
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def ready_at(self) -> float:
        with open(self.ready_file, "r", encoding="utf-8") as stream:
            return float(stream.read())

    def poll(self) -> bool:
        """Reap the child if it has exited; True once it has."""
        if self.returncode is not None:
            return True
        pid, status, _ = os.wait4(self.pid, os.WNOHANG)
        if pid == 0:
            return False
        self.ended_at = now()
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        if os.path.exists(self.rss_file):  # absent if boot.py was killed
            with open(self.rss_file, "r", encoding="utf-8") as stream:
                self.peak_rss_mb = int(stream.read()) / 1024.0
        return True

    def wait(self, timeout: float) -> int:
        """Wait for exit, polling every 2 ms so the exit stamp is tight."""
        deadline = now() + timeout
        while not self.poll():
            if now() >= deadline:
                self.stop()
                raise BenchError(f"{self.tag} did not finish in {timeout:g}s")
            time.sleep(0.002)
        self._reap_group()
        return self.returncode  # type: ignore[return-value]

    def stop(self) -> None:
        """Interrupt the child, then kill its whole group if it lingers."""
        if self.returncode is None:
            try:
                os.kill(self.pid, signal.SIGINT)
            except ProcessLookupError:
                pass
            deadline = now() + STOP_GRACE
            while not self.poll() and now() < deadline:
                time.sleep(0.01)
            if self.returncode is None:
                try:
                    os.killpg(self.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                while not self.poll():
                    time.sleep(0.01)
        self._reap_group()

    def _reap_group(self) -> None:
        """Kill and outwait anything left in the child's process group.

        Orphans are re-parented to this process (see
        :func:`become_subreaper`), so they are reaped here by group id.
        """
        deadline = now() + STOP_GRACE
        while True:
            try:
                os.killpg(self.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                return
            try:
                while os.waitpid(-self.pid, os.WNOHANG)[0]:
                    pass
            except ChildProcessError:
                pass
            if now() >= deadline:
                raise BenchError(f"processes of {self.tag} outlived SIGKILL")
            time.sleep(0.01)

    def log_text(self) -> str:
        with open(self.log_path, "r", encoding="utf-8", errors="replace") as f:
            return f.read()

    def check(self) -> None:
        if self.returncode != 0:
            raise BenchError(
                f"{self.tag} exited with {self.returncode}:\n{self.log_text()[-2000:]}"
            )


def stop_all(children: list[Child]) -> None:
    for child in children:
        child.stop()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def median(values: list[float]) -> float:
    if not values:
        raise BenchError("no samples")
    return statistics.median(values)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; ``math.inf`` entries (failed ops) sort last."""
    if not values:
        raise BenchError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]
