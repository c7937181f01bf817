"""Start ``repro`` the way a user does, with the benchmark's stamps.

    python perfbench/boot.py <repro CLI arguments>

Forks at once; the child imports :mod:`repro.cli` from the ``src``
tree beside the benchmark, writes the moment it is about to enter the
CLI to ``$PERFBENCH_READY`` (set-up ends there) and runs it. This
process passes on ``SIGINT`` and ``SIGTERM``, waits, writes the child's
peak resident set in KiB (``ru_maxrss``, which counts the descendants
it reaped too) to ``$PERFBENCH_RSS``, and exits with the child's code.
The fork is what makes that figure the program's own: ``exec`` folds
the high-water mark of the process that spawned it into ``ru_maxrss``,
and the benchmark that spawns this one holds its inputs in memory.

``$PERFBENCH_CPUS``, a comma-separated list, confines both processes
and every thread and child they start to those CPUs. When
``$PERFBENCH_SPANS`` is set, the benchmark's tracer wraps the public
functions first and writes the child's spans to that path at exit,
filed under this process's id, which is the one the benchmark knows.
"""

from __future__ import annotations

import atexit
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    cpus = os.environ.get("PERFBENCH_CPUS")
    if cpus:
        os.sched_setaffinity(0, {int(cpu) for cpu in cpus.split(",")})
    pid = os.fork()
    if pid == 0:
        return program()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda signum, _: os.kill(pid, signum))
    _, status, usage = os.wait4(pid, 0)
    with open(os.environ["PERFBENCH_RSS"], "w", encoding="utf-8") as stream:
        stream.write(str(usage.ru_maxrss))
    code = os.waitstatus_to_exitcode(status)
    return code if code >= 0 else 128 - code


def program() -> int:
    # A shell without job control starts background commands with SIGINT
    # ignored, and that is inherited; restore the interrupt a user's
    # Ctrl-C gives, which is how the benchmark stops a daemon.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    import repro.cli

    from common import now

    spans = os.environ.get("PERFBENCH_SPANS")
    if spans:
        from tracing import Tracer

        tracer = Tracer(os.environ.get("PERFBENCH_RUN_ID", ""))
        tracer.install()
        role = sys.argv[1] if len(sys.argv) > 1 else "repro"

        def flush() -> None:
            # Forked pool children inherit the hook; only the owner writes.
            if os.getpid() == tracer.pid:
                tracer.collect_counters()
                tracer.write(spans, role, pid=os.getppid())

        atexit.register(flush)
    ready = os.environ.get("PERFBENCH_READY")
    if ready:
        with open(ready, "w", encoding="utf-8") as stream:
            stream.write(repr(now()))
    return repro.cli.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
