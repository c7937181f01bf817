"""Command-line interface.

A small operational surface over the library::

    repro simulate gm --periods 27 --out trace.log
    repro validate trace.log
    repro ingest capture.candump -o trace.rts --period-length 0.1
    repro store-info trace.rts
    repro learn trace.rts --bound 32 --workers 4 --dot graph.dot
    repro worker tcp://127.0.0.1:7071 --parallelism 2
    repro learn trace.rts --bound 32 --workers 2 --scheduler tcp://127.0.0.1:7071
    repro monitor trace.log --model model.json
    repro lint src/repro --json lint-report.json

Every command is a thin handler over :mod:`repro.pipeline`: the argparse
namespace maps onto a :class:`~repro.pipeline.config.PipelineConfig`,
the :class:`~repro.pipeline.engine.LearnPipeline` runs the stages, and
the handler formats the resulting run. Trace formats come from the
:mod:`repro.trace.formats` registry; when ``--format`` is omitted the
format is inferred from the file extension (``.csv``, ``.json``,
``.log``/``.txt``/``.trace``), defaulting to the textual log format.
``main()`` returns a process exit code and never calls ``sys.exit``
itself, so it is directly testable.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence, TextIO

from repro.errors import ReproError
from repro.pipeline import PipelineConfig, run_pipeline
from repro.trace.formats import format_names, resolve_format

#: Reference designs ``repro simulate`` runs by name. Only ``simulate``
#: loads the simulator and the design models, so the other commands
#: never import them.
DESIGNS = ("diamond", "gateway", "gm", "pipeline", "simple")


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=format_names(),
        default=None,
        help="trace format (default: inferred from the file extension)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Automatic model generation for black box real-time "
        "systems (DATE 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="simulate a reference design")
    simulate.add_argument(
        "design", choices=DESIGNS + ("random", "file")
    )
    simulate.add_argument("--design-file",
                          help="JSON design spec (with design = file)")
    simulate.add_argument("--periods", type=int, default=20)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--tasks", type=int, default=10,
                          help="task count for the random design")
    simulate.add_argument("--period-length", type=float, default=None)
    simulate.add_argument("--out", required=True)
    _add_format_flag(simulate)

    validate = sub.add_parser("validate", help="check a trace against the MOC")
    validate.add_argument("trace")
    _add_format_flag(validate)
    validate.add_argument("--tolerance", type=float, default=0.0)

    ingest = sub.add_parser(
        "ingest",
        help="convert a trace log (or candump CAN log) into a columnar "
        ".rts store, streaming with bounded memory",
    )
    ingest.add_argument("source")
    ingest.add_argument("-o", "--out", required=True,
                        help="destination store path (conventionally .rts)")
    ingest.add_argument(
        "--format",
        choices=format_names() + ("canlog",),
        default=None,
        help="source format (default: inferred from the extension; "
        ".canlog/.candump selects the CAN log parser)",
    )
    ingest.add_argument("--period-length", type=float, default=None,
                        help="period length for segmenting a candump log "
                        "(required with canlog sources)")
    ingest.add_argument("--can-task", action="append", default=[],
                        metavar="BYTE=NAME",
                        help="instrumentation payload byte -> task name "
                        "mapping for candump logs (repeatable, e.g. "
                        "--can-task 1=ctrl)")
    ingest.add_argument("--can-start-id", type=lambda s: int(s, 0),
                        default=0x700,
                        help="CAN id of task-start instrumentation frames "
                        "(default: 0x700)")
    ingest.add_argument("--can-end-id", type=lambda s: int(s, 0),
                        default=0x701,
                        help="CAN id of task-end instrumentation frames "
                        "(default: 0x701)")
    ingest.add_argument("--can-bitrate", type=float, default=500_000.0,
                        help="bus bitrate in bits per timestamp unit "
                        "(default: 500000)")

    store_info = sub.add_parser(
        "store-info", help="print a columnar store's header facts"
    )
    store_info.add_argument("store")
    store_info.add_argument("--json", action="store_true",
                            help="emit the raw info dict as JSON")

    learn = sub.add_parser("learn", help="learn a dependency model")
    learn.add_argument("trace")
    _add_format_flag(learn)
    learn.add_argument("--bound", type=int, default=None,
                       help="hypothesis bound (omit for the exact algorithm)")
    learn.add_argument("--tolerance", type=float, default=0.0)
    learn.add_argument("--workers", type=int, default=1,
                       help="shard-parallel learning processes (requires "
                       "--bound; the merged model is sound but may be less "
                       "specific than a sequential run); with --scheduler, "
                       "the number of remote workers to wait for")
    learn.add_argument("--scheduler", metavar="tcp://HOST:PORT",
                       help="coordinate remote 'repro worker' daemons at "
                       "this address instead of forking local processes "
                       "(requires --bound and --workers >= 2; when the "
                       "trace is a .rts store, every worker must see an "
                       "identical store at the same absolute path)")
    learn.add_argument("--shard-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget per shard; an expired shard "
                       "is retried on a rebuilt pool (default: no timeout)")
    learn.add_argument("--shard-retries", type=int, default=2,
                       help="attempts per shard beyond the first before the "
                       "runtime bisects it into smaller shards (default: 2)")
    learn.add_argument("--degrade", choices=("sequential", "fail"),
                       default="sequential",
                       help="when a shard or the process pool is beyond "
                       "recovery: 'sequential' finishes the learn in-process "
                       "(default), 'fail' raises an error naming the shard's "
                       "period range and attempt count")
    learn.add_argument("--dot", help="write the dependency graph as DOT")
    learn.add_argument("--graphml", help="write the graph as GraphML")
    learn.add_argument("--model-json", help="write the model as JSON")
    learn.add_argument("--report", help="write a Markdown report")
    learn.add_argument("--hot-loop", action="store_true",
                       help="print per-stage pipeline timings and hot-loop "
                       "instrumentation (dirty pairs, weight recomputes "
                       "avoided, phase timings)")
    learn.add_argument("--profile-json", metavar="PATH",
                       help="write the run profile (per-stage timings + "
                       "hot-loop counters) to PATH as JSON")
    learn.add_argument("--quiet", action="store_true")

    worker = sub.add_parser(
        "worker",
        help="run a shard-learning worker daemon that serves a "
        "'repro learn --scheduler' coordinator",
    )
    worker.add_argument("coordinator", metavar="tcp://HOST:PORT",
                        help="address the coordinator listens on")
    worker.add_argument("--parallelism", type=int, default=1,
                        help="local process-pool size: shards this worker "
                        "runs concurrently (default: 1)")
    worker.add_argument("--name", default=None,
                        help="worker name in coordinator logs and counters "
                        "(default: hostname-pid)")
    worker.add_argument("--max-connects", type=int, default=None,
                        metavar="N",
                        help="give up after N connection attempts (default: "
                        "retry forever)")
    worker.add_argument("--quiet", action="store_true",
                        help="suppress per-session log lines")

    serve = sub.add_parser(
        "serve",
        help="run the streaming session service: live learners fed "
        "over TCP by many concurrent clients",
    )
    serve.add_argument("address", metavar="tcp://HOST:PORT",
                       help="address to listen on (port 0 picks a free "
                       "port and logs it)")
    serve.add_argument("--queue-depth", type=int, default=8,
                       help="per-session ingest queue bound; a full queue "
                       "pushes back on the client's socket (default: 8)")
    serve.add_argument("--max-live", type=int, default=64,
                       help="live learners before LRU eviction spools "
                       "idle sessions (default: 64)")
    serve.add_argument("--retries", type=int, default=1,
                       help="feed retries per period before the degrade "
                       "mode applies (default: 1)")
    serve.add_argument("--degrade", choices=("reject", "close"),
                       default="reject",
                       help="after exhausted retries: reject the append "
                       "and keep the session, or close it (default: "
                       "reject)")
    serve.add_argument("--spool-dir", default=None,
                       help="directory for eviction checkpoints (default: "
                       "a private temporary directory)")
    serve.add_argument("--name", default=None,
                       help="server name in replies and logs "
                       "(default: hostname-pid)")
    serve.add_argument("--profile-json", default=None, metavar="PATH",
                       help="write the daemon's aggregate profile here "
                       "on exit")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-session log lines")

    monitor = sub.add_parser(
        "monitor", help="check a trace against a saved model (drift)"
    )
    monitor.add_argument("trace")
    _add_format_flag(monitor)
    monitor.add_argument("--model", required=True,
                         help="model JSON written by 'learn --model-json'")
    monitor.add_argument("--tolerance", type=float, default=0.0)

    analyze = sub.add_parser(
        "analyze", help="modes and learning-curve analysis of a trace"
    )
    analyze.add_argument("trace")
    _add_format_flag(analyze)
    analyze.add_argument("--bound", type=int, default=16)
    analyze.add_argument("--curve", action="store_true",
                         help="print the per-period learning curve")

    cover = sub.add_parser(
        "coverage", help="trace coverage against a JSON design spec"
    )
    cover.add_argument("trace")
    _add_format_flag(cover)
    cover.add_argument("--design-file", required=True)

    lint = sub.add_parser(
        "lint",
        help="statically check codebase invariants (determinism, "
        "hot-loop purity, mask boundary, shard safety, paper anchors)",
    )
    from repro.devtools.lint.cli import add_lint_arguments

    add_lint_arguments(lint)
    return parser


def _cmd_simulate(args: argparse.Namespace, out: TextIO) -> int:
    from repro import systems
    from repro.sim.simulator import Simulator, SimulatorConfig

    if args.design == "file":
        if not args.design_file:
            raise ReproError("simulate file requires --design-file")
        with open(args.design_file, "r", encoding="utf-8") as stream:
            design = systems.load_design(stream)
        default_length = 100.0
    elif args.design == "random":
        design = systems.random_design(
            systems.RandomDesignConfig(task_count=args.tasks), seed=args.seed
        )
        default_length = 60.0 + 8.0 * args.tasks
    else:
        design = {
            "diamond": systems.diamond_design,
            "gateway": systems.gateway_design,
            "gm": systems.gm_case_study_design,
            "pipeline": lambda: systems.pipeline_design(5),
            "simple": systems.simple_four_task_design,
        }[args.design]()
        default_length = 100.0
    length = (
        args.period_length if args.period_length is not None else default_length
    )
    trace = Simulator(
        design, SimulatorConfig(period_length=length), seed=args.seed
    ).run(args.periods).trace
    fmt = resolve_format(args.format, args.out)
    fmt.write(trace, args.out)
    out.write(
        f"wrote {len(trace)} periods / {trace.message_count()} messages "
        f"to {args.out}\n"
    )
    return 0


def _cmd_validate(args: argparse.Namespace, out: TextIO) -> int:
    run = run_pipeline(PipelineConfig(
        source=args.trace,
        format=args.format,
        validate=True,
        learn=False,
        tolerance=args.tolerance,
    ))
    for diagnostic in run.diagnostics:
        out.write(f"{diagnostic}\n")
    errors = run.validation_errors
    warnings = len(run.diagnostics) - len(errors)
    out.write(
        f"{len(run.trace)} periods, {run.trace.message_count()} messages: "
        f"{len(errors)} errors, {warnings} warnings\n"
    )
    return 1 if errors else 0


def _parse_can_tasks(pairs: Sequence[str]) -> dict[int, str]:
    mapping: dict[int, str] = {}
    for pair in pairs:
        byte_text, _, name = pair.partition("=")
        try:
            byte = int(byte_text, 0)
        except ValueError:
            raise ReproError(
                f"--can-task expects BYTE=NAME, got {pair!r}"
            ) from None
        if not name:
            raise ReproError(f"--can-task expects BYTE=NAME, got {pair!r}")
        if byte in mapping:
            raise ReproError(f"--can-task byte {byte} mapped twice")
        mapping[byte] = name
    return mapping


def _cmd_ingest(args: argparse.Namespace, out: TextIO) -> int:
    from repro.pipeline.ingest import ingest_to_store
    from repro.trace.canlog import CanLogConfig

    can_config = CanLogConfig(
        task_names=_parse_can_tasks(args.can_task),
        start_id=args.can_start_id,
        end_id=args.can_end_id,
        bitrate=args.can_bitrate,
    )
    summary = ingest_to_store(
        args.source,
        args.out,
        format=args.format,
        period_length=args.period_length,
        can_config=can_config,
    )
    out.write(summary.summary() + "\n")
    return 0


def _cmd_store_info(args: argparse.Namespace, out: TextIO) -> int:
    import json

    from repro.pipeline.ingest import store_info

    info = store_info(args.store)
    if args.json:
        out.write(json.dumps(info, indent=2, sort_keys=True) + "\n")
        return 0
    out.write(f"store: {info['path']}\n")
    out.write(f"  bytes: {info['bytes']}\n")
    out.write(f"  version: {info['version']}\n")
    out.write(f"  tasks: {', '.join(info['tasks'])}\n")
    out.write(f"  periods: {info['periods']}\n")
    out.write(f"  events: {info['events']}\n")
    out.write(f"  messages: {info['messages']}\n")
    out.write(f"  observed tasks: {', '.join(info['observed_tasks'])}\n")
    out.write(f"  interned subjects: {info['subjects']}\n")
    for name, (offset, count) in sorted(info["columns"].items()):
        out.write(f"  column {name}: {count} entries at +{offset}\n")
    return 0


def _cmd_learn(args: argparse.Namespace, out: TextIO) -> int:
    from repro.core.shardexec import ShardPolicy

    policy = None
    if args.workers > 1:
        try:
            policy = ShardPolicy(
                timeout=args.shard_timeout,
                retries=args.shard_retries,
                degrade=args.degrade,
            )
        except ValueError as error:
            raise ReproError(str(error)) from error
    run = run_pipeline(PipelineConfig(
        source=args.trace,
        format=args.format,
        bound=args.bound,
        tolerance=args.tolerance,
        workers=args.workers,
        scheduler=args.scheduler,
        shard_policy=policy,
        dot=args.dot,
        graphml=args.graphml,
        model_json=args.model_json,
        report=args.report,
        profile_json=args.profile_json,
    ))
    result = run.result
    if not args.quiet:
        out.write(result.summary() + "\n\n")
        out.write(run.model.to_table() + "\n")
    if args.hot_loop:
        out.write("\npipeline stages:\n" + run.timing_summary() + "\n")
        if result.hot_loop is not None:
            from repro.bench.reporting import format_hot_loop

            out.write("\n" + format_hot_loop(result.hot_loop) + "\n")
    labels = {
        "dot": "DOT graph",
        "graphml": "GraphML",
        "model_json": "model",
        "report": "report",
    }
    for kind, path in run.written:
        out.write(f"{labels[kind]} written to {path}\n")
    if args.profile_json:
        out.write(f"profile written to {args.profile_json}\n")
    return 0


def _cmd_worker(args: argparse.Namespace, out: TextIO) -> int:
    from repro.distributed import serve_worker
    from repro.distributed.worker import sigterm_exits

    if args.parallelism < 1:
        raise ReproError(
            f"--parallelism must be >= 1, got {args.parallelism}"
        )

    def log(line: str) -> None:
        if not args.quiet:
            out.write(f"worker: {line}\n")
            out.flush()

    with sigterm_exits():
        return serve_worker(
            args.coordinator,
            name=args.name,
            parallelism=args.parallelism,
            max_connects=args.max_connects,
            log=log,
        )


def _cmd_serve(args: argparse.Namespace, out: TextIO) -> int:
    from repro.service import SessionPolicy, serve_service

    policy = SessionPolicy(
        queue_depth=args.queue_depth,
        max_live=args.max_live,
        retries=args.retries,
        degrade=args.degrade,
        spool_dir=args.spool_dir,
    )

    def log(line: str) -> None:
        if not args.quiet:
            out.write(f"serve: {line}\n")
            out.flush()

    return serve_service(
        args.address,
        policy=policy,
        name=args.name,
        log=log,
        profile_json=args.profile_json,
    )


def _cmd_monitor(args: argparse.Namespace, out: TextIO) -> int:
    run = run_pipeline(PipelineConfig(
        source=args.trace,
        format=args.format,
        learn=False,
        tolerance=args.tolerance,
        model_path=args.model,
    ))
    out.write(run.drift.summary() + "\n")
    return 1 if run.drift.anomaly_count else 0


def _cmd_analyze(args: argparse.Namespace, out: TextIO) -> int:
    run = run_pipeline(PipelineConfig(
        source=args.trace,
        format=args.format,
        learn=False,
        analyze_modes=True,
        analyze_curve=args.curve,
        curve_bound=args.bound,
    ))
    out.write(run.modes.summary() + "\n")
    if run.curve is not None:
        out.write("\n" + run.curve.summary() + "\n")
    return 0


def _cmd_coverage(args: argparse.Namespace, out: TextIO) -> int:
    run = run_pipeline(PipelineConfig(
        source=args.trace,
        format=args.format,
        learn=False,
        design_path=args.design_file,
    ))
    out.write(run.coverage.summary() + "\n")
    return 0 if run.coverage.exhaustive else 1


def _cmd_lint(args: argparse.Namespace, out: TextIO) -> int:
    from repro.devtools.lint.cli import run_lint

    return run_lint(args, out)


def main(argv: Sequence[str] | None = None, out: TextIO | None = None) -> int:
    """Entry point; returns the process exit code."""
    stream = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "validate": _cmd_validate,
        "ingest": _cmd_ingest,
        "store-info": _cmd_store_info,
        "learn": _cmd_learn,
        "worker": _cmd_worker,
        "serve": _cmd_serve,
        "monitor": _cmd_monitor,
        "analyze": _cmd_analyze,
        "coverage": _cmd_coverage,
        "lint": _cmd_lint,
    }
    try:
        return handlers[args.command](args, stream)
    except ReproError as error:
        stream.write(f"error: {error}\n")
        return 2
    except OSError as error:
        stream.write(f"error: {error}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
