"""The staged learn pipeline.

:class:`LearnPipeline` composes the library's end-to-end flow out of
explicit, individually-timed stages::

    ingest -> validate -> learn -> analyze -> monitor -> coverage -> report

Which stages run is derived from the :class:`~repro.pipeline.config.
PipelineConfig` (``config.stages()``); each stage reads and writes one
shared :class:`PipelineRun` context and appends a :class:`StageTiming`
to ``run.timings``. The timings compose with the learners' existing
:class:`~repro.core.instrumentation.HotLoopCounters`: the learn stage's
wall-clock row sits above the hot loop's per-phase seconds, so one table
(:meth:`PipelineRun.timing_rows`) spans the whole run from file ingest
down to the inner message loop.

Stage errors propagate as :class:`~repro.errors.ReproError` (or
``OSError`` for file problems), which the CLI maps to exit code 2.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import ReproError
from repro.pipeline.config import PipelineConfig
from repro.trace.formats import resolve_format
from repro.trace.trace import Trace
from repro.trace.validate import Severity, validate_trace

StageHook = Callable[["StageTiming", "PipelineRun"], None]


@dataclass(frozen=True)
class StageTiming:
    """One completed stage: its name and wall-clock duration."""

    name: str
    seconds: float


@dataclass
class PipelineRun:
    """Mutable context threaded through the stages of one pipeline run.

    Stages fill in the fields they own; later stages read earlier
    fields. After :meth:`LearnPipeline.run` returns, this is the
    complete record of what happened.
    """

    config: PipelineConfig
    trace: Trace | None = None
    format: str | None = None
    diagnostics: Sequence = ()
    result: object = None
    model: object = None
    modes: object = None
    curve: object = None
    drift: object = None
    coverage: object = None
    written: list[tuple[str, str]] = field(default_factory=list)
    timings: list[StageTiming] = field(default_factory=list)

    @property
    def validation_errors(self) -> list:
        """ERROR-severity diagnostics from the validate stage."""
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def stage_seconds(self, name: str) -> float:
        """Total wall-clock seconds spent in the named stage."""
        return sum(t.seconds for t in self.timings if t.name == name)

    def timing_rows(self) -> list[tuple[str, float]]:
        """``(label, seconds)`` rows: stage wall clock, then — directly
        under the learn stage — the hot loop's per-phase seconds, so the
        pipeline view and the learner's own instrumentation read as one
        breakdown."""
        rows: list[tuple[str, float]] = []
        hot = getattr(self.result, "hot_loop", None)
        for timing in self.timings:
            rows.append((timing.name, timing.seconds))
            if timing.name == "learn" and hot is not None:
                rows.append(("  hot loop: stats update", hot.stats_seconds))
                rows.append(("  hot loop: weight refresh", hot.refresh_seconds))
                rows.append(
                    ("  hot loop: message processing", hot.process_seconds)
                )
                rows.append(("  hot loop: post-processing", hot.post_seconds))
        return rows

    def timing_summary(self) -> str:
        """The timing rows as an aligned text block."""
        rows = self.timing_rows()
        if not rows:
            return "(no stages ran)"
        width = max(len(label) for label, _ in rows)
        return "\n".join(
            f"{label.ljust(width)}  {seconds:.6f}s" for label, seconds in rows
        )

    def profile(self) -> dict:
        """The run's performance profile as a JSON-ready dictionary.

        Machine-readable twin of :meth:`timing_summary`: per-stage wall
        clock in run order, the learner's hot-loop counters and phase
        seconds (when the learn stage ran), and the headline run facts
        (periods, messages, peak pool size, workers). This is what
        ``repro learn --profile-json PATH`` writes.
        """
        data: dict = {
            "stages": [
                {"name": t.name, "seconds": t.seconds} for t in self.timings
            ],
            "total_seconds": sum(t.seconds for t in self.timings),
        }
        result = self.result
        if result is not None:
            data["learn"] = {
                "algorithm": getattr(result, "algorithm", None),
                "bound": getattr(result, "bound", None),
                "workers": getattr(result, "workers", 1),
                "periods": getattr(result, "periods", None),
                "messages": getattr(result, "messages", None),
                "peak_hypotheses": getattr(result, "peak_hypotheses", None),
                "merge_count": getattr(result, "merge_count", None),
                "elapsed_seconds": getattr(result, "elapsed_seconds", None),
            }
            if self.config.scheduler is not None:
                data["learn"]["scheduler"] = self.config.scheduler
            policy = self.config.shard_policy
            if policy is not None:
                data["learn"]["shard_policy"] = {
                    "timeout": policy.timeout,
                    "retries": policy.retries,
                    "degrade": policy.degrade,
                }
            hot = getattr(result, "hot_loop", None)
            if hot is not None:
                data["hot_loop"] = hot.as_dict()
        return data


class LearnPipeline:
    """Compose and run the stages a :class:`PipelineConfig` enables.

    >>> from repro.trace.synthetic import paper_figure2_trace
    >>> pipe = LearnPipeline(PipelineConfig(bound=4))
    >>> run = pipe.run(paper_figure2_trace())
    >>> [t.name for t in run.timings]
    ['ingest', 'learn']
    >>> run.result.algorithm
    'heuristic'
    """

    #: Run order; ``config.stages()`` selects a subsequence of these.
    STAGE_ORDER = (
        "ingest",
        "validate",
        "learn",
        "analyze",
        "monitor",
        "coverage",
        "report",
    )

    def __init__(
        self,
        config: PipelineConfig,
        on_stage: StageHook | None = None,
    ) -> None:
        self.config = config
        self.on_stage = on_stage
        stages = config.stages()
        unknown = set(stages) - set(self.STAGE_ORDER)
        if unknown:
            raise ReproError(
                f"unknown pipeline stage(s): {', '.join(sorted(unknown))}"
            )
        if "report" in stages and "learn" not in stages:
            raise ReproError("the report stage requires the learn stage")
        self.stages = stages

    def run(self, trace: Trace | None = None) -> PipelineRun:
        """Execute the configured stages; *trace* skips file ingest."""
        run = PipelineRun(config=self.config, trace=trace)
        for name in self.stages:
            stage = getattr(self, f"_stage_{name}")
            started = time.perf_counter()
            stage(run)
            timing = StageTiming(name, time.perf_counter() - started)
            run.timings.append(timing)
            if self.on_stage is not None:
                self.on_stage(timing, run)
        if self.config.profile_json is not None:
            with open(self.config.profile_json, "w", encoding="utf-8") as f:
                json.dump(run.profile(), f, indent=2)
                f.write("\n")
        return run

    # -- stages ----------------------------------------------------------

    def _stage_ingest(self, run: PipelineRun) -> None:
        config = self.config
        if run.trace is not None:
            run.format = config.format
            return
        if config.source is None:
            raise ReproError(
                "pipeline has no trace: set PipelineConfig.source or pass "
                "a Trace to run()"
            )
        fmt = resolve_format(config.format, config.source)
        run.format = fmt.name
        run.trace = fmt.read(config.source)

    def _stage_validate(self, run: PipelineRun) -> None:
        run.diagnostics = validate_trace(
            run.trace, tolerance=self.config.tolerance
        )

    def _stage_learn(self, run: PipelineRun) -> None:
        from repro.core.learner import learn_dependencies

        config = self.config
        factory = self._make_executor_factory(run)
        try:
            run.result = learn_dependencies(
                run.trace,
                bound=config.bound,
                tolerance=config.tolerance,
                max_hypotheses=config.max_hypotheses,
                workers=config.workers,
                shard_policy=config.shard_policy,
                executor_factory=factory,
            )
        finally:
            if factory is not None:
                factory.close()
        run.model = run.result.lub()

    def _make_executor_factory(self, run: PipelineRun):
        """The distributed executor factory, when a scheduler is set.

        Learning from a ``.rts`` store sends the store's fingerprint in
        the handshake so every worker proves it sees the same bytes at
        the same absolute path before any shard is dispatched.
        """
        config = self.config
        if config.scheduler is None:
            return None
        if config.workers < 2 or config.bound is None:
            raise ReproError(
                "--scheduler requires --workers >= 2 and a --bound: "
                "remote dispatch is only defined for sharded bounded "
                "learning"
            )
        from repro.distributed import TcpExecutorFactory, store_fingerprint

        store = None
        if run.format == "store" and config.source is not None:
            store = store_fingerprint(config.source)
        return TcpExecutorFactory(
            config.scheduler, workers=config.workers, store=store
        )

    def _stage_analyze(self, run: PipelineRun) -> None:
        config = self.config
        if config.analyze_modes:
            from repro.analysis.modes import extract_modes

            run.modes = extract_modes(run.trace)
        if config.analyze_curve:
            from repro.analysis.convergence import learning_curve

            run.curve = learning_curve(run.trace, bound=config.curve_bound)

    def _stage_monitor(self, run: PipelineRun) -> None:
        from repro.analysis.drift import DriftMonitor
        from repro.analysis.report import loads_model

        config = self.config
        with open(config.model_path, "r", encoding="utf-8") as stream:
            model = loads_model(stream.read())
        monitor = DriftMonitor(model, tolerance=config.tolerance)
        run.drift = monitor.observe_all(run.trace.periods)

    def _stage_coverage(self, run: PipelineRun) -> None:
        from repro.analysis.coverage import coverage
        from repro.systems.specio import load_design

        with open(self.config.design_path, "r", encoding="utf-8") as stream:
            design = load_design(stream)
        run.coverage = coverage(run.trace, design)

    def _stage_report(self, run: PipelineRun) -> None:
        from repro.analysis.graph import DependencyGraph
        from repro.analysis.report import dumps_model, markdown_report, to_graphml

        renderers = {
            "dot": lambda: DependencyGraph(run.model).to_dot(),
            "graphml": lambda: to_graphml(run.model),
            "model_json": lambda: dumps_model(run.model),
            "report": lambda: markdown_report(run.result),
        }
        for kind, path in self.config.report_outputs():
            with open(path, "w", encoding="utf-8") as stream:
                stream.write(renderers[kind]())
            run.written.append((kind, path))


def run_pipeline(
    config: PipelineConfig,
    trace: Trace | None = None,
    on_stage: StageHook | None = None,
) -> PipelineRun:
    """One-call convenience: build a :class:`LearnPipeline` and run it."""
    return LearnPipeline(config, on_stage=on_stage).run(trace)


__all__ = [
    "StageTiming",
    "PipelineRun",
    "LearnPipeline",
    "run_pipeline",
]
