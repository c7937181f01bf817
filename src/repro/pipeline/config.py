"""Pipeline configuration: one dataclass drives every stage.

A :class:`PipelineConfig` is the single value a caller (CLI handler,
script, service endpoint) fills in; the
:class:`~repro.pipeline.engine.LearnPipeline` derives which stages run
from which fields are set. The CLI's argparse namespaces map onto this
1:1, which is what keeps the command handlers thin.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.shardexec import ShardPolicy


@dataclass
class PipelineConfig:
    """Everything a pipeline run needs to know.

    Attributes
    ----------
    source:
        Path of the trace to ingest. ``None`` when the caller passes a
        :class:`~repro.trace.trace.Trace` object directly to ``run()``.
    format:
        Trace-format registry name. ``None`` infers from the source
        path's extension, falling back to the textual log format (the
        rule of :func:`repro.trace.formats.resolve_format`).
    validate:
        Run the validation stage (MOC diagnostics) after ingest.
    tolerance:
        Timing tolerance, used by validation and learning alike.
    learn:
        Run the learning stage. ``False`` for ingest-only flows
        (validate, monitor, coverage).
    bound:
        Hypothesis bound for learning; ``None`` selects the exact
        algorithm (sequential only).
    workers:
        Shard-parallel learning fan-out; requires a bound when > 1
        (see :mod:`repro.core.sharded`). With a ``scheduler`` set this
        is also the number of remote worker daemons the coordinator
        waits for before dispatching.
    scheduler:
        ``tcp://HOST:PORT`` address to coordinate remote ``repro
        worker`` daemons on, or ``None`` (the default) for local
        process pools. Requires ``workers > 1`` and a bound. When the
        trace source is a ``.rts`` store, its content fingerprint is
        sent to every worker, and workers whose store at the same path
        differs refuse the session (the shard tasks ship ``(path,
        start, stop)`` handles, so all machines must see the same store
        at the same absolute path). The CLI's ``--scheduler`` flag maps
        onto this field.
    shard_policy:
        Fault-tolerance policy for shard-parallel learning — per-shard
        timeout, retry budget, and the degradation mode when a worker
        or the process pool is beyond recovery (see
        :class:`~repro.core.shardexec.ShardPolicy`). It covers worker
        faults only: a period no hypothesis explains raises the same
        error at any worker count. ``None`` uses the defaults; ignored
        when ``workers`` is 1. The CLI's ``--shard-timeout`` /
        ``--shard-retries`` / ``--degrade`` flags map onto this field.
    max_hypotheses:
        Safety cap for the exact algorithm.
    analyze_modes / analyze_curve:
        Run the analysis stage's mode extraction / learning-curve parts.
    curve_bound:
        Bound used by the learning-curve analysis.
    model_path:
        Saved model JSON to monitor the trace against (drift stage).
    design_path:
        Design spec JSON to measure trace coverage against.
    dot / graphml / model_json / report:
        Report-stage output paths; any non-``None`` value enables the
        report stage (which requires the learn stage).
    profile_json:
        Path to write the run's machine-readable profile to (per-stage
        wall clock plus the learner's hot-loop counters; see
        :meth:`~repro.pipeline.engine.PipelineRun.profile`). Written by
        :meth:`~repro.pipeline.engine.LearnPipeline.run` after the last
        stage.
    """

    source: str | None = None
    format: str | None = None
    validate: bool = False
    tolerance: float = 0.0
    learn: bool = True
    bound: int | None = None
    workers: int = 1
    scheduler: str | None = None
    shard_policy: ShardPolicy | None = None
    max_hypotheses: int = 2_000_000
    analyze_modes: bool = False
    analyze_curve: bool = False
    curve_bound: int = 16
    model_path: str | None = None
    design_path: str | None = None
    dot: str | None = None
    graphml: str | None = None
    model_json: str | None = None
    report: str | None = None
    profile_json: str | None = None

    @classmethod
    def for_session(
        cls,
        *,
        format: str | None = None,
        bound: int | None = None,
        tolerance: float = 0.0,
    ) -> "PipelineConfig":
        """Session-mode configuration for the streaming service.

        A live session (:mod:`repro.service`) is a learn-only pipeline
        with no source path: periods arrive over the wire instead of
        from a file, so ingest/report stages stay off and sharding stays
        local (a session holds exactly one incremental learner). The
        service derives each session's learner settings from this config
        so a session and a ``repro learn`` run over the same fields are
        the same computation — which is what the byte-identity tests
        assert.
        """
        return cls(
            source=None,
            format=format,
            learn=True,
            bound=bound,
            tolerance=tolerance,
        )

    def report_outputs(self) -> list[tuple[str, str]]:
        """The configured ``(kind, path)`` report outputs, in write order."""
        outputs = []
        for kind in ("dot", "graphml", "model_json", "report"):
            path = getattr(self, kind)
            if path is not None:
                outputs.append((kind, path))
        return outputs

    def stages(self) -> tuple[str, ...]:
        """The stage names this configuration enables, in run order."""
        names = ["ingest"]
        if self.validate:
            names.append("validate")
        if self.learn:
            names.append("learn")
        if self.analyze_modes or self.analyze_curve:
            names.append("analyze")
        if self.model_path is not None:
            names.append("monitor")
        if self.design_path is not None:
            names.append("coverage")
        if self.report_outputs():
            names.append("report")
        return tuple(names)


__all__ = ["PipelineConfig"]
