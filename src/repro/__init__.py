"""repro: automatic model generation for black-box real-time systems.

A full reproduction of Feng, Wang, Zheng, Kanajan & Seshia, *Automatic
Model Generation for Black Box Real-Time Systems* (DATE 2007):
version-space learning of task dependency graphs from bus execution
traces, together with the substrates the paper's evaluation depends on —
a periodic multi-ECU/CAN execution simulator, a black-box bus logger, and
the downstream analyses (node classification, property proving, latency
tightening, state-space reduction).

Quickstart::

    from repro import learn_dependencies, simulate_trace
    from repro.systems import simple_four_task_design

    trace = simulate_trace(simple_four_task_design(), period_count=20)
    result = learn_dependencies(trace, bound=32)
    print(result.lub().to_table())

Packages:

* :mod:`repro.core` — the learning algorithms (paper Sections 2-4);
* :mod:`repro.trace` — events, periods, traces, I/O, validation;
* :mod:`repro.systems` — design models and reference systems;
* :mod:`repro.sim` — the execution simulator and bus logger;
* :mod:`repro.analysis` — downstream analyses over learned models;
* :mod:`repro.baselines` — process-mining and static-analysis baselines;
* :mod:`repro.theory` — executable theorem checks and the NP-hardness
  construction;
* :mod:`repro.bench` — benchmark workloads and reporting.

The simulator names (``simulate_trace``, ``SimulatorConfig``) load
:mod:`repro.sim` on first use, so importing ``repro`` to learn from a
logged trace never loads the simulator.
"""

from typing import Any

from repro.core import (
    BoundedLearner,
    CoExecutionStats,
    DependencyFunction,
    DepValue,
    ExactLearner,
    Hypothesis,
    LearningResult,
    learn_bounded,
    learn_dependencies,
    learn_exact,
    make_learner,
    matches_period,
    matches_trace,
)
from repro.errors import (
    AnalysisError,
    EmptyHypothesisSpaceError,
    LearningError,
    ModelError,
    ReproError,
    SimulationError,
    TraceError,
    TraceParseError,
)
from repro.trace import Period, Trace

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # learning
    "DepValue",
    "DependencyFunction",
    "Hypothesis",
    "CoExecutionStats",
    "LearningResult",
    "ExactLearner",
    "BoundedLearner",
    "learn_dependencies",
    "learn_exact",
    "learn_bounded",
    "make_learner",
    "matches_period",
    "matches_trace",
    # trace and simulation
    "Trace",
    "Period",
    "simulate_trace",
    "SimulatorConfig",
    # errors
    "ReproError",
    "TraceError",
    "TraceParseError",
    "ModelError",
    "SimulationError",
    "LearningError",
    "EmptyHypothesisSpaceError",
    "AnalysisError",
]


def __getattr__(name: str) -> Any:
    if name in ("SimulatorConfig", "simulate_trace"):
        from repro import sim

        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
