"""Downstream analyses over learned dependency functions.

Every analysis loads on first use (PEP 562): ``from repro.analysis
import X`` imports only the submodule that defines ``X``, so a command
that only writes a model never pays for the other analyses.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Any


class _Package(types.ModuleType):
    """Keeps ``repro.analysis.coverage`` the function in every import order.

    ``coverage`` names both a submodule and the function it defines, and
    loading a submodule makes the import system set the package attribute
    of that name to the module.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        if name == "coverage" and isinstance(value, types.ModuleType):
            value = value.coverage
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

#: Submodule -> the names it exports through this package.
_EXPORTS = {
    "classify": ("NodeKind", "classify_all", "classify_node",
                 "is_conjunction", "is_disjunction", "summarize"),
    "compare": ("AgreementReport", "EdgeRecovery", "compare_functions",
                "edge_recovery", "learned_forward_pairs"),
    "convergence": ("CurvePoint", "LearningCurve", "learning_curve"),
    "coverage": ("CoverageReport", "coverage"),
    "dossier": ("Dossier", "build_dossier"),
    "drift": ("DriftMonitor", "DriftReport", "DriftVerdict", "PeriodStatus"),
    "graph": ("DependencyGraph", "restrict_tasks"),
    "holistic": ("HolisticComparison", "HolisticReport", "holistic_analyze",
                 "holistic_compare"),
    "latency": ("LatencyComparison", "PathLatencyReport",
                "ResponseTimeReport", "compare_path_latency", "path_latency",
                "response_time"),
    "modes": ("Mode", "ModeReport", "extract_modes", "per_mode_models"),
    "pathfinder": ("CriticalPathComparison", "RankedPath",
                   "compare_critical_paths", "critical_paths",
                   "enumerate_paths"),
    "properties": ("CertainDependency", "ConjunctionNode", "DisjunctionNode",
                   "ImplicitOrdering", "MustExecuteWith", "Property",
                   "Verdict", "prove_all", "proved_fraction",
                   "published_case_study_properties"),
    "reachability": ("ReachabilityReport", "ReductionReport",
                     "compare_state_spaces", "explore_states"),
    "report": ("dumps_model", "function_from_dict", "function_to_dict",
               "loads_model", "markdown_report", "to_graphml"),
    "sensitivity": ("FactStability", "StabilityReport", "robust_model",
                    "stability"),
}

#: Exported name -> defining submodule.
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

#: Exported names that differ from the submodule's own.
_RENAMED = {"holistic_analyze": "analyze", "holistic_compare": "compare"}


def __getattr__(name: str) -> Any:
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(
        importlib.import_module(f"{__name__}.{module}"),
        _RENAMED.get(name, name),
    )
    globals()[name] = value
    return value


__all__ = [
    "DependencyGraph",
    "restrict_tasks",
    "NodeKind",
    "classify_node",
    "classify_all",
    "is_disjunction",
    "is_conjunction",
    "summarize",
    "Property",
    "Verdict",
    "CertainDependency",
    "MustExecuteWith",
    "DisjunctionNode",
    "ConjunctionNode",
    "ImplicitOrdering",
    "prove_all",
    "proved_fraction",
    "published_case_study_properties",
    "ResponseTimeReport",
    "PathLatencyReport",
    "LatencyComparison",
    "response_time",
    "path_latency",
    "compare_path_latency",
    "ReachabilityReport",
    "ReductionReport",
    "explore_states",
    "compare_state_spaces",
    "AgreementReport",
    "EdgeRecovery",
    "compare_functions",
    "edge_recovery",
    "learned_forward_pairs",
    "DriftMonitor",
    "DriftReport",
    "DriftVerdict",
    "PeriodStatus",
    "HolisticReport",
    "HolisticComparison",
    "holistic_analyze",
    "holistic_compare",
    "markdown_report",
    "dumps_model",
    "loads_model",
    "function_to_dict",
    "function_from_dict",
    "to_graphml",
    "Mode",
    "ModeReport",
    "extract_modes",
    "per_mode_models",
    "CurvePoint",
    "LearningCurve",
    "learning_curve",
    "CoverageReport",
    "coverage",
    "RankedPath",
    "CriticalPathComparison",
    "enumerate_paths",
    "critical_paths",
    "compare_critical_paths",
    "FactStability",
    "StabilityReport",
    "stability",
    "robust_model",
    "Dossier",
    "build_dossier",
]
