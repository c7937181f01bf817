"""Model export and report generation.

Serializes learned dependency functions (JSON, GraphML via networkx) and
renders a human-readable Markdown report of a learning run — the artifact
an integration engineer files with the analysis: model table, node
classification, certain facts, and run metadata.
"""

from __future__ import annotations

import io
import json
from typing import Any

from repro.analysis.classify import classify_all, depended_on, probable_successors
from repro.analysis.graph import DependencyGraph
from repro.core.depfunc import DependencyFunction
from repro.core.lattice import parse_value
from repro.core.result import LearningResult
from repro.errors import AnalysisError

MODEL_FORMAT = "repro-dependency-model"
MODEL_VERSION = 1


# ----------------------------------------------------------------------
# JSON model export
# ----------------------------------------------------------------------

def function_to_dict(function: DependencyFunction) -> dict[str, Any]:
    """JSON-ready form of a dependency function (sparse entries)."""
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "tasks": list(function.tasks),
        "entries": [
            {"from": a, "to": b, "value": str(value)}
            for a, b, value in sorted(function.nonparallel_pairs())
        ],
    }


def function_from_dict(data: dict[str, Any]) -> DependencyFunction:
    """Rebuild a dependency function from its JSON form."""
    if data.get("format") != MODEL_FORMAT:
        raise AnalysisError(f"unexpected model format: {data.get('format')!r}")
    if data.get("version") != MODEL_VERSION:
        raise AnalysisError(
            f"unsupported model version: {data.get('version')!r}"
        )
    tasks = data.get("tasks")
    if not isinstance(tasks, list):
        raise AnalysisError("'tasks' must be a list")
    entries = {}
    for entry in data.get("entries", []):
        try:
            entries[entry["from"], entry["to"]] = parse_value(entry["value"])
        except (KeyError, ValueError) as error:
            raise AnalysisError(f"malformed entry: {entry!r}") from error
    return DependencyFunction(tuple(tasks), entries)


def dumps_model(function: DependencyFunction, indent: int | None = 2) -> str:
    """Serialize a dependency function to JSON text."""
    return json.dumps(function_to_dict(function), indent=indent)


def loads_model(text: str) -> DependencyFunction:
    """Parse a dependency function from JSON text."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise AnalysisError(f"invalid JSON: {error}") from error
    return function_from_dict(data)


# ----------------------------------------------------------------------
# GraphML export
# ----------------------------------------------------------------------

def to_graphml(function: DependencyFunction) -> str:
    """GraphML rendering of the dependency graph (edge attr: value,
    certain)."""
    import networkx as nx  # deferred: costly to import, graph-only

    graph = nx.DiGraph()
    graph.add_nodes_from(function.tasks)
    for a, b, value in function.nonparallel_pairs():
        if value.has_forward:
            graph.add_edge(a, b, value=str(value), certain=value.is_certain)
    buffer = io.BytesIO()
    nx.write_graphml(graph, buffer)
    return buffer.getvalue().decode("utf-8")


# ----------------------------------------------------------------------
# Markdown report
# ----------------------------------------------------------------------

def markdown_report(
    result: LearningResult, title: str = "Dependency model report"
) -> str:
    """A self-contained Markdown report for a learning run."""
    model = result.lub()
    graph = DependencyGraph(model)
    kinds = classify_all(model)
    lines = [
        f"# {title}",
        "",
        "## Run",
        "",
        f"- algorithm: **{result.algorithm}**"
        + (f" (bound {result.bound})" if result.bound is not None else ""),
        f"- periods: {result.periods}, messages: {result.messages}",
        f"- surviving hypotheses: {len(result.functions)}"
        f" (converged: {result.converged})",
        f"- peak hypotheses: {result.peak_hypotheses}",
        f"- learning time: {result.elapsed_seconds:.3f} s",
        "",
        "## Model",
        "",
        "```",
        model.to_table(),
        "```",
        "",
        f"Dependency graph: {graph.edge_count()} forward arrows, "
        f"{graph.edge_count(certain_only=True)} certain.",
        "",
        "## Certain facts (provable properties)",
        "",
    ]
    certain = [
        f"- whenever **{a}** runs, **{b}** must run (`d({a}, {b}) = {value}`)"
        for a, b, value in sorted(model.nonparallel_pairs())
        if str(value) == "->"
    ]
    lines.extend(certain if certain else ["*(none)*"])
    lines += ["", "## Node classification", ""]
    for task in model.tasks:
        kind = kinds[task]
        detail = ""
        options = sorted(probable_successors(model, task))
        senders = sorted(depended_on(model, task))
        if options:
            detail += f"; may trigger {', '.join(options)}"
        if senders:
            detail += f"; depends on {', '.join(senders)}"
        lines.append(f"- **{task}**: {kind}{detail}")
    lines.append("")
    return "\n".join(lines)
