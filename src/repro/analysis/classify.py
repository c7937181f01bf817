"""Node classification: disjunction and conjunction nodes (paper Sec. 2.1).

From a learned dependency function:

* a **disjunction** node conditionally chooses execution paths — it shows
  at least two probable determines-arrows (``→?``) to alternative
  successors: it sometimes-but-not-always causes each of them;
* a **conjunction** node passively receives messages from several senders,
  "depending on the decisions that others made" — it shows at least two
  depends-arrows (``←`` certain or ``←?`` probable) to its senders;
* a node satisfying both criteria is **mixed**; everything else is
  **ordinary**.

The criteria are deliberately *non-exclusive*: with a deterministic
scheduler the learned relation is transitively closed and denser than the
design (paper footnote 3), so interior nodes may satisfy a criterion
through inherited arrows. The paper's case-study claims ("A and B are
disjunction nodes", "H, P and Q are conjunction nodes") are positive
statements of this kind, which is what experiment E3 checks.

For sparse, converged functions a *strict* variant is also provided: it
counts only arrows not explained through an intermediate task (transitive
reduction for certain arrows, indirect-path filtering for probable ones).
"""

from __future__ import annotations

import enum

from repro.analysis.graph import DependencyGraph
from repro.core.depfunc import DependencyFunction
from repro.core.lattice import MAY_DETERMINE


class NodeKind(enum.Enum):
    DISJUNCTION = "disjunction"
    CONJUNCTION = "conjunction"
    #: Both at once (chooses successors *and* joins predecessors).
    MIXED = "mixed"
    ORDINARY = "ordinary"

    def __str__(self) -> str:
        return self.value


# ----------------------------------------------------------------------
# Degree-based criteria (primary)
# ----------------------------------------------------------------------

def probable_successors(function: DependencyFunction, task: str) -> frozenset[str]:
    """Tasks that *task* probably-but-not-certainly determines (``→?``)."""
    return frozenset(
        b
        for b in function.tasks
        if b != task and function.value(task, b) is MAY_DETERMINE
    )


def depended_on(function: DependencyFunction, task: str) -> frozenset[str]:
    """Tasks that *task* (certainly or probably) depends on (``←``/``←?``)."""
    return frozenset(
        b
        for b in function.tasks
        if b != task and function.value(task, b).has_backward
    )


# ----------------------------------------------------------------------
# Strict (direct-arrow) criteria
# ----------------------------------------------------------------------

def direct_probable_successors(
    graph: DependencyGraph, task: str
) -> frozenset[str]:
    """Probable successors not explained through another successor.

    A probable arrow ``task →? y`` is *indirect* when some intermediate
    successor ``x`` of ``task`` itself reaches ``y`` — the uncertainty is
    then attributable to the intermediate hop.
    """
    candidates = {
        b
        for b in graph.nx_graph.successors(task)
        if not graph.nx_graph.edges[task, b]["certain"]
    }
    direct: set[str] = set()
    for target in candidates:
        explained = any(
            middle != target and graph.nx_graph.has_edge(middle, target)
            for middle in graph.nx_graph.successors(task)
        )
        if not explained:
            direct.add(target)
    return frozenset(direct)


def direct_certain_predecessors(
    graph: DependencyGraph, task: str
) -> frozenset[str]:
    """Immediate certain predecessors (Hasse covers) of *task*."""
    return frozenset(a for a, b in graph.direct_certain_edges() if b == task)


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------

def classify_node(
    function: DependencyFunction, task: str, strict: bool = False
) -> NodeKind:
    """Classify a single task (see module docstring for the criteria)."""
    if strict:
        graph = DependencyGraph(function)
        disjunction = len(direct_probable_successors(graph, task)) >= 2
        conjunction = len(direct_certain_predecessors(graph, task)) >= 2
    else:
        disjunction = len(probable_successors(function, task)) >= 2
        conjunction = len(depended_on(function, task)) >= 2
    if disjunction and conjunction:
        return NodeKind.MIXED
    if disjunction:
        return NodeKind.DISJUNCTION
    if conjunction:
        return NodeKind.CONJUNCTION
    return NodeKind.ORDINARY


def classify_all(
    function: DependencyFunction, strict: bool = False
) -> dict[str, NodeKind]:
    """Classify every task of the function."""
    return {
        task: classify_node(function, task, strict) for task in function.tasks
    }


def is_disjunction(
    function: DependencyFunction, task: str, strict: bool = False
) -> bool:
    """True if *task* classifies as a disjunction (or mixed) node."""
    kind = classify_node(function, task, strict)
    return kind in (NodeKind.DISJUNCTION, NodeKind.MIXED)


def is_conjunction(
    function: DependencyFunction, task: str, strict: bool = False
) -> bool:
    """True if *task* classifies as a conjunction (or mixed) node."""
    kind = classify_node(function, task, strict)
    return kind in (NodeKind.CONJUNCTION, NodeKind.MIXED)


def summarize(function: DependencyFunction, strict: bool = False) -> str:
    """Human-readable classification summary, one line per task."""
    kinds = classify_all(function, strict)
    lines = []
    for task in function.tasks:
        kind = kinds[task]
        extra = ""
        if kind in (NodeKind.DISJUNCTION, NodeKind.MIXED):
            options = sorted(probable_successors(function, task))
            extra += f" chooses among {options}"
        if kind in (NodeKind.CONJUNCTION, NodeKind.MIXED):
            senders = sorted(depended_on(function, task))
            extra += f" depends on {senders}"
        lines.append(f"{task}: {kind}{extra}")
    return "\n".join(lines)


def components_without_dependencies(function: DependencyFunction) -> int:
    """Number of weakly connected components of the dependency graph.

    Independent subsystems (like the paper's per-domain chains) show up as
    separate components when the learner has enough evidence of their
    parallelism.
    """
    import networkx as nx  # deferred: costly to import, graph-only

    graph = DependencyGraph(function).nx_graph
    return nx.number_weakly_connected_components(graph)
