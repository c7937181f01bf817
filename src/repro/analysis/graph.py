"""Dependency graphs: the paper's Figures 4 and 5 as a data structure.

A learned :class:`~repro.core.depfunc.DependencyFunction` is rendered as a
directed graph: one node per task, one edge per ordered pair whose value
carries a forward arrow, annotated with certainty. The graph view powers
node classification, property proving, DOT export, and the transitive
reduction used to recover "direct" dependencies from the (transitively
closed) learned relation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.core.depfunc import DependencyFunction
from repro.core.lattice import DepValue

if TYPE_CHECKING:
    import networkx as nx


class DependencyGraph:
    """Graph view over a dependency function."""

    def __init__(self, function: DependencyFunction):
        import networkx as nx  # deferred: costly to import, graph-only

        self.function = function
        self._graph = nx.DiGraph()
        self._graph.add_nodes_from(function.tasks)
        for a, b, value in function.nonparallel_pairs():
            if value.has_forward:
                self._graph.add_edge(a, b, certain=value.is_certain, value=value)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def nx_graph(self) -> nx.DiGraph:
        """The underlying networkx digraph (edges = forward arrows)."""
        return self._graph

    def certain_graph(self) -> nx.DiGraph:
        """Subgraph of certain (``→``) edges only."""
        import networkx as nx

        certain = nx.DiGraph()
        certain.add_nodes_from(self._graph.nodes)
        certain.add_edges_from(
            (a, b)
            for a, b, data in self._graph.edges(data=True)
            if data["certain"]
        )
        return certain

    def probable_graph(self) -> nx.DiGraph:
        """Subgraph of probable (``→?``) edges only."""
        import networkx as nx

        probable = nx.DiGraph()
        probable.add_nodes_from(self._graph.nodes)
        probable.add_edges_from(
            (a, b)
            for a, b, data in self._graph.edges(data=True)
            if not data["certain"]
        )
        return probable

    def direct_certain_edges(self) -> frozenset[tuple[str, str]]:
        """Transitive reduction of the certain-edge DAG.

        The learned certain relation is transitively closed by nature
        (dependence through a chain shows up on every pair); the reduction
        recovers the direct "covers" structure — what Figure 5 draws as
        solid arrows. Falls back to the full edge set if the certain graph
        is cyclic (which would indicate the impossible ``↔`` value).
        """
        import networkx as nx

        certain = self.certain_graph()
        if not nx.is_directed_acyclic_graph(certain):
            return frozenset(certain.edges)
        return frozenset(nx.transitive_reduction(certain).edges)

    def predecessors(self, task: str, certain_only: bool = False) -> frozenset[str]:
        """Tasks with a (certain) forward arrow into *task*."""
        graph = self.certain_graph() if certain_only else self._graph
        return frozenset(graph.predecessors(task))

    def successors(self, task: str, certain_only: bool = False) -> frozenset[str]:
        """Tasks that *task* has a (certain) forward arrow to."""
        graph = self.certain_graph() if certain_only else self._graph
        return frozenset(graph.successors(task))

    def edge_value(self, a: str, b: str) -> DepValue:
        return self.function.value(a, b)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_dot(self, name: str = "dependencies") -> str:
        """GraphViz DOT rendering: solid = certain, dashed = probable."""
        lines = [f"digraph {name} {{", "  rankdir=TB;"]
        for node in sorted(self._graph.nodes):
            lines.append(f'  "{node}";')
        for a, b, data in sorted(self._graph.edges(data=True)):
            style = "solid" if data["certain"] else "dashed"
            lines.append(f'  "{a}" -> "{b}" [style={style}];')
        lines.append("}")
        return "\n".join(lines)

    def edge_count(self, certain_only: bool = False) -> int:
        if certain_only:
            return self.certain_graph().number_of_edges()
        return self._graph.number_of_edges()

    def __repr__(self) -> str:
        return (
            f"DependencyGraph(tasks={len(self.function.tasks)}, "
            f"edges={self.edge_count()}, certain={self.edge_count(True)})"
        )


def restrict_tasks(
    function: DependencyFunction, tasks: Iterable[str]
) -> DependencyFunction:
    """Project a dependency function onto a task subset."""
    keep = tuple(tasks)
    keep_set = set(keep)
    entries = {
        (a, b): value
        for a, b, value in function.nonparallel_pairs()
        if a in keep_set and b in keep_set
    }
    return DependencyFunction(keep, entries)
