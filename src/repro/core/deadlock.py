"""Channel-dependency-graph deadlock-freedom verification.

Dally & Seitz: a routing function is deadlock-free on a given topology if
its channel dependency graph (CDG) is acyclic.  The CDG has one vertex per
unidirectional physical channel; an edge ``c1 -> c2`` exists when some
packet can hold ``c1`` while requesting ``c2``, i.e. the routing function
forwards a packet arriving over ``c1`` onto ``c2`` at some router for some
destination.

The paper claims CDOR is deadlock-free on the convex regions of Algorithm 1
even though it introduces NE/SE turns that plain X-Y routing forbids: where
such a turn occurs, convexity implies the link that would complete the turn
cycle does not exist.  This module checks the claim mechanically by
enumerating every (source, destination) pair, walking the CDOR path, and
testing the resulting CDG for cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.cdor import CdorRouter
from repro.core.topological import SprintTopology

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

Channel = tuple[int, int]  # (from-router, to-router), unidirectional


@dataclass
class DeadlockReport:
    """Outcome of a deadlock-freedom check."""

    acyclic: bool
    channel_count: int
    dependency_count: int
    cycle: list[Channel] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.acyclic


def channel_dependency_graph(router: CdorRouter) -> nx.DiGraph:
    """Build the CDG of CDOR over the router's sprint topology.

    Only router-to-router channels are modelled; injection and ejection
    channels cannot participate in cycles because they are sources/sinks.
    """
    import networkx as nx

    topo = router.topology
    graph = nx.DiGraph()
    for source in topo.active_nodes:
        for destination in topo.active_nodes:
            if source == destination:
                continue
            path = router.walk(source, destination)
            channels = [(path[i], path[i + 1]) for i in range(len(path) - 1)]
            for ch in channels:
                graph.add_node(ch)
            for held, wanted in zip(channels, channels[1:]):
                graph.add_edge(held, wanted)
    return graph


def check_deadlock_freedom(router: CdorRouter) -> DeadlockReport:
    """Verify CDOR deadlock freedom on the router's topology."""
    import networkx as nx

    graph = channel_dependency_graph(router)
    try:
        cycle_edges = nx.find_cycle(graph)
    except nx.NetworkXNoCycle:
        return DeadlockReport(
            acyclic=True,
            channel_count=graph.number_of_nodes(),
            dependency_count=graph.number_of_edges(),
        )
    cycle = [edge[0] for edge in cycle_edges]
    return DeadlockReport(
        acyclic=False,
        channel_count=graph.number_of_nodes(),
        dependency_count=graph.number_of_edges(),
        cycle=cycle,
    )


def check_all_sprint_levels(
    width: int,
    height: int,
    master: int = 0,
    metric: str = "euclidean",
) -> dict[int, DeadlockReport]:
    """Deadlock reports for every sprint level of a mesh."""
    reports = {}
    for level in range(1, width * height + 1):
        topo = SprintTopology.for_level(width, height, level, master, metric)
        reports[level] = check_deadlock_freedom(CdorRouter(topo))
    return reports
