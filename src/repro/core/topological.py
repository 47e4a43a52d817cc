"""Algorithm 1: irregular topological sprinting.

Starting from a designated *master node* (the single core that stays on
during nominal operation), nodes are activated in ascending order of their
**Euclidean** distance to the master, with ties broken by node index.  The
prefix of this order for a sprint level ``k`` is the set of routers/cores
powered during a ``k``-core sprint.

The paper argues (Section 3.2) that Euclidean ordering beats Hamming
(Manhattan) ordering: both pick nodes 0, 1 and 4 for a 3-core sprint on the
4x4 mesh, but for 4 cores Hamming may pick node 2 while Euclidean picks the
diagonal node 5, which shortens *inter-node* communication.  The resulting
regions are convex, which is what makes CDOR routing deadlock-free.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.util.geometry import (
    Coord,
    euclidean_sq,
    is_connected,
    is_discretely_convex,
    is_orthogonally_convex,
    manhattan,
    node_to_coord,
)


def sprint_order(
    width: int,
    height: int,
    master: int = 0,
    metric: str = "euclidean",
) -> list[int]:
    """Return all node ids in sprint-activation order (Algorithm 1).

    ``metric`` selects the distance used for the sort: ``"euclidean"`` is the
    paper's Algorithm 1; ``"hamming"`` (Manhattan) is the strawman the paper
    compares against and is provided for the ablation study.
    """
    if master < 0 or master >= width * height:
        raise ValueError(f"master node {master} outside a {width}x{height} mesh")
    origin = node_to_coord(master, width)
    if metric == "euclidean":
        def key(node: int) -> tuple[int, int]:
            return (euclidean_sq(node_to_coord(node, width), origin), node)
    elif metric == "hamming":
        def key(node: int) -> tuple[int, int]:
            return (manhattan(node_to_coord(node, width), origin), node)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return sorted(range(width * height), key=key)


def sprint_region(
    width: int,
    height: int,
    level: int,
    master: int = 0,
    metric: str = "euclidean",
) -> list[int]:
    """The node ids active during a ``level``-core sprint (order preserved)."""
    if not 1 <= level <= width * height:
        raise ValueError(
            f"sprint level must be in [1, {width * height}], got {level}"
        )
    return sprint_order(width, height, master, metric)[:level]


@dataclass(frozen=True)
class SprintTopology:
    """The irregular (convex) sub-topology of a sprint level.

    Wraps the active node set together with the mesh geometry and exposes
    the per-router connectivity bits CDOR needs (Cw/Ce, plus Cn/Cs which the
    simulator uses to know which physical links are powered).
    """

    width: int
    height: int
    active_nodes: tuple[int, ...]
    master: int = 0

    def __post_init__(self) -> None:
        if not self.active_nodes:
            raise ValueError("a sprint topology needs at least one node")
        seen = set(self.active_nodes)
        if len(seen) != len(self.active_nodes):
            raise ValueError("duplicate node in sprint topology")
        for node in self.active_nodes:
            if not 0 <= node < self.width * self.height:
                raise ValueError(f"node {node} outside the mesh")
        if self.master not in seen:
            raise ValueError("master node must be active")

    @classmethod
    def for_level(
        cls,
        width: int,
        height: int,
        level: int,
        master: int = 0,
        metric: str = "euclidean",
    ) -> "SprintTopology":
        """Build the Algorithm-1 topology for a sprint level."""
        nodes = sprint_region(width, height, level, master, metric)
        return cls(width, height, tuple(nodes), master)

    @property
    def level(self) -> int:
        return len(self.active_nodes)

    @functools.cached_property
    def active_set(self) -> frozenset[int]:
        # built once per instance (the endpoint check of every spec asks
        # per node); pickles written before it was cached load unchanged
        return frozenset(self.active_nodes)

    @property
    def coords(self) -> list[Coord]:
        return [node_to_coord(n, self.width) for n in self.active_nodes]

    def is_active(self, node: int) -> bool:
        return node in self.active_set

    def coord(self, node: int) -> Coord:
        return node_to_coord(node, self.width)

    def node_at(self, coord: Coord) -> int:
        if not (0 <= coord.x < self.width and 0 <= coord.y < self.height):
            raise ValueError(f"{coord} outside the mesh")
        return coord.y * self.width + coord.x

    def neighbor(self, node: int, direction) -> int | None:
        """The mesh neighbour in ``direction``, or None at the mesh edge."""
        c = self.coord(node) + direction.offset
        if not (0 <= c.x < self.width and 0 <= c.y < self.height):
            return None
        return self.node_at(c)

    def connected(self, node: int, direction) -> bool:
        """Connectivity bit: both endpoints of the link are active."""
        if not self.is_active(node):
            return False
        other = self.neighbor(node, direction)
        return other is not None and self.is_active(other)

    def connectivity_bits(self, node: int) -> dict:
        """All four connectivity bits for a router (Cw/Ce/Cn/Cs)."""
        from repro.util.directions import MESH_DIRECTIONS

        return {d: self.connected(node, d) for d in MESH_DIRECTIONS}

    def active_links(self) -> list[tuple[int, int]]:
        """Powered bidirectional links, as (low, high) node-id pairs."""
        from repro.util.directions import Direction

        links = []
        for node in self.active_nodes:
            for direction in (Direction.EAST, Direction.SOUTH):
                if self.connected(node, direction):
                    other = self.neighbor(node, direction)
                    links.append((node, other))
        return sorted(links)

    def is_convex(self) -> bool:
        """Discrete convexity of the active region (paper's claim)."""
        return is_discretely_convex(self.coords)

    def is_orthogonally_convex(self) -> bool:
        """The (weaker) property CDOR actually requires."""
        return is_orthogonally_convex(self.coords)

    def is_connected(self) -> bool:
        return is_connected(self.coords)


def dark_nodes(topology: SprintTopology) -> list[int]:
    """Node ids power-gated at this sprint level."""
    return [
        n
        for n in range(topology.width * topology.height)
        if not topology.is_active(n)
    ]
