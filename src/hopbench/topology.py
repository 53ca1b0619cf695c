"""Shortest-path and connectivity analytics over a graph's present nodes.

Distances and components use the undirected skeleton (chain mining elsewhere
stays directed); the average shortest path is taken over ordered pairs of
distinct nodes inside the largest connected component, and the report records
that pair basis explicitly.

``topology_report`` builds one sparse adjacency matrix over a graph's
present nodes and hands components and all-pairs hop distances to
``scipy.sparse.csgraph``. ``bfs_hops`` walks the graph's own adjacency index
for single-source distances (filler selection); it and
``connected_components`` are also the pure-Python reference the report is
tested against.

``scipy.sparse`` is imported by the report helpers on their first call, not
with this module: of all commands only ``shatter`` and ``shatter-sweep``
compute a report, and importing scipy took more than half of every other
command's start-up.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import codec
from .errors import ValidationError
from .kg import KnowledgeGraph, Triplet, shatter

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

# Elements of the float64 distance block one batch of sources may fill
# (8 MiB), so the all-pairs distances cost O(batch * n) memory.
DISTANCE_BLOCK = 1 << 20

PATH_BASIS = "ordered pairs of distinct nodes in the largest undirected component"


@dataclass
class TopologyReport:
    node_count: int
    edge_count: int
    largest_component_size: int
    average_shortest_path: float | None
    path_basis: str = PATH_BASIS
    component_count: int = 0
    pruned_count: int = 0

    def to_record(self) -> dict:
        path = self.average_shortest_path
        return {**codec.to_record(self), "average_shortest_path": None if path is None else round(path, 6)}


def bfs_hops(graph: KnowledgeGraph, source: str) -> dict[str, int]:
    """Undirected hop distances from a present source to every reachable
    present node; an unknown or pruned source is refused."""
    entity = graph.entities.get(source)
    if entity is None:
        raise ValidationError(f"unknown entity id {source!r}")
    if entity.is_pruned:
        raise ValidationError(f"entity {source!r} is pruned")
    distances = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in graph.undirected_neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                queue.append(neighbor)
    return distances


def connected_components(graph: KnowledgeGraph) -> list[list[str]]:
    """Undirected components over present nodes, largest first then by id."""
    remaining = set(graph.present_ids())
    components: list[list[str]] = []
    while remaining:
        start = min(remaining)
        seen = bfs_hops(graph, start)
        component = sorted(seen)
        components.append(component)
        remaining -= set(component)
    components.sort(key=lambda c: (-len(c), c[0]))
    return components


def _present_adjacency(present: list[str], edges: list[Triplet]) -> csr_matrix:
    """Undirected adjacency of the present ``edges`` over the present nodes,
    in ``present`` order."""
    from scipy.sparse import csr_matrix

    index = {entity_id: i for i, entity_id in enumerate(present)}
    rows = np.fromiter((index[e.head] for e in edges), dtype=np.int64, count=len(edges))
    cols = np.fromiter((index[e.tail] for e in edges), dtype=np.int64, count=len(edges))
    n = len(present)
    return csr_matrix((np.ones(len(edges)), (rows, cols)), shape=(n, n))


def _distance_sum(adjacency: csr_matrix) -> int:
    """Sum of hop distances over ordered pairs of a connected graph, as an
    exact integer, computed a batch of sources at a time."""
    from scipy.sparse import csgraph

    n = adjacency.shape[0]
    batch = max(1, DISTANCE_BLOCK // n)
    total = 0
    for start in range(0, n, batch):
        sources = np.arange(start, min(start + batch, n))
        hops = csgraph.shortest_path(adjacency, directed=False, unweighted=True, indices=sources)
        total += int(hops.astype(np.int64).sum())
    return total


def topology_report(graph: KnowledgeGraph) -> TopologyReport:
    """Counts, components and the average shortest path of the present
    nodes and edges; a graph with no present node has the zero report."""
    from scipy.sparse import csgraph

    present = graph.present_ids()
    edges = graph.present_edges()
    pruned_count = sum(1 for e in graph.entities.values() if e.is_pruned)
    if not present:
        return TopologyReport(0, len(edges), 0, None, pruned_count=pruned_count)
    adjacency = _present_adjacency(present, edges)
    component_count, labels = csgraph.connected_components(adjacency, directed=False)
    sizes = np.bincount(labels, minlength=component_count)
    # The first node of each label is its smallest id, since present is
    # sorted; the largest component wins, ties to the smallest id.
    first = np.unique(labels, return_index=True)[1]
    largest = int(np.lexsort((first, -sizes))[0])
    size = int(sizes[largest])
    asp: float | None = None
    if size >= 2:
        members = np.flatnonzero(labels == largest)
        total = _distance_sum(adjacency[members][:, members])
        asp = total / (size * (size - 1))
    return TopologyReport(
        node_count=len(present),
        edge_count=len(edges),
        largest_component_size=size,
        average_shortest_path=asp,
        component_count=int(component_count),
        pruned_count=pruned_count,
    )


def shatter_sweep(
    graph: KnowledgeGraph, ks: list[float | None], stoplist: set[str] | None = None
) -> list[TopologyReport]:
    """The topology report at each frequency threshold of ``ks`` (None = off), in order."""
    return [topology_report(shatter(graph, k, stoplist=stoplist)) for k in ks]
