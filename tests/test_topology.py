from __future__ import annotations

import itertools
import random
from collections import deque

import pytest

from conftest import entity_id_by_name, make_graph, random_digraph
from hopbench.errors import ValidationError
from hopbench.kg import Evidence, KnowledgeGraph, Triplet, shatter
from hopbench.topology import (
    TopologyReport,
    connected_components,
    bfs_hops,
    shatter_sweep,
    topology_report,
)


def brute_force_distance(graph, u: str, v: str) -> int | None:
    """Exhaustive simple-path enumeration oracle over the undirected skeleton."""
    if u == v:
        return 0
    adjacency: dict[str, set[str]] = {}
    for edge in graph.edges:
        adjacency.setdefault(edge.head, set()).add(edge.tail)
        adjacency.setdefault(edge.tail, set()).add(edge.head)
    best: list[int | None] = [None]

    def walk(node: str, seen: set[str], depth: int):
        if best[0] is not None and depth >= best[0]:
            return
        for neighbor in adjacency.get(node, ()):  # noqa: B007
            if neighbor == v:
                if best[0] is None or depth + 1 < best[0]:
                    best[0] = depth + 1
            elif neighbor not in seen:
                walk(neighbor, seen | {neighbor}, depth + 1)

    walk(u, {u}, 0)
    return best[0]


def test_distance_to_self_is_zero(diabetes_toy_graph):
    node = entity_id_by_name(diabetes_toy_graph, "Blood")
    assert bfs_hops(diabetes_toy_graph, node)[node] == 0


def test_toy_graph_distances_before_and_after_shatter(diabetes_toy_graph):
    diabetes = entity_id_by_name(diabetes_toy_graph, "Type 2 Diabetes")
    fracture = entity_id_by_name(diabetes_toy_graph, "Fracture risk")
    assert bfs_hops(diabetes_toy_graph, diabetes).get(fracture) == 2
    shattered = shatter(diabetes_toy_graph, None, stoplist={"blood"})
    assert bfs_hops(shattered, diabetes).get(fracture) == 4


def test_unknown_node_rejected(diabetes_toy_graph):
    with pytest.raises(ValidationError, match="unknown entity id"):
        bfs_hops(diabetes_toy_graph, "e99999")


def test_pruned_node_not_present_in_shattered_view(diabetes_toy_graph):
    shattered = shatter(diabetes_toy_graph, None, stoplist={"blood"})
    blood = entity_id_by_name(diabetes_toy_graph, "Blood")
    other = entity_id_by_name(diabetes_toy_graph, "Fracture risk")
    with pytest.raises(ValidationError, match="is pruned"):
        bfs_hops(shattered, blood)
    assert blood not in bfs_hops(shattered, other)


def test_bfs_matches_enumeration_oracle_on_random_graphs():
    rng = random.Random(9)
    for _ in range(25):
        graph = random_digraph(rng, max_nodes=12, max_edges=30)
        ids = sorted(graph.entities)
        for u, v in itertools.islice(itertools.combinations(ids, 2), 40):
            assert bfs_hops(graph, u).get(v) == brute_force_distance(graph, u, v)


def test_path_graph_average_shortest_path():
    graph = make_graph(["a", "b", "c"], [("a", "r", "b"), ("b", "r", "c")])
    report = topology_report(graph)
    assert report.largest_component_size == 3
    assert report.average_shortest_path == pytest.approx(4 / 3)


def test_complete_graph_asp_is_one():
    names = ["a", "b", "c", "d"]
    edges = [(u, "r", v) for u in names for v in names if u < v]
    report = topology_report(make_graph(names, edges))
    assert report.average_shortest_path == pytest.approx(1.0)


def test_toy_graph_asp_strictly_increases_after_shatter(diabetes_toy_graph):
    before = topology_report(diabetes_toy_graph)
    shattered = shatter(diabetes_toy_graph, None, stoplist={"blood"})
    after = topology_report(shattered)
    assert after.average_shortest_path > before.average_shortest_path
    assert after.path_basis == before.path_basis


def test_component_decomposition():
    graph = make_graph(
        ["a", "b", "c", "x", "y", "lone"],
        [("a", "r", "b"), ("b", "r", "c"), ("x", "r", "y")],
    )
    components = connected_components(graph)
    assert [len(c) for c in components] == [3, 2, 1]


def test_empty_graph_has_the_zero_report():
    assert topology_report(make_graph([], [])) == TopologyReport(0, 0, 0, None)
    graph = make_graph(["a", "b"], [("a", "r", "b")])
    for entity in graph.entities.values():
        entity.frequency = 5
    everything_pruned = shatter(graph, 1.0, stoplist=set())
    assert topology_report(everything_pruned) == TopologyReport(0, 0, 0, None, pruned_count=2)


def test_sweep_reports_fragmentation_gracefully():
    graph = make_graph(["a", "b"], [("a", "r", "b")])
    for entity in graph.entities.values():
        entity.frequency = 5
    sweep = shatter_sweep(graph, [None, 1.0])
    assert sweep[0].node_count == 2
    assert sweep[1].node_count == 0  # everything pruned at k=1


# -- csgraph report against the all-sources BFS ----------------------------------


def reference_topology_report(graph) -> TopologyReport:
    """The report by one BFS per node over the undirected skeleton, present
    nodes and edges only: the algorithm topology_report ran before it used
    csgraph."""
    adjacency: dict[str, set[str]] = {}
    for edge in graph.edges:
        adjacency.setdefault(edge.head, set()).add(edge.tail)
        adjacency.setdefault(edge.tail, set()).add(edge.head)

    def bfs(source: str) -> dict[str, int]:
        distances = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for neighbor in sorted(adjacency.get(node, ())):
                if neighbor not in distances and graph.present(neighbor):
                    distances[neighbor] = distances[node] + 1
                    queue.append(neighbor)
        return distances

    present = graph.present_ids()
    remaining = set(present)
    components = []
    while remaining:
        component = sorted(bfs(min(remaining)))
        components.append(component)
        remaining -= set(component)
    components.sort(key=lambda c: (-len(c), c[0]))
    largest = components[0]
    asp = None
    if len(largest) >= 2:
        total = count = 0
        for node in largest:
            for distance in bfs(node).values():
                if distance > 0:
                    total += distance
                    count += 1
        asp = total / count
    return TopologyReport(
        node_count=len(present),
        edge_count=len(graph.present_edges()),
        largest_component_size=len(largest),
        average_shortest_path=asp,
        component_count=len(components),
        pruned_count=sum(1 for e in graph.entities.values() if e.is_pruned),
    )


def _link(graph: KnowledgeGraph, head: str, tail: str) -> None:
    evidence = Evidence(chunk_id="c0", sentence_span=(0, 0), page_anchor=1)
    graph.add_edge(Triplet(head=head, relation="links", tail=tail, evidence=evidence, source_node_id="n0"))


def random_annotated_graph(rng: random.Random) -> KnowledgeGraph:
    """Sparse random graph (so some nodes are isolated) whose pruned
    entities keep their stored edges, as in the annotated graph.jsonl."""
    n = rng.randint(2, 40)
    graph = KnowledgeGraph()
    ids = [graph.add_entity(f"node {i}").entity_id for i in range(n)]
    for _ in range(rng.randint(0, n)):
        _link(graph, *rng.sample(ids, 2))
    for entity_id in rng.sample(ids, rng.randint(0, n - 1)):
        graph.entities[entity_id].is_pruned = True
        graph.entities[entity_id].prune_reason = "over_k"
    return graph


def random_tied_graph(rng: random.Random) -> KnowledgeGraph:
    """Two connected components of the same size, the largest, on shuffled
    ids; the other nodes are isolated or pruned with edges into the pair."""
    size = rng.randint(2, 12)
    n = 2 * size + rng.randint(0, 10)
    graph = KnowledgeGraph()
    ids = [graph.add_entity(f"node {i}").entity_id for i in range(n)]
    rng.shuffle(ids)
    first, second, rest = ids[:size], ids[size : 2 * size], ids[2 * size :]
    for group in (first, second):
        for i in range(1, size):
            _link(graph, group[i], rng.choice(group[:i]))
        for _ in range(rng.randint(0, size)):
            _link(graph, *rng.sample(group, 2))
    for entity_id in rest[: len(rest) // 2]:
        _link(graph, entity_id, rng.choice(first))
        _link(graph, rng.choice(second), entity_id)
        graph.entities[entity_id].is_pruned = True
        graph.entities[entity_id].prune_reason = "stoplist"
    return graph


def test_report_matches_all_sources_bfs_on_random_annotated_graphs():
    rng = random.Random(31)
    isolated = pruned_with_edges = 0
    for _ in range(150):
        graph = random_annotated_graph(rng)
        if not graph.present_ids():
            continue
        touched = {x for e in graph.edges for x in (e.head, e.tail)}
        isolated += any(entity_id not in touched for entity_id in graph.present_ids())
        pruned_with_edges += any(not graph.present(x) for x in touched)
        assert topology_report(graph) == reference_topology_report(graph)
    assert isolated and pruned_with_edges


def test_report_matches_all_sources_bfs_on_tied_largest_components():
    rng = random.Random(32)
    for _ in range(60):
        graph = random_tied_graph(rng)
        report = topology_report(graph)
        assert report == reference_topology_report(graph)
        components = connected_components(graph)
        assert len(components[0]) == len(components[1]) == report.largest_component_size


@pytest.mark.parametrize("path_first, expected", [(True, 4 / 3), (False, 1.0)])
def test_equal_largest_components_break_ties_by_smallest_id(path_first, expected):
    path = [("a", "r", "b"), ("b", "r", "c")]
    triangle = [("x", "r", "y"), ("y", "r", "z"), ("x", "r", "z")]
    if not path_first:
        rename = dict(zip("abcxyz", "xyzabc"))
        path, triangle = (
            [(rename[h], r, rename[t]) for h, r, t in edges] for edges in (path, triangle)
        )
    report = topology_report(make_graph(["a", "b", "c", "x", "y", "z"], path + triangle))
    assert report.largest_component_size == 3
    assert report.component_count == 2
    assert report.average_shortest_path == expected
