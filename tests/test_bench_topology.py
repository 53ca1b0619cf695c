"""Micro-benchmark of the topology report (pytest-benchmark). Marked
``bench``: the default run deselects it; ``pytest -m bench`` runs it, and
adding ``--benchmark-disable`` runs it once as a test. The graph has 500
nodes, the size of the ``graph`` benchmark's 504-entity graph: a ring, so it
is connected, plus two seeded chords per node."""

from __future__ import annotations

import random

import pytest

from hopbench.kg import Evidence, KnowledgeGraph, Triplet
from hopbench.topology import topology_report

pytestmark = pytest.mark.bench


def ring_with_chords(n: int = 500, chords: int = 2, seed: int = 0) -> KnowledgeGraph:
    rng = random.Random(seed)
    graph = KnowledgeGraph()
    ids = [graph.add_entity(f"entity {i}").entity_id for i in range(n)]
    evidence = Evidence(chunk_id="c0", sentence_span=(0, 0), page_anchor=1)
    pairs = [(i, (i + 1) % n) for i in range(n)] + [(i, rng.randrange(n)) for i in range(n) for _ in range(chords)]
    for head, tail in pairs:
        if head != tail:
            graph.add_edge(Triplet(ids[head], "links", ids[tail], evidence, source_node_id="n0"))
    return graph


def test_topology_report(benchmark):
    graph = ring_with_chords()
    report = benchmark(topology_report, graph)
    assert report.node_count == 500 and report.largest_component_size == 500
    assert 1.0 < report.average_shortest_path < 250.0
