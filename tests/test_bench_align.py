"""Micro-benchmarks of entity alignment (pytest-benchmark). Marked ``bench``:
the default run deselects them; ``pytest -m bench`` runs them, and adding
``--benchmark-disable`` runs each once as a test."""

from __future__ import annotations

import pytest

from conftest import far_apart_surfaces
from hopbench.align import SurfaceIndex, fuzzy_merge
from hopbench.kg import Evidence, RawTriplet, assemble_graph

pytestmark = pytest.mark.bench


def rows(surfaces: list[str]) -> list[RawTriplet]:
    evidence = Evidence(chunk_id="c0", sentence_span=(0, 0), page_anchor=1)
    return [
        RawTriplet(surfaces[i], "links", surfaces[i + 1], evidence, source_node_id=f"n{i}")
        for i in range(0, len(surfaces) - 1, 2)
    ]


@pytest.mark.parametrize("size", [300, 1200])
def test_assemble_graph(benchmark, size):
    raw = rows(far_apart_surfaces(size))
    graph, report = benchmark(assemble_graph, raw)
    assert len(graph.entities) == size and report.merged_aliases == 0


def test_fuzzy_merge(benchmark):
    surfaces = far_apart_surfaces(1200)
    index = SurfaceIndex()
    for position, surface in enumerate(surfaces):
        index.add(surface, f"e{position:05d}", surface)
    typo = surfaces[600][:5] + surfaces[600][6] + surfaces[600][5] + surfaces[600][7:]
    assert benchmark(fuzzy_merge, typo, index) == "e00600"
