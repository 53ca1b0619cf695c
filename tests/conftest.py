from __future__ import annotations

import random

import numpy as np
import pytest

from hopbench import pipeline
from hopbench.kg import Evidence, KnowledgeGraph, Triplet


@pytest.fixture(autouse=True)
def no_decodes_shared_across_tests():
    """Each test starts and ends with no decoded inputs held by `pipeline._stage`."""
    pipeline._decoded.clear()
    yield
    pipeline._decoded.clear()


@pytest.fixture
def pools_started(monkeypatch) -> list[int]:
    """The worker count of each process pool the test starts, in order."""
    import multiprocessing.context

    started: list[int] = []
    real_pool = multiprocessing.context.BaseContext.Pool

    def counted_pool(self, processes=None, *args, **kwargs):
        started.append(processes)
        return real_pool(self, processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", counted_pool)
    return started


def make_graph(names: list[str], edge_names: list[tuple[str, str, str]]) -> KnowledgeGraph:
    """Graph from canonical names and (head, relation, tail) name triples."""
    graph = KnowledgeGraph()
    ids = {name: graph.add_entity(name).entity_id for name in names}
    for head, relation, tail in edge_names:
        graph.add_edge(
            Triplet(
                head=ids[head],
                relation=relation,
                tail=ids[tail],
                evidence=Evidence(chunk_id="c0", sentence_span=(0, 0), page_anchor=1),
                source_node_id="n0",
            )
        )
    return graph


DIABETES_TOY_NODES = [
    "Type 2 Diabetes",
    "Blood",
    "Fracture risk",
    "AGEs accumulation",
    "Osteoblast suppression",
    "Impaired Bone Quality",
]

DIABETES_TOY_EDGES = [
    ("Type 2 Diabetes", "alters", "Blood"),
    ("Blood", "supplies", "Fracture risk"),
    ("Type 2 Diabetes", "accumulation of", "AGEs accumulation"),
    ("AGEs accumulation", "suppresses", "Osteoblast suppression"),
    ("Osteoblast suppression", "compromises", "Impaired Bone Quality"),
    ("Impaired Bone Quality", "leads to", "Fracture risk"),
]


@pytest.fixture
def diabetes_toy_graph() -> KnowledgeGraph:
    """The hub-shortcut example: pruning Blood stretches the 2-hop path to 4."""
    return make_graph(DIABETES_TOY_NODES, DIABETES_TOY_EDGES)


@pytest.fixture
def sibling_toy_graph() -> KnowledgeGraph:
    """Diabetes example extended with the sibling branch used for hard
    negatives (sorbitol pathway ending in Schwann cell damage)."""
    nodes = DIABETES_TOY_NODES + ["Sorbitol Accumulation", "Schwann Cell Damage"]
    edges = DIABETES_TOY_EDGES + [
        ("Type 2 Diabetes", "accumulation of", "Sorbitol Accumulation"),
        ("Sorbitol Accumulation", "damages", "Schwann Cell Damage"),
    ]
    return make_graph(nodes, edges)


def entity_id_by_name(graph: KnowledgeGraph, name: str) -> str:
    entity_id = graph.resolve_surface(name)
    assert entity_id is not None, f"no entity named {name!r}"
    return entity_id


def random_digraph(rng: random.Random, max_nodes: int = 50, max_edges: int = 200) -> KnowledgeGraph:
    """Seeded random directed graph with frequencies for shatter testing."""
    n = rng.randint(2, max_nodes)
    graph = KnowledgeGraph()
    ids = [graph.add_entity(f"node {i}").entity_id for i in range(n)]
    n_edges = rng.randint(1, max_edges)
    for _ in range(n_edges):
        head, tail = rng.sample(ids, 2)
        graph.add_edge(
            Triplet(
                head=head,
                relation="links",
                tail=tail,
                evidence=Evidence(chunk_id="c0", sentence_span=(0, 0), page_anchor=1),
                source_node_id="n0",
            )
        )
    for entity in graph.entities.values():
        entity.frequency = rng.randint(0, 10)
    return graph


def far_apart_surfaces(count: int, seed: int = 0) -> list[str]:
    """``count`` random 12-letter surfaces, pairwise at bag distance 4 or more:
    above every default merge tolerance, so none may merge with another."""
    rng = random.Random(seed)
    surfaces: list[str] = []
    bags = np.zeros((count, 26), dtype=np.int64)
    while len(surfaces) < count:
        surface = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(12))
        bag = np.bincount([ord(ch) - ord("a") for ch in surface], minlength=26)
        diff = bags[: len(surfaces)] - bag
        if len(surfaces) and np.maximum(np.clip(diff, 0, None).sum(1), np.clip(-diff, 0, None).sum(1)).min() < 4:
            continue
        bags[len(surfaces)] = bag
        surfaces.append(surface)
    return surfaces
