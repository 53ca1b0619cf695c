from __future__ import annotations

import itertools
import random

import pytest

from conftest import entity_id_by_name, make_graph, random_digraph
from hopbench.chains import mine_chains, sample_hard_negative
from hopbench.errors import NoHardNegativeError, ValidationError
from hopbench.kg import shatter


def test_triangle_yields_exactly_one_chain():
    graph = make_graph(["a", "b", "c"], [("a", "r", "b"), ("b", "r", "c"), ("a", "r", "c")])
    chains = mine_chains(graph, None)
    assert len(chains) == 1
    chain = chains[0]
    names = [graph.entities[x].canonical_name for x in (chain.a, chain.e_bridge, chain.b)]
    assert names == ["a", "b", "c"]


def test_toy_shattered_graph_contains_published_bridge_chain(diabetes_toy_graph):
    shattered = shatter(diabetes_toy_graph, None, stoplist={"blood"})
    chains = mine_chains(shattered, None)
    triples = {
        (
            shattered.entities[c.a].canonical_name,
            shattered.entities[c.e_bridge].canonical_name,
            shattered.entities[c.b].canonical_name,
        )
        for c in chains
    }
    assert ("Type 2 Diabetes", "AGEs accumulation", "Osteoblast suppression") in triples


def brute_force_chains(graph) -> set[tuple[str, str, str]]:
    ids = sorted(graph.entities)
    out = set()
    for a, e, b in itertools.product(ids, repeat=3):
        if a == b:
            continue
        if any(t.head == a and t.tail == e for t in graph.edges) and any(
            t.head == e and t.tail == b for t in graph.edges
        ):
            out.add((a, e, b))
    return out


def test_mined_chains_match_cubic_oracle_on_random_graphs():
    rng = random.Random(17)
    for _ in range(20):
        graph = random_digraph(rng, max_nodes=15, max_edges=40)
        mined = {(c.a, c.e_bridge, c.b) for c in mine_chains(graph, None)}
        assert mined == brute_force_chains(graph)


def test_chain_evidence_comes_from_its_edges(diabetes_toy_graph):
    chains = mine_chains(diabetes_toy_graph, None)
    for chain in chains:
        hop1 = [e for e in diabetes_toy_graph.edges if e.head == chain.a and e.tail == chain.e_bridge]
        assert chain.evidence_hop1 in [e.evidence for e in hop1]


def test_per_source_cap_respected():
    names = ["s", "m1", "m2", "m3", "t"]
    edges = [("s", "r", m) for m in ("m1", "m2", "m3")] + [(m, "r", "t") for m in ("m1", "m2", "m3")]
    graph = make_graph(names, edges)
    capped = mine_chains(graph, per_source_cap=2)
    sources = [c.a for c in capped]
    assert sources.count(entity_id_by_name(graph, "s")) == 2


def test_empty_graph_mines_nothing():
    assert mine_chains(make_graph([], []), None) == []


# -- hard negatives ------------------------------------------------------------


def test_published_sibling_branch_selected(sibling_toy_graph):
    shattered = shatter(sibling_toy_graph, None, stoplist={"blood"})
    diabetes = entity_id_by_name(shattered, "Type 2 Diabetes")
    bridge = entity_id_by_name(shattered, "AGEs accumulation")
    target = entity_id_by_name(shattered, "Osteoblast suppression")
    chain = next(
        c for c in mine_chains(shattered, None) if (c.a, c.e_bridge, c.b) == (diabetes, bridge, target)
    )
    completed = sample_hard_negative(chain, shattered, rng_seed=0)
    assert shattered.entities[completed.e_sib].canonical_name == "Sorbitol Accumulation"
    assert shattered.entities[completed.b_prime].canonical_name == "Schwann Cell Damage"
    assert completed.evidence_sibling is not None


def test_source_with_single_branch_has_no_hard_negative():
    graph = make_graph(["a", "b", "c"], [("a", "r", "b"), ("b", "r", "c")])
    chain = mine_chains(graph, None)[0]
    with pytest.raises(NoHardNegativeError):
        sample_hard_negative(chain, graph, rng_seed=0)


def test_sibling_target_excludes_chain_nodes():
    # The only alternative branch loops back into the chain, so it is invalid.
    graph = make_graph(
        ["a", "b", "c", "d"],
        [("a", "r", "b"), ("b", "r", "c"), ("a", "r", "d"), ("d", "r", "c"), ("d", "r", "a")],
    )
    chain = next(
        c
        for c in mine_chains(graph, None)
        if graph.entities[c.e_bridge].canonical_name == "b"
        and graph.entities[c.b].canonical_name == "c"
    )
    with pytest.raises(NoHardNegativeError):
        sample_hard_negative(chain, graph, rng_seed=0)


def test_hard_negative_deterministic_for_fixed_seed():
    names = ["a", "b", "c"] + [f"s{i}" for i in range(6)] + [f"t{i}" for i in range(6)]
    edges = [("a", "r", "b"), ("b", "r", "c")]
    for i in range(6):
        edges.append(("a", "r", f"s{i}"))
        edges.append((f"s{i}", "r", f"t{i}"))
    graph = make_graph(names, edges)
    chain = next(c for c in mine_chains(graph, None) if graph.entities[c.b].canonical_name == "c")
    picks = {(sample_hard_negative(chain, graph, rng_seed=42).e_sib) for _ in range(5)}
    assert len(picks) == 1
    different = sample_hard_negative(chain, graph, rng_seed=43)
    variety = {sample_hard_negative(chain, graph, rng_seed=s).e_sib for s in range(30)}
    assert len(variety) > 1  # seeds actually vary the choice
    assert different.complete


def test_completing_a_complete_chain_rejected(sibling_toy_graph):
    shattered = shatter(sibling_toy_graph, None, stoplist={"blood"})
    chain = mine_chains(shattered, None)[0]
    completed = sample_hard_negative(chain, shattered, rng_seed=1)
    with pytest.raises(ValidationError):
        sample_hard_negative(completed, shattered, rng_seed=1)
