from __future__ import annotations

import random

import pytest

from conftest import entity_id_by_name, far_apart_surfaces, make_graph, random_digraph
from hopbench import align
from hopbench.errors import ValidationError
from hopbench.kg import (
    Evidence,
    RawTriplet,
    Triplet,
    apply_frequencies,
    assemble_graph,
    entity_frequencies,
    load_stoplist,
    shatter,
)
from hopbench.topology import shortest_path_hops


def evidence() -> Evidence:
    return Evidence(chunk_id="c0", sentence_span=(0, 0), page_anchor=1)


def triplet(head: str, tail: str, node: str = "n0") -> Triplet:
    return Triplet(head=head, relation="links", tail=tail, evidence=evidence(), source_node_id=node)


# -- entity store ----------------------------------------------------------------


def test_add_entity_dedupes_on_normalized_name():
    graph = make_graph([], [])
    first = graph.add_entity("Type 2 Diabetes")
    second = graph.add_entity("type 2  diabetes")
    assert first.entity_id == second.entity_id


def test_alias_never_duplicates_canonical():
    graph = make_graph(["Diabetes"], [])
    entity_id = entity_id_by_name(graph, "Diabetes")
    graph.add_alias(entity_id, "DIABETES")
    assert graph.entities[entity_id].aliases == set()
    graph.add_alias(entity_id, "diabetes mellitus")
    assert graph.entities[entity_id].aliases == {"diabetes mellitus"}


def test_self_loop_triplet_rejected():
    with pytest.raises(ValidationError):
        triplet("e1", "e1")


# -- frequencies ------------------------------------------------------------------


def test_frequency_units_tree_nodes_vs_mentions():
    triplets = [
        triplet("e1", "e2", node="n1"),
        triplet("e1", "e3", node="n1"),
        triplet("e1", "e4", node="n1"),
    ]
    by_nodes = entity_frequencies(triplets, "tree_nodes")
    by_mentions = entity_frequencies(triplets, "mentions")
    assert by_nodes["e1"] == 1  # all occurrences inside one tree node
    assert by_mentions["e1"] == 3


def test_frequencies_empty_input():
    assert entity_frequencies([], "tree_nodes") == {}
    assert entity_frequencies([], "mentions") == {}


def test_frequencies_reject_unknown_entities():
    with pytest.raises(ValidationError):
        entity_frequencies([triplet("e1", "e2")], "mentions", known_ids={"e1"})


def test_unknown_counting_unit_rejected():
    with pytest.raises(ValidationError):
        entity_frequencies([], "pages")


# -- shattering -------------------------------------------------------------------


def test_pruning_blood_hub_stretches_shortest_path(diabetes_toy_graph):
    graph = diabetes_toy_graph
    diabetes = entity_id_by_name(graph, "Type 2 Diabetes")
    fracture = entity_id_by_name(graph, "Fracture risk")
    assert shortest_path_hops(graph, diabetes, fracture) == 2

    shattered = shatter(graph, None, stoplist={"blood"})
    assert shortest_path_hops(shattered, diabetes, fracture) == 4

    blood = entity_id_by_name(graph, "Blood")
    assert shattered.entities[blood].is_pruned
    assert shattered.entities[blood].prune_reason == "stoplist"
    for edge in shattered.edges:
        assert blood not in (edge.head, edge.tail)


def test_adjacency_index_follows_add_edge(diabetes_toy_graph):
    graph = diabetes_toy_graph
    diabetes = entity_id_by_name(graph, "Type 2 Diabetes")
    fracture = entity_id_by_name(graph, "Fracture risk")
    assert shortest_path_hops(graph, diabetes, fracture) == 2
    assert fracture not in graph.undirected_neighbors(diabetes)
    graph.add_edge(Triplet(head=fracture, relation="r", tail=diabetes, evidence=evidence()))
    assert fracture in graph.undirected_neighbors(diabetes)
    assert shortest_path_hops(graph, diabetes, fracture) == 1


def test_unbounded_k_with_empty_stoplist_is_identity(diabetes_toy_graph):
    shattered = shatter(diabetes_toy_graph, None, stoplist=set())
    assert len(shattered.edges) == len(diabetes_toy_graph.edges)
    assert not any(e.is_pruned for e in shattered.entities.values())
    assert shattered.view == "shattered"


def test_stoplist_entry_matching_nothing_is_vacuous(diabetes_toy_graph):
    shattered = shatter(diabetes_toy_graph, None, stoplist={"unobtainium"})
    assert len(shattered.edges) == len(diabetes_toy_graph.edges)


def test_original_graph_untouched_by_shatter(diabetes_toy_graph):
    edges_before = len(diabetes_toy_graph.edges)
    shatter(diabetes_toy_graph, 1, stoplist={"blood"})
    assert len(diabetes_toy_graph.edges) == edges_before
    assert not any(e.is_pruned for e in diabetes_toy_graph.entities.values())


def test_prune_set_is_exactly_over_k_union_stoplist():
    rng = random.Random(5)
    for _ in range(30):
        graph = random_digraph(rng, max_nodes=25, max_edges=60)
        k = rng.randint(1, 9)
        stop_names = {
            graph.entities[eid].canonical_name.lower()
            for eid in rng.sample(sorted(graph.entities), rng.randint(0, 3))
        }
        view = shatter(graph, k, stoplist=stop_names)
        for entity in view.entities.values():
            on_stoplist = entity.canonical_name.lower() in stop_names
            over_k = entity.frequency > k
            assert entity.is_pruned == (on_stoplist or over_k)
            if entity.is_pruned:
                assert entity.prune_reason == ("stoplist" if on_stoplist else "over_k")


def test_alias_match_prunes_via_stoplist():
    graph = make_graph(["Whole Blood"], [])
    entity_id = entity_id_by_name(graph, "Whole Blood")
    graph.add_alias(entity_id, "blood")
    view = shatter(graph, None, stoplist={"blood"})
    assert view.entities[entity_id].is_pruned


def test_k_must_be_positive(diabetes_toy_graph):
    with pytest.raises(ValidationError):
        shatter(diabetes_toy_graph, 0)


# -- stoplist file ----------------------------------------------------------------


def test_load_stoplist_comments_and_normalization(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("# header\nBlood  \ntreatment # trailing note\n\n", encoding="utf-8")
    terms, stoplist_id = load_stoplist(path)
    assert terms == {"blood", "treatment"}
    assert len(stoplist_id) == 16


# -- assembly ---------------------------------------------------------------------


def raw(head: str, tail: str, node: str = "n0") -> RawTriplet:
    return RawTriplet(
        head_surface=head,
        relation="links",
        tail_surface=tail,
        evidence=evidence(),
        source_node_id=node,
    )


def test_assembly_merges_typo_variants_as_aliases():
    graph, report = assemble_graph(
        [raw("diabetes", "osteoblast"), raw("diabtes", "kidney stones")]
    )
    diabetes = graph.resolve_surface("diabetes")
    assert graph.resolve_surface("diabtes") == diabetes
    assert "diabtes" in graph.entities[diabetes].aliases
    assert report.merged_aliases == 1


def test_assembly_rules_out_far_surfaces_without_edit_distances(monkeypatch):
    # A full scan would run one edit distance per earlier surface of similar
    # length (about 125,000 here); the bag-distance bound rules every one out.
    calls = 0
    original = align.damerau_levenshtein

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(align, "damerau_levenshtein", counting)
    surfaces = far_apart_surfaces(500)
    graph, report = assemble_graph([raw(surfaces[i], surfaces[i + 1]) for i in range(0, 500, 2)])
    assert len(graph.entities) == 500 and report.merged_aliases == 0
    assert calls < 500


def test_assembly_drops_self_loops_after_merge():
    graph, report = assemble_graph([raw("diabetes", "diabtes")])
    assert report.dropped_self_loops == 1
    assert len(graph.edges) == 0


def test_alias_closure_after_assembly():
    rows = [
        raw("chronic bronchitis", "mucus hypersecretion", node="n1"),
        raw("chronic bronchitis", "ciliary dysfunction", node="n2"),
        raw("chronic bronchitis", "mucus hypersecretion", node="n2"),
        raw("chronik bronchitis", "airway obstruction", node="n3"),
    ]
    graph, _ = assemble_graph(rows)
    for row in rows:
        assert graph.resolve_surface(row.head_surface) is not None
        assert graph.resolve_surface(row.tail_surface) is not None


def test_assembly_frequency_counts_tree_nodes():
    rows = [
        raw("a", "b", node="n1"),
        raw("a", "c", node="n1"),
        raw("a", "d", node="n2"),
    ]
    graph, _ = assemble_graph(rows, counting_unit="tree_nodes")
    assert graph.entities[graph.resolve_surface("a")].frequency == 2

    graph_mentions, _ = assemble_graph(rows, counting_unit="mentions")
    assert graph_mentions.entities[graph_mentions.resolve_surface("a")].frequency == 3


def test_apply_frequencies_refreshes_counts(diabetes_toy_graph):
    apply_frequencies(diabetes_toy_graph, "mentions")
    diabetes = entity_id_by_name(diabetes_toy_graph, "Type 2 Diabetes")
    assert diabetes_toy_graph.entities[diabetes].frequency == 2
