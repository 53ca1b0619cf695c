"""Tests of the benchmark's own checks.

The independent oracles must agree with the program on the bundled toy
corpus, on the diabetes hub example and on small generated workloads, and
each check must reject a deliberately corrupted artifact.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

import checks
import gen
import spans
import workloads
from hopbench import pipeline
from hopbench.align import fuzzy_merge
from hopbench.config import PipelineConfig
from hopbench.jsonl import snapshot
from hopbench.kg import Evidence, KnowledgeGraph, Triplet, apply_frequencies
from hopbench.toydata import toy_config

ROOT = Path(__file__).resolve().parents[2]

DIABETES_EDGES = [
    ("Type 2 Diabetes", "alters", "Blood"),
    ("Blood", "supplies", "Fracture risk"),
    ("Type 2 Diabetes", "accumulation of", "AGEs accumulation"),
    ("AGEs accumulation", "suppresses", "Osteoblast suppression"),
    ("Osteoblast suppression", "compromises", "Impaired Bone Quality"),
    ("Impaired Bone Quality", "leads to", "Fracture risk"),
]


def edit_jsonl(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    records = edit([json.loads(line) for line in lines[1:]])
    path.write_text("\n".join([lines[0], *(json.dumps(r) for r in records)]) + "\n", encoding="utf-8")


def edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


def copy_run(source: Path, tmp_path: Path) -> Path:
    target = tmp_path / "run"
    shutil.copytree(source, target)
    return target


# -- the bundled toy corpus ---------------------------------------------------------


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("toy")
    config = toy_config()
    for stage in ("ingest", "chunk", "tree", "extract", "shatter", "mine", "synthesize"):
        getattr(pipeline, f"run_{stage}")(run_dir, config)
    return run_dir, config, checks.read_stoplist(config.stoplist_path)


def test_oracles_agree_with_the_program_on_the_toy_corpus(toy):
    run_dir, config, stop_terms = toy
    assert stop_terms
    checks.check_shatter(run_dir, config.k_threshold, stop_terms)
    assert checks.check_items(run_dir) > 0


def test_sweep_oracle_agrees_on_the_toy_corpus(toy, tmp_path):
    source, config, stop_terms = toy
    run_dir = copy_run(source, tmp_path)
    ks = [1, 2, 3, None]
    pipeline.run_shatter_sweep(run_dir, config, ks)
    checks.check_sweep(run_dir, ks, stop_terms)
    assert checks.check_monotone(run_dir, ks, stop_terms, seed=0) > 0
    edit_json(run_dir / "topology_report.json", lambda p: p["sweep"][-1].update(edge_count=p["sweep"][-1]["edge_count"] + 1))
    with pytest.raises(checks.CheckFailed, match="edge_count"):
        checks.check_sweep(run_dir, ks, stop_terms)


def test_dropped_edge_is_rejected(toy, tmp_path):
    source, config, stop_terms = toy
    run_dir = copy_run(source, tmp_path)

    def drop_first_edge(records):
        first = next(i for i, r in enumerate(records) if r["kind"] == "edge")
        return records[:first] + records[first + 1 :]

    edit_jsonl(run_dir / "graph.jsonl", drop_first_edge)
    with pytest.raises(checks.CheckFailed, match="edges differ"):
        checks.check_shatter(run_dir, config.k_threshold, stop_terms)


def test_wrong_topology_figure_is_rejected(toy, tmp_path):
    source, config, stop_terms = toy
    run_dir = copy_run(source, tmp_path)
    edit_json(run_dir / "topology_report.json",
              lambda p: p["shattered"].update(average_shortest_path=p["shattered"]["average_shortest_path"] + 1e-3))
    with pytest.raises(checks.CheckFailed, match="average_shortest_path"):
        checks.check_shatter(run_dir, config.k_threshold, stop_terms)


def test_swapped_answer_index_is_rejected(toy, tmp_path):
    run_dir = copy_run(toy[0], tmp_path)

    def swap(records):
        first = records[0]
        first["answer_index"], first["hard_negative_index"] = first["hard_negative_index"], first["answer_index"]
        return records

    edit_jsonl(run_dir / "dataset.jsonl", swap)
    with pytest.raises(checks.CheckFailed, match="answer is not the chain's target"):
        checks.check_items(run_dir)


def test_leaked_bridge_is_rejected(toy, tmp_path):
    run_dir = copy_run(toy[0], tmp_path)

    def leak(records):
        records[0]["question"] += " " + records[0]["masked_entity"]["canonical"].upper()
        return records

    edit_jsonl(run_dir / "dataset.jsonl", leak)
    with pytest.raises(checks.CheckFailed, match="names the bridge"):
        checks.check_items(run_dir)


# -- the diabetes hub example -------------------------------------------------------


def test_oracles_agree_on_the_diabetes_hub_example(tmp_path):
    graph = KnowledgeGraph()
    for head, relation, tail in DIABETES_EDGES:
        evidence = Evidence(chunk_id="c0", sentence_span=(0, 0), page_anchor=1)
        graph.add_edge(Triplet(graph.add_entity(head).entity_id, relation, graph.add_entity(tail).entity_id,
                               evidence, source_node_id="n0"))
    apply_frequencies(graph)
    run_dir = tmp_path / "run"
    snapshot(pipeline.graph_to_records(graph, "tree_nodes"), run_dir / "graph_raw.jsonl", schema="graph")
    stoplist = tmp_path / "stop.txt"
    stoplist.write_text("Blood  # the hub\n", encoding="utf-8")
    config = PipelineConfig(k_threshold=None, stoplist_path=str(stoplist))
    pipeline.run_shatter(run_dir, config)
    stop_terms = checks.read_stoplist(str(stoplist))
    assert stop_terms == {"blood"}
    checks.check_shatter(run_dir, None, stop_terms)

    oracle = checks.read_graph(run_dir / "graph.jsonl")
    ids = {name: i for i, name in oracle.names.items()}
    for kept, hops in ((oracle.ids(), 2), (oracle.present(), 4)):
        index = {node: i for i, node in enumerate(kept)}
        distances = shortest_path(checks.adjacency(kept, oracle.kept_edges(set(kept))), directed=False,
                                  unweighted=True, indices=[index[ids["Type 2 Diabetes"]]])
        assert distances[0, index[ids["Fracture risk"]]] == hops


# -- generated workloads, run the way the benchmark runs them -----------------------


class SmallGraph(workloads.GraphWorkload):
    corpus_size = dict(n_docs=12, entities_per_doc=6, chunks_per_doc=5, sentences_per_chunk=3, hub_mentions=[55, 60])
    sweep = [50, 56, None]


class SmallEvaluate(workloads.Evaluate):
    n_items = 150
    n_names = 300


def run_round(workload: workloads.Workload, tmp_path: Path) -> workloads.Round:
    workload.setup(tmp_path / "input", seed=3)
    workload.prepare(tmp_path / "run")
    rnd = workloads.Round(tmp_path / "run")
    workload.run(rnd)
    return rnd


@pytest.fixture(scope="module")
def graph_run(tmp_path_factory):
    workload = SmallGraph()
    rnd = run_round(workload, tmp_path_factory.mktemp("graph"))
    return workload, rnd


def test_graph_round_fails_only_the_shatter_rerun(graph_run):
    workload, rnd = graph_run
    assert rnd.attempted == 8
    assert rnd.failures == ["shatter: status 'ok', expected 'skipped'"]
    report = checks.read_json(rnd.run_dir / "topology_report.json")
    assert "sweep" not in report
    checks.check_items(rnd.run_dir)


def test_filler_at_distance_two_is_rejected(graph_run, tmp_path):
    _, rnd = graph_run
    run_dir = copy_run(rnd.run_dir, tmp_path)
    oracle = checks.read_graph(run_dir / "graph.jsonl")
    chains = {f"{c['a']}>{c['e_bridge']}>{c['b']}": c for c in checks.read_jsonl(run_dir / "chains.jsonl")}
    present = oracle.present()
    index = {node: i for i, node in enumerate(present)}
    matrix = checks.adjacency(present, oracle.kept_edges(set(present)))
    items = checks.read_jsonl(run_dir / "dataset.jsonl")
    for position, item in enumerate(items):
        chain = chains[item["chain_ref"]]
        distances = shortest_path(matrix, directed=False, unweighted=True, indices=[index[chain["a"]]])[0]
        chain_nodes = {chain[key] for key in ("a", "e_bridge", "b", "e_sib", "b_prime")}
        near = [n for n in present if distances[index[n]] == 2 and n not in chain_nodes]
        if near:
            break
    else:
        pytest.fail("no entity at distance 2 from any item's source")
    filler = next(i for i in range(len(item["options"])) if i not in (item["answer_index"], item["hard_negative_index"]))

    def move(records):
        records[position]["options"][filler] = oracle.names[near[0]]
        return records

    edit_jsonl(run_dir / "dataset.jsonl", move)
    with pytest.raises(checks.CheckFailed, match="at distance 2"):
        checks.check_items(run_dir)


@pytest.fixture(scope="module")
def evaluate_run(tmp_path_factory):
    workload = SmallEvaluate()
    rnd = run_round(workload, tmp_path_factory.mktemp("evaluate"))
    return workload, rnd


def test_evaluate_round_passes_its_checks(evaluate_run):
    _, rnd = evaluate_run
    assert rnd.attempted == 14 and rnd.failures == []


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda d: edit_json(d / "report_mock-uniform.json", lambda p: p.update(hne_picks=p["hne_picks"] + 1)), "hne_picks"),
        (lambda d: edit_jsonl(d / "outcomes_mock-hash_rag.jsonl", lambda r: r[1:]), "not one outcome per item"),
        (lambda d: edit_jsonl(d / "outcomes_mock-oracle_zero_shot.jsonl",
                              lambda r: [dict(r[0], raw_response="Z"), *r[1:]]), "parsed choice"),
    ],
)
def test_corrupted_evaluation_is_rejected(evaluate_run, tmp_path, corrupt, message):
    workload, rnd = evaluate_run
    run_dir = copy_run(rnd.run_dir, tmp_path)
    corrupt(run_dir)
    with pytest.raises(checks.CheckFailed, match=message):
        workload.check(run_dir)


# -- the generator and the benchmark's declared metrics -----------------------------


def test_generated_names_never_fuzzy_merge():
    import random

    names = gen.entity_names(300, random.Random(5))
    for i, name in enumerate(names[:60]):
        vocabulary = {other: other for other in names if other != name}
        assert fuzzy_merge(name, vocabulary) is None, name
        assert min(gen.bag_distance(name, other) for other in names[i + 1:]) >= gen.MIN_BAG_DISTANCE


def test_extraction_check_rejects_a_merge_and_a_lost_triple(tmp_path):
    corpus = gen.make_corpus(1, n_docs=3, entities_per_doc=4, chunks_per_doc=1, sentences_per_chunk=4, hub_mentions=[2])
    graph = KnowledgeGraph()
    for triple in sorted(corpus.triples()):
        evidence = Evidence(chunk_id="c0", sentence_span=(0, 0), page_anchor=1)
        graph.add_edge(Triplet(graph.add_entity(triple[0]).entity_id, triple[1], graph.add_entity(triple[2]).entity_id,
                               evidence, source_node_id="n0"))
    hub = graph.resolve_surface(corpus.hubs[0])
    graph.entities[hub].is_pruned = True
    for name in ("graph_raw.jsonl", "graph.jsonl"):
        snapshot(pipeline.graph_to_records(graph, "tree_nodes"), tmp_path / name, schema="graph")
    checks.check_extraction(tmp_path, corpus.triples(), set(corpus.hubs))

    with pytest.raises(checks.CheckFailed, match="triples differ"):
        checks.check_extraction(tmp_path, corpus.triples() | {("a", "causes", "b")}, set(corpus.hubs))
    edit_jsonl(tmp_path / "graph_raw.jsonl",
               lambda records: [dict(r, aliases=["someone else"]) if r.get("entity_id") == hub else r for r in records])
    with pytest.raises(checks.CheckFailed, match="merged"):
        checks.check_extraction(tmp_path, corpus.triples(), set(corpus.hubs))


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = spans.Tracer()
    printed = set(spans.layer_metrics(tracer, 1.0)) | {"trace.work_s", "trace.overhead_s"}
    assert printed == {m["name"] for m in spec["per_layer"]}


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    with tracer.span("outer.a"):
        with tracer.span("inner.b"):
            sum(range(10_000))
    totals = tracer.totals()
    outer, inner = totals["outer.a"], totals["inner.b"]
    assert np.isclose(outer["self_s"] + inner["total_s"], outer["total_s"])
    assert inner["self_s"] == inner["total_s"]
