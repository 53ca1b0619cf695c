"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).

Criteria combine property sweeps against brute-force oracles, published-row
arithmetic consistency, and an end-to-end determinism check on the bundled
toy corpus."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import time
from collections import deque
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from conftest import entity_id_by_name, make_graph, random_digraph
from hopbench import pipeline
from hopbench.align import damerau_levenshtein
from hopbench.chains import mine_chains, sample_hard_negative
from hopbench.config import PipelineConfig
from hopbench.corpus import Chunk, Sentence, SentenceStore
from hopbench.errors import ItemDiscardedError, NoHardNegativeError
from hopbench.evaluation import EvalOutcome, MockEvalTransport, behavioral_report, evaluate_dataset
from hopbench.gmm import fit_gmm_em, search_cluster_count
from hopbench.kg import KnowledgeGraph, shatter
from hopbench.providers import ChatService, EmbeddingService, MockChatTransport, MockEmbeddingTransport
from hopbench.rag import CorpusIndex, build_rag_context, context_passages
from hopbench.seeding import derive_seed
from hopbench.synthesis import QAItem, synthesize_item, verify_masking
from hopbench.textstats import bleu1, rouge1_f1, tokenize
from hopbench.topology import bfs_hops, shatter_sweep
from hopbench.toydata import toy_config


def report_pass(number: int, label: str) -> None:
    print(f"[acceptance {number:02d}] PASS - {label}")


# -- independent BFS oracle over plain dicts -----------------------------------


def oracle_distances(edges: list[tuple[str, str]], nodes: set[str], source: str) -> dict[str, int]:
    adjacency: dict[str, set[str]] = {node: set() for node in nodes}
    for head, tail in edges:
        if head in nodes and tail in nodes:
            adjacency[head].add(tail)
            adjacency[tail].add(head)
    distances = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in adjacency[node]:
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                queue.append(neighbor)
    return distances


def test_acceptance_01_shattering_monotonicity():
    started = time.time()
    rng = random.Random(12345)
    checked_pairs = 0
    for _ in range(200):
        graph = random_digraph(rng, max_nodes=50, max_edges=200)
        k = rng.choice([None, 2, 5, 8])
        stop_count = rng.randint(0, min(4, len(graph.entities)))
        stop_names = {
            graph.entities[eid].canonical_name.lower()
            for eid in rng.sample(sorted(graph.entities), stop_count)
        }
        view = shatter(graph, k, stoplist=stop_names)

        all_edges = [(e.head, e.tail) for e in graph.edges]
        all_nodes = set(graph.entities)
        kept_edges = [(e.head, e.tail) for e in view.edges]
        kept_nodes = set(view.present_ids())

        for source in sorted(kept_nodes):
            oracle_original = oracle_distances(all_edges, all_nodes, source)
            oracle_shattered = oracle_distances(kept_edges, kept_nodes, source)
            implementation_shattered = bfs_hops(view, source)
            implementation_original = bfs_hops(graph, source)
            for target, d_shattered in oracle_shattered.items():
                if target == source:
                    continue
                d_original = oracle_original[target]
                assert d_shattered >= d_original, (source, target)
                assert implementation_shattered[target] == d_shattered
                assert implementation_original[target] == d_original
                checked_pairs += 1
    elapsed = time.time() - started
    assert elapsed < 10.0, f"monotonicity sweep took {elapsed:.1f}s"
    report_pass(1, f"0 violations over 200 graphs ({checked_pairs} connected pairs, {elapsed:.1f}s)")


def test_acceptance_02_toy_graph_reproduction(diabetes_toy_graph):
    diabetes = entity_id_by_name(diabetes_toy_graph, "Type 2 Diabetes")
    fracture = entity_id_by_name(diabetes_toy_graph, "Fracture risk")
    assert bfs_hops(diabetes_toy_graph, diabetes).get(fracture) == 2
    shattered = shatter(diabetes_toy_graph, None, stoplist={"blood"})
    assert bfs_hops(shattered, diabetes).get(fracture) == 4
    report_pass(2, "hub pruning stretches the toy path from 2 to 4 hops exactly")


def test_acceptance_03_asp_ablation_shape():
    spokes = [f"spoke {i:02d}" for i in range(12)]
    names = spokes + ["central hub"]
    edges = [(spokes[i], "r", spokes[(i + 1) % 12]) for i in range(12)]
    edges += [(s, "r", "central hub") for s in spokes[::2]]
    edges += [("central hub", "r", s) for s in spokes[1::2]]
    graph = make_graph(names, edges)
    for entity in graph.entities.values():
        entity.frequency = 100 if entity.canonical_name == "central hub" else 5

    ks: list[float | None] = [None, 200.0, 50.0, 10.0, 2.0]
    sweep = shatter_sweep(graph, ks)
    sizes = [r.largest_component_size for r in sweep]
    asps = [r.average_shortest_path for r in sweep]

    initial = sizes[0]
    stable = [i for i, size in enumerate(sizes) if size >= initial - 1]  # hub removal drops one node
    assert len(stable) >= 3
    for a, b in zip(stable, stable[1:]):
        assert asps[b] >= asps[a] - 1e-12, f"ASP decreased from k={ks[a]} to k={ks[b]}"
    assert asps[stable[-1]] > asps[stable[0]]  # pruning the hub strictly lengthened paths
    assert sizes[-1] < initial - 1  # and the smallest k fragments the graph
    report_pass(3, f"ASP non-decreasing {[round(a, 3) if a else None for a in asps]} until fragmentation")


def test_acceptance_04_em_monotonicity():
    fits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 80))
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, 6))
        x = rng.standard_normal((n, d))
        model, _ = fit_gmm_em(x, K=min(k, n), seed=seed)
        trace = model.iteration_trace
        for earlier, later in zip(trace, trace[1:]):
            assert later >= earlier - 1e-9
        fits += 1
    report_pass(4, f"log-likelihood never decreased beyond 1e-9 across {fits} fits")


def test_acceptance_05_bic_recovery():
    started = time.time()
    successes = 0
    centers = np.array([[0.0, 0.0], [8.0, 8.0], [16.0, 0.0]])
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = np.vstack([rng.normal(0.0, 5e-4, size=(200, 2)) + c for c in centers])
        successes += search_cluster_count(x, K_max=6, seed=seed, n_restarts=2).k_star == 3
    elapsed = time.time() - started
    assert successes >= 95, f"only {successes}/100 seeds recovered K*=3"
    assert elapsed < 60.0, f"BIC recovery took {elapsed:.1f}s"
    report_pass(5, f"K*=3 recovered in {successes}/100 seeds ({elapsed:.1f}s)")


def test_acceptance_06_edit_distance_exhaustive_oracle():
    def oracle(s1: str, s2: str) -> int:
        @lru_cache(maxsize=None)
        def rec(i: int, j: int) -> int:
            if i == 0:
                return j
            if j == 0:
                return i
            best = min(
                rec(i - 1, j) + 1,
                rec(i, j - 1) + 1,
                rec(i - 1, j - 1) + (0 if s1[i - 1] == s2[j - 1] else 1),
            )
            if i > 1 and j > 1 and s1[i - 1] == s2[j - 2] and s1[i - 2] == s2[j - 1]:
                best = min(best, rec(i - 2, j - 2) + 1)
            return best

        return rec(len(s1), len(s2))

    strings = [""]
    for length in range(1, 7):
        strings.extend("".join(p) for p in itertools.product("abc", repeat=length))
    mismatches = 0
    checked = 0
    for i, s1 in enumerate(strings):
        for s2 in strings[i:]:
            expected = oracle(s1, s2)
            if damerau_levenshtein(s1, s2) != expected or damerau_levenshtein(s2, s1) != expected:
                mismatches += 1
            checked += 1
    assert mismatches == 0
    report_pass(6, f"0 mismatches on {checked} unordered pairs (both orientations)")


# -- synthetic layered graph shared by criteria 7 and 8 --------------------------


def layered_graph() -> tuple[KnowledgeGraph, dict[str, Chunk], SentenceStore]:
    names: list[str] = []
    edges: list[tuple[str, str, str]] = []
    for source_index in range(10):
        source = f"condition {source_index:02d}"
        names.append(source)
        for bridge_offset in range(6):
            bridge_index = source_index * 6 + bridge_offset
            bridge = f"mechanism {bridge_index:02d}"
            outcome = f"outcome {bridge_index:02d}"
            names += [bridge, outcome]
            edges.append((source, "drives", bridge))
            edges.append((bridge, "yields", outcome))
    remotes = [f"remote finding {i:02d}" for i in range(10)]
    names += remotes
    edges += [(remotes[i], "precedes", remotes[i + 1]) for i in range(9)]
    graph = shatter(make_graph(names, edges), None, stoplist=set())

    sentence = Sentence("doc", 1, 0, "Each relation is stated by its source sentence.")
    chunk = Chunk(
        chunk_id="c0",
        doc_id="doc",
        sentence_span=(0, 0),
        text=sentence.text,
        page_anchor=1,
        embedding=(1.0, 0.0),
    )
    return graph, {"c0": chunk}, SentenceStore([sentence])


def synthesize_thousand():
    graph, chunk_store, sentence_store = layered_graph()
    chat = ChatService(MockChatTransport(seed=0))
    completed = []
    for chain in mine_chains(graph, None):
        try:
            completed.append(sample_hard_negative(chain, graph, derive_seed(99, "sib", chain.key)))
        except NoHardNegativeError:
            continue
    assert len(completed) >= 50

    retained: list[tuple[QAItem, object]] = []
    discards: list[ItemDiscardedError] = []
    for index in range(1000):
        chain = completed[index % len(completed)]
        try:
            item = synthesize_item(
                chain,
                graph,
                chunk_store,
                sentence_store,
                chat,
                f"qa{index:05d}",
                PipelineConfig(),
                rng_seed=derive_seed(99, "acc7", str(index)), far_by_source={},
            )
            retained.append((item, chain))
        except ItemDiscardedError as exc:
            discards.append(exc)
    return graph, retained, discards


@pytest.fixture(scope="module")
def thousand_items():
    return synthesize_thousand()


def test_acceptance_07_masking_invariant(thousand_items):
    graph, retained, discards = thousand_items
    assert len(retained) + len(discards) == 1000
    for item, _chain in retained:
        assert verify_masking(item) == [], item.qa_id
    assert discards, "the run should exercise the discard path"
    for discard in discards:
        assert discard.reason
        assert str(discard)
    report_pass(7, f"{len(retained)} retained items clean; {len(discards)} discards all carry reasons")


def test_acceptance_08_hard_negative_topology(thousand_items):
    graph, retained, _discards = thousand_items
    violations = 0
    for item, chain in retained:
        sibling_edge = any(e.head == chain.a and e.tail == chain.e_sib for e in graph.edges)
        distractor_edge = any(e.head == chain.e_sib and e.tail == chain.b_prime for e in graph.edges)
        ok = (
            sibling_edge
            and distractor_edge
            and chain.e_sib != chain.e_bridge
            and chain.b_prime not in (chain.a, chain.e_bridge, chain.b)
            and item.options[item.hard_negative_index]
            == graph.entities[chain.b_prime].canonical_name
        )
        violations += not ok
    assert violations == 0
    report_pass(8, f"0 topology violations across {len(retained)} retained items")


def test_acceptance_09_metric_arithmetic_vs_published_rows():
    def items_of(n: int) -> list[QAItem]:
        return [
            QAItem(
                qa_id=f"qa{i}",
                language="EN",
                difficulty="hard",
                clinical_task="t",
                question="q",
                options=["a", "b", "c", "d"],
                answer_index=0,
                hard_negative_index=1,
                masked_entity={"canonical": "m", "aliases": []},
                rationale="r",
                evidence_anchors=[],
                chain_ref="k",
            )
            for i in range(n)
        ]

    def hne_of(errors: int, picks: int) -> float:
        items = items_of(errors)
        outcomes = [
            EvalOutcome("m", item.qa_id, "zero_shot", "", 1 if i < picks else 2, False)
            for i, item in enumerate(items)
        ]
        report = behavioral_report("m", outcomes, items)
        assert (report.overall.errors, report.overall.hard_negative_picks) == (errors, picks)
        return report.overall.hne

    assert hne_of(66, 35) == pytest.approx(0.5303, abs=0.005)

    def r3_of(errors: int, recovered: int, total: int = 2000) -> float:
        items = items_of(total)
        zero, rag = [], []
        for i, item in enumerate(items):
            zero_correct = i >= errors
            zero.append(EvalOutcome("m", item.qa_id, "zero_shot", "", 0, zero_correct))
            rag.append(EvalOutcome("m", item.qa_id, "rag", "", 0, zero_correct or i < recovered))
        report = behavioral_report("m", zero, items, rag_outcomes=rag)
        assert (report.overall.errors, report.overall.recovered) == (errors, recovered)
        return report.r3(report.overall)

    assert r3_of(56, 39) == pytest.approx(0.6964, abs=0.005)
    assert r3_of(685, 50) == pytest.approx(0.0730, abs=0.005)
    report_pass(9, "35/66 -> 53.03%, 39/56 -> 69.64%, 50/685 -> 7.30% all within ±0.005")


def test_acceptance_10_hne_random_baseline():
    n_items = 12000
    items = []
    rng = random.Random(0)
    for i in range(n_items):
        answer = rng.randrange(4)
        hard = (answer + 1 + rng.randrange(3)) % 4
        items.append(
            QAItem(
                qa_id=f"qa{i:05d}",
                language="EN",
                difficulty="hard",
                clinical_task="t",
                question=f"question {i}",
                options=[f"o{i}a", f"o{i}b", f"o{i}c", f"o{i}d"],
                answer_index=answer,
                hard_negative_index=hard,
                masked_entity={"canonical": "m", "aliases": []},
                rationale="r",
                evidence_anchors=[],
                chain_ref="k",
            )
        )
    chat = ChatService(MockEvalTransport("mock:uniform", items, seed=3))
    outcomes = evaluate_dataset(items, chat, model_id="uniform", mode="zero_shot")
    report = behavioral_report("uniform", outcomes, items)
    rate, errors = report.overall.hne, report.overall.errors
    assert errors >= 10000
    assert rate == pytest.approx(1 / 3, abs=0.03)
    report_pass(10, f"uniform-wrong baseline HNE {100 * rate:.2f}% over {errors} errors (33.3 ± 3)")


def test_acceptance_11_overlap_metric_oracle():
    cases = [
        ("a b c", "a b d", 2 / 3, 2 / 3),
        ("a b c", "a b c", 1.0, 1.0),
        ("a", "a b", 2 / 3, math.exp(-1)),
        ("a b", "a", 2 / 3, 1 / 2),
        ("a a b", "a b b", 2 / 3, 2 / 3),
        ("x", "y", 0.0, 0.0),
        ("a b c d", "a d", 2 / 3, 1 / 2),
        ("a d", "a b c d", 2 / 3, math.exp(-1)),
        ("a a a", "a", 1 / 2, 1 / 3),
        ("w x y z", "w x y q", 3 / 4, 3 / 4),
    ]
    for candidate, reference, expected_rouge, expected_bleu in cases:
        c, r = tokenize(candidate, "EN"), tokenize(reference, "EN")
        assert rouge1_f1(c, r) == pytest.approx(expected_rouge, abs=1e-12), (candidate, reference)
        assert bleu1(c, r) == pytest.approx(expected_bleu, abs=1e-12), (candidate, reference)
    report_pass(11, f"ROUGE-1 and BLEU-1 exact on all {len(cases)} hand-computed pairs")


def test_acceptance_12_rag_context_contract():
    embedder = EmbeddingService(MockEmbeddingTransport(dimension=16, seed=0))
    texts = [f"passage about topic {i} with detail {i * 7 % 13}" for i in range(40)]
    vectors = embedder.embed_texts(texts)
    chunks = {
        f"c{i:03d}": Chunk(
            chunk_id=f"c{i:03d}",
            doc_id="d",
            sentence_span=(0, 0),
            text=text,
            page_anchor=1,
            embedding=vector,
        )
        for i, (text, vector) in enumerate(zip(texts, vectors))
    }
    index = CorpusIndex(chunks)
    config = PipelineConfig(coarse_pool=20, context_k=5, seed=777)

    position_counts = [0] * config.context_k
    for i in range(500):
        golden_id = f"c{i % 40:03d}"
        item = QAItem(
            qa_id=f"qa{i:05d}",
            language="EN",
            difficulty="hard",
            clinical_task="t",
            question=f"what explains topic {i % 17} best?",
            options=["a", "b", "c", "d"],
            answer_index=0,
            hard_negative_index=1,
            masked_entity={"canonical": "m", "aliases": []},
            rationale="r",
            evidence_anchors=[
                {"hop": "hop1", "chunk_id": golden_id, "sentence_span": [0, 0], "page_anchor": 1},
                {"hop": "hop2", "chunk_id": golden_id, "sentence_span": [0, 0], "page_anchor": 1},
            ],
            chain_ref="k",
        )
        candidates = index.rank(embedder.embed_texts([item.question])[0], config.coarse_pool)
        context = build_rag_context(item, candidates, chunks, config)
        documents = context_passages(context, chunks)
        golden_text = chunks[golden_id].text
        assert len(documents) == config.context_k
        assert documents.count(golden_text) == 1
        assert documents[context["golden_position"]] == golden_text
        position_counts[context["golden_position"]] += 1

    chi = scipy_stats.chisquare(position_counts)
    assert chi.pvalue > 0.01, f"golden positions {position_counts} not uniform (p={chi.pvalue:.4f})"
    report_pass(12, f"500 contexts valid; golden positions {position_counts}, chi-square p={chi.pvalue:.3f}")


def test_acceptance_13_end_to_end_determinism(tmp_path):
    def full_run(run_dir: Path) -> None:
        config = toy_config(seed=7)
        for stage in (
            pipeline.run_ingest,
            pipeline.run_chunk,
            pipeline.run_tree,
            pipeline.run_extract,
            pipeline.run_shatter,
            pipeline.run_mine,
            pipeline.run_synthesize,
            pipeline.run_adjudicate,
            pipeline.run_stats,
        ):
            stage(run_dir, config)
        pipeline.run_evaluate(run_dir, config, "mock:uniform", "zero_shot")
        pipeline.run_evaluate(run_dir, config, "mock:uniform", "rag")
        pipeline.run_report(run_dir, config, "mock:uniform")

    started = time.time()
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    full_run(run_a)
    full_run(run_b)
    elapsed = time.time() - started

    compared = []
    for name in ("dataset.jsonl", "graph.jsonl", "report_mock-uniform.json"):
        digest_a = hashlib.sha256((run_a / name).read_bytes()).hexdigest()
        digest_b = hashlib.sha256((run_b / name).read_bytes()).hexdigest()
        assert digest_a == digest_b, f"{name} differs between runs"
        compared.append(name)
    dataset_rows = (run_a / "dataset.jsonl").read_text(encoding="utf-8").strip().splitlines()
    assert len(dataset_rows) >= 2  # header plus at least one synthesized item
    assert elapsed < 120.0, f"two full runs took {elapsed:.1f}s"
    report_pass(13, f"byte-identical {compared} across two runs ({elapsed:.1f}s for both)")
