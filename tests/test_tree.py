from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from hopbench import gmm, pipeline
from hopbench.corpus import Chunk
from hopbench.errors import DegenerateFitError, ValidationError
from hopbench.providers import (
    ChatService,
    EmbeddingService,
    MockChatTransport,
    MockEmbeddingTransport,
)
from hopbench.config import PipelineConfig
from hopbench.toydata import toy_config
from hopbench.tree import SummaryTree, SummaryTreeNode, build_summary_tree

# Two clearly separated topic groups: texts within a group share one token
# bag (word order varies), so group embeddings coincide and the groups sit
# far apart - the regime the cluster-count search is built for.
METABOLIC = [
    "diabetes glucose injures bone cells",
    "glucose diabetes injures cells bone",
    "bone cells glucose injures diabetes",
    "injures bone diabetes cells glucose",
]
RESPIRATORY = [
    "bronchitis mucus blocks airway breathing",
    "mucus bronchitis airway blocks breathing",
    "airway breathing mucus blocks bronchitis",
    "blocks airway bronchitis breathing mucus",
]


class CountingChat(MockChatTransport):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return super().complete(request)


def make_chunks(texts: list[str], embedder: EmbeddingService) -> list[Chunk]:
    vectors = embedder.embed_texts(texts)
    return [
        Chunk(
            chunk_id=f"c{i:03d}",
            doc_id="d1",
            sentence_span=(i, i),
            text=text,
            page_anchor=1,
            embedding=vector,
        )
        for i, (text, vector) in enumerate(zip(texts, vectors))
    ]


def level_nodes(tree: SummaryTree, level: int) -> list[SummaryTreeNode]:
    return [node for node in tree.nodes.values() if node.level == level]


def small_config(seed: int = 0) -> PipelineConfig:
    return PipelineConfig(target_dim=3, gmm_k_max=4, gmm_restarts=2, max_levels=3, seed=seed)


def test_single_chunk_tree_no_llm_calls():
    embedder = EmbeddingService(MockEmbeddingTransport(dimension=16, seed=0))
    chat_transport = CountingChat(seed=0)
    chunks = make_chunks(["only one chunk"], embedder)
    tree = build_summary_tree(chunks, ChatService(chat_transport), embedder, small_config())
    assert len(tree.nodes) == 1
    assert tree.nodes["c000"].level == 0
    assert chat_transport.calls == 0


def test_two_topic_groups_form_two_level1_nodes():
    embedder = EmbeddingService(MockEmbeddingTransport(dimension=32, seed=1))
    chunks = make_chunks(METABOLIC + RESPIRATORY, embedder)
    tree = build_summary_tree(chunks, ChatService(MockChatTransport(seed=0)), embedder, small_config(seed=3))
    level1 = level_nodes(tree, 1)
    assert len(level1) == 2
    member_sets = [set(node.member_ids) for node in level1]
    metabolic_ids = {f"c{i:03d}" for i in range(4)}
    respiratory_ids = {f"c{i:03d}" for i in range(4, 8)}
    assert metabolic_ids in member_sets
    assert respiratory_ids in member_sets
    for node in level1:
        assert node.summary_text
        assert node.cluster_model_ref


def test_soft_members_rule_floor_and_argmax():
    import numpy as np

    from hopbench.tree import soft_members

    gamma = np.array([[0.6, 0.4], [0.97, 0.03]])
    members = soft_members(gamma, ["c1", "c2"], membership_floor=0.1)
    # 0.6/0.4 clears the floor on both sides -> both parents list the chunk
    assert members[0]["c1"] == pytest.approx(0.6)
    assert members[1]["c1"] == pytest.approx(0.4)
    # 0.03 is under the floor, but the argmax cluster always keeps the chunk
    assert members[0]["c2"] == pytest.approx(0.97)
    assert "c2" not in members[1]


def test_soft_membership_lists_chunk_under_multiple_parents():
    embedder = EmbeddingService(MockEmbeddingTransport(dimension=32, seed=1))
    bridging = "diabetes glucose harms airway breathing mucus bone"
    chunks = make_chunks(METABOLIC + RESPIRATORY + [bridging], embedder)
    config = PipelineConfig(target_dim=3, gmm_k_max=3, gmm_restarts=2, max_levels=2, membership_floor=0.05, seed=5)
    tree = build_summary_tree(chunks, ChatService(MockChatTransport(seed=0)), embedder, config)
    level1 = level_nodes(tree, 1)
    parent_count = sum(1 for node in level1 if "c008" in node.member_ids)
    total_weight = sum(node.member_ids.get("c008", 0.0) for node in level1)
    assert parent_count >= 1
    assert total_weight <= 1.0 + 1e-9


def test_tree_validation_rejects_level_skips():
    tree = SummaryTree()
    tree.add(SummaryTreeNode(node_id="leaf", level=0, member_ids={}, summary_text=""))
    tree.add(SummaryTreeNode(node_id="top", level=2, member_ids={"leaf": 1.0}, summary_text="s"))
    with pytest.raises(ValidationError):
        tree.validate()


def test_tree_validation_rejects_overweight_children():
    tree = SummaryTree()
    tree.add(SummaryTreeNode(node_id="leaf", level=0, member_ids={}, summary_text=""))
    tree.add(SummaryTreeNode(node_id="p1", level=1, member_ids={"leaf": 0.7}, summary_text="s"))
    tree.add(SummaryTreeNode(node_id="p2", level=1, member_ids={"leaf": 0.7}, summary_text="s"))
    with pytest.raises(ValidationError):
        tree.validate()


def test_leaf_ids_resolve_through_levels():
    embedder = EmbeddingService(MockEmbeddingTransport(dimension=32, seed=1))
    chunks = make_chunks(METABOLIC + RESPIRATORY, embedder)
    tree = build_summary_tree(chunks, ChatService(MockChatTransport(seed=0)), embedder, small_config(seed=3))
    top = level_nodes(tree, tree.max_level())
    covered = set()
    for node in top:
        covered.update(tree.leaf_ids(node.node_id))
    assert covered == {f"c{i:03d}" for i in range(8)}


def test_empty_chunk_list_rejected():
    embedder = EmbeddingService(MockEmbeddingTransport(dimension=16, seed=0))
    with pytest.raises(ValidationError):
        build_summary_tree([], ChatService(MockChatTransport(seed=0)), embedder, small_config())


def test_provider_failure_raises_the_transport_error():
    from hopbench.errors import TransportError

    class FailingChat(MockChatTransport):
        def complete(self, request):
            raise TransportError("summary endpoint down")

    embedder = EmbeddingService(MockEmbeddingTransport(dimension=32, seed=1))
    chunks = make_chunks(METABOLIC + RESPIRATORY, embedder)
    with pytest.raises(TransportError, match="summary endpoint down"):
        build_summary_tree(chunks, ChatService(FailingChat(seed=0)), embedder, small_config(seed=3))


def test_builds_are_deterministic():
    embedder = EmbeddingService(MockEmbeddingTransport(dimension=32, seed=1))
    chunks = make_chunks(METABOLIC + RESPIRATORY, embedder)
    first = build_summary_tree(chunks, ChatService(MockChatTransport(seed=0)), embedder, small_config(seed=3))
    second = build_summary_tree(chunks, ChatService(MockChatTransport(seed=0)), embedder, small_config(seed=3))
    assert {n.node_id for n in first.nodes.values()} == {n.node_id for n in second.nodes.values()}
    for node_id, node in first.nodes.items():
        assert second.nodes[node_id].member_ids == node.member_ids
        assert second.nodes[node_id].summary_text == node.summary_text


def topic_chunks(embedder: EmbeddingService) -> list[Chunk]:
    """24 chunks over six topics, enough for a search of several K per level."""
    words = "renal cardiac hepatic neural dermal ocular".split()
    texts = [f"{w} finding {i} case {i % 3} grade {i % 2}" for i, w in enumerate(words * 4)]
    return make_chunks(texts, embedder)


def tree_record(tree: SummaryTree) -> tuple:
    nodes = sorted((n.node_id, n.level, n.member_ids, n.summary_text) for n in tree.nodes.values())
    return nodes, tree.level_reports


def test_a_tree_on_one_cpu_equals_the_pooled_tree_and_no_worker_outlives_it(monkeypatch, pools_started):
    embedder = EmbeddingService(MockEmbeddingTransport(dimension=32, seed=1))
    chunks = topic_chunks(embedder)
    config = PipelineConfig(target_dim=4, gmm_k_max=8, gmm_restarts=2, max_levels=3, seed=2)
    built = {}
    for cpus in ({0, 1}, {0}):
        pools_started.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid, cpus=cpus: cpus, raising=False)
        tree = build_summary_tree(chunks, ChatService(MockChatTransport(seed=0)), embedder, config)
        assert multiprocessing.active_children() == []
        # Every level searches at least two K values: one pool each on two CPUs.
        assert pools_started == ([2] * len(tree.level_reports) if len(cpus) == 2 else [])
        built[len(cpus)] = tree_record(tree)
    assert built[2] == built[1]
    assert built[1][1][0]["k_star"] > 1
    assert len(built[1][1]) > 1


def test_the_toy_tree_pools_on_two_cpus_and_writes_what_one_cpu_writes(tmp_path, monkeypatch, pools_started):
    config = toy_config(7)
    for cpus in ({0, 1}, {0}):
        pools_started.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid, cpus=cpus: cpus, raising=False)
        for run in (pipeline.run_ingest, pipeline.run_chunk, pipeline.run_tree):
            assert run(tmp_path / str(len(cpus)), config).status == "ok"
        levels = json.loads((tmp_path / str(len(cpus)) / "gmm_report.json").read_text(encoding="utf-8"))["levels"]
        assert levels
        assert pools_started == ([2] * len(levels) if len(cpus) == 2 else [])
    for name in ("tree.jsonl", "gmm_report.json"):
        assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes(), name


def test_a_fit_that_raises_in_a_worker_ends_the_tree_and_its_workers(monkeypatch, pools_started):
    fit = gmm.fit_gmm_em

    def collapses(points, K, seed):
        if K == 2 and multiprocessing.parent_process() is not None:
            raise DegenerateFitError("component 1 covariance not positive definite")
        return fit(points, K, seed)

    monkeypatch.setattr(gmm, "fit_gmm_em", collapses)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
    embedder = EmbeddingService(MockEmbeddingTransport(dimension=32, seed=1))
    config = PipelineConfig(target_dim=4, gmm_k_max=8, gmm_restarts=2, max_levels=3, seed=2)
    with pytest.raises(DegenerateFitError, match="component 1"):
        build_summary_tree(topic_chunks(embedder), ChatService(MockChatTransport(seed=0)), embedder, config)
    assert pools_started == [2]
    assert multiprocessing.active_children() == []
