from __future__ import annotations

import json

import pytest

from hopbench import pipeline
from hopbench.config import PipelineConfig
from hopbench.corpus import Chunk, Sentence, SentenceStore
from hopbench.errors import ExtractionError
from hopbench.extract import NodeExtraction, extract_triplets
from hopbench.manifest import RunManifest
from hopbench.prompts import parse_json_reply
from hopbench.providers import ChatService, MockChatTransport


def fixture_corpus():
    sentences = [
        Sentence("d1", 1, 0, "Diabetes accumulation of AGEs."),
        Sentence("d1", 1, 1, "Unrelated filler sentence."),
    ]
    chunk = Chunk(
        chunk_id="c1",
        doc_id="d1",
        sentence_span=(0, 1),
        text="Diabetes accumulation of AGEs. Unrelated filler sentence.",
        page_anchor=1,
        embedding=(1.0, 0.0),
    )
    return [chunk], SentenceStore(sentences)


class ScriptedTransport:
    """A chat transport that answers the n-th request with the n-th reply,
    the last reply repeating, and records each request."""

    provider_id = "scripted"

    def __init__(self, *replies: str):
        self.replies = replies
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return self.replies[min(len(self.requests), len(self.replies)) - 1]


def scripted_chat(payload) -> ChatService:
    return ChatService(ScriptedTransport(json.dumps(payload)))


def test_fixture_triplet_with_valid_span_accepted():
    chunks, store = fixture_corpus()
    chat = scripted_chat(
        [{"head": "Diabetes", "relation": "accumulation of", "tail": "AGEs", "chunk_id": "c1", "sentence_index": 0}]
    )
    accepted = extract_triplets(NodeExtraction("n1"), chunks, chat, store, "default", 0)
    assert len(accepted) == 1
    assert accepted[0].head_surface == "Diabetes"
    assert accepted[0].tail_surface == "AGEs"
    assert accepted[0].evidence.chunk_id == "c1"
    assert accepted[0].evidence.sentence_span == (0, 0)
    assert accepted[0].source_node_id == "n1"


def test_triplet_absent_from_cited_sentence_rejected():
    chunks, store = fixture_corpus()
    chat = scripted_chat(
        [{"head": "Diabetes", "relation": "causes", "tail": "Melanoma", "chunk_id": "c1", "sentence_index": 0}]
    )
    report = NodeExtraction(node_id="n1")
    accepted = extract_triplets(report, chunks, chat, store, "default", 0)
    assert accepted == []
    assert report.rejected == 1
    assert report.rejection_reasons == {"surface_not_in_evidence": 1}


def test_extract_stage_stats_count_rejections_by_reason(tmp_path, monkeypatch):
    chunks, store = fixture_corpus()
    run_dir = tmp_path / "run"
    pipeline.write_artifact([pipeline.to_record(s) for s in store.sentences], run_dir / "sentences.jsonl")
    pipeline.write_artifact([pipeline.to_record(c) for c in chunks], run_dir / "chunks.jsonl")
    leaf = {"cluster_model_ref": None, "level": 0, "member_ids": {}, "node_id": "c1", "summary_text": ""}
    pipeline.write_artifact([leaf], run_dir / "tree.jsonl")
    chat = scripted_chat(
        [{"head": "Diabetes", "relation": "causes", "tail": "Melanoma", "chunk_id": "c1", "sentence_index": 0}]
    )
    monkeypatch.setattr(pipeline, "make_chat_service", lambda config, seed: chat)
    result = pipeline.run_extract(run_dir, PipelineConfig())
    assert result.stats["rejected_triplets"] == 1
    assert result.stats["rejection_reasons"] == {"surface_not_in_evidence": 1}
    assert RunManifest.load(run_dir).stages["extract"].stats == result.stats


def test_sentence_index_outside_span_rejected():
    chunks, store = fixture_corpus()
    chat = scripted_chat(
        [{"head": "Diabetes", "relation": "causes", "tail": "AGEs", "chunk_id": "c1", "sentence_index": 7}]
    )
    report = NodeExtraction(node_id="n1")
    assert extract_triplets(report, chunks, chat, store, "default", 0) == []
    assert report.rejection_reasons == {"sentence_out_of_span": 1}


def test_empty_node_returns_empty_without_calls():
    _, store = fixture_corpus()
    transport = ScriptedTransport("[]")
    assert extract_triplets(NodeExtraction("n1"), [], ChatService(transport), store, "default", 0) == []
    assert transport.requests == []


def test_unparseable_output_errors_after_two_reasks():
    transport = ScriptedTransport("not json at all")
    chunks, store = fixture_corpus()
    with pytest.raises(ExtractionError):
        extract_triplets(NodeExtraction("n1"), chunks, ChatService(transport), store, "default", 0)
    # the first ask plus two re-asks, each appending a user turn
    assert [len(request.messages) for request in transport.requests] == [1, 2, 3]


def test_reask_recovers_once_json_appears():
    good = json.dumps(
        [{"head": "Diabetes", "relation": "accumulation of", "tail": "AGEs", "chunk_id": "c1", "sentence_index": 0}]
    )
    transport = ScriptedTransport("hmm let me think", good)
    chunks, store = fixture_corpus()
    accepted = extract_triplets(NodeExtraction("n1"), chunks, ChatService(transport), store, "default", 0)
    assert len(accepted) == 1
    assert len(transport.requests) == 2


def test_parse_json_array_lenient_extraction():
    assert parse_json_reply('Sure! [{"a": 1}] done', list) == [{"a": 1}]
    assert parse_json_reply("[1, 2, 3]", list) == [1, 2, 3]
    assert parse_json_reply('{"not": "array"}', list) is None
    assert parse_json_reply("nothing here", list) is None
    # the same parser reads the JSON objects of synthesis and adjudication
    assert parse_json_reply('Here: {"a": [1]} ok', dict) == {"a": [1]}
    assert parse_json_reply("[1, 2]", dict) is None
    assert parse_json_reply("{broken", dict) is None


def test_builtin_mock_extracts_relation_sentences():
    sentences = [
        Sentence("d1", 1, 0, "Type 2 diabetes causes AGEs accumulation."),
        Sentence("d1", 1, 1, "AGEs accumulation triggers osteoblast suppression."),
    ]
    chunk = Chunk(
        chunk_id="c9",
        doc_id="d1",
        sentence_span=(0, 1),
        text=" ".join(s.text for s in sentences),
        page_anchor=1,
        embedding=(1.0, 0.0),
    )
    chat = ChatService(MockChatTransport(seed=0))
    accepted = extract_triplets(NodeExtraction("n1"), [chunk], chat, SentenceStore(sentences), "default", 0)
    pairs = {(t.head_surface, t.tail_surface) for t in accepted}
    assert ("Type 2 diabetes", "AGEs accumulation") in pairs
    assert ("AGEs accumulation", "osteoblast suppression") in pairs
