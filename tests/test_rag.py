from __future__ import annotations

import numpy as np
import pytest

from hopbench.config import PipelineConfig
from hopbench.corpus import Chunk
from hopbench.errors import StageError, ValidationError
from hopbench.providers import EmbeddingService, MockEmbeddingTransport
from hopbench.rag import CorpusIndex, build_rag_context, context_passages
from hopbench.synthesis import QAItem


def chunk_of(chunk_id: str, text: str, embedder: EmbeddingService) -> Chunk:
    return Chunk(
        chunk_id=chunk_id,
        doc_id="d1",
        sentence_span=(0, 0),
        text=text,
        page_anchor=1,
        embedding=tuple(embedder.embed_texts([text])[0]),
    )


def by_id(chunks: list[Chunk]) -> dict[str, Chunk]:
    """Chunk id to chunk, the form ``chunks.jsonl`` decodes to."""
    return {c.chunk_id: c for c in chunks}


def question_vector(item: QAItem, embedder: EmbeddingService) -> np.ndarray:
    return embedder.embed_texts([item.question])[0]


def context_of(item: QAItem, chunks: dict[str, Chunk], embedder: EmbeddingService, config: PipelineConfig):
    """The item's context record and its passage texts, ranked as `retrieve` ranks."""
    candidates = CorpusIndex(chunks).rank(question_vector(item, embedder), config.coarse_pool)
    record = build_rag_context(item, candidates, chunks, config)
    return record, context_passages(record, chunks)


def item_with_golden(golden_chunk_id: str, question: str, language: str = "EN") -> QAItem:
    return QAItem(
        qa_id="qa1",
        language=language,
        difficulty="hard",
        clinical_task="Clinical Diagnosis",
        question=question,
        options=["a", "b", "c", "d"],
        answer_index=0,
        hard_negative_index=1,
        masked_entity={"canonical": "m", "aliases": []},
        rationale="r",
        evidence_anchors=[
            {"hop": "hop1", "chunk_id": golden_chunk_id, "sentence_span": [0, 0], "page_anchor": 1},
            {"hop": "hop2", "chunk_id": golden_chunk_id, "sentence_span": [0, 0], "page_anchor": 1},
        ],
        chain_ref="k",
    )


@pytest.fixture
def embedder() -> EmbeddingService:
    return EmbeddingService(MockEmbeddingTransport(dimension=16, seed=0))


@pytest.fixture
def toy_chunks(embedder) -> dict[str, Chunk]:
    texts = [
        "diabetes harms bone quality",
        "diabetes drives sorbitol pathways",
        "bronchitis obstructs airways",
        "hypertension strains kidneys",
        "thrombus causes stroke",
        "stroke impairs movement",
        "glucose alters vessels",
        "bacteria colonize airways",
        "filtration declines with damage",
        "diabetes worsens fracture outcomes",
    ]
    return by_id([chunk_of(f"c{i}", t, embedder) for i, t in enumerate(texts)])


def test_k_one_context_is_exactly_the_golden_paragraph(toy_chunks, embedder):
    item = item_with_golden("c0", "what does diabetes do to bone?")
    record, documents = context_of(item, toy_chunks, embedder, PipelineConfig(coarse_pool=5, context_k=1))
    assert documents == [toy_chunks["c0"].text]
    assert record["golden_position"] == 0


def test_fixed_seed_fixes_golden_position(toy_chunks, embedder):
    item = item_with_golden("c0", "what does diabetes do to bone?")
    config = PipelineConfig(coarse_pool=6, context_k=4, seed=99)
    positions = {context_of(item, toy_chunks, embedder, config)[0]["golden_position"] for _ in range(5)}
    assert len(positions) == 1


def test_non_golden_slots_are_top_cosine_neighbors(toy_chunks, embedder):
    # Exhaustive cosine ranking oracle over the 10-chunk corpus: with K=5,
    # k=3 the two non-golden slots must be the best non-golden chunks.
    question = "what does diabetes do to bone?"
    item = item_with_golden("c0", question)
    config = PipelineConfig(coarse_pool=5, context_k=3, seed=0)
    record, documents = context_of(item, toy_chunks, embedder, config)

    query = embedder.embed_texts([question])[0]
    scored = []
    for chunk in toy_chunks.values():
        vector = np.asarray(chunk.embedding)
        score = float(np.dot(query, vector) / (np.linalg.norm(query) * np.linalg.norm(vector)))
        scored.append((score, chunk.chunk_id, chunk.text))
    scored.sort(reverse=True)
    oracle_top = [text for _, chunk_id, text in scored if chunk_id != "c0"][:2]

    non_golden = [d for i, d in enumerate(documents) if i != record["golden_position"]]
    assert non_golden == oracle_top


def test_golden_paragraph_appears_exactly_once(toy_chunks, embedder):
    item = item_with_golden("c0", "diabetes and bone")
    for seed in range(20):
        config = PipelineConfig(coarse_pool=8, context_k=5, seed=seed)
        record, documents = context_of(item, toy_chunks, embedder, config)
        golden_text = toy_chunks["c0"].text
        assert documents.count(golden_text) == 1
        assert documents[record["golden_position"]] == golden_text
        assert len(documents) == 5


def test_corpus_smaller_than_context_rejected(embedder):
    chunks = by_id([chunk_of("c0", "only one chunk", embedder)])
    item = item_with_golden("c0", "q")
    with pytest.raises(ValidationError):
        context_of(item, chunks, embedder, PipelineConfig(context_k=2))


def test_unresolvable_golden_is_stage_error(toy_chunks, embedder):
    item = item_with_golden("c404", "q")
    with pytest.raises(StageError):
        context_of(item, toy_chunks, embedder, PipelineConfig(context_k=3))


def test_reranker_can_reorder_candidates(toy_chunks, embedder):
    item = item_with_golden("c0", "airways bacteria colonize")
    config = PipelineConfig(coarse_pool=10, context_k=3, use_reranker=True, seed=1)
    record, documents = context_of(item, toy_chunks, embedder, config)
    non_golden = [d for i, d in enumerate(documents) if i != record["golden_position"]]
    assert "bacteria colonize airways" in non_golden  # highest token overlap


def test_reranker_tokenizes_in_the_item_language(embedder):
    # Cosine ranks the chunk without a shared character first and the one
    # holding every character of the question last; token overlap, counted
    # in Chinese characters, reverses them. Counted as English words, a
    # Chinese text has no tokens and the reranker would keep cosine's order.
    question = "糖尿病导致肾病"
    query = embedder.embed_texts([question])[0]
    chunks = by_id(
        [
            chunk_with_vector("c0", "天气晴朗", -query),
            chunk_with_vector("c1", "高血压", query),
            chunk_with_vector("c2", "糖尿病导致肾病变", -query),
        ]
    )
    item = item_with_golden("c0", question, language="ZH")

    def distractor(use_reranker: bool) -> str:
        config = PipelineConfig(coarse_pool=3, context_k=2, use_reranker=use_reranker)
        record, _documents = context_of(item, chunks, embedder, config)
        [chunk_id] = [c for i, c in enumerate(record["chunk_ids"]) if i != record["golden_position"]]
        return chunk_id

    assert distractor(use_reranker=False) == "c1"
    assert distractor(use_reranker=True) == "c2"


def test_retrieval_config_validation():
    # The retrieval settings are checked where they are defined.
    for settings in ({"context_k": 0}, {"coarse_pool": 2, "context_k": 3}):
        with pytest.raises(ValidationError):
            PipelineConfig(**settings).validate()


def chunk_with_vector(chunk_id: str, text: str, vector: np.ndarray) -> Chunk:
    return Chunk(
        chunk_id=chunk_id,
        doc_id="d1",
        sentence_span=(0, 0),
        text=text,
        page_anchor=1,
        embedding=tuple(vector),
    )


def index_of_rows(matrix: np.ndarray) -> CorpusIndex:
    return CorpusIndex(
        by_id(
            [
                Chunk(
                    chunk_id=f"c{i:03d}",
                    doc_id="d1",
                    sentence_span=(0, 0),
                    text=f"chunk {i}",
                    page_anchor=1,
                    embedding=tuple(row),
                )
                for i, row in enumerate(matrix)
            ]
        )
    )


@pytest.mark.parametrize("seed", range(6))
def test_rank_equals_the_stable_full_sort_prefix(seed):
    # Duplicated chunk vectors score exactly alike, so for some k a tie group
    # straddles position k; every k from 1 to past the corpus size is tried.
    rng = np.random.default_rng(seed)
    distinct = rng.normal(size=(9, 6))
    distinct[0] = 0.0  # a zero chunk vector scores 0 against every query
    matrix = distinct[rng.integers(0, len(distinct), size=40)]
    index = index_of_rows(matrix)
    for query in (rng.normal(size=6), np.zeros(6)):  # a zero query scores every chunk 0
        norm = np.linalg.norm(query)
        scores = index._matrix @ (query / norm if norm > 0 else query)
        straddled = 0
        for k in range(1, len(matrix) + 3):
            expected = [f"c{i:03d}" for i in np.argsort(-scores, kind="stable")[:k]]
            assert [c.chunk_id for c in index.rank(query, k)] == expected, k
            if k < len(scores):
                straddled += int(np.sort(-scores)[k - 1] == np.sort(-scores)[k])
        assert straddled > 0  # ties did straddle position k


def test_rank_with_a_non_finite_score_falls_back_to_the_full_sort():
    matrix = np.random.default_rng(1).normal(size=(12, 4))
    matrix[5, 2] = np.nan
    index = index_of_rows(matrix)
    query = np.ones(4)
    scores = index._matrix @ (query / np.linalg.norm(query))
    for k in (1, 3, 11):
        expected = [f"c{i:03d}" for i in np.argsort(-scores, kind="stable")[:k]]
        assert [c.chunk_id for c in index.rank(query, k)] == expected


def test_context_record_round_trip(toy_chunks, embedder):
    item = item_with_golden("c0", "diabetes and bone")
    record, documents = context_of(item, toy_chunks, embedder, PipelineConfig(context_k=4, seed=3))
    assert set(record) == {"qa_id", "chunk_ids", "golden_position"}
    assert record["chunk_ids"][record["golden_position"]] == "c0"
    assert documents == [toy_chunks[c].text for c in record["chunk_ids"]]
    assert documents[record["golden_position"]] == toy_chunks["c0"].text
    with pytest.raises(StageError):
        context_passages(record, {"c0": toy_chunks["c0"]})
