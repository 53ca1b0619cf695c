"""Retrieval-augmented context assembly.

Two-stage retrieval: a coarse cosine pass over the chunk index picks a
candidate pool, an optional reranker keeps the most relevant subset, and the
final context embeds the golden paragraph (the hop evidence that names the
masked bridge) at a seeded-random position among the top-ranked distractor
passages.

Contexts depend on the question, the corpus and the retrieval config, not on
the model answering, so a run builds them once (the ``retrieve`` stage writes
their chunk ids to ``rag_contexts.jsonl``) and every model's RAG evaluation
reads them back with ``RagContext.from_record``."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import PipelineConfig
from .corpus import Chunk
from .errors import StageError, ValidationError
from .seeding import derive_seed
from .synthesis import QAItem
from .textstats import tokenize


@dataclass
class RagContext:
    qa_id: str
    chunk_ids: list[str]
    documents: list[str]
    golden_position: int

    def to_record(self) -> dict:
        """The stored form: chunk ids in prompt order, not their texts."""
        return {
            "qa_id": self.qa_id,
            "chunk_ids": self.chunk_ids,
            "golden_position": self.golden_position,
        }

    @classmethod
    def from_record(cls, record: dict, texts: Mapping[str, str]) -> "RagContext":
        """Rebuild a stored context; ``texts`` maps chunk id to chunk text."""
        chunk_ids = list(record["chunk_ids"])
        missing = [c for c in chunk_ids if c not in texts]
        if missing:
            raise StageError(f"{record['qa_id']}: context chunks {missing} are not in the corpus")
        return cls(
            qa_id=record["qa_id"],
            chunk_ids=chunk_ids,
            documents=[texts[c] for c in chunk_ids],
            golden_position=record["golden_position"],
        )


def token_overlap_scores(query: str, passages: Sequence[str], language: str) -> list[float]:
    """The offline reranker: the share of the query's tokens, in ``language``,
    that each passage holds."""
    query_tokens = set(tokenize(query, language))
    out = []
    for passage in passages:
        tokens = set(tokenize(passage, language))
        out.append(len(query_tokens & tokens) / (len(query_tokens) or 1))
    return out


class CorpusIndex:
    """The chunks' embedding matrix, rows normalized, for cosine ranking."""

    def __init__(self, chunks: list[Chunk]):
        if not chunks:
            raise ValidationError("corpus index needs at least one chunk")
        self.chunks = list(chunks)
        matrix = np.asarray([c.embedding for c in chunks], dtype=np.float64)
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        self._matrix = matrix / norms
        self._by_id = {c.chunk_id: c for c in chunks}

    def __len__(self) -> int:
        return len(self.chunks)

    def chunk(self, chunk_id: str) -> Chunk | None:
        return self._by_id.get(chunk_id)

    def rank(self, query_vector: np.ndarray, top_k: int) -> list[Chunk]:
        """The ``top_k`` chunks by cosine score, best first, ties in corpus
        order: exactly ``np.argsort(-scores, kind="stable")[:top_k]``. Only
        the chunks scoring at least the k-th best score are sorted."""
        query = np.asarray(query_vector, dtype=np.float64)
        norm = np.linalg.norm(query)
        if norm > 0:
            query = query / norm
        negated = -(self._matrix @ query)
        if 0 < top_k < len(negated) and np.isfinite(negated).all():
            kth = np.partition(negated, top_k - 1)[top_k - 1]
            candidates = np.flatnonzero(negated <= kth)  # every tie with the k-th, in corpus order
            order = candidates[np.argsort(negated[candidates], kind="stable")[:top_k]]
        else:
            order = np.argsort(negated, kind="stable")[:top_k]
        return [self.chunks[int(i)] for i in order]


def build_rag_context(
    item: QAItem,
    index: CorpusIndex,
    query_vector: np.ndarray,
    config: PipelineConfig,
) -> RagContext:
    """Assemble the ``context_k``-document context with the golden paragraph
    embedded; ``query_vector`` embeds the item's question.

    The golden paragraph is the hop-2 evidence chunk (it states the masked
    bridge and the target). The remaining k-1 slots take the highest-ranked
    non-golden passages of the ``coarse_pool`` best by cosine, reranked by
    token overlap in the item's language when ``use_reranker`` is set and cut
    to ``rerank_keep``; the insertion position is seeded-uniform."""
    k = config.context_k
    if len(index) < k:
        raise ValidationError(f"corpus has {len(index)} chunks, fewer than context size {k}")

    golden_anchor = item.evidence_anchors[-1]
    golden_chunk = index.chunk(golden_anchor["chunk_id"])
    if golden_chunk is None:
        raise StageError(f"{item.qa_id}: golden paragraph {golden_anchor['chunk_id']} unresolvable")

    candidates = index.rank(query_vector, config.coarse_pool)
    if config.use_reranker:
        scores = token_overlap_scores(item.question, [c.text for c in candidates], item.language)
        ranked = [c for _, c in sorted(zip(scores, candidates), key=lambda t: -t[0])]
    else:
        ranked = candidates
    kept = ranked[: config.rerank_keep]

    distractors = [c for c in kept if c.chunk_id != golden_chunk.chunk_id]
    if len(distractors) < k - 1:
        extras = [
            c
            for c in index.chunks
            if c.chunk_id != golden_chunk.chunk_id and all(c.chunk_id != d.chunk_id for d in distractors)
        ]
        distractors.extend(extras)
    passages = distractors[: k - 1]

    rng = random.Random(derive_seed(config.seed, "golden-position", item.qa_id))
    golden_position = rng.randrange(k)
    passages.insert(golden_position, golden_chunk)

    return RagContext(
        qa_id=item.qa_id,
        chunk_ids=[c.chunk_id for c in passages],
        documents=[c.text for c in passages],
        golden_position=golden_position,
    )
