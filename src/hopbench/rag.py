"""Retrieval-augmented context assembly.

Two-stage retrieval: a coarse cosine pass over the chunk index picks a
candidate pool, an optional reranker reorders it, and the final context
embeds the golden paragraph (the hop evidence that names the masked bridge)
at a seeded-random position among the best-ranked distractor passages.

A context is its chunk ids from retrieval to prompt. Contexts depend on the
question, the corpus and the retrieval config, not on the model answering,
so a run builds them once: the ``retrieve`` stage ranks each distinct
question once and writes each item's record (chunk ids in prompt order,
golden position) to ``rag_contexts.jsonl``, and every model's RAG evaluation
turns a record into its passage texts with ``context_passages``."""

from __future__ import annotations

import random
from typing import Mapping, Sequence

import numpy as np

from .config import PipelineConfig
from .corpus import Chunk
from .errors import StageError, ValidationError
from .seeding import derive_seed
from .synthesis import QAItem
from .textstats import tokenize


def context_passages(record: dict, chunks: Mapping[str, Chunk]) -> list[str]:
    """The passage texts of a stored context, in prompt order; ``chunks``
    maps chunk id to chunk. An id missing from the corpus is refused."""
    missing = [c for c in record["chunk_ids"] if c not in chunks]
    if missing:
        raise StageError(f"{record['qa_id']}: context chunks {missing} are not in the corpus")
    return [chunks[c].text for c in record["chunk_ids"]]


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
    """The chunks' embedding matrix, rows normalized and in corpus order, for
    cosine ranking; ``chunks`` maps chunk id to chunk."""

    def __init__(self, chunks: Mapping[str, Chunk]):
        if not chunks:
            raise ValidationError("corpus index needs at least one chunk")
        self.chunks = list(chunks.values())
        matrix = np.asarray([c.embedding for c in self.chunks], dtype=np.float64)
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        self._matrix = matrix / norms

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
    candidates: Sequence[Chunk],
    chunks: Mapping[str, Chunk],
    config: PipelineConfig,
) -> dict:
    """The stored record of the item's ``context_k``-document context, with
    the golden paragraph embedded: ``qa_id``, ``chunk_ids`` in prompt order
    and ``golden_position``. ``candidates`` are the ``coarse_pool`` chunks
    that rank best by cosine against the item's question; ``chunks`` maps
    chunk id to chunk.

    The golden paragraph is the hop-2 evidence chunk (it states the masked
    bridge and the target). The remaining k-1 slots take the highest-ranked
    non-golden candidates, reranked by token overlap in the item's language
    when ``use_reranker`` is set: at most one candidate is golden and there
    are ``min(coarse_pool, chunks) >= k`` of them, so they fill every slot.
    The insertion position is seeded-uniform."""
    k = config.context_k
    if len(chunks) < k:
        raise ValidationError(f"corpus has {len(chunks)} chunks, fewer than context size {k}")

    golden_id = item.evidence_anchors[-1]["chunk_id"]
    if golden_id not in chunks:
        raise StageError(f"{item.qa_id}: golden paragraph {golden_id} unresolvable")

    if config.use_reranker:
        scores = token_overlap_scores(item.question, [c.text for c in candidates], item.language)
        ranked = [c for _, c in sorted(zip(scores, candidates), key=lambda t: -t[0])]
    else:
        ranked = candidates
    chunk_ids = [c.chunk_id for c in ranked if c.chunk_id != golden_id][: k - 1]

    rng = random.Random(derive_seed(config.seed, "golden-position", item.qa_id))
    golden_position = rng.randrange(k)
    chunk_ids.insert(golden_position, golden_id)
    return {"qa_id": item.qa_id, "chunk_ids": chunk_ids, "golden_position": golden_position}
