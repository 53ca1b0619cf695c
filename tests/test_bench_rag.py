"""Micro-benchmarks of retrieval ranking (pytest-benchmark). Marked ``bench``:
the default run deselects them; ``pytest -m bench`` runs them, and adding
``--benchmark-disable`` runs each once as a test. The index holds 10,000
chunks of the default 32-dimensional mock embeddings, four times the
``evaluate`` benchmark's 2,500-chunk corpus."""

from __future__ import annotations

import numpy as np
import pytest

from hopbench.config import PipelineConfig
from hopbench.corpus import Chunk
from hopbench.rag import CorpusIndex

pytestmark = pytest.mark.bench


def chunks(n: int = 10_000, d: int = 32, seed: int = 0) -> dict[str, Chunk]:
    """Chunk id to chunk, the form ``chunks.jsonl`` decodes to."""
    rows = np.random.default_rng(seed).standard_normal((n, d))
    return {
        f"c{i:05d}": Chunk(chunk_id=f"c{i:05d}", doc_id=f"d{i // 10:04d}", sentence_span=(0, 0), text=f"chunk {i}",
                           page_anchor=1, embedding=tuple(row.tolist()))
        for i, row in enumerate(rows)
    }


def test_corpus_index_construction(benchmark):
    corpus = chunks()
    index = benchmark(CorpusIndex, corpus)
    assert len(index.chunks) == 10_000


def test_corpus_index_rank(benchmark):
    index = CorpusIndex(chunks())
    query = np.random.default_rng(1).standard_normal(32)
    top_k = PipelineConfig().coarse_pool
    ranked = benchmark(index.rank, query, top_k)
    scores = [float(np.dot(c.embedding, query) / np.linalg.norm(c.embedding)) for c in ranked]
    assert len(ranked) == top_k and scores == sorted(scores, reverse=True)
