from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopbench.corpus import (
    Document,
    Page,
    Sentence,
    SentenceStore,
    clean_text,
    nearest_rank_percentile,
    semantic_chunk,
    split_sentences,
)
from hopbench.errors import ValidationError


def same_rows(n: int) -> np.ndarray:
    return np.tile([1.0, 0.0], (n, 1))


def at_angles(angles: list[float]) -> np.ndarray:
    """One 2-d unit row per angle."""
    return np.array([[math.cos(theta), math.sin(theta)] for theta in angles])


def sentences_of(n: int, doc_id: str = "d1") -> list[Sentence]:
    return [Sentence(doc_id, 1, i, f"Sentence {i}.") for i in range(n)]


# -- clean_text ---------------------------------------------------------------


def test_clean_joins_hyphenated_line_breaks():
    assert clean_text("hyper-\ntension") == "hypertension"


def test_clean_normalizes_whitespace():
    assert clean_text("a  b\t c") == "a b c"


def test_clean_is_idempotent_on_clean_text():
    cleaned = clean_text("already clean text.")
    assert clean_text(cleaned) == cleaned


def test_clean_strips_control_characters():
    assert clean_text("a\x07b\x00c") == "a b c"


@given(st.text(max_size=200))
def test_clean_idempotent_property(raw):
    once = clean_text(raw)
    assert clean_text(once) == once


# -- split_sentences ----------------------------------------------------------


def make_doc(text: str, language: str = "EN") -> Document:
    return Document(doc_id="d1", language=language, pages=(Page(1, clean_text(text)),))


def test_split_on_ascii_terminators():
    sentences = split_sentences(make_doc("A. B? C!"))
    assert [s.text for s in sentences] == ["A.", "B?", "C!"]


def test_split_on_cjk_terminators():
    sentences = split_sentences(make_doc("早期发现。及时治疗!", language="ZH"))
    assert [s.text for s in sentences] == ["早期发现。", "及时治疗!"]


def test_no_terminator_yields_single_sentence():
    sentences = split_sentences(make_doc("no terminator here"))
    assert [s.text for s in sentences] == ["no terminator here"]


def test_empty_document_yields_empty_list():
    assert split_sentences(make_doc("")) == []


def test_sentence_indexes_unique_and_ordered():
    doc = Document(
        doc_id="d1",
        language="EN",
        pages=(Page(1, "One. Two."), Page(2, "Three. Four.")),
    )
    sentences = split_sentences(doc)
    assert [s.sentence_index for s in sentences] == [0, 1, 2, 3]
    assert [s.page_number for s in sentences] == [1, 1, 2, 2]


# -- nearest-rank percentile ---------------------------------------------------


def brute_force_nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1]


def test_percentile_oracle_on_spec_distances():
    distances = [0.1, 0.1, 0.9, 0.1]
    assert nearest_rank_percentile(distances, 95) == 0.9
    assert nearest_rank_percentile(distances, 95) == brute_force_nearest_rank(distances, 95)


def test_percentile_matches_oracle_on_random_multisets():
    rng = random.Random(0)
    for _ in range(200):
        values = [rng.random() for _ in range(rng.randint(1, 30))]
        p = rng.choice([5, 25, 50, 75, 90, 95, 100])
        assert nearest_rank_percentile(values, p) == brute_force_nearest_rank(values, p)


# -- semantic_chunk -----------------------------------------------------------


def test_identical_embeddings_give_single_chunk():
    n = 5
    chunks = semantic_chunk(sentences_of(n), same_rows(n), 95.0, 64)
    assert len(chunks) == 1
    assert chunks[0].sentence_span == (0, 4)


def test_spec_distance_pattern_breaks_after_third_sentence():
    # Consecutive distances [0.1, 0.1, 0.9, 0.1]: nearest-rank P95 = 0.9, so
    # the only boundary falls after the third sentence.
    angles = [0.0]
    for d in [0.1, 0.1, 0.9, 0.1]:
        angles.append(angles[-1] + math.acos(1 - d))
    embeddings = at_angles(angles)
    chunks = semantic_chunk(sentences_of(5), embeddings, percentile=95, max_sentences=64)
    assert [c.sentence_span for c in chunks] == [(0, 2), (3, 4)]


def test_percentile_100_breaks_only_at_maximum():
    distances = [0.05, 0.1, 0.2, 0.4]
    angles = [0.0]
    for d in distances:
        angles.append(angles[-1] + math.acos(1 - d))
    embeddings = at_angles(angles)
    chunks = semantic_chunk(sentences_of(5), embeddings, percentile=100, max_sentences=64)
    assert [c.sentence_span for c in chunks] == [(0, 3), (4, 4)]


def test_embedding_count_mismatch_is_validation_error():
    with pytest.raises(ValidationError):
        semantic_chunk(sentences_of(3), same_rows(2), 95.0, 64)


def test_single_sentence_single_chunk():
    chunks = semantic_chunk(sentences_of(1), same_rows(1), 95.0, 64)
    assert len(chunks) == 1


def test_max_sentences_forces_breaks():
    chunks = semantic_chunk(sentences_of(10), same_rows(10), percentile=95.0, max_sentences=4)
    assert [c.sentence_span for c in chunks] == [(0, 3), (4, 7), (8, 9)]


def _random_embeddings(rng: random.Random, n: int) -> np.ndarray:
    angles = []
    angle = 0.0
    for _ in range(n):
        angle += rng.random()
        angles.append(angle)
    return at_angles(angles)


def test_partition_property_on_random_documents():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 40)
        sentences = sentences_of(n)
        embeddings = _random_embeddings(rng, n)
        chunks = semantic_chunk(sentences, embeddings, percentile=rng.choice([50, 90, 95]), max_sentences=64)
        covered = []
        for chunk in chunks:
            covered.extend(range(chunk.sentence_span[0], chunk.sentence_span[1] + 1))
        assert covered == list(range(n))  # contiguous, non-overlapping, covering


def test_threshold_monotonicity():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(2, 40)
        embeddings = _random_embeddings(rng, n)
        sentences = sentences_of(n)
        counts = [
            len(semantic_chunk(sentences, embeddings, percentile=p, max_sentences=64))
            for p in (50, 75, 90, 95, 100)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_chunk_text_matches_sentence_store_resolution():
    rng = random.Random(3)
    n = 12
    sentences = sentences_of(n)
    store = SentenceStore(sentences)
    chunks = semantic_chunk(sentences, _random_embeddings(rng, n), percentile=75, max_sentences=64)
    for chunk in chunks:
        assert chunk.text == store.span_text(chunk.doc_id, chunk.sentence_span)


def test_chunk_embedding_is_renormalized_mean():
    # Distances [0.2, 0.8]: the P100 boundary falls only after sentence 1,
    # so sentences 0-1 merge and their chunk embedding is the unit mean.
    angles = [0.0, math.acos(0.8), math.acos(0.8) + math.acos(0.2)]
    embeddings = at_angles(angles)
    chunks = semantic_chunk(sentences_of(3), embeddings, percentile=100, max_sentences=64)
    assert [c.sentence_span for c in chunks] == [(0, 1), (2, 2)]
    mean = (embeddings[0] + embeddings[1]) / 2
    expected = mean / np.linalg.norm(mean)
    assert np.allclose(np.asarray(chunks[0].embedding), expected)


def test_document_page_numbers_must_increase():
    with pytest.raises(ValidationError):
        Document(doc_id="d", language="EN", pages=(Page(2, "a"), Page(1, "b")))
