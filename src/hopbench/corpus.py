"""Document ingestion, OCR cleanup, sentence splitting, and semantic chunking.

Chunk boundaries are placed where the cosine distance between consecutive
sentence embeddings reaches the nearest-rank percentile threshold of that
document's distance multiset, so topically coherent passages stay together.
"""

from __future__ import annotations

import math
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError

PAGE_BREAK = re.compile(r"\f|^\s*=== *page *break *===\s*$", flags=re.IGNORECASE | re.MULTILINE)

_HYPHEN_BREAK = re.compile(r"(\w)-[ \t]*\n[ \t]*(\w)")
_CONTROL = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]")
_WHITESPACE = re.compile(r"\s+")

# Sentence terminators: ASCII for EN, fullwidth for ZH. ASCII terminators end
# a sentence only before whitespace/end; fullwidth ones always do.
_SENTENCE_BOUNDARY = re.compile(r"(?:[.!?](?=\s|$))|[。！？]")


@dataclass(frozen=True)
class Page:
    page_number: int
    text: str


@dataclass(frozen=True)
class Document:
    doc_id: str
    language: str
    pages: tuple[Page, ...]
    source_path: str = ""

    def __post_init__(self):
        numbers = [p.page_number for p in self.pages]
        if any(b <= a for a, b in zip(numbers, numbers[1:])):
            raise ValidationError(f"document {self.doc_id}: page numbers must strictly increase")


@dataclass(frozen=True)
class Sentence:
    doc_id: str
    page_number: int
    sentence_index: int
    text: str


@dataclass(frozen=True)
class Chunk:
    chunk_id: str
    doc_id: str
    sentence_span: tuple[int, int]
    text: str
    page_anchor: int
    embedding: tuple[float, ...]


def clean_text(raw: str) -> str:
    """Normalize OCR artifacts: joined hyphen line breaks, collapsed
    whitespace, no control characters. Idempotent and total."""
    text = _HYPHEN_BREAK.sub(r"\1\2", raw)
    text = _CONTROL.sub(" ", text)
    text = _WHITESPACE.sub(" ", text)
    return text.strip()


def load_document(path: str | Path, language: str) -> Document:
    """Read a UTF-8 text file into pages (form feed or marker line breaks);
    the file's stem is the document id and its name the source path, so the
    record does not depend on where the corpus lies."""
    path = Path(path)
    raw = path.read_text(encoding="utf-8")
    parts = PAGE_BREAK.split(raw)
    pages = tuple(
        Page(page_number=i + 1, text=clean_text(part))
        for i, part in enumerate(parts)
        if clean_text(part)
    ) or (Page(page_number=1, text=""),)
    return Document(
        doc_id=path.stem,
        language=language,
        pages=pages,
        source_path=path.name,
    )


def split_sentences(doc: Document) -> list[Sentence]:
    """Split cleaned document text into ordered sentences.

    ASCII terminators (. ! ?) end a sentence before whitespace or end of
    text; fullwidth terminators (。！？) always do. Text with no terminator
    becomes a single sentence.
    """
    sentences: list[Sentence] = []
    index = 0
    for page in doc.pages:
        text = page.text
        if not text:
            continue
        start = 0
        for match in _SENTENCE_BOUNDARY.finditer(text):
            end = match.end()
            piece = text[start:end].strip()
            if piece:
                sentences.append(Sentence(doc.doc_id, page.page_number, index, piece))
                index += 1
            start = end
        tail = text[start:].strip()
        if tail:
            sentences.append(Sentence(doc.doc_id, page.page_number, index, tail))
            index += 1
    return sentences


def nearest_rank_percentile(values: list[float], percentile: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value."""
    if not values:
        raise ValidationError("percentile of an empty multiset")
    if not 0 < percentile <= 100:
        raise ValidationError("percentile must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom == 0:
        return 0.0
    return float(1.0 - np.dot(a, b) / denom)


def consecutive_distances(embeddings: np.ndarray) -> list[float]:
    """Cosine distance between each row of an (n, d) matrix and the next."""
    return [cosine_distance(embeddings[i], embeddings[i + 1]) for i in range(len(embeddings) - 1)]


def _mean_embedding(members: np.ndarray) -> tuple[float, ...]:
    mean = members.mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm > 1e-12:
        mean = mean / norm
    return tuple(float(v) for v in mean)


def semantic_chunk(
    sentences: list[Sentence],
    embeddings: np.ndarray,
    percentile: float,
    max_sentences: int,
    threshold: float | None = None,
) -> list[Chunk]:
    """Partition one document's sentences into contiguous chunks; row i of
    the ``embeddings`` matrix embeds ``sentences[i]``.

    A boundary goes after sentence i iff the cosine distance to sentence i+1
    reaches the nearest-rank percentile of the document's distance multiset
    (or the explicit ``threshold`` when a corpus-global one is in use). When
    every distance is equal the document is uniform and no boundary is
    emitted. Chunks never exceed ``max_sentences``; the chunk embedding is
    the renormalized mean of member sentence embeddings.
    """
    if len(sentences) != len(embeddings):
        raise ValidationError(f"{len(sentences)} sentences but {len(embeddings)} embeddings")
    if not sentences:
        return []
    if max_sentences < 1:
        raise ValidationError("max_sentences must be >= 1")

    doc_id = sentences[0].doc_id
    distances = consecutive_distances(embeddings)
    breaks: set[int] = set()
    if distances:
        tau = nearest_rank_percentile(distances, percentile) if threshold is None else threshold
        all_equal = max(distances) - min(distances) < 1e-12
        if not all_equal:
            breaks = {i for i, d in enumerate(distances) if d >= tau}

    chunks: list[Chunk] = []
    start = 0
    for i in range(len(sentences)):
        at_break = i in breaks
        at_cap = (i - start + 1) >= max_sentences
        at_end = i == len(sentences) - 1
        if at_break or at_cap or at_end:
            members = sentences[start : i + 1]
            member_embeddings = embeddings[start : i + 1]
            chunks.append(
                Chunk(
                    chunk_id=f"{doc_id}-c{len(chunks):04d}",
                    doc_id=doc_id,
                    sentence_span=(members[0].sentence_index, members[-1].sentence_index),
                    text=" ".join(s.text for s in members),
                    page_anchor=members[0].page_number,
                    embedding=_mean_embedding(member_embeddings),
                )
            )
            start = i + 1
    return chunks


class SentenceStore:
    """Lookup of sentences by document and index, for anchor resolution."""

    def __init__(self, sentences: list[Sentence]):
        self._by_key = {(s.doc_id, s.sentence_index): s for s in sentences}
        self.sentences = list(sentences)

    def get(self, doc_id: str, sentence_index: int) -> Sentence:
        key = (doc_id, sentence_index)
        if key not in self._by_key:
            raise ValidationError(f"unknown sentence {doc_id}[{sentence_index}]")
        return self._by_key[key]

    def span_text(self, doc_id: str, span: tuple[int, int]) -> str:
        return " ".join(self.get(doc_id, i).text for i in range(span[0], span[1] + 1))


def normalize_for_match(text: str) -> str:
    """NFC, casefold, collapsed whitespace: the shared matching normal form."""
    return _WHITESPACE.sub(" ", unicodedata.normalize("NFC", text).casefold()).strip()
