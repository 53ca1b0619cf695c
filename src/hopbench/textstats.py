"""Dataset-level lexical and similarity statistics.

Overlap metrics quantify leakage between each question and its source
passages: unigram F1 against the hop evidence texts, unigram precision with
brevity penalty between rationale and evidence, and embedding cosine between
the correct option and the hard negative. English tokenizes to lowercased
words, Chinese to characters."""

from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np

from .corpus import Chunk, SentenceStore
from .errors import ValidationError
from .providers import EmbeddingService
from .synthesis import QAItem

_EN_TOKEN = re.compile(r"[a-z0-9]+")


def tokenize(text: str, language: str) -> list[str]:
    lowered = text.lower()
    if language.upper() == "ZH":
        return [ch for ch in lowered if not ch.isspace()]
    return _EN_TOKEN.findall(lowered)


def rouge1_f1(candidate: list[str], reference: list[str]) -> float:
    """Unigram F1 between token lists (clipped overlap)."""
    if not candidate or not reference:
        return 0.0
    overlap = sum((Counter(candidate) & Counter(reference)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(candidate)
    recall = overlap / len(reference)
    return 2 * precision * recall / (precision + recall)


def bleu1(candidate: list[str], reference: list[str]) -> float:
    """Clipped unigram precision with the standard brevity penalty."""
    if not candidate or not reference:
        return 0.0
    overlap = sum((Counter(candidate) & Counter(reference)).values())
    precision = overlap / len(candidate)
    if precision == 0.0:
        return 0.0
    c, r = len(candidate), len(reference)
    brevity = 1.0 if c >= r else math.exp(1.0 - r / c)
    return precision * brevity


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity floored at 0 so aggregates stay within [0, 1]."""
    denominator = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denominator == 0:
        return 0.0
    return max(0.0, float(np.dot(a, b) / denominator))


# The report's name of each item measure; the judged scores are None for an
# item no ensemble judged.
_MEASURES = (
    "avg_question_length",
    "avg_explanation_length",
    "avg_distractor_similarity_cosine",
    "lexical_overlap_vs_content_a_rouge1",
    "lexical_overlap_vs_content_b_rouge1",
    "lexical_overlap_vs_evidence_bleu1",
)
_JUDGED = ("ensemble_judged_clarity", "ensemble_judged_validity", "ensemble_judged_difficulty")


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _split_row(measures: list[dict]) -> dict:
    """A split's report row: its item count, the mean of each measure, and
    the mean of each judged score over the judged items (None if none is)."""
    row: dict = {"count": len(measures)}
    for name in _MEASURES:
        row[name] = round(_mean([m[name] for m in measures]), 3)
    for name in _JUDGED:
        scored = [m[name] for m in measures if m[name] is not None]
        row[name] = round(_mean(scored), 2) if scored else None
    return row


def compute_overlap_stats(
    items: list[QAItem],
    chunk_store: dict[str, Chunk],
    sentence_store: SentenceStore,
    embedder: EmbeddingService,
    adjudications: dict[str, dict] | None = None,
) -> dict:
    """The stats report of a synthesized dataset: per-split and overall rows.

    Items whose evidence anchors no longer resolve are excluded and counted.
    Adjudication scores, when supplied per qa_id, contribute the judged
    clarity/validity/difficulty means and the task distribution."""
    if not items:
        raise ValidationError("cannot compute stats for an empty dataset")
    adjudications = adjudications or {}

    per_split: dict[str, list[dict]] = {}
    excluded = 0
    task_counts: dict[str, int] = {}

    # Each item's answer and hard negative, as an (items, 2, d) stack.
    options = [item.options[i] for item in items for i in (item.answer_index, item.hard_negative_index)]
    option_vectors = embedder.embed_texts(options).reshape(len(items), 2, -1)

    for index, item in enumerate(items):
        try:
            contents = []
            for anchor in item.evidence_anchors[:2]:
                chunk = chunk_store.get(anchor["chunk_id"])
                if chunk is None:
                    raise ValidationError(f"anchor chunk {anchor['chunk_id']} missing")
                contents.append(
                    sentence_store.span_text(chunk.doc_id, tuple(anchor["sentence_span"]))
                )
        except ValidationError:
            excluded += 1
            continue
        content_a, content_b = contents[0], contents[-1]

        question_tokens = tokenize(item.question, item.language)
        rationale_tokens = tokenize(item.rationale, item.language)
        evidence_tokens = tokenize(f"{content_a} {content_b}", item.language)

        judged = adjudications.get(item.qa_id, {})
        task = judged.get("clinical_task", item.clinical_task)
        task_counts[task] = task_counts.get(task, 0) + 1

        measures = {
            "avg_question_length": len(question_tokens)
            if item.language.upper() != "ZH"
            else len([c for c in item.question if not c.isspace()]),
            "avg_explanation_length": len(rationale_tokens)
            if item.language.upper() != "ZH"
            else len([c for c in item.rationale if not c.isspace()]),
            "avg_distractor_similarity_cosine": cosine_similarity(*option_vectors[index]),
            "lexical_overlap_vs_content_a_rouge1": rouge1_f1(question_tokens, tokenize(content_a, item.language)),
            "lexical_overlap_vs_content_b_rouge1": rouge1_f1(question_tokens, tokenize(content_b, item.language)),
            "lexical_overlap_vs_evidence_bleu1": bleu1(rationale_tokens, evidence_tokens),
            "ensemble_judged_clarity": judged.get("clarity"),
            "ensemble_judged_validity": judged.get("validity"),
            "ensemble_judged_difficulty": judged.get("difficulty"),
        }
        per_split.setdefault(item.split, []).append(measures)

    return {
        "total_qa_pairs": len(items),
        "excluded_items": excluded,
        "splits": {key: _split_row(rows) for key, rows in per_split.items()},
        "overall": _split_row([row for rows in per_split.values() for row in rows]),
        "task_counts": dict(sorted(task_counts.items())),
    }
