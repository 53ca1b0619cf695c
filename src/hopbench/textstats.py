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
from dataclasses import dataclass, field

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


@dataclass
class SplitStats:
    count: int = 0
    question_length: float = 0.0
    explanation_length: float = 0.0
    distractor_similarity: float = 0.0
    rouge1_content_a: float = 0.0
    rouge1_content_b: float = 0.0
    bleu1_evidence: float = 0.0
    clarity: float | None = None
    validity: float | None = None
    difficulty: float | None = None


@dataclass
class DatasetStats:
    total: int
    excluded: int
    split_stats: dict[str, SplitStats]
    overall: SplitStats
    task_counts: dict[str, int] = field(default_factory=dict)

    def to_record(self) -> dict:
        def row(stats: SplitStats) -> dict:
            record = {
                "count": stats.count,
                "avg_question_length": round(stats.question_length, 3),
                "avg_explanation_length": round(stats.explanation_length, 3),
                "avg_distractor_similarity_cosine": round(stats.distractor_similarity, 3),
                "lexical_overlap_vs_content_a_rouge1": round(stats.rouge1_content_a, 3),
                "lexical_overlap_vs_content_b_rouge1": round(stats.rouge1_content_b, 3),
                "lexical_overlap_vs_evidence_bleu1": round(stats.bleu1_evidence, 3),
            }
            for name in ("clarity", "validity", "difficulty"):
                value = getattr(stats, name)
                record[f"ensemble_judged_{name}"] = None if value is None else round(value, 2)
            return record

        return {
            "total_qa_pairs": self.total,
            "excluded_items": self.excluded,
            "splits": {key: row(stats) for key, stats in sorted(self.split_stats.items())},
            "overall": row(self.overall),
            "task_counts": dict(sorted(self.task_counts.items())),
        }


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def compute_overlap_stats(
    items: list[QAItem],
    chunk_store: dict[str, Chunk],
    sentence_store: SentenceStore,
    embedder: EmbeddingService,
    adjudications: dict[str, dict] | None = None,
) -> DatasetStats:
    """Aggregate per-split and overall statistics for a synthesized dataset.

    Items whose evidence anchors no longer resolve are excluded and counted.
    Adjudication scores, when supplied per qa_id, contribute the judged
    clarity/validity/difficulty means and the task distribution."""
    if not items:
        raise ValidationError("cannot compute stats for an empty dataset")
    adjudications = adjudications or {}

    per_split: dict[str, list[dict]] = {}
    excluded = 0
    task_counts: dict[str, int] = {}

    option_texts: list[str] = []
    for item in items:
        option_texts.append(item.options[item.answer_index])
        option_texts.append(item.options[item.hard_negative_index])
    option_vectors = embedder.embed_texts(option_texts)

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

        answer_vec = option_vectors[2 * index]
        negative_vec = option_vectors[2 * index + 1]

        measurements = {
            "question_length": len(question_tokens)
            if item.language.upper() != "ZH"
            else len([c for c in item.question if not c.isspace()]),
            "explanation_length": len(rationale_tokens)
            if item.language.upper() != "ZH"
            else len([c for c in item.rationale if not c.isspace()]),
            "distractor_similarity": cosine_similarity(answer_vec, negative_vec),
            "rouge1_content_a": rouge1_f1(question_tokens, tokenize(content_a, item.language)),
            "rouge1_content_b": rouge1_f1(question_tokens, tokenize(content_b, item.language)),
            "bleu1_evidence": bleu1(rationale_tokens, evidence_tokens),
            "clarity": judged.get("clarity"),
            "validity": judged.get("validity"),
            "difficulty": judged.get("difficulty"),
        }
        split_key = f"{item.language}|{item.difficulty}"
        per_split.setdefault(split_key, []).append(measurements)

    def aggregate(rows: list[dict]) -> SplitStats:
        stats = SplitStats(count=len(rows))
        for name in (
            "question_length",
            "explanation_length",
            "distractor_similarity",
            "rouge1_content_a",
            "rouge1_content_b",
            "bleu1_evidence",
        ):
            setattr(stats, name, _mean([row[name] for row in rows]))
        for name in ("clarity", "validity", "difficulty"):
            scored = [row[name] for row in rows if row[name] is not None]
            setattr(stats, name, _mean(scored) if scored else None)
        return stats

    split_stats = {key: aggregate(rows) for key, rows in per_split.items()}
    all_rows = [row for rows in per_split.values() for row in rows]
    return DatasetStats(
        total=len(items),
        excluded=excluded,
        split_stats=split_stats,
        overall=aggregate(all_rows),
        task_counts=task_counts,
    )
