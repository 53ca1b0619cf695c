from __future__ import annotations

import math

import pytest

from hopbench.textstats import bleu1, rouge1_f1, tokenize


def r1(candidate: str, reference: str) -> float:
    return rouge1_f1(tokenize(candidate, "EN"), tokenize(reference, "EN"))


def b1(candidate: str, reference: str) -> float:
    return bleu1(tokenize(candidate, "EN"), tokenize(reference, "EN"))


def test_identical_texts_score_one():
    assert r1("the quick fox", "the quick fox") == pytest.approx(1.0)
    assert b1("the quick fox", "the quick fox") == pytest.approx(1.0)


def test_disjoint_texts_score_zero():
    assert r1("alpha beta", "gamma delta") == 0.0
    assert b1("alpha beta", "gamma delta") == 0.0


def test_spec_example_two_of_three_overlap():
    assert r1("a b c", "a b d") == pytest.approx(2 / 3)
    assert b1("a b c", "a b d") == pytest.approx(2 / 3)  # BP = 1 at equal length


# Ten hand-computed pairs. Unigram F1 = 2pr/(p+r) with clipped counts;
# unigram precision takes the brevity penalty exp(1 - r/c) when c < r.
HAND_CASES = [
    ("a b c", "a b d", 2 / 3, 2 / 3),
    ("a b c", "a b c", 1.0, 1.0),
    ("a", "a b", 2 / 3, math.exp(-1)),  # precision 1, BP = e^(1 - 2/1)
    ("a b", "a", 2 / 3, 1 / 2),
    ("a a b", "a b b", 2 / 3, 2 / 3),
    ("x", "y", 0.0, 0.0),
    ("a b c d", "a d", 2 / 3, 1 / 2),
    ("a d", "a b c d", 2 / 3, math.exp(-1)),  # precision 1, BP = e^(1 - 4/2)
    ("a a a", "a", 1 / 2, 1 / 3),
    ("w x y z", "w x y q", 3 / 4, 3 / 4),
]


@pytest.mark.parametrize("candidate,reference,expected_rouge,expected_bleu", HAND_CASES)
def test_hand_computed_pairs(candidate, reference, expected_rouge, expected_bleu):
    assert r1(candidate, reference) == pytest.approx(expected_rouge, abs=1e-12)
    assert b1(candidate, reference) == pytest.approx(expected_bleu, abs=1e-12)


def test_scores_always_within_unit_interval():
    import random

    rng = random.Random(0)
    words = "a b c d e f g".split()
    for _ in range(200):
        candidate = " ".join(rng.choices(words, k=rng.randint(1, 10)))
        reference = " ".join(rng.choices(words, k=rng.randint(1, 10)))
        assert 0.0 <= r1(candidate, reference) <= 1.0
        assert 0.0 <= b1(candidate, reference) <= 1.0


def test_zh_tokenization_is_character_unigrams():
    assert tokenize("早期发现", "ZH") == ["早", "期", "发", "现"]
    assert tokenize("早期 发现", "ZH") == ["早", "期", "发", "现"]
    assert r1("早期发现", "早期治疗") == pytest.approx(0.0)  # EN tokenizer finds no tokens
    assert rouge1_f1(tokenize("早期发现", "ZH"), tokenize("早期治疗", "ZH")) == pytest.approx(1 / 2)


def test_en_tokenization_lowercases_and_splits_punctuation():
    assert tokenize("The Fox, quick!", "EN") == ["the", "fox", "quick"]


def test_dataset_stats_split_counts_and_bounds():
    from hopbench.corpus import Chunk, Sentence, SentenceStore
    from hopbench.providers import EmbeddingService, MockEmbeddingTransport
    from hopbench.synthesis import QAItem
    from hopbench.textstats import compute_overlap_stats

    sentences = [Sentence("d", 1, 0, "diabetes drives glucose stress in bone.")]
    chunk = Chunk(
        chunk_id="c0",
        doc_id="d",
        sentence_span=(0, 0),
        text=sentences[0].text,
        page_anchor=1,
        embedding=(1.0, 0.0),
    )

    def item(i: int, difficulty: str, golden: str) -> QAItem:
        return QAItem(
            qa_id=f"qa{i}",
            language="EN",
            difficulty=difficulty,
            clinical_task="Clinical Diagnosis",
            question=f"which downstream effect follows case {i}?",
            options=["bone loss", "nerve damage", "renal decline", "stroke"],
            answer_index=0,
            hard_negative_index=1,
            masked_entity={"canonical": "m", "aliases": []},
            rationale="glucose stress explains the outcome",
            evidence_anchors=[
                {"hop": "hop1", "chunk_id": golden, "sentence_span": [0, 0], "page_anchor": 1},
                {"hop": "hop2", "chunk_id": golden, "sentence_span": [0, 0], "page_anchor": 1},
            ],
            chain_ref="k",
        )

    items = [item(0, "easy", "c0"), item(1, "hard", "c0"), item(2, "hard", "missing")]
    record = compute_overlap_stats(
        items,
        {"c0": chunk},
        SentenceStore(sentences),
        EmbeddingService(MockEmbeddingTransport(dimension=8, seed=0)),
    )
    assert record["total_qa_pairs"] == 3
    assert record["excluded_items"] == 1  # the unresolvable anchor
    assert sum(s["count"] for s in record["splits"].values()) + record["excluded_items"] == record["total_qa_pairs"]
    for row in [record["overall"], *record["splits"].values()]:
        for key in (
            "avg_distractor_similarity_cosine",
            "lexical_overlap_vs_content_a_rouge1",
            "lexical_overlap_vs_content_b_rouge1",
            "lexical_overlap_vs_evidence_bleu1",
        ):
            assert 0.0 <= row[key] <= 1.0


def test_stats_record_pins_every_field():
    # Two judged EN|easy items, two unjudged ZH|hard items and a third ZH
    # item whose anchor is gone: the unjudged split has no judged means, the
    # overall ones are over the judged items only, and the third ZH item is
    # excluded.
    from hopbench.corpus import Chunk, Sentence, SentenceStore
    from hopbench.providers import EmbeddingService, MockEmbeddingTransport
    from hopbench.synthesis import QAItem
    from hopbench.textstats import compute_overlap_stats

    sentences = [
        Sentence("en", 1, 0, "Diabetes drives glucose stress in bone."),
        Sentence("en", 1, 1, "Glucose stress weakens the bone matrix."),
        Sentence("zh", 1, 0, "糖尿病导致血糖升高。"),
        Sentence("zh", 2, 1, "血糖升高损伤肾脏。"),
    ]
    chunks = [
        Chunk(chunk_id=f"c-{doc}", doc_id=doc, sentence_span=(0, 1), text="", page_anchor=1, embedding=(1.0, 0.0))
        for doc in ("en", "zh")
    ]

    def item(i: int, language: str, difficulty: str, question: str, rationale: str, chunk_id: str) -> QAItem:
        return QAItem(
            qa_id=f"qa{i}",
            language=language,
            difficulty=difficulty,
            clinical_task="Clinical Diagnosis",
            question=question,
            options=["bone loss", "nerve damage", "renal decline", "stroke"],
            answer_index=i % 4,
            hard_negative_index=(i + 1) % 4,
            masked_entity={"canonical": "m", "aliases": []},
            rationale=rationale,
            evidence_anchors=[
                {"hop": "hop1", "chunk_id": chunk_id, "sentence_span": [0, 0], "page_anchor": 1},
                {"hop": "hop2", "chunk_id": chunk_id, "sentence_span": [1, 1], "page_anchor": 1},
            ],
            chain_ref="k",
        )

    items = [
        item(0, "EN", "easy", "Which bone change follows the glucose stress?", "glucose stress weakens bone", "c-en"),
        item(1, "EN", "easy", "What does diabetes drive in bone?", "diabetes drives glucose stress", "c-en"),
        item(2, "ZH", "hard", "血糖升高会损伤哪个器官？", "血糖升高损伤肾脏", "c-zh"),
        item(3, "ZH", "hard", "糖尿病导致什么？", "糖尿病导致血糖升高", "c-zh"),
        item(4, "ZH", "hard", "哪一个？", "无", "missing"),
    ]
    adjudications = {
        "qa0": {"clarity": 4, "validity": 5, "difficulty": 2, "clinical_task": "Prognosis"},
        "qa1": {"clarity": 3, "validity": 4, "difficulty": 3},
    }
    record = compute_overlap_stats(
        items,
        {chunk.chunk_id: chunk for chunk in chunks},
        SentenceStore(sentences),
        EmbeddingService(MockEmbeddingTransport(dimension=8, seed=0)),
        adjudications=adjudications,
    )
    assert record == {
        "total_qa_pairs": 5,
        "excluded_items": 1,
        "splits": {
            "EN|easy": {
                "count": 2,
                "avg_question_length": 6.5,
                "avg_explanation_length": 4.0,
                "avg_distractor_similarity_cosine": 0.263,
                "lexical_overlap_vs_content_a_rouge1": 0.481,
                "lexical_overlap_vs_content_b_rouge1": 0.391,
                "lexical_overlap_vs_evidence_bleu1": 0.135,
                "ensemble_judged_clarity": 3.5,
                "ensemble_judged_validity": 4.5,
                "ensemble_judged_difficulty": 2.5,
            },
            "ZH|hard": {
                "count": 2,
                "avg_question_length": 10.0,
                "avg_explanation_length": 8.5,
                "avg_distractor_similarity_cosine": 0.527,
                "lexical_overlap_vs_content_a_rouge1": 0.46,
                "lexical_overlap_vs_content_b_rouge1": 0.345,
                "lexical_overlap_vs_evidence_bleu1": 0.291,
                "ensemble_judged_clarity": None,
                "ensemble_judged_validity": None,
                "ensemble_judged_difficulty": None,
            },
        },
        "overall": {
            "count": 4,
            "avg_question_length": 8.25,
            "avg_explanation_length": 6.25,
            "avg_distractor_similarity_cosine": 0.395,
            "lexical_overlap_vs_content_a_rouge1": 0.47,
            "lexical_overlap_vs_content_b_rouge1": 0.368,
            "lexical_overlap_vs_evidence_bleu1": 0.213,
            "ensemble_judged_clarity": 3.5,
            "ensemble_judged_validity": 4.5,
            "ensemble_judged_difficulty": 2.5,
        },
        "task_counts": {"Clinical Diagnosis": 3, "Prognosis": 1},
    }
