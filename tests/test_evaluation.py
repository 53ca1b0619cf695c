from __future__ import annotations

import pytest

from hopbench.errors import ValidationError
from hopbench.evaluation import (
    EvalOutcome,
    MockEvalTransport,
    behavioral_report,
    evaluate_dataset,
    parse_choice,
)
from hopbench import prompts
from hopbench.providers import ChatRequest, ChatService, MockChatTransport
from hopbench.synthesis import QAItem


def make_item(i: int, language: str = "EN", difficulty: str = "hard") -> QAItem:
    return QAItem(
        qa_id=f"qa{i:04d}",
        language=language,
        difficulty=difficulty,
        clinical_task="Clinical Diagnosis",
        question=f"Question number {i} about an unstated mechanism?",
        options=[f"opt{i}-a", f"opt{i}-b", f"opt{i}-c", f"opt{i}-d"],
        answer_index=i % 4,
        hard_negative_index=(i + 1) % 4,
        masked_entity={"canonical": f"bridge{i}", "aliases": []},
        rationale="hidden step explains it",
        evidence_anchors=[],
        chain_ref=f"chain{i}",
    )


def outcome(qa_id: str, correct: bool, choice: int | None, mode: str = "zero_shot") -> EvalOutcome:
    return EvalOutcome(
        model_id="m", qa_id=qa_id, mode=mode, raw_response="", parsed_choice=choice, correct=correct
    )


# -- answer parsing ---------------------------------------------------------------


def test_parse_explicit_answer_pattern():
    assert parse_choice("The answer is B.", 4) == 1
    assert parse_choice("answer: (b)", 4) == 1
    assert parse_choice("answer: b", 4) == 1


def test_parse_bare_letter():
    assert parse_choice("A", 4) == 0


def test_parse_refusal_is_unparseable():
    assert parse_choice("both seem plausible", 4) is None


def test_parse_last_explicit_answer_wins():
    text = "The answer is not A; considering everything, the answer is C."
    assert parse_choice(text, 4) == 2


def test_parse_letter_on_own_line():
    assert parse_choice("Let me think.\n(B)\n", 4) == 1


def test_parse_leading_letter_token():
    assert parse_choice("C. because the cascade continues", 4) == 2
    assert parse_choice("(C) the cascade", 4) == 2


def test_parse_letter_beyond_option_count_unparseable():
    assert parse_choice("The answer is F.", 4) is None


def test_parse_word_initial_letter_not_taken():
    article = "A patient with this profile most likely shows fracture risk."
    for reply in ("Because of the mechanism", article, "a patient"):
        assert parse_choice(reply, 4) is None, reply


def test_parse_article_after_answer_is_not_option_a():
    assert parse_choice("The answer is a hard one, but I pick C.", 4) != 0
    assert parse_choice("The final answer is a B", 4) != 0


def test_parse_option_count_bounds():
    with pytest.raises(ValidationError):
        parse_choice("A", 1)
    with pytest.raises(ValidationError):
        parse_choice("A", 27)


# -- evaluation runs ---------------------------------------------------------------


def test_oracle_mock_scores_every_item():
    items = [make_item(i) for i in range(10)]
    chat = ChatService(MockEvalTransport("mock:oracle", items, seed=0))
    outcomes = evaluate_dataset(items, chat, model_id="oracle", mode="zero_shot")
    assert all(o.correct for o in outcomes)
    assert behavioral_report("oracle", outcomes, items).overall.hne is None


def test_adversarial_mock_always_picks_hard_negative():
    items = [make_item(i) for i in range(10)]
    chat = ChatService(MockEvalTransport("mock:adversarial", items, seed=0))
    outcomes = evaluate_dataset(items, chat, model_id="adv", mode="zero_shot")
    assert not any(o.correct for o in outcomes)
    report = behavioral_report("adv", outcomes, items)
    assert report.overall.errors == 10
    assert report.overall.hne == 1.0


@pytest.mark.parametrize("behavior", ["uniform", "hash"])
def test_rag_aware_mocks_recover_only_with_the_golden_passage(behavior):
    items = [make_item(i) for i in range(8)]
    golden = {item.qa_id: f"golden passage of {item.qa_id}" for item in items}
    chat = ChatService(MockEvalTransport(f"mock:{behavior}", items, seed=3, golden_texts=golden))

    def run(documents):
        passages = {item.qa_id: documents(item) for item in items}
        return evaluate_dataset(items, chat, model_id=f"mock:{behavior}", mode="rag", passages=passages)

    assert all(o.correct for o in run(lambda item: [golden[item.qa_id]]))
    without = run(lambda item: ["an unrelated passage"])
    if behavior == "uniform":
        assert not any(o.correct for o in without)
    else:  # the answer of the hash model, not a crash
        hashed = MockChatTransport(seed=3)
        for item, outcome in zip(items, without):
            prompt = prompts.render_eval_prompt(item.question, item.options, ["an unrelated passage"])
            assert outcome.raw_response == hashed.complete(ChatRequest.user(prompt))


def test_unknown_mock_model_is_rejected():
    with pytest.raises(ValidationError):
        MockEvalTransport("mock:random", [make_item(0)], seed=0)


def test_rag_mode_requires_contexts():
    items = [make_item(0)]
    chat = ChatService(MockEvalTransport("mock:oracle", items, seed=0))
    with pytest.raises(ValidationError):
        evaluate_dataset(items, chat, model_id="m", mode="rag")


def test_outcome_sink_and_resume_skip():
    # A resumed run passes the items it has not answered: the sink sees
    # those, in dataset order.
    items = [make_item(i) for i in range(4)]
    chat = ChatService(MockEvalTransport("mock:oracle", items, seed=0))
    seen: list[str] = []
    outcomes = evaluate_dataset(
        [item for item in items if item.qa_id != "qa0001"],
        chat,
        model_id="m",
        mode="zero_shot",
        outcome_sink=lambda o: seen.append(o.qa_id),
    )
    assert seen == ["qa0000", "qa0002", "qa0003"]
    assert [o.qa_id for o in outcomes] == seen


# -- behavioral metrics -----------------------------------------------------------


def test_hne_integer_consistency_with_published_rows():
    # 66 errors with 35 hard-negative picks -> 53.03%; the published rate is
    # reproduced from its integer counts within half a basis point.
    items = [make_item(i) for i in range(100)]
    outcomes = []
    for i, item in enumerate(items):
        if i < 34:
            outcomes.append(outcome(item.qa_id, True, item.answer_index))
        elif i < 34 + 35:
            outcomes.append(outcome(item.qa_id, False, item.hard_negative_index))
        else:
            wrong_other = next(
                x for x in range(4) if x not in (item.answer_index, item.hard_negative_index)
            )
            outcomes.append(outcome(item.qa_id, False, wrong_other))
    report = behavioral_report("m", outcomes, items)
    assert report.overall.errors == 66
    assert report.overall.hard_negative_picks == 35
    assert report.overall.hne * 100 == pytest.approx(53.03, abs=0.5)
    assert report.overall.hne == pytest.approx(35 / 66)


def test_unparseable_counts_as_error_never_as_pick():
    items = [make_item(0), make_item(1)]
    outcomes = [
        outcome("qa0000", False, None),
        outcome("qa0001", False, make_item(1).hard_negative_index),
    ]
    report = behavioral_report("m", outcomes, items)
    assert report.overall.errors == 2
    assert report.overall.unparseable == 1
    assert report.overall.hne == pytest.approx(0.5)


def test_hne_rejects_rag_outcomes():
    items = [make_item(0)]
    with pytest.raises(ValidationError, match="zero_shot outcomes"):
        behavioral_report("m", [outcome("qa0000", False, 0, mode="rag")], items)


def test_r3_integer_consistency_with_published_rows():
    def r3_of(total_errors: int, recovered: int, total: int = 1000) -> float:
        items = [make_item(i) for i in range(total)]
        zero, rag = [], []
        for i, item in enumerate(items):
            correct_zero = i >= total_errors
            zero.append(outcome(item.qa_id, correct_zero, 0))
            rag.append(outcome(item.qa_id, correct_zero or i < recovered, 0, mode="rag"))
        report = behavioral_report("m", zero, items, rag_outcomes=rag)
        assert report.overall.recovered == recovered
        return report.r3(report.overall)

    assert r3_of(56, 39) * 100 == pytest.approx(69.64, abs=0.5)
    assert r3_of(685, 50) * 100 == pytest.approx(7.30, abs=0.5)


def test_r3_zero_when_rag_recovers_nothing():
    items = [make_item(1)]
    zero = [outcome("qa0001", False, 0)]
    rag = [outcome("qa0001", False, 0, mode="rag")]
    report = behavioral_report("m", zero, items, rag_outcomes=rag)
    assert (report.r3(report.overall), report.overall.recovered) == (0.0, 0)


def test_r3_requires_matching_qa_sets():
    items = [make_item(1), make_item(2)]
    zero = [outcome("qa0001", False, 0), outcome("qa0002", False, 0)]
    with pytest.raises(ValidationError):
        behavioral_report("m", zero, items, rag_outcomes=[outcome("qa0002", True, 0, mode="rag")])


def test_r3_undefined_without_zero_shot_errors():
    items = [make_item(1)]
    report = behavioral_report(
        "m", [outcome("qa0001", True, 0)], items, rag_outcomes=[outcome("qa0001", True, 0, mode="rag")]
    )
    assert report.r3(report.overall) is None
    assert "—" in report.table()


def test_report_refuses_partial_rag_outcomes():
    # Four zero-shot failures and one RAG outcome, which recovers its item:
    # read as a full run, this would report a recovery rate of 25 %.
    items = [make_item(i) for i in range(4)]
    zero = [outcome(item.qa_id, False, item.hard_negative_index) for item in items]
    rag = [outcome("qa0000", True, items[0].answer_index, mode="rag")]
    with pytest.raises(ValidationError, match=r"1 outcomes for 4 items \(3 items unanswered"):
        behavioral_report("m", zero, items, rag_outcomes=rag)


@pytest.mark.parametrize(
    "qa_ids, counts",
    [
        (["qa0000", "qa0001"], "2 outcomes for 4 items (2 items unanswered, 0 unknown ids, 0 repeated"),
        (["qa0000", "qa0001", "qa0002", "qa0003", "qa0003"], "(0 items unanswered, 0 unknown ids, 1 repeated"),
        (["qa0000", "qa0001", "qa0002", "qa9999"], "(1 items unanswered, 1 unknown ids, 0 repeated"),
    ],
)
def test_report_refuses_zero_shot_outcomes_that_do_not_cover_the_dataset(qa_ids, counts):
    items = [make_item(i) for i in range(4)]
    zero = [outcome(qa_id, False, 0) for qa_id in qa_ids]
    with pytest.raises(ValidationError) as error:
        behavioral_report("m", zero, items)
    assert counts in str(error.value)


# -- reports -----------------------------------------------------------------------


def test_report_oracle_everything_correct():
    items = [make_item(i) for i in range(8)]
    chat = ChatService(MockEvalTransport("mock:oracle", items, seed=0))
    outcomes = evaluate_dataset(items, chat, model_id="oracle", mode="zero_shot")
    report = behavioral_report("oracle", outcomes, items)
    assert report.overall.errors == 0
    assert report.overall.hne is None  # undefined, rendered as an em dash
    assert "—" in report.table()
    assert report.to_record()["accuracy_by_split"] == {"EN|hard": 1.0}


def test_report_adversarial_composition():
    items = [make_item(i) for i in range(100)]
    chat = ChatService(MockEvalTransport("mock:adversarial", items, seed=0))
    outcomes = evaluate_dataset(items, chat, model_id="adv", mode="zero_shot")
    report = behavioral_report("adv", outcomes, items)
    assert report.overall.errors == 100
    assert report.overall.hne == 1.0
    assert report.to_record()["accuracy_by_split"] == {"EN|hard": 0.0}


def test_report_rates_recomputable_from_stored_counts():
    items = [make_item(i) for i in range(40)]
    chat = ChatService(MockEvalTransport("mock:uniform", items, seed=5))
    zero = evaluate_dataset(items, chat, model_id="u", mode="zero_shot")
    report = behavioral_report("u", zero, items)
    record = report.to_record()
    assert record["hne_rate"] == pytest.approx(
        record["splits"]["EN|hard"]["hard_negative_picks"] / record["total_zero_shot_errors"],
        abs=1e-4,
    )


def test_mock_outcomes_identical_across_runs():
    items = [make_item(i) for i in range(15)]
    runs = [
        evaluate_dataset(items, ChatService(MockEvalTransport("mock:uniform", items, seed=9)), "u", "zero_shot")
        for _ in range(2)
    ]
    assert runs[0] == runs[1]  # every outcome field, including raw responses


def test_report_splits_accumulate_by_language_and_difficulty():
    items = [make_item(0, "EN", "easy"), make_item(1, "EN", "hard"), make_item(2, "ZH", "hard")]
    outcomes = [
        outcome("qa0000", True, 0),
        outcome("qa0001", False, 2),
        outcome("qa0002", False, None),
    ]
    report = behavioral_report("m", outcomes, items)
    assert set(report.splits) == {"EN|easy", "EN|hard", "ZH|hard"}
    assert report.overall.unparseable == 1


def test_report_record_and_table_pin_every_field():
    # Two EN|easy items answered right, and four ZH|hard items answered
    # zero-shot with the hard negative, an unparseable reply, another wrong
    # option and the answer; RAG recovers the first two failures. EN|easy
    # has no errors, so both of its rates are undefined; without RAG
    # outcomes every recovery rate is.
    items = [make_item(0, "EN", "easy"), make_item(1, "EN", "easy")]
    items += [make_item(i, "ZH", "hard") for i in range(2, 6)]
    zero = [
        outcome("qa0000", True, items[0].answer_index),
        outcome("qa0001", True, items[1].answer_index),
        outcome("qa0002", False, items[2].hard_negative_index),
        outcome("qa0003", False, None),
        outcome("qa0004", False, (items[4].answer_index + 2) % 4),
        outcome("qa0005", True, items[5].answer_index),
    ]
    rag = [outcome(item.qa_id, True, item.answer_index, mode="rag") for item in items]
    rag[4] = outcome("qa0004", False, items[4].hard_negative_index, mode="rag")
    easy = {"total": 2, "correct": 2, "errors": 0, "unparseable": 0, "hard_negative_picks": 0, "recovered": 0}
    hard = {"total": 4, "correct": 1, "errors": 3, "unparseable": 1, "hard_negative_picks": 1}
    header = "Model                    Total Zero-Shot Errors   HNE Rate    R3 Rate"
    for rag_outcomes, recovered, r3, row in (
        (rag, 2, 0.6667, "m                                             3     33.33%     66.67%"),
        (None, 0, None, "m                                             3     33.33%          —"),
    ):
        report = behavioral_report("m", zero, items, rag_outcomes=rag_outcomes)
        assert report.to_record() == {
            "model_id": "m",
            "prompt_version": "mcq-v1",
            "prompt_template": prompts.EVAL_TEMPLATE,
            "total_zero_shot_errors": 3,
            "hne_rate": 0.3333,
            "hne_picks": 1,
            "r3_rate": r3,
            "recovered_count": recovered,
            "unparseable_count": 1,
            "accuracy_by_split": {"EN|easy": 1.0, "ZH|hard": 0.25},
            "splits": {
                "EN|easy": {**easy, "hne_rate": None, "r3_rate": None},
                "ZH|hard": {**hard, "recovered": recovered, "hne_rate": 0.3333, "r3_rate": r3},
            },
        }
        assert report.table() == f"{header}\n{row}"
