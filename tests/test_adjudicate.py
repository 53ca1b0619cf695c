from __future__ import annotations

import json

import pytest

from hopbench.adjudicate import adjudicate_quality
from hopbench.errors import AdjudicationError, ValidationError
from hopbench.providers import ChatService, MockChatTransport
from hopbench.synthesis import QAItem


def item() -> QAItem:
    return QAItem(
        qa_id="qa7",
        language="EN",
        difficulty="hard",
        clinical_task="unadjudicated",
        question="Which downstream finding is most expected?",
        options=["w", "x", "y", "z"],
        answer_index=0,
        hard_negative_index=1,
        masked_entity={"canonical": "m", "aliases": []},
        rationale="because of the hidden step",
        evidence_anchors=[],
        chain_ref="a>b>c",
    )


class ScriptedTransport:
    """A chat transport that answers every request with one reply."""

    provider_id = "scripted"

    def __init__(self, reply: str):
        self.reply = reply

    def complete(self, request):
        return self.reply


def scripted_member(payload: str) -> ChatService:
    return ChatService(ScriptedTransport(payload))


def names(ensemble: list[ChatService]) -> list[str]:
    return [f"judge-{i}" for i in range(len(ensemble))]


def verdict(task: str, clarity: int, validity: int = 5, difficulty: int = 3) -> str:
    return json.dumps(
        {
            "clinical_task": task,
            "reasoning_type": "Multi-hop",
            "clarity_score": clarity,
            "validity_score": validity,
            "difficulty_score": difficulty,
        }
    )


def test_scores_are_arithmetic_means_two_decimals():
    ensemble = [
        scripted_member(verdict("Clinical Diagnosis", 5)),
        scripted_member(verdict("Clinical Diagnosis", 4)),
        scripted_member(verdict("Clinical Diagnosis", 5)),
    ]
    result = adjudicate_quality(item(), ensemble, names(ensemble))
    assert result.clarity == 4.67  # mean of {5, 4, 5}
    assert result.validity == 5.0
    assert result.members_responded == 3


def test_prose_wrapped_json_accepted():
    wrapped = f"Sure, here you go: {verdict('Basic Medicine', 4)} hope that helps"
    result = adjudicate_quality(item(), [scripted_member(wrapped)], ["judge"])
    assert result.clinical_task == "Basic Medicine"
    assert result.clarity == 4.0


def test_majority_vote_with_first_provider_tie_break():
    ensemble = [
        scripted_member(verdict("Clinical Treatment", 4)),
        scripted_member(verdict("Basic Medicine", 4)),
        scripted_member(verdict("Basic Medicine", 4)),
    ]
    assert adjudicate_quality(item(), ensemble, names(ensemble)).clinical_task == "Basic Medicine"

    tied = [
        scripted_member(verdict("Clinical Treatment", 4)),
        scripted_member(verdict("Basic Medicine", 4)),
    ]
    assert adjudicate_quality(item(), tied, names(tied)).clinical_task == "Clinical Treatment"


def test_all_members_unparseable_is_adjudication_error():
    garbage = [scripted_member("not json"), scripted_member("also not json")]
    with pytest.raises(AdjudicationError):
        adjudicate_quality(item(), garbage, names(garbage))


def test_failed_members_are_skipped_not_fatal():
    ensemble = [scripted_member("garbage"), scripted_member(verdict("Clinical Diagnosis", 5))]
    result = adjudicate_quality(item(), ensemble, names(ensemble))
    assert result.members_responded == 1
    assert result.clarity == 5.0


NON_FINITE_AND_BOOLEAN = (
    '{"clinical_task": "Basic Medicine", "reasoning_type": "Multi-hop", '
    '"clarity_score": NaN, "validity_score": "Infinity", "difficulty_score": true}'
)


def test_non_finite_and_boolean_scores_are_left_out_of_the_mean():
    ensemble = [scripted_member(NON_FINITE_AND_BOOLEAN), scripted_member(verdict("Basic Medicine", 4, 3, 2))]
    result = adjudicate_quality(item(), ensemble, names(ensemble))
    assert (result.clarity, result.validity, result.difficulty) == (4.0, 3.0, 2.0)
    assert result.members_responded == 2

    with pytest.raises(AdjudicationError, match="no numeric clarity_score"):
        adjudicate_quality(item(), [scripted_member(NON_FINITE_AND_BOOLEAN)], ["judge"])


def test_empty_ensemble_rejected():
    with pytest.raises(ValidationError):
        adjudicate_quality(item(), [], [])


def test_builtin_mock_judges_return_valid_schema():
    ensemble = [ChatService(MockChatTransport(seed=s)) for s in (1, 2, 3)]
    result = adjudicate_quality(item(), ensemble, names(ensemble))
    assert 1 <= result.clarity <= 5
    assert 1 <= result.validity <= 5
    assert 1 <= result.difficulty <= 5
    assert result.members_responded == 3
