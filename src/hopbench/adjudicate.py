"""Ensemble quality adjudication of synthesized items.

Each ensemble member receives the fixed adjudication prompt and must return
strict JSON (one re-ask, then lenient brace extraction). Each score is the
arithmetic mean of the finite numbers the members whose reply parses gave
for it (a boolean is not a score); the task label is a majority vote with
ties broken by provider order. A member whose reply does not parse is left
out of the vote; a provider failure is not such a reply, and propagates."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import prompts
from .errors import AdjudicationError, ValidationError
from .providers import ChatRequest, ChatService
from .synthesis import QAItem

SCORE_FIELDS = ("clarity_score", "validity_score", "difficulty_score")


@dataclass
class Adjudication:
    qa_id: str
    clinical_task: str
    reasoning_type: str
    clarity: float
    validity: float
    difficulty: float
    members_responded: int


def _ask_member(service: ChatService, prompt: str, model_name: str) -> dict | None:
    request = ChatRequest.user(prompt, temperature=0.0, model_name=model_name)
    for _ in range(2):  # one re-ask on parse failure
        response = service.complete(request)
        payload = prompts.parse_json_reply(response, dict)
        if payload is not None and all(f in payload for f in SCORE_FIELDS):
            return payload
        request = request.with_reask("Output EXACTLY the JSON format requested, nothing else.")
    return None


def _score(value) -> float | None:
    """A judge's score as a finite float; None for a boolean, a non-finite
    number or a value ``float`` refuses, which the mean leaves out."""
    if isinstance(value, bool):
        return None
    try:
        score = float(value)
    except (TypeError, ValueError):
        return None
    return score if math.isfinite(score) else None


def _majority_label(labels: list[str]) -> str:
    counts: dict[str, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    best_count = max(counts.values())
    for label in labels:  # provider order breaks ties
        if counts[label] == best_count:
            return label
    raise AssertionError("unreachable")


def adjudicate_quality(
    item: QAItem,
    ensemble: list[ChatService],
    model_names: list[str],
) -> Adjudication:
    """Score one item with the ensemble, one model name per member; raises
    ``AdjudicationError`` when no member's reply parses."""
    if not ensemble:
        raise ValidationError("adjudication ensemble must be non-empty")
    if len(model_names) != len(ensemble):
        raise ValidationError("model_names must align with the ensemble")

    prompt = prompts.render_adjudication_prompt(
        item.question, item.options, item.answer_index, item.rationale
    )
    verdicts: list[dict] = []
    for service, name in zip(ensemble, model_names):
        payload = _ask_member(service, prompt, name)
        if payload is not None:
            verdicts.append(payload)
    if not verdicts:
        raise AdjudicationError(f"{item.qa_id}: no ensemble member returned parseable JSON")

    def mean_score(field: str) -> float:
        values = [score for score in (_score(verdict[field]) for verdict in verdicts) if score is not None]
        if not values:
            raise AdjudicationError(f"{item.qa_id}: no numeric {field} in any verdict")
        return round(sum(values) / len(values), 2)

    return Adjudication(
        qa_id=item.qa_id,
        clinical_task=_majority_label([str(v.get("clinical_task", "Unlabeled")) for v in verdicts]),
        reasoning_type=_majority_label([str(v.get("reasoning_type", "Multi-hop")) for v in verdicts]),
        clarity=mean_score("clarity_score"),
        validity=mean_score("validity_score"),
        difficulty=mean_score("difficulty_score"),
        members_responded=len(verdicts),
    )
