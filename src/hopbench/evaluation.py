"""Multiple-choice evaluation and shortcut-diagnostic behavioral metrics.

Zero-shot and retrieval-augmented runs share one frozen prompt; answers are
parsed by a fixed precedence of letter patterns. Among a model's wrong
answers, the hard-negative error rate measures how often the topological
distractor was chosen (random baseline ~1/3 with four options), and the
recovery rate measures how many zero-shot failures flip to correct once the
golden evidence is supplied."""

from __future__ import annotations

import random
import re
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

from . import prompts
from .errors import ValidationError
from .providers import ChatRequest, ChatService, MockChatTransport
from .seeding import derive_seed
from .synthesis import QAItem

UNPARSEABLE = None

# A lowercase letter counts only bracketed or before punctuation or the end,
# so the article in "the answer is a hard one" is not option A.
_EXPLICIT = re.compile(
    r"(?i:final answer|answer|choice|option)\s*(?i:is|:)?\s*"
    r"[\(\[]?((?<=[\(\[])[a-z]|[A-Z]|[a-z](?=[^\w\s]|$))[\)\]]?(?![A-Za-z])"
)
_OWN_LINE = re.compile(r"^\s*\(?([A-Za-z])[\)\].,:]?\s*$")
# A reply's first word is a letter only before a bracket or punctuation, so
# the article of "A patient with ..." is not option A.
_LEADING = re.compile(r"^\s*\(?([A-Za-z])[\)\].,:](?=\s|$)")


@dataclass(frozen=True)
class EvalOutcome:
    model_id: str
    qa_id: str
    mode: str  # zero_shot | rag
    raw_response: str
    parsed_choice: int | None
    correct: bool


def parse_choice(response: str, n_options: int) -> int | None:
    """Extract the chosen option index from free-form model output.

    Precedence: explicit "answer is X" phrasing (last occurrence wins, since
    models restate their final answer), then a standalone letter on its own
    line, then a leading letter closed by a bracket or punctuation. Letters
    beyond the option count are unparseable."""
    if not 2 <= n_options <= 26:
        raise ValidationError("n_options must be in [2, 26]")

    def to_index(letter: str) -> int | None:
        index = ord(letter.upper()) - ord("A")
        return index if 0 <= index < n_options else None

    explicit = _EXPLICIT.findall(response)
    if explicit:
        index = to_index(explicit[-1])
        if index is not None:
            return index
    for line in response.splitlines():
        match = _OWN_LINE.match(line)
        if match:
            index = to_index(match.group(1))
            if index is not None:
                return index
    match = _LEADING.match(response)
    if match:
        return to_index(match.group(1))
    return UNPARSEABLE


def evaluate_dataset(
    items: Sequence[QAItem],
    chat: ChatService,
    model_id: str,
    mode: str = "zero_shot",
    passages: dict[str, list[str]] | None = None,
    outcome_sink: Callable[[EvalOutcome], None] | None = None,
) -> list[EvalOutcome]:
    """Evaluate every item with the frozen prompt at temperature 0.

    RAG mode requires each item's context passages, in prompt order, under
    its ``qa_id`` in ``passages``. Outcomes stream to ``outcome_sink``
    as they are produced, so an interrupted run keeps them; a resumed run
    passes only the items it has not answered. A provider failure is not an
    answer: it propagates and ends the run, and the outcomes streamed before
    it are kept for the resume."""
    if mode not in ("zero_shot", "rag"):
        raise ValidationError(f"unknown evaluation mode: {mode!r}")
    if mode == "rag":
        if passages is None:
            raise ValidationError("rag mode requires a context per item")
        missing = [item.qa_id for item in items if item.qa_id not in passages]
        if missing:
            raise ValidationError(f"rag contexts missing for {len(missing)} items (e.g. {missing[:3]})")

    outcomes: list[EvalOutcome] = []
    for item in items:
        docs = passages[item.qa_id] if mode == "rag" else None
        prompt = prompts.render_eval_prompt(item.question, item.options, docs)
        request = ChatRequest.user(prompt, temperature=0.0, model_name=model_id)
        response = chat.complete(request)
        choice = parse_choice(response, len(item.options))
        outcome = EvalOutcome(
            model_id=model_id,
            qa_id=item.qa_id,
            mode=mode,
            raw_response=response,
            parsed_choice=choice,
            correct=choice is not None and choice == item.answer_index,
        )
        outcomes.append(outcome)
        if outcome_sink is not None:
            outcome_sink(outcome)
    return outcomes


@dataclass
class SplitMetrics:
    total: int = 0
    correct: int = 0
    errors: int = 0
    unparseable: int = 0
    hard_negative_picks: int = 0
    recovered: int = 0

    @property
    def hne(self) -> float | None:
        return self.hard_negative_picks / self.errors if self.errors else None


def _rounded(rate: float | None) -> float | None:
    return None if rate is None else round(rate, 4)


@dataclass
class BehavioralReport:
    """A model's zero-shot counts, overall and per split; the record and the
    table derive every rate from them. The recovery rate is defined only
    ``with_rag``, when RAG outcomes were given."""

    model_id: str
    overall: SplitMetrics
    splits: dict[str, SplitMetrics]
    with_rag: bool

    def r3(self, split: SplitMetrics) -> float | None:
        return split.recovered / split.errors if self.with_rag and split.errors else None

    @staticmethod
    def _fmt(rate: float | None) -> str:
        return "—" if rate is None else f"{100 * rate:.2f}%"

    def to_record(self) -> dict:
        overall = self.overall
        return {
            "model_id": self.model_id,
            "prompt_version": prompts.EVAL_PROMPT_VERSION,
            "prompt_template": prompts.EVAL_TEMPLATE,
            "total_zero_shot_errors": overall.errors,
            "hne_rate": _rounded(overall.hne),
            "hne_picks": overall.hard_negative_picks,
            "r3_rate": _rounded(self.r3(overall)),
            "recovered_count": overall.recovered,
            "unparseable_count": overall.unparseable,
            # A split holds at least one item.
            "accuracy_by_split": {key: round(s.correct / s.total, 4) for key, s in self.splits.items()},
            "splits": {
                key: {**asdict(s), "hne_rate": _rounded(s.hne), "r3_rate": _rounded(self.r3(s))}
                for key, s in self.splits.items()
            },
        }

    def table(self) -> str:
        """Render the headline row layout: errors, HNE, recovery."""
        header = f"{'Model':<24} {'Total Zero-Shot Errors':>22} {'HNE Rate':>10} {'R3 Rate':>10}"
        row = (
            f"{self.model_id:<24} {self.overall.errors:>22d} "
            f"{self._fmt(self.overall.hne):>10} {self._fmt(self.r3(self.overall)):>10}"
        )
        return f"{header}\n{row}"


def behavioral_report(
    model_id: str,
    zero_outcomes: Sequence[EvalOutcome],
    items: Sequence[QAItem],
    rag_outcomes: Sequence[EvalOutcome] | None = None,
) -> BehavioralReport:
    """Aggregate accuracies and behavioral rates overall and per split.

    The zero-shot outcomes, and the RAG outcomes when given, must each answer
    every dataset item exactly once: a report over an interrupted or foreign
    evaluation would misstate both rates."""
    by_id = {item.qa_id: item for item in items}
    _check_coverage("zero_shot", zero_outcomes, by_id)
    if rag_outcomes is not None:
        _check_coverage("rag", rag_outcomes, by_id)

    splits: dict[str, SplitMetrics] = {}
    overall = SplitMetrics()
    rag_correct = {o.qa_id for o in (rag_outcomes or []) if o.correct}

    for outcome in zero_outcomes:
        item = by_id[outcome.qa_id]
        for bucket in (splits.setdefault(item.split, SplitMetrics()), overall):
            bucket.total += 1
            if outcome.correct:
                bucket.correct += 1
            else:
                bucket.errors += 1
                if outcome.parsed_choice is not None and outcome.parsed_choice == item.hard_negative_index:
                    bucket.hard_negative_picks += 1
                if outcome.qa_id in rag_correct:
                    bucket.recovered += 1
            if outcome.parsed_choice is None:
                bucket.unparseable += 1

    return BehavioralReport(model_id, overall, splits, with_rag=bool(rag_outcomes))


def _check_coverage(mode: str, outcomes: Sequence[EvalOutcome], by_id: dict[str, QAItem]) -> None:
    """Raise, with the counts, unless ``outcomes`` are of ``mode`` and answer
    every item of ``by_id`` exactly once."""
    answered = {o.qa_id for o in outcomes}
    missing = len(by_id.keys() - answered)
    unknown = len(answered - by_id.keys())
    repeated = len(outcomes) - len(answered)
    other_mode = sum(o.mode != mode for o in outcomes)
    if missing or unknown or repeated or other_mode:
        raise ValidationError(
            f"{mode} outcomes do not cover the dataset: {len(outcomes)} outcomes for {len(by_id)} items "
            f"({missing} items unanswered, {unknown} unknown ids, {repeated} repeated, {other_mode} of another mode)"
        )


# ---------------------------------------------------------------------------
# Deterministic evaluation clients for offline runs and tests
# ---------------------------------------------------------------------------


# The answering behaviours of the ``mock:<behavior>`` evaluation models.
MOCK_EVAL_BEHAVIORS = ("oracle", "adversarial", "uniform", "hash")


class MockEvalTransport:
    """The offline answering model of a ``mock:<behavior>`` model id.

    It finds the item under evaluation by its options block and answers:
    ``oracle`` the correct letter; ``adversarial`` the hard negative;
    ``uniform`` a seeded-uniform wrong option, the baseline against which
    elevated hard-negative rates are judged; ``hash`` what
    ``MockChatTransport`` answers. Given the golden passage of each item
    (RAG mode), ``uniform`` and ``hash`` answer correctly when the item's
    passage is in the prompt, which exercises recovery offline. An item it
    cannot find gets "A" (``hash`` needs no item)."""

    def __init__(
        self, model: str, items: Sequence[QAItem], seed: int, golden_texts: dict[str, str] | None = None
    ):
        prefix, _, behavior = model.partition(":")
        if prefix != "mock" or behavior not in MOCK_EVAL_BEHAVIORS:
            raise ValidationError(f"unknown mock evaluation model: {model!r}")
        self.behavior = behavior
        self.seed = seed
        self.golden_texts = golden_texts or {}
        self.provider_id = f"mock-eval:{behavior}:s{seed}"
        self._hash = MockChatTransport(seed=seed)
        self._by_block = {prompts.options_block(item.options): item for item in items}

    def complete(self, request: ChatRequest) -> str:
        prompt = "\n".join(request.messages)
        # The evaluation prompt sandwiches the options block between the
        # "Options:" header and the answer instruction.
        _, _, tail = prompt.partition("Options:\n")
        block, _, _ = tail.partition(f"\n\n{prompts.ANSWER_INSTRUCTION}")
        item = self._by_block.get(block)
        if item is not None and self.behavior in ("uniform", "hash"):
            golden = self.golden_texts.get(item.qa_id)
            if golden and golden in prompt:
                return _letter(item.answer_index)
        if self.behavior == "hash":
            return self._hash.complete(request)
        if item is None:
            return "A"
        if self.behavior == "oracle":
            return _letter(item.answer_index)
        if self.behavior == "adversarial":
            return _letter(item.hard_negative_index)
        wrong = [i for i in range(len(item.options)) if i != item.answer_index]
        return _letter(random.Random(derive_seed(self.seed, "uniform-wrong", item.qa_id)).choice(wrong))


def _letter(index: int) -> str:
    return chr(ord("A") + index)
