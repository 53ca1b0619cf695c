"""Prompt templates used by the pipeline stages, and the parser of the
JSON replies they ask for.

Templates are frozen and versioned: evaluation accuracy is only comparable
across runs that used the same prompt version, so the version string is
embedded in every report. The mock chat provider recognizes each template by
its sentinel line, so changes here must be mirrored there.
"""

from __future__ import annotations

import json
import re
from importlib import resources

EVAL_PROMPT_VERSION = "mcq-v1"

TRIPLET_SENTINEL = "Return ONLY a JSON array of subject-relation-object triples"

TRIPLET_EXTRACTION_TEMPLATE = """\
{sentinel}.
Each passage line below is tagged [chunk_id|s=<sentence_index>|p=<page>].
For every factual relation stated by a single sentence, emit one object with
keys "head", "relation", "tail", "chunk_id", "sentence_index", citing the tag
of the sentence that states it. Use surface forms exactly as written.

Passages:
{passages}
"""

SUMMARY_SENTINEL = "Summarize the following related passages"

SUMMARY_TEMPLATE = """\
{sentinel} in two or three sentences that capture their shared topic. Keep
the key domain terms.

Passages:
{passages}
"""

VIGNETTE_SENTINEL = "Write a clinical vignette question"

VIGNETTE_TEMPLATE = """\
{sentinel} for a multiple-choice exam.

Case facts:
- Presenting context: {context_entity}
- Hidden mechanism (never name it in the question): {bridge_entity}
- Expected downstream finding: {target_entity}
- Evidence for step 1: {evidence_hop1}
- Evidence for step 2: {evidence_hop2}
- Terms forbidden in the question text: {forbidden_terms}

The question must describe the presenting context and ask which downstream
finding is expected, so the reader has to infer the hidden mechanism. Do not
copy evidence sentences verbatim. The rationale must walk through both
evidence steps and may name the hidden mechanism.
Return ONLY a JSON object: {{"question": "...", "rationale": "..."}}
"""

ANSWER_INSTRUCTION = "Answer with the letter of the single best option."

EVAL_TEMPLATE = """\
{context_block}Question: {question}

Options:
{options_block}

{answer_instruction}
"""

RAG_CONTEXT_HEADER = "Background documents:"

ADJUDICATION_SENTINEL = "expert medical adjudicator"

# The quality-adjudication prompt, shipped as a text asset and read once.
ADJUDICATION_TEMPLATE = (
    resources.files("hopbench").joinpath("assets/adjudication_prompt.txt").read_text(encoding="utf-8")
)


def render_extraction_prompt(tagged_sentences: list[str]) -> str:
    return TRIPLET_EXTRACTION_TEMPLATE.format(
        sentinel=TRIPLET_SENTINEL, passages="\n".join(tagged_sentences)
    )


def render_summary_prompt(texts: list[str]) -> str:
    return SUMMARY_TEMPLATE.format(sentinel=SUMMARY_SENTINEL, passages="\n\n".join(texts))


def render_vignette_prompt(
    context_entity: str,
    bridge_entity: str,
    target_entity: str,
    evidence_hop1: str,
    evidence_hop2: str,
    forbidden_terms: list[str],
) -> str:
    return VIGNETTE_TEMPLATE.format(
        sentinel=VIGNETTE_SENTINEL,
        context_entity=context_entity,
        bridge_entity=bridge_entity,
        target_entity=target_entity,
        evidence_hop1=evidence_hop1,
        evidence_hop2=evidence_hop2,
        forbidden_terms="; ".join(forbidden_terms),
    )


def options_block(options: list[str]) -> str:
    """The lettered options, one per line, as the evaluation prompt shows them."""
    return "\n".join(f"{chr(ord('A') + i)}. {text}" for i, text in enumerate(options))


def render_eval_prompt(question: str, options: list[str], context_docs: list[str] | None = None) -> str:
    if context_docs:
        docs = "\n".join(f"[{i + 1}] {doc}" for i, doc in enumerate(context_docs))
        context_block = f"{RAG_CONTEXT_HEADER}\n{docs}\n\n"
    else:
        context_block = ""
    return EVAL_TEMPLATE.format(
        context_block=context_block,
        question=question,
        options_block=options_block(options),
        answer_instruction=ANSWER_INSTRUCTION,
    )


def render_adjudication_prompt(question: str, options: list[str], answer_index: int, rationale: str) -> str:
    letters = [chr(ord("A") + i) for i in range(len(options))]
    options_line = "; ".join(f"{letter}. {text}" for letter, text in zip(letters, options))
    return ADJUDICATION_TEMPLATE.format(
        question=question,
        options=options_line,
        answer=letters[answer_index],
        rationale=rationale,
    )


# The outermost JSON object or array in a reply that wraps it in prose.
_OUTERMOST = {dict: re.compile(r"\{.*\}", re.DOTALL), list: re.compile(r"\[.*\]", re.DOTALL)}


def parse_json_reply(text: str, kind: type[dict] | type[list]) -> dict | list | None:
    """The JSON object (``kind`` dict) or array (``kind`` list) of a model
    reply: the whole reply when it parses, else its outermost braces or
    brackets. None when that is not valid JSON of ``kind``."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        match = _OUTERMOST[kind].search(text)
        if match is None:
            return None
        try:
            value = json.loads(match.group(0))
        except json.JSONDecodeError:
            return None
    return value if isinstance(value, kind) else None
