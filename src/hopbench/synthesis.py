"""Masked vignette synthesis over completed reasoning chains.

The bridge entity must never appear in the question text (it may appear in
the rationale); violations trigger regeneration and, past the retry budget,
a discard with a recorded reason. A provider failure is not a discard: it
propagates and ends the stage, which writes nothing. Options mix the true target, the sibling
hard negative, and fillers drawn from entities topologically far from the
source, shuffled by a per-item seed."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import random

from . import prompts
from .chains import ReasoningChain
from .config import PipelineConfig
from .corpus import Chunk, SentenceStore, normalize_for_match
from .errors import ItemDiscardedError, ValidationError
from .kg import KnowledgeGraph
from .providers import ChatRequest, ChatService
from .seeding import derive_seed
from .topology import bfs_hops

logger = logging.getLogger(__name__)

GENERATION_RETRIES = 2  # regeneration attempts after the first try
FILLER_MIN_DISTANCE = 3
PROMPT_VERSION = "vignette-v1"


@dataclass
class QAItem:
    qa_id: str
    language: str
    difficulty: str
    clinical_task: str
    question: str
    options: list[str]
    answer_index: int
    hard_negative_index: int
    masked_entity: dict  # {"canonical": str, "aliases": [str, ...]}
    rationale: str
    evidence_anchors: list[dict]
    chain_ref: str
    generation_metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.options)
        if not 0 <= self.answer_index < n or not 0 <= self.hard_negative_index < n:
            raise ValidationError(f"{self.qa_id}: option indexes out of bounds")
        if self.answer_index == self.hard_negative_index:
            raise ValidationError(f"{self.qa_id}: answer and hard negative coincide")

    @property
    def split(self) -> str:
        """The report split the item counts in: its language and difficulty."""
        return f"{self.language}|{self.difficulty}"

    def masked_surfaces(self) -> list[str]:
        return [self.masked_entity["canonical"], *self.masked_entity.get("aliases", [])]


def verify_masking(item: QAItem) -> list[str]:
    """Surface forms of the masked entity found in the question text.

    Containment is checked on the normalized (casefolded, NFC, whitespace
    collapsed) strings, question text only: the rationale legitimately names
    the bridge. Empty list means the item passes."""
    question = normalize_for_match(item.question)
    violations = []
    for surface in item.masked_surfaces():
        if normalize_for_match(surface) in question:
            violations.append(surface)
    return violations


def _anchor_record(kind: str, chunk_id: str, span: tuple[int, int], page: int) -> dict:
    return {"hop": kind, "chunk_id": chunk_id, "sentence_span": list(span), "page_anchor": page}


def select_fillers(
    chain: ReasoningChain,
    graph: KnowledgeGraph,
    count: int,
    rng: random.Random,
    far_by_source: dict[str, list[str]],
) -> list[str]:
    """Entity ids at undirected distance >= FILLER_MIN_DISTANCE from the
    source (unreachable counts as far). None of the chain's own nodes is
    that far in the graph it was mined from: the bridge and the sibling are
    one hop from the source, the target and the hard negative two at most.

    ``far_by_source`` memoises the far ids of each source, in
    ``present_ids()`` order, for every item drawn from one unchanged graph;
    the sample is the same as from a fresh search."""
    if count <= 0:
        return []
    far = far_by_source.get(chain.a)
    if far is None:
        distances = bfs_hops(graph, chain.a)
        far = [
            entity_id
            for entity_id in graph.present_ids()
            if distances.get(entity_id, FILLER_MIN_DISTANCE) >= FILLER_MIN_DISTANCE
        ]
        far_by_source[chain.a] = far
    if len(far) < count:
        raise ItemDiscardedError(
            f"chain {chain.key}: only {len(far)} filler candidates for {count} slots",
            reason="insufficient_fillers",
        )
    return rng.sample(far, count)


def synthesize_item(
    chain: ReasoningChain,
    graph: KnowledgeGraph,
    chunk_store: dict[str, Chunk],
    sentence_store: SentenceStore,
    chat: ChatService,
    qa_id: str,
    config: PipelineConfig,
    rng_seed: int,
    far_by_source: dict[str, list[str]],
) -> QAItem:
    """Synthesize one masked multiple-choice item from a completed chain,
    seeded by ``rng_seed``, with the synthesis settings and ``language`` of
    ``config``; ``far_by_source`` is passed on to ``select_fillers``."""
    n_options = config.n_options
    if n_options < 3:
        raise ValidationError("n_options must be >= 3 (target, hard negative, filler)")
    if not chain.complete:
        raise ValidationError(f"chain {chain.key} has no hard negative yet")

    bridge = graph.require(chain.e_bridge)
    source = graph.require(chain.a)
    target = graph.require(chain.b)
    hard_negative = graph.require(chain.b_prime)

    def span_text(evidence) -> str:
        chunk = chunk_store.get(evidence.chunk_id)
        if chunk is None:
            raise ItemDiscardedError(
                f"chain {chain.key}: evidence chunk {evidence.chunk_id} unresolvable",
                reason="unresolvable_evidence",
            )
        return sentence_store.span_text(chunk.doc_id, tuple(evidence.sentence_span))

    evidence_hop1 = span_text(chain.evidence_hop1)
    evidence_hop2 = span_text(chain.evidence_hop2)

    rng = random.Random(derive_seed(rng_seed, "options"))
    fillers = select_fillers(chain, graph, n_options - 2, rng, far_by_source)
    option_names = [target.canonical_name, hard_negative.canonical_name] + [
        graph.require(f).canonical_name for f in fillers
    ]
    order = list(range(n_options))
    rng.shuffle(order)
    options = [option_names[i] for i in order]
    answer_index = options.index(target.canonical_name)
    hard_negative_index = options.index(hard_negative.canonical_name)

    masked = {"canonical": bridge.canonical_name, "aliases": sorted(bridge.aliases)}
    prompt = prompts.render_vignette_prompt(
        context_entity=source.canonical_name,
        bridge_entity=bridge.canonical_name,
        target_entity=target.canonical_name,
        evidence_hop1=evidence_hop1,
        evidence_hop2=evidence_hop2,
        forbidden_terms=[masked["canonical"], *masked["aliases"]],
    )

    attempts = 0
    last_violations: list[str] = []
    for attempt in range(1 + GENERATION_RETRIES):
        attempts = attempt + 1
        request = ChatRequest.user(
            prompt,
            temperature=config.synthesis_temperature,
            model_name=config.chat_model,
            seed=derive_seed(rng_seed, f"attempt{attempt}"),
        )
        response = chat.complete(request)
        payload = prompts.parse_json_reply(response, dict)
        if payload is None or "question" not in payload or "rationale" not in payload:
            last_violations = ["<unparseable generation>"]
            continue
        item = QAItem(
            qa_id=qa_id,
            language=config.language,
            difficulty=config.difficulty,
            clinical_task="unadjudicated",
            question=str(payload["question"]).strip(),
            options=options,
            answer_index=answer_index,
            hard_negative_index=hard_negative_index,
            masked_entity=masked,
            rationale=str(payload["rationale"]).strip(),
            evidence_anchors=[
                _anchor_record("hop1", chain.evidence_hop1.chunk_id, chain.evidence_hop1.sentence_span, chain.evidence_hop1.page_anchor),
                _anchor_record("hop2", chain.evidence_hop2.chunk_id, chain.evidence_hop2.sentence_span, chain.evidence_hop2.page_anchor),
            ],
            chain_ref=chain.key,
            generation_metadata={
                "model": config.chat_model,
                "temperature": config.synthesis_temperature,
                "seed": rng_seed,
                "prompt_version": PROMPT_VERSION,
                "attempts": attempts,
            },
        )
        violations = verify_masking(item)
        if not violations:
            return item
        last_violations = violations
        logger.debug("chain %s attempt %d leaked %s; regenerating", chain.key, attempts, violations)

    raise ItemDiscardedError(
        f"chain {chain.key}: masking violated after {attempts} attempts ({last_violations})",
        reason="masking_violation" if last_violations != ["<unparseable generation>"] else "unparseable_generation",
    )


@dataclass
class Discard:
    chain_key: str
    reason: str
    detail: str


def synthesize_dataset(
    chains: list[ReasoningChain],
    graph: KnowledgeGraph,
    chunk_store: dict[str, Chunk],
    sentence_store: SentenceStore,
    chat: ChatService,
    config: PipelineConfig,
) -> tuple[list[QAItem], list[Discard]]:
    """Synthesize items for every completed chain, each seeded from
    ``config.seed`` and its chain key; discards carry reasons. A
    ``ProviderError`` is raised to the caller, never recorded as a discard."""
    items: list[QAItem] = []
    discards: list[Discard] = []
    far_by_source: dict[str, list[str]] = {}  # chains share sources; the graph is fixed here
    for index, chain in enumerate(chains):
        qa_id = f"qa{index:05d}"
        rng_seed = derive_seed(config.seed, "synthesize", chain.key)
        try:
            items.append(
                synthesize_item(chain, graph, chunk_store, sentence_store, chat, qa_id, config, rng_seed, far_by_source)
            )
        except ItemDiscardedError as exc:
            discards.append(Discard(chain_key=chain.key, reason=exc.reason, detail=str(exc)))
            logger.info("discarded chain %s: %s", chain.key, exc.reason)
    return items, discards
