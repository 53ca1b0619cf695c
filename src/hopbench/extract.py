"""LLM-backed triplet extraction from tree nodes, with evidence validation.

Every returned triplet must cite a sentence in which both surface forms are
actually present; anything else is rejected and counted. Unparseable model
output is re-asked twice before the node is declared failed (the pipeline
logs it and moves on)."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping

from . import prompts
from .corpus import Chunk, SentenceStore, normalize_for_match
from .errors import ExtractionError
from .kg import Evidence, RawTriplet
from .providers import ChatRequest, ChatService
from .seeding import derive_seed
from .tree import SummaryTree

logger = logging.getLogger(__name__)

MAX_REASKS = 2


@dataclass
class NodeExtraction:
    node_id: str
    accepted: list[RawTriplet] = field(default_factory=list)
    rejected: int = 0
    rejection_reasons: dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str) -> None:
        self.rejected += 1
        self.rejection_reasons[reason] = self.rejection_reasons.get(reason, 0) + 1


def tagged_sentence_lines(chunks: list[Chunk], store: SentenceStore) -> list[str]:
    """[chunk_id|s=<index>|p=<page>] lines for every sentence of the chunks."""
    lines = []
    for chunk in chunks:
        for index in range(chunk.sentence_span[0], chunk.sentence_span[1] + 1):
            sentence = store.get(chunk.doc_id, index)
            lines.append(f"[{chunk.chunk_id}|s={index}|p={sentence.page_number}] {sentence.text}")
    return lines


def extract_triplets(
    report: NodeExtraction,
    source_chunks: list[Chunk],
    chat: ChatService,
    sentence_store: SentenceStore,
    model_name: str,
    seed: int,
) -> list[RawTriplet]:
    """Extract evidence-validated triplets for the tree node ``report`` is
    for, recording accepted and rejected rows in it."""
    node_id = report.node_id
    lines = tagged_sentence_lines(source_chunks, sentence_store)
    if not lines:
        return []
    chunk_by_id = {chunk.chunk_id: chunk for chunk in source_chunks}

    request = ChatRequest.user(
        prompts.render_extraction_prompt(lines),
        temperature=0.0,
        model_name=model_name,
        seed=derive_seed(seed, "extract", node_id),
    )
    rows = None
    for attempt in range(1 + MAX_REASKS):
        rows = prompts.parse_json_reply(chat.complete(request), list)
        if rows is not None:
            break
        request = request.with_reask("Return ONLY the JSON array, with no surrounding text.")
    if rows is None:
        raise ExtractionError(f"unparseable extraction output for node {node_id} after {MAX_REASKS} re-asks")

    for row in rows:
        if not isinstance(row, dict):
            report.reject("not_an_object")
            continue
        try:
            head = str(row["head"]).strip()
            relation = str(row["relation"]).strip()
            tail = str(row["tail"]).strip()
            chunk_id = str(row["chunk_id"])
            sentence_index = int(row["sentence_index"])
        except (KeyError, TypeError, ValueError):
            report.reject("missing_fields")
            continue
        if not head or not relation or not tail:
            report.reject("empty_fields")
            continue
        if normalize_for_match(head) == normalize_for_match(tail):
            report.reject("self_loop")
            continue
        chunk = chunk_by_id.get(chunk_id)
        if chunk is None:
            report.reject("unknown_chunk")
            continue
        if not chunk.sentence_span[0] <= sentence_index <= chunk.sentence_span[1]:
            report.reject("sentence_out_of_span")
            continue
        sentence = sentence_store.get(chunk.doc_id, sentence_index)
        sentence_normal = normalize_for_match(sentence.text)
        if normalize_for_match(head) not in sentence_normal or normalize_for_match(tail) not in sentence_normal:
            report.reject("surface_not_in_evidence")
            logger.debug("node %s: rejected %r -> %r (not in cited sentence)", node_id, head, tail)
            continue
        report.accepted.append(
            RawTriplet(
                head_surface=head,
                relation=relation,
                tail_surface=tail,
                evidence=Evidence(
                    chunk_id=chunk_id,
                    sentence_span=(sentence_index, sentence_index),
                    page_anchor=sentence.page_number,
                ),
                source_node_id=node_id,
            )
        )
    return report.accepted


def extract_tree(
    tree: SummaryTree,
    chunks: Mapping[str, Chunk],
    chat: ChatService,
    sentence_store: SentenceStore,
    model_name: str,
    seed: int,
) -> tuple[list[RawTriplet], list[NodeExtraction], list[str]]:
    """Run extraction over every tree node; a node whose reply stays
    unparseable is skipped, and a provider failure ends the run.

    Returns (raw triplets, per-node reports, failed node ids). Entities that
    recur across many hierarchical nodes thereby accumulate frequency, which
    is what the shattering threshold keys on. ``chunks`` maps chunk id to
    chunk.
    """
    raw: list[RawTriplet] = []
    reports: list[NodeExtraction] = []
    failed: list[str] = []
    node_ids = sorted(tree.nodes, key=lambda nid: (tree.nodes[nid].level, nid))
    for node_id in node_ids:
        member_chunks = [chunks[cid] for cid in tree.leaf_ids(node_id) if cid in chunks]
        report = NodeExtraction(node_id=node_id)
        try:
            accepted = extract_triplets(report, member_chunks, chat, sentence_store, model_name, seed)
        except ExtractionError as exc:
            logger.warning("extraction failed for node %s: %s", node_id, exc)
            failed.append(node_id)
            continue
        raw.extend(accepted)
        reports.append(report)
    return raw, reports, failed
