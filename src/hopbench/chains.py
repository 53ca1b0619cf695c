"""Two-hop chain mining and topology-driven hard-negative sampling.

A chain is a directed path A -> bridge -> B over present entities. The hard
negative comes from a sibling branch of the same source: pick another
outgoing edge A -> sibling and one of its downstream targets B' that is none
of the chain's own nodes, so the distractor is structurally plausible."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .errors import NoHardNegativeError, ValidationError
from .kg import Evidence, KnowledgeGraph, Triplet


@dataclass(frozen=True)
class ReasoningChain:
    a: str
    e_bridge: str
    b: str
    relation_hop1: str
    relation_hop2: str
    evidence_hop1: Evidence
    evidence_hop2: Evidence
    e_sib: str | None = None
    b_prime: str | None = None
    relation_sibling: str | None = None
    evidence_sibling: Evidence | None = None

    @property
    def key(self) -> str:
        return f"{self.a}>{self.e_bridge}>{self.b}"

    @property
    def complete(self) -> bool:
        return self.e_sib is not None and self.b_prime is not None


def mine_chains(graph: KnowledgeGraph, per_source_cap: int | None) -> list[ReasoningChain]:
    """Enumerate deduplicated directed 2-hop paths with their edge evidence,
    at most ``per_source_cap`` per source (None: no cap)."""
    chains: list[ReasoningChain] = []
    seen: set[tuple[str, str, str]] = set()
    for a in graph.present_ids():
        per_source = 0
        for edge1 in graph.out_edges(a):
            bridge = edge1.tail
            for edge2 in graph.out_edges(bridge):
                b = edge2.tail
                if b == a:
                    continue
                signature = (a, bridge, b)
                if signature in seen:
                    continue
                seen.add(signature)
                if per_source_cap is not None and per_source >= per_source_cap:
                    continue
                chains.append(
                    ReasoningChain(
                        a=a,
                        e_bridge=bridge,
                        b=b,
                        relation_hop1=edge1.relation,
                        relation_hop2=edge2.relation,
                        evidence_hop1=edge1.evidence,
                        evidence_hop2=edge2.evidence,
                    )
                )
                per_source += 1
    return chains


def _sibling_candidates(chain: ReasoningChain, graph: KnowledgeGraph) -> dict[str, list[Triplet]]:
    """sibling id -> its valid distractor edges, in deterministic order."""
    excluded_targets = {chain.a, chain.e_bridge, chain.b}
    candidates: dict[str, list[Triplet]] = {}
    for edge in graph.out_edges(chain.a):
        sibling = edge.tail
        if sibling == chain.e_bridge or sibling in candidates:
            continue
        valid = [e for e in graph.out_edges(sibling) if e.tail not in excluded_targets]
        if valid:
            candidates[sibling] = valid
    return dict(sorted(candidates.items()))


def sample_hard_negative(chain: ReasoningChain, graph: KnowledgeGraph, rng_seed: int) -> ReasoningChain:
    """Complete a chain with a seeded-uniform sibling branch (e_sib, B')."""
    if chain.complete:
        raise ValidationError(f"chain {chain.key} already has a hard negative")
    candidates = _sibling_candidates(chain, graph)
    if not candidates:
        raise NoHardNegativeError(f"no sibling branch available for chain {chain.key}")
    rng = random.Random(rng_seed)
    sibling = rng.choice(sorted(candidates))
    edges = candidates[sibling]
    targets = sorted({e.tail for e in edges})
    b_prime = rng.choice(targets)
    edge = next(e for e in edges if e.tail == b_prime)
    return replace(
        chain,
        e_sib=sibling,
        b_prime=b_prime,
        relation_sibling=edge.relation,
        evidence_sibling=edge.evidence,
    )
