"""Frequency-indexed entity/edge store with an original and a shattered view.

The shattered view prunes entities whose node frequency exceeds the threshold
k (or that match the stop-entity list) and drops every incident edge, severing
generic-hub shortcuts while the original view stays available for ablation.

Edges are kept in insertion order with one per-head index for directed
traversal (chain mining) and one undirected adjacency index for distances:
the sorted neighbour list of every node, built from the edge list on first
use and dropped by ``add_edge``, the only way an edge enters a graph.
"""

from __future__ import annotations

import logging
import math
import unicodedata
from dataclasses import dataclass, field, replace
from pathlib import Path

from .align import DEFAULT_THETA, SurfaceIndex, ThetaSchedule, fuzzy_merge
from .corpus import normalize_for_match
from .errors import ValidationError
from .seeding import stable_text_digest

logger = logging.getLogger(__name__)


@dataclass
class Entity:
    entity_id: str
    canonical_name: str
    aliases: set[str] = field(default_factory=set)
    frequency: int = 0
    is_pruned: bool = False
    prune_reason: str | None = None  # None | "over_k" | "stoplist"

    def surfaces(self) -> list[str]:
        return [self.canonical_name, *sorted(self.aliases)]


@dataclass(frozen=True)
class Evidence:
    chunk_id: str
    sentence_span: tuple[int, int]
    page_anchor: int


@dataclass(frozen=True)
class Triplet:
    head: str  # entity_id
    relation: str
    tail: str  # entity_id
    evidence: Evidence
    confidence: float = 1.0
    source_node_id: str = ""  # tree node the extraction ran on

    def __post_init__(self):
        if self.head == self.tail:
            raise ValidationError(f"self-loop triplet on {self.head}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValidationError("confidence must be in [0, 1]")


class KnowledgeGraph:
    """Entity and edge store with adjacency and surface indexes."""

    def __init__(
        self,
        view: str = "original",
        k_threshold: float | None = None,
        stoplist_id: str = "",
    ):
        if view not in ("original", "shattered"):
            raise ValidationError(f"unknown graph view: {view!r}")
        self.view = view
        self.k_threshold = k_threshold  # None means unbounded
        self.stoplist_id = stoplist_id
        self.entities: dict[str, Entity] = {}
        self.edges: list[Triplet] = []
        self._out: dict[str, list[int]] = {}
        self._neighbors: dict[str, tuple[str, ...]] | None = None  # built on demand
        self._surface_index: dict[str, str] = {}

    # -- entities -----------------------------------------------------------

    def add_entity(self, canonical_name: str) -> Entity:
        normalized = normalize_for_match(canonical_name)
        if not normalized:
            raise ValidationError("entity canonical name must be non-empty")
        existing = self._surface_index.get(normalized)
        if existing is not None:
            return self.entities[existing]
        entity_id = f"e{len(self.entities):05d}"
        entity = Entity(entity_id=entity_id, canonical_name=canonical_name.strip())
        self.entities[entity_id] = entity
        self._surface_index[normalized] = entity_id
        return entity

    def add_alias(self, entity_id: str, alias: str) -> None:
        entity = self.require(entity_id)
        cleaned = alias.strip()
        if normalize_for_match(cleaned) == normalize_for_match(entity.canonical_name):
            return
        entity.aliases.add(cleaned)
        self._surface_index.setdefault(normalize_for_match(cleaned), entity_id)

    def require(self, entity_id: str) -> Entity:
        entity = self.entities.get(entity_id)
        if entity is None:
            raise ValidationError(f"unknown entity id {entity_id!r}")
        return entity

    def resolve_surface(self, surface: str) -> str | None:
        return self._surface_index.get(normalize_for_match(surface))

    def present(self, entity_id: str) -> bool:
        entity = self.entities.get(entity_id)
        return entity is not None and not entity.is_pruned

    def present_ids(self) -> list[str]:
        return sorted(e.entity_id for e in self.entities.values() if not e.is_pruned)

    # -- edges --------------------------------------------------------------

    def add_edge(self, triplet: Triplet) -> None:
        """Attach an edge; every edge mutation goes through here, so this is
        the one place the adjacency index is invalidated."""
        self.require(triplet.head)
        self.require(triplet.tail)
        self._out.setdefault(triplet.head, []).append(len(self.edges))
        self.edges.append(triplet)
        self._neighbors = None

    def out_edges(self, entity_id: str) -> list[Triplet]:
        return [self.edges[i] for i in self._out.get(entity_id, [])]

    def undirected_neighbors(self, entity_id: str) -> tuple[str, ...]:
        """Sorted ids joined to ``entity_id`` by an edge in either direction,
        pruned or not (callers filter on ``present``)."""
        if self._neighbors is None:
            adjacency: dict[str, set[str]] = {}
            for edge in self.edges:
                adjacency.setdefault(edge.head, set()).add(edge.tail)
                adjacency.setdefault(edge.tail, set()).add(edge.head)
            self._neighbors = {node: tuple(sorted(ids)) for node, ids in adjacency.items()}
        return self._neighbors.get(entity_id, ())

    # -- snapshots ----------------------------------------------------------

    def copy(self, view: str | None = None, edges: list[Triplet] | None = None) -> "KnowledgeGraph":
        """Independent copy of the entities; ``edges`` (default: all of this
        graph's) are attached in order."""
        clone = KnowledgeGraph(
            view=view or self.view, k_threshold=self.k_threshold, stoplist_id=self.stoplist_id
        )
        for entity_id in sorted(self.entities):
            entity = self.entities[entity_id]
            clone.entities[entity_id] = replace(entity, aliases=set(entity.aliases))
        clone._surface_index = dict(self._surface_index)
        for edge in self.edges if edges is None else edges:
            clone.add_edge(edge)
        return clone

    def present_edges(self) -> list[Triplet]:
        """Edges whose endpoints are both present in this view."""
        return [e for e in self.edges if self.present(e.head) and self.present(e.tail)]


def load_stoplist(path: str | Path) -> tuple[set[str], str]:
    """One term per line, UTF-8, '#' comments; returns (terms, stoplist_id)."""
    raw = Path(path).read_text(encoding="utf-8")
    terms = set()
    for line in raw.splitlines():
        term = line.split("#", 1)[0].strip()
        if term:
            terms.add(normalize_for_match(unicodedata.normalize("NFC", term)))
    return terms, stable_text_digest(raw)[:16]


def entity_frequencies(
    triplets: list[Triplet],
    counting_unit: str = "tree_nodes",
    known_ids: set[str] | None = None,
) -> dict[str, int]:
    """Occurrence counts per entity: distinct tree nodes or raw mentions."""
    if counting_unit not in ("tree_nodes", "mentions"):
        raise ValidationError(f"unknown counting unit: {counting_unit!r}")
    if known_ids is not None:
        for triplet in triplets:
            for entity_id in (triplet.head, triplet.tail):
                if entity_id not in known_ids:
                    raise ValidationError(f"unresolved entity id {entity_id!r} in triplet")
    if counting_unit == "mentions":
        counts: dict[str, int] = {}
        for triplet in triplets:
            counts[triplet.head] = counts.get(triplet.head, 0) + 1
            counts[triplet.tail] = counts.get(triplet.tail, 0) + 1
        return counts
    nodes_by_entity: dict[str, set[str]] = {}
    for triplet in triplets:
        for entity_id in (triplet.head, triplet.tail):
            nodes_by_entity.setdefault(entity_id, set()).add(triplet.source_node_id)
    return {entity_id: len(nodes) for entity_id, nodes in nodes_by_entity.items()}


def apply_frequencies(graph: KnowledgeGraph, counting_unit: str = "tree_nodes") -> None:
    counts = entity_frequencies(graph.edges, counting_unit, known_ids=set(graph.entities))
    for entity in graph.entities.values():
        entity.frequency = counts.get(entity.entity_id, 0)


def shatter(
    graph: KnowledgeGraph,
    k: float | None,
    stoplist: set[str] | None = None,
    stoplist_id: str = "",
) -> KnowledgeGraph:
    """Return the shattered view: entities over the frequency threshold or on
    the stoplist are marked pruned and lose every incident edge. The original
    graph is left untouched."""
    stoplist = stoplist or set()
    threshold = math.inf if k is None else float(k)
    if threshold <= 0:
        raise ValidationError("k threshold must be positive")

    shattered = graph.copy(view="shattered", edges=[])
    shattered.k_threshold = k
    shattered.stoplist_id = stoplist_id
    for entity in shattered.entities.values():
        surfaces = {normalize_for_match(s) for s in entity.surfaces()}
        reason: str | None = None
        if surfaces & stoplist:
            reason = "stoplist"
        elif entity.frequency > threshold:
            reason = "over_k"
        entity.is_pruned = reason is not None
        entity.prune_reason = reason
    for edge in graph.edges:
        if shattered.present(edge.head) and shattered.present(edge.tail):
            shattered.add_edge(edge)
    return shattered


@dataclass
class RawTriplet:
    """Extraction output before surfaces are resolved to entity ids."""

    head_surface: str
    relation: str
    tail_surface: str
    evidence: Evidence
    source_node_id: str
    confidence: float = 1.0


@dataclass
class AssemblyReport:
    merged_aliases: int = 0
    dropped_self_loops: int = 0


def assemble_graph(
    raw_triplets: list[RawTriplet],
    theta_schedule: ThetaSchedule = DEFAULT_THETA,
    counting_unit: str = "tree_nodes",
) -> tuple[KnowledgeGraph, AssemblyReport]:
    """Resolve surfaces (exact, then fuzzy) into a graph and index frequencies.

    Fuzzy-merged variants are recorded as aliases of the winning entity, so
    every surface that ever appeared resolves to some entity afterwards. One
    ``SurfaceIndex`` grows with the graph's canonical names and aliases.
    """
    graph = KnowledgeGraph(view="original")
    report = AssemblyReport()
    index = SurfaceIndex()

    def resolve(surface: str) -> str:
        entity_id = graph.resolve_surface(surface)
        if entity_id is not None:
            return entity_id
        merged = fuzzy_merge(surface, index, theta_schedule)
        if merged is not None:
            graph.add_alias(merged, surface)
            index.add(surface, merged, graph.entities[merged].canonical_name)
            report.merged_aliases += 1
            return merged
        entity = graph.add_entity(surface)
        index.add(entity.canonical_name, entity.entity_id, entity.canonical_name)
        return entity.entity_id

    for raw in raw_triplets:
        head_id = resolve(raw.head_surface)
        tail_id = resolve(raw.tail_surface)
        if head_id == tail_id:
            report.dropped_self_loops += 1
            logger.debug("dropped self-loop after merge: %r", raw.head_surface)
            continue
        graph.add_edge(
            Triplet(
                head=head_id,
                relation=raw.relation,
                tail=tail_id,
                evidence=raw.evidence,
                confidence=raw.confidence,
                source_node_id=raw.source_node_id,
            )
        )

    apply_frequencies(graph, counting_unit)
    return graph, report
