"""Hierarchical soft-cluster summary tree over corpus chunks.

Each level projects the current nodes' embeddings, fits mixtures over a K
range, soft-assigns members (a node joins every cluster whose responsibility
clears the membership floor, and always its argmax cluster), and asks the
chat provider for one summary per cluster to form the next level. Building
stops at a single root, at two nodes, or at ``max_levels``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import prompts
from .config import PipelineConfig
from .corpus import Chunk
from .errors import ValidationError
from .gmm import search_cluster_count, soft_assign
from .projection import distance_rank_correlation, reduce_dimensions
from .providers import ChatRequest, ChatService, EmbeddingService
from .seeding import derive_seed

MAX_MEMBER_CHARS = 2000  # of each member text in a summary prompt


@dataclass
class SummaryTreeNode:
    node_id: str
    level: int
    member_ids: dict[str, float]  # child node_id -> membership weight
    summary_text: str  # empty at level 0
    cluster_model_ref: str | None = None


@dataclass
class SummaryTree:
    nodes: dict[str, SummaryTreeNode] = field(default_factory=dict)
    level_reports: list[dict] = field(default_factory=list)

    def add(self, node: SummaryTreeNode) -> None:
        if node.node_id in self.nodes:
            raise ValidationError(f"duplicate tree node {node.node_id}")
        self.nodes[node.node_id] = node

    def max_level(self) -> int:
        return max(n.level for n in self.nodes.values())

    def leaf_ids(self, node_id: str) -> list[str]:
        """Chunk ids under a node, following memberships down to level 0."""
        node = self.nodes[node_id]
        if node.level == 0:
            return [node.node_id]
        collected: set[str] = set()
        for child_id in node.member_ids:
            collected.update(self.leaf_ids(child_id))
        return sorted(collected)

    def validate(self) -> None:
        """Levels strictly decrease toward leaves; child weights sum <= 1."""
        incoming: dict[str, float] = {}
        for node in self.nodes.values():
            for child_id, weight in node.member_ids.items():
                child = self.nodes.get(child_id)
                if child is None:
                    raise ValidationError(f"{node.node_id} references unknown child {child_id}")
                if child.level != node.level - 1:
                    raise ValidationError(
                        f"{node.node_id} (level {node.level}) holds child at level {child.level}"
                    )
                incoming[child_id] = incoming.get(child_id, 0.0) + weight
        for child_id, total in incoming.items():
            if total > 1.0 + 1e-9:
                raise ValidationError(f"{child_id} parent weights sum to {total:.6f} > 1")


def soft_members(gamma, ids: list[str], membership_floor: float) -> dict[int, dict[str, float]]:
    """Cluster memberships from responsibilities: a node joins every cluster
    whose responsibility clears the floor, and always its argmax cluster."""
    n_clusters = gamma.shape[1]
    members: dict[int, dict[str, float]] = {k: {} for k in range(n_clusters)}
    for i, node_id in enumerate(ids):
        row = gamma[i]
        keep = {k for k in range(n_clusters) if row[k] >= membership_floor}
        keep.add(int(np.argmax(row)))
        for k in keep:
            members[k][node_id] = float(row[k])
    return members


def build_summary_tree(
    chunks: list[Chunk],
    chat: ChatService,
    embedder: EmbeddingService,
    config: PipelineConfig,
) -> SummaryTree:
    """Build the hierarchy bottom-up from chunks; one chunk needs no calls.
    Reads the hierarchy settings, ``chat_model`` and the tree seed derived
    from ``config.seed``. Each level's cluster-count search runs its fits in
    one worker process per CPU when the stage may use more than one CPU and
    in-process on one; the tree is the same either way."""
    if not chunks:
        raise ValidationError("cannot build a tree from zero chunks")
    seed = derive_seed(config.seed, "tree")

    tree = SummaryTree()
    for chunk in chunks:
        tree.add(SummaryTreeNode(node_id=chunk.chunk_id, level=0, member_ids={}, summary_text=""))

    texts = {chunk.chunk_id: chunk.text for chunk in chunks}
    # The current level's node ids and their (n, d) embedding matrix.
    ids = [c.chunk_id for c in chunks]
    embeddings = np.asarray([c.embedding for c in chunks], dtype=np.float64)

    for level in range(1, config.max_levels + 1):
        if len(ids) <= 2:
            break
        target_dim = min(config.target_dim, embeddings.shape[1] - 1, len(ids) - 1)
        level_seed = derive_seed(seed, f"tree-level{level}")
        if target_dim >= 1:
            matrix = reduce_dimensions(embeddings, target_dim, seed=level_seed)
            rank_corr = distance_rank_correlation(embeddings, matrix, seed=level_seed)
        else:
            matrix = embeddings
            rank_corr = 1.0

        k_max = min(config.gmm_k_max, len(ids) - 1)
        search = search_cluster_count(matrix, K_max=k_max, seed=level_seed, n_restarts=config.gmm_restarts)
        gamma = soft_assign(search.best, matrix)
        members_by_cluster = soft_members(gamma, ids, config.membership_floor)

        tree.level_reports.append(
            {
                "level": level,
                "n_points": len(ids),
                "k_star": search.k_star,
                "projector_target_dim": int(target_dim),
                "distance_rank_correlation": round(float(rank_corr), 6),
                "bic_by_k": {str(k): round(v, 6) for k, v in sorted(search.bic_by_k.items())},
                "log_likelihood_by_k": {
                    str(k): round(v, 6) for k, v in sorted(search.log_likelihood_by_k.items())
                },
                "em_iterations": len(search.best.iteration_trace),
                "em_converged": search.best.converged,
                "likelihood_trace": [round(v, 6) for v in search.best.iteration_trace],
            }
        )

        new_nodes: list[SummaryTreeNode] = []
        for k in range(search.k_star):
            members = members_by_cluster[k]
            if not members:
                continue
            node_id = f"n{level}-{k:03d}"
            member_texts = [texts[m][:MAX_MEMBER_CHARS] for m in sorted(members)]
            prompt = prompts.render_summary_prompt(member_texts)
            request = ChatRequest.user(
                prompt,
                temperature=0.0,
                model_name=config.chat_model,
                seed=derive_seed(seed, f"summary-{node_id}"),
            )
            summary = chat.complete(request).strip()
            new_nodes.append(
                SummaryTreeNode(
                    node_id=node_id,
                    level=level,
                    member_ids=members,
                    summary_text=summary,
                    cluster_model_ref=f"level{level}:k{search.k_star}",
                )
            )

        for node in new_nodes:
            tree.add(node)
            texts[node.node_id] = node.summary_text
        ids = [node.node_id for node in new_nodes]
        embeddings = embedder.embed_texts([node.summary_text for node in new_nodes])

    tree.validate()
    return tree
