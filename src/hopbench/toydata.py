"""Bundled toy corpus for smoke tests, demos, and deterministic end-to-end runs."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .config import PipelineConfig

_TOY_DOCS = ("toy_metabolic.txt", "toy_respiratory.txt", "toy_circulatory.txt")


def _asset_path(name: str) -> Path:
    return Path(str(resources.files("hopbench").joinpath(f"assets/{name}")))


def toy_corpus_paths() -> list[str]:
    return [str(_asset_path(name)) for name in _TOY_DOCS]


def toy_stoplist_path() -> str:
    return str(_asset_path("toy_stoplist.txt"))


def toy_config(seed: int = 7) -> PipelineConfig:
    """Pipeline settings sized for the bundled corpus, mock providers only."""
    config = PipelineConfig(
        corpus_paths=toy_corpus_paths(),
        language="EN",
        stoplist_path=toy_stoplist_path(),
        gmm_k_max=6,
        gmm_restarts=2,
        max_levels=2,
        target_dim=4,
        per_source_cap=8,
        context_k=3,
        coarse_pool=8,
        provider_mode="mock",
        seed=seed,
    )
    config.validate()
    return config
