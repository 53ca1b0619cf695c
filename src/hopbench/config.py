"""Single-file pipeline configuration with a schema-validated loader.

The config is a flat YAML mapping. Each stage is keyed on the fields it and
its upstream stages read (``pipeline.Stage.reads``), and every report embeds
the digest of its stage's key and input files, so any report can be traced
to the settings and the data that produced it. The master seed fully
determines all stage and per-item seeds via the derivation rule in
``seeding``."""

from __future__ import annotations

import math
import types
import typing
from dataclasses import asdict, dataclass, field
from pathlib import Path

import yaml

from .align import DEFAULT_THETA, ThetaSchedule
from .errors import ValidationError


@dataclass
class PipelineConfig:
    # corpus
    corpus_paths: list[str] = field(default_factory=list)
    language: str = "EN"
    # chunking
    chunk_percentile: float = 95.0
    global_threshold: bool = False
    max_sentences_per_chunk: int = 64
    # graph
    k_threshold: float | None = 50  # None = unbounded
    stoplist_path: str | None = None
    frequency_unit: str = "tree_nodes"
    theta_steps: list[list[int]] = field(default_factory=lambda: [list(step) for step in DEFAULT_THETA.steps])
    theta_above: int = DEFAULT_THETA.above
    # hierarchy
    target_dim: int = 10
    gmm_k_max: int = 50
    gmm_restarts: int = 4
    membership_floor: float = 0.10
    max_levels: int = 4
    # synthesis
    n_options: int = 4
    per_source_cap: int | None = 8
    synthesis_temperature: float = 0.7
    difficulty: str = "hard"
    # evaluation / retrieval
    context_k: int = 5
    coarse_pool: int = 50
    use_reranker: bool = False
    # providers
    provider_mode: str = "mock"  # mock | http
    chat_base_url: str = ""
    embed_base_url: str = ""
    chat_model: str = "default"
    embed_model: str = "default"
    api_key_env: str = "HOPBENCH_API_KEY"
    mock_embed_dim: int = 32
    max_parallel: int = 1
    cache_dir: str | None = None
    adjudication_ensemble: list[str] = field(default_factory=lambda: ["judge-a", "judge-b", "judge-c"])
    # run
    seed: int = 0

    def __post_init__(self):
        # "No threshold" has one spelling, None; YAML's `.inf` loads as a float.
        if self.k_threshold == math.inf:
            self.k_threshold = None

    def theta_schedule(self) -> ThetaSchedule:
        return ThetaSchedule(
            steps=tuple((int(a), int(b)) for a, b in self.theta_steps), above=self.theta_above
        )

    def validate(self) -> None:
        if self.language not in ("EN", "ZH"):
            raise ValidationError(f"language must be EN or ZH, got {self.language!r}")
        if not 0 < self.chunk_percentile <= 100:
            raise ValidationError("chunk_percentile must be in (0, 100]")
        if self.max_sentences_per_chunk < 1:
            raise ValidationError("max_sentences_per_chunk must be >= 1")
        if self.k_threshold is not None and not self.k_threshold >= 1:  # NaN fails too
            raise ValidationError("k_threshold must be >= 1 (or inf)")
        if self.frequency_unit not in ("tree_nodes", "mentions"):
            raise ValidationError("frequency_unit must be tree_nodes or mentions")
        if self.target_dim < 1:
            raise ValidationError("target_dim must be >= 1")
        if self.gmm_k_max < 1 or self.gmm_restarts < 1:
            raise ValidationError("gmm_k_max and gmm_restarts must be >= 1")
        if not 0 <= self.membership_floor < 1:
            raise ValidationError("membership_floor must be in [0, 1)")
        if self.max_levels < 1:
            raise ValidationError("max_levels must be >= 1")
        if self.n_options < 3:
            raise ValidationError("n_options must be >= 3")
        if self.per_source_cap is not None and self.per_source_cap < 1:
            raise ValidationError("per_source_cap must be >= 1 or null")
        if not 0 <= self.synthesis_temperature < math.inf:  # NaN fails too
            raise ValidationError("synthesis_temperature must be a finite number >= 0")
        if self.difficulty not in ("easy", "hard"):
            raise ValidationError("difficulty must be easy or hard")
        if self.context_k < 1:
            raise ValidationError("context_k must be >= 1")
        if self.coarse_pool < self.context_k:
            raise ValidationError("coarse_pool must be >= context_k")
        if self.provider_mode not in ("mock", "http"):
            raise ValidationError("provider_mode must be mock or http")
        if self.provider_mode == "http" and not (self.chat_base_url and self.embed_base_url):
            raise ValidationError("http provider mode requires chat_base_url and embed_base_url")
        if self.mock_embed_dim < 2:
            raise ValidationError("mock_embed_dim must be >= 2")
        if self.max_parallel < 1:
            raise ValidationError("max_parallel must be >= 1")
        if not self.adjudication_ensemble:
            raise ValidationError("adjudication_ensemble must name at least one member")
        if any(len(step) != 2 for step in self.theta_steps):
            raise ValidationError("theta_steps must be a list of [limit, tolerance] pairs")
        self.theta_schedule()  # validates the step order

    def to_record(self) -> dict:
        return asdict(self)


_FIELDS = PipelineConfig.__dataclass_fields__
_FIELD_TYPES = typing.get_type_hints(PipelineConfig)


def _conforms(value, tp) -> bool:
    """Whether a YAML value has the annotated type ``tp``; an int is also
    a float, and a bool is only a bool."""
    args = typing.get_args(tp)
    if isinstance(tp, types.UnionType):
        return any(_conforms(value, arg) for arg in args)
    if typing.get_origin(tp) is list:
        return isinstance(value, list) and all(_conforms(v, args[0]) for v in value)
    if isinstance(value, bool):
        return tp is bool
    return isinstance(value, (int, float) if tp is float else tp)


def load_config(path: str | Path) -> PipelineConfig:
    """Read and validate the YAML config; unknown keys and values of the
    wrong type are rejected."""
    raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: config must be a mapping")
    unknown = set(raw) - set(_FIELDS)
    if unknown:
        raise ValidationError(f"{path}: unknown config keys: {sorted(unknown)}")
    if raw.get("k_threshold") in ("inf", "null"):
        raw["k_threshold"] = None
    for key, value in raw.items():
        if not _conforms(value, _FIELD_TYPES[key]):
            raise ValidationError(f"{path}: {key} must be of type {_FIELDS[key].type}, got {value!r}")
    config = PipelineConfig(**raw)
    config.validate()
    return config


def dump_config(config: PipelineConfig, path: str | Path) -> None:
    Path(path).write_text(yaml.safe_dump(config.to_record(), sort_keys=True), encoding="utf-8")
