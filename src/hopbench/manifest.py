"""Run manifest: a digest-chained record of every stage execution.

Each stage entry stores the config digest it ran under plus the SHA-256 of
every input and output file, which is what makes stage re-runs skippable,
stale configs detectable, and each artifact traceable to its producers."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from .codec import from_record, to_record
from .errors import StaleRunError
from .seeding import stable_digest

TOOL_VERSION = "0.1.0"
MANIFEST_NAME = "manifest.json"


def file_digest(path: str | Path) -> str:
    return stable_digest(Path(path).read_bytes())


@dataclass
class StageRecord:
    stage: str
    config_digest: str
    inputs: dict[str, str]
    outputs: dict[str, str]
    started_at: float
    finished_at: float
    status: str = "ok"
    stats: dict = field(default_factory=dict)


class RunManifest:
    def __init__(self, run_id: str, config_digest: str):
        self.run_id = run_id
        self.config_digest = config_digest
        self.tool_version = TOOL_VERSION
        self.stages: list[StageRecord] = []

    # -- persistence ---------------------------------------------------------

    @classmethod
    def path_for(cls, run_dir: str | Path) -> Path:
        return Path(run_dir) / MANIFEST_NAME

    @classmethod
    def load(cls, run_dir: str | Path) -> "RunManifest | None":
        path = cls.path_for(run_dir)
        if not path.exists():
            return None
        data = json.loads(path.read_text(encoding="utf-8"))
        manifest = cls(run_id=data["run_id"], config_digest=data["config_digest"])
        manifest.tool_version = data.get("tool_version", TOOL_VERSION)
        manifest.stages = [from_record(StageRecord, entry) for entry in data.get("stages", [])]
        return manifest

    def save(self, run_dir: str | Path) -> None:
        path = self.path_for(run_dir)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "run_id": self.run_id,
            "config_digest": self.config_digest,
            "tool_version": self.tool_version,
            "stages": [to_record(stage) for stage in self.stages],
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)

    # -- stage bookkeeping ----------------------------------------------------

    def latest(self, stage: str) -> StageRecord | None:
        for record in reversed(self.stages):
            if record.stage == stage:
                return record
        return None

    def check_config(self, config_digest: str, force: bool = False) -> None:
        if self.config_digest != config_digest:
            if not force:
                raise StaleRunError(
                    "config digest does not match this run directory's manifest "
                    f"({config_digest[:12]} vs {self.config_digest[:12]}); rerun with --force to proceed"
                )
            self.config_digest = config_digest

    def record_stage(
        self,
        stage: str,
        config_digest: str,
        inputs: dict[str, Path],
        outputs: dict[str, Path],
        started_at: float,
        stats: dict | None = None,
    ) -> StageRecord:
        record = StageRecord(
            stage=stage,
            config_digest=config_digest,
            inputs={name: file_digest(path) for name, path in sorted(inputs.items())},
            outputs={name: file_digest(path) for name, path in sorted(outputs.items())},
            started_at=started_at,
            finished_at=time.time(),
            stats=stats or {},
        )
        self.stages.append(record)
        return record

    def is_noop(self, stage: str, config_digest: str, inputs: dict[str, Path], outputs: dict[str, Path]) -> bool:
        """True when this stage already ran on identical inputs and its
        outputs are still on disk with matching digests."""
        record = self.latest(stage)
        if record is None or record.status != "ok" or record.config_digest != config_digest:
            return False
        try:
            current_inputs = {name: file_digest(path) for name, path in sorted(inputs.items())}
            current_outputs = {name: file_digest(path) for name, path in sorted(outputs.items())}
        except FileNotFoundError:
            return False
        return current_inputs == record.inputs and current_outputs == record.outputs
