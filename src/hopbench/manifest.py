"""Run manifest: a digest-chained record of the last execution of each stage.

Each stage record stores the key the stage ran under (the settings it and
its upstream stages read, and its arguments) plus the SHA-256 of every input
and output file, which is what makes stage re-runs skippable, stale upstream
stages detectable, and each artifact traceable to its producers."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from .codec import from_record, to_record
from .jsonl import write_json
from .seeding import stable_digest

MANIFEST_NAME = "manifest.json"


def file_digest(path: str | Path) -> str:
    return stable_digest(Path(path).read_bytes())


@dataclass
class StageRecord:
    stage: str
    inputs: dict[str, str]
    outputs: dict[str, str]
    started_at: float
    finished_at: float
    key: dict = field(default_factory=dict)  # empty in a record made before stages had keys
    stats: dict = field(default_factory=dict)


class RunManifest:
    """One record per stage (``evaluate:<model>:<mode>`` per model and mode):
    a stage that runs again replaces its record."""

    def __init__(self, stages: dict[str, StageRecord] | None = None):
        self.stages = stages or {}

    @classmethod
    def load(cls, run_dir: str | Path) -> "RunManifest":
        path = Path(run_dir) / MANIFEST_NAME
        if not path.exists():
            return cls()
        records = [from_record(StageRecord, entry) for entry in json.loads(path.read_text(encoding="utf-8"))["stages"]]
        return cls({record.stage: record for record in records})

    def save(self, run_dir: str | Path) -> None:
        path = Path(run_dir) / MANIFEST_NAME
        write_json(path, {"stages": [to_record(record) for record in self.stages.values()]})

    def record_stage(
        self,
        stage: str,
        key: dict,
        input_digests: dict[str, str],
        outputs: dict[str, Path],
        started_at: float,
        stats: dict | None = None,
    ) -> None:
        record = StageRecord(
            stage=stage,
            key=key,
            inputs=input_digests,
            outputs={name: file_digest(path) for name, path in outputs.items()},
            started_at=started_at,
            finished_at=time.time(),
            stats=stats or {},
        )
        self.stages.pop(stage, None)  # the latest run goes last
        self.stages[stage] = record

    def unchanged(self, stage: str, key: dict, input_digests: dict[str, str], outputs: dict[str, Path]) -> bool:
        """Whether this stage last ran under ``key`` over inputs of these
        digests and its outputs are as it left them. Outputs are digested
        only when the key and inputs match; a missing output is a change."""
        record = self.stages.get(stage)
        if record is None or record.key != key or record.inputs != input_digests:
            return False
        try:
            return {name: file_digest(path) for name, path in outputs.items()} == record.outputs
        except FileNotFoundError:
            return False
