"""Schema-versioned JSONL snapshots.

Every artifact file starts with a header line naming its schema and version;
records follow one JSON object per line with sorted keys, so identical data
always serializes to identical bytes. Writes are atomic (temp + rename), as
are those of the JSON reports and the run manifest. A non-finite number
(NaN, infinity) is not JSON: writing one raises ``ValueError``."""

from __future__ import annotations

import json
import logging
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .errors import MigrationError, SnapshotError

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1  # of every artifact's header; a reader refuses any other


def canonical_json(obj) -> str:
    """Sorted keys, no whitespace, UTF-8 kept: equal data gives equal text.
    Every JSONL line, request hash and stage-run digest is written by it."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"), allow_nan=False)


@contextmanager
def _replacing(path: Path) -> Iterator[TextIO]:
    """A handle on ``<path>.tmp``, renamed over ``path`` once written in full;
    a write that raises deletes it and leaves ``path`` as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as handle:
            yield handle
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def snapshot(records: Iterable[dict], path: str | Path, schema: str) -> Path:
    """Write records under a schema header; an empty list gives a header-only file."""
    path = Path(path)
    with _replacing(path) as handle:
        handle.write(canonical_json({"schema": schema, "version": SCHEMA_VERSION}) + "\n")
        for record in records:
            handle.write(canonical_json(record) + "\n")
    return path


def write_json(path: Path, payload: dict) -> None:
    """Write one indented JSON document (a report, the manifest) atomically."""
    with _replacing(path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n")


def load(path: str | Path, schema: str) -> list[dict]:
    """Read records back, enforcing the schema header on line 1; blank lines
    after it are skipped, and malformed lines raise with their line number."""
    path = Path(path)
    if not path.exists():
        raise SnapshotError(f"snapshot not found: {path}")
    with path.open("r", encoding="utf-8") as handle:
        first = handle.readline().strip()
        header = _parse(path, 1, first) if first else None
        if not isinstance(header, dict) or "schema" not in header:
            raise MigrationError(f"{path}: missing schema header line")
        if header["schema"] != schema:
            raise MigrationError(f"{path}: schema {header['schema']!r} where {schema!r} expected")
        if header.get("version") != SCHEMA_VERSION:
            raise MigrationError(
                f"{path}: schema version {header.get('version')} (reader supports {SCHEMA_VERSION})"
            )
        records: list[dict] = []
        for line_number, line in enumerate(handle, start=2):
            stripped = line.strip()
            if stripped:
                records.append(_parse(path, line_number, stripped))
    return records


def _parse(path: Path, line_number: int, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"{path}: malformed JSON at line {line_number}: {exc.msg}") from exc


class IncrementalWriter:
    """Append-mode JSONL writer for resumable stages (evaluation outcomes), a
    context manager that holds one open handle until it is closed.

    The header names the digest of the stage run the records are written
    under: its settings and the digests of its input files. The header and
    each appended record are flushed at once, so a reader sees them while the
    writer is open and an interrupted run keeps everything written so far;
    a run under the same digest resumes them. Opening a file whose last line
    has no newline (a write cut short) truncates that incomplete record, as a
    write-ahead log does on recovery; a file whose header names another
    digest, or none, is started afresh."""

    def __init__(self, path: str | Path, schema: str, run_digest: str):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = canonical_json({"schema": schema, "version": SCHEMA_VERSION, "run_digest": run_digest}) + "\n"
        resume = False
        if self.path.exists():
            _drop_torn_tail(self.path)
            with self.path.open("r", encoding="utf-8") as handle:
                resume = handle.readline() == header
            if not resume:
                logger.info("%s: no records under this run digest; starting afresh", self.path)
        self._handle = self.path.open("a" if resume else "w", encoding="utf-8")
        if not resume:
            self._handle.write(header)
            self._handle.flush()

    def append(self, record: dict) -> None:
        self._handle.write(canonical_json(record) + "\n")
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> IncrementalWriter:
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _drop_torn_tail(path: Path) -> None:
    """Truncate the file back to its last newline when it does not end in one."""
    with path.open("rb+") as handle:
        size = handle.seek(0, os.SEEK_END)
        if size == 0:
            return
        handle.seek(size - 1)
        if handle.read(1) == b"\n":
            return
        handle.seek(0)
        keep = handle.read().rfind(b"\n") + 1
        handle.truncate(keep)
    logger.warning("%s: dropped an incomplete last record (%d bytes)", path, size - keep)
