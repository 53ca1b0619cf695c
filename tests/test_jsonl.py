from __future__ import annotations

import math

import pytest

from hopbench.errors import MigrationError, SnapshotError
from hopbench.jsonl import IncrementalWriter, canonical_json, load, snapshot, write_json


def test_round_trip_structural_equality(tmp_path):
    records = [
        {"qa_id": "qa1", "options": ["a", "b"], "nested": {"x": 1.5}},
        {"qa_id": "qa2", "options": [], "nested": {"x": None}},
        {"qa_id": "qa3", "options": ["只"], "nested": {"x": [1, 2, 3]}},
    ]
    path = snapshot(records, tmp_path / "data.jsonl", schema="dataset")
    assert load(path, "dataset") == records


def test_empty_records_give_header_only_file(tmp_path):
    path = snapshot([], tmp_path / "empty.jsonl", schema="chains")
    assert path.read_text(encoding="utf-8").count("\n") == 1
    assert load(path, "chains") == []


def test_truncated_final_line_reports_line_number(tmp_path):
    path = snapshot([{"a": 1}, {"b": 2}], tmp_path / "t.jsonl", schema="s")
    content = path.read_text(encoding="utf-8")
    path.write_text(content[:-4], encoding="utf-8")  # chop the last record
    with pytest.raises(SnapshotError) as excinfo:
        load(path, "s")
    assert "malformed JSON at line 3" in str(excinfo.value)


def test_schema_mismatch_is_migration_error(tmp_path):
    path = snapshot([{"a": 1}], tmp_path / "m.jsonl", schema="chunks")
    with pytest.raises(MigrationError):
        load(path, "dataset")


def test_version_mismatch_is_migration_error(tmp_path):
    path = tmp_path / "v.jsonl"
    path.write_text('{"schema":"chunks","version":2}\n{"a":1}\n', encoding="utf-8")
    with pytest.raises(MigrationError):
        load(path, "chunks")


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "h.jsonl"
    path.write_text('{"a": 1}\n', encoding="utf-8")
    with pytest.raises(MigrationError):
        load(path, "chunks")


def test_missing_file_is_snapshot_error(tmp_path):
    with pytest.raises(SnapshotError):
        load(tmp_path / "nope.jsonl", "chunks")


def test_serialization_is_byte_stable(tmp_path):
    records = [{"b": 2, "a": 1, "z": [3, 2]}]
    first = snapshot(records, tmp_path / "one.jsonl", schema="s").read_bytes()
    second = snapshot(records, tmp_path / "two.jsonl", schema="s").read_bytes()
    assert first == second


def test_header_must_be_the_first_line(tmp_path):
    path = tmp_path / "b.jsonl"
    # a blank first line does not let a foreign header through as a record
    path.write_text('\n{"schema":"other","version":9}\n{"a":1}\n', encoding="utf-8")
    with pytest.raises(MigrationError, match="missing schema header line"):
        load(path, "dataset")


def test_empty_file_has_no_header(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(MigrationError, match="missing schema header line"):
        load(path, "dataset")


def test_blank_lines_after_the_header_are_skipped(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"schema":"s","version":1}\n\n{"a":1}\n\n', encoding="utf-8")
    assert load(path, "s") == [{"a": 1}]


def test_incremental_writer_appends_and_resumes(tmp_path):
    path = tmp_path / "outcomes.jsonl"
    with IncrementalWriter(path, schema="outcomes", run_digest="k1") as writer:
        writer.append({"qa_id": "qa1"})
        writer.append({"qa_id": "qa2"})
    # a new writer on the same path, under the same digest, keeps existing rows
    with IncrementalWriter(path, schema="outcomes", run_digest="k1") as again:
        again.append({"qa_id": "qa3"})
    assert [r["qa_id"] for r in load(path, "outcomes")] == ["qa1", "qa2", "qa3"]


def test_incremental_writer_records_are_readable_while_it_is_open(tmp_path):
    # each record is flushed as it is appended: an interrupted run keeps them
    path = tmp_path / "outcomes.jsonl"
    with IncrementalWriter(path, schema="outcomes", run_digest="k1") as writer:
        assert load(path, "outcomes") == []
        for n in range(1, 4):
            writer.append({"qa_id": f"qa{n}"})
            assert [r["qa_id"] for r in load(path, "outcomes")] == [f"qa{i}" for i in range(1, n + 1)]


def test_incremental_writer_starts_afresh_under_another_key_or_none(tmp_path):
    path = tmp_path / "outcomes.jsonl"
    with IncrementalWriter(path, schema="outcomes", run_digest="k1") as writer:
        writer.append({"qa_id": "qa1"})
    with IncrementalWriter(path, schema="outcomes", run_digest="k2") as writer:
        writer.append({"qa_id": "qa2"})
    assert [r["qa_id"] for r in load(path, "outcomes")] == ["qa2"]
    assert path.read_text(encoding="utf-8").splitlines()[0] == (
        '{"run_digest":"k2","schema":"outcomes","version":1}'
    )
    # a header without a digest, as an older writer left it
    path.write_text('{"schema":"outcomes","version":1}\n{"qa_id":"qa1"}\n', encoding="utf-8")
    with IncrementalWriter(path, schema="outcomes", run_digest="k2"):
        pass
    assert load(path, "outcomes") == []


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_number_is_refused_not_written_as_non_json(value):
    with pytest.raises(ValueError):
        canonical_json({"score": value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_refused_write_leaves_the_old_file_and_no_temp_file(tmp_path, value):
    jsonl_path = snapshot([{"a": 1}], tmp_path / "data.jsonl", schema="s")
    json_path = tmp_path / "report.json"
    write_json(json_path, {"a": 1})
    before = {path: path.read_bytes() for path in (jsonl_path, json_path)}
    with pytest.raises(ValueError):
        snapshot([{"a": 2}, {"b": value}], jsonl_path, schema="s")
    with pytest.raises(ValueError):
        write_json(json_path, {"a": 2, "b": value})
    assert {path: path.read_bytes() for path in (jsonl_path, json_path)} == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["data.jsonl", "report.json"]
