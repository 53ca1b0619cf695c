from __future__ import annotations

import fcntl
import itertools
import json
import logging
import os
import re
import shutil
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from hopbench import pipeline
from hopbench.cli import main
from hopbench.codec import from_record
from hopbench.config import PipelineConfig, dump_config, load_config
from hopbench.corpus import Chunk
from hopbench.errors import DependencyError, ValidationError
from hopbench.synthesis import QAItem
from hopbench.toydata import toy_config


@pytest.fixture
def toy_yaml(tmp_path):
    path = tmp_path / "toy.yaml"
    dump_config(toy_config(seed=7), path)
    return path


def invoke(args, **kwargs):
    return CliRunner().invoke(main, args, catch_exceptions=False, **kwargs)


# -- config loader ------------------------------------------------------------


def test_config_round_trip(toy_yaml):
    config = load_config(toy_yaml)
    assert config.chunk_percentile == 95.0
    assert config.k_threshold == 50
    assert config.seed == 7


def test_config_digest_stable_and_sensitive(toy_yaml):
    def key(config):
        return pipeline.stage_key(config, "report", ["dataset.jsonl"], {"model": "mock-oracle"})

    first = load_config(toy_yaml)
    second = load_config(toy_yaml)
    assert key(first) == key(second)
    second.seed = 8
    assert key(first) != key(second)


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    for line in ("mystery_knob: 3", "rerank_keep: 15"):  # a removed setting is unknown too
        path.write_text(f"corpus_paths: []\n{line}\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="unknown config keys"):
            load_config(path)


@pytest.mark.parametrize(
    "line", ["k_threshold: fifty", "n_options: four", "use_reranker: 1", "adjudication_ensemble: [1]", "seed: true"]
)
def test_config_value_of_the_wrong_type_exits_2(tmp_path, line):
    path = tmp_path / "bad.yaml"
    path.write_text(f"corpus_paths: []\n{line}\n", encoding="utf-8")
    key = line.split(":")[0]
    with pytest.raises(ValidationError, match=f"{re.escape(str(path))}: {key} must be of type"):
        load_config(path)
    result = invoke(["--config", str(path), "--run-dir", str(tmp_path / "run"), "ingest"])
    assert result.exit_code == 2
    assert key in result.output


def test_readme_configuration_table_names_every_setting():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Configuration", 1)[1].split("\n\n| key |", 1)[1].split("\n\n", 1)[0]
    named = {name for row in table.splitlines() for name in re.findall(r"`(\w+)`", row.split("|")[1])}
    assert named == set(PipelineConfig.__dataclass_fields__)


def test_out_of_range_values_rejected(tmp_path):
    config = PipelineConfig(chunk_percentile=0)
    with pytest.raises(ValidationError):
        config.validate()
    config = PipelineConfig(n_options=2)
    with pytest.raises(ValidationError):
        config.validate()
    config = PipelineConfig(provider_mode="http")  # missing endpoints
    with pytest.raises(ValidationError):
        config.validate()
    # Of the right type, but a step that is not a pair, and a threshold and
    # temperatures that are not finite numbers.
    for line in (
        "theta_steps: [[1, 2, 3]]", "k_threshold: .nan", "synthesis_temperature: .nan", "synthesis_temperature: .inf"
    ):
        path = tmp_path / "bad.yaml"
        path.write_text(f"corpus_paths: []\n{line}\n", encoding="utf-8")
        key = line.split(":")[0]
        with pytest.raises(ValidationError, match=key):
            load_config(path)
        result = invoke(["--config", str(path), "--run-dir", str(tmp_path / "run"), "ingest"])
        assert result.exit_code == 2
        assert key in result.output


def test_inf_threshold_parses_to_none(tmp_path):
    path = tmp_path / "inf.yaml"
    record = toy_config().to_record()
    record["k_threshold"] = "inf"
    path.write_text(yaml.safe_dump(record), encoding="utf-8")
    assert load_config(path).k_threshold is None


def test_an_infinite_threshold_writes_the_bytes_of_no_threshold(tmp_path):
    # YAML's `.inf` loads as a float. No threshold has one spelling, None, so
    # the graph and the report hold JSON `null`/"inf", not `Infinity`.
    def strict(text: str):
        return json.loads(text, parse_constant=lambda name: pytest.fail(f"not JSON: {name}"))

    record = toy_config(seed=7).to_record()
    record["k_threshold"] = None
    written = {}
    for spelling in ("null", ".inf"):
        text = yaml.safe_dump(record).replace("k_threshold: null", f"k_threshold: {spelling}")
        assert f"k_threshold: {spelling}\n" in text
        path = tmp_path / f"{spelling}.yaml"
        path.write_text(text, encoding="utf-8")
        assert load_config(path).k_threshold is None
        run_dir = tmp_path / f"run{spelling}"
        for stage in ("ingest", "chunk", "tree", "extract", "shatter"):
            assert invoke(["--config", str(path), "--run-dir", str(run_dir), stage]).exit_code == 0
        written[spelling] = {name: (run_dir / name).read_bytes() for name in ("graph.jsonl", "topology_report.json")}
        for line in written[spelling]["graph.jsonl"].decode("utf-8").splitlines():
            strict(line)
        assert strict(written[spelling]["topology_report.json"].decode("utf-8"))["k_threshold"] == "inf"
    assert written[".inf"] == written["null"]


# -- stage ordering and idempotence ---------------------------------------------


def test_mine_before_shatter_names_missing_command(tmp_path):
    config = toy_config(seed=7)
    with pytest.raises(DependencyError) as excinfo:
        pipeline.run_mine(tmp_path / "run", config)
    assert "run `hopbench shatter` first" in str(excinfo.value)


def test_cli_dependency_error_exit_code(toy_yaml, tmp_path):
    result = invoke(
        ["--config", str(toy_yaml), "--run-dir", str(tmp_path / "run"), "mine"]
    )
    assert result.exit_code == 3
    assert "shatter" in result.output


def test_report_before_evaluate_names_evaluate(toy_yaml, tmp_path):
    run_dir = tmp_path / "run"
    config = load_config(toy_yaml)
    for fn in (
        pipeline.run_ingest,
        pipeline.run_chunk,
        pipeline.run_tree,
        pipeline.run_extract,
        pipeline.run_shatter,
        pipeline.run_mine,
        pipeline.run_synthesize,
    ):
        fn(run_dir, config)
    with pytest.raises(DependencyError) as excinfo:
        pipeline.run_report(run_dir, config, "mock:oracle")
    assert "run `hopbench evaluate` first" in str(excinfo.value)


def test_every_consumed_artifact_names_a_registered_producer():
    for stage in pipeline.STAGES.values():
        assert stage.name in main.commands
        for name in stage.inputs + stage.optional:
            producer = pipeline.producer(name.format(model="mock-oracle", mode="rag"))
            assert producer in main.commands, f"{stage.name} reads {name}"
            assert producer != stage.name
    assert pipeline.producer("topology_report.json") == "shatter"
    with pytest.raises(KeyError):
        pipeline.producer("unknown.jsonl")


def test_cli_invalid_config_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("chunk_percentile: 250\n", encoding="utf-8")
    result = invoke(["--config", str(bad), "--run-dir", str(tmp_path / "run"), "ingest"])
    assert result.exit_code == 2
    assert "chunk_percentile" in result.output


def test_rerunning_unchanged_stage_is_noop(toy_yaml, tmp_path):
    run_dir = tmp_path / "run"
    config = load_config(toy_yaml)
    first = pipeline.run_ingest(run_dir, config)
    assert first.status == "ok"
    digest_before = (run_dir / "sentences.jsonl").read_bytes()
    second = pipeline.run_ingest(run_dir, config)
    assert second.status == "skipped"
    assert (run_dir / "sentences.jsonl").read_bytes() == digest_before


def test_edited_corpus_file_reruns_ingest(tmp_path):
    config = toy_config(seed=7)
    corpus = []
    for path in config.corpus_paths:
        corpus.append(tmp_path / os.path.basename(path))
        shutil.copyfile(path, corpus[-1])
    config.corpus_paths = [str(path) for path in corpus]
    run_dir = tmp_path / "run"
    first = pipeline.run_ingest(run_dir, config)
    assert pipeline.run_ingest(run_dir, config).status == "skipped"
    with corpus[0].open("a", encoding="utf-8") as handle:
        handle.write("\nAn added sentence about renal clearance.\n")
    second = pipeline.run_ingest(run_dir, config)
    assert second.status == "ok"
    assert second.stats["sentences"] == first.stats["sentences"] + 1


def test_emptied_stoplist_reruns_shatter_and_the_sweep(tmp_path):
    config = toy_config(seed=7)
    stoplist = tmp_path / "stoplist.txt"
    shutil.copyfile(config.stoplist_path, stoplist)
    config.stoplist_path = str(stoplist)
    run_dir = tmp_path / "run"
    for fn in (pipeline.run_ingest, pipeline.run_chunk, pipeline.run_tree, pipeline.run_extract):
        fn(run_dir, config)
    first = pipeline.run_shatter(run_dir, config)
    assert first.stats["pruned_stoplist"] > 0
    assert pipeline.run_shatter(run_dir, config).status == "skipped"
    stoplist.write_text("", encoding="utf-8")
    second = pipeline.run_shatter(run_dir, config)
    assert second.status == "ok"
    assert second.stats["pruned_stoplist"] == 0

    assert pipeline.run_shatter_sweep(run_dir, config, [None, 4.0]).status == "ok"
    assert pipeline.run_shatter_sweep(run_dir, config, [None, 4.0]).status == "skipped"
    stoplist.write_text("blood\n", encoding="utf-8")
    assert pipeline.run_shatter_sweep(run_dir, config, [None, 4.0]).status == "ok"


def test_missing_corpus_file_or_stoplist_is_a_validation_error(tmp_path):
    config = toy_config(seed=7)
    gone = str(tmp_path / "gone.txt")
    with pytest.raises(ValidationError, match="corpus_paths"):
        pipeline.run_ingest(tmp_path / "missing-corpus", replace(config, corpus_paths=[*config.corpus_paths, gone]))

    stoplist = tmp_path / "stoplist.txt"
    shutil.copyfile(config.stoplist_path, stoplist)
    config.stoplist_path = str(stoplist)
    run_dir = tmp_path / "run"
    for fn in (pipeline.run_ingest, pipeline.run_chunk, pipeline.run_tree, pipeline.run_extract):
        fn(run_dir, config)
    stoplist.unlink()
    for run in (pipeline.run_shatter, lambda *args: pipeline.run_shatter_sweep(*args, [None])):
        with pytest.raises(ValidationError, match="stoplist_path"):
            run(run_dir, config)


def test_stage_over_a_stale_upstream_stage_is_refused(toy_yaml, tmp_path):
    run_dir = tmp_path / "run"
    config = load_config(toy_yaml)
    pipeline.run_ingest(run_dir, config)
    changed = load_config(toy_yaml)
    changed.seed = 99  # ingest does not read the seed
    assert pipeline.run_ingest(run_dir, changed).status == "skipped"
    assert pipeline.run_chunk(run_dir, changed).status == "ok"
    changed.chunk_percentile = 90.0
    with pytest.raises(DependencyError, match=r"chunk ran under other settings \(chunk_percentile changed\); run `hopbench chunk` first"):
        pipeline.run_tree(run_dir, changed)
    assert pipeline.run_chunk(run_dir, changed).status == "ok"
    assert pipeline.run_tree(run_dir, changed).status == "ok"


def test_force_is_not_an_option(toy_yaml, tmp_path):
    result = invoke(["--config", str(toy_yaml), "--run-dir", str(tmp_path / "run"), "--force", "ingest"])
    assert result.exit_code == 2
    assert "--force" in result.output


def test_run_lock_blocks_concurrent_commands(toy_yaml, tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    config = load_config(toy_yaml)
    with open(run_dir / ".lock", "a") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)  # another command holds the run
        with pytest.raises(ValidationError, match="run directory is locked"):
            pipeline.run_ingest(run_dir, config)
    assert pipeline.run_ingest(run_dir, config).status == "ok"
    assert (run_dir / ".lock").read_bytes() == b""  # left in place, empty


def test_run_lock_of_a_killed_holder_no_longer_blocks(toy_yaml, tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    config = load_config(toy_yaml)
    hold = (
        "import fcntl, sys, time\n"
        "handle = open(sys.argv[1], 'a')\n"
        "fcntl.flock(handle, fcntl.LOCK_EX)\n"
        "print('locked', flush=True)\n"
        "time.sleep(60)\n"
    )
    holder = subprocess.Popen([sys.executable, "-c", hold, str(run_dir / ".lock")], stdout=subprocess.PIPE, text=True)
    try:
        assert holder.stdout.readline() == "locked\n"
        with pytest.raises(ValidationError, match="run directory is locked"):
            pipeline.run_ingest(run_dir, config)
    finally:
        holder.send_signal(signal.SIGKILL)
        holder.wait(timeout=60)
        holder.stdout.close()
    assert holder.returncode == -signal.SIGKILL
    assert pipeline.run_ingest(run_dir, config).status == "ok"


def test_cli_full_toy_pipeline(toy_yaml, tmp_path):
    run_dir = tmp_path / "run"
    base = ["--config", str(toy_yaml), "--run-dir", str(run_dir)]
    for command in ("ingest", "chunk", "tree", "extract", "shatter", "mine", "synthesize"):
        result = invoke(base + [command])
        assert result.exit_code == 0, f"{command}: {result.output}"
    result = invoke(base + ["evaluate", "--model", "mock:oracle", "--mode", "zero_shot"])
    assert result.exit_code == 0
    result = invoke(base + ["report", "--model", "mock:oracle"])
    assert result.exit_code == 0
    report = json.loads((run_dir / "report_mock-oracle.json").read_text(encoding="utf-8"))
    assert report["total_zero_shot_errors"] == 0
    dataset_lines = (run_dir / "dataset.jsonl").read_text(encoding="utf-8").strip().splitlines()
    assert len(dataset_lines) >= 2  # header plus at least one item
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    stages = [s["stage"] for s in manifest["stages"]]
    assert stages[:7] == ["ingest", "chunk", "tree", "extract", "shatter", "mine", "synthesize"]


def test_manifest_records_matching_digests(toy_yaml, tmp_path):
    import hashlib

    run_dir = tmp_path / "run"
    config = load_config(toy_yaml)
    pipeline.run_ingest(run_dir, config)
    pipeline.run_chunk(run_dir, config)
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    chunk_stage = next(s for s in manifest["stages"] if s["stage"] == "chunk")
    recorded = chunk_stage["inputs"]["sentences.jsonl"]
    on_disk = hashlib.sha256((run_dir / "sentences.jsonl").read_bytes()).hexdigest()
    assert recorded == on_disk


def test_chunks_with_an_embedding_object_are_refused(toy_yaml, tmp_path):
    # Older versions stored each embedding as an object (its dimension, a text
    # hash and the values); decoded as a tuple it would become the key strings.
    run_dir = tmp_path / "run"
    base = ["--config", str(toy_yaml), "--run-dir", str(run_dir)]
    for command in ("ingest", "chunk"):
        assert invoke(base + [command]).exit_code == 0
    chunks = run_dir / "chunks.jsonl"
    header, *lines = chunks.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    for record in records:
        values = record["embedding"]
        record["embedding"] = {"dimension": len(values), "values": values}
    chunks.write_text("\n".join([header] + [json.dumps(r) for r in records]) + "\n", encoding="utf-8")
    result = invoke(base + ["tree"])
    assert result.exit_code == 2
    assert "chunks.jsonl" in result.output and "re-run `hopbench chunk`" in result.output
    chunks.unlink()
    assert invoke(base + ["chunk"]).exit_code == 0
    assert invoke(base + ["tree"]).exit_code == 0


def synthesized_toy_run(run_dir, config) -> None:
    for fn in (
        pipeline.run_ingest,
        pipeline.run_chunk,
        pipeline.run_tree,
        pipeline.run_extract,
        pipeline.run_shatter,
        pipeline.run_mine,
        pipeline.run_synthesize,
    ):
        fn(run_dir, config)


def interrupted_evaluation(run_dir, config, monkeypatch, answered: int):
    """Run `evaluate` (mock:oracle, zero-shot) until ``answered`` outcomes are
    written, then stop it as a crash would: the manifest keeps the record it
    held for the stage, if any."""
    from hopbench.evaluation import MockEvalTransport

    def records():
        stages = json.loads((run_dir / "manifest.json").read_text())["stages"]
        return [r for r in stages if r["stage"] == "evaluate:mock-oracle:zero_shot"]

    before = records()
    real_complete = MockEvalTransport.complete
    calls = []

    def complete(self, request):
        if len(calls) == answered:
            raise KeyboardInterrupt
        calls.append(request)
        return real_complete(self, request)

    with monkeypatch.context() as patch:
        patch.setattr(MockEvalTransport, "complete", complete)
        with pytest.raises(KeyboardInterrupt):
            pipeline.run_evaluate(run_dir, config, "mock:oracle", "zero_shot")
    assert records() == before


def resynthesized_with_reworded_questions(run_dir, config, monkeypatch) -> list[dict]:
    """Delete `dataset.jsonl` and synthesize it again under the same settings
    from a provider that words every question differently, as a sampling
    HTTP model may. Returns the new items."""
    from hopbench.jsonl import load as jsonl_load
    from hopbench.providers import MockChatTransport

    real_vignette = MockChatTransport._vignette

    def vignette(self, text, seed):
        reply = json.loads(real_vignette(self, text, seed))
        reply["question"] = "On review, " + reply["question"]
        return json.dumps(reply, ensure_ascii=False)

    old = jsonl_load(run_dir / "dataset.jsonl", "dataset")
    (run_dir / "dataset.jsonl").unlink()
    with monkeypatch.context() as patch:
        patch.setattr(MockChatTransport, "_vignette", vignette)
        assert pipeline.run_synthesize(run_dir, config).status == "ok"
    items = jsonl_load(run_dir / "dataset.jsonl", "dataset")
    assert [i["qa_id"] for i in items] == [i["qa_id"] for i in old]
    assert all(i["question"].startswith("On review, ") for i in items)
    return items


def evaluated_prompts(run_dir, config, monkeypatch):
    """Run `evaluate` (mock:oracle, zero-shot); return its result and the
    prompts it sent."""
    from hopbench.evaluation import MockEvalTransport

    real_complete = MockEvalTransport.complete
    prompts = []

    def complete(self, request):
        prompts.append("\n".join(request.messages))
        return real_complete(self, request)

    with monkeypatch.context() as patch:
        patch.setattr(MockEvalTransport, "complete", complete)
        return pipeline.run_evaluate(run_dir, config, "mock:oracle", "zero_shot"), prompts


def test_evaluate_resumes_partial_outcomes(toy_yaml, tmp_path, monkeypatch):
    run_dir = tmp_path / "run"
    config = load_config(toy_yaml)
    synthesized_toy_run(run_dir, config)
    from hopbench.jsonl import load as jsonl_load

    dataset = jsonl_load(run_dir / "dataset.jsonl", "dataset")
    interrupted_evaluation(run_dir, config, monkeypatch, answered=1)
    result = pipeline.run_evaluate(run_dir, config, "mock:oracle", "zero_shot")
    assert result.stats["resumed_existing"] == 1
    assert result.stats["evaluated"] == len(dataset) - 1


def test_an_interrupted_first_evaluation_is_not_resumed_under_other_settings(toy_yaml, tmp_path, monkeypatch):
    run_dir = tmp_path / "run"
    config = load_config(toy_yaml)
    synthesized_toy_run(run_dir, config)
    from hopbench.jsonl import load as jsonl_load

    interrupted_evaluation(run_dir, config, monkeypatch, answered=1)
    changed = replace(config, n_options=3)
    assert pipeline.run_synthesize(run_dir, changed).status == "ok"
    result = pipeline.run_evaluate(run_dir, changed, "mock:oracle", "zero_shot")
    dataset = jsonl_load(run_dir / "dataset.jsonl", "dataset")
    assert result.stats == {"evaluated": len(dataset), "resumed_existing": 0}
    outcomes = jsonl_load(run_dir / pipeline.outcomes_name("mock:oracle", "zero_shot"), "outcomes")
    assert all(o["correct"] for o in outcomes)


def test_an_interrupted_evaluation_is_not_resumed_on_a_resynthesized_dataset(toy_yaml, tmp_path, monkeypatch):
    # Same settings, other questions: the outcome answered before the
    # dataset changed is not carried over.
    from hopbench.jsonl import load as jsonl_load

    run_dir = tmp_path / "run"
    config = load_config(toy_yaml)
    synthesized_toy_run(run_dir, config)
    interrupted_evaluation(run_dir, config, monkeypatch, answered=1)
    items = resynthesized_with_reworded_questions(run_dir, config, monkeypatch)
    result, prompts = evaluated_prompts(run_dir, config, monkeypatch)
    assert result.stats == {"evaluated": len(items), "resumed_existing": 0}
    assert len(prompts) == len(items) and all("On review, " in prompt for prompt in prompts)
    outcomes = jsonl_load(run_dir / pipeline.outcomes_name("mock:oracle", "zero_shot"), "outcomes")
    assert sorted(o["qa_id"] for o in outcomes) == sorted(i["qa_id"] for i in items)


def test_an_interrupted_evaluation_of_a_changed_dataset_is_resumed(toy_yaml, tmp_path, monkeypatch):
    # A finished evaluation, then a new dataset whose evaluation is cut
    # short: the next run keeps the outcomes already written over it.
    from hopbench.jsonl import load as jsonl_load

    run_dir = tmp_path / "run"
    config = load_config(toy_yaml)
    synthesized_toy_run(run_dir, config)
    assert pipeline.run_evaluate(run_dir, config, "mock:oracle", "zero_shot").status == "ok"
    items = resynthesized_with_reworded_questions(run_dir, config, monkeypatch)
    assert len(items) >= 3
    interrupted_evaluation(run_dir, config, monkeypatch, answered=2)
    result, prompts = evaluated_prompts(run_dir, config, monkeypatch)
    assert result.stats == {"evaluated": len(items) - 2, "resumed_existing": 2}
    assert len(prompts) == len(items) - 2 and all("On review, " in prompt for prompt in prompts)
    outcomes = jsonl_load(run_dir / pipeline.outcomes_name("mock:oracle", "zero_shot"), "outcomes")
    assert sorted(o["qa_id"] for o in outcomes) == sorted(i["qa_id"] for i in items)
    assert all(o["correct"] for o in outcomes)


def test_evaluate_after_a_resynthesis_in_the_same_process_answers_the_new_questions(
    toy_yaml, tmp_path, monkeypatch
):
    run_dir = tmp_path / "run"
    config = load_config(toy_yaml)
    synthesized_toy_run(run_dir, config)
    assert pipeline.run_evaluate(run_dir, config, "mock:oracle", "zero_shot").status == "ok"
    stale = pipeline._decoded["dataset.jsonl"]
    items = resynthesized_with_reworded_questions(run_dir, config, monkeypatch)
    assert "dataset.jsonl" not in pipeline._decoded  # `synthesize` does not read it
    # Even with the old decode still held, its digest no longer matches the file.
    monkeypatch.setitem(pipeline._decoded, "dataset.jsonl", stale)
    result, prompts = evaluated_prompts(run_dir, config, monkeypatch)
    assert result.stats == {"evaluated": len(items), "resumed_existing": 0}
    assert len(prompts) == len(items) and all("On review, " in prompt for prompt in prompts)
    assert pipeline._decoded["dataset.jsonl"][2] == [from_record(QAItem, i) for i in items]


def test_repeated_models_and_modes_run_in_one_process_and_decode_the_dataset_once(
    toy_yaml, tmp_path, monkeypatch
):
    config = load_config(toy_yaml)
    synthesized_toy_run(tmp_path / "one", config)
    shutil.copytree(tmp_path / "one", tmp_path / "each")
    models, modes = ("mock:oracle", "mock:hash"), ("zero_shot", "rag")
    for model in models:
        for mode in modes:
            base = ["--config", str(toy_yaml), "--run-dir", str(tmp_path / "each")]
            assert invoke(base + ["evaluate", "--model", model, "--mode", mode]).exit_code == 0
            pipeline._decoded.clear()  # as if each command were its own process
        assert invoke(base + ["report", "--model", model]).exit_code == 0
        pipeline._decoded.clear()
    real_read, decoded = pipeline.read_artifact, []
    monkeypatch.setattr(pipeline, "read_artifact", lambda path: decoded.append(path.name) or real_read(path))
    base = ["--config", str(toy_yaml), "--run-dir", str(tmp_path / "one")]
    result = invoke(
        base + ["evaluate", "--model", models[0], "--model", models[1], "--mode", "zero_shot", "--mode", "rag"]
    )
    assert result.exit_code == 0
    assert [line.split(":")[1:3] for line in result.output.splitlines()] == [
        [pipeline.sanitize_model_id(m), mode] for m in models for mode in modes
    ]
    assert invoke(base + ["report", "--model", models[0], "--model", models[1]]).exit_code == 0
    assert decoded.count("dataset.jsonl") == 1  # `retrieve`, the other evaluations and the reports reuse it
    assert decoded.count("chunks.jsonl") == 1  # `retrieve` hands it to the RAG evaluations
    for path in sorted((tmp_path / "each").glob("*_mock-*")):
        assert (tmp_path / "one" / path.name).read_bytes() == path.read_bytes(), path.name


def test_shatter_sweep_appends_to_topology_report(toy_yaml, tmp_path):
    run_dir = tmp_path / "run"
    config = load_config(toy_yaml)
    for fn in (pipeline.run_ingest, pipeline.run_chunk, pipeline.run_tree, pipeline.run_extract, pipeline.run_shatter):
        fn(run_dir, config)
    pipeline.run_shatter_sweep(run_dir, config, [None, 4.0, 1.0])
    report = json.loads((run_dir / "topology_report.json").read_text(encoding="utf-8"))
    assert "original" in report and "shattered" in report
    # The stoplist prunes 2 entities at every k; k = 1 prunes all 26.
    basis = "ordered pairs of distinct nodes in the largest undirected component"
    assert report["sweep"] == [
        {"k": "inf", "node_count": 24, "edge_count": 54, "largest_component_size": 7,
         "average_shortest_path": 2.666667, "path_basis": basis, "component_count": 6, "pruned_count": 2},
        {"k": 4.0, "node_count": 18, "edge_count": 27, "largest_component_size": 4,
         "average_shortest_path": 1.666667, "path_basis": basis, "component_count": 9, "pruned_count": 8},
        {"k": 1.0, "node_count": 0, "edge_count": 0, "largest_component_size": 0,
         "average_shortest_path": None, "path_basis": basis, "component_count": 0, "pruned_count": 26},
    ]


def test_evaluate_resumes_over_a_torn_last_outcome(toy_yaml, tmp_path, caplog, monkeypatch):
    run_dir = tmp_path / "run"
    config = load_config(toy_yaml)
    synthesized_toy_run(run_dir, config)
    from hopbench.jsonl import load as jsonl_load

    dataset = jsonl_load(run_dir / "dataset.jsonl", "dataset")
    assert len(dataset) >= 2
    out_path = run_dir / pipeline.outcomes_name("mock:oracle", "zero_shot")
    interrupted_evaluation(run_dir, config, monkeypatch, answered=1)
    line = json.dumps(
        {
            "model_id": "mock:oracle",
            "qa_id": dataset[1]["qa_id"],
            "mode": "zero_shot",
            "raw_response": "A",
            "parsed_choice": 0,
            "correct": False,
        },
        sort_keys=True,
    )
    # One whole outcome, then half of a second: the write was cut short.
    with out_path.open("a", encoding="utf-8") as handle:
        handle.write(line[: len(line) // 2])
    with caplog.at_level(logging.WARNING, logger="hopbench.jsonl"):
        result = pipeline.run_evaluate(run_dir, config, "mock:oracle", "zero_shot")
    assert "incomplete last record" in caplog.text
    assert result.stats["resumed_existing"] == 1
    assert result.stats["evaluated"] == len(dataset) - 1
    outcomes = jsonl_load(out_path, "outcomes")
    assert sorted(r["qa_id"] for r in outcomes) == sorted(r["qa_id"] for r in dataset)


# -- retrieval once per run ----------------------------------------------------


def test_stored_contexts_equal_fresh_ones(toy_yaml, tmp_path):
    from hopbench.jsonl import load as jsonl_load
    from hopbench.rag import CorpusIndex, build_rag_context, context_passages

    run_dir = tmp_path / "run"
    config = load_config(toy_yaml)
    synthesized_toy_run(run_dir, config)
    assert pipeline.run_retrieve(run_dir, config).status == "ok"

    items = [from_record(QAItem, r) for r in jsonl_load(run_dir / "dataset.jsonl", "dataset")]
    chunks = {r["chunk_id"]: from_record(Chunk, r) for r in jsonl_load(run_dir / "chunks.jsonl", "chunks")}
    index = CorpusIndex(chunks)
    stored = jsonl_load(run_dir / "rag_contexts.jsonl", "rag_contexts")
    assert [r["qa_id"] for r in stored] == [i.qa_id for i in items]
    vectors = pipeline.make_embedding_service(config).embed_texts([i.question for i in items])
    for item, record, vector in zip(items, stored, vectors):
        fresh = build_rag_context(item, index.rank(vector, config.coarse_pool), chunks, config)
        assert context_passages(record, chunks) == context_passages(fresh, chunks)
        assert record["golden_position"] == fresh["golden_position"]
        assert record == fresh
    assert pipeline.run_retrieve(run_dir, config).status == "skipped"


@pytest.mark.parametrize("use_reranker", [False, True])
def test_retrieval_ranks_each_distinct_question_once(toy_yaml, tmp_path, monkeypatch, use_reranker):
    from hopbench.jsonl import load as jsonl_load
    from hopbench.rag import CorpusIndex, build_rag_context

    run_dir = tmp_path / "run"
    config = replace(load_config(toy_yaml), use_reranker=use_reranker)
    synthesized_toy_run(run_dir, config)
    ranked, real_rank = [], CorpusIndex.rank
    monkeypatch.setattr(CorpusIndex, "rank", lambda self, *args: ranked.append(args) or real_rank(self, *args))
    assert pipeline.run_retrieve(run_dir, config).status == "ok"
    items = [from_record(QAItem, r) for r in jsonl_load(run_dir / "dataset.jsonl", "dataset")]
    distinct = {item.question for item in items}
    assert 1 < len(distinct) < len(items)  # the toy repeats its questions
    assert len(ranked) == len(distinct)

    # Each item ranked on its own gets the context that was stored.
    chunks = {r["chunk_id"]: from_record(Chunk, r) for r in jsonl_load(run_dir / "chunks.jsonl", "chunks")}
    index, embedder = CorpusIndex(chunks), pipeline.make_embedding_service(config)
    alone = [
        build_rag_context(item, real_rank(index, embedder.embed_texts([item.question])[0], config.coarse_pool),
                          chunks, config)
        for item in items
    ]
    assert jsonl_load(run_dir / "rag_contexts.jsonl", "rag_contexts") == alone


def recorded_embedding_requests(monkeypatch) -> list[list[str]]:
    """The texts of each request the mock embedding transport receives."""
    from hopbench.providers import MockEmbeddingTransport

    requests = []
    real_embed = MockEmbeddingTransport.embed

    def embed(self, texts):
        requests.append(list(texts))
        return real_embed(self, texts)

    monkeypatch.setattr(MockEmbeddingTransport, "embed", embed)
    return requests


def test_retrieval_embeds_questions_in_fixed_size_slices(toy_yaml, tmp_path, monkeypatch):
    from hopbench import providers
    from hopbench.jsonl import load as jsonl_load

    run_dir = tmp_path / "run"
    config = load_config(toy_yaml)
    synthesized_toy_run(run_dir, config)
    requests = recorded_embedding_requests(monkeypatch)
    assert pipeline.run_retrieve(run_dir, config).status == "ok"
    questions = [r["question"] for r in jsonl_load(run_dir / "dataset.jsonl", "dataset")]
    distinct = list(dict.fromkeys(questions))  # the toy repeats its questions; each is sent once
    assert 1 < len(distinct) < len(questions) <= providers.EMBED_BATCH
    assert requests == [distinct]
    contexts = (run_dir / "rag_contexts.jsonl").read_bytes()

    # More distinct questions than a slice holds take ceil(len / slice)
    # requests, in order, and retrieve the same contexts.
    requests.clear()
    monkeypatch.setattr(providers, "EMBED_BATCH", 1)
    (run_dir / "rag_contexts.jsonl").unlink()
    assert pipeline.run_retrieve(run_dir, config).status == "ok"
    assert requests == [[question] for question in distinct]
    assert (run_dir / "rag_contexts.jsonl").read_bytes() == contexts


def test_stats_and_retrieval_send_no_embedding_request_over_the_slice_size(toy_yaml, tmp_path, monkeypatch):
    from hopbench import providers

    run_dir = tmp_path / "run"
    config = load_config(toy_yaml)
    synthesized_toy_run(run_dir, config)
    outputs = {"stats_report.json": pipeline.run_stats, "rag_contexts.jsonl": pipeline.run_retrieve}
    for run in outputs.values():
        assert run(run_dir, config).status == "ok"
    whole = {name: (run_dir / name).read_bytes() for name in outputs}

    requests = recorded_embedding_requests(monkeypatch)
    monkeypatch.setattr(providers, "EMBED_BATCH", 2)
    for name, run in outputs.items():
        (run_dir / name).unlink()
        assert run(run_dir, config).status == "ok"
        assert (run_dir / name).read_bytes() == whole[name]
    assert requests and max(len(request) for request in requests) == 2


def test_provider_failure_in_tree_exits_4(toy_yaml, tmp_path, monkeypatch):
    from hopbench.errors import TransportError
    from hopbench.providers import MockChatTransport

    def endpoint_down(self, request):
        raise TransportError("endpoint down")

    base = ["--config", str(toy_yaml), "--run-dir", str(tmp_path / "run")]
    for command in ("ingest", "chunk"):
        assert invoke(base + [command]).exit_code == 0
    with monkeypatch.context() as patch:
        patch.setattr(MockChatTransport, "complete", endpoint_down)
        result = invoke(base + ["tree"])
    assert result.exit_code == 4
    assert "endpoint down" in result.output
    # An outage during extraction is not a node that failed to parse.
    assert invoke(base + ["tree"]).exit_code == 0
    monkeypatch.setattr(MockChatTransport, "complete", endpoint_down)
    result = invoke(base + ["extract"])
    assert result.exit_code == 4
    assert "endpoint down" in result.output
    assert not (tmp_path / "run" / "graph_raw.jsonl").exists()


def every_second_call_fails(complete):
    """``complete``, a transport method, with every second call raising
    ``TransportError`` instead; safe to share between threads."""
    from hopbench.errors import TransportError

    calls = itertools.count(1)

    def failing(self, request):
        if next(calls) % 2 == 0:
            raise TransportError("endpoint down")
        return complete(self, request)

    return failing


def recorded_stages(run_dir) -> list[str]:
    return [record["stage"] for record in json.loads((run_dir / "manifest.json").read_text())["stages"]]


def test_provider_failure_in_evaluate_exits_4_and_the_rerun_resumes(toy_yaml, tmp_path, monkeypatch):
    from hopbench.evaluation import MockEvalTransport

    config = load_config(toy_yaml)
    whole, run = tmp_path / "whole", tmp_path / "run"
    for run_dir in (whole, run):
        synthesized_toy_run(run_dir, config)
    evaluate, report = ["evaluate", "--model", "mock:oracle"], ["report", "--model", "mock:oracle"]
    for args in (evaluate, report):
        assert invoke(["--config", str(toy_yaml), "--run-dir", str(whole)] + args).exit_code == 0

    base = ["--config", str(toy_yaml), "--run-dir", str(run)]
    with monkeypatch.context() as patch:
        patch.setattr(MockEvalTransport, "complete", every_second_call_fails(MockEvalTransport.complete))
        result = invoke(base + evaluate)
    assert result.exit_code == 4
    assert "endpoint down" in result.output
    # The one answer streamed before the failure is kept; the failed item is
    # not an answer, and the stage records nothing.
    name = pipeline.outcomes_name("mock:oracle", "zero_shot")
    assert (run / name).read_text().splitlines() == (whole / name).read_text().splitlines()[:2]
    assert "evaluate:mock-oracle:zero_shot" not in recorded_stages(run)

    result = invoke(base + evaluate)
    assert result.exit_code == 0
    assert "evaluate:mock-oracle:zero_shot: ok" in result.output
    assert "'resumed_existing': 1" in result.output
    assert invoke(base + report).exit_code == 0
    for name in (name, "report_mock-oracle.json"):
        assert (run / name).read_bytes() == (whole / name).read_bytes(), name


def test_provider_failure_in_synthesize_exits_4_and_discards_nothing(toy_yaml, tmp_path, monkeypatch):
    from hopbench.providers import MockChatTransport

    # The interrupted run caches its responses; the uninterrupted one does not.
    cached_yaml = tmp_path / "cached.yaml"
    dump_config(replace(toy_config(seed=7), cache_dir=str(tmp_path / "cache")), cached_yaml)
    whole, run = tmp_path / "whole", tmp_path / "run"
    for run_dir, path in ((whole, toy_yaml), (run, cached_yaml)):
        config = load_config(path)
        for fn in (pipeline.run_ingest, pipeline.run_chunk, pipeline.run_tree, pipeline.run_extract,
                   pipeline.run_shatter, pipeline.run_mine):
            fn(run_dir, config)

    calls = []
    real_complete = MockChatTransport.complete

    def counted(self, request):
        calls.append(request)
        return real_complete(self, request)

    monkeypatch.setattr(MockChatTransport, "complete", counted)
    assert invoke(["--config", str(toy_yaml), "--run-dir", str(whole), "synthesize"]).exit_code == 0
    uninterrupted = len(calls)

    base = ["--config", str(cached_yaml), "--run-dir", str(run)]
    calls.clear()
    with monkeypatch.context() as patch:
        patch.setattr(MockChatTransport, "complete", every_second_call_fails(counted))
        result = invoke(base + ["synthesize"])
    assert result.exit_code == 4
    assert "endpoint down" in result.output
    answered = len(calls)
    assert answered == 1
    # The chain whose call failed is not a discard: nothing is written.
    assert not (run / "dataset.jsonl").exists() and not (run / "discards.jsonl").exists()
    assert "synthesize" not in recorded_stages(run)

    calls.clear()
    result = invoke(base + ["synthesize"])
    assert result.exit_code == 0
    assert "synthesize: ok" in result.output
    assert len(calls) == uninterrupted - answered  # the answered call comes from the cache
    for name in ("dataset.jsonl", "discards.jsonl"):
        assert (run / name).read_bytes() == (whole / name).read_bytes(), name


@pytest.mark.parametrize("max_parallel", [1, 2])
def test_provider_failure_in_adjudicate_exits_4_at_any_parallelism(tmp_path, monkeypatch, max_parallel):
    from hopbench.providers import MockChatTransport

    path = tmp_path / "toy.yaml"
    dump_config(replace(toy_config(seed=7), max_parallel=max_parallel), path)
    config = load_config(path)
    whole, run = tmp_path / "whole", tmp_path / "run"
    for run_dir in (whole, run):
        synthesized_toy_run(run_dir, config)
    assert invoke(["--config", str(path), "--run-dir", str(whole), "adjudicate"]).exit_code == 0

    base = ["--config", str(path), "--run-dir", str(run), "adjudicate"]
    with monkeypatch.context() as patch:
        patch.setattr(MockChatTransport, "complete", every_second_call_fails(MockChatTransport.complete))
        result = invoke(base)
    assert result.exit_code == 4
    assert "endpoint down" in result.output
    # A member whose provider failed is not a missing vote: nothing is written.
    assert not (run / "adjudications.jsonl").exists()
    assert "adjudicate" not in recorded_stages(run)

    result = invoke(base)
    assert result.exit_code == 0
    assert "adjudicate: ok" in result.output
    assert (run / "adjudications.jsonl").read_bytes() == (whole / "adjudications.jsonl").read_bytes()


def test_second_model_reuses_the_run_contexts(toy_yaml, tmp_path, monkeypatch):
    from hopbench.providers import EmbeddingService

    run_dir = tmp_path / "run"
    config = load_config(toy_yaml)
    synthesized_toy_run(run_dir, config)
    retrievals = []
    real_retrieve = pipeline.run_retrieve

    def retrieve(*args, **kwargs):
        retrievals.append(real_retrieve(*args, **kwargs))
        return retrievals[-1]

    monkeypatch.setattr(pipeline, "run_retrieve", retrieve)
    pipeline.run_evaluate(run_dir, config, "mock:uniform", "rag")

    embedded = []
    real_embed = EmbeddingService.embed_texts

    def embed_texts(self, texts):
        embedded.extend(texts)
        return real_embed(self, texts)

    monkeypatch.setattr(EmbeddingService, "embed_texts", embed_texts)
    result = pipeline.run_evaluate(run_dir, config, "mock:hash", "rag")
    assert result.status == "ok"
    assert [r.status for r in retrievals] == ["ok", "skipped"]
    assert embedded == []
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    evaluate_stage = next(s for s in manifest["stages"] if s["stage"] == "evaluate:mock-hash:rag")
    assert set(evaluate_stage["inputs"]) == {"dataset.jsonl", "chunks.jsonl", "rag_contexts.jsonl"}


def test_resynthesis_rebuilds_the_run_contexts(toy_yaml, tmp_path):
    run_dir = tmp_path / "run"
    config = load_config(toy_yaml)
    synthesized_toy_run(run_dir, config)
    pipeline.run_evaluate(run_dir, config, "mock:uniform", "rag")

    changed = load_config(toy_yaml)
    changed.n_options = 3
    with pytest.raises(DependencyError, match="synthesize ran under other settings"):
        pipeline.run_evaluate(run_dir, changed, "mock:uniform", "rag")
    pipeline.run_synthesize(run_dir, changed)
    pipeline.run_evaluate(run_dir, changed, "mock:uniform", "rag")

    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    [retrieve] = [s for s in manifest["stages"] if s["stage"] == "retrieve"]
    [synthesize] = [s for s in manifest["stages"] if s["stage"] == "synthesize"]
    assert retrieve["key"]["n_options"] == 3
    assert retrieve["inputs"]["dataset.jsonl"] == synthesize["outputs"]["dataset.jsonl"]
    assert pipeline.run_retrieve(run_dir, changed).status == "skipped"

    # A wider context rebuilds the contexts the next RAG evaluation reads.
    wider = load_config(toy_yaml)
    wider.n_options, wider.context_k = 3, 4
    pipeline.run_evaluate(run_dir, wider, "mock:hash", "rag")
    from hopbench.jsonl import load as jsonl_load

    stored = jsonl_load(run_dir / "rag_contexts.jsonl", "rag_contexts")
    assert stored and all(len(r["chunk_ids"]) == 4 for r in stored)


# -- reports over outcomes that do not cover the dataset -------------------------


@pytest.fixture(scope="module")
def zero_shot_toy_run(tmp_path_factory):
    """A synthesized toy run with mock:uniform evaluated zero-shot."""
    root = tmp_path_factory.mktemp("zero-shot")
    config_path = root / "toy.yaml"
    dump_config(toy_config(seed=7), config_path)
    run_dir = root / "run"
    config = load_config(config_path)
    synthesized_toy_run(run_dir, config)
    pipeline.run_evaluate(run_dir, config, "mock:uniform", "zero_shot")
    return config_path, run_dir


def keep_first_half(outcomes_path) -> None:
    header, *records = outcomes_path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(records) >= 2
    outcomes_path.write_text(header + "".join(records[: len(records) // 2]), encoding="utf-8")


def copied_run(source, tmp_path):
    config_path, run_dir = source
    shutil.copytree(run_dir, tmp_path / "run")
    return config_path, tmp_path / "run"


def test_report_over_half_the_zero_shot_outcomes_exits_2(zero_shot_toy_run, tmp_path):
    config_path, run_dir = copied_run(zero_shot_toy_run, tmp_path)
    keep_first_half(run_dir / pipeline.outcomes_name("mock:uniform", "zero_shot"))
    result = invoke(["--config", str(config_path), "--run-dir", str(run_dir), "report", "--model", "mock:uniform"])
    assert result.exit_code == 2, result.output
    assert "zero_shot outcomes do not cover the dataset" in result.output
    assert not (run_dir / "report_mock-uniform.json").exists()


def test_report_over_partial_rag_outcomes_exits_2(zero_shot_toy_run, tmp_path):
    config_path, run_dir = copied_run(zero_shot_toy_run, tmp_path)
    pipeline.run_evaluate(run_dir, load_config(config_path), "mock:uniform", "rag")
    keep_first_half(run_dir / pipeline.outcomes_name("mock:uniform", "rag"))
    result = invoke(["--config", str(config_path), "--run-dir", str(run_dir), "report", "--model", "mock:uniform"])
    assert result.exit_code == 2, result.output
    assert "rag outcomes do not cover the dataset" in result.output
    assert not (run_dir / "report_mock-uniform.json").exists()


def test_shatter_sweep_rejects_a_threshold_that_is_not_a_number(zero_shot_toy_run, tmp_path):
    config_path, run_dir = copied_run(zero_shot_toy_run, tmp_path)
    base = ["--config", str(config_path), "--run-dir", str(run_dir), "shatter-sweep", "--k"]
    for spec, token in (("10,abc", "abc"), ("nan,10", "nan")):
        result = invoke(base + [spec])
        assert result.exit_code == 2
        assert f"'{token}' is not a number" in result.output
    result = invoke(base + ["0"])  # a number, but not a valid threshold
    assert result.exit_code == 2
    assert "'0' is below 1" in result.output
    result = invoke(base + ["10, inf"])
    assert result.exit_code == 0, result.output
    report = json.loads((run_dir / "topology_report.json").read_text(encoding="utf-8"))
    assert [row["k"] for row in report["sweep"]] == [10.0, "inf"]


def test_shatter_sweep_rejects_a_threshold_below_one(zero_shot_toy_run, tmp_path):
    config_path, run_dir = copied_run(zero_shot_toy_run, tmp_path)
    report = (run_dir / "topology_report.json").read_bytes()
    base = ["--config", str(config_path), "--run-dir", str(run_dir), "shatter-sweep", "--k"]
    for spec, token in (("10,0.5", "0.5"), ("0.999", "0.999"), ("-1,10", "-1"), ("-inf", "-inf")):
        result = invoke(base + [spec])
        assert result.exit_code == 2, result.output
        assert f"'{token}' is below 1" in result.output
    assert (run_dir / "topology_report.json").read_bytes() == report
    assert invoke(base + ["1"]).exit_code == 0


def test_a_sweep_below_one_through_the_api_raises_and_writes_no_row(zero_shot_toy_run, tmp_path):
    config_path, run_dir = copied_run(zero_shot_toy_run, tmp_path)
    report = (run_dir / "topology_report.json").read_bytes()
    manifest = (run_dir / "manifest.json").read_bytes()
    with pytest.raises(ValidationError, match="k threshold must be at least 1, got 0.5"):
        pipeline.run_shatter_sweep(run_dir, load_config(config_path), [0.5])
    assert "sweep" not in json.loads(report)
    assert (run_dir / "topology_report.json").read_bytes() == report
    assert (run_dir / "manifest.json").read_bytes() == manifest


def test_shatter_sweep_reads_every_spelling_of_infinity_as_no_threshold(zero_shot_toy_run, tmp_path):
    reports = {}
    for spec in ("10,inf", "10,infinity", "10,1e999"):
        config_path, run_dir = copied_run(zero_shot_toy_run, tmp_path / spec)
        base = ["--config", str(config_path), "--run-dir", str(run_dir), "shatter-sweep", "--k", spec]
        result = invoke(base)
        assert result.exit_code == 0, result.output
        assert "shatter-sweep: ok" in result.output
        assert "up to date" in invoke(base).output
        reports[spec] = (run_dir / "topology_report.json").read_bytes()
    assert reports["10,infinity"] == reports["10,1e999"] == reports["10,inf"]
    assert [row["k"] for row in json.loads(reports["10,inf"])["sweep"]] == [10.0, "inf"]
