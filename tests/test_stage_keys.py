"""When a stage runs and what it reads: each stage is keyed on the settings
that it and every stage upstream of it read (``Stage.reads``), so a changed
setting re-runs exactly the stages that read it, and a stage refuses to run
over an upstream stage that was recorded under other settings. A stage reads
the files its row names, each through its ``ARTIFACTS`` entry."""

from __future__ import annotations

import json
import shutil
from dataclasses import replace

import pytest

from hopbench import pipeline
from hopbench.config import PipelineConfig
from hopbench.errors import DependencyError
from hopbench.toydata import toy_config

FIELDS = set(PipelineConfig.__dataclass_fields__)
PROVIDER_ONLY = {"api_key_env", "cache_dir", "max_parallel"}
BUILD = ("ingest", "chunk", "tree", "extract", "shatter", "mine", "synthesize", "adjudicate", "stats")


def toy_config_over_copied_assets(directory) -> PipelineConfig:
    """The toy config, reading copies of the bundled corpus and stoplist."""
    config = toy_config(seed=7)
    directory.mkdir(parents=True)
    config.corpus_paths = [shutil.copy(path, directory) for path in config.corpus_paths]
    config.stoplist_path = shutil.copy(config.stoplist_path, directory)
    return config


def run_stage(run_dir, config, name: str, *args):
    return getattr(pipeline, "run_" + name.replace("-", "_"))(run_dir, config, *args)


def full_run(run_dir, config) -> None:
    for name in BUILD:
        run_stage(run_dir, config, name)
    for mode in ("zero_shot", "rag"):
        pipeline.run_evaluate(run_dir, config, "mock:uniform", mode)
    pipeline.run_report(run_dir, config, "mock:uniform")


def manifest_keys(run_dir) -> dict[str, dict]:
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    return {record["stage"]: record["key"] for record in manifest["stages"]}


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("finished")
    config = toy_config_over_copied_assets(root / "assets")
    full_run(root / "run", config)
    return config, root / "run"


@pytest.fixture
def copied_run(finished_run, tmp_path):
    config, run_dir = finished_run
    shutil.copytree(run_dir, tmp_path / "run")
    return config, tmp_path / "run"


# -- the stage table ------------------------------------------------------------


def test_every_setting_is_read_by_a_stage_or_is_provider_only():
    read = set().union(*(stage.reads for stage in pipeline.STAGES.values()))
    assert read <= FIELDS, f"not config fields: {sorted(read - FIELDS)}"
    assert FIELDS - read == PROVIDER_ONLY


class RecordingConfig(PipelineConfig):
    """A config that notes each field read while ``recording`` is set."""

    def __getattribute__(self, name):
        if name in FIELDS and object.__getattribute__(self, "__dict__").get("recording"):
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)


def run_recording_reads(run_dir, config: RecordingConfig, monkeypatch) -> dict:
    """Run every stage under ``config``, asserting that each reads only the
    fields its `reads` lists and asks `read` for exactly the files its row
    declares (with its optional inputs where they apply), whether `read`
    decodes them or serves them memoised; returns each stage's result."""
    config.read, config.recording = set(), False
    real_key, real_stage = pipeline.stage_key, pipeline._stage
    files: list[str] = []

    def recording_stage(run_dir, config, name, compute, *args, **kwargs):
        def recorded(read, *rest):
            return compute(lambda n: files.append(n) or read(n), *rest)

        return real_stage(run_dir, config, name, recorded, *args, **kwargs)

    monkeypatch.setattr(pipeline, "_stage", recording_stage)

    def unrecorded_key(config, *args):
        config.recording = False
        try:
            return real_key(config, *args)
        finally:
            config.recording = True

    monkeypatch.setattr(pipeline, "stage_key", unrecorded_key)
    runs = [(name, ()) for name in BUILD]
    runs += [("shatter-sweep", ([None, 4.0],)), ("retrieve", ())]
    runs += [("evaluate", ("mock:uniform", mode)) for mode in ("zero_shot", "rag")]
    runs += [("report", ("mock:uniform",))]
    results = {}
    for name, args in runs:
        if name == "evaluate":  # contexts are built; a RAG evaluation would re-check them
            monkeypatch.setattr(pipeline, "run_retrieve", lambda *_: None)
        config.read, config.recording = set(), True
        files.clear()
        results[name] = result = run_stage(run_dir, config, name, *args)
        config.recording = False
        assert result.status == "ok"
        stage = pipeline.STAGES[name]
        unlisted = config.read - set(stage.reads) - PROVIDER_ONLY
        assert not unlisted, f"{name} reads {sorted(unlisted)}, which its `reads` does not list"
        # This run has adjudications and RAG outcomes, so `stats` and `report` read theirs.
        declared = stage.inputs + (stage.optional if name in ("stats", "report") or "rag" in args else ())
        mode = args[1] if name == "evaluate" else None
        expected = sorted(n.format(model="mock-uniform", mode=mode) for n in declared)
        assert sorted(files) == expected, f"{name} read {sorted(files)}, where its row declares {expected}"
    return results


def test_each_stage_reads_only_the_fields_in_its_table_row(tmp_path, monkeypatch):
    run_recording_reads(tmp_path / "run", RecordingConfig(**toy_config(seed=7).to_record()), monkeypatch)


def test_the_global_threshold_and_the_reranker_read_only_their_table_rows(tmp_path, monkeypatch):
    from hopbench import rag

    scored = []
    real_scores = rag.token_overlap_scores
    monkeypatch.setattr(rag, "token_overlap_scores", lambda *args: scored.append(args) or real_scores(*args))
    record = {**toy_config(seed=7).to_record(), "global_threshold": True, "use_reranker": True}
    results = run_recording_reads(tmp_path / "run", RecordingConfig(**record), monkeypatch)
    assert results["chunk"].stats["global_threshold"] is not None
    assert len(scored) == results["retrieve"].stats["contexts"]


def test_a_stage_decodes_its_declared_inputs_only_and_only_when_it_runs(copied_run, monkeypatch):
    config, run_dir = copied_run

    def refuse(path, _schema):
        raise AssertionError(f"a stage with nothing to do parsed {path}")

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "load", refuse)
        full_run(run_dir, config)  # every stage is a no-op

    def compute(read, _outputs, _digest):
        graph = read("graph.jsonl")
        assert graph.entities
        read("chains.jsonl")  # the stage's output, not one of its inputs

    with pytest.raises(KeyError, match="chains.jsonl"):
        pipeline._stage(run_dir, config, "mine", compute, args={"probe": True})


# -- decoded inputs shared by the per-model stages -------------------------------


def fresh_decodes_of_the_memo() -> dict:
    return {n: pipeline.read_artifact(path) for n, (path, _digest, _decoded) in pipeline._decoded.items()}


def test_evaluations_and_reports_leave_the_shared_decodes_as_their_files_read(copied_run):
    config, run_dir = copied_run
    models = ("mock:oracle", "mock:hash")
    contexts = run_dir / "rag_contexts.jsonl"
    for model in models:
        for mode in ("zero_shot", "rag"):
            if mode == "rag":
                # `retrieve` then builds its index over the memoised dataset
                # (and, for the second model, the memoised chunks)
                contexts.unlink()
            assert pipeline.run_evaluate(run_dir, config, model, mode).status == "ok"
            assert contexts.exists()
    assert set(pipeline._decoded) == {"dataset.jsonl", "chunks.jsonl", "rag_contexts.jsonl"}
    memo = {n: decoded for n, (_path, _digest, decoded) in pipeline._decoded.items()}
    assert memo == fresh_decodes_of_the_memo()
    for model in models:
        assert pipeline.run_report(run_dir, config, model).status == "ok"
    # a report reads neither chunks nor contexts: they are dropped, the dataset kept
    assert set(pipeline._decoded) == {"dataset.jsonl"}
    assert pipeline._decoded["dataset.jsonl"][2] is memo["dataset.jsonl"]
    assert memo["dataset.jsonl"] == fresh_decodes_of_the_memo()["dataset.jsonl"]


def test_shattering_and_the_sweep_leave_the_decoded_raw_graph_as_its_file_reads(copied_run, monkeypatch):
    config, run_dir = copied_run
    real_read = pipeline.read_artifact
    graphs = []
    monkeypatch.setattr(pipeline, "read_artifact", lambda path: graphs.append(real_read(path)) or graphs[-1])
    (run_dir / "graph.jsonl").unlink()
    assert pipeline.run_shatter(run_dir, config).status == "ok"
    assert pipeline.run_shatter_sweep(run_dir, config, [None, 4.0, 2.0]).status == "ok"
    assert len(graphs) == 2
    fresh = pipeline.graph_to_records(real_read(run_dir / "graph_raw.jsonl"), config.frequency_unit)
    for graph in graphs:
        assert pipeline.graph_to_records(graph, config.frequency_unit) == fresh


def test_a_stage_in_another_run_directory_drops_the_first_directorys_decodes(copied_run, tmp_path):
    config, run_dir = copied_run
    for mode in ("zero_shot", "rag"):
        assert pipeline.run_evaluate(run_dir, config, "mock:oracle", mode).status == "ok"
    assert {path.parent for path, _digest, _decoded in pipeline._decoded.values()} == {run_dir}
    second = tmp_path / "second"
    shutil.copytree(run_dir, second)
    assert pipeline.run_evaluate(second, config, "mock:hash", "zero_shot").status == "ok"
    assert {n: path for n, (path, _digest, _decoded) in pipeline._decoded.items()} == {
        "dataset.jsonl": second / "dataset.jsonl"
    }


def test_the_build_stages_hold_no_decodes(copied_run, tmp_path):
    config, run_dir = copied_run
    assert pipeline.run_evaluate(run_dir, config, "mock:oracle", "zero_shot").status == "ok"
    assert pipeline._decoded
    for name in BUILD:
        assert run_stage(tmp_path / "build", config, name).status == "ok"
        assert pipeline._decoded == {}, f"{name} left {sorted(pipeline._decoded)} decoded"


def test_every_jsonl_file_has_one_artifact_entry_whose_schema_its_header_names(finished_run):
    _config, run_dir = finished_run
    named = {n for stage in pipeline.STAGES.values() for n in stage.inputs + stage.optional + stage.outputs}
    named = {n for n in named if n.endswith(".jsonl")}
    for name in named:
        entries = [pattern for pattern in pipeline.ARTIFACTS if pipeline._matches(name, pattern)]
        assert len(entries) == 1, f"{name} matches {entries} in ARTIFACTS"
    assert set(pipeline.ARTIFACTS) <= named, "ARTIFACTS names a file that no stage reads or writes"

    files = sorted(run_dir.glob("*.jsonl"))
    for pattern in pipeline.ARTIFACTS:
        assert any(pipeline._matches(path.name, pattern) for path in files), f"the run wrote no {pattern}"
    for path in files:
        header = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert header["schema"] == pipeline.artifact(path.name).schema, path.name


# -- a changed setting re-runs what reads it --------------------------------------


def test_a_changed_context_size_reruns_only_retrieval_and_what_follows_it(copied_run):
    config, run_dir = copied_run
    changed = replace(config, context_k=2)
    for name in BUILD:
        assert run_stage(run_dir, changed, name).status == "skipped", name
    assert pipeline.run_evaluate(run_dir, changed, "mock:uniform", "zero_shot").status == "skipped"
    assert pipeline.run_retrieve(run_dir, changed).status == "ok"
    rag = pipeline.run_evaluate(run_dir, changed, "mock:uniform", "rag")
    assert rag.status == "ok"
    assert rag.stats["resumed_existing"] == 0, "outcomes over the old contexts were kept"
    assert pipeline.run_report(run_dir, changed, "mock:uniform").status == "ok"

    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    stages = [record["stage"] for record in manifest["stages"]]
    assert sorted(stages) == sorted(set(stages)), "one record per stage"
    assert manifest_keys(run_dir)["retrieve"]["context_k"] == 2


def test_a_changed_option_count_refuses_evaluation_until_synthesis_ran(copied_run):
    config, run_dir = copied_run
    changed = replace(config, n_options=3)
    with pytest.raises(DependencyError, match=r"synthesize ran under other settings \(n_options changed\)"):
        pipeline.run_evaluate(run_dir, changed, "mock:uniform", "zero_shot")
    assert pipeline.run_synthesize(run_dir, changed).status == "ok"
    zero_shot = pipeline.run_evaluate(run_dir, changed, "mock:uniform", "zero_shot")
    assert zero_shot.status == "ok"
    assert zero_shot.stats["resumed_existing"] == 0, "outcomes over the old dataset were kept"


@pytest.mark.parametrize("setting", [{"max_parallel": 2}, {"cache_dir": "cache"}, {"api_key_env": "OTHER_KEY"}])
def test_provider_only_settings_rerun_nothing(copied_run, setting):
    config, run_dir = copied_run
    if "cache_dir" in setting:
        setting = {"cache_dir": str(run_dir.parent / setting["cache_dir"])}
    changed = replace(config, **setting)
    for name in BUILD:
        assert run_stage(run_dir, changed, name).status == "skipped", name
    for mode in ("zero_shot", "rag"):
        assert pipeline.run_evaluate(run_dir, changed, "mock:uniform", mode).status == "skipped"
    assert pipeline.run_report(run_dir, changed, "mock:uniform").status == "skipped"


def test_a_sweep_over_other_thresholds_runs_again(copied_run):
    config, run_dir = copied_run
    assert pipeline.run_shatter_sweep(run_dir, config, [10.0]).status == "ok"
    assert pipeline.run_shatter_sweep(run_dir, config, [None, 4.0]).status == "ok"
    report = json.loads((run_dir / "topology_report.json").read_text(encoding="utf-8"))
    assert [row["k"] for row in report["sweep"]] == ["inf", 4.0]
    assert pipeline.run_shatter_sweep(run_dir, config, [None, 4.0]).status == "skipped"


def test_keys_and_report_digests_do_not_depend_on_where_the_assets_are(finished_run, tmp_path):
    config, run_dir = finished_run
    elsewhere = toy_config_over_copied_assets(tmp_path / "elsewhere")
    assert elsewhere.corpus_paths != config.corpus_paths
    full_run(tmp_path / "run", elsewhere)
    assert manifest_keys(tmp_path / "run") == manifest_keys(run_dir)
    for name in ("stats_report.json", "report_mock-uniform.json"):
        ours = json.loads((tmp_path / "run" / name).read_text(encoding="utf-8"))["config_digest"]
        assert ours == json.loads((run_dir / name).read_text(encoding="utf-8"))["config_digest"]


def test_documents_name_their_files_not_where_they_are(tmp_path):
    written = []
    for side in ("here", "there"):
        config = toy_config_over_copied_assets(tmp_path / side / "assets")
        pipeline.run_ingest(tmp_path / side / "run", config)
        written.append((tmp_path / side / "run" / "documents.jsonl").read_bytes())
    assert written[0] == written[1]
    records = [json.loads(line) for line in written[0].decode("utf-8").splitlines()[1:]]
    assert [record["source_path"] for record in records] == [
        "toy_metabolic.txt", "toy_respiratory.txt", "toy_circulatory.txt"
    ]


def test_adjudication_goes_through_the_response_cache(copied_run):
    config, run_dir = copied_run
    cache = run_dir.parent / "cache"
    verdicts = (run_dir / "adjudications.jsonl").read_bytes()
    (run_dir / "adjudications.jsonl").unlink()  # deleting an output re-runs its stage
    assert pipeline.run_adjudicate(run_dir, replace(config, cache_dir=str(cache))).status == "ok"
    assert len(list(cache.glob("*.json"))) > 0
    assert (run_dir / "adjudications.jsonl").read_bytes() == verdicts
