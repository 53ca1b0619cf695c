"""The three workloads: inputs they set up, the stages a round times, and the
checks run on a round's artifacts.

A round runs in a fresh copy of the set-up directory and drives the pipeline
in-process through the public ``pipeline.run_*`` functions with mock
providers. Every round attempts the same operations, so the share of failed
operations is the same in every run. The first round of a run is checked in
full; later rounds must reproduce its product artifacts byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

from hopbench import pipeline
from hopbench.config import PipelineConfig
from hopbench.corpus import Chunk, Sentence
from hopbench.errors import HopbenchError
from hopbench.jsonl import snapshot
from hopbench.kg import Evidence, KnowledgeGraph, Triplet, apply_frequencies
from hopbench.synthesis import QAItem

import checks
import gen


class Round:
    """One round in its run directory: timed segments, operations attempted
    and failed, and the tracer when the round is traced."""

    def __init__(self, run_dir: Path, tracer=None):
        self.run_dir = run_dir
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    @contextlib.contextmanager
    def timed(self):
        wall, cpu = perf_counter(), process_time()
        try:
            with contextlib.redirect_stdout(sys.stderr):  # `report` prints its table
                yield
        finally:
            self.wall_s += perf_counter() - wall
            self.cpu_s += process_time() - cpu

    def stage(self, name: str, run, *args, expect: str = "ok"):
        """One pipeline stage as one operation; it fails when it raises or
        its status is not ``expect``."""
        self.attempted += 1
        span = self.tracer.span(f"pipeline.{name}") if self.tracer else contextlib.nullcontext()
        try:
            with span:
                result = run(self.run_dir, *args)
        except Exception as exc:  # one failed operation; the round goes on
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            if not isinstance(exc, HopbenchError):
                traceback.print_exc()
            return None
        if result.status != expect:
            self.failures.append(f"{name}: status {result.status!r}, expected {expect!r}")
        return result


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    name = ""
    inputs: tuple[str, ...] = ()  # set-up files each round starts from
    products: tuple[str, ...] = ()  # artifacts every round must reproduce
    config: PipelineConfig

    def __init__(self):
        self._reference: dict[str, str] | None = None
        self._input_dir: Path | None = None

    def setup(self, directory: Path, seed: int) -> None:
        raise NotImplementedError

    def run(self, rnd: Round) -> None:
        raise NotImplementedError

    def check(self, run_dir: Path) -> None:
        raise NotImplementedError

    def prepare(self, run_dir: Path) -> None:
        run_dir.mkdir(parents=True)
        for name in self.inputs:
            shutil.copyfile(self._input_dir / name, run_dir / name)

    def verify(self, run_dir: Path) -> None:
        """Full checks on the first round; byte-identical products after."""
        digests = {name: _digest(run_dir / name) for name in self.products}
        if self._reference is None:
            self.check(run_dir)
            self._reference = digests
            return
        changed = sorted(name for name in digests if digests[name] != self._reference[name])
        checks.require(not changed, f"round artifacts differ from the first round's: {changed}")


def _write_corpus(corpus: gen.Corpus, directory: Path, config: PipelineConfig) -> list[tuple[gen.Triple, str, int]]:
    """sentences.jsonl and chunks.jsonl for the corpus, one chunk per
    generated chunk, through the program's record functions. Returns each
    sentence's (triple, chunk id, sentence index) in order."""
    sentences: list[Sentence] = []
    spans: list[tuple[str, str, tuple[int, int], str]] = []
    located: list[tuple[gen.Triple, str, int]] = []
    for doc_id, doc_chunks in sorted(corpus.documents.items()):
        index = 0
        for c, chunk in enumerate(doc_chunks):
            chunk_id = f"{doc_id}-c{c:04d}"
            first = index
            for triple in chunk:
                sentences.append(Sentence(doc_id, 1, index, gen.sentence(triple)))
                located.append((triple, chunk_id, index))
                index += 1
            text = " ".join(gen.sentence(t) for t in chunk)
            spans.append((chunk_id, doc_id, (first, index - 1), text))
    vectors = pipeline.make_embedding_service(config).embed_texts([s[3] for s in spans])
    chunks = [
        Chunk(chunk_id=cid, doc_id=did, sentence_span=span, text=text, page_anchor=1, embedding=vector)
        for (cid, did, span, text), vector in zip(spans, vectors)
    ]
    directory.mkdir(parents=True, exist_ok=True)
    snapshot([pipeline.sentence_to_record(s) for s in sentences], directory / "sentences.jsonl", schema="sentences")
    snapshot([pipeline.chunk_to_record(c) for c in chunks], directory / "chunks.jsonl", schema="chunks")
    return located


class Build(Workload):
    """The product path on a generated corpus, with the default config."""

    name = "build"
    products = ("graph_raw.jsonl", "graph.jsonl", "topology_report.json", "chains.jsonl", "dataset.jsonl", "stats_report.json")
    corpus_size = dict(n_docs=50, entities_per_doc=6, chunks_per_doc=4, sentences_per_chunk=10, hub_mentions=[40] * 4)
    stages = ("ingest", "chunk", "tree", "extract", "shatter", "mine", "synthesize", "adjudicate", "stats")

    def setup(self, directory: Path, seed: int) -> None:
        self.corpus = gen.make_corpus(seed, **self.corpus_size)
        paths = self.corpus.write_text(directory / "corpus")
        self.config = PipelineConfig(corpus_paths=paths, seed=seed)
        self.config.validate()
        self._input_dir = directory

    def run(self, rnd: Round) -> None:
        with rnd.timed():
            for stage in self.stages:
                rnd.stage(stage, getattr(pipeline, f"run_{stage}"), self.config)
        self.verify(rnd.run_dir)

    def check(self, run_dir: Path) -> None:
        checks.check_extraction(run_dir, self.corpus.triples(), set(self.corpus.hubs))
        checks.check_shatter(run_dir, self.config.k_threshold, checks.read_stoplist(self.config.stoplist_path))
        checks.check_items(run_dir)


class GraphWorkload(Workload):
    """k-Shattering, its sweep, mining and synthesis on a hub-heavy graph,
    then a re-run of the same stages that should do nothing."""

    name = "graph"
    inputs = ("graph_raw.jsonl", "chunks.jsonl", "sentences.jsonl")
    products = ("graph.jsonl", "topology_report.json", "chains.jsonl", "dataset.jsonl")
    # Five entities and all 20 ordered pairs per document: every source has the
    # same 2-hop structure whatever the seed, so the work does not vary with it.
    corpus_size = dict(n_docs=100, entities_per_doc=5, chunks_per_doc=5, sentences_per_chunk=4, hub_mentions=[60, 120, 240, 480])
    sweep = [50, 100, 200, 400, None]

    def setup(self, directory: Path, seed: int) -> None:
        self.seed = seed
        self.config = PipelineConfig(seed=seed)
        self.config.validate()
        corpus = gen.make_corpus(seed, **self.corpus_size)
        graph = KnowledgeGraph()
        for triple, chunk_id, index in _write_corpus(corpus, directory, self.config):
            head = graph.add_entity(triple[0]).entity_id
            tail = graph.add_entity(triple[2]).entity_id
            evidence = Evidence(chunk_id=chunk_id, sentence_span=(index, index), page_anchor=1)
            graph.add_edge(Triplet(head, triple[1], tail, evidence, source_node_id=chunk_id))
        apply_frequencies(graph, self.config.frequency_unit)
        records = pipeline.graph_to_records(graph, self.config.frequency_unit)
        snapshot(records, directory / "graph_raw.jsonl", schema="graph")
        self._input_dir = directory

    def run(self, rnd: Round) -> None:
        config = self.config
        with rnd.timed():
            rnd.stage("shatter", pipeline.run_shatter, config)
            rnd.stage("shatter_sweep", pipeline.run_shatter_sweep, config, self.sweep)
            rnd.stage("mine", pipeline.run_mine, config)
            rnd.stage("synthesize", pipeline.run_synthesize, config)
        self.verify(rnd.run_dir)
        # Downstream first, so that each re-run sees its own outputs as the
        # work left them. `shatter` comes last: the sweep rewrote its report,
        # so it re-runs and drops the sweep rows (a known fault, counted as
        # one failed operation per round).
        with rnd.timed():
            rnd.stage("synthesize", pipeline.run_synthesize, config, expect="skipped")
            rnd.stage("mine", pipeline.run_mine, config, expect="skipped")
            rnd.stage("shatter_sweep", pipeline.run_shatter_sweep, config, self.sweep, expect="skipped")
            rnd.stage("shatter", pipeline.run_shatter, config, expect="skipped")

    def check(self, run_dir: Path) -> None:
        stop_terms = checks.read_stoplist(self.config.stoplist_path)
        checks.check_shatter(run_dir, self.config.k_threshold, stop_terms)
        checks.check_sweep(run_dir, self.sweep, stop_terms)
        checks.check_monotone(run_dir, self.sweep, stop_terms, seed=self.seed)
        checks.check_items(run_dir)


EVAL_MODELS = ("mock:oracle", "mock:adversarial", "mock:uniform", "mock:hash")


class Evaluate(Workload):
    """Scoring a dataset of the paper's size: adjudication, statistics, both
    evaluation modes for four mock models, and their reports."""

    name = "evaluate"
    inputs = ("dataset.jsonl", "chunks.jsonl", "sentences.jsonl")
    products = tuple(
        [f"outcomes_{pipeline.sanitize_model_id(m)}_{mode}.jsonl" for m in EVAL_MODELS for mode in ("zero_shot", "rag")]
        + [f"report_{pipeline.sanitize_model_id(m)}.json" for m in EVAL_MODELS]
        + ["adjudications.jsonl", "stats_report.json"]
    )
    n_items = 10_000
    n_names = 4_000
    items_per_chunk = 4
    chunks_per_doc = 10

    def setup(self, directory: Path, seed: int) -> None:
        self.config = PipelineConfig(seed=seed)
        self.config.validate()
        items = gen.make_items(seed, self.n_items, self.n_names, self.config.n_options)
        per_doc = self.items_per_chunk * self.chunks_per_doc
        documents = {
            f"doc{d:04d}": [
                [t for item in items[start : start + self.items_per_chunk] for t in item.sentences]
                for start in range(d * per_doc, min((d + 1) * per_doc, len(items)), self.items_per_chunk)
            ]
            for d in range((len(items) + per_doc - 1) // per_doc)
        }
        located = _write_corpus(gen.Corpus(documents=documents, hubs=[]), directory, self.config)
        per_item = len(items[0].sentences)
        records = []
        for i, item in enumerate(items):
            (_, hop1_chunk, hop1), (_, hop2_chunk, hop2) = located[per_item * i : per_item * i + 2]
            qa = QAItem(
                qa_id=f"qa{i:05d}",
                language="EN",
                difficulty=item.difficulty,
                clinical_task="unadjudicated",
                question=(
                    f"A patient presents with findings of {item.source}. Through an intermediate "
                    "process that is not stated, which downstream finding is most expected?"
                ),
                options=item.options,
                answer_index=item.answer_index,
                hard_negative_index=item.hard_negative_index,
                masked_entity={"canonical": item.bridge, "aliases": []},
                rationale=f"{item.source} sets off {item.bridge}, which in turn accounts for {item.target}.",
                evidence_anchors=[
                    {"hop": "hop1", "chunk_id": hop1_chunk, "sentence_span": [hop1, hop1], "page_anchor": 1},
                    {"hop": "hop2", "chunk_id": hop2_chunk, "sentence_span": [hop2, hop2], "page_anchor": 1},
                ],
                chain_ref=f"{item.source}>{item.bridge}>{item.target}",
            )
            records.append(pipeline.qa_item_to_record(qa))
        snapshot(records, directory / "dataset.jsonl", schema="dataset")
        self._input_dir = directory

    def run(self, rnd: Round) -> None:
        config = self.config
        with rnd.timed():
            rnd.stage("adjudicate", pipeline.run_adjudicate, config)
            rnd.stage("stats", pipeline.run_stats, config)
            for model in EVAL_MODELS:
                for mode in ("zero_shot", "rag"):
                    rnd.stage("evaluate", pipeline.run_evaluate, config, model, mode)
            for model in EVAL_MODELS:
                rnd.stage("report", pipeline.run_report, config, model)
        self.verify(rnd.run_dir)

    def check(self, run_dir: Path) -> None:
        file_ids = {m: pipeline.sanitize_model_id(m) for m in EVAL_MODELS}
        checks.check_evaluation(run_dir, list(EVAL_MODELS), file_ids)


WORKLOADS = {w.name: w for w in (Build, GraphWorkload, Evaluate)}
