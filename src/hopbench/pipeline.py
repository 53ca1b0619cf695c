"""Resumable pipeline stages over a single run directory.

Each stage validates its upstream artifacts (by presence and manifest
digest), computes, writes outputs atomically, and records itself in the run
manifest under its key: the settings it and every stage upstream of it read,
and its arguments. A stage run is named by one digest, of its key and of its
input files' digests: the no-op check, the resume of evaluation outcomes and
each report's ``config_digest`` all read it. A stage runs again when that
digest or its outputs changed, and is a no-op otherwise; it refuses to run
over an upstream stage recorded under other settings. Artifacts carry no
timestamps, so identical configs and seeds reproduce byte-identical files.
``STAGES`` lists every stage with the settings and files it reads and the
files it writes. ``ARTIFACTS`` is the one place where a JSONL file's schema
and decoded type live: a stage gets its inputs decoded from ``read(name)``,
and records round-trip through ``codec``. Within one process, the per-model
stages reuse the shared inputs they already decoded, by file digest."""

from __future__ import annotations

import atexit
import fcntl
import fnmatch
import json
import logging
import re
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable, Iterable

from .adjudicate import adjudicate_quality
from .chains import ReasoningChain, mine_chains, sample_hard_negative
from .codec import from_record, to_record
from .config import PipelineConfig
from .corpus import (
    Chunk,
    Document,
    Sentence,
    SentenceStore,
    consecutive_distances,
    load_document,
    nearest_rank_percentile,
    normalize_for_match,
    semantic_chunk,
    split_sentences,
)
from .errors import (
    AdjudicationError,
    DependencyError,
    NoHardNegativeError,
    ValidationError,
)
from .evaluation import EvalOutcome, MockEvalTransport, behavioral_report, evaluate_dataset
from .extract import extract_tree
from .jsonl import IncrementalWriter, canonical_json, load, snapshot, write_json
from .kg import (
    Entity,
    KnowledgeGraph,
    Triplet,
    assemble_graph,
    load_stoplist,
    shatter,
)
from .manifest import RunManifest, file_digest
from .providers import (
    ChatService,
    EmbeddingService,
    HttpChatTransport,
    HttpEmbeddingTransport,
    MockChatTransport,
    MockEmbeddingTransport,
    ResponseCache,
    parallel_map,
)
from .rag import CorpusIndex, build_rag_context, context_passages
from .seeding import derive_seed, stable_text_digest
from .synthesis import QAItem, synthesize_dataset
from .topology import shatter_sweep, topology_report
from .tree import SummaryTree, SummaryTreeNode, build_summary_tree

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Stage:
    """One pipeline stage, the settings it reads and the files it reads and
    writes.

    ``reads`` names the ``PipelineConfig`` fields the stage's own code reads.
    ``inputs`` and ``outputs`` are run-directory artifacts; ``{model}`` and
    ``{mode}`` in a name stand for the evaluated model and mode. ``optional``
    inputs are read by some runs only (``adjudications.jsonl`` once it
    exists, the retrieval artifacts in RAG mode)."""

    name: str
    reads: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    help: str
    optional: tuple[str, ...] = ()


# What a chat and an embedding service read. Three fields are in no stage's
# reads: `api_key_env`, `cache_dir` and `max_parallel` change how a provider
# is reached, not what it returns.
CHAT = ("provider_mode", "chat_base_url", "seed")
EMBED = ("provider_mode", "embed_base_url", "embed_model", "mock_embed_dim", "seed")

# The single list of stages and artifacts; the CLI registers its commands from it.
STAGES = {
    stage.name: stage
    for stage in (
        Stage(
            "ingest",
            ("corpus_paths", "language"),
            (),
            ("documents.jsonl", "sentences.jsonl"),
            "Load corpus files and split them into sentences.",
        ),
        Stage(
            "chunk",
            ("chunk_percentile", "global_threshold", "max_sentences_per_chunk", *EMBED),
            ("sentences.jsonl",),
            ("chunks.jsonl",),
            "Embed sentences and cut percentile-threshold chunks.",
        ),
        Stage(
            "tree",
            ("target_dim", "gmm_k_max", "gmm_restarts", "membership_floor", "max_levels", "chat_model", *CHAT, *EMBED),
            ("chunks.jsonl",),
            ("tree.jsonl", "gmm_report.json"),
            "Build the hierarchical soft-cluster summary tree.",
        ),
        Stage(
            "extract",
            ("chat_model", "theta_steps", "theta_above", "frequency_unit", *CHAT),
            ("tree.jsonl", "chunks.jsonl", "sentences.jsonl"),
            ("graph_raw.jsonl",),
            "Extract and align triplets into the raw graph.",
        ),
        Stage(
            "shatter",
            ("k_threshold", "stoplist_path", "frequency_unit"),
            ("graph_raw.jsonl",),
            ("graph.jsonl", "topology_report.json"),
            "Flag hub entities as pruned and write the graph with its flags.",
        ),
        Stage(
            "shatter-sweep",
            ("stoplist_path",),
            ("graph_raw.jsonl",),
            ("topology_report.json",),
            "Topology ablation across frequency thresholds.",
        ),
        Stage(
            "mine",
            ("per_source_cap", "seed"),
            ("graph.jsonl",),
            ("chains.jsonl",),
            "Mine 2-hop chains and sample hard negatives.",
        ),
        Stage(
            "synthesize",
            ("chat_model", "difficulty", "language", "n_options", "synthesis_temperature", *CHAT),
            ("chains.jsonl", "graph.jsonl", "chunks.jsonl", "sentences.jsonl"),
            ("dataset.jsonl", "discards.jsonl"),
            "Generate masked vignette items.",
        ),
        Stage(
            "adjudicate",
            ("adjudication_ensemble", *CHAT),
            ("dataset.jsonl",),
            ("adjudications.jsonl",),
            "Score items with the quality ensemble.",
        ),
        Stage(
            "stats",
            EMBED,
            ("dataset.jsonl", "chunks.jsonl", "sentences.jsonl"),
            ("stats_report.json",),
            "Compute dataset lexical and similarity statistics.",
            optional=("adjudications.jsonl",),
        ),
        Stage(
            "retrieve",
            ("coarse_pool", "context_k", "use_reranker", *EMBED),
            ("dataset.jsonl", "chunks.jsonl"),
            ("rag_contexts.jsonl",),
            "Build every item's RAG context once; each model's RAG evaluation reads them.",
        ),
        Stage(
            "evaluate",
            CHAT,
            ("dataset.jsonl",),
            ("outcomes_{model}_{mode}.jsonl",),
            "Run multiple-choice evaluation and persist outcomes incrementally.",
            optional=("chunks.jsonl", "rag_contexts.jsonl"),
        ),
        Stage(
            "report",
            (),
            ("dataset.jsonl", "outcomes_{model}_zero_shot.jsonl"),
            ("report_{model}.json",),
            "Aggregate outcomes into the behavioral report for one model.",
            optional=("outcomes_{model}_rag.jsonl",),
        ),
    )
}


def _matches(name: str, pattern: str) -> bool:
    """Whether ``name`` is ``pattern`` with its ``{model}`` and ``{mode}`` filled in."""
    return fnmatch.fnmatchcase(name, re.sub(r"\{\w+\}", "*", pattern))


def producer(artifact: str) -> str:
    """The first stage in table order that lists ``artifact`` as an output."""
    for stage in STAGES.values():
        if any(_matches(artifact, name) for name in stage.outputs):
            return stage.name
    raise KeyError(f"no stage writes {artifact}")


# ---------------------------------------------------------------------------
# Provider wiring
# ---------------------------------------------------------------------------


def make_chat_service(config: PipelineConfig, seed: int) -> ChatService:
    """Chat through the configured provider and cache; ``seed`` seeds the mock."""
    cache = ResponseCache(config.cache_dir) if config.cache_dir else None
    if config.provider_mode == "mock":
        return ChatService(MockChatTransport(seed=seed), cache=cache)
    return ChatService(HttpChatTransport(config.chat_base_url, config.api_key_env), cache=cache)


def make_embedding_service(config: PipelineConfig) -> EmbeddingService:
    cache = ResponseCache(config.cache_dir) if config.cache_dir else None
    if config.provider_mode == "mock":
        return EmbeddingService(
            MockEmbeddingTransport(config.mock_embed_dim, seed=config.seed), cache=cache
        )
    return EmbeddingService(
        HttpEmbeddingTransport(config.embed_base_url, config.embed_model, config.api_key_env),
        cache=cache,
    )


# ---------------------------------------------------------------------------
# Records: the codec for round trips, explicit projections for the rest, and
# the schema and decoded form of each JSONL artifact
# ---------------------------------------------------------------------------

# Public names for writing artifacts from outside the package (perfbench/).
sentence_to_record = chunk_to_record = qa_item_to_record = to_record


def tree_node_to_record(node: SummaryTreeNode) -> dict:
    return {**to_record(node), "member_ids": {k: round(v, 9) for k, v in node.member_ids.items()}}


def graph_to_records(graph: KnowledgeGraph, frequency_unit: str, **cut) -> list[dict]:
    """A meta record, the entities by id, then the edges. ``cut`` names the
    ``k_threshold`` and ``stoplist_id`` that set the prune flags; without
    it the meta names none (null and ``""``)."""
    meta = {
        "kind": "meta",
        "view": "original",  # no reader; kept so graph files stay byte-identical
        "k_threshold": None,
        "stoplist_id": "",
        **cut,
        "frequency_unit": frequency_unit,
    }
    records = [meta]
    records += ({"kind": "entity", **to_record(graph.entities[i])} for i in sorted(graph.entities))
    records += ({"kind": "edge", **to_record(edge)} for edge in graph.edges)
    return records


def graph_from_records(records: list[dict]) -> KnowledgeGraph:
    """Rebuild a graph (entities keep their ids, frequencies and prune flags,
    so traversal skips the pruned ones; all stored edges are attached). The
    meta record is checked, not read: the settings it names are the stage's."""
    if not records or records[0].get("kind") != "meta":
        raise ValidationError("graph snapshot must start with a meta record")
    graph = KnowledgeGraph()
    for record in records[1:]:
        if record["kind"] == "entity":
            entity = from_record(Entity, record)
            graph.entities[entity.entity_id] = entity
            for surface in entity.surfaces():
                graph._surface_index.setdefault(normalize_for_match(surface), entity.entity_id)
        elif record["kind"] == "edge":
            graph.add_edge(from_record(Triplet, record))
    return graph


def _chunks(records: list[dict]) -> dict[str, Chunk]:
    """Chunk id to chunk, in file order; every reader of chunks uses this
    mapping. Refuses a repeated chunk id, and an ``embedding`` that is not a
    list of numbers: older files hold an object there under the same
    ``chunk`` key, so only deleting the file makes ``chunk`` write it anew."""
    for record in records:
        embedding = record.get("embedding")
        if not isinstance(embedding, list) or not all(isinstance(v, (int, float)) for v in embedding):
            raise ValidationError(
                f"chunks.jsonl: chunk {record.get('chunk_id')}: embedding is not a list of numbers, as in "
                "files written by older versions; delete chunks.jsonl and re-run `hopbench chunk`"
            )
    chunks = {r["chunk_id"]: from_record(Chunk, r) for r in records}
    if len(chunks) != len(records):
        raise ValidationError("chunks.jsonl: a chunk id is repeated")
    return chunks


def _tree(records: list[dict]) -> SummaryTree:
    tree = SummaryTree()
    for record in records:
        tree.add(from_record(SummaryTreeNode, record))
    tree.validate()
    return tree


def _each(cls) -> Callable[[list[dict]], list]:
    return lambda records: [from_record(cls, r) for r in records]


@dataclass(frozen=True)
class Artifact:
    """A JSONL file: the schema its header names and what its records decode to."""

    schema: str
    decode: Callable[[list[dict]], object] = list


GRAPH = Artifact("graph", graph_from_records)

# Every JSONL file that ``STAGES`` names, by name or by pattern.
ARTIFACTS = {
    "documents.jsonl": Artifact("documents"),
    "sentences.jsonl": Artifact("sentences", lambda records: SentenceStore(_each(Sentence)(records))),
    "chunks.jsonl": Artifact("chunks", _chunks),
    "tree.jsonl": Artifact("tree", _tree),
    "graph_raw.jsonl": GRAPH,
    "graph.jsonl": GRAPH,
    "chains.jsonl": Artifact("chains", _each(ReasoningChain)),
    "dataset.jsonl": Artifact("dataset", _each(QAItem)),
    "discards.jsonl": Artifact("discards"),
    "adjudications.jsonl": Artifact("adjudications", lambda records: {r["qa_id"]: r for r in records}),
    "rag_contexts.jsonl": Artifact("rag_contexts"),  # `evaluate` resolves them with `rag.context_passages`
    "outcomes_{model}_{mode}.jsonl": Artifact("outcomes", _each(EvalOutcome)),
}


def artifact(name: str) -> Artifact:
    """The ``ARTIFACTS`` entry for the file ``name``."""
    for pattern, entry in ARTIFACTS.items():
        if _matches(name, pattern):
            return entry
    raise KeyError(f"no artifact named {name}")


def read_artifact(path: Path):
    """The file at ``path``, decoded afresh by its ``ARTIFACTS`` entry (``_stage``'s
    ``read`` memoises). ``load`` is looked up at each call, so a wrapper sees every read."""
    entry = artifact(path.name)
    return entry.decode(load(path, entry.schema))


def write_artifact(records: Iterable[dict], path: Path) -> None:
    snapshot(records, path, schema=artifact(path.name).schema)


# ---------------------------------------------------------------------------
# Stage plumbing
# ---------------------------------------------------------------------------


@dataclass
class StageResult:
    stage: str
    status: str  # ok | skipped
    stats: dict


@contextmanager
def run_lock(run_dir: Path):
    """One command at a time per run directory: an exclusive ``flock`` on
    ``run_dir/.lock``. The kernel drops the lock when its holder exits,
    however it exits, so a crashed command leaves no lock behind. The empty
    file stays: were it removed, a second command could lock a new file of
    that name while the first still held the old one."""
    run_dir.mkdir(parents=True, exist_ok=True)
    lock_path = run_dir / ".lock"
    with open(lock_path, "a") as handle:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ValidationError(
                f"run directory is locked ({lock_path}); another command may be running"
            ) from None
        yield


@cache
def _reads_upstream_of(artifact: str) -> frozenset[str]:
    """Fields read by the stage that writes ``artifact`` and by every stage
    upstream of it."""
    stage = STAGES[producer(artifact)]
    return frozenset(stage.reads).union(*(_reads_upstream_of(n) for n in stage.inputs + stage.optional))


def stage_key(config: PipelineConfig, name: str, input_names: list[str], args: dict) -> dict:
    """What a run of stage ``name`` over ``input_names`` depends on: the
    fields read by it and by every stage upstream of those inputs, with the
    corpus files and the stoplist entered by content, and its arguments."""
    fields = set(STAGES[name].reads).union(*(_reads_upstream_of(n) for n in input_names))
    record = config.to_record()
    key = {field_name: record[field_name] for field_name in sorted(fields)}
    if "corpus_paths" in key:
        key["corpus_paths"] = [_content_digest("corpus_paths", path) for path in key["corpus_paths"]]
    if key.get("stoplist_path") is not None:
        key["stoplist_path"] = _content_digest("stoplist_path", key["stoplist_path"])
    return {**key, **args}


def _content_digest(field_name: str, path: str) -> str:
    if not Path(path).is_file():
        raise ValidationError(f"config.{field_name}: file not found: {path}")
    return file_digest(path)


def _check_upstream(manifest: RunManifest, input_names: list[str], key: dict) -> None:
    """Refuse to run over an upstream stage recorded under other settings: the
    records that wrote ``input_names``, and those that wrote their inputs in
    turn, are compared with ``key`` on the entries both hold. An input that
    no record wrote is taken as given."""
    writers = {artifact: record for record in manifest.stages.values() for artifact in record.outputs}
    pending, changed = list(input_names), {}
    while pending:
        record = writers.get(pending.pop())
        if record is not None and record.stage not in changed:
            changed[record.stage] = sorted(n for n in record.key.keys() & key.keys() if record.key[n] != key[n])
            pending.extend(record.inputs)
    stale = sorted((list(STAGES).index(stage.split(":")[0]), stage) for stage in changed if changed[stage])
    if stale:
        stage = stale[0][1]
        raise DependencyError(
            f"{stage} ran under other settings ({', '.join(changed[stage])} changed); "
            f"run `hopbench {stage.split(':')[0]}` first"
        )


def _kept(stage: Stage) -> frozenset[str]:
    """The inputs a run of ``stage`` stores in the ``_decoded`` memo: those
    every model's stages read alike (no ``{model}`` in the name), when the
    stage is a per-model one or only per-model stages read its outputs. So
    ``retrieve`` hands the dataset and chunks to the RAG ``evaluate``, while
    ``adjudicate`` and ``stats`` store nothing."""
    per_model = [s for s in STAGES.values() if any("{model}" in n for n in s.outputs)]
    shared = {n for s in per_model for n in s.inputs + s.optional if "{model}" not in n}
    readers = [s for s in STAGES.values() if set(stage.outputs) & set(s.inputs + s.optional)]
    if stage in per_model or readers and all(s in per_model for s in readers):
        return frozenset(shared.intersection(stage.inputs + stage.optional))
    return frozenset()


_KEPT = {name: _kept(stage) for name, stage in STAGES.items()}
_decoded: dict[str, tuple[Path, str, object]] = {}  # name -> (path, digest, decoded); see `_stage`
# Freed before interpreter teardown, whose collections would walk it (0.25 s per stage).
atexit.register(_decoded.clear)


def _stage(
    run_dir: str | Path,
    config: PipelineConfig,
    name: str,
    compute: Callable[[Callable[[str], object], dict[str, Path], str], dict],
    optional: bool = False,
    args: dict | None = None,
    **params: str,
) -> StageResult:
    """Run the table stage ``name`` unless it last ran under the same key over
    input files of the same digests and its outputs are as it left them.
    ``params`` fill the ``{model}`` and ``{mode}`` names and name the stage's
    record (``evaluate:<model>:<mode>``); they and ``args`` enter the key.
    ``optional`` adds the stage's optional inputs. Each input is digested
    once. ``compute`` gets ``read``, the outputs and the run's digest (of the
    key and the input digests); ``read(name)`` decodes the input ``name``
    when called, and raises ``KeyError`` for a name that is not one of the
    stage's inputs.

    Within one process, ``read`` serves an input from the ``_decoded`` memo if
    its path and digest match; the stage stores its ``_KEPT`` inputs for the
    stages after it, and a computing stage first drops other run directories'
    entries and those its row omits. Computes must not mutate what ``read``
    returns."""
    stage = STAGES[name]
    record_name = ":".join([name, *params.values()])
    input_names = [n.format(**params) for n in stage.inputs + (stage.optional if optional else ())]
    run_dir = Path(run_dir)
    key = stage_key(config, name, input_names, {**params, **(args or {})})
    with run_lock(run_dir):
        manifest = RunManifest.load(run_dir)
        inputs = {n: run_dir / n for n in input_names}
        for n, path in inputs.items():
            if not path.exists():
                raise DependencyError(f"missing {n}; run `hopbench {producer(n)}` first")
        input_digests = {n: file_digest(path) for n, path in inputs.items()}
        outputs = {n.format(**params): run_dir / n.format(**params) for n in stage.outputs}
        if manifest.unchanged(record_name, key, input_digests, outputs):
            logger.info("%s: key, inputs and outputs unchanged; no-op", record_name)
            return StageResult(stage=record_name, status="skipped", stats={})
        _check_upstream(manifest, input_names, key)

        started = time.time()
        digest = stable_text_digest(canonical_json({"key": key, "inputs": input_digests}))
        row = stage.inputs + stage.optional
        for n in [n for n, entry in _decoded.items() if n not in row or entry[0] != run_dir / n]:
            del _decoded[n]

        def read(n: str):
            source = inputs[n], input_digests[n]  # a `KeyError` for an undeclared name
            entry = _decoded.pop(n, None)  # a stale copy goes before the file is decoded again
            hit = entry is not None and entry[:2] == source
            if not hit:
                entry = (*source, read_artifact(inputs[n]))
            if hit or n in _KEPT[name]:
                _decoded[n] = entry
            return entry[2]

        stats = compute(read, outputs, digest)
        manifest.record_stage(record_name, key, input_digests, outputs, started, stats=stats)
        manifest.save(run_dir)
        return StageResult(stage=record_name, status="ok", stats=stats)


def _stoplist(config: PipelineConfig) -> tuple[set[str], str]:
    return load_stoplist(config.stoplist_path) if config.stoplist_path else (set(), "")


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def run_ingest(run_dir: str | Path, config: PipelineConfig) -> StageResult:
    if not config.corpus_paths:
        raise ValidationError("config.corpus_paths is empty")

    def compute(_read, outputs, _digest):
        documents: list[Document] = []
        sentences: list[Sentence] = []
        for path in config.corpus_paths:
            document = load_document(path, language=config.language)
            documents.append(document)
            sentences.extend(split_sentences(document))
        doc_ids = [d.doc_id for d in documents]
        if len(set(doc_ids)) != len(doc_ids):
            raise ValidationError(f"duplicate doc ids in corpus: {doc_ids}")
        records = [{**to_record(d), "pages": [p.page_number for p in d.pages]} for d in documents]
        write_artifact(records, outputs["documents.jsonl"])
        write_artifact([to_record(s) for s in sentences], outputs["sentences.jsonl"])
        return {"documents": len(documents), "sentences": len(sentences)}

    return _stage(run_dir, config, "ingest", compute)


def run_chunk(run_dir: str | Path, config: PipelineConfig) -> StageResult:
    embedder = make_embedding_service(config)

    def compute(read, outputs, _digest):
        by_doc: dict[str, list[Sentence]] = {}
        for sentence in read("sentences.jsonl").sentences:
            by_doc.setdefault(sentence.doc_id, []).append(sentence)
        docs = [doc_sentences for _, doc_sentences in sorted(by_doc.items())]
        embeddings = [embedder.embed_texts([s.text for s in doc_sentences]) for doc_sentences in docs]
        global_tau = None
        if config.global_threshold:
            distances = [d for matrix in embeddings for d in consecutive_distances(matrix)]
            global_tau = nearest_rank_percentile(distances, config.chunk_percentile) if distances else None
        chunks: list[Chunk] = []
        for doc_sentences, matrix in zip(docs, embeddings):
            chunks.extend(
                semantic_chunk(
                    doc_sentences,
                    matrix,
                    percentile=config.chunk_percentile,
                    max_sentences=config.max_sentences_per_chunk,
                    threshold=global_tau,
                )
            )
        write_artifact([to_record(c) for c in chunks], outputs["chunks.jsonl"])
        return {"chunks": len(chunks), "global_threshold": global_tau}

    return _stage(run_dir, config, "chunk", compute)


def run_tree(run_dir: str | Path, config: PipelineConfig) -> StageResult:
    chat = make_chat_service(config, config.seed)
    embedder = make_embedding_service(config)

    def compute(read, outputs, _digest):
        tree = build_summary_tree(list(read("chunks.jsonl").values()), chat, embedder, config)
        ordered = sorted(tree.nodes.values(), key=lambda n: (n.level, n.node_id))
        write_artifact([tree_node_to_record(n) for n in ordered], outputs["tree.jsonl"])
        write_json(outputs["gmm_report.json"], {"levels": tree.level_reports})
        return {"nodes": len(tree.nodes), "levels": tree.max_level()}

    return _stage(run_dir, config, "tree", compute)


def run_extract(run_dir: str | Path, config: PipelineConfig) -> StageResult:
    chat = make_chat_service(config, config.seed)

    def compute(read, outputs, _digest):
        chunks, sentences = read("chunks.jsonl"), read("sentences.jsonl")
        raw, reports, failed = extract_tree(
            read("tree.jsonl"), chunks, chat, sentences, model_name=config.chat_model, seed=config.seed
        )
        graph, assembly = assemble_graph(raw, config.theta_schedule(), counting_unit=config.frequency_unit)
        write_artifact(graph_to_records(graph, config.frequency_unit), outputs["graph_raw.jsonl"])
        reasons = Counter()
        for report in reports:
            reasons.update(report.rejection_reasons)
        return {
            "raw_triplets": len(raw),
            "rejected_triplets": sum(r.rejected for r in reports),
            "rejection_reasons": dict(sorted(reasons.items())),
            "failed_nodes": failed,
            "entities": len(graph.entities),
            "edges": len(graph.edges),
            "merged_aliases": assembly.merged_aliases,
            "dropped_self_loops": assembly.dropped_self_loops,
        }

    return _stage(run_dir, config, "extract", compute)


def run_shatter(run_dir: str | Path, config: PipelineConfig) -> StageResult:
    def compute(read, outputs, _digest):
        graph = read("graph_raw.jsonl")
        stop_terms, stoplist_id = _stoplist(config)
        shattered = shatter(graph, config.k_threshold, stoplist=stop_terms)
        cut = {"k_threshold": config.k_threshold, "stoplist_id": stoplist_id}
        write_artifact(graph_to_records(shattered, config.frequency_unit, **cut), outputs["graph.jsonl"])
        report = {
            "k_threshold": "inf" if config.k_threshold is None else config.k_threshold,
            "stoplist_id": stoplist_id,
            "original": topology_report(graph).to_record(),
            "shattered": topology_report(shattered).to_record(),
        }
        write_json(outputs["topology_report.json"], report)
        pruned = [e for e in shattered.entities.values() if e.is_pruned]
        return {
            "pruned": len(pruned),
            "pruned_over_k": sum(1 for e in pruned if e.prune_reason == "over_k"),
            "pruned_stoplist": sum(1 for e in pruned if e.prune_reason == "stoplist"),
            "edges_kept": len(shattered.present_edges()),
        }

    return _stage(run_dir, config, "shatter", compute)


def run_mine(run_dir: str | Path, config: PipelineConfig) -> StageResult:
    def compute(read, outputs, _digest):
        graph = read("graph.jsonl")
        mined = mine_chains(graph, config.per_source_cap)
        completed: list[ReasoningChain] = []
        no_sibling = 0
        for chain in mined:
            try:
                completed.append(sample_hard_negative(chain, graph, derive_seed(config.seed, "sibling", chain.key)))
            except NoHardNegativeError:
                no_sibling += 1
        write_artifact([to_record(c) for c in completed], outputs["chains.jsonl"])
        return {"mined": len(mined), "completed": len(completed), "no_sibling": no_sibling}

    return _stage(run_dir, config, "mine", compute)


def run_synthesize(run_dir: str | Path, config: PipelineConfig) -> StageResult:
    chat = make_chat_service(config, config.seed)

    def compute(read, outputs, _digest):
        graph, chains, chunks = read("graph.jsonl"), read("chains.jsonl"), read("chunks.jsonl")
        items, discards = synthesize_dataset(chains, graph, chunks, read("sentences.jsonl"), chat, config)
        write_artifact([to_record(i) for i in items], outputs["dataset.jsonl"])
        write_artifact(
            [{"chain_ref": d.chain_key, "reason": d.reason, "detail": d.detail} for d in discards],
            outputs["discards.jsonl"],
        )
        reasons = dict(Counter(d.reason for d in discards))
        return {"items": len(items), "discards": len(discards), "discard_reasons": reasons}

    return _stage(run_dir, config, "synthesize", compute)


def run_adjudicate(run_dir: str | Path, config: PipelineConfig) -> StageResult:
    names = list(config.adjudication_ensemble)
    ensemble = [make_chat_service(config, derive_seed(config.seed, "judge", name)) for name in names]

    def compute(read, outputs, _digest):
        items = read("dataset.jsonl")

        def judge(item: QAItem):
            try:
                return adjudicate_quality(item, ensemble, names)
            except AdjudicationError as exc:
                logger.warning("%s", exc)
                return None

        verdicts = parallel_map(judge, items, max_workers=config.max_parallel)
        records = [to_record(v) for v in verdicts if v is not None]
        write_artifact(records, outputs["adjudications.jsonl"])
        return {"scored": len(records), "unscored": len(items) - len(records)}

    return _stage(run_dir, config, "adjudicate", compute)


def run_stats(run_dir: str | Path, config: PipelineConfig) -> StageResult:
    from .textstats import compute_overlap_stats

    embedder = make_embedding_service(config)
    has_adjudications = (Path(run_dir) / "adjudications.jsonl").exists()

    def compute(read, outputs, digest):
        items, chunks, sentences = read("dataset.jsonl"), read("chunks.jsonl"), read("sentences.jsonl")
        adjudications = read("adjudications.jsonl") if has_adjudications else None
        payload = compute_overlap_stats(items, chunks, sentences, embedder, adjudications=adjudications)
        payload["config_digest"] = digest
        write_json(outputs["stats_report.json"], payload)
        return {"total": payload["total_qa_pairs"], "excluded": payload["excluded_items"]}

    return _stage(run_dir, config, "stats", compute, optional=has_adjudications)


def sanitize_model_id(model: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", model)


def outcomes_name(model: str, mode: str) -> str:
    return STAGES["evaluate"].outputs[0].format(model=sanitize_model_id(model), mode=mode)


def run_retrieve(run_dir: str | Path, config: PipelineConfig) -> StageResult:
    """Build every item's RAG context once per run. Contexts do not depend on
    the model, so each model's RAG evaluation reads them from
    ``rag_contexts.jsonl`` (chunk ids in prompt order, golden position).
    Each distinct question is embedded and ranked once; every item of that
    question gets its ranking."""
    embedder = make_embedding_service(config)

    def compute(read, outputs, _digest):
        items, chunks = read("dataset.jsonl"), read("chunks.jsonl")
        if not items:
            raise ValidationError("dataset is empty; nothing to evaluate")
        index = CorpusIndex(chunks)
        questions = list(dict.fromkeys(item.question for item in items))
        vectors = embedder.embed_texts(questions)
        ranked = {question: index.rank(vector, config.coarse_pool) for question, vector in zip(questions, vectors)}
        records = [build_rag_context(item, ranked[item.question], chunks, config) for item in items]
        write_artifact(records, outputs["rag_contexts.jsonl"])
        return {"contexts": len(records)}

    return _stage(run_dir, config, "retrieve", compute)


def run_evaluate(run_dir: str | Path, config: PipelineConfig, model: str, mode: str = "zero_shot") -> StageResult:
    if mode not in ("zero_shot", "rag"):
        raise ValidationError(f"unknown evaluation mode: {mode!r}")
    if mode == "rag":
        run_retrieve(run_dir, config)

    def compute(read, outputs, digest):
        items = read("dataset.jsonl")
        if not items:
            raise ValidationError("dataset is empty; nothing to evaluate")
        passages: dict[str, list[str]] | None = None
        golden_texts: dict[str, str] = {}
        if mode == "rag":
            chunks, contexts = read("chunks.jsonl"), read("rag_contexts.jsonl")
            passages = {r["qa_id"]: context_passages(r, chunks) for r in contexts}
            golden_texts = {r["qa_id"]: passages[r["qa_id"]][r["golden_position"]] for r in contexts}

        [(out_name, out_path)] = outputs.items()
        # Opened before the read: it drops a torn last record, and the
        # outcomes of a run under another digest.
        schema = artifact(out_name).schema
        with IncrementalWriter(out_path, schema=schema, run_digest=digest) as writer:
            done = {r["qa_id"] for r in load(out_path, schema)}
            if done:
                logger.info("resuming %s: %d outcomes already recorded", out_name, len(done))
            if model.startswith("mock:"):
                chat = ChatService(MockEvalTransport(model, items, config.seed, golden_texts))
            else:
                chat = make_chat_service(config, config.seed)
            outcomes = evaluate_dataset(
                [item for item in items if item.qa_id not in done], chat, model_id=model, mode=mode,
                passages=passages, outcome_sink=lambda o: writer.append(to_record(o)),
            )
        return {"evaluated": len(outcomes), "resumed_existing": len(done)}

    return _stage(
        run_dir, config, "evaluate", compute, optional=mode == "rag", model=sanitize_model_id(model), mode=mode
    )


def run_report(run_dir: str | Path, config: PipelineConfig, model: str) -> StageResult:
    zero_name = outcomes_name(model, "zero_shot")
    rag_name = outcomes_name(model, "rag")
    has_rag = (Path(run_dir) / rag_name).exists()

    def compute(read, outputs, digest):
        items, zero = read("dataset.jsonl"), read(zero_name)
        report = behavioral_report(model, zero, items, rag_outcomes=read(rag_name) if has_rag else None)
        payload = report.to_record()
        payload["config_digest"] = digest
        [report_path] = outputs.values()
        write_json(report_path, payload)
        print(report.table())
        return {"total_errors": report.overall.errors, "unparseable": report.overall.unparseable}

    return _stage(run_dir, config, "report", compute, optional=has_rag, model=sanitize_model_id(model))


def run_shatter_sweep(run_dir: str | Path, config: PipelineConfig, ks: list[float | None]) -> StageResult:
    def compute(read, outputs, _digest):
        graph = read("graph_raw.jsonl")
        reports = shatter_sweep(graph, ks, stoplist=_stoplist(config)[0])
        labels = ["inf" if k is None else k for k in ks]
        report_path = outputs["topology_report.json"]
        payload = {}
        if report_path.exists():
            payload = json.loads(report_path.read_text(encoding="utf-8"))
        payload["sweep"] = [{"k": k, **report.to_record()} for k, report in zip(labels, reports)]
        write_json(report_path, payload)
        return {"k_values": labels}

    return _stage(run_dir, config, "shatter-sweep", compute, args={"ks": ks})
