"""The dataclass record codec and the artifact decoders against literal
artifact lines.

Each line below is in the form the pipeline writes. Decoding it through its
``pipeline.ARTIFACTS`` entry and encoding the result as its stage does must
give the same bytes, and keys left out of older or hand-made records must
decode to the field defaults."""

from __future__ import annotations

import json

import pytest

from hopbench import pipeline
from hopbench.adjudicate import Adjudication
from hopbench.chains import ReasoningChain
from hopbench.codec import from_record, to_record
from hopbench.corpus import Chunk
from hopbench.errors import ValidationError
from hopbench.evaluation import EvalOutcome
from hopbench.jsonl import snapshot
from hopbench.kg import Evidence
from hopbench.manifest import RunManifest, StageRecord
from hopbench.synthesis import QAItem
from hopbench.tree import SummaryTreeNode

LINES = {
    "documents": '{"doc_id":"toy_metabolic","language":"EN","pages":[1,2],"source_path":"toy_metabolic.txt"}',
    "sentences": (
        '{"doc_id":"toy_metabolic","page_number":1,"sentence_index":0,'
        '"text":"Clinical overview of metabolic bone disease."}'
    ),
    "chunks": (
        '{"chunk_id":"toy_circulatory-c0000","doc_id":"toy_circulatory",'
        '"embedding":[-0.28135035736392294,0.10569562276844179],'
        '"page_anchor":1,"sentence_span":[0,3],"text":"Chronic hypertension strains the heart."}'
    ),
    "tree": (
        '{"cluster_model_ref":"L1-gmm-K2","level":1,"member_ids":{"toy_a-c0000":0.5,'
        '"toy_b-c0001":0.123456789},"node_id":"L1-n000","summary_text":"Hypertension and the heart."}'
    ),
    "chains": (
        '{"a":"e00009","b":"e00011","b_prime":"e00015","e_bridge":"e00010","e_sib":"e00014",'
        '"evidence_hop1":{"chunk_id":"toy_metabolic-c0000","page_anchor":1,"sentence_span":[1,1]},'
        '"evidence_hop2":{"chunk_id":"toy_metabolic-c0000","page_anchor":1,"sentence_span":[2,2]},'
        '"evidence_sibling":{"chunk_id":"toy_metabolic-c0001","page_anchor":2,"sentence_span":[9,9]},'
        '"relation_hop1":"causes","relation_hop2":"triggers","relation_sibling":"damages"}'
    ),
    "dataset": (
        '{"answer_index":2,"chain_ref":"e00009>e00010>e00011","clinical_task":"unadjudicated",'
        '"difficulty":"hard","evidence_anchors":[{"chunk_id":"toy_metabolic-c0000","hop":"hop1",'
        '"page_anchor":1,"sentence_span":[1,1]}],"generation_metadata":{"attempts":1,"model":"default",'
        '"seed":13596717972768120383,"temperature":0.7},"hard_negative_index":1,"language":"EN",'
        '"masked_entity":{"aliases":[],"canonical":"AGEs accumulation"},'
        '"options":["Chronic bronchitis","schwann cells","osteoblast suppression","早产"],'
        '"qa_id":"qa00000","question":"Which finding follows?","rationale":"Two hops."}'
    ),
    "discards": (
        '{"chain_ref":"e00009>e00010>e00011","detail":"no answer option left after masking",'
        '"reason":"insufficient_fillers"}'
    ),
    "adjudications": (
        '{"clarity":4.0,"clinical_task":"Clinical Treatment","difficulty":3.0,"members_responded":3,'
        '"qa_id":"qa00000","reasoning_type":"Multi-hop","validity":4.67}'
    ),
    "rag_contexts": (
        '{"chunk_ids":["toy_metabolic-c0000","toy_respiratory-c0001","toy_respiratory-c0000"],'
        '"golden_position":0,"qa_id":"qa00000"}'
    ),
    "outcomes": (
        '{"correct":false,"mode":"zero_shot","model_id":"mock:hash","parsed_choice":null,'
        '"qa_id":"qa00003","raw_response":"I cannot tell."}'
    ),
}

GRAPH_LINES = [
    '{"frequency_unit":"tree_nodes","k_threshold":50,"kind":"meta","stoplist_id":"3f2a","view":"original"}',
    '{"aliases":["T2D","type II diabetes"],"canonical_name":"Type 2 Diabetes","entity_id":"e00000",'
    '"frequency":12,"is_pruned":false,"kind":"entity","prune_reason":null}',
    '{"aliases":[],"canonical_name":"blood","entity_id":"e00001","frequency":9,"is_pruned":true,'
    '"kind":"entity","prune_reason":"stoplist"}',
    '{"confidence":0.75,"evidence":{"chunk_id":"toy_metabolic-c0000","page_anchor":1,"sentence_span":[1,2]},'
    '"head":"e00000","kind":"edge","relation":"alters","source_node_id":"L1-n000","tail":"e00001"}',
]

STAGE_RECORD = {
    "finished_at": 1700000001.25,
    "inputs": {"sentences.jsonl": "ab12"},
    "key": {"chunk_percentile": 95.0, "corpus_paths": ["9c1e"], "global_threshold": False, "seed": 7},
    "outputs": {"chunks.jsonl": "cd34"},
    "stage": "chunk",
    "started_at": 1700000000.5,
    "stats": {"chunks": 7, "global_threshold": None},
}


# The level-0 nodes that the tree line's members name: a tree decodes only whole.
TREE_LEAVES = [
    '{"cluster_model_ref":null,"level":0,"member_ids":{},"node_id":"toy_a-c0000","summary_text":""}',
    '{"cluster_model_ref":null,"level":0,"member_ids":{},"node_id":"toy_b-c0001","summary_text":""}',
]

# The records that a decoded artifact gives back, as its stage writes them;
# the others decode to a list of dataclasses.
ENCODE = {
    "documents": list,
    "sentences": lambda store: [to_record(s) for s in store.sentences],
    "chunks": lambda by_id: [to_record(c) for c in by_id.values()],
    "tree": lambda tree: [pipeline.tree_node_to_record(n) for n in tree.nodes.values()],
    "discards": list,
    "adjudications": lambda by_qa_id: [to_record(from_record(Adjudication, r)) for r in by_qa_id.values()],
    "rag_contexts": list,
}


def _file(tmp_path, name: str, lines: list[str]):
    """``lines`` under the header of the schema that ``ARTIFACTS`` gives ``name``."""
    path = tmp_path / name
    header = json.dumps({"schema": pipeline.artifact(name).schema, "version": 1}, separators=(",", ":"))
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    return path


# One file per artifact in the table but the graphs, which have their own test.
NAMES = {entry.schema: name for name, entry in pipeline.ARTIFACTS.items() if entry.schema != "graph"}


@pytest.mark.parametrize("schema", sorted(NAMES))
def test_decode_then_encode_gives_the_same_bytes(tmp_path, schema):
    lines = [*TREE_LEAVES, LINES[schema]] if schema == "tree" else [LINES[schema]]
    source = _file(tmp_path, NAMES[schema].format(model="mock-hash", mode="zero_shot"), lines)
    decoded = pipeline.read_artifact(source)
    records = ENCODE.get(schema, lambda objects: [to_record(o) for o in objects])(decoded)
    written = snapshot(records, tmp_path / "out.jsonl", schema=schema)
    assert written.read_bytes() == source.read_bytes()


def test_chunks_decode_to_chunks_by_id_and_refuse_a_repeated_id(tmp_path):
    decoded = pipeline.read_artifact(_file(tmp_path, "chunks.jsonl", [LINES["chunks"]]))
    [(chunk_id, chunk)] = decoded.items()
    assert chunk_id == chunk.chunk_id == json.loads(LINES["chunks"])["chunk_id"]
    with pytest.raises(ValidationError, match="repeated"):
        pipeline.read_artifact(_file(tmp_path, "chunks.jsonl", [LINES["chunks"]] * 2))


def test_graph_records_decode_then_encode_to_the_same_bytes(tmp_path):
    names = [name for name, entry in pipeline.ARTIFACTS.items() if entry.schema == "graph"]
    assert names == ["graph_raw.jsonl", "graph.jsonl"]
    for name in names:
        source = _file(tmp_path, name, GRAPH_LINES)
        graph = pipeline.read_artifact(source)
        assert graph.entities["e00000"].aliases == {"T2D", "type II diabetes"}
        assert graph.edges[0].evidence == Evidence("toy_metabolic-c0000", (1, 2), 1)
        assert graph.resolve_surface("t2d") == "e00000"
        records = pipeline.graph_to_records(graph, "tree_nodes", k_threshold=50, stoplist_id="3f2a")
        written = snapshot(records, tmp_path / "out.jsonl", schema="graph")
        assert written.read_bytes() == source.read_bytes()


def test_a_graph_file_without_its_meta_record_is_refused(tmp_path):
    for name in ("graph_raw.jsonl", "graph.jsonl"):
        for lines in ([], GRAPH_LINES[1:]):
            with pytest.raises(ValidationError, match="must start with a meta record"):
                pipeline.read_artifact(_file(tmp_path, name, lines))


def test_nested_fields_decode_to_their_types():
    chunk = from_record(Chunk, json.loads(LINES["chunks"]))
    assert chunk.sentence_span == (0, 3)
    assert chunk.embedding == (-0.28135035736392294, 0.10569562276844179)
    chain = from_record(ReasoningChain, json.loads(LINES["chains"]))
    assert chain.evidence_sibling == Evidence("toy_metabolic-c0001", (9, 9), 2)


def test_stage_record_round_trip_through_the_manifest(tmp_path):
    assert to_record(from_record(StageRecord, STAGE_RECORD)) == STAGE_RECORD
    manifest = RunManifest()
    manifest.stages["chunk"] = from_record(StageRecord, STAGE_RECORD)
    manifest.save(tmp_path)
    first = (tmp_path / "manifest.json").read_bytes()
    RunManifest.load(tmp_path).save(tmp_path)
    assert (tmp_path / "manifest.json").read_bytes() == first


def test_left_out_optional_keys_decode_to_the_defaults():
    entity_line, edge_line = json.loads(GRAPH_LINES[2]), json.loads(GRAPH_LINES[3])
    del entity_line["prune_reason"], edge_line["source_node_id"]
    graph = pipeline.graph_from_records(
        [json.loads(GRAPH_LINES[0]), json.loads(GRAPH_LINES[1]), entity_line, edge_line]
    )
    assert graph.entities["e00001"].prune_reason is None
    assert graph.edges[0].source_node_id == ""

    chain = json.loads(LINES["chains"])
    for key in ("e_sib", "b_prime", "relation_sibling", "evidence_sibling"):
        del chain[key]
    decoded = from_record(ReasoningChain, chain)
    assert (decoded.e_sib, decoded.b_prime, decoded.relation_sibling, decoded.evidence_sibling) == (None,) * 4
    assert not decoded.complete

    node = json.loads(LINES["tree"])
    del node["cluster_model_ref"]
    assert from_record(SummaryTreeNode, node).cluster_model_ref is None

    item = json.loads(LINES["dataset"])
    del item["generation_metadata"]
    assert from_record(QAItem, item).generation_metadata == {}

    stage = {k: v for k, v in STAGE_RECORD.items() if k != "stats"}
    assert from_record(StageRecord, stage).stats == {}


def test_a_missing_required_key_is_refused():
    record = json.loads(LINES["outcomes"])
    del record["qa_id"]
    with pytest.raises(KeyError):
        from_record(EvalOutcome, record)
