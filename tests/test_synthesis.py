from __future__ import annotations

import json

import pytest

from conftest import entity_id_by_name, make_graph
from hopbench import synthesis
from hopbench.chains import mine_chains, sample_hard_negative
from hopbench.config import PipelineConfig
from hopbench.corpus import Chunk, Sentence, SentenceStore
from hopbench.errors import ItemDiscardedError, ValidationError
from hopbench.kg import shatter
from hopbench.providers import ChatService, MockChatTransport
from hopbench.seeding import derive_seed
from hopbench.synthesis import QAItem, synthesize_dataset, synthesize_item, verify_masking


def qa_item(question: str, masked: dict, options=None, rationale="because") -> QAItem:
    return QAItem(
        qa_id="qa1",
        language="EN",
        difficulty="hard",
        clinical_task="unadjudicated",
        question=question,
        options=options or ["w", "x", "y", "z"],
        answer_index=0,
        hard_negative_index=1,
        masked_entity=masked,
        rationale=rationale,
        evidence_anchors=[],
        chain_ref="a>b>c",
    )


# -- masking verification -------------------------------------------------------


def test_masking_case_insensitive_containment():
    item = qa_item(
        "The mechanism of AGEs accumulation is relevant here.",
        {"canonical": "AGEs Accumulation", "aliases": []},
    )
    assert verify_masking(item) == ["AGEs Accumulation"]


def test_masking_paraphrase_passes():
    item = qa_item(
        "Glycation end products build up and harm bone.",
        {"canonical": "AGEs Accumulation", "aliases": []},
    )
    assert verify_masking(item) == []


def test_masking_alias_counts_as_violation():
    item = qa_item(
        "advanced glycation end-products are at play",
        {"canonical": "AGEs Accumulation", "aliases": ["Advanced Glycation End-Products"]},
    )
    assert verify_masking(item) == ["Advanced Glycation End-Products"]


def test_masking_ignores_rationale():
    item = qa_item(
        "A clean question.",
        {"canonical": "AGEs", "aliases": []},
        rationale="The hidden step is AGEs accumulation.",
    )
    assert verify_masking(item) == []


def test_item_rejects_bad_indexes():
    with pytest.raises(ValidationError):
        QAItem(
            qa_id="bad",
            language="EN",
            difficulty="hard",
            clinical_task="x",
            question="q",
            options=["a", "b"],
            answer_index=1,
            hard_negative_index=1,
            masked_entity={"canonical": "m", "aliases": []},
            rationale="r",
            evidence_anchors=[],
            chain_ref="k",
        )


# -- synthesized items -----------------------------------------------------------


def synthesis_fixture():
    """Shattered graph with a complete chain, far fillers, and real evidence."""
    names = [
        "Type 2 Diabetes",
        "AGEs Accumulation",
        "Osteoblast Suppression",
        "Sorbitol Accumulation",
        "Schwann Cell Damage",
        "Renal Arterioles",
        "Glomerular Sclerosis",
        "Uremic Toxicity",
        "Thrombus Formation",
    ]
    edges = [
        ("Type 2 Diabetes", "causes", "AGEs Accumulation"),
        ("AGEs Accumulation", "suppresses", "Osteoblast Suppression"),
        ("Type 2 Diabetes", "causes", "Sorbitol Accumulation"),
        ("Sorbitol Accumulation", "damages", "Schwann Cell Damage"),
        ("Renal Arterioles", "r", "Glomerular Sclerosis"),
        ("Glomerular Sclerosis", "r", "Uremic Toxicity"),
        ("Uremic Toxicity", "r", "Thrombus Formation"),
    ]
    graph = shatter(make_graph(names, edges), None, stoplist=set())
    sentences = [
        Sentence("d1", 1, 0, "Type 2 Diabetes causes AGEs Accumulation."),
        Sentence("d1", 1, 1, "AGEs Accumulation suppresses Osteoblast Suppression."),
    ]
    chunk = Chunk(
        chunk_id="c0",
        doc_id="d1",
        sentence_span=(0, 1),
        text=" ".join(s.text for s in sentences),
        page_anchor=1,
        embedding=(1.0, 0.0),
    )
    diabetes = entity_id_by_name(graph, "Type 2 Diabetes")
    bridge = entity_id_by_name(graph, "AGEs Accumulation")
    target = entity_id_by_name(graph, "Osteoblast Suppression")
    chain = next(
        c for c in mine_chains(graph, None) if (c.a, c.e_bridge, c.b) == (diabetes, bridge, target)
    )
    chain = sample_hard_negative(chain, graph, rng_seed=3)
    return graph, chain, {"c0": chunk}, SentenceStore(sentences)


def test_mock_synthesis_masks_bridge_and_includes_key_options():
    graph, chain, chunks, store = synthesis_fixture()
    item = synthesize_item(
        chain, graph, chunks, store, ChatService(MockChatTransport(seed=0)), "qa0", PipelineConfig(), rng_seed=11,
        far_by_source={},
    )
    assert "AGEs Accumulation".casefold() not in item.question.casefold()
    assert "Osteoblast Suppression" in item.options
    assert "Schwann Cell Damage" in item.options
    assert item.options[item.answer_index] == "Osteoblast Suppression"
    assert item.options[item.hard_negative_index] == "Schwann Cell Damage"
    assert verify_masking(item) == []
    assert item.evidence_anchors[0]["chunk_id"] == "c0"
    assert item.generation_metadata["seed"] == 11


def test_two_options_rejected():
    graph, chain, chunks, store = synthesis_fixture()
    with pytest.raises(ValidationError):
        synthesize_item(
            chain, graph, chunks, store, ChatService(MockChatTransport(seed=0)), "qa0", PipelineConfig(n_options=2), 0,
            far_by_source={},
        )


def test_incomplete_chain_rejected():
    graph, chain, chunks, store = synthesis_fixture()
    bare = mine_chains(graph, None)[0]
    with pytest.raises(ValidationError):
        synthesize_item(
            bare, graph, chunks, store, ChatService(MockChatTransport(seed=0)), "qa0", PipelineConfig(), 0,
            far_by_source={},
        )


def test_same_seed_reproduces_item_exactly():
    graph, chain, chunks, store = synthesis_fixture()
    chat, config = ChatService(MockChatTransport(seed=0)), PipelineConfig()
    first = synthesize_item(chain, graph, chunks, store, chat, "qa0", config, rng_seed=5, far_by_source={})
    second = synthesize_item(chain, graph, chunks, store, chat, "qa0", config, rng_seed=5, far_by_source={})
    assert first.options == second.options
    assert first.question == second.question
    other = synthesize_item(chain, graph, chunks, store, chat, "qa0", config, rng_seed=6, far_by_source={})
    assert first.options != other.options or first.question == other.question  # seed moves the shuffle


def test_fillers_exclude_chain_and_near_entities():
    graph, chain, chunks, store = synthesis_fixture()
    item = synthesize_item(
        chain, graph, chunks, store, ChatService(MockChatTransport(seed=0)), "qa0", PipelineConfig(), rng_seed=1,
        far_by_source={},
    )
    chain_names = {
        graph.entities[x].canonical_name
        for x in (chain.a, chain.e_bridge, chain.e_sib)
    }
    for option in item.options:
        assert option not in chain_names
    filler_names = set(item.options) - {"Osteoblast Suppression", "Schwann Cell Damage"}
    assert filler_names <= {"Renal Arterioles", "Glomerular Sclerosis", "Uremic Toxicity", "Thrombus Formation"}


def test_insufficient_fillers_discards_item():
    names = ["a", "b", "c", "s", "t"]
    edges = [("a", "r", "b"), ("b", "r", "c"), ("a", "r", "s"), ("s", "r", "t")]
    graph = shatter(make_graph(names, edges), None, stoplist=set())
    sentences = [Sentence("d1", 1, 0, "a r b."), Sentence("d1", 1, 1, "b r c.")]
    chunk = Chunk(
        chunk_id="c0",
        doc_id="d1",
        sentence_span=(0, 1),
        text="a r b. b r c.",
        page_anchor=1,
        embedding=(1.0, 0.0),
    )
    chain = sample_hard_negative(mine_chains(graph, None)[0], graph, rng_seed=0)
    with pytest.raises(ItemDiscardedError) as excinfo:
        synthesize_item(
            chain, graph, {"c0": chunk}, SentenceStore(sentences),
            ChatService(MockChatTransport(seed=0)), "qa0", PipelineConfig(), 0, far_by_source={},
        )
    assert excinfo.value.reason == "insufficient_fillers"


def test_masking_violations_retry_then_discard():
    graph, chain, chunks, store = synthesis_fixture()
    bridge_name = graph.entities[chain.e_bridge].canonical_name

    class LeakyTransport(MockChatTransport):
        def complete(self, request):
            return json.dumps(
                {"question": f"What does {bridge_name} cause?", "rationale": "r"}
            )

    with pytest.raises(ItemDiscardedError) as excinfo:
        synthesize_item(
            chain, graph, chunks, store, ChatService(LeakyTransport(seed=0)), "qa0", PipelineConfig(), rng_seed=2,
            far_by_source={},
        )
    assert excinfo.value.reason == "masking_violation"


def test_unparseable_generation_discarded_with_reason():
    graph, chain, chunks, store = synthesis_fixture()

    class GarbageTransport(MockChatTransport):
        def complete(self, request):
            return "no json"

    with pytest.raises(ItemDiscardedError) as excinfo:
        synthesize_item(
            chain, graph, chunks, store, ChatService(GarbageTransport(seed=0)), "qa0", PipelineConfig(), rng_seed=2,
            far_by_source={},
        )
    assert excinfo.value.reason == "unparseable_generation"


def test_five_option_items_supported():
    graph, chain, chunks, store = synthesis_fixture()
    item = synthesize_item(
        chain, graph, chunks, store, ChatService(MockChatTransport(seed=0)),
        "qa0", PipelineConfig(n_options=5), rng_seed=4, far_by_source={},
    )
    assert len(item.options) == 5
    assert len(set(item.options)) == 5
    assert item.options[item.answer_index] == "Osteoblast Suppression"
    assert item.options[item.hard_negative_index] == "Schwann Cell Damage"


def test_dataset_synthesis_collects_discard_reasons():
    graph, chain, chunks, store = synthesis_fixture()
    items, discards = synthesize_dataset(
        [chain], graph, chunks, store, ChatService(MockChatTransport(seed=0)), PipelineConfig(seed=1)
    )
    assert len(items) == 1
    assert discards == []
    assert items[0].qa_id == "qa00000"


def test_filler_memo_gives_the_fillers_of_a_fresh_search_per_item(monkeypatch):
    """Six complete five-node groups: every node is the source of several
    chains, so the dataset reuses each source's far ids."""
    names = [f"group {g} member {m}" for g in range(6) for m in range(5)]
    edges = [
        (names[g * 5 + i], "r", names[g * 5 + j])
        for g in range(6)
        for i in range(5)
        for j in range(5)
        if i != j
    ]
    graph = shatter(make_graph(names, edges), None, stoplist=set())
    mined = mine_chains(graph, per_source_cap=4)
    chains = [sample_hard_negative(c, graph, rng_seed=i) for i, c in enumerate(mined)]
    sentences = [Sentence("d1", 1, 0, "group 0 member 0 r group 0 member 1.")]
    chunk = Chunk(
        chunk_id="c0",
        doc_id="d1",
        sentence_span=(0, 0),
        text=sentences[0].text,
        page_anchor=1,
        embedding=(1.0, 0.0),
    )
    chunks, store, chat = {"c0": chunk}, SentenceStore(sentences), ChatService(MockChatTransport(seed=0))

    searches = []
    bfs_hops = synthesis.bfs_hops
    monkeypatch.setattr(synthesis, "bfs_hops", lambda g, source: searches.append(source) or bfs_hops(g, source))
    config = PipelineConfig(seed=3)
    items, discards = synthesize_dataset(chains, graph, chunks, store, chat, config)
    assert not discards and len(items) == len(chains) == 120
    assert sorted(searches) == sorted({c.a for c in chains})

    searches.clear()
    fresh = [
        synthesize_item(
            chain, graph, chunks, store, chat,
            f"qa{index:05d}", config, rng_seed=derive_seed(3, "synthesize", chain.key), far_by_source={},
        )
        for index, chain in enumerate(chains)
    ]
    assert len(searches) == len(chains)
    assert items == fresh
