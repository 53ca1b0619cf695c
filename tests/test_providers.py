from __future__ import annotations

import logging
import os
from dataclasses import asdict

import numpy as np
import pytest

from hopbench import prompts, providers
from hopbench.errors import ProtocolError, ProviderFaultError, TransportError, ValidationError
from hopbench.providers import (
    ChatRequest,
    ChatService,
    EmbeddingService,
    HttpChatTransport,
    MockChatTransport,
    MockEmbeddingTransport,
    ResponseCache,
    parallel_map,
    request_hash,
)


def test_chat_request_rejects_empty_messages():
    with pytest.raises(ValidationError):
        ChatRequest(messages=())


def test_reask_appends_a_user_turn_and_advances_the_seed():
    request = ChatRequest.user("first", seed=4).with_reask("second")
    assert request.messages == ("first", "second")
    assert request.seed == 5


def test_request_hash_stable_and_sensitive():
    def key(request, provider_id="p1"):
        return request_hash(provider_id, asdict(request))

    a = ChatRequest.user("hello", model_name="m1", temperature=0.0)
    b = ChatRequest.user("hello", model_name="m1", temperature=0.0)
    c = ChatRequest.user("hello", model_name="m2", temperature=0.0)
    d = ChatRequest.user("hello", model_name="m1", temperature=0.5)
    assert key(a) == key(b)
    assert key(a) != key(c)  # model in the key
    assert key(a) != key(d)  # temperature too
    assert key(a) != key(a, "p2")  # and the provider
    assert key(a) != key(a.with_reask("again"))  # every turn


class ConstantChat:
    def __init__(self, provider_id: str, reply: str):
        self.provider_id, self.reply = provider_id, reply

    def complete(self, request):
        return self.reply


class ConstantEmbedding:
    def __init__(self, provider_id: str, value: float):
        self.provider_id, self.value = provider_id, value

    def embed(self, texts):
        return [[self.value, 1.0] for _ in texts]


def test_providers_sharing_a_cache_each_get_their_own_reply(tmp_path):
    cache = ResponseCache(tmp_path)
    request = ChatRequest.user("Which letter?")
    mock = ChatService(ConstantChat("mock-chat:s1", "A"), cache=cache)
    http = ChatService(ConstantChat("http-chat:http://example", "B"), cache=cache)
    assert mock.complete(request) == "A"
    assert http.complete(request) == "B"
    assert mock.complete(request) == "A"  # both replies are cached, each under its provider
    first = EmbeddingService(ConstantEmbedding("mock-embed:d2:s0", 0.0), cache=cache)
    second = EmbeddingService(ConstantEmbedding("http-embed:http://example:m", 2.0), cache=cache)
    assert first.embed_texts(["text"]).tolist() == [[0.0, 1.0]]
    assert second.embed_texts(["text"]).tolist() == [[2.0, 1.0]]
    assert len(list(tmp_path.glob("*.json"))) == 4


def test_cache_round_trip_byte_identical(tmp_path):
    service = ChatService(MockChatTransport(seed=1), cache=ResponseCache(tmp_path))
    request = ChatRequest.user("anything at all")
    first = service.complete(request)
    second = service.complete(request)
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")


def test_cache_hit_skips_transport(tmp_path):
    class CountingTransport(MockChatTransport):
        calls = 0

        def complete(self, request):
            type(self).calls += 1
            return super().complete(request)

    service = ChatService(CountingTransport(seed=1), cache=ResponseCache(tmp_path))
    request = ChatRequest.user("count me")
    service.complete(request)
    service.complete(request)
    assert CountingTransport.calls == 1


def test_cache_put_survives_a_concurrent_writer_of_the_same_entry(tmp_path, monkeypatch):
    first, second = ResponseCache(tmp_path), ResponseCache(tmp_path)  # two processes' caches
    replace = os.replace

    def other_writer_in_between(src, dst):
        monkeypatch.setattr(providers.os, "replace", replace)
        second.put("h", b"second")
        replace(src, dst)

    monkeypatch.setattr(providers.os, "replace", other_writer_in_between)
    first.put("h", b"first")
    assert first.get("h") == b"first"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.json"]


@pytest.mark.parametrize("damaged", [b'{"request_hash": "h", "payl', b"\xff\xfe{}", b"[1, 2]", b'{"request_hash": "h"}'])
def test_unreadable_cache_entry_is_a_miss(tmp_path, caplog, damaged):
    cache = ResponseCache(tmp_path)
    (tmp_path / "h.json").write_bytes(damaged)
    with caplog.at_level(logging.WARNING, logger="hopbench.providers"):
        assert cache.get("h") is None
    assert "unreadable cache entry" in caplog.text


def test_service_refetches_over_a_truncated_cache_entry(tmp_path):
    cache = ResponseCache(tmp_path)
    service = ChatService(MockChatTransport(seed=1), cache=cache)
    request = ChatRequest.user("cached then truncated")
    expected = service.complete(request)
    (entry,) = tmp_path.glob("*.json")
    entry.write_bytes(entry.read_bytes()[:10])
    assert service.complete(request) == expected
    assert cache.get(entry.stem) == expected.encode("utf-8")


# A prompt the mock answers with a letter, without hashing the request itself.
MCQ_PROMPT = prompts.render_eval_prompt("Which finding?", ["first", "second"])


def _count_request_hashes(monkeypatch) -> dict[str, int]:
    """Hashes computed, per provider."""
    counts: dict[str, int] = {}
    real_hash = providers.request_hash

    def counted(provider_id, body):
        counts[provider_id] = counts.get(provider_id, 0) + 1
        return real_hash(provider_id, body)

    monkeypatch.setattr(providers, "request_hash", counted)
    return counts


def test_service_without_a_cache_hashes_no_request(monkeypatch):
    counts = _count_request_hashes(monkeypatch)
    ChatService(MockChatTransport(seed=1)).complete(ChatRequest.user(MCQ_PROMPT))
    EmbeddingService(MockEmbeddingTransport(dimension=8, seed=0)).embed_texts(["one text", "another"])
    assert counts == {}


def test_cached_service_hashes_each_request_once(tmp_path, monkeypatch):
    counts = _count_request_hashes(monkeypatch)
    chat = ChatService(MockChatTransport(seed=1), cache=ResponseCache(tmp_path))
    embedder = EmbeddingService(MockEmbeddingTransport(dimension=8, seed=0), cache=ResponseCache(tmp_path))
    request = ChatRequest.user(MCQ_PROMPT)
    assert chat.complete(request) == chat.complete(request)  # a miss, then a hit
    first, second = embedder.embed_texts(["one text"]), embedder.embed_texts(["one text"])
    assert np.array_equal(first, second)
    assert counts == {"mock-chat:s1": 2, "mock-embed:d8:s0": 2}


def test_mock_response_keyed_by_request_hash():
    transport = MockChatTransport(seed=3)
    request = ChatRequest.user("free-form request with no sentinel")
    first = transport.complete(request)
    second = transport.complete(request)
    assert first == second
    assert first.startswith("mock-response:")
    assert request_hash(transport.provider_id, asdict(request))[:16] in first


def test_mock_embeddings_pure_function_of_text_and_seed():
    a = MockEmbeddingTransport(dimension=16, seed=5)
    b = MockEmbeddingTransport(dimension=16, seed=5)
    other_seed = MockEmbeddingTransport(dimension=16, seed=6)
    assert a.embed(["osteoblast activity"]) == b.embed(["osteoblast activity"])
    assert a.embed(["osteoblast activity"]) != other_seed.embed(["osteoblast activity"])


def test_mock_embeddings_unit_norm_and_vocab_similarity():
    transport = MockEmbeddingTransport(dimension=32, seed=0)
    rows = transport.embed(
        ["diabetes harms bone", "diabetes harms nerves", "thrombus embolism stroke"]
    )
    for row in rows:
        assert np.isclose(np.linalg.norm(row), 1.0)
    same_topic = float(np.dot(rows[0], rows[1]))
    cross_topic = float(np.dot(rows[0], rows[2]))
    assert same_topic > cross_topic  # shared tokens pull vectors together


def test_embed_texts_identical_inputs_identical_vectors():
    service = EmbeddingService(MockEmbeddingTransport(dimension=16, seed=2))
    vectors = service.embed_texts(["a", "a"])
    assert vectors.shape == (2, 16) and vectors.dtype == np.float64
    assert np.array_equal(vectors[0], vectors[1])


def test_embed_texts_batch_matches_single_calls():
    service = EmbeddingService(MockEmbeddingTransport(dimension=16, seed=2))
    texts = ["first text", "second text", "third text"]
    batch = service.embed_texts(texts)
    singles = np.stack([service.embed_texts([t])[0] for t in texts])
    assert np.array_equal(batch, singles)


def test_embed_texts_sends_slices_of_at_most_embed_batch_texts(monkeypatch, tmp_path):
    class Recording(MockEmbeddingTransport):
        def embed(self, texts):
            requests.append(list(texts))
            return super().embed(texts)

    texts = [f"text number {i}" for i in range(5)]
    whole = EmbeddingService(MockEmbeddingTransport(dimension=8, seed=0)).embed_texts(texts)
    monkeypatch.setattr(providers, "EMBED_BATCH", 2)
    for cache in (None, ResponseCache(tmp_path)):
        requests: list[list[str]] = []
        assert np.array_equal(EmbeddingService(Recording(dimension=8, seed=0), cache=cache).embed_texts(texts), whole)
        assert requests == [texts[0:2], texts[2:4], texts[4:5]]
    assert len(list(tmp_path.glob("*.json"))) == 3  # one cache entry per slice


def test_embed_texts_sends_each_distinct_text_once(monkeypatch, tmp_path):
    class Recording(MockEmbeddingTransport):
        def embed(self, texts):
            requests.append(list(texts))
            return super().embed(texts)

    texts = ["beta", "alpha", "beta", "gamma", "alpha", "delta", "beta"]
    per_text = np.stack([EmbeddingService(MockEmbeddingTransport(dimension=8, seed=0)).embed_texts([t])[0] for t in texts])
    monkeypatch.setattr(providers, "EMBED_BATCH", 2)
    for cache in (None, ResponseCache(tmp_path)):
        requests: list[list[str]] = []
        rows = EmbeddingService(Recording(dimension=8, seed=0), cache=cache).embed_texts(texts)
        assert np.array_equal(rows, per_text)
        assert requests == [["beta", "alpha"], ["gamma", "delta"]]  # slices of distinct texts
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_embed_texts_validation_errors():
    service = EmbeddingService(MockEmbeddingTransport(dimension=16, seed=2))
    with pytest.raises(ValidationError):
        service.embed_texts([])
    with pytest.raises(ValidationError):
        service.embed_texts(["fine", "   "])


def test_embed_texts_refuses_a_batch_of_mixed_dimensions(monkeypatch):
    class Ragged:
        provider_id = "ragged"

        def embed(self, texts):
            return [[1.0, 0.0] if text == "one" else [1.0, 0.0, 0.0] for text in texts]

    with pytest.raises(ProviderFaultError, match="mixed dimensions"):
        EmbeddingService(Ragged()).embed_texts(["one", "two"])
    monkeypatch.setattr(providers, "EMBED_BATCH", 1)  # each slice is uniform, the call is not
    with pytest.raises(ProviderFaultError, match="mixed dimensions"):
        EmbeddingService(Ragged()).embed_texts(["one", "two"])


def test_http_chat_retries_then_raises_transport_error(monkeypatch):
    import requests

    attempts = []

    def failing_post(url, json=None, headers=None, timeout=None):
        attempts.append(url)
        raise requests.ConnectionError("refused")

    monkeypatch.setattr(requests, "post", failing_post)
    sleeps: list[float] = []
    transport = HttpChatTransport("http://localhost:9", "HOPBENCH_API_KEY", sleep=sleeps.append)
    with pytest.raises(TransportError):
        transport.complete(ChatRequest.user("hi"))
    assert len(attempts) == 3
    assert sleeps == [1.0, 2.0]  # exponential backoff from 1s


def test_http_chat_rate_limit_retries_then_succeeds(monkeypatch):
    import requests

    responses = []

    class FakeResponse:
        def __init__(self, status_code, payload=None, text=""):
            self.status_code = status_code
            self._payload = payload
            self.text = text

        def json(self):
            return self._payload

    def post(url, json=None, headers=None, timeout=None):
        responses.append(url)
        if len(responses) < 2:
            return FakeResponse(429)
        return FakeResponse(200, {"choices": [{"message": {"content": "pong"}}]})

    monkeypatch.setattr(requests, "post", post)
    transport = HttpChatTransport("http://localhost:9", "HOPBENCH_API_KEY", sleep=lambda _: None)
    assert transport.complete(ChatRequest.user("ping")) == "pong"


def test_http_chat_malformed_json_is_protocol_error(monkeypatch):
    import requests

    class FakeResponse:
        status_code = 200
        text = "ok"

        def json(self):
            return {"unexpected": "shape"}

    monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse())
    transport = HttpChatTransport("http://localhost:9", "HOPBENCH_API_KEY", sleep=lambda _: None)
    with pytest.raises(ProtocolError):
        transport.complete(ChatRequest.user("hi"))


def test_parallel_map_preserves_order():
    items = list(range(20))
    assert parallel_map(lambda x: x * x, items, max_workers=4) == [x * x for x in items]
