"""Provider-agnostic chat and embedding clients.

Transports reach a provider: an HTTP JSON client for any chat-completion /
embedding endpoint, and deterministic mocks that make the whole pipeline run
offline (the answering models of ``evaluate --model mock:<behavior>`` are
``evaluation.MockEvalTransport``). ``ChatService`` and ``EmbeddingService``
are the one path from a stage to a transport. Without a cache they call the
transport directly; with a ``ResponseCache`` they hash the request together
with the transport's ``provider_id``, and a repeated request to the same
provider is answered byte-identically from the cache.
``EmbeddingService.embed_texts`` sends each distinct text once, at most
``EMBED_BATCH`` of them per request, and returns one float64 matrix, a row
per text given.
"""

from __future__ import annotations

import json
import logging
import os
import re
import tempfile
import time
import unicodedata
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Protocol, Sequence

import numpy as np

from .errors import (
    ProtocolError,
    ProviderFaultError,
    TransportError,
    ValidationError,
)
from . import prompts
from .jsonl import canonical_json
from .seeding import derive_seed, stable_text_digest

logger = logging.getLogger(__name__)

RETRYABLE_STATUSES = (429, 500, 502, 503, 504)
MAX_ATTEMPTS = 3
BACKOFF_INITIAL = 1.0
HTTP_TIMEOUT_S = 60.0
MAX_OUTPUT_TOKENS = 1024
# Texts per embedding request: under the 2,048 inputs an OpenAI-compatible
# embeddings endpoint accepts in one request.
EMBED_BATCH = 1024


# ---------------------------------------------------------------------------
# Request / response types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChatRequest:
    """One chat-completion call: its user turns, in order.
    temperature=0 requests deterministic decoding."""

    messages: tuple[str, ...]
    temperature: float = 0.0
    model_name: str = "default"
    seed: int | None = None

    def __post_init__(self):
        if not self.messages:
            raise ValidationError("chat request needs at least one message")
        if self.temperature < 0:
            raise ValidationError("temperature must be >= 0")

    @staticmethod
    def user(content: str, **kwargs) -> "ChatRequest":
        return ChatRequest(messages=(content,), **kwargs)

    def with_reask(self, note: str) -> "ChatRequest":
        """Append a corrective user turn (used for JSON re-asks)."""
        return replace(self, messages=(*self.messages, note), seed=None if self.seed is None else self.seed + 1)


def request_hash(provider_id: str, body: dict) -> str:
    """Cache key of one request: the provider it goes to and what it asks."""
    return stable_text_digest(canonical_json({"provider": provider_id, **body}))


# ---------------------------------------------------------------------------
# Response cache
# ---------------------------------------------------------------------------


class ResponseCache:
    """Directory of content-addressed response files.

    Reads are lock-free; every write goes through its own temporary file and
    an atomic rename, so concurrent writers (threads or processes) never
    collide and readers never observe a torn entry. An entry that cannot be
    read back (truncated or undecodable) counts as a miss.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, request_hash: str) -> Path:
        return self.directory / f"{request_hash}.json"

    def get(self, request_hash: str) -> bytes | None:
        """The stored payload, or None on a miss."""
        path = self._path(request_hash)
        try:
            record = json.loads(path.read_bytes().decode("utf-8"))
            return record["payload"].encode("utf-8")
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            logger.warning("ignoring unreadable cache entry %s: %s", path, exc)
            return None

    def put(self, request_hash: str, payload: bytes) -> None:
        record = {"payload": payload.decode("utf-8")}
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=f"{request_hash}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(record, ensure_ascii=False))
            os.replace(tmp, self._path(request_hash))
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


class ChatTransport(Protocol):
    provider_id: str

    def complete(self, request: ChatRequest) -> str: ...


class EmbeddingTransport(Protocol):
    provider_id: str

    def embed(self, texts: Sequence[str]) -> list[list[float]]: ...


def _retrying_post(url: str, payload: dict, headers: dict, sleep: Callable[[float], None]) -> dict:
    """POST with bounded retries: transport faults and rate limits only."""
    import requests  # imported on the first HTTP call: no other path needs it

    delay = BACKOFF_INITIAL
    last_error: Exception | None = None
    for attempt in range(1, MAX_ATTEMPTS + 1):
        try:
            response = requests.post(url, json=payload, headers=headers, timeout=HTTP_TIMEOUT_S)
        except requests.RequestException as exc:
            last_error = exc
            logger.warning("transport failure on %s (attempt %d/%d): %s", url, attempt, MAX_ATTEMPTS, exc)
        else:
            if response.status_code in RETRYABLE_STATUSES:
                last_error = TransportError(f"HTTP {response.status_code} from {url}")
                logger.warning("retryable status %d from %s (attempt %d/%d)", response.status_code, url, attempt, MAX_ATTEMPTS)
            elif response.status_code != 200:
                raise ProtocolError(f"HTTP {response.status_code} from {url}: {response.text[:200]}")
            else:
                try:
                    return response.json()
                except ValueError as exc:
                    raise ProtocolError(f"non-JSON response from {url}") from exc
        if attempt < MAX_ATTEMPTS:
            sleep(delay)
            delay *= 2
    raise TransportError(f"request to {url} failed after {MAX_ATTEMPTS} attempts: {last_error}")


def _headers(api_key_env: str) -> dict:
    headers = {"Content-Type": "application/json"}
    key = os.environ.get(api_key_env, "")
    if key:
        headers["Authorization"] = f"Bearer {key}"
    return headers


class HttpChatTransport:
    """JSON chat-completion endpoint (OpenAI-compatible wire shape)."""

    def __init__(self, base_url: str, api_key_env: str, sleep: Callable[[float], None] = time.sleep):
        self.base_url = base_url.rstrip("/")
        self.api_key_env = api_key_env
        self.sleep = sleep
        self.provider_id = f"http-chat:{self.base_url}"

    def complete(self, request: ChatRequest) -> str:
        payload = {
            "model": request.model_name,
            "messages": [{"role": "user", "content": message} for message in request.messages],
            "temperature": request.temperature,
            "max_tokens": MAX_OUTPUT_TOKENS,
        }
        if request.seed is not None:
            payload["seed"] = request.seed
        data = _retrying_post(f"{self.base_url}/chat/completions", payload, _headers(self.api_key_env), self.sleep)
        try:
            return data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError("chat response missing choices[0].message.content") from exc


class HttpEmbeddingTransport:
    """JSON embedding endpoint (OpenAI-compatible wire shape)."""

    def __init__(self, base_url: str, model_name: str, api_key_env: str, sleep: Callable[[float], None] = time.sleep):
        self.base_url = base_url.rstrip("/")
        self.model_name = model_name
        self.api_key_env = api_key_env
        self.sleep = sleep
        self.provider_id = f"http-embed:{self.base_url}:{model_name}"

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        payload = {"model": self.model_name, "input": list(texts)}
        data = _retrying_post(f"{self.base_url}/embeddings", payload, _headers(self.api_key_env), self.sleep)
        try:
            rows = sorted(data["data"], key=lambda row: row["index"])
            return [list(map(float, row["embedding"])) for row in rows]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError("embedding response missing data[].embedding") from exc


# ---------------------------------------------------------------------------
# Deterministic mock transports
# ---------------------------------------------------------------------------

_RELATION_VERBS = (
    "results in",
    "leads to",
    "progresses to",
    "contributes to",
    "accumulates in",
    "causes",
    "suppresses",
    "damages",
    "impairs",
    "alters",
    "supplies",
    "elevates",
    "reduces",
    "promotes",
    "triggers",
    "weakens",
    "disrupts",
    "stimulates",
    "produces",
    "increases",
    "compromises",
    "strains",
    "affects",
)

_TAGGED_LINE = re.compile(r"^\[([^|\]]+)\|s=(\d+)\|p=(\d+)\]\s*(.+)$")

_WORD = re.compile(r"[A-Za-z0-9]+|[一-鿿]")


def mock_extract_relations(sentence: str) -> tuple[str, str, str] | None:
    """Pattern-based relation reader the mock provider answers with.

    Returns (head, relation, tail) when the sentence states a single relation
    through one of the known verbs, mirroring what a real extraction model
    would be prompted to produce.
    """
    body = sentence.strip().rstrip(".。!?！？")
    lowered = body.lower()
    for verb in _RELATION_VERBS:
        idx = lowered.find(f" {verb} ")
        if idx > 0:
            head = body[:idx].strip()
            tail = body[idx + len(verb) + 2 :].strip()
            if head and tail and head.lower() != tail.lower():
                return head, verb, tail
    return None


class MockChatTransport:
    """Deterministic template-expansion chat provider.

    Recognizes each pipeline prompt by its sentinel line and expands a
    deterministic response from the prompt content and request seed, so full
    runs are reproducible with no network.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.provider_id = f"mock-chat:s{seed}"

    def complete(self, request: ChatRequest) -> str:
        text = "\n".join(request.messages)
        if prompts.TRIPLET_SENTINEL in text:
            return self._extract_triplets(text)
        if prompts.SUMMARY_SENTINEL in text:
            return self._summarize(text)
        if prompts.VIGNETTE_SENTINEL in text:
            return self._vignette(text, request.seed)
        if prompts.ADJUDICATION_SENTINEL in text:
            return self._adjudicate(text)
        if prompts.ANSWER_INSTRUCTION in text:
            return self._answer_mcq(text)
        return f"mock-response:{request_hash(self.provider_id, asdict(request))[:16]}"

    # -- handlers ----------------------------------------------------------

    def _extract_triplets(self, text: str) -> str:
        triplets = []
        for line in text.splitlines():
            match = _TAGGED_LINE.match(line.strip())
            if not match:
                continue
            chunk_id, sentence_index, _page, sentence = match.groups()
            relation = mock_extract_relations(sentence)
            if relation is None:
                continue
            head, verb, tail = relation
            triplets.append(
                {
                    "head": head,
                    "relation": verb,
                    "tail": tail,
                    "chunk_id": chunk_id,
                    "sentence_index": int(sentence_index),
                }
            )
        return json.dumps(triplets, ensure_ascii=False)

    def _summarize(self, text: str) -> str:
        _, _, passages = text.partition("Passages:")
        tokens = [t.lower() for t in _WORD.findall(passages) if len(t) > 3]
        counts: dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        top = sorted(counts, key=lambda t: (-counts[t], t))[:6]
        return "Overview of related passages covering " + ", ".join(top) + "."

    @staticmethod
    def _field(text: str, label: str) -> str:
        for line in text.splitlines():
            stripped = line.strip()
            if stripped.startswith(label):
                return stripped[len(label) :].strip()
        return ""

    def _vignette(self, text: str, seed: int | None) -> str:
        context = self._field(text, "- Presenting context:")
        bridge = self._field(text, "- Hidden mechanism (never name it in the question):")
        target = self._field(text, "- Expected downstream finding:")
        question = (
            f"A patient presents with findings of {context.lower()}. Through an "
            f"intermediate process that is not stated, which downstream finding "
            f"is most expected?"
        )
        # A small, deterministic slice of bridges always leaks into the
        # question (regeneration cannot fix those), and a seed-dependent slice
        # leaks only on some attempts (regeneration fixes those). Both paths
        # of the masking gate stay exercised.
        sticky_leak = derive_seed("sticky", bridge.lower()) % 29 == 0
        flaky_leak = derive_seed("flaky", str(seed), bridge.lower()) % 23 == 0
        if sticky_leak or flaky_leak:
            question = (
                f"A patient presents with findings of {context.lower()}. Given the "
                f"role of {bridge.lower()}, which downstream finding is most expected?"
            )
        rationale = (
            f"{context} sets off {bridge.lower()}, and {bridge.lower()} in turn "
            f"accounts for {target.lower()}; the sibling pathway explains the "
            f"distractor instead."
        )
        return json.dumps({"question": question, "rationale": rationale}, ensure_ascii=False)

    def _adjudicate(self, text: str) -> str:
        question = self._field(text, "Question:")
        tasks = (
            "Basic Medicine",
            "Clinical Diagnosis",
            "Clinical Treatment",
            "Pharmacy/Drug Safety",
            "Prevention/Epidemiology",
            "Medical Humanities",
        )
        # Task label depends only on the question so ensemble members mostly
        # agree; a provider-salted jitter dissents occasionally to keep the
        # majority vote non-trivial. Scores are provider-salted throughout.
        task_index = derive_seed("task", question) % len(tasks)
        if derive_seed("task-jitter", self.provider_id, question) % 7 == 0:
            task_index = (task_index + 1) % len(tasks)
        h = derive_seed("scores", self.provider_id, question)
        verdict = {
            "clinical_task": tasks[task_index],
            "reasoning_type": "Multi-hop",
            "clarity_score": 4 + (h >> 3) % 2,
            "validity_score": 4 + (h >> 4) % 2,
            "difficulty_score": 2 + (h >> 5) % 3,
        }
        payload = json.dumps(verdict, ensure_ascii=False)
        if h % 5 == 0:
            return f"Here is my assessment. {payload} Hope this helps."
        return payload

    def _answer_mcq(self, text: str) -> str:
        options = re.findall(r"^([A-Z])\. ", text, flags=re.MULTILINE)
        n = max(len(set(options)), 2)
        h = derive_seed("mcq", str(self.seed), text)
        return chr(ord("A") + h % n)


class MockEmbeddingTransport:
    """Seeded-hash bag-of-tokens embeddings, unit-normalized.

    A pure function of (text, seed): each token hashes to a fixed random
    direction and the text embeds to the normalized token sum, so texts that
    share vocabulary land near each other. Repeatable across processes.
    """

    def __init__(self, dimension: int, seed: int):
        if dimension < 2:
            raise ValidationError("mock embedding dimension must be >= 2")
        self.dimension = dimension
        self.seed = seed
        self.provider_id = f"mock-embed:d{dimension}:s{seed}"
        self._token_cache: dict[str, np.ndarray] = {}

    def _token_vector(self, token: str) -> np.ndarray:
        cached = self._token_cache.get(token)
        if cached is not None:
            return cached
        rng = np.random.default_rng(derive_seed("tok", str(self.seed), token))
        vector = rng.standard_normal(self.dimension)
        vector /= np.linalg.norm(vector)
        self._token_cache[token] = vector
        return vector

    def embed_one(self, text: str) -> list[float]:
        normalized = unicodedata.normalize("NFC", text).lower()
        tokens = _WORD.findall(normalized)
        if not tokens:
            tokens = [normalized]
        total = np.zeros(self.dimension)
        for token in tokens:
            total += self._token_vector(token)
        norm = np.linalg.norm(total)
        if norm < 1e-12:
            total = self._token_vector(normalized)
            norm = np.linalg.norm(total)
        return (total / norm).tolist()

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        return [self.embed_one(text) for text in texts]


# ---------------------------------------------------------------------------
# Services (validation + caching on top of a transport)
#
# ``ChatService.complete`` returns the reply text; ``EmbeddingService.embed_texts``
# returns an (n, d) float64 array whose row i embeds text i.
# ---------------------------------------------------------------------------


class ChatService:
    """Validated, optionally cached chat completion."""

    def __init__(self, transport: ChatTransport, cache: ResponseCache | None = None):
        self.transport = transport
        self.cache = cache

    def complete(self, request: ChatRequest) -> str:
        if self.cache is None:
            return self.transport.complete(request)
        key = request_hash(self.transport.provider_id, asdict(request))
        payload = self.cache.get(key)
        if payload is None:
            payload = self.transport.complete(request).encode("utf-8")
            self.cache.put(key, payload)
        return payload.decode("utf-8")


class EmbeddingService:
    """Validated, optionally cached batch embedding: each distinct text is
    sent once, in order of first occurrence, ``EMBED_BATCH`` distinct texts
    per request and per cache entry."""

    def __init__(self, transport: EmbeddingTransport, cache: ResponseCache | None = None):
        self.transport = transport
        self.cache = cache

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            raise ValidationError("embed_texts requires a non-empty batch")
        for i, text in enumerate(texts):
            if not text.strip():
                raise ValidationError(f"embed_texts: text {i} is empty after trim")
        row_of = {text: i for i, text in enumerate(dict.fromkeys(texts))}
        distinct = list(row_of)
        rows: list[list[float]] = []
        for start in range(0, len(distinct), EMBED_BATCH):
            rows.extend(self._embed_slice(distinct[start : start + EMBED_BATCH]))
        dimensions = {len(row) for row in rows}
        if len(dimensions) != 1:
            raise ProviderFaultError(f"embedding batch mixed dimensions: {sorted(dimensions)}")
        return np.asarray(rows, dtype=np.float64)[[row_of[text] for text in texts]]

    def _embed_slice(self, texts: Sequence[str]) -> list[list[float]]:
        if self.cache is None:
            rows = self.transport.embed(texts)
        else:
            key = request_hash(self.transport.provider_id, {"texts": list(texts)})
            payload = self.cache.get(key)
            if payload is None:
                payload = json.dumps(self.transport.embed(texts)).encode("utf-8")
                self.cache.put(key, payload)
            rows = json.loads(payload)
        if len(rows) != len(texts):
            raise ProviderFaultError(f"embedding batch returned {len(rows)} vectors for {len(texts)} texts")
        return rows


def parallel_map(fn, items: Sequence, max_workers: int = 1) -> list:
    """Order-preserving map with a bounded worker pool (1 = sequential)."""
    if max_workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=max_workers) as executor:
        return list(executor.map(fn, items))
