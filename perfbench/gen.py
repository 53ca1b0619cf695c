"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its arguments and seed, and nothing
here imports the program: the generators are the ground truth the checks
compare the program's artifacts against.

Entity names are random syllable words whose pairwise bag distance is above
the largest fuzzy-merge tolerance, so the aligner has no legitimate merge to
make. Ordinary entities live in one document each; hub entities are
mentioned in many chunks across documents, so their frequency lands far above
k while ordinary entities stay far below it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

CONSONANTS = "bcdfghjklmnprstvwz"
VOWELS = "aeiou"
SYLLABLES_PER_WORD = 4
# Verbs the mock chat provider reads a relation from; each sentence states one.
VERBS = ("causes", "suppresses", "elevates", "reduces", "triggers", "impairs")
HUB_VERBS = ("alters", "affects")
# Fuzzy merging tolerates at most 3 edits under the default schedule. The bag
# distance is a lower bound on the edit distance, so names at bag distance 4
# or more cannot merge.
MIN_BAG_DISTANCE = 4


def _random_name(rng: random.Random) -> str:
    return " ".join(
        "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(SYLLABLES_PER_WORD))
        for _ in range(2)
    )


def _bag(name: str) -> np.ndarray:
    bag = np.zeros(26, dtype=np.int16)
    for ch in name.replace(" ", ""):
        bag[ord(ch) - ord("a")] += 1
    return bag


def bag_distance(a: str, b: str) -> int:
    """max(|A - B|, |B - A|) over character multisets: a lower bound on the
    optimal-string-alignment distance."""
    diff = _bag(a) - _bag(b)
    return int(max(np.clip(diff, 0, None).sum(), np.clip(-diff, 0, None).sum()))


def entity_names(count: int, rng: random.Random) -> list[str]:
    """``count`` two-word lowercase names, pairwise at bag distance
    ``MIN_BAG_DISTANCE`` or more."""
    names: list[str] = []
    bags = np.zeros((count, 26), dtype=np.int16)
    while len(names) < count:
        name = _random_name(rng)
        bag = _bag(name)
        diff = bags[: len(names)] - bag
        distance = np.maximum(np.clip(diff, 0, None).sum(axis=1), np.clip(-diff, 0, None).sum(axis=1))
        if not names or distance.min() >= MIN_BAG_DISTANCE:
            bags[len(names)] = bag
            names.append(name)
    return names


Triple = tuple[str, str, str]  # (head name, verb, tail name)


@dataclass
class Corpus:
    """Documents as chunks of relation sentences, and the truth they state."""

    documents: dict[str, list[list[Triple]]]  # doc id -> chunks -> sentences
    hubs: list[str]

    def triples(self) -> set[Triple]:
        return {t for chunks in self.documents.values() for chunk in chunks for t in chunk}

    def write_text(self, directory) -> list[str]:
        """One text file per document, named by doc id; returns the paths."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for doc_id, chunks in sorted(self.documents.items()):
            path = directory / f"{doc_id}.txt"
            path.write_text(" ".join(sentence(t) for chunk in chunks for t in chunk) + "\n", encoding="utf-8")
            paths.append(str(path))
        return paths


def sentence(triple: Triple) -> str:
    return f"{triple[0]} {triple[1]} {triple[2]}."


def make_corpus(
    seed: int,
    n_docs: int,
    entities_per_doc: int,
    chunks_per_doc: int,
    sentences_per_chunk: int,
    hub_mentions: list[int],
) -> Corpus:
    """Relation sentences over disjoint per-document entity groups. Hub ``h``
    is mentioned once in each of ``hub_mentions[h]`` distinct chunks, beside
    an ordinary entity of that chunk's document."""
    rng = random.Random(seed)
    names = entity_names(n_docs * entities_per_doc + len(hub_mentions), rng)
    hubs, ordinary = names[: len(hub_mentions)], names[len(hub_mentions) :]
    documents: dict[str, list[list[Triple]]] = {}
    groups: dict[str, list[str]] = {}
    for d in range(n_docs):
        doc_id = f"doc{d:04d}"
        group = ordinary[d * entities_per_doc : (d + 1) * entities_per_doc]
        pairs = [(h, t) for h in group for t in group if h != t]
        rng.shuffle(pairs)
        chunks = []
        for c in range(chunks_per_doc):
            chunk = []
            for s in range(sentences_per_chunk):
                head, tail = pairs[(c * sentences_per_chunk + s) % len(pairs)]
                chunk.append((head, rng.choice(VERBS), tail))
            chunks.append(chunk)
        documents[doc_id] = chunks
        groups[doc_id] = group
    slots = [(doc_id, c) for doc_id in sorted(documents) for c in range(chunks_per_doc)]
    for hub, mentions in zip(hubs, hub_mentions):
        for doc_id, c in rng.sample(slots, mentions):
            member = rng.choice(groups[doc_id])
            triple = (member, rng.choice(HUB_VERBS), hub)
            if rng.random() < 0.5:
                triple = (hub, triple[1], member)
            chunk = documents[doc_id][c]
            chunk.insert(rng.randrange(len(chunk) + 1), triple)
    return Corpus(documents=documents, hubs=hubs)


@dataclass
class Item:
    """One multiple-choice item with the chain it was built from."""

    source: str
    bridge: str
    target: str
    hard_negative: str
    options: list[str]
    answer_index: int
    hard_negative_index: int
    difficulty: str
    sentences: list[Triple] = field(default_factory=list)  # hop1, hop2, sibling hop1, sibling hop2


def make_items(seed: int, n_items: int, n_names: int, n_options: int = 4) -> list[Item]:
    """Items over a shared name pool, every options block distinct (the mock
    answering models find an item by its options block)."""
    rng = random.Random(seed)
    pool: set[str] = set()
    while len(pool) < n_names:
        pool.add(_random_name(rng))
    names = sorted(pool)
    items: list[Item] = []
    blocks: set[tuple[str, ...]] = set()
    while len(items) < n_items:
        source, bridge, target, sibling, hard_negative, *fillers = rng.sample(names, 3 + n_options)
        option_names = [target, hard_negative, *fillers]
        order = list(range(n_options))
        rng.shuffle(order)
        options = [option_names[i] for i in order]
        if tuple(options) in blocks:
            continue
        blocks.add(tuple(options))
        items.append(
            Item(
                source=source,
                bridge=bridge,
                target=target,
                hard_negative=hard_negative,
                options=options,
                answer_index=options.index(target),
                hard_negative_index=options.index(hard_negative),
                difficulty=rng.choice(("easy", "hard")),
                sentences=[
                    (source, rng.choice(VERBS), bridge),
                    (bridge, rng.choice(VERBS), target),
                    (source, rng.choice(VERBS), sibling),
                    (sibling, rng.choice(VERBS), hard_negative),
                ],
            )
        )
    return items
