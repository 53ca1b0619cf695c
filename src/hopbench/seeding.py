"""Deterministic seed derivation.

Every stage and per-item RNG seed is derived from the master seed by hashing
``"<master>|<part>|<part>..."`` with SHA-256 and taking the first 8 bytes as a
big-endian unsigned integer. The rule is documented here so any other
implementation can reproduce the same streams.
"""

from __future__ import annotations

import hashlib


def derive_seed(master_seed: int | str, *parts: str) -> int:
    """Derive a child seed from the master seed and a label path. A string in
    the master's place hashes as itself, which is how the mock providers turn
    their labels into integers."""
    material = "|".join([str(master_seed), *parts])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stable_digest(data: bytes) -> str:
    """Hex SHA-256 of raw bytes."""
    return hashlib.sha256(data).hexdigest()


def stable_text_digest(text: str) -> str:
    """Hex SHA-256 of UTF-8 encoded text."""
    return stable_digest(text.encode("utf-8"))
