"""Entity mention alignment: edit distance and length-scaled fuzzy merging
of surface variants onto known entities."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .corpus import normalize_for_match
from .errors import ValidationError


@dataclass(frozen=True)
class ThetaSchedule:
    """Edit-distance tolerance as a non-decreasing step function of length."""

    steps: tuple[tuple[int, int], ...] = ((3, 0), (7, 1), (12, 2))
    above: int = 3

    def __post_init__(self):
        last_limit = 0
        last_tol = -1
        for limit, tolerance in self.steps:
            if limit <= last_limit:
                raise ValidationError("theta schedule limits must strictly increase")
            if tolerance < last_tol:
                raise ValidationError("theta schedule tolerances must be non-decreasing")
            last_limit, last_tol = limit, tolerance
        if self.above < last_tol:
            raise ValidationError("theta above-tolerance must not decrease")

    def theta(self, length: int) -> int:
        for limit, tolerance in self.steps:
            if length <= limit:
                return tolerance
        return self.above


DEFAULT_THETA = ThetaSchedule()


# Characters are counted in ord(c) % _COLUMNS columns. A collision only adds
# two characters' counts together, which can lower the bag distance but never
# raise it, so the bag distance stays a lower bound on the edit distance.
_COLUMNS = 128
_DIGIT_RUNS = re.compile(r"\d+")
POLARITY_PREFIXES = ("hyper", "hypo", "post", "pre", "anti")


def damerau_levenshtein(s1: str, s2: str, limit: int | None = None) -> int:
    """Optimal string alignment distance: unit-cost insert, delete,
    substitute, and adjacent transposition (no re-edit after a swap).

    With ``limit``, every distance above it is returned as ``limit + 1``, and
    the table stops at the first row whose cells all exceed the limit. No
    later cell can come back under it: each of its sources lies in that row
    or after it, except a transposition's, which is two rows up, and that
    cell plus one is at least the cell diagonally below it, in the row over
    the limit."""
    m, n = len(s1), len(s2)
    if limit is not None and abs(m - n) > limit:
        return limit + 1
    if m == 0:
        return n
    if n == 0:
        return m
    previous2 = [0] * (n + 1)
    previous = list(range(n + 1))
    for i in range(1, m + 1):
        current = [i] + [0] * n
        for j in range(1, n + 1):
            cost = 0 if s1[i - 1] == s2[j - 1] else 1
            current[j] = min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            if i > 1 and j > 1 and s1[i - 1] == s2[j - 2] and s1[i - 2] == s2[j - 1]:
                current[j] = min(current[j], previous2[j - 2] + 1)
        if limit is not None and min(current) > limit:
            return limit + 1
        previous2, previous = previous, current
    return previous[n] if limit is None else min(previous[n], limit + 1)


def merge_signature(normalized: str) -> tuple[tuple[str, ...], tuple[tuple[int, str], ...]]:
    """What two surfaces must share to merge: their digit runs, and the
    polarity prefix (``POLARITY_PREFIXES``) of each word that carries one.
    "type 1 diabetes" and "type 2 diabetes", or "hyperthyroidism" and
    "hypothyroidism", are close in edit distance but name distinct entities."""
    polarity = []
    for position, word in enumerate(normalized.split()):
        prefix = next((p for p in POLARITY_PREFIXES if word.startswith(p)), None)
        if prefix is not None:
            polarity.append((position, prefix))
    return tuple(_DIGIT_RUNS.findall(normalized)), tuple(polarity)


def _char_counts(text: str) -> np.ndarray:
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    return np.bincount(codes % _COLUMNS, minlength=_COLUMNS)


class SurfaceIndex:
    """Known surfaces, added one at a time, with what a fuzzy-merge query
    needs to skip most of them without an edit distance.

    Each row holds a normalized surface, its entity id, the entity's
    canonical name, the surface's length and its character counts. A query
    computes the bag distance ``max(sum (a - b)+, sum (b - a)+)`` of the
    counts in one pass over the rows within tolerance of its length. The bag
    distance is a lower bound on the optimal-string-alignment distance (an
    insert, delete or substitute changes it by at most 1, a transposition by
    0), so no row it rules out could have matched. Unlike a BK-tree, this
    relies on no triangle inequality, which the alignment distance breaks."""

    def __init__(self) -> None:
        self._rows: list[tuple[str, str, str]] = []  # (normalized surface, entity id, name)
        self._lengths = np.zeros(64, dtype=np.int64)
        self._counts = np.zeros((64, _COLUMNS), dtype=np.int32)

    def add(self, surface: str, entity_id: str, name: str) -> None:
        normalized = normalize_for_match(surface)
        row = len(self._rows)
        if row == len(self._lengths):
            self._lengths = np.concatenate([self._lengths, np.zeros_like(self._lengths)])
            self._counts = np.concatenate([self._counts, np.zeros_like(self._counts)])
        self._lengths[row] = len(normalized)
        self._counts[row] = _char_counts(normalized)
        self._rows.append((normalized, entity_id, name))

    def within_bag_distance(self, normalized: str, tolerance: int) -> list[tuple[str, str, str]]:
        """Rows whose bag distance to ``normalized`` is at most ``tolerance``,
        in the order they were added."""
        size = len(self._rows)
        length = len(normalized)
        rows = np.flatnonzero(np.abs(self._lengths[:size] - length) <= tolerance)
        if rows.size:
            # Counts sum to lengths, so for a row r and the query q,
            # sum (q - r)+ = sum (r - q)+ + len(q) - len(r): the larger of the
            # two sums is one clipped sum plus max(0, len(q) - len(r)).
            excess = np.maximum(self._counts[rows] - _char_counts(normalized), 0).sum(axis=1)
            bag = excess + np.maximum(length - self._lengths[rows], 0)
            rows = rows[bag <= tolerance]
        return [self._rows[row] for row in rows]


def fuzzy_merge(
    candidate: str,
    vocabulary: Mapping[str, str] | SurfaceIndex,
    theta_schedule: ThetaSchedule = DEFAULT_THETA,
    canonical_names: Mapping[str, str] | None = None,
) -> str | None:
    """Map a candidate surface onto the closest known entity within tolerance.

    ``vocabulary`` is a ``SurfaceIndex``, or a surface -> entity id mapping
    indexed on the call, its entities named by ``canonical_names`` or else
    by their ids (an index carries its own names). Tolerance scales with the
    candidate's length per the schedule. A surface whose ``merge_signature``
    differs from the candidate's is never a match. Ties break by smaller
    distance, then lexicographic canonical name, then entity id. Returns
    None when nothing qualifies.
    """
    normalized = normalize_for_match(candidate)
    if not normalized:
        return None
    if not isinstance(vocabulary, SurfaceIndex):
        index, names = SurfaceIndex(), canonical_names or {}
        for surface, entity_id in vocabulary.items():
            index.add(surface, entity_id, names.get(entity_id, entity_id))
        vocabulary = index
    tolerance = theta_schedule.theta(len(normalized))
    signature = merge_signature(normalized)
    best: tuple[int, str, str] | None = None
    for target, entity_id, name in vocabulary.within_bag_distance(normalized, tolerance):
        if merge_signature(target) != signature:
            continue
        distance = damerau_levenshtein(normalized, target, limit=tolerance)
        if distance > tolerance:
            continue
        key = (distance, name, entity_id)
        if best is None or key < best:
            best = key
    return best[2] if best else None
