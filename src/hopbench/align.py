"""Entity mention alignment: edit distance and length-scaled fuzzy merging
of surface variants onto known entities."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

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


def damerau_levenshtein(s1: str, s2: str) -> int:
    """Optimal string alignment distance: unit-cost insert, delete,
    substitute, and adjacent transposition (no re-edit after a swap)."""
    m, n = len(s1), len(s2)
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
        previous2, previous = previous, current
    return previous[n]


def fuzzy_merge(
    candidate: str,
    vocabulary: Mapping[str, str],
    theta_schedule: ThetaSchedule = DEFAULT_THETA,
    canonical_names: Mapping[str, str] | None = None,
) -> str | None:
    """Map a candidate surface onto the closest known entity within tolerance.

    Tolerance scales with the candidate's length per the schedule. Ties break
    by smaller distance, then lexicographic canonical name, then entity id.
    Returns None when nothing qualifies.
    """
    normalized = normalize_for_match(candidate)
    if not normalized:
        return None
    tolerance = theta_schedule.theta(len(normalized))
    best: tuple[int, str, str] | None = None
    for surface, entity_id in vocabulary.items():
        target = normalize_for_match(surface)
        if abs(len(target) - len(normalized)) > tolerance:
            continue
        distance = damerau_levenshtein(normalized, target)
        if distance > tolerance:
            continue
        name = (canonical_names or {}).get(entity_id, entity_id)
        key = (distance, name, entity_id)
        if best is None or key < best:
            best = key
    return best[2] if best else None
