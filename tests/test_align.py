from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from hopbench.align import DEFAULT_THETA, ThetaSchedule, damerau_levenshtein, fuzzy_merge
from hopbench.errors import ValidationError


# -- exhaustive recursive oracle for the alignment distance --------------------


def oracle_distance(s1: str, s2: str) -> int:
    """Brute-force optimal string alignment by recursion over edit choices."""

    def rec(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        best = min(
            rec(i - 1, j) + 1,  # delete
            rec(i, j - 1) + 1,  # insert
            rec(i - 1, j - 1) + (0 if s1[i - 1] == s2[j - 1] else 1),  # substitute
        )
        if i > 1 and j > 1 and s1[i - 1] == s2[j - 2] and s1[i - 2] == s2[j - 1]:
            best = min(best, rec(i - 2, j - 2) + 1)  # adjacent transposition
        return best

    return rec(len(s1), len(s2))


def test_adjacent_transposition_costs_one():
    assert damerau_levenshtein("ca", "ac") == 1


def test_identity_distance_zero():
    assert damerau_levenshtein("abc", "abc") == 0


def test_kitten_sitting_matches_oracle():
    assert oracle_distance("kitten", "sitting") == 3
    assert damerau_levenshtein("kitten", "sitting") == 3


def test_distance_matches_oracle_on_short_pairs():
    rng = random.Random(0)
    alphabet = "abc"
    for _ in range(300):
        s1 = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 5)))
        s2 = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 5)))
        assert damerau_levenshtein(s1, s2) == oracle_distance(s1, s2)


@settings(max_examples=150)
@given(st.text(alphabet="abcd", max_size=8), st.text(alphabet="abcd", max_size=8))
def test_distance_symmetric_and_bounded(s1, s2):
    d = damerau_levenshtein(s1, s2)
    assert d == damerau_levenshtein(s2, s1)
    assert d <= max(len(s1), len(s2))
    if s1 == s2:
        assert d == 0
    else:
        assert d >= 1


def test_osa_triangle_violations_are_detected_not_hidden():
    # The canonical counterexample: d(ca,abc)=3 under optimal string
    # alignment, but d(ca,ac)+d(ac,abc)=2. The variant stays (it matches the
    # published edit set), so the distance is not a metric.
    assert damerau_levenshtein("ca", "abc") == 3
    assert damerau_levenshtein("ca", "ac") + damerau_levenshtein("ac", "abc") == 2


# -- length-scaled fuzzy merge ---------------------------------------------------


def test_theta_schedule_steps():
    assert DEFAULT_THETA.theta(3) == 0
    assert DEFAULT_THETA.theta(7) == 1
    assert DEFAULT_THETA.theta(12) == 2
    assert DEFAULT_THETA.theta(13) == 3


def test_theta_schedule_rejects_decreasing():
    with pytest.raises(ValidationError):
        ThetaSchedule(steps=((3, 2), (7, 1)))


def test_fuzzy_merge_typo_within_tolerance():
    # "diabtes" (length 7, tolerance 1) merges into "diabetes" at distance 1.
    assert damerau_levenshtein("diabtes", "diabetes") == 1
    assert fuzzy_merge("diabtes", {"diabetes": "e1"}) == "e1"


def test_fuzzy_merge_out_of_tolerance_returns_none():
    assert fuzzy_merge("xyz", {"diabetes": "e1"}) is None


def test_fuzzy_merge_exact_match():
    assert fuzzy_merge("diabetes", {"diabetes": "e1", "diabetic": "e2"}) == "e1"


def test_fuzzy_merge_tie_breaks_by_name_then_id():
    vocab = {"abcdef": "e1", "abcdeg": "e2"}
    # candidate at distance 1 from both: lexicographic canonical name
    assert fuzzy_merge("abcdex", vocab, canonical_names={"e1": "zeta", "e2": "alpha"}) == "e2"
    # equal names: entity id
    assert fuzzy_merge("abcdex", vocab, canonical_names={"e1": "same", "e2": "same"}) == "e1"
    # a smaller distance wins over any name
    assert fuzzy_merge("abcdeg", vocab, canonical_names={"e1": "alpha", "e2": "zeta"}) == "e2"
