from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from hopbench.align import (
    DEFAULT_THETA,
    SurfaceIndex,
    ThetaSchedule,
    damerau_levenshtein,
    fuzzy_merge,
    merge_signature,
)
from hopbench.corpus import normalize_for_match
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


def test_bounded_distance_is_the_full_distance_capped_above_the_limit():
    # Acceptance 06's strings: every string over "abc" up to length 6, in both
    # orientations, at every tolerance the default schedule uses. The table
    # compares letters for equality only, so renaming the letters of a pair
    # fills the same table and stops on the same row: only pairs whose letters
    # first appear in the order a, b, c are run (a sixth of all pairs).
    strings = [""]
    for length in range(1, 7):
        strings.extend("".join(p) for p in itertools.product("abc", repeat=length))

    def renamed(text: str) -> str:
        order = "".join(dict.fromkeys(text))
        return text.translate(str.maketrans(order, "abc"[: len(order)]))

    mismatches = []
    for s1 in strings:
        for s2 in strings:
            if renamed(s1 + s2) != s1 + s2:
                continue
            full = damerau_levenshtein(s1, s2)
            for limit in range(4):
                if damerau_levenshtein(s1, s2, limit=limit) != min(full, limit + 1):
                    mismatches.append((s1, s2, limit))
    assert not mismatches


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


# -- the merge veto ----------------------------------------------------------------


@pytest.mark.parametrize(
    "candidate, known",
    [
        ("type 1 diabetes", "type 2 diabetes"),
        ("IL-8", "IL-6"),
        ("hyperthyroidism", "hypothyroidism"),
        ("vitamin B6", "vitamin B12"),
        ("marker 13 level", "marker 12 level"),
        ("marker 7 level", "marker 12 level"),
    ],
)
def test_merge_veto_keeps_distinct_entities_apart(candidate, known):
    # Each pair is within the default tolerance of the other.
    tolerance = DEFAULT_THETA.theta(len(normalize_for_match(candidate)))
    assert damerau_levenshtein(normalize_for_match(candidate), normalize_for_match(known)) <= tolerance
    assert fuzzy_merge(candidate, {known: "e1"}) is None


def test_merge_veto_leaves_typos_that_keep_numbers_and_prefixes():
    assert fuzzy_merge("type 2 diabtes", {"type 2 diabetes": "e1"}) == "e1"
    assert fuzzy_merge("hypothyroidsm", {"hypothyroidism": "e1"}) == "e1"
    assert fuzzy_merge("anti-inflamatory drug", {"anti-inflammatory drug": "e1"}) == "e1"


def test_vetoed_surface_gives_way_to_the_next_best():
    # Both at distance 1; the name tie-break would pick e1, which the veto drops.
    vocab = {"type 1 diabetes": "e1", "type 2 diabetis": "e2"}
    assert fuzzy_merge("type 2 diabetes", vocab, canonical_names={"e1": "a", "e2": "b"}) == "e2"


def test_merge_signature_reads_digit_runs_and_word_prefixes():
    assert merge_signature("vitamin b12") == (("12",), ())
    assert merge_signature("post hyperkalemia pressure") == ((), ((0, "post"), (1, "hyper"), (2, "pre")))


# -- the index against a full scan ----------------------------------------------------


def brute_force_merge(candidate, vocabulary, theta_schedule, canonical_names):
    """The full scan: every known surface through the unbounded edit distance,
    with the merge veto. The oracle for the indexed ``fuzzy_merge``."""
    normalized = normalize_for_match(candidate)
    if not normalized:
        return None
    tolerance = theta_schedule.theta(len(normalized))
    best = None
    for surface, entity_id in vocabulary.items():
        target = normalize_for_match(surface)
        if abs(len(target) - len(normalized)) > tolerance:
            continue
        if merge_signature(target) != merge_signature(normalized):
            continue
        distance = damerau_levenshtein(normalized, target)
        if distance > tolerance:
            continue
        key = (distance, canonical_names.get(entity_id, entity_id), entity_id)
        if best is None or key < best:
            best = key
    return best[2] if best else None


# Short surfaces over few letters make equal distances common. "A" casefolds
# onto "a", and "á" (code point 225) shares a count column with "a" (97).
SURFACES = st.text(alphabet="ab1- Aá", max_size=9)
WIDE_THETA = ThetaSchedule(steps=((1, 0), (3, 1), (5, 2)), above=3)


@settings(max_examples=300, deadline=None)
@given(
    surfaces=st.lists(SURFACES, min_size=1, max_size=30),
    names=st.lists(st.sampled_from(["x", "y"]), min_size=30, max_size=30),
    schedule=st.sampled_from([DEFAULT_THETA, WIDE_THETA]),
)
def test_indexed_merge_equals_the_full_scan(surfaces, names, schedule):
    # Built as assembly builds it: a surface that merges becomes an alias of
    # the winner, any other a new entity. Entity names are drawn from two
    # values, so names tie, and ids do not follow insertion order.
    vocabulary: dict[str, str] = {}
    canonical_names: dict[str, str] = {}
    index = SurfaceIndex()
    for position, surface in enumerate(surfaces):
        expected = brute_force_merge(surface, vocabulary, schedule, canonical_names)
        assert fuzzy_merge(surface, index, schedule) == expected
        assert fuzzy_merge(surface, vocabulary, schedule, canonical_names) == expected
        if surface in vocabulary:
            continue
        entity_id = expected
        if entity_id is None:
            entity_id = f"e{position * 7 % 31:02d}"
            canonical_names[entity_id] = names[position]
        vocabulary[surface] = entity_id
        index.add(surface, entity_id, canonical_names[entity_id])
