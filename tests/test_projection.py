from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest
from scipy import stats

from hopbench.errors import ValidationError
from hopbench.projection import MAX_PAIRS, distance_rank_correlation, reduce_dimensions, spearman


def test_identical_inputs_project_identically():
    matrix = np.tile([0.3, 0.4, 0.5, 0.6], (4, 1))
    points = reduce_dimensions(matrix, target_dim=2, seed=1)
    for row in points[1:]:
        assert np.allclose(row, points[0])


def test_orthonormal_triple_keeps_equal_pairwise_distances():
    # Three orthonormal vectors form a regular 2-simplex; that plane is the
    # top-2 principal subspace, so the projection is an isometry of the
    # configuration: every pairwise distance equals sqrt(2).
    matrix = np.eye(3)
    points = reduce_dimensions(matrix, target_dim=2, seed=0)
    distances = [
        float(np.linalg.norm(points[i] - points[j]))
        for i, j in itertools.combinations(range(3), 2)
    ]
    assert np.allclose(distances, np.sqrt(2.0), atol=1e-9)


def test_target_dim_equal_to_source_rejected():
    matrix = np.random.default_rng(0).standard_normal((5, 4))
    with pytest.raises(ValidationError):
        reduce_dimensions(matrix, target_dim=4, seed=0)


def test_fewer_than_two_vectors_rejected():
    matrix = np.ones((1, 4))
    with pytest.raises(ValidationError):
        reduce_dimensions(matrix, target_dim=2, seed=0)


def test_projection_deterministic_across_instances():
    matrix = np.random.default_rng(42).standard_normal((20, 8))
    first = reduce_dimensions(matrix, target_dim=3, seed=9)
    second = reduce_dimensions(matrix, target_dim=3, seed=9)
    assert first.shape == (20, 3)
    assert first.tobytes() == second.tobytes()


def test_projection_recovers_planted_subspace():
    # Data generated in a planted 2-D subspace of R^8 plus tiny noise: the
    # projection must preserve pairwise distances almost exactly.
    rng = np.random.default_rng(3)
    basis, _ = np.linalg.qr(rng.standard_normal((8, 2)))
    coords = rng.standard_normal((40, 2)) * [3.0, 1.5]
    matrix = coords @ basis.T + rng.standard_normal((40, 8)) * 1e-8
    projected = reduce_dimensions(matrix, target_dim=2, seed=0)
    for i, j in itertools.combinations(range(10), 2):
        original = np.linalg.norm(matrix[i] - matrix[j])
        mapped = np.linalg.norm(projected[i] - projected[j])
        assert abs(original - mapped) < 1e-6


def test_rank_correlation_is_one_for_isometric_projection():
    rng = np.random.default_rng(5)
    basis, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    matrix = rng.standard_normal((15, 2)) @ basis.T
    points = reduce_dimensions(matrix, target_dim=2, seed=0)
    assert distance_rank_correlation(matrix, points, seed=0) == pytest.approx(1.0)


def test_projector_validates_target_dim():
    matrix = np.random.default_rng(0).standard_normal((5, 4))
    with pytest.raises(ValidationError):
        reduce_dimensions(matrix, target_dim=0, seed=0)


# -- Spearman's rho against scipy, bit for bit ----------------------------------


def scipy_spearman(a, b) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", stats.ConstantInputWarning)
        return float(stats.spearmanr(a, b).statistic)


def scipy_distance_rank_correlation(source, points, seed) -> float:
    """The reference: the same pairs and distances, ranked by ``scipy.stats``."""
    n = len(source)
    if n < 3:
        return 1.0
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if len(pairs) > MAX_PAIRS:
        chosen = np.random.default_rng(seed).choice(len(pairs), size=MAX_PAIRS, replace=False)
        pairs = [pairs[int(c)] for c in chosen]
    d_source = [float(np.linalg.norm(source[i] - source[j])) for i, j in pairs]
    d_target = [float(np.linalg.norm(points[i] - points[j])) for i, j in pairs]
    coefficient = scipy_spearman(d_source, d_target)
    return coefficient if np.isfinite(coefficient) else 1.0


def same_float(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.parametrize("ties", [False, True])
def test_spearman_is_scipys_bit_for_bit(ties):
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(2, 200))
        if ties:
            a, b = rng.integers(0, 6, n).astype(float), rng.integers(0, 6, n).astype(float)
        else:
            a, b = rng.standard_normal(n), rng.standard_normal(n)
        expected = scipy_spearman(a, b)
        got = spearman(a, b)
        assert same_float(got, expected) or np.isnan(got) and np.isnan(expected), (n, got, expected)


def test_spearman_is_nan_where_scipys_is():
    for a, b in ([[1.0], [2.0]], [[3.0, 3.0, 3.0], [1.0, 2.0, 3.0]], [[1.0, np.nan, 3.0], [1.0, 2.0, 3.0]]):
        assert np.isnan(spearman(a, b)) and np.isnan(scipy_spearman(a, b))


@pytest.mark.parametrize("n", [30, 63, 64, 90])  # 435 and 1,953 pairs; 2,016 and 4,005 are subsampled
@pytest.mark.parametrize("ties", [False, True])
def test_distance_rank_correlation_is_scipys_bit_for_bit(n, ties):
    rng = np.random.default_rng(n)
    for seed in range(3):
        if ties:  # integer grid points: many pairs at equal distances on both sides
            source = rng.integers(0, 4, (n, 5)).astype(float)
            points = source[:, :2] + rng.integers(0, 2, (n, 2))
        else:
            source = rng.standard_normal((n, 8))
            points = reduce_dimensions(source, target_dim=2, seed=seed)
        expected = scipy_distance_rank_correlation(source, points, seed)
        assert same_float(distance_rank_correlation(source, points, seed), expected)


def test_distance_rank_correlation_is_one_for_few_rows_and_constant_distances():
    rng = np.random.default_rng(2)
    for n in (0, 1, 2):
        source = rng.standard_normal((n, 4))
        assert distance_rank_correlation(source, source[:, :2], seed=0) == 1.0
    same_rows = np.ones((5, 4))
    assert distance_rank_correlation(same_rows, rng.standard_normal((5, 2)), seed=0) == 1.0
    assert scipy_distance_rank_correlation(same_rows, rng.standard_normal((5, 2)), seed=0) == 1.0
    # the rows of the identity are all sqrt(2) apart
    points = rng.standard_normal((3, 1))
    assert distance_rank_correlation(np.eye(3), points, seed=0) == 1.0
    assert scipy_distance_rank_correlation(np.eye(3), points, seed=0) == 1.0
