from __future__ import annotations

import itertools

import numpy as np
import pytest

from hopbench.errors import ValidationError
from hopbench.projection import distance_rank_correlation, reduce_dimensions


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
