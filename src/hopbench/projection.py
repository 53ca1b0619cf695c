"""Deterministic dimensionality reduction.

PCA computed by seeded orthogonal (power) iteration, so identical inputs and
seed give identical projections on any platform.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from .errors import ValidationError

POWER_ITERATIONS = 100
MAX_PAIRS = 2000


def reduce_dimensions(matrix: np.ndarray, target_dim: int, seed: int) -> np.ndarray:
    """Project the rows of an (N, d) embedding matrix to ``target_dim`` by
    PCA via orthogonal iteration with a seeded start and a fixed sign rule:
    (N, target_dim)."""
    if len(matrix) < 2:
        raise ValidationError("reduce_dimensions needs at least 2 vectors")
    if target_dim < 1:
        raise ValidationError("target_dim must be >= 1")
    d = matrix.shape[1]
    if target_dim >= d:
        raise ValidationError(f"target_dim {target_dim} must be < source dimension {d}")
    centered = matrix - matrix.mean(axis=0)
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((d, target_dim)))[0]
    for _ in range(POWER_ITERATIONS):
        # Covariance product without materializing the d x d matrix.
        basis = np.linalg.qr(centered.T @ (centered @ basis))[0]
    # Sign rule: largest-magnitude loading of each component is positive.
    for j in range(basis.shape[1]):
        pivot = int(np.argmax(np.abs(basis[:, j])))
        if basis[pivot, j] < 0:
            basis[:, j] = -basis[:, j]
    return centered @ basis


def distance_rank_correlation(source: np.ndarray, points: np.ndarray, seed: int) -> float:
    """Spearman correlation of pairwise distances between the rows of
    ``source`` before vs. after projection to ``points``.

    Reported as a projection-quality diagnostic; pairs are subsampled with a
    seeded RNG when there are more than ``MAX_PAIRS``.
    """
    if len(source) != len(points):
        raise ValidationError("vectors and points must align")
    n = len(source)
    if n < 3:
        return 1.0
    target = np.asarray(points, dtype=np.float64)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if len(pairs) > MAX_PAIRS:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(pairs), size=MAX_PAIRS, replace=False)
        pairs = [pairs[int(c)] for c in chosen]
    d_source = [float(np.linalg.norm(source[i] - source[j])) for i, j in pairs]
    d_target = [float(np.linalg.norm(target[i] - target[j])) for i, j in pairs]
    result = stats.spearmanr(d_source, d_target)
    coefficient = float(result.statistic)
    return coefficient if np.isfinite(coefficient) else 1.0
