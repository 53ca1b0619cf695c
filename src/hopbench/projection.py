"""Deterministic dimensionality reduction.

PCA computed by seeded orthogonal (power) iteration, so identical inputs and
seed give identical projections on any platform. The distance rank
correlation that grades a projection is Spearman's rho computed in numpy with
the arithmetic of ``scipy.stats.spearmanr`` (average ranks for ties, then
``np.corrcoef``), so it equals scipy's value bit for bit without importing
``scipy.stats``.
"""

from __future__ import annotations

import numpy as np

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


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``, ties given the mean of their ranks (the
    ``"average"`` method of ``scipy.stats.rankdata``)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(np.append(starts, len(values)))
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2, counts)
    return ranks


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman's rho of two equal-length samples, as ``spearmanr`` computes
    it: the Pearson correlation of their average ranks, element ``[1, 0]`` of
    ``np.corrcoef`` (``[0, 1]`` can differ in the last bit). NaN when a
    sample is constant or holds a NaN."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if (a == a[0]).all() or (b == b[0]).all() or np.isnan(a).any() or np.isnan(b).any():
        return float("nan")
    ranks = np.column_stack([_average_ranks(a), _average_ranks(b)])
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def distance_rank_correlation(source: np.ndarray, points: np.ndarray, seed: int) -> float:
    """Spearman correlation of pairwise distances between the rows of
    ``source`` before vs. after projection to ``points``.

    Reported as a projection-quality diagnostic; pairs are subsampled with a
    seeded RNG when there are more than ``MAX_PAIRS``. 1.0 for fewer than
    three rows and when either side's distances are all equal.
    """
    if len(source) != len(points):
        raise ValidationError("vectors and points must align")
    n = len(source)
    if n < 3:
        return 1.0
    target = np.asarray(points, dtype=np.float64)
    rows, cols = np.triu_indices(n, 1)  # every pair i < j, in row-major order
    if len(rows) > MAX_PAIRS:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(rows), size=MAX_PAIRS, replace=False)
        rows, cols = rows[chosen], cols[chosen]
    pairs = list(zip(rows.tolist(), cols.tolist()))
    d_source = [float(np.linalg.norm(source[i] - source[j])) for i, j in pairs]
    d_target = [float(np.linalg.norm(target[i] - target[j])) for i, j in pairs]
    coefficient = spearman(np.array(d_source), np.array(d_target))
    return coefficient if np.isfinite(coefficient) else 1.0
