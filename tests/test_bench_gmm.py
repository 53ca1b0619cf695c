"""Micro-benchmarks of mixture fitting (pytest-benchmark). Marked ``bench``:
the default run deselects them; ``pytest -m bench`` runs them, and adding
``--benchmark-disable`` runs each once as a test. The sizes are those of the
``tree`` stage on a 2,160-sentence corpus: about 200 leaf chunks projected to
10 dimensions at level 1 and 47-49 nodes at the levels above."""

from __future__ import annotations

import numpy as np
import pytest

from hopbench.gmm import fit_gmm_em, search_cluster_count, soft_assign

pytestmark = pytest.mark.bench


def points(n: int, d: int = 10, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n, d))


def test_fit_gmm_em_fifty_components(benchmark):
    x = points(200)
    model, gamma = benchmark(fit_gmm_em, x, 50, 1)
    assert model.K == 50 and gamma.shape == (200, 50)


def test_search_cluster_count_level_two(benchmark):
    x = points(49)
    search = benchmark(search_cluster_count, x, K_max=48, seed=2, n_restarts=4)
    assert sorted(search.bic_by_k) == list(range(1, 49))


def test_search_cluster_count_level_one(benchmark):
    """As the tree runs it: a search this size spreads its K values over one
    worker per CPU."""
    x = points(198)
    search = benchmark(search_cluster_count, x, K_max=50, seed=1, n_restarts=4)
    assert sorted(search.bic_by_k) == list(range(1, 51))


def test_soft_assign(benchmark):
    x = points(200)
    model, _ = fit_gmm_em(x, 50, 1)
    gamma = benchmark(soft_assign, model, x)
    assert np.allclose(gamma.sum(axis=1), 1.0)
