from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from hopbench import gmm
from hopbench.errors import DegenerateFitError, ValidationError
from hopbench.gmm import (
    COVARIANCE_REGULARIZATION,
    GaussianMixture,
    _e_step,
    _log_gaussian,
    _logsumexp,
    _m_step,
    bic_score,
    fit_gmm_em,
    search_cluster_count,
    soft_assign,
)


def two_blobs(rng: np.random.Generator, separation: float = 8.0, n: int = 100, sigma: float = 0.01):
    a = rng.normal(0.0, sigma, size=(n, 2))
    b = rng.normal(0.0, sigma, size=(n, 2)) + separation
    return np.vstack([a, b])


def test_bic_formula_direct_evaluation():
    # ln L = -100, K = 3, N = 50 -> 200 + 3 ln 50
    assert bic_score(-100.0, 3, 50) == pytest.approx(200 + 3 * math.log(50), abs=1e-9)
    assert bic_score(-100.0, 3, 50) == pytest.approx(211.736, abs=1e-3)


def test_identical_points_single_component():
    x = np.tile([2.0, -1.0], (20, 1))
    model, gamma = fit_gmm_em(x, K=1, seed=0)
    assert np.allclose(model.means[0], [2.0, -1.0])
    assert np.allclose(model.covariances[0], COVARIANCE_REGULARIZATION * np.eye(2))
    assert np.allclose(gamma, 1.0)


def test_two_separated_blobs_recovered():
    rng = np.random.default_rng(0)
    x = two_blobs(rng)
    centroid_a = x[:100].mean(axis=0)
    centroid_b = x[100:].mean(axis=0)
    model, gamma = fit_gmm_em(x, K=2, seed=1)
    means = sorted(model.means.tolist())
    expected = sorted([centroid_a.tolist(), centroid_b.tolist()])
    assert np.allclose(means, expected, atol=1e-3)
    assert (gamma.max(axis=1) > 0.99).all()


def test_iteration_trace_monotone_on_random_data():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((60, 3))
        model, _ = fit_gmm_em(x, K=3, seed=seed)
        trace = model.iteration_trace
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))


def test_responsibilities_normalized():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((50, 2))
    _, gamma = fit_gmm_em(x, K=4, seed=7)
    assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-9)
    assert ((gamma >= 0) & (gamma <= 1)).all()


def test_weights_simplex_and_covariance_floor():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((80, 2))
    model, _ = fit_gmm_em(x, K=3, seed=11)
    assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)
    for cov in model.covariances:
        eigenvalues = np.linalg.eigvalsh(cov)
        assert eigenvalues.min() >= COVARIANCE_REGULARIZATION - 1e-12


def test_bic_recomputable_from_stored_fields():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 2))
    model, _ = fit_gmm_em(x, K=2, seed=3)
    assert model.bic == bic_score(model.log_likelihood, model.K, model.n_points)


def test_fewer_points_than_components_rejected():
    with pytest.raises(ValidationError):
        fit_gmm_em(np.zeros((2, 2)), K=3, seed=0)


def test_non_finite_points_rejected():
    x = np.array([[0.0, 1.0], [np.nan, 0.0]])
    with pytest.raises(ValidationError):
        fit_gmm_em(x, K=1, seed=0)


# Ground-truth generators for the selection tests use the regime the search
# actually runs in: projected-embedding clusters whose separation dwarfs the
# within-cluster spread. The component-count penalty only has to beat the
# near-zero likelihood gain of splitting a tight cluster.
BLOB_SIGMA = 5e-4


def test_select_cluster_count_three_blobs():
    rng = np.random.default_rng(100)
    centers = np.array([[0.0, 0.0], [8.0, 8.0], [16.0, 0.0]])
    x = np.vstack([rng.normal(0, BLOB_SIGMA, size=(200, 2)) + c for c in centers])
    search = search_cluster_count(x, K_max=6, seed=0, n_restarts=2)
    assert search.k_star == 3
    assert search.best.K == 3


def test_select_cluster_count_single_gaussian():
    rng = np.random.default_rng(200)
    x = rng.normal(0, BLOB_SIGMA, size=(300, 2))
    assert search_cluster_count(x, K_max=5, seed=0, n_restarts=2).k_star == 1


def test_search_records_full_bic_curve():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((60, 2))
    search = search_cluster_count(x, K_max=4, seed=0, n_restarts=1)
    assert sorted(search.bic_by_k) == [1, 2, 3, 4]
    assert search.bic_by_k[search.k_star] == min(search.bic_by_k.values())


def test_soft_assign_single_component_all_ones():
    x = np.random.default_rng(0).standard_normal((10, 2))
    model, _ = fit_gmm_em(x, K=1, seed=0)
    gamma = soft_assign(model, x)
    assert np.allclose(gamma, 1.0)


def test_soft_assign_point_at_far_component_mean():
    model = GaussianMixture(
        K=2,
        weights=np.array([0.5, 0.5]),
        means=np.array([[0.0, 0.0], [50.0, 50.0]]),
        covariances=np.array([np.eye(2), np.eye(2)]),
        covariance_type="full",
        log_likelihood=0.0,
        bic=0.0,
        iteration_trace=[0.0],
        n_points=2,
        converged=True,
        seed=0,
    )
    gamma = soft_assign(model, np.array([[0.0, 0.0]]))
    assert gamma[0, 0] > 0.99


def test_soft_assign_equidistant_symmetric_split():
    model = GaussianMixture(
        K=2,
        weights=np.array([0.5, 0.5]),
        means=np.array([[-1.0, 0.0], [1.0, 0.0]]),
        covariances=np.array([np.eye(2), np.eye(2)]),
        covariance_type="full",
        log_likelihood=0.0,
        bic=0.0,
        iteration_trace=[0.0],
        n_points=2,
        converged=True,
        seed=0,
    )
    gamma = soft_assign(model, np.array([[0.0, 5.0]]))
    assert gamma[0, 0] == pytest.approx(0.5, abs=1e-9)
    assert gamma[0, 1] == pytest.approx(0.5, abs=1e-9)


def test_soft_assign_dimension_mismatch_rejected():
    x = np.random.default_rng(0).standard_normal((10, 2))
    model, _ = fit_gmm_em(x, K=1, seed=0)
    with pytest.raises(ValidationError):
        soft_assign(model, np.zeros((3, 5)))


def test_diag_covariance_used_above_dimension_cap():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((50, 20))
    model, _ = fit_gmm_em(x, K=2, seed=1)
    assert model.covariance_type == "diag"
    assert model.covariances.shape == (2, 20)


def loop_log_gaussian(x, means, covariances, covariance_type):
    """Reference: the log-densities one component at a time."""
    n, d = x.shape
    out = np.empty((n, means.shape[0]))
    for j in range(means.shape[0]):
        diff = x - means[j]
        if covariance_type == "full":
            chol = np.linalg.cholesky(covariances[j])
            z = solve_triangular(chol, diff.T, lower=True)
            maha = np.sum(z * z, axis=0)
            log_det = 2.0 * np.sum(np.log(np.diag(chol)))
        else:
            maha = np.sum(diff * diff / covariances[j], axis=1)
            log_det = float(np.sum(np.log(covariances[j])))
        out[:, j] = -0.5 * (d * math.log(2 * math.pi) + log_det + maha)
    return out


def random_mixture(rng, k, d, covariance_type):
    means = rng.normal(0.0, 3.0, size=(k, d))
    weights = rng.dirichlet(np.ones(k))
    if covariance_type == "full":
        factors = rng.standard_normal((k, d, d))
        covariances = factors @ factors.transpose(0, 2, 1) / d + 0.05 * np.eye(d)
    else:
        covariances = rng.uniform(0.05, 2.0, size=(k, d))
    return weights, means, covariances


@pytest.mark.parametrize("covariance_type", ["full", "diag"])
@pytest.mark.parametrize("d", [10, 20])
def test_batched_densities_match_the_per_component_loop(covariance_type, d):
    rng = np.random.default_rng(d)
    x = rng.normal(0.0, 3.0, size=(120, d))
    weights, means, covariances = random_mixture(rng, 7, d, covariance_type)

    expected = loop_log_gaussian(x, means, covariances, covariance_type)
    np.testing.assert_allclose(_log_gaussian(x, means, covariances, covariance_type), expected, rtol=1e-12)

    weighted = expected + np.log(weights)
    norms = logsumexp(weighted, axis=1, keepdims=True)
    gamma, log_likelihood = _e_step(x, weights, means, covariances, covariance_type)
    # A responsibility far below 1 carries the rounding of its exponent (about
    # 1e-13 at -600) as relative error; on the probability scale it is nil.
    np.testing.assert_allclose(gamma, np.exp(weighted - norms), rtol=1e-12, atol=1e-15)
    assert log_likelihood == pytest.approx(float(np.sum(norms)), rel=1e-12)


def loop_m_step(x, gamma, mass, covariance_type):
    """Reference: the M-step one component at a time."""
    n, d = x.shape
    weights = mass / n
    weights = weights / weights.sum()
    means = (gamma.T @ x) / mass[:, None]
    covariances = []
    for j in range(gamma.shape[1]):
        diff = x - means[j]
        if covariance_type == "full":
            scatter = (gamma[:, j : j + 1] * diff).T @ diff
            covariances.append(scatter / mass[j] + COVARIANCE_REGULARIZATION * np.eye(d))
        else:
            scatter = np.sum(gamma[:, j : j + 1] * diff * diff, axis=0)
            covariances.append(scatter / mass[j] + COVARIANCE_REGULARIZATION)
    return weights, means, np.array(covariances)


@pytest.mark.parametrize("covariance_type", ["full", "diag"])
@pytest.mark.parametrize("d", [10, 20])
def test_batched_m_step_matches_the_per_component_loop(covariance_type, d):
    rng = np.random.default_rng(d + 1)
    x = rng.normal(0.0, 3.0, size=(120, d))
    gamma = rng.dirichlet(np.ones(7), size=120)
    mass = gamma.sum(axis=0)
    for ours, expected in zip(_m_step(x, gamma, mass, covariance_type), loop_m_step(x, gamma, mass, covariance_type)):
        np.testing.assert_allclose(ours, expected, rtol=1e-12)


def test_logsumexp_repeats_scipy_arithmetic():
    a = np.random.default_rng(9).normal(0.0, 30.0, size=(200, 50))
    a[:20, 7] = a[:20].max(axis=1)  # two terms tie at the maximum
    a[20:40] = 4.0  # every term ties
    assert np.array_equal(_logsumexp(a), logsumexp(a, axis=1, keepdims=True))


def test_non_positive_definite_covariance_names_the_first_bad_component():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 3))
    weights, means, covariances = random_mixture(rng, 4, 3, "full")
    covariances[2] = -np.eye(3)
    covariances[3] = np.zeros((3, 3))
    with pytest.raises(DegenerateFitError, match="component 2 covariance not positive definite"):
        _e_step(x, weights, means, covariances, "full")


def test_zero_variance_names_the_first_bad_component():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((30, 3))
    weights, means, covariances = random_mixture(rng, 4, 3, "diag")
    covariances[1, 2] = 0.0
    covariances[3, 0] = -1.0
    with pytest.raises(DegenerateFitError, match="component 1 has non-positive variance"):
        _e_step(x, weights, means, covariances, "diag")


def on_cpus(monkeypatch, cpus: set[int]) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: cpus, raising=False)


def test_pooled_search_equals_the_serial_search_bit_for_bit(monkeypatch, pools_started):
    x = np.random.default_rng(24).standard_normal((198, 10))  # a level-1 search: 50 K values, 4 restarts
    on_cpus(monkeypatch, {0})
    serial = search_cluster_count(x, K_max=50, seed=3, n_restarts=4)
    assert pools_started == []
    on_cpus(monkeypatch, {0, 1})
    pooled = search_cluster_count(x, K_max=50, seed=3, n_restarts=4)
    assert pools_started == [2]
    assert multiprocessing.active_children() == []
    assert pooled.k_star == serial.k_star
    assert list(pooled.bic_by_k.items()) == list(serial.bic_by_k.items())
    assert list(pooled.log_likelihood_by_k.items()) == list(serial.log_likelihood_by_k.items())
    assert np.array_equal(pooled.best.means, serial.best.means)
    assert np.array_equal(pooled.best.covariances, serial.best.covariances)
    assert pooled.best.iteration_trace == serial.best.iteration_trace
    assert np.array_equal(soft_assign(pooled.best, x), soft_assign(serial.best, x))


def test_a_fit_that_fails_in_a_worker_raises_in_the_caller(monkeypatch, pools_started):
    fit = gmm.fit_gmm_em

    def collapses_at_three(points, K, seed):
        if K == 3 and multiprocessing.parent_process() is not None:
            raise DegenerateFitError(f"component 0 collapsed at K={K}")
        return fit(points, K, seed)

    monkeypatch.setattr(gmm, "fit_gmm_em", collapses_at_three)  # before the fork: the workers inherit it
    on_cpus(monkeypatch, {0, 1})
    x = np.random.default_rng(25).standard_normal((40, 3))
    with pytest.raises(DegenerateFitError, match="collapsed at K=3"):
        search_cluster_count(x, K_max=6, seed=0, n_restarts=2)
    assert pools_started == [2]
    assert multiprocessing.active_children() == []


def test_a_search_pools_unless_it_has_one_cpu_or_one_k_value(monkeypatch, pools_started):
    rng = np.random.default_rng(26)
    toy_level = rng.standard_normal((6, 4))  # a toy-tree level
    # 600 points in 2 dimensions, as each of acceptance test 05's hundred searches.
    blobs = np.vstack([rng.normal(0, BLOB_SIGMA, size=(200, 2)) + c for c in ([0, 0], [8, 8], [16, 0])])
    on_cpus(monkeypatch, {0})
    search_cluster_count(toy_level, K_max=5, seed=0, n_restarts=4)
    search_cluster_count(blobs, K_max=6, seed=0, n_restarts=2)
    assert pools_started == []
    on_cpus(monkeypatch, {0, 1})
    assert search_cluster_count(blobs, K_max=1, seed=0, n_restarts=2).k_star == 1
    assert pools_started == []
    search_cluster_count(toy_level, K_max=5, seed=0, n_restarts=4)
    search_cluster_count(blobs, K_max=6, seed=0, n_restarts=2)
    search_cluster_count(toy_level[:2], K_max=5, seed=0, n_restarts=1)  # two points: K = 2 and 1
    assert pools_started == [2, 2, 2]
    assert multiprocessing.active_children() == []


def test_a_search_starts_one_worker_per_cpu_and_at_most_one_per_k_value(monkeypatch, pools_started):
    on_cpus(monkeypatch, {0, 1, 2, 3})
    x = np.random.default_rng(27).standard_normal((50, 10))
    search_cluster_count(x, K_max=10, seed=0, n_restarts=4)
    assert pools_started == [4]
    search_cluster_count(x, K_max=3, seed=0, n_restarts=14)
    search_cluster_count(x, K_max=2, seed=0, n_restarts=1)
    assert pools_started == [4, 3, 2]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["in-process", "pooled"])
def test_the_search_keeps_the_fit_of_its_winning_restart(monkeypatch, cpus):
    x = np.random.default_rng(1).standard_normal((60, 3))
    on_cpus(monkeypatch, cpus)
    search = search_cluster_count(x, K_max=6, seed=1, n_restarts=4)
    assert search.k_star == 5
    restarts = [fit_gmm_em(x, 5, seed=gmm._restart_seed(1, 5, r))[0] for r in range(4)]
    likelihoods = [model.log_likelihood for model in restarts]
    winner = likelihoods.index(max(likelihoods))  # the first restart with the highest likelihood
    assert winner == 2
    for field in dataclasses.fields(GaussianMixture):
        kept, fresh = getattr(search.best, field.name), getattr(restarts[winner], field.name)
        if isinstance(fresh, np.ndarray):
            assert kept.dtype == fresh.dtype and np.array_equal(kept, fresh), field.name
        else:
            assert kept == fresh, field.name
    assert search.bic_by_k[5] == search.best.bic
    assert search.log_likelihood_by_k[5] == search.best.log_likelihood
