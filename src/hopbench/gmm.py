"""Gaussian mixture fitting by EM with information-criterion model selection.

The mixture objective is the data log-likelihood under component weights,
means, and covariances; EM alternates posterior responsibilities (E-step)
with weighted parameter recalibration (M-step) and is monotone in the
objective. The component count is chosen by minimizing
``-2 ln(L) + K ln(N)`` over a capped search range, ties toward smaller K.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from .errors import DegenerateFitError, ValidationError
from .seeding import derive_seed

logger = logging.getLogger(__name__)

COVARIANCE_REGULARIZATION = 1e-6
CONVERGENCE_TOL = 1e-7
MAX_ITERATIONS = 300
FULL_COVARIANCE_MAX_DIM = 16


@dataclass
class GaussianMixture:
    K: int
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray  # (K, d, d) for full, (K, d) for diag
    covariance_type: str
    log_likelihood: float
    bic: float
    iteration_trace: list[float]
    n_points: int
    converged: bool
    seed: int


@dataclass
class SoftAssignment:
    gamma: np.ndarray  # (N, K), rows sum to 1


@dataclass
class ClusterSearch:
    k_star: int
    best: GaussianMixture
    bic_by_k: dict[int, float] = field(default_factory=dict)
    log_likelihood_by_k: dict[int, float] = field(default_factory=dict)


def bic_score(log_likelihood: float, k: int, n: int) -> float:
    """Penalized objective: -2 ln(L) + K ln(N)."""
    return -2.0 * log_likelihood + k * math.log(n)


def _as_matrix(points) -> np.ndarray:
    matrix = np.asarray(points, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValidationError("points must form an (N, d) matrix")
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("points must be finite")
    return matrix


def _log_gaussian(x: np.ndarray, means: np.ndarray, covariances: np.ndarray, covariance_type: str) -> np.ndarray:
    """log N(x_i | mu_k, Sigma_k) for all i, k -> (N, K)."""
    n, d = x.shape
    k = means.shape[0]
    out = np.empty((n, k))
    if covariance_type == "full":
        for j in range(k):
            try:
                chol = np.linalg.cholesky(covariances[j])
            except np.linalg.LinAlgError as exc:
                raise DegenerateFitError(f"component {j} covariance not positive definite") from exc
            diff = x - means[j]
            z = solve_triangular(chol, diff.T, lower=True)
            maha = np.sum(z * z, axis=0)
            log_det = 2.0 * np.sum(np.log(np.diag(chol)))
            out[:, j] = -0.5 * (d * math.log(2 * math.pi) + log_det + maha)
    else:
        for j in range(k):
            var = covariances[j]
            if np.any(var <= 0):
                raise DegenerateFitError(f"component {j} has non-positive variance")
            diff = x - means[j]
            maha = np.sum(diff * diff / var, axis=1)
            log_det = float(np.sum(np.log(var)))
            out[:, j] = -0.5 * (d * math.log(2 * math.pi) + log_det + maha)
    return out


def _e_step(x, weights, means, covariances, covariance_type):
    weighted = _log_gaussian(x, means, covariances, covariance_type) + np.log(weights)
    norms = logsumexp(weighted, axis=1, keepdims=True)
    gamma = np.exp(weighted - norms)
    return gamma, float(np.sum(norms))


def _kmeanspp_means(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Spread initial means over the data to avoid collapsed starts."""
    n = x.shape[0]
    means = np.empty((k, x.shape[1]))
    means[0] = x[rng.integers(n)]
    closest = np.sum((x - means[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            means[j] = x[rng.integers(n)]
            continue
        probabilities = closest / total
        means[j] = x[rng.choice(n, p=probabilities)]
        closest = np.minimum(closest, np.sum((x - means[j]) ** 2, axis=1))
    return means


def _regularize(covariances: np.ndarray, covariance_type: str) -> np.ndarray:
    if covariance_type == "full":
        d = covariances.shape[-1]
        return covariances + COVARIANCE_REGULARIZATION * np.eye(d)
    return covariances + COVARIANCE_REGULARIZATION


def fit_gmm_em(points, K: int, seed: int) -> tuple[GaussianMixture, SoftAssignment]:
    """Fit a K-component mixture; returns the model and its responsibilities.
    Covariances are full up to ``FULL_COVARIANCE_MAX_DIM`` dimensions and
    diagonal above.

    The per-iteration log-likelihood trace is non-decreasing. The only
    exception is the dead-component rescue (a component whose responsibility
    mass underflows to zero is restarted at the worst-explained point), which
    begins a fresh trace because it is a re-initialization, not an EM step.
    """
    if K < 1:
        raise ValidationError("K must be >= 1")
    x = _as_matrix(points)
    n, d = x.shape
    if n < K:
        raise ValidationError(f"need at least K={K} points, got {n}")
    covariance_type = "full" if d <= FULL_COVARIANCE_MAX_DIM else "diag"

    rng = np.random.default_rng(seed)
    means = _kmeanspp_means(x, K, rng)
    weights = np.full(K, 1.0 / K)
    base_cov = np.cov(x.T).reshape(d, d) if d > 1 else np.var(x, axis=0).reshape(1, 1)
    if covariance_type == "full":
        covariances = _regularize(np.repeat(base_cov[None, :, :], K, axis=0), "full")
    else:
        covariances = _regularize(np.repeat(np.diag(base_cov)[None, :], K, axis=0), "diag")

    trace: list[float] = []
    converged = False
    rescues_left = 3  # bounded so a hopeless component cannot thrash forever
    gamma = np.full((n, K), 1.0 / K)
    for _ in range(MAX_ITERATIONS):
        gamma, log_likelihood = _e_step(x, weights, means, covariances, covariance_type)
        trace.append(log_likelihood)
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < CONVERGENCE_TOL:
            converged = True
            break

        mass = gamma.sum(axis=0)
        dead = np.where(mass < 1e-10)[0]
        if dead.size and rescues_left > 0:
            rescues_left -= 1
            per_point = logsumexp(
                _log_gaussian(x, means, covariances, covariance_type) + np.log(weights), axis=1
            )
            worst = int(np.argmin(per_point))
            for j in dead:
                means[j] = x[worst]
                if covariance_type == "full":
                    covariances[j] = _regularize(base_cov.copy(), "full")
                else:
                    covariances[j] = _regularize(np.diag(base_cov).copy(), "diag")
                weights[j] = 1.0 / n
            weights = weights / weights.sum()
            logger.debug("rescued %d dead component(s); restarting trace", dead.size)
            trace = []
            continue

        mass = np.maximum(mass, 10 * np.finfo(np.float64).eps)  # guards the division once rescues run out
        weights = mass / n
        weights = weights / weights.sum()
        means = (gamma.T @ x) / mass[:, None]
        if covariance_type == "full":
            covariances = np.empty((K, d, d))
            for j in range(K):
                diff = x - means[j]
                covariances[j] = (gamma[:, j : j + 1] * diff).T @ diff / mass[j]
            covariances = _regularize(covariances, "full")
        else:
            covariances = np.empty((K, d))
            for j in range(K):
                diff = x - means[j]
                covariances[j] = np.sum(gamma[:, j : j + 1] * diff * diff, axis=0) / mass[j]
            covariances = _regularize(covariances, "diag")

    if not trace:
        gamma, log_likelihood = _e_step(x, weights, means, covariances, covariance_type)
        trace.append(log_likelihood)

    model = GaussianMixture(
        K=K,
        weights=weights,
        means=means,
        covariances=covariances,
        covariance_type=covariance_type,
        log_likelihood=trace[-1],
        bic=bic_score(trace[-1], K, n),
        iteration_trace=trace,
        n_points=n,
        converged=converged,
        seed=seed,
    )
    return model, SoftAssignment(gamma=gamma)


def soft_assign(model: GaussianMixture, points) -> SoftAssignment:
    """Posterior responsibilities of the model's components for new points."""
    x = _as_matrix(points)
    if x.shape[1] != model.means.shape[1]:
        raise ValidationError(
            f"point dimension {x.shape[1]} does not match model dimension {model.means.shape[1]}"
        )
    gamma, _ = _e_step(x, model.weights, model.means, model.covariances, model.covariance_type)
    return SoftAssignment(gamma=gamma)


def search_cluster_count(points, K_max: int = 50, seed: int = 0, n_restarts: int = 4) -> ClusterSearch:
    """Fit K = 1..K_max (best of ``n_restarts`` each) and minimize the
    penalized objective; ties break toward smaller K."""
    if K_max < 1:
        raise ValidationError("K_max must be >= 1")
    x = _as_matrix(points)
    n = x.shape[0]
    if n < 2:
        raise ValidationError("cluster-count search needs at least 2 points")

    search = ClusterSearch(k_star=1, best=None)  # type: ignore[arg-type]
    for k in range(1, min(K_max, n) + 1):
        best_model: GaussianMixture | None = None
        for restart in range(max(1, n_restarts)):
            model, _ = fit_gmm_em(x, k, seed=derive_seed(seed, f"k{k}", f"r{restart}"))
            if best_model is None or model.log_likelihood > best_model.log_likelihood:
                best_model = model
        assert best_model is not None
        search.bic_by_k[k] = best_model.bic
        search.log_likelihood_by_k[k] = best_model.log_likelihood
        if search.best is None or best_model.bic < search.best.bic:
            search.k_star = k
            search.best = best_model
    return search

