"""Gaussian mixture fitting by EM with information-criterion model selection.

The mixture objective is the data log-likelihood under component weights,
means, and covariances; EM alternates posterior responsibilities (E-step)
with weighted parameter recalibration (M-step) and is monotone in the
objective. The component count is chosen by minimizing
``-2 ln(L) + K ln(N)`` over a capped search range, ties toward smaller K.

Each E-step and M-step acts on all K components at once, on the (K, d, N)
stack of differences between the points and the means: one stacked Cholesky
factorization of the (K, d, d) covariances, one batched product with the
factors' inverses for the Mahalanobis terms, the log-determinants from the
factors' diagonals, and one batched product for the weighted scatter
matrices. The log-sum-exp helper repeats the arithmetic of
``scipy.special.logsumexp``, so the fits match a per-component loop to
rounding. A fit allocates its two (K, d, N) stacks once and the steps write
into them, so EM iterations take no fresh pages.

The search scores each K (all its restarts) as one task. With more than one
CPU and more than one K value the tasks run in ``fit_pool``'s forked workers,
one per CPU (at most one per K), each with one BLAS thread; on one CPU or for
a single K they run in-process. A task returns its best restart's fitted
mixture, and the search keeps the one of K*. Every fit is seeded by its K and
restart alone, so both ways give the same search bit for bit.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass

import numpy as np

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
class ClusterSearch:
    k_star: int
    best: GaussianMixture
    bic_by_k: dict[int, float]
    log_likelihood_by_k: dict[int, float]


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


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) as an (N, 1) column, in the arithmetic of
    ``scipy.special.logsumexp``: the row maxima are taken out of the sum and
    counted, so a row with one dominant term loses no precision."""
    a_max = a.max(axis=1, keepdims=True)
    is_max = a == a_max
    m = is_max.sum(axis=1, keepdims=True, dtype=np.float64)
    s = np.exp(np.where(is_max, -np.inf, a) - a_max).sum(axis=1, keepdims=True)
    return np.log1p(s / m) + np.log(m) + a_max


# Two (K, d, N) arrays the E- and M-steps write their stacks into; None
# allocates fresh ones (``out=None``), which gives the same bits.
NO_WORKSPACE = (None, None)


def _differences(x: np.ndarray, means: np.ndarray, out=None) -> np.ndarray:
    """x_i - mu_k for all k, i -> (K, d, N), written into ``out`` if given."""
    return np.subtract(np.ascontiguousarray(x.T)[None, :, :], means[:, :, None], out=out)


def _log_gaussian(
    x: np.ndarray, means: np.ndarray, covariances: np.ndarray, covariance_type: str, work=NO_WORKSPACE
) -> np.ndarray:
    """log N(x_i | mu_k, Sigma_k) for all i, k -> (N, K), all components at once."""
    d = x.shape[1]
    diff = _differences(x, means, work[0])
    if covariance_type == "full":
        try:
            chol = np.linalg.cholesky(covariances)
        except np.linalg.LinAlgError as exc:
            for j, covariance in enumerate(covariances):  # name the first that fails
                try:
                    np.linalg.cholesky(covariance)
                except np.linalg.LinAlgError:
                    raise DegenerateFitError(f"component {j} covariance not positive definite") from exc
            raise
        z = np.matmul(np.linalg.inv(chol), diff, out=work[1])
        maha = np.einsum("kdn,kdn->kn", z, z)
        log_det = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    else:
        bad = np.flatnonzero(np.any(covariances <= 0, axis=1))
        if bad.size:
            raise DegenerateFitError(f"component {bad[0]} has non-positive variance")
        squared = np.multiply(diff, diff, out=work[1])
        maha = np.sum(np.divide(squared, covariances[:, :, None], out=squared), axis=1)
        log_det = np.sum(np.log(covariances), axis=1)
    out = -0.5 * (d * math.log(2 * math.pi) + log_det[:, None] + maha)
    return np.ascontiguousarray(out.T)  # row-major: _logsumexp then sums rows in scipy's order


def _e_step(x, weights, means, covariances, covariance_type, work=NO_WORKSPACE):
    weighted = _log_gaussian(x, means, covariances, covariance_type, work) + np.log(weights)
    norms = _logsumexp(weighted)
    gamma = np.exp(weighted - norms)
    return gamma, float(np.sum(norms))


def _m_step(x: np.ndarray, gamma: np.ndarray, mass: np.ndarray, covariance_type: str, work=NO_WORKSPACE):
    """Weights, means and regularized covariances from the responsibilities
    and their per-component sums, all components at once."""
    weights = mass / x.shape[0]
    weights = weights / weights.sum()
    means = (gamma.T @ x) / mass[:, None]
    diff = _differences(x, means, work[0])
    weighted = np.multiply(np.ascontiguousarray(gamma.T)[:, None, :], diff, out=work[1])
    if covariance_type == "full":
        scatter = np.matmul(weighted, diff.transpose(0, 2, 1))
        return weights, means, _regularize(scatter / mass[:, None, None], "full")
    scatter = np.sum(np.multiply(weighted, diff, out=weighted), axis=2)
    return weights, means, _regularize(scatter / mass[:, None], "diag")


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


def fit_gmm_em(points, K: int, seed: int) -> tuple[GaussianMixture, np.ndarray]:
    """Fit a K-component mixture; returns the model and its (N, K)
    responsibilities, whose rows sum to 1.
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

    work = (np.empty((K, d, n)), np.empty((K, d, n)))
    trace: list[float] = []
    converged = False
    rescues_left = 3  # bounded so a hopeless component cannot thrash forever
    gamma = np.full((n, K), 1.0 / K)
    for _ in range(MAX_ITERATIONS):
        gamma, log_likelihood = _e_step(x, weights, means, covariances, covariance_type, work)
        trace.append(log_likelihood)
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < CONVERGENCE_TOL:
            converged = True
            break

        mass = gamma.sum(axis=0)
        dead = np.where(mass < 1e-10)[0]
        if dead.size and rescues_left > 0:
            rescues_left -= 1
            per_point = _logsumexp(_log_gaussian(x, means, covariances, covariance_type, work) + np.log(weights))
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
        weights, means, covariances = _m_step(x, gamma, mass, covariance_type, work)

    if not trace:
        gamma, log_likelihood = _e_step(x, weights, means, covariances, covariance_type, work)
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
    return model, gamma


def soft_assign(model: GaussianMixture, points) -> np.ndarray:
    """Posterior (N, K) responsibilities of the model's components for new
    points."""
    x = _as_matrix(points)
    if x.shape[1] != model.means.shape[1]:
        raise ValidationError(
            f"point dimension {x.shape[1]} does not match model dimension {model.means.shape[1]}"
        )
    gamma, _ = _e_step(x, model.weights, model.means, model.covariances, model.covariance_type)
    return gamma


def _restart_seed(seed: int, k: int, restart: int) -> int:
    return derive_seed(seed, f"k{k}", f"r{restart}")


def _score_k(task: tuple[np.ndarray, int, int, int]) -> GaussianMixture:
    """One K of the search, all its restarts: the fit of the first restart
    with the highest log-likelihood."""
    x, k, seed, n_restarts = task
    best = None
    for restart in range(max(1, n_restarts)):
        model, _ = fit_gmm_em(x, k, seed=_restart_seed(seed, k, restart))
        if best is None or model.log_likelihood > best.log_likelihood:
            best = model
    return best


def fit_pool(fn, tasks: list, processes: int) -> list:
    """``map(fn, tasks)`` over ``processes`` forked worker processes, one
    task at a time each. The pool is terminated and joined before the call
    returns or raises, so no worker outlives it.

    Forked, not spawned: a worker starts with the program already imported,
    where a spawned one would import it again. A fork copies only the calling
    thread, and any lock another thread holds stays held in the child, so
    every caller of ``search_cluster_count`` must run no other threads. The
    stages run none while the tree is built (``providers.parallel_map`` joins
    its threads before it returns)."""
    import multiprocessing

    pool = multiprocessing.get_context("fork").Pool(processes)
    try:
        return pool.map(fn, tasks, chunksize=1)
    finally:
        pool.terminate()
        pool.join()


def search_cluster_count(points, K_max: int, seed: int, n_restarts: int) -> ClusterSearch:
    """Fit K = 1..K_max (best of ``n_restarts`` each) and minimize the
    penalized objective; ties break toward smaller K. The per-K tasks go
    out largest K first, to one worker per CPU when there are more than one
    CPU and K value, else in-process; ``taskset`` limits the CPUs. The
    result holds the winning K's fit as its task returned it."""
    if K_max < 1:
        raise ValidationError("K_max must be >= 1")
    x = _as_matrix(points)
    n = x.shape[0]
    if n < 2:
        raise ValidationError("cluster-count search needs at least 2 points")

    ks = range(min(K_max, n), 0, -1)  # the longest fits go out first
    tasks = [(x, k, seed, n_restarts) for k in ks]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(ks))
    fits = dict(zip(ks, fit_pool(_score_k, tasks, workers) if workers > 1 else map(_score_k, tasks)))
    bic_by_k = {k: fits[k].bic for k in sorted(fits)}
    k_star = min(bic_by_k, key=bic_by_k.__getitem__)  # the first minimum: ties go to the smaller K
    return ClusterSearch(k_star, fits[k_star], bic_by_k, {k: fits[k].log_likelihood for k in sorted(fits)})
