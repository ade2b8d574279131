"""Dimensionality reduction, diagonal-covariance GMM via EM, BIC model
selection, and soft cluster assignment.

The reducer is PCA, each component's sign left as the SVD gives it: the
build uses only the reduced matrix, and nothing it computes from it
depends on a sign.  EM uses k-means++-style seeding, a variance floor
against duplicate points, and is fully deterministic given a seed.

EM works component-major: log densities and responsibilities are (k, n)
C-contiguous arrays, so every per-sample reduction runs over k contiguous
rows of n values, and the M-step is one matmul of the responsibilities
with ``[X, X²]``.  A fit's restarts run together as one (r, k, n) stack,
each restart's slice computed as it would be alone.

The BIC sweep fits its candidate k's in forked worker processes, one
per CPU in the process's affinity mask, so ``taskset`` limits it.  Each
k is fitted the same way whatever process runs it and the curve is read
in k order, so the chosen model and the index bytes do not depend on the
number of workers.  Fork, not spawn, keeps the parent's module state: a
worker calls whatever ``fit_gmm`` and kernel the parent had in place
when it was forked, and only the data, the k's and the fitted models
are pickled.  Every sweep runs its fits through a ``SweepPool``, the one
place that decides where they run: a build forks its workers once, at
the first sweep that needs them, and every later level's sweep reuses
them.

A build runs on one OpenBLAS thread (``one_blas_thread``): the sweep's
workers are already one per CPU, and a second BLAS thread per process
only contends with them.  The forked workers inherit the setting.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import logging
import math
import multiprocessing
import os
from dataclasses import dataclass, field

import numpy as np

from semtree.kernels import weighted_log_prob

logger = logging.getLogger(__name__)

VARIANCE_FLOOR = 1e-6
EM_TOL = 1e-4  # convergence: absolute log-likelihood change per iteration
EM_MAX_ITER = 200
BIC_RESTARTS = 3  # EM restarts per candidate k in select_k_bic


@functools.cache
def _openblas_threads():
    """The thread-count getter and setter of the scipy-openblas that numpy
    has already loaded (opened with ``RTLD_NOLOAD``, so never a second
    copy), or None, logged once at debug level, where there is no such
    library or symbol: another BLAS, or a platform other than Linux."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas*.so")
    for path in sorted(glob.glob(pattern)):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    logger.debug("no loaded scipy-openblas thread setter; builds keep the BLAS's threads")
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block (or, as a decorator, the function) on one OpenBLAS
    thread and restore the previous count when it ends or raises.  The
    count is the process's, so other threads' BLAS calls share it.  Where
    ``_openblas_threads`` finds no setter this does nothing."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get_threads, set_threads = threads
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def reduce(X: np.ndarray, target_dim: int) -> np.ndarray:
    """Centered ``X`` on its top ``target_dim`` principal components.
    Identical rows centre to zero, so the same SVD reduces them to zeros.
    Each component's sign is the SVD's: negating an axis changes neither
    the k-means++ seeding, nor diagonal EM, nor soft assignment, so the
    build's clusters and bytes do not depend on it."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if n < 2:
        raise ValueError("pca needs at least 2 vectors")
    target = min(target_dim, d, n - 1)
    centered = X - X.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return centered @ vt[:target].T


@dataclass(frozen=True)
class GmmModel:
    k: int
    weights: np.ndarray
    means: np.ndarray  # (k, d)
    variances: np.ndarray  # (k, d), diagonal covariances
    log_likelihood: float
    ll_history: tuple[float, ...] = field(default=(), repr=False)

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _normalize(wlp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities (..., k, n) and per-sample log-likelihoods (..., n)
    of the weighted log densities ``wlp``, by one max-shifted exp over the
    k axis.  ``wlp`` is overwritten: it becomes the responsibilities."""
    m = wlp.max(axis=-2, keepdims=True)
    wlp -= m
    np.exp(wlp, out=wlp)
    s = wlp.sum(axis=-2, keepdims=True)
    wlp *= 1.0 / s
    return wlp, (m + np.log(s))[..., 0, :]


def _kmeanspp_means(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    first = int(rng.integers(n))
    centers = [X[first]]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers.append(X[idx])
        d2 = np.minimum(d2, np.sum((X - centers[-1]) ** 2, axis=1))
    return np.stack(centers)


def fit_gmm(data: np.ndarray, k: int, seed: int, *, n_init: int = 1) -> GmmModel:
    """Fit a diagonal-covariance Gaussian mixture by EM.

    The fit is restarted ``n_init`` times from seeds ``seed + 7919·i``
    against bad k-means++ seedings; the first restart with the best
    likelihood wins.  Each restart stops when its log-likelihood changes
    by less than ``EM_TOL`` (or after ``EM_MAX_ITER`` iterations) and is
    checked non-decreasing every step.  The restarts advance together as
    one (r, k, n) stack, which a converged restart leaves; every operation
    acts on each restart's slice as on that restart alone, so each fit is
    bit for bit the lone ``n_init=1`` fit from its seed.
    """
    X = np.asarray(data, dtype=np.float64)
    n, d = X.shape
    if k < 1 or n_init < 1:
        raise ValueError("k and n_init must be >= 1")
    if n <= k:
        raise ValueError(f"need more points than components (n={n}, k={k})")
    means = np.stack([_kmeanspp_means(X, k, np.random.default_rng(seed + 7919 * i))
                      for i in range(n_init)])
    variances = np.tile(np.maximum(X.var(axis=0), VARIANCE_FLOOR), (n_init, k, 1))
    weights = np.full((n_init, k), 1.0 / k)
    moments_of = np.hstack([X, X * X])  # the M-step's one matmul operand
    moments_t = np.ascontiguousarray(moments_of.T)  # the E-step's, laid out once

    live = np.arange(n_init)  # the restart each stack row holds
    prev_ll = np.full(n_init, -np.inf)
    histories: list[list[float]] = [[] for _ in range(n_init)]
    fits: list[GmmModel | None] = [None] * n_init

    def finish(rows) -> None:
        for i in rows:
            r = live[i]
            fits[r] = GmmModel(k=k, weights=weights[i], means=means[i], variances=variances[i],
                               log_likelihood=float(prev_ll[i]), ll_history=tuple(histories[r]))

    # One buffer for every E-step: a fresh array of this size each step is
    # often handed back to the system by malloc and page-faulted in anew.
    work = np.empty((n_init, k, n))
    for _ in range(EM_MAX_ITER):
        resp, log_norm = _normalize(weighted_log_prob(X, means, variances, np.log(weights),
                                                      out=work[:len(live)],
                                                      moments_t=moments_t))
        ll = log_norm.sum(axis=-1)
        for i, r in enumerate(live):
            if ll[i] + 1e-8 < prev_ll[i]:
                raise AssertionError(f"EM log-likelihood decreased: {prev_ll[i]} -> {ll[i]}")
            histories[r].append(float(ll[i]))
        converged = np.isfinite(prev_ll) & (np.abs(ll - prev_ll) < EM_TOL)
        prev_ll = ll
        if converged.any():
            finish(np.flatnonzero(converged))
            keep = ~converged
            if not keep.any():
                break
            live, prev_ll, resp = live[keep], prev_ll[keep], resp[keep]
            weights, means, variances = weights[keep], means[keep], variances[keep]
        nk = resp.sum(axis=-1) + 1e-300
        weights = nk / n
        moments = (resp @ moments_of) / nk[..., None]
        means, ex2 = moments[..., :d], moments[..., d:]
        variances = ex2 - means**2
        # E[x²] − μ² cancels where a mean is far from the origin relative to
        # its spread (duplicates at an offset of 1e5 lose the whole floor and
        # break EM's monotonicity); where over 20 bits cancel, recompute from
        # x − μ.  Build data is centered, so that is rare there.
        for i, j in zip(*np.nonzero(np.any(ex2 > 2.0**20 * variances, axis=-1))):
            diff = X - means[i, j]
            variances[i, j] = (resp[i, j] @ (diff * diff)) / nk[i, j]
        variances = np.maximum(variances, VARIANCE_FLOOR)
    else:
        finish(range(len(live)))
    return max(fits, key=lambda m: m.log_likelihood)


def bic(model: GmmModel, n: int) -> float:
    """BIC = p·ln(n) − 2·ln L̂ with p = (k−1) + 2kd for diagonal mixtures."""
    p = (model.k - 1) + 2 * model.k * model.dim
    return p * math.log(n) - 2.0 * model.log_likelihood


def _fit_candidate(X: np.ndarray, seed: int, k: int) -> GmmModel:
    return fit_gmm(X, k, seed, n_init=BIC_RESTARTS)


class SweepPool:
    """Where BIC sweeps' fits run: in this process where fewer than two
    workers are possible or the process is daemonic (it may not have
    children), else in workers forked by the first call that needs them,
    as many as its workers, and reused until the pool is closed, which
    terminates and joins them.  Closed when its ``with`` block ends or raises."""

    def __init__(self):
        self._pool = None

    def fits(self, fit, ks: list[int]) -> dict[int, GmmModel]:
        """``fit(k)`` for each k in ``ks``, keyed by k; in workers the
        largest k is submitted first, so that the longest fits start early."""
        workers = min(len(os.sched_getaffinity(0)), len(ks))
        if workers < 2 or multiprocessing.current_process().daemon:
            return {k: fit(k) for k in ks}
        if self._pool is None:
            self._pool = multiprocessing.get_context("fork").Pool(workers)
        largest_first = sorted(ks, reverse=True)
        return dict(zip(largest_first, self._pool.imap(fit, largest_first)))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> SweepPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def select_k_bic(data: np.ndarray, k_range: range, seed: int,
                 pool: SweepPool) -> tuple[GmmModel, list[tuple[int, float]]]:
    """Fit one GMM per candidate k through ``pool`` and return the BIC
    minimizer, the curve's first minimum in k order, plus the curve."""
    X = np.asarray(data, dtype=np.float64)
    n = X.shape[0]
    candidates = [k for k in k_range if 1 <= k < n]
    if not candidates:
        raise ValueError(f"no valid k in {k_range!r} for n={n}")
    fits = pool.fits(functools.partial(_fit_candidate, X, seed), candidates)
    curve = [(k, bic(fits[k], n)) for k in candidates]
    best, _ = min(curve, key=lambda point: point[1])
    return fits[best], curve


@dataclass(frozen=True)
class SoftAssignment:
    """The points' responsibilities and the clusters that the points join."""
    responsibilities: np.ndarray  # (n, k), row-stochastic
    clusters: tuple[tuple[int, ...], ...]  # distinct, non-empty, component order, ascending


def soft_assign(model: GmmModel, data: np.ndarray, threshold: float = 0.2) -> SoftAssignment:
    """A point joins each cluster of at least ``threshold`` responsibility and
    its argmax cluster; ``clusters`` lists each non-empty cluster's members,
    once per member set: a cluster with the members of an earlier one (as
    every cluster of identical rows has) is dropped, so it adds no parent."""
    X = np.asarray(data, dtype=np.float64)
    if X.shape[1] != model.dim:
        raise ValueError("data dimensionality does not match the fitted model")
    resp = _normalize(weighted_log_prob(X, model.means, model.variances,
                                        np.log(model.weights)))[0].T
    picked = resp >= threshold
    picked[np.arange(len(resp)), resp.argmax(axis=1)] = True
    clusters = tuple(dict.fromkeys(tuple(np.flatnonzero(c).tolist()) for c in picked.T if c.any()))
    return SoftAssignment(responsibilities=resp, clusters=clusters)
