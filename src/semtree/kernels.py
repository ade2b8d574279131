"""Hot numeric kernels in float64 numpy: GMM log-densities and BM25 scoring."""

from __future__ import annotations

import math

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)

# Only numpy kernels exist; perfsuite/run.py records this flag as the run's kernel_path.
USING_NUMBA = False


def weighted_log_prob(X, means, variances, log_weights, out=None):
    """Diagonal Gaussian log density plus log weight of every sample under
    every component, for one model or a stack of them: ``means`` and
    ``variances`` are ``(..., k, d)``, ``log_weights`` is ``(..., k)`` and
    the result is the component-major ``(..., k, n)`` array, written into
    ``out`` (C-contiguous) when given.

    The Mahalanobis term is expanded into two matmuls, as in scikit-learn's
    diagonal ``GaussianMixture`` (``_estimate_log_gaussian_prob``):
    Σ(x−μ)²/σ² = x²·(1/σ²) − 2x·(μ/σ²) + Σμ²/σ².  Its rounding error is
    about eps times the positive part ``big``, so where the difference keeps
    less than 1/64 of ``big`` (over 6 bits cancelled, as for points sitting
    on a far-from-zero mean with a floored variance) the entry is computed
    again from x−μ directly.  The −½ is folded into the matmul operands:
    scaling by a power of two commutes with rounding, so that is exact, as
    is the guard's 1/64 unless it makes a value subnormal.

    EM has k ≤ 32 and n in the thousands: numpy reduces across the
    components of a (k, n) array in k contiguous passes over n values, but
    across the short k-rows of a C-contiguous (n, k) one 5-15x slower
    (k = 16, n = 1,000).  A stack of r models is one batched matmul, the
    same BLAS call on the same shapes as each model alone.
    """
    d = X.shape[1]
    prec = 1.0 / variances
    half_prec = -0.5 * prec
    half_big = half_prec @ (X * X).T
    half_big += np.sum(means * means * half_prec, axis=-1)[..., None]
    out = np.matmul(means * prec, X.T, out=out)
    out += half_big  # −½ Σ(x−μ)²/σ²
    half_big *= 1.0 / 64.0
    # flatnonzero + divmod: several times faster than an n-D np.nonzero here
    comps, samples = np.divmod(np.flatnonzero(half_big < out), out.shape[-1])
    if samples.size:
        diff = X[samples] - means.reshape(-1, d)[comps]
        out.reshape(-1, out.shape[-1])[comps, samples] = -0.5 * np.sum(
            diff * diff / variances.reshape(-1, d)[comps], axis=1)
    out += (-0.5 * (d * _LOG_2PI + np.sum(np.log(variances), axis=-1)))[..., None]
    out += log_weights[..., None]
    return out


def bm25_scores(q_terms, q_counts, postings_ptr, postings_doc, postings_tf,
                idf, doc_len, avgdl, n_docs, k1, b):
    """Okapi BM25 scores for every document given sparse term postings."""
    scores = np.zeros(n_docs)
    norm = k1 * (1.0 - b + b * doc_len / avgdl)
    for t, qtf in zip(q_terms, q_counts):
        docs = postings_doc[postings_ptr[t]:postings_ptr[t + 1]]
        tfs = postings_tf[postings_ptr[t]:postings_ptr[t + 1]]
        scores[docs] += qtf * idf[t] * tfs * (k1 + 1.0) / (tfs + norm[docs])
    return scores
