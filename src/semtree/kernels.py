"""Hot numeric kernels in float64 numpy: GMM log-densities and BM25 scoring."""

from __future__ import annotations

import math

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)

# Only numpy kernels exist; perfsuite/run.py records this flag as the run's kernel_path.
USING_NUMBA = False


def weighted_log_prob(X, means, variances, log_weights):
    """Per-sample, per-component diagonal Gaussian log density plus log weight.

    The Mahalanobis term is expanded into two matmuls, as in scikit-learn's
    diagonal ``GaussianMixture`` (``_estimate_log_gaussian_prob``):
    Σ(x−μ)²/σ² = x²·(1/σ²) − 2x·(μ/σ²) + Σμ²/σ².  Its rounding error is
    about eps times the positive part ``big``, so where the difference keeps
    less than 1/64 of ``big`` (over 6 bits cancelled, as for points sitting
    on a far-from-zero mean with a floored variance) the entry is computed
    again from x−μ directly.

    The work is done component-major, in a C-contiguous (k, n) array, and
    the (n, k) result is its transpose.  EM has k ≤ 32 and n in the
    thousands, and numpy reduces across the components of a (k, n) array
    in k contiguous passes over n values, but across the short k-rows of
    a C-contiguous (n, k) one 5-15x slower (k = 16, n = 1,000), so
    ``cluster`` reduces over ``result.T``.
    """
    d = X.shape[1]
    prec = 1.0 / variances
    big = prec @ (X * X).T + np.sum(means * means * prec, axis=1)[:, None]
    quad = big - 2.0 * ((means * prec) @ X.T)
    # flatnonzero + divmod: several times faster than a 2-D np.nonzero here
    comps, samples = np.divmod(np.flatnonzero(big > 64.0 * quad), quad.shape[1])
    if samples.size:
        diff = X[samples] - means[comps]
        quad[comps, samples] = np.sum(diff * diff / variances[comps], axis=1)
    quad += (d * _LOG_2PI + np.sum(np.log(variances), axis=1))[:, None]
    quad *= -0.5
    quad += log_weights[:, None]
    return quad.T


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
