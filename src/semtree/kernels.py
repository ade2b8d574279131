"""Hot numeric kernels in float64 numpy: GMM log-densities and BM25 scoring."""

from __future__ import annotations

import math

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)

# Only numpy kernels exist; perfsuite/run.py records this flag as the run's kernel_path.
USING_NUMBA = False


def weighted_log_prob(X, means, variances, log_weights):
    """Per-sample, per-component diagonal Gaussian log density plus log weight."""
    n, d = X.shape
    k = means.shape[0]
    out = np.empty((n, k))
    for j in range(k):
        var = variances[j]
        diff = X - means[j]
        out[:, j] = log_weights[j] - 0.5 * (
            d * _LOG_2PI + np.sum(np.log(var)) + np.sum(diff * diff / var, axis=1)
        )
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
