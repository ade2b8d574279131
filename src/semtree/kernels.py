"""Hot numeric kernels in float64 numpy: GMM log-densities, CSR gathers and
BM25 scoring."""

from __future__ import annotations

import math

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)

# Only numpy kernels exist; perfsuite/run.py records this flag as the run's kernel_path.
USING_NUMBA = False


def weighted_log_prob(X, means, variances, log_weights, out=None, *, moments_t=None):
    """Diagonal Gaussian log density plus log weight of every sample under
    every component, for one model or a stack of them: ``means`` and
    ``variances`` are ``(..., k, d)``, ``log_weights`` is ``(..., k)`` and
    the result is the component-major ``(..., k, n)`` array, written into
    ``out`` (C-contiguous) when given.

    The matmuls read ``X`` and ``X²`` through ``moments_t``, the
    C-contiguous ``(2d, n)`` transpose of ``[X, X²]``.  EM scores one
    ``X`` every iteration, so it makes that operand once per fit and
    passes it in; without it the kernel makes it on each call.  Either
    way the BLAS calls, and so the bits, are the same.  A GEMM that reads
    transposed views instead runs ~2x slower at k = 32 and can differ in
    the last bit.

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
    if moments_t is None:
        moments_t = np.ascontiguousarray(np.hstack([X, X * X]).T)
    prec = 1.0 / variances
    half_prec = -0.5 * prec
    half_big = half_prec @ moments_t[d:]
    half_big += np.sum(means * means * half_prec, axis=-1)[..., None]
    out = np.matmul(means * prec, moments_t[:d], out=out)
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


def csr_ranges(ptr: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The positions ``ptr[k]:ptr[k+1]`` of each key in ``keys``, concatenated
    in the order of ``keys``: one gather of many CSR rows."""
    starts = ptr[keys]
    lens = ptr[keys + 1] - starts
    return np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())


def bm25_scores(q_terms, q_counts, postings_ptr, postings_doc, postings_tf,
                idf, norm, n_docs, k1):
    """Okapi BM25 scores of every document for the query terms ``q_terms``
    (counted ``q_counts``), from term-major postings and each document's
    length norm ``k1 * (1 - b + b * doc_len / avgdl)``.

    Term at a time: the query terms' postings are gathered in query-term
    order and summed per document by one ``np.bincount``.  Each document's
    additions are then those of a loop adding one term's postings at a
    time, in the same order and each ``qtf * idf * tf * (k1 + 1) / (tf +
    norm)``, so the scores are that loop's bits.
    """
    sel = csr_ranges(postings_ptr, q_terms)
    docs, tfs = postings_doc[sel], postings_tf[sel]
    qw = np.repeat(q_counts * idf[q_terms], postings_ptr[q_terms + 1] - postings_ptr[q_terms])
    return np.bincount(docs, weights=qw * tfs * (k1 + 1.0) / (tfs + norm[docs]),
                       minlength=n_docs)
