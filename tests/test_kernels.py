import numpy as np
import pytest

from semtree import kernels


def random_gmm_inputs(seed=0, n=40, d=6, k=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    means = rng.normal(size=(k, d))
    variances = rng.uniform(0.1, 2.0, size=(k, d))
    weights = rng.uniform(0.1, 1.0, size=k)
    weights /= weights.sum()
    return X, means, variances, np.log(weights)


def random_bm25_inputs(seed=1, n_docs=15, vocab=25):
    rng = np.random.default_rng(seed)
    postings = []
    for t in range(vocab):
        docs = np.sort(rng.choice(n_docs, size=rng.integers(1, 6), replace=False))
        postings.append([(d, float(rng.integers(1, 5))) for d in docs])
    ptr = np.zeros(vocab + 1, dtype=np.int64)
    ptr[1:] = np.cumsum([len(p) for p in postings])
    p_doc = np.asarray([d for p in postings for d, _ in p], dtype=np.int64)
    p_tf = np.asarray([tf for p in postings for _, tf in p])
    idf = rng.uniform(0.1, 3.0, size=vocab)
    doc_len = rng.uniform(3.0, 20.0, size=n_docs)
    q_terms = rng.choice(vocab, size=5, replace=False).astype(np.int64)
    q_counts = rng.integers(1, 3, size=5).astype(np.float64)
    return (q_terms, q_counts, ptr, p_doc, p_tf, idf, doc_len,
            float(doc_len.mean()), n_docs, 1.2, 0.75)


def test_weighted_log_prob_matches_scipy_style_oracle():
    X, means, variances, log_w = random_gmm_inputs()
    got = kernels.weighted_log_prob(X, means, variances, log_w)
    # independent oracle: per-dimension normal log pdfs summed explicitly
    for i in range(5):
        for j in range(means.shape[0]):
            lp = log_w[j]
            for t in range(X.shape[1]):
                var = variances[j, t]
                lp += -0.5 * (np.log(2 * np.pi * var)
                              + (X[i, t] - means[j, t]) ** 2 / var)
            assert got[i, j] == pytest.approx(lp, abs=1e-10)


def test_bm25_kernel_empty_query():
    args = random_bm25_inputs()
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0)) + args[2:]
    assert np.array_equal(kernels.bm25_scores(*empty), np.zeros(args[8]))
