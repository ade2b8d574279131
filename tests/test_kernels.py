import math
from collections import Counter

import numpy as np
import pytest

from conftest import library
from semtree import kernels
from semtree.baselines import BM25_K1, build_term_index
from semtree.cluster import VARIANCE_FLOOR
from semtree.embed import tokenize


def loop_weighted_log_prob(X, means, variances, log_weights):
    """The straightforward per-component loop: the oracle for the matmul kernel."""
    n, d = X.shape
    k = means.shape[0]
    out = np.empty((n, k))
    for j in range(k):
        var = variances[j]
        diff = X - means[j]
        out[:, j] = log_weights[j] - 0.5 * (
            d * math.log(2.0 * math.pi) + np.sum(np.log(var))
            + np.sum(diff * diff / var, axis=1)
        )
    return out


def loop_kernel(X, means, variances, log_weights, out=None, *, moments_t=None):
    """The loop oracle behind the kernel's interface: each model of a
    ``(..., k, d)`` stack in turn, transposed to component-major ``(..., k, n)``.
    It reads ``X`` itself, so the laid-out ``moments_t`` is ignored."""
    if out is None:
        out = np.empty(means.shape[:-1] + (X.shape[0],))
    for model in np.ndindex(means.shape[:-2]):
        out[model] = loop_weighted_log_prob(X, means[model], variances[model],
                                            log_weights[model]).T
    return out


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
    norm = 1.2 * (1.0 - 0.75 + 0.75 * doc_len / float(doc_len.mean()))
    return q_terms, q_counts, ptr, p_doc, p_tf, idf, norm, n_docs, 1.2


def test_weighted_log_prob_matches_scipy_style_oracle():
    X, means, variances, log_w = random_gmm_inputs()
    got = kernels.weighted_log_prob(X, means, variances, log_w).T
    # independent oracle: per-dimension normal log pdfs summed explicitly
    for i in range(5):
        for j in range(means.shape[0]):
            lp = log_w[j]
            for t in range(X.shape[1]):
                var = variances[j, t]
                lp += -0.5 * (np.log(2 * np.pi * var)
                              + (X[i, t] - means[j, t]) ** 2 / var)
            assert got[i, j] == pytest.approx(lp, abs=1e-10)


@pytest.mark.parametrize("seed,n,d,k", [(0, 40, 6, 4), (1, 300, 10, 16), (2, 50, 1, 3),
                                         (3, 7, 17, 5)])
def test_weighted_log_prob_matches_loop_oracle(seed, n, d, k):
    X, means, variances, log_w = random_gmm_inputs(seed, n, d, k)
    got = kernels.weighted_log_prob(X, means, variances, log_w)
    want = loop_kernel(X, means, variances, log_w)
    assert got.shape == (k, n) and got.flags.c_contiguous
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def random_stack(seed, n, d, k, r=3):
    X = random_gmm_inputs(seed, n, d, k)[0]
    models = [random_gmm_inputs(seed + 100 * i, n, d, k)[1:] for i in range(r)]
    return (X,) + tuple(np.stack(part) for part in zip(*models))


@pytest.mark.parametrize("seed,n,d,k", [(0, 40, 6, 4), (1, 300, 10, 16), (2, 50, 1, 3),
                                         (3, 7, 17, 5)])
def test_stacked_models_equal_each_model_alone(seed, n, d, k):
    X, means, variances, log_w = random_stack(seed, n, d, k)
    got = kernels.weighted_log_prob(X, means, variances, log_w)
    assert got.shape == (3, k, n) and got.flags.c_contiguous
    for i in range(3):
        alone = kernels.weighted_log_prob(X, means[i], variances[i], log_w[i])
        assert got[i].tobytes() == alone.tobytes(), i
    buffer = np.full((4, k, n), np.nan)
    assert kernels.weighted_log_prob(X, means, variances, log_w, out=buffer[:3]).base is buffer
    assert buffer[:3].tobytes() == got.tobytes()
    assert np.allclose(got, loop_kernel(X, means, variances, log_w), rtol=1e-12, atol=0.0)


def laid_out(X):
    """``X`` and ``X²`` as the E-step's operand: the C-contiguous ``[X, X²].T``."""
    return np.ascontiguousarray(np.hstack([X, X * X]).T)


# (n, d, k, r): r models stacked, or None for one model, as soft_assign
# passes; d = 10 at n = 25-999 are shapes where a GEMM on transposed views
# and one on contiguous operands can differ in the last bit, and n = 1,000,
# d = 10, k up to 32 with r = 3 restarts are the build's level-0 sweep.
OPERAND_SHAPES = [(25, 10, 2, None), (250, 10, 16, 3), (333, 10, 18, 3), (500, 10, 22, 2),
                  (999, 10, 32, 3), (1000, 10, 32, 3), (1000, 10, 9, None), (40, 6, 4, 3),
                  (7, 17, 5, None), (50, 1, 3, 2), (300, 3, 2, 1)]


@pytest.mark.parametrize("n,d,k,r", OPERAND_SHAPES)
def test_laid_out_operands_give_the_kernels_own_bytes(n, d, k, r):
    if r is None:
        X, means, variances, log_w = random_gmm_inputs(n, n, d, k)
    else:
        X, means, variances, log_w = random_stack(n, n, d, k, r)
    own = kernels.weighted_log_prob(X, means, variances, log_w)
    given = kernels.weighted_log_prob(X, means, variances, log_w, moments_t=laid_out(X))
    assert given.tobytes() == own.tobytes()
    out = np.empty(own.shape)
    assert kernels.weighted_log_prob(X, means, variances, log_w, out,
                                     moments_t=laid_out(X)) is out
    assert out.tobytes() == own.tobytes()


def test_fit_gmm_lays_out_the_kernels_operand_once(monkeypatch):
    from semtree import cluster

    seen = []

    def recording(X, means, variances, log_weights, out=None, *, moments_t=None):
        seen.append(moments_t)
        return kernels.weighted_log_prob(X, means, variances, log_weights, out,
                                         moments_t=moments_t)

    X = random_gmm_inputs(0, 200, 10, 1)[0]
    monkeypatch.setattr(cluster, "weighted_log_prob", recording)
    cluster.fit_gmm(X, 6, seed=0, n_init=3)
    assert len(seen) > 1 and all(m is seen[0] for m in seen)
    assert seen[0].flags.c_contiguous and seen[0].tobytes() == laid_out(X).tobytes()


def test_weighted_log_prob_cancellation_guard():
    # Exact duplicates on far-from-zero means with floored variances: the
    # expansion x²/σ² − 2xμ/σ² + μ²/σ² cancels ~1e10-sized terms to 0 here.
    rng = np.random.default_rng(5)
    centres = 123.456 + rng.normal(scale=1e-3, size=(6, 10))
    exact = np.repeat(centres, 9, axis=0)
    X = exact.copy()
    X[::7] += rng.normal(scale=1e-4, size=X[::7].shape)
    means = np.vstack([centres, centres.mean(axis=0)])
    variances = np.full((7, 10), VARIANCE_FLOOR)
    variances[6] = np.maximum(X.var(axis=0), VARIANCE_FLOOR)
    log_w = np.log(np.full(7, 1.0 / 7))
    # the guarded model sits second in a stack, behind one the guard leaves alone
    stack = [np.stack([np.zeros_like(part), part]) for part in (means, variances, log_w)]
    stack[1][0] = 1.0
    got = kernels.weighted_log_prob(X, *stack, out=np.empty((2, 7, len(X))))
    want = loop_kernel(X, *stack)
    assert np.allclose(got, want, rtol=0.0, atol=1e-9)
    on_mean = np.flatnonzero(np.all(X == exact, axis=1))
    assert np.array_equal(got[1, on_mean // 9, on_mean], want[1, on_mean // 9, on_mean])
    assert got[1].tobytes() == kernels.weighted_log_prob(X, means, variances, log_w).tobytes()


def loop_bm25_scores(q_terms, q_counts, postings_ptr, postings_doc, postings_tf,
                     idf, norm, n_docs, k1):
    """BM25 one query term at a time, each term's postings added in turn:
    the kernel before its one bincount, kept as the bit-exact oracle."""
    scores = np.zeros(n_docs)
    for t, qtf in zip(q_terms, q_counts):
        docs = postings_doc[postings_ptr[t]:postings_ptr[t + 1]]
        tfs = postings_tf[postings_ptr[t]:postings_ptr[t + 1]]
        scores[docs] += qtf * idf[t] * tfs * (k1 + 1.0) / (tfs + norm[docs])
    return scores


def bm25_args(idx, intent):
    """The kernel's arguments as ``score_bm25`` passes them."""
    counts = Counter(tokenize(intent))
    known = [t for t in counts if t in idx.vocabulary]
    return (np.asarray([idx.vocabulary[t] for t in known], dtype=np.int64),
            np.asarray([float(counts[t]) for t in known]),
            idx.postings_ptr, idx.postings_doc, idx.postings_tf,
            idx.bm25_idf, idx.bm25_norm, idx.n_docs, BM25_K1)


# "common" is in every document; "!!!" and "--" have no tokens; intents
# repeat terms, and name unknown ones.
BM25_CASES = {
    "repeated-terms": (["go go stop", "stop", "go fast go go", "slow"],
                       ["go go go", "go stop go stop stop", "fast go fast unknown"]),
    "term-in-every-document": (["common alpha", "common beta beta", "common", "common alpha beta"],
                               ["common", "common common alpha", "beta common"]),
    "tokenless-documents": (["alpha beta", "!!!", "beta gamma", "--", "alpha alpha"],
                            ["alpha", "beta alpha beta", "gamma delta"]),
    "all-tokenless": (["!!!", "--", "日本"], ["alpha", ""]),
}


@pytest.mark.parametrize("case", BM25_CASES)
def test_bm25_kernel_equals_the_per_term_loop(case):
    docs, intents = BM25_CASES[case]
    idx = build_term_index(library(*((f"d{i}", f"d{i}", d) for i, d in enumerate(docs))))
    assert np.isfinite(idx.bm25_norm).all()
    for intent in intents:
        args = bm25_args(idx, intent)
        assert kernels.bm25_scores(*args).tobytes() == loop_bm25_scores(*args).tobytes(), intent


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bm25_kernel_equals_the_per_term_loop_on_random_postings(seed):
    args = random_bm25_inputs(seed=seed)
    assert kernels.bm25_scores(*args).tobytes() == loop_bm25_scores(*args).tobytes()


def test_bm25_kernel_equals_the_per_term_loop_on_the_benchmark_catalog():
    from perfsuite import gen  # the benchmark's generator and its lexical catalog

    artifacts = gen.family_catalog(40, 50, "7/lexical")
    idx = build_term_index(library(*((a["id"], a["name"], a["description"]) for a in artifacts)))
    stream = gen.IntentMaker(artifacts).stream("7/lexical-intents")
    for _ in range(300):
        args = bm25_args(idx, next(stream)["intent"])
        assert kernels.bm25_scores(*args).tobytes() == loop_bm25_scores(*args).tobytes()


def test_bm25_kernel_empty_query():
    args = random_bm25_inputs()
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0)) + args[2:]
    assert np.array_equal(kernels.bm25_scores(*empty), np.zeros(args[7]))
