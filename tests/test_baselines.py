import hashlib
import json
import math
import re
from collections import Counter
from dataclasses import fields
from decimal import Decimal, localcontext

import numpy as np
import pytest

from conftest import library, make_family_library, perturbed_intents
from semtree import baselines
from semtree.baselines import (
    TermIndex,
    _distribution,
    _ranked,
    _tfidf_dots,
    _tfidf_query,
    build_term_index,
    jensen_shannon_divergence,
    llm_two_stage,
    load_word_vectors,
    score_bm25,
    score_jsd,
    score_lsi,
    score_tfidf,
    tokenize,
    wordavg_scorer,
)
from semtree.llm import LlmError
from semtree.search import RankedList, round_scores
from semtree.tree import rank_by_id


def make_lib(descriptions, prefix="d"):
    return library(*((f"{prefix}{i:02d}", f"n{i}", desc) for i, desc in enumerate(descriptions)))


@pytest.fixture(scope="module")
def corpus20():
    rng = np.random.default_rng(13)
    words = [f"w{i}" for i in range(30)]
    docs = [" ".join(rng.choice(words, size=rng.integers(4, 12)))
            for _ in range(20)]
    return make_lib(docs)


# --- independent oracles --------------------------------------------------

def oracle_tfidf_scores(lib, intent):
    docs = [tokenize(d) for d in lib.descriptions]
    n = len(docs)
    vocab = sorted({t for d in docs for t in d})
    df = {t: sum(t in set(d) for d in docs) for t in vocab}
    idf = {t: math.log((1 + n) / (1 + df[t])) for t in vocab}

    def vec(tokens):
        counts = Counter(t for t in tokens if t in idf)
        return {t: c * idf[t] for t, c in counts.items()}

    q = vec(tokenize(intent))
    qn = math.sqrt(sum(w * w for w in q.values()))
    scores = []
    for d in docs:
        dv = vec(d)
        dn = math.sqrt(sum(w * w for w in dv.values()))
        dot = sum(w * q.get(t, 0.0) for t, w in dv.items())
        scores.append(dot / (dn * qn) if dn > 0 and qn > 0 and dot else 0.0)
    return scores


def oracle_bm25_scores(lib, intent, k1=1.2, b=0.75):
    docs = [tokenize(d) for d in lib.descriptions]
    n = len(docs)
    avgdl = sum(len(d) for d in docs) / n
    df = Counter(t for d in docs for t in set(d))
    scores = []
    q = Counter(tokenize(intent))
    for d in docs:
        tf = Counter(d)
        s = 0.0
        for t, qc in q.items():
            if t not in df or tf[t] == 0:
                continue
            idf = math.log(1 + (n - df[t] + 0.5) / (df[t] + 0.5))
            s += qc * idf * tf[t] * (k1 + 1) / (tf[t] + k1 * (1 - b + b * len(d) / avgdl))
        scores.append(s)
    return scores


def oracle_jsd(p, q):
    m = [(a + b) / 2 for a, b in zip(p, q)]
    total = 0.0
    for dist in (p, q):
        for a, mi in zip(dist, m):
            if a > 0:
                total += 0.5 * a * math.log2(a / mi)
    return total


# --- term index -----------------------------------------------------------

def test_term_index_basics():
    idx = build_term_index(make_lib(["a b", "b c"]))
    assert set(idx.vocabulary) == {"a", "b", "c"}
    assert np.diff(idx.postings_ptr)[idx.vocabulary["b"]] == 2
    assert idx.n_docs == 2


def test_tokenizer_rule():
    assert tokenize("A-b a") == ["a", "b", "a"]
    idx = build_term_index(make_lib(["A-b a"]))
    a = idx.vocabulary["a"]
    assert idx.postings_tf[idx.postings_ptr[a]:idx.postings_ptr[a + 1]].tolist() == [2.0]


def test_df_matches_recount(corpus20):
    idx = build_term_index(corpus20)
    # one-pass recount oracle
    df = Counter()
    for description in corpus20.descriptions:
        df.update(set(tokenize(description)))
    for term, i in idx.vocabulary.items():
        assert np.diff(idx.postings_ptr)[i] == df[term]


def test_term_index_equality_is_identity():
    lib = make_lib(["a b", "b c"])
    idx = build_term_index(lib)
    assert (idx == idx) is True
    assert (idx == build_term_index(lib)) is False


def ranking_columns(ids):
    """The ranking columns ``_ranked`` reads: the ids as an object array,
    their id rank and the zero block, a read-only object array of
    ``(id, 0.0)`` for each id in id order, filled one element at a time."""
    block = np.empty(len(ids), dtype=object)
    for at, aid in enumerate(sorted(ids)):
        block[at] = (aid, 0.0)
    block.flags.writeable = False
    return np.array(ids, dtype=object), rank_by_id(ids), block


def counter_term_index(lib):
    """The term index built one document at a time with a Counter, postings
    ordered by a stable argsort of their terms: the oracle of the bulk
    build."""
    vocab, terms, docs, tfs, doc_len = {}, [], [], [], []
    for doc, description in enumerate(lib.descriptions):
        counts = Counter(tokenize(description))
        for term, c in counts.items():
            terms.append(vocab.setdefault(term, len(vocab)))
            docs.append(doc)
            tfs.append(c)
        doc_len.append(sum(counts.values()))
    ids = lib.ids()
    n = len(ids)
    terms_arr = np.asarray(terms, dtype=np.int64)
    order = np.argsort(terms_arr, kind="stable")
    df = np.bincount(terms_arr, minlength=len(vocab))
    ptr = np.zeros(len(vocab) + 1, dtype=np.int64)
    np.cumsum(df, out=ptr[1:])
    postings_term = terms_arr[order]
    postings_doc = np.asarray(docs, dtype=np.int64)[order]
    postings_tf = np.asarray(tfs, dtype=np.float64)[order]
    tfidf_idf = np.log((1.0 + n) / (1.0 + df))
    w = postings_tf * tfidf_idf[postings_term]
    total = np.bincount(postings_doc, weights=w, minlength=n)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = w / total[postings_doc]
    avgdl = float(np.mean(doc_len)) or 1.0
    return TermIndex(
        ranking=ranking_columns(ids), vocabulary=vocab,
        n_docs=n, postings_ptr=ptr,
        postings_term=postings_term, postings_doc=postings_doc, postings_tf=postings_tf,
        bm25_idf=np.log(1.0 + (n - df + 0.5) / (df + 0.5)),
        bm25_norm=1.2 * (1.0 - 0.75 + 0.75 * np.asarray(doc_len, dtype=np.float64) / avgdl),
        tfidf_idf=tfidf_idf,
        tfidf_weights=w, tfidf_norms=np.sqrt(np.bincount(postings_doc, weights=w * w, minlength=n)),
        jsd_p=p,
    )


def assert_same_value(a, b, name):
    assert type(a) is type(b), name
    if isinstance(b, np.ndarray):
        assert (a.dtype, a.shape, a.flags.writeable) == (b.dtype, b.shape,
                                                         b.flags.writeable), name
        if b.dtype == object:
            assert a.tolist() == b.tolist(), name
        else:
            assert a.tobytes() == b.tobytes(), name
    elif isinstance(b, dict):
        assert list(a.items()) == list(b.items()), name
    elif isinstance(b, tuple):
        assert len(a) == len(b), name
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_value(x, y, f"{name}[{i}]")
    else:
        assert a == b, name


def assert_same_term_index(got, want):
    for f in fields(TermIndex):
        if f.init:
            assert_same_value(getattr(got, f.name), getattr(want, f.name), f.name)


def random_descriptions(seed, count):
    """Descriptions over a small vocabulary with repeats, mixed case,
    punctuation, non-ASCII words and some tokenless ones."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(40)] + ["Straße", "naïve", "ÉCOLE", "日本", "x-ray", "A1b2"]
    seps = [" ", "  ", "-", ", ", ". ", "! ", "\t"]
    out = []
    for _ in range(count):
        if rng.random() < 0.05:
            out.append("!!! ???")
            continue
        picked = rng.choice(words, size=rng.integers(1, 15))
        text = "".join(str(w).upper() if rng.random() < 0.2 else str(w)
                       for pair in zip(picked, rng.choice(seps, size=len(picked)))
                       for w in pair)
        out.append(text)
    return out


BULK_EDGE_CASES = {
    "one-document": ["alpha beta alpha"],
    "one-tokenless": ["alpha beta", "!!! ???", "beta gamma"],
    "all-tokenless": ["!!! ???", "--", "日本"],
    "one-token-repeated": ["go go go go", "go", "stop go go"],
    "upper-and-non-ascii": ["ALPHA Beta", "Straße naïve ÉCOLE", "ǅungla İstanbul K"],
}


@pytest.mark.parametrize("case", [*BULK_EDGE_CASES, "random-1", "random-2", "random-3",
                                  "family-library", "family-catalog"])
def test_bulk_term_index_equals_the_counter_build(case):
    if case in BULK_EDGE_CASES:
        lib = make_lib(BULK_EDGE_CASES[case])
    elif case.startswith("random-"):
        seed = int(case.split("-")[1])
        lib = make_lib(random_descriptions(seed, 50 * seed), prefix=f"r{seed}-")
    elif case == "family-library":
        lib = make_family_library(n_families=12, per_family=25, seed=21)
    else:
        lib = family_catalog_case()[0]
    assert_same_term_index(build_term_index(lib), counter_term_index(lib))


# --- tf-idf ---------------------------------------------------------------

def test_tfidf_self_similarity_first():
    lib = make_lib(["alpha beta gamma", "delta epsilon zeta", "eta theta iota"])
    idx = build_term_index(lib)
    ranked = score_tfidf(idx, "delta epsilon zeta")
    assert ranked.entries[0][0] == "d01"


def test_tfidf_out_of_vocab_all_zero():
    idx = build_term_index(make_lib(["alpha beta", "gamma delta"]))
    ranked = score_tfidf(idx, "unknown words only")
    assert all(score == 0.0 for _, score in ranked.entries)
    assert ranked.ids() == ["d00", "d01"]  # tied, so by id


def test_tfidf_matches_oracle(corpus20):
    idx = build_term_index(corpus20)
    ranked = score_tfidf(idx, "w1 w2 w5 w9")
    oracle = oracle_tfidf_scores(corpus20, "w1 w2 w5 w9")
    got = dict(ranked.entries)
    for i, aid in enumerate(corpus20.artifact_ids):
        assert got[aid] == pytest.approx(oracle[i], abs=1e-9)


@pytest.mark.parametrize("intent", [
    "w1 w2 w5 w9",
    " ".join(f"w{i}" for i in range(30)),  # many terms per document
    "w3 w3 w3 w7 w3",  # repeated terms
    "w4 nosuchword w4 alsonot",  # unknown terms among known ones
    "nosuchword alsonot",  # no known term
    "",
], ids=["some", "all", "repeated", "unknown", "none", "empty"])
def test_tfidf_sparse_dots_equal_dense_bits(corpus20, intent):
    # "common" is in every document, so its idf and its query weight are 0
    for lib in (corpus20, make_lib(["common alpha beta", "common beta beta", "common"])):
        idx = build_term_index(lib)
        for text in (intent, intent + " common alpha common"):
            q = _tfidf_query(idx, text)
            dense = np.bincount(idx.postings_doc, minlength=idx.n_docs,
                                weights=idx.tfidf_weights * q[idx.postings_term])
            assert _tfidf_dots(idx, q).tobytes() == dense.tobytes()


# --- bm25 -----------------------------------------------------------------

def test_bm25_absent_term_contributes_zero():
    idx = build_term_index(make_lib(["alpha beta", "beta gamma"]))
    with_term = score_bm25(idx, "alpha")
    with_extra = score_bm25(idx, "alpha notindocs")
    assert dict(with_term.entries) == dict(with_extra.entries)


def test_bm25_shorter_doc_wins():
    lib = make_lib(["target filler1 filler2 filler3 filler4 filler5", "target pad"])
    idx = build_term_index(lib)
    ranked = score_bm25(idx, "target")
    assert ranked.entries[0][0] == "d01"  # shorter doc, same tf


def test_bm25_matches_oracle(corpus20):
    idx = build_term_index(corpus20)
    intent = "w0 w3 w3 w7"
    ranked = score_bm25(idx, intent)
    oracle = oracle_bm25_scores(corpus20, intent)
    got = dict(ranked.entries)
    for i, aid in enumerate(corpus20.artifact_ids):
        assert got[aid] == pytest.approx(oracle[i], abs=1e-9)


def test_bm25_nonnegative(corpus20):
    idx = build_term_index(corpus20)
    ranked = score_bm25(idx, "w1 w4 w20")
    assert all(score >= 0 for _, score in ranked.entries)
    assert len(ranked.entries) == len(corpus20)


# --- lsi ------------------------------------------------------------------

def test_lsi_full_rank_equals_tfidf(corpus20):
    idx = build_term_index(corpus20)
    intent = "w2 w6 w11"
    full = score_lsi(idx, intent, rank=min(idx.n_docs, len(idx.vocabulary)))
    tfidf = score_tfidf(idx, intent)
    assert full.ids() == tfidf.ids()


def test_lsi_rank1_corpus_ties_by_id():
    idx = build_term_index(make_lib(["same words here"] * 4))
    ranked = score_lsi(idx, "same words", rank=2)
    assert ranked.ids() == ["d00", "d01", "d02", "d03"]


def test_lsi_two_topic_separation():
    lib = make_lib([
        "cats felines kittens purring",
        "kittens cats felines meowing",
        "stocks bonds trading markets",
        "markets trading bonds finance",
    ])
    idx = build_term_index(lib)
    ranked = score_lsi(idx, "felines purring cats", rank=2)
    assert set(ranked.ids()[:2]) == {"d00", "d01"}


def reference_lsi_scores(idx, intent, rank):
    """LSI as a fresh SVD on every query: the oracle for the kept space."""
    q = np.bincount([idx.vocabulary[t] for t in tokenize(intent) if t in idx.vocabulary],
                    minlength=len(idx.vocabulary)) * np.log((1.0 + idx.n_docs) / (1.0 + np.diff(idx.postings_ptr)))
    X = np.zeros((idx.n_docs, len(idx.vocabulary)))
    X[idx.postings_doc, idx.postings_term] = (
        idx.postings_tf * np.log((1.0 + idx.n_docs) / (1.0 + np.diff(idx.postings_ptr)))[idx.postings_term])
    basis = np.linalg.svd(X, full_matrices=False)[2][:rank].T
    docs_latent, q_latent = X @ basis, q @ basis
    qn, dn = np.linalg.norm(q_latent), np.linalg.norm(docs_latent, axis=1)
    scores = np.zeros(idx.n_docs)
    mask = (dn > 0) & (qn > 0)
    scores[mask] = (docs_latent[mask] @ q_latent) / (dn[mask] * qn)
    scores[np.abs(scores) < 1e-10] = 0.0
    return scores


def test_lsi_runs_one_svd_per_index_and_rank(corpus20, monkeypatch):
    idx = build_term_index(corpus20)
    queries = [(rank, intent) for rank in (3, 8) for intent in ("w2 w6 w11", "w1 w1 w29")]
    want = {(rank, intent): _ranked(idx.ranking, intent,
                                    reference_lsi_scores(idx, intent, rank)).entries
            for rank, intent in queries}
    real_svd = np.linalg.svd
    svds = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svds.append(a) or real_svd(*a, **kw))
    for rank, intent in queries * 2:
        assert score_lsi(idx, intent, rank=rank).entries == want[rank, intent]
    assert len(svds) == 2  # one per rank; repeated and later queries reuse it


def test_lsi_clamps_rank(corpus20, caplog):
    idx = build_term_index(corpus20)
    with caplog.at_level("WARNING"):
        ranked = score_lsi(idx, "w1", rank=10_000)
    assert len(ranked.entries) == 20
    assert any("clamped" in r.message for r in caplog.records)


@pytest.mark.parametrize("rank, message", [
    (-1, "rank must be >= 1"), (0, "rank must be >= 1"),
    (True, "rank must be an integer"), (2.5, "rank must be an integer"),
])
def test_lsi_rejects_a_rank_that_is_not_a_positive_integer(corpus20, rank, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        score_lsi(build_term_index(corpus20), "w1", rank=rank)


def test_lsi_clamp_is_logged_once_per_index_and_rank(corpus20, caplog):
    idx = build_term_index(corpus20)
    with caplog.at_level("WARNING"):
        for intent in ("w1", "w2 w3", "w1 w4") * 3:
            assert (score_lsi(idx, intent, rank=500).entries
                    == score_lsi(idx, intent, rank=20).entries)
        score_lsi(idx, "w5", rank=600)
        score_lsi(build_term_index(corpus20), "w5", rank=500)
    clamped = [r.getMessage() for r in caplog.records if "clamped" in r.message]
    assert clamped == ["LSI rank 500 clamped to 20", "LSI rank 600 clamped to 20",
                       "LSI rank 500 clamped to 20"]


# --- jsd ------------------------------------------------------------------

def test_jsd_identical_is_zero():
    p = np.array([0.25, 0.25, 0.5])
    assert jensen_shannon_divergence(p, p) == pytest.approx(0.0, abs=1e-12)


def test_jsd_disjoint_is_one():
    assert jensen_shannon_divergence(
        np.array([1.0, 0.0]), np.array([0.0, 1.0])
    ) == pytest.approx(1.0, abs=1e-12)


def test_jsd_half_half_vs_point():
    # frozen from direct formula evaluation
    value = jensen_shannon_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    assert value == pytest.approx(0.311278, abs=1e-6)
    assert value == pytest.approx(oracle_jsd([0.5, 0.5], [1.0, 0.0]), abs=1e-12)


def test_jsd_similarity_in_unit_interval(corpus20):
    idx = build_term_index(corpus20)
    ranked = score_jsd(idx, "w5 w6 w7")
    for _, score in ranked.entries:
        assert 0.0 <= score <= 1.0 + 1e-12


def oracle_jsd_scores(lib, intent):
    """1 - JSD per document from dense tf-idf distributions, uniform when a
    vector has no weight."""
    docs = [tokenize(d) for d in lib.descriptions]
    n = len(docs)
    vocab = sorted({t for d in docs for t in d})
    idf = {t: math.log((1 + n) / (1 + sum(t in d for d in docs))) for t in vocab}

    def dist(tokens):
        counts = Counter(tokens)
        w = [counts[t] * idf[t] for t in vocab]
        total = sum(w)
        return [x / total for x in w] if total > 0 else [1 / len(vocab)] * len(vocab)

    q = dist([t for t in tokenize(intent) if t in idf])
    return [1.0 - oracle_jsd(dist(d), q) for d in docs]


@pytest.mark.parametrize("docs, intent", [
    (None, "w5 w6 w7 w5"),
    (["common", "common alpha", "!!!"], "alpha common"),
    (["common", "common alpha", "!!!"], "unknown words only"),
])
def test_jsd_matches_dense_oracle(corpus20, docs, intent):
    lib = corpus20 if docs is None else make_lib(docs)
    got = dict(score_jsd(build_term_index(lib), intent).entries)
    for aid, want in zip(lib.artifact_ids, oracle_jsd_scores(lib, intent)):
        assert got[aid] == pytest.approx(want, abs=1e-9)


def dense_jsd_scores(idx, q):
    """1 - JSD for every document over all postings: the pass ``score_jsd``
    made before it rescored only the documents sharing a term with the
    intent, kept as the bit-exact oracle (without the weightless fix-up)."""
    doc, p = idx.postings_doc, idx.jsd_p
    qt = q[idx.postings_term]
    with np.errstate(divide="ignore", invalid="ignore"):
        m = 0.5 * (p + qt)
        terms = (np.where(p > 0, p * np.log2(p / m), 0.0)
                 + np.where(qt > 0, qt * np.log2(qt / m), 0.0))
    div = 0.5 * (np.bincount(doc, weights=terms, minlength=idx.n_docs)
                 + 1.0 - np.bincount(doc, weights=qt, minlength=idx.n_docs))
    return 1.0 - div


def dense_score_jsd(idx, intent):
    q = _distribution(_tfidf_query(idx, intent))
    scores = dense_jsd_scores(idx, q)
    total = np.bincount(idx.postings_doc, weights=idx.tfidf_weights, minlength=idx.n_docs)
    scores[total <= 0] = 1.0 - jensen_shannon_divergence(_distribution(np.zeros(len(q))), q)
    return _ranked(idx.ranking, intent, scores)


def family_catalog_case(count=200):
    from perfsuite import gen  # the benchmark's generator, importable from the repo root

    artifacts = gen.family_catalog(20, 25, "jsd-oracle")
    lib = library(*((a["id"], a["name"], a["description"]) for a in artifacts))
    stream = gen.IntentMaker(artifacts).stream("jsd-oracle/intents")
    return lib, [next(stream)["intent"] for _ in range(count)]


# "common" is in every document (idf 0), so "common" alone has no weight
# and the document "common" is weightless; "!!!" has no tokens; "nosuch"
# is unknown, so an intent of unknown or idf-0 terms has a uniform q.
ILL_CONDITIONED_DOCS = {
    "weightless": ["common alpha", "common beta beta", "common", "common gamma"],
    "no-tokens": ["alpha beta", "!!!", "beta gamma", "delta"],
    "one-doc": ["alpha beta"],
}
ILL_CONDITIONED_INTENTS = ["nosuch", "", "common", "common common", "alpha alpha beta alpha",
                           "beta common nosuch beta", "gamma"]


@pytest.mark.parametrize("case", [*ILL_CONDITIONED_DOCS, "family-catalog"])
def test_sparse_jsd_equals_dense_bits(case):
    if case == "family-catalog":
        lib, intents = family_catalog_case()
    else:
        lib, intents = make_lib(ILL_CONDITIONED_DOCS[case]), ILL_CONDITIONED_INTENTS
    idx = build_term_index(lib)
    for intent in intents:
        assert (entry_bits(score_jsd(idx, intent).entries)
                == entry_bits(dense_score_jsd(idx, intent).entries)), intent


def decimal_jsd_scores(lib, intent):
    """1 - JSD per document in 40-digit decimal arithmetic, straight from the
    descriptions: tf-idf distributions (uniform when a vector has no
    weight) and the divergence summed over their union support."""
    with localcontext() as ctx:
        ctx.prec = 40
        docs = [Counter(tokenize(d)) for d in lib.descriptions]
        n = len(docs)
        vocab = list(dict.fromkeys(t for d in docs for t in d))
        idf = {t: (Decimal(1 + n) / (1 + sum(t in d for d in docs))).ln() for t in vocab}

        def dist(counts):
            w = [counts[t] * idf[t] for t in vocab]
            total = sum(w)
            return [x / total for x in w] if total > 0 else [Decimal(1) / len(vocab)] * len(vocab)

        def div(a, m):
            return a * (a / m).ln() / Decimal(2).ln() if a > 0 else 0

        q = dist(Counter(t for t in tokenize(intent) if t in idf))
        return [1 - sum(div(a, (a + b) / 2) + div(b, (a + b) / 2)
                        for a, b in zip(dist(d), q)) / 2 for d in docs]


# Besides ILL_CONDITIONED_DOCS: d00 holds "beta" at p << q for the intent
# "beta"; d01 is near-identical to "alpha beta" and to the intent of 999
# alphas and 1,000 betas; d03 equals "gamma delta" and d04 is one term.
EXTREME_DOCS = ["alpha " * 1000 + "beta", "alpha " * 1000 + "beta " * 1001, "beta gamma",
                "gamma delta", "delta"]
EXTREME_INTENTS = ["beta", "alpha beta", "alpha " * 999 + "beta " * 1000, "gamma delta",
                   "delta", "nosuch"]


@pytest.mark.parametrize("case", [*ILL_CONDITIONED_DOCS, "extreme"])
def test_jsd_raw_scores_match_the_decimal_reference(case, monkeypatch):
    if case == "extreme":
        lib, intents = make_lib(EXTREME_DOCS), EXTREME_INTENTS
    else:
        lib, intents = make_lib(ILL_CONDITIONED_DOCS[case]), ILL_CONDITIONED_INTENTS
    monkeypatch.setattr(baselines, "round_scores", lambda scores: scores)  # the raw scores
    idx = build_term_index(lib)
    for intent in intents:
        got = dict(score_jsd(idx, intent).entries)
        for aid, want in zip(lib.artifact_ids, decimal_jsd_scores(lib, intent)):
            assert abs(Decimal(got[aid]) - want) <= Decimal("1e-15"), (intent, aid)


def test_jsd_scores_documents_sharing_no_term_positive_zero():
    from perfsuite import gen  # the benchmark's generator and its lexical catalog

    artifacts = gen.family_catalog(40, 50, "7/lexical")
    lib = library(*((a["id"], a["name"], a["description"]) for a in artifacts))
    idx = build_term_index(lib)
    stream = gen.IntentMaker(artifacts).stream("7/lexical-intents")
    doc_terms = [set(tokenize(d)) for d in lib.descriptions]
    for intent in [next(stream)["intent"] for _ in range(20)]:
        assert _tfidf_query(idx, intent).any()  # q is not the uniform fallback
        scores = dict(score_jsd(idx, intent).entries)
        words = set(tokenize(intent))
        disjoint = [aid for aid, terms in zip(lib.artifact_ids, doc_terms) if not terms & words]
        assert disjoint
        assert {scores[aid].hex() for aid in disjoint} == {(0.0).hex()}, intent


def test_jsd_identical_doc_ranks_first():
    lib = make_lib(["alpha beta gamma", "delta epsilon zeta"])
    idx = build_term_index(lib)
    ranked = score_jsd(idx, "alpha beta gamma")
    assert ranked.entries[0][0] == "d00"
    assert ranked.entries[0][1] == pytest.approx(1.0, abs=1e-9)


# --- ranking --------------------------------------------------------------

# d00 and d01 score equal in exact arithmetic: in the first corpus they
# hold the same terms; in the second, swapping every a<i> with b<i> maps
# the corpus and the intent to themselves.  Summed in different orders,
# their float scores differ in the last bit unless rounded.
SAME_TERMS = (["w5 w2 w6 w8", "w2 w8 w5 w6", "w11 w0 w8", "w6 w1 w10",
               "w5 w9 w5 w8 w3", "w1 w5 w8"], "w10 w2 w8 w3")
MIRRORED = (["b0 b0 b0 b2 b2 b1 b1", "a0 a0 a0 a1 a1 a2 a2", "a0 a1 b0 b1 pad", "pad"],
            "a0 b0 a0 b0 a1 b1 a2 b2")


@pytest.mark.parametrize("scorer, case", [
    (score_tfidf, SAME_TERMS),
    (score_tfidf, MIRRORED),
    (score_bm25, MIRRORED),
    (score_lsi, MIRRORED),
    (score_jsd, MIRRORED),
], ids=["tfidf-same-terms", "tfidf-mirrored", "bm25-mirrored", "lsi-mirrored",
        "jsd-mirrored"])
def test_exact_ties_rank_by_id(scorer, case):
    docs, intent = case
    ranked = scorer(build_term_index(make_lib(docs)), intent)
    scores = dict(ranked.entries)
    assert scores["d00"] == scores["d01"]
    assert ranked.ids().index("d00") < ranked.ids().index("d01")


def _unsorted_lib(descriptions, ids=("z1", "a1", "m1")):
    """Catalog order z1, a1, m1 by default: not the id order."""
    return library(*((aid, aid, desc) for aid, desc in zip(ids, descriptions)))


@pytest.mark.parametrize("scorer", [score_tfidf, score_bm25, score_lsi, score_jsd],
                         ids=["tfidf", "bm25", "lsi", "jsd"])
def test_unknown_intent_ties_rank_by_id(scorer):
    idx = build_term_index(_unsorted_lib(["alpha beta", "gamma delta", "epsilon zeta"]))
    ranked = scorer(idx, "unknownword")
    assert ranked.ids() == ["a1", "m1", "z1"]
    assert len(set(score for _, score in ranked.entries)) == 1


@pytest.mark.parametrize("scorer", [score_tfidf, score_bm25, score_lsi, score_jsd],
                         ids=["tfidf", "bm25", "lsi", "jsd"])
def test_empty_vocabulary_ties_rank_by_id(scorer):
    idx = build_term_index(_unsorted_lib(["!!!", "...", "--"]))
    assert idx.vocabulary == {}
    ranked = scorer(idx, "parse json")
    assert ranked.ids() == ["a1", "m1", "z1"]
    scores = [score for _, score in ranked.entries]
    assert len(set(scores)) == 1 and all(math.isfinite(s) for s in scores)


# Catalog order, string order and numeric order all differ: "a10" < "a9"
# as strings, and the non-ASCII ids sort after every ASCII one.
ODD_IDS = ("a9", "a10", "ä2", "b", "a1", "Ω", "B", "a100")


def reference_order(ids, scores):
    """The rule the baselines ranked by before ``np.lexsort``, kept as the
    oracle; NaN scores, which that rule did not order, come last in id order,
    as ``np.lexsort`` puts them."""
    def key(i):
        nan = math.isnan(scores[i])
        return nan, 0.0 if nan else -scores[i], ids[i]
    return sorted(range(len(ids)), key=key)


NAN = float("nan")


def entry_bits(entries):
    return [(aid, float(score).hex()) for aid, score in entries]


def negative_zeros(entries):
    """The ids whose score is -0.0: none, since every zero is +0.0."""
    return [aid for aid, score in entries if score == 0 and math.copysign(1.0, score) < 0]


def assert_reference_order(ranked, ids):
    """``ranked`` holds every id once, ordered by ``reference_order`` of its
    scores, and reports no -0.0."""
    assert negative_zeros(ranked.entries) == []
    scores = dict(ranked.entries)
    assert len(ranked.entries) == len(scores) == len(ids)
    order = reference_order(ids, [scores[aid] for aid in ids])
    assert entry_bits(ranked.entries) == entry_bits([(ids[i], scores[ids[i]]) for i in order])


RANKED_CASES = [
    (ODD_IDS, [0.25] * 8),  # all tied
    (ODD_IDS, [0.0, -0.0, 0.5, -0.0, 0.0, 1.0, -0.0, 0.0]),
    (ODD_IDS, [0.5, 0.5 + 1e-14, 0.5 - 1e-14, 0.3 + 4e-13, 0.3, 0.3 - 2e-13,
               0.5 + 3e-13, 0.3 + 6e-13]),  # differ past 12 decimals
    (("a10", "a9", "a1", "a100", "a2"), [0.1, 0.1, 0.1, 0.2, 0.1]),
    (("日本", "é", "e", "ß", "z", "É"), [0.7, 0.7, 0.7, 0.7, 0.7, 0.7]),
    (("only",), [0.3]),
    (("only",), [-0.0]),
    # each row keeps its rounded score's bits, a zero's as +0.0, and its place:
    # positives, the zero block in id order, negatives, then NaNs in id order
    (ODD_IDS, [0.0] * 8),
    (ODD_IDS, [-0.0] * 8),
    (ODD_IDS, [0.0, -0.0, 0.5, -0.0, 0.0, -0.25, -0.0, 0.0]),
    (ODD_IDS, [-0.3, -0.1, -0.3, -0.7, -0.1 - 1e-14, -0.2, -0.05, -0.3]),  # LSI's negatives
    (ODD_IDS, [NAN, 0.5, NAN, 0.0, -0.2, -0.0, NAN, 0.5]),
    (ODD_IDS, [NAN] * 8),
    (ODD_IDS, [1e-13, -1e-13, 4e-13, -6e-13, 0.0, -0.0, 0.1, -0.1]),  # each zero is +0.0
    (ODD_IDS, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.9]),  # only the last id's row is nonzero
    (ODD_IDS, [0.0, 0.0, 0.0, 0.0, 0.9, 0.0, 0.0, 0.0]),  # only the first id's row is nonzero
    (("only",), [0.0]),
    (("only",), [NAN]),
    (("only",), [-0.5]),
    (("only",), [2e-13]),
]


@pytest.mark.parametrize("ids, scores", RANKED_CASES)
def test_ranked_matches_the_reference_rule(ids, scores):
    rounded = round_scores(np.asarray(scores))
    got = _ranked(ranking_columns(ids), "x", np.asarray(scores))
    want = [(ids[i], float(rounded[i])) for i in reference_order(ids, rounded.tolist())]
    assert entry_bits(got.entries) == entry_bits(want)
    assert negative_zeros(got.entries) == []


def test_ranked_matches_the_reference_rule_on_random_ties():
    rng = np.random.default_rng(3)
    ids = [f"{rng.choice(['a', 'b', 'é'])}{rng.integers(0, 1000)}" for _ in range(300)]
    ids = list(dict.fromkeys(ids))
    scores = rng.integers(-3, 4, size=len(ids)) / 4 + rng.normal(scale=1e-14, size=len(ids))
    rounded = round_scores(scores)
    got = _ranked(ranking_columns(ids), "x", scores)
    want = [(ids[i], float(rounded[i])) for i in reference_order(ids, rounded.tolist())]
    assert entry_bits(got.entries) == entry_bits(want)


def lexsort_ranked(ids, id_rank, intent, scores):
    """The ranking before the zero block: every row rounded, then one lexsort
    over the negated scores and the id rank, kept as the oracle of
    ``_ranked``."""
    scores = round_scores(scores)
    order = np.lexsort((id_rank, -scores))
    return RankedList(intent=intent,
                      entries=list(zip(ids[order].tolist(), scores[order].tolist())))


@pytest.mark.parametrize("ids, scores", RANKED_CASES)
def test_ranked_equals_the_full_lexsort(ids, scores):
    ranking, scores = ranking_columns(ids), np.asarray(scores)
    got = _ranked(ranking, "x", scores)
    want = lexsort_ranked(*ranking[:2], "x", scores)
    assert entry_bits(got.entries) == entry_bits(want.entries)


@pytest.mark.parametrize("seed", range(4))
def test_ranked_equals_the_full_lexsort_on_random_mixes(seed):
    rng = np.random.default_rng(seed)
    ids = list(dict.fromkeys(f"{rng.choice(['a', 'b', 'é', 'B'])}{rng.integers(0, 500)}"
                             for _ in range(200)))
    pool = np.array([0.0, -0.0, NAN, 0.5, -0.5, 1e-13, -1e-13, 0.25 + 1e-14, 0.25, -0.75])
    scores = pool[rng.integers(0, len(pool), size=len(ids))]
    scores[rng.random(len(ids)) < 0.6] = 0.0  # mostly +0.0, as in a lexical ranking
    ranking = ranking_columns(ids)
    got = _ranked(ranking, "x", scores)
    want = lexsort_ranked(*ranking[:2], "x", scores)
    assert entry_bits(got.entries) == entry_bits(want.entries)


@pytest.fixture()
def ranked_as_lexsort(monkeypatch):
    """Checks each ``_ranked`` call a scorer makes against the full lexsort."""
    def ranked(ranking, intent, scores):
        got = _ranked(ranking, intent, scores)
        want = lexsort_ranked(*ranking[:2], intent, scores)
        assert entry_bits(got.entries) == entry_bits(want.entries), intent
        return got

    monkeypatch.setattr(baselines, "_ranked", ranked)


def random_word_vectors(path, lib, seed, dim=6):
    """Seeded vectors for three quarters of the catalog's words, so that some
    descriptions score 0 and some cosines are negative."""
    rng = np.random.default_rng(seed)
    words = sorted({t for d in lib.descriptions for t in tokenize(d)})
    with open(path, "w", encoding="utf-8") as fh:
        for word in words:
            if rng.random() < 0.75:
                fh.write(word + " " + " ".join(f"{v:.6f}" for v in rng.normal(size=dim)) + "\n")
    return load_word_vectors(path)


# LSI is left out on the benchmark's catalog: its 2,000 x 6,400 dense SVD
# is too large for a unit test.
@pytest.mark.parametrize("catalog, scorer", [
    *(("gate", s) for s in ("bm25", "tfidf", "jsd", "lsi", "wordavg")),
    *(("perfsuite-7-lexical", s) for s in ("bm25", "tfidf", "jsd", "wordavg")),
])
def test_scorers_rank_catalogs_as_the_full_lexsort(ranked_as_lexsort, catalog, scorer,
                                                   tmp_path):
    if catalog == "gate":
        lib = make_family_library(n_families=12, per_family=25, seed=21)
        intents = gate_intents(lib)
    else:
        from perfsuite import gen  # the benchmark's generator and its lexical catalog

        artifacts = gen.family_catalog(40, 50, "7/lexical")
        lib = library(*((a["id"], a["name"], a["description"]) for a in artifacts))
        stream = gen.IntentMaker(artifacts).stream("7/lexical-intents")
        intents = [next(stream)["intent"] for _ in range(100)] + ["no known term"]
    if scorer == "wordavg":
        table = random_word_vectors(tmp_path / "vectors.txt", lib, seed=5)
        results = list(map(wordavg_scorer(table, lib), intents[:10] + intents[-1:]))
    else:
        idx = build_term_index(lib)
        results = [getattr(baselines, f"score_{scorer}")(idx, intent) for intent in intents]
    for ranked in results:
        assert_reference_order(ranked, lib.ids())


# duplicated descriptions tie; "!!!" has no terms; "pad" matches nothing
ODD_DOCS = ["parse json fast", "parse json fast", "yaml loader", "yaml loader",
            "!!!", "parse json fast", "pad", "json pad parse"]


@pytest.mark.parametrize("scorer", [score_tfidf, score_bm25, score_lsi, score_jsd],
                         ids=["tfidf", "bm25", "lsi", "jsd"])
@pytest.mark.parametrize("docs, intent", [
    (ODD_DOCS, "json parse"),
    (ODD_DOCS, "unknownword"),
    (ODD_DOCS[:1], "json"),
], ids=["ties", "all-tied", "n1"])
def test_scorers_order_by_the_reference_rule(scorer, docs, intent):
    lib = _unsorted_lib(docs, ODD_IDS)
    assert_reference_order(scorer(build_term_index(lib), intent), lib.ids())


def test_wordavg_orders_by_the_reference_rule(tmp_path):
    # "near" is "red" turned by 1e-7 rad: its cosine with "red" is 1 - 5e-15,
    # equal to 1 once rounded, and "anti" gives a cosine of -1; "tilt" and
    # "bent" are orthogonal, but their float cosine is about -3e-17
    path = tmp_path / "vectors.txt"
    path.write_text("red 1.0 0.0\nnear 1.0 1e-7\ngreen 0.0 1.0\nanti -1.0 0.0\n"
                    "tilt 0.3 0.1\nbent -0.1 0.3\n")
    table = load_word_vectors(path)
    for descriptions in (["near", "red", "green", "near", "anti", "red near", "x", "red"],
                         ["green"] * 8, ["near"], ["bent", "tilt"]):
        lib = _unsorted_lib(descriptions, ODD_IDS)
        for intent in ("red", "tilt"):
            assert_reference_order(wordavg_scorer(table, lib)(intent), lib.ids())


def test_ranked_lists_belong_to_their_caller(tmp_path):
    # every ranking shares the index's (id, 0.0) tuples but not its list, so
    # editing one result leaves the zero block and the next query's list alone
    lib = _unsorted_lib(ODD_DOCS, ODD_IDS)
    idx = build_term_index(lib)
    zero_entries = idx.ranking[2]
    assert not zero_entries.flags.writeable
    assert zero_entries.tolist() == [(aid, 0.0) for aid in sorted(ODD_IDS)]
    table = random_word_vectors(tmp_path / "vectors.txt", lib, seed=2)
    scorers = [lambda q, f=f: f(idx, q) for f in (score_tfidf, score_bm25, score_lsi, score_jsd)]
    for scorer in scorers + [wordavg_scorer(table, lib)]:
        for intent in ("json parse", "unknownword"):
            want = entry_bits(scorer(intent).entries)
            got = scorer(intent)
            got.entries[-1] = ("edited", 1.0)
            got.entries.append(("appended", 2.0))
            got.entries.sort(reverse=True)
            assert idx.ranking[2] is zero_entries
            assert zero_entries.tolist() == [(aid, 0.0) for aid in sorted(ODD_IDS)]
            assert entry_bits(scorer(intent).entries) == want


# --- ranked-list gate -----------------------------------------------------

def gate_intents(lib, count=50, seed=31):
    """Perturbed descriptions; some repeat a term, some add a catalog word or
    an unknown one, and the last knows no term."""
    rng = np.random.default_rng(seed)
    words = sorted({w for d in lib.descriptions for w in d.split()})
    intents = []
    for i, sample in enumerate(perturbed_intents(lib, count, seed=seed)):
        tokens = sample.intent.split()
        if i % 3 == 0:
            tokens.append(tokens[0])
        if i % 4 == 0:
            tokens.append(str(rng.choice(words)))
        if i % 5 == 0:
            tokens.append("zzunknown")
        intents.append(" ".join(tokens))
    intents[-1] = "no known term"
    return intents


# The sha256 of each scorer's (id, score.hex()) lists for 50 intents on a
# seeded 300-artifact catalog whose id order ("fam10-" < "fam2-") is not
# its catalog order.  The scorers return scores rounded by round_scores,
# so the gate pins each formula to 12 decimals, the rounding and the
# tie-break.  A change of summation order moves only last bits, which the
# rounding hides: summing JSD's gathered postings in reverse order leaves
# its sha256 equal.  test_sparse_jsd_equals_dense_bits checks JSD against
# the pass over all postings after rounding, and
# test_jsd_raw_scores_match_the_decimal_reference checks its raw scores.
RANKED_GATE_SHA256 = {
    "bm25": "0230d284a1a23f4a8722af988cdbefa6e081bed47db6d0c7ec737be012af8899",
    "tfidf": "3d1473897227c6d1f834f73b44961951b89aaec2f8301fa8eaba785229b8ff37",
    "jsd": "a51364eab232ff26c65ef807aff1be05bf6b5dca5261b8c5a858d1def64ebb48",
    "lsi": "e96825791c2c8109c781a8359b62a1575661ff441c17327c89de6dcedff4e28d",
}


@pytest.fixture(scope="module")
def gate_index():
    lib = make_family_library(n_families=12, per_family=25, seed=21)
    return lib, build_term_index(lib)


@pytest.mark.parametrize("name, scorer", [
    ("bm25", score_bm25), ("tfidf", score_tfidf), ("jsd", score_jsd), ("lsi", score_lsi),
])
def test_ranked_lists_are_pinned(gate_index, name, scorer):
    lib, idx = gate_index
    digest = hashlib.sha256()
    for intent in gate_intents(lib):
        entries = scorer(idx, intent).entries
        assert len(entries) == len(lib)
        digest.update(json.dumps([[aid, score.hex()] for aid, score in entries]).encode())
    assert digest.hexdigest() == RANKED_GATE_SHA256[name]


# --- word average ---------------------------------------------------------

@pytest.fixture()
def vector_file(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text(
        "4 2\n"
        "red 1.0 0.0\n"
        "green 0.0 1.0\n"
        "blue 0.5 0.5\n"
        "cyan -1.0 2.0\n"
    )
    return path


def test_wordavg_single_word_doc(vector_file):
    table = load_word_vectors(vector_file)
    lib = make_lib(["red", "green"])
    ranked = wordavg_scorer(table, lib)("red")
    assert ranked.entries[0] == ("d00", pytest.approx(1.0))


def test_wordavg_out_of_table_scores_zero(vector_file):
    table = load_word_vectors(vector_file)
    lib = make_lib(["unknownword anothermiss", "red"])
    ranked = wordavg_scorer(table, lib)("red")
    assert dict(ranked.entries)["d00"] == 0.0


def test_wordavg_mean_matches_hand_value(vector_file):
    table = load_word_vectors(vector_file)
    lib = make_lib(["red green blue"])
    # hand arithmetic: mean = (0.5, 0.5); cosine with red (1,0) = 0.7071...
    ranked = wordavg_scorer(table, lib)("red")
    assert ranked.entries[0][1] == pytest.approx(0.5 / math.sqrt(0.5), abs=1e-9)


def test_wordavg_malformed_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("red 1.0 oops\n")
    with pytest.raises(ValueError, match="line 1"):
        load_word_vectors(path)


@pytest.mark.parametrize("text, message", [
    ("red 1.0 0.0\njson\n", "line 2: word 'json' has no values"),
    ("json\nred 1.0\n", "line 1: word 'json' has no values"),
    ("2 0\njson\nparse\n", "line 1: header dim 0 is not >= 1"),
    ("2 -3\njson 1.0\n", "line 1: header dim -3 is not >= 1"),
], ids=["word-alone", "first-word-alone", "header-dim-0", "header-dim-negative"])
def test_wordavg_file_that_would_score_nothing_names_its_line(tmp_path, text, message):
    # a 0-dimensional table would score every artifact 0
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^word-vector file {re.escape(str(path))}: {message}$"):
        load_word_vectors(path)


@pytest.mark.parametrize("data, message", [
    (b"red 1.0\ngr\xffen 2.0\n", "'utf-8' codec can't decode byte 0xff"),
    (b"\n \n", "no vectors"),
], ids=["not-utf-8", "empty"])
def test_word_vector_errors_name_the_file(tmp_path, data, message):
    path = tmp_path / "vectors.txt"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"^word-vector file {re.escape(str(path))}: {message}"):
        load_word_vectors(path)


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
def test_wordavg_non_finite_value_names_its_line(tmp_path, value):
    # float() parses each of these; a NaN vector would zero every intent with its word
    path = tmp_path / "bad.txt"
    path.write_text(f"green 1.0 0.0\nred {value} 1.0\n")
    with pytest.raises(ValueError, match="line 2: non-finite value"):
        load_word_vectors(path)


# "red 1" is a word and its one value; only two integers make a "count dim" header
@pytest.mark.parametrize("text", ["red 1\ngreen 2\n", "2 1\nred 1\ngreen 2\n"],
                         ids=["one-dimensional-without-header", "two-integers-are-the-header"])
def test_one_dimensional_vectors_keep_their_first_word(tmp_path, text):
    path = tmp_path / "vectors.txt"
    path.write_text(text)
    table = load_word_vectors(path)
    assert table.dim == 1
    assert {w: v.tolist() for w, v in table.vectors.items()} == {"red": [1.0], "green": [2.0]}


def loop_wordavg_scores(table, lib, intent):
    """The word-average cosines as they were before ``wordavg_scorer``:
    every description averaged and its norm taken on every intent, and one
    dot per description."""
    qvec = baselines._avg_vector(table, intent)
    qn = np.linalg.norm(qvec)
    scores = np.zeros(len(lib))
    for i, description in enumerate(lib.descriptions):
        dvec = baselines._avg_vector(table, description)
        dn = np.linalg.norm(dvec)
        if qn > 0 and dn > 0:
            scores[i] = float(np.dot(qvec, dvec) / (qn * dn))
    return scores


def loop_score_wordavg(table, lib, intent):
    """``loop_wordavg_scores`` ranked by the full lexsort.  Kept as the oracle."""
    ids = np.array(lib.artifact_ids, dtype=object)
    return lexsort_ranked(ids, rank_by_id(lib.artifact_ids), intent,
                          loop_wordavg_scores(table, lib, intent))


@pytest.mark.parametrize("catalog", ["gate", "perfsuite-7-lexical"])
@pytest.mark.parametrize("seed, dim", [(5, 6), (8, 1), (9, 50)])
def test_wordavg_scorer_equals_the_per_intent_loop(tmp_path, catalog, seed, dim):
    if catalog == "gate":
        lib = make_family_library(n_families=12, per_family=25, seed=21)
        intents = gate_intents(lib)
        intents = intents[:20] + intents[-1:]
    else:
        from perfsuite import gen  # the benchmark's generator and its lexical catalog

        artifacts = gen.family_catalog(40, 50, "7/lexical")
        lib = library(*((a["id"], a["name"], a["description"]) for a in artifacts))
        stream = gen.IntentMaker(artifacts).stream("7/lexical-intents")
        intents = [next(stream)["intent"] for _ in range(5)] + ["no known term"]
    table = random_word_vectors(tmp_path / "vectors.txt", lib, seed=seed, dim=dim)
    scorer = wordavg_scorer(table, lib)
    for intent in intents:
        want = entry_bits(loop_score_wordavg(table, lib, intent).entries)
        assert entry_bits(scorer(intent).entries) == want, intent


@pytest.mark.parametrize("seed, dim", [(5, 6), (8, 1), (9, 50)])
def test_wordavg_raw_scores_are_within_1e_15_of_the_per_row_dots(tmp_path, monkeypatch,
                                                                  seed, dim):
    # one (m, dim) @ q product may round a cosine's last bits unlike the
    # row's own dot; before round_scores, none may move by more than 1e-15
    from perfsuite import gen  # the benchmark's lexical catalog

    artifacts = gen.family_catalog(40, 50, "7/lexical")
    lib = library(*((a["id"], a["name"], a["description"]) for a in artifacts))
    stream = gen.IntentMaker(artifacts).stream("7/lexical-intents")
    intents = [next(stream)["intent"] for _ in range(5)] + ["no known term"]
    table = random_word_vectors(tmp_path / "vectors.txt", lib, seed=seed, dim=dim)
    raw = []
    ranked = baselines._ranked
    monkeypatch.setattr(baselines, "_ranked",
                        lambda *args: raw.append(args[-1].copy()) or ranked(*args))
    scorer = wordavg_scorer(table, lib)
    for intent in intents:
        scorer(intent)
        want = loop_wordavg_scores(table, lib, intent)
        assert np.array_equal(raw[-1] == 0, want == 0), intent
        assert np.abs(raw[-1] - want).max() <= 1e-15, intent
    assert len(raw) == len(intents)


def test_wordavg_scorer_averages_each_description_once(tmp_path, monkeypatch):
    lib = make_lib(["red green", "blue", "red red", "nothing known"])
    path = tmp_path / "vectors.txt"
    path.write_text("red 1.0 0.0\ngreen 0.0 1.0\nblue 0.5 0.5\n")
    averaged = []
    real = baselines._avg_vector
    monkeypatch.setattr(baselines, "_avg_vector",
                        lambda table, text: averaged.append(text) or real(table, text))
    scorer = wordavg_scorer(load_word_vectors(path), lib)
    for intent in ("red", "blue green", "red"):
        scorer(intent)
    assert averaged == [*lib.descriptions, "red", "blue green", "red"]


# --- two-stage LLM --------------------------------------------------------

class ScriptedClient:
    """Scores per artifact id; a fixed response for the ranking prompt."""

    def __init__(self, scores, ranking_response="", fail_ranking=False):
        self.scores = scores
        self.ranking_response = ranking_response
        self.fail_ranking = fail_ranking

    def complete(self, prompt):
        if prompt.startswith("Rate how well"):
            for aid, score in self.scores.items():
                if f"<{aid}," in prompt:
                    return str(score)
            return "0"
        if self.fail_ranking:
            raise LlmError("down")
        return self.ranking_response


@pytest.mark.parametrize("final_k", [0, -2])
def test_two_stage_rejects_final_k_below_one(final_k):
    lib = make_lib(["one", "two", "three"], prefix="a")
    prompts = []

    class RecordingClient:
        def complete(self, prompt):
            prompts.append(prompt)
            return "[a00, a01, a02]"

    with pytest.raises(ValueError, match="final_k must be >= 1"):
        llm_two_stage(lib, "x", RecordingClient(), subset_fraction=1.0, final_k=final_k)
    assert prompts == []  # checked before any call


@pytest.mark.parametrize("final_k", [1.5, 2.0, True])
def test_two_stage_rejects_a_non_integer_final_k(final_k):
    lib = make_lib(["one", "two", "three"], prefix="a")
    client = ScriptedClient({"a00": 90}, ranking_response="[a00]")
    with pytest.raises(ValueError, match="^final_k must be an integer, got "):
        llm_two_stage(lib, "x", client, subset_fraction=1.0, final_k=final_k)


@pytest.mark.parametrize("fraction, message", [
    (-1.0, r"in \(0, 1\]"), (0.0, r"in \(0, 1\]"), (1.5, r"in \(0, 1\]"),
    (math.nan, "a finite real number"), (True, "a finite real number"),
    ("0.5", "a finite real number"),
])
def test_two_stage_rejects_a_subset_fraction_outside_zero_one(fraction, message):
    lib = make_lib(["one", "two", "three"], prefix="a")
    prompts = []

    class RecordingClient:
        def complete(self, prompt):
            prompts.append(prompt)
            return "[a00, a01, a02]"

    with pytest.raises(ValueError, match=f"^subset_fraction must be {message}"):
        llm_two_stage(lib, "x", RecordingClient(), subset_fraction=fraction)
    assert prompts == []  # checked before any call


def test_two_stage_threshold():
    lib = make_lib(["one thing", "two thing", "three thing"], prefix="a")
    client = ScriptedClient({"a00": 90, "a01": 10, "a02": 5},
                            ranking_response="[a00]")
    ranked = llm_two_stage(lib, "x", client, subset_fraction=0.34, final_k=1)
    assert ranked.ids() == ["a00"]


def test_two_stage_equal_scores_tie_by_id():
    lib = make_lib(["one", "two", "three", "four"], prefix="a")
    client = ScriptedClient({f"a{i:02d}": 50 for i in range(4)},
                            fail_ranking=True)
    ranked = llm_two_stage(lib, "x", client, subset_fraction=0.5, final_k=2)
    assert ranked.ids() == ["a00", "a01"]


def test_two_stage_replays_recorded_session():
    lib = make_lib([f"doc number {i}" for i in range(10)], prefix="a")
    scores = {f"a{i:02d}": 100 - 10 * i for i in range(10)}
    client = ScriptedClient(scores, ranking_response="[a01, a00]")
    ranked = llm_two_stage(lib, "x", client, subset_fraction=0.2, final_k=2)
    assert ranked.ids() == ["a01", "a00"]


def test_two_stage_unparseable_score_defaults_zero():
    lib = make_lib(["one", "two"], prefix="a")

    class NoScoreClient:
        def complete(self, prompt):
            if prompt.startswith("Rate how well"):
                return "no idea"
            return "[]"

    ranked = llm_two_stage(lib, "x", NoScoreClient(), subset_fraction=1.0, final_k=2)
    assert all(score == 0.0 for _, score in ranked.entries)
