import math
from collections import Counter

import numpy as np
import pytest

from semtree.baselines import (
    build_term_index,
    jensen_shannon_divergence,
    llm_two_stage,
    load_word_vectors,
    score_bm25,
    score_jsd,
    score_lsi,
    score_tfidf,
    score_wordavg,
    tokenize,
)
from semtree.catalog import Artifact, ArtifactLibrary
from semtree.llm import LlmError


def make_lib(descriptions, prefix="d"):
    return ArtifactLibrary(ecosystem="", artifacts=tuple(
        Artifact(id=f"{prefix}{i:02d}", name=f"n{i}", description=desc)
        for i, desc in enumerate(descriptions)
    ))


@pytest.fixture(scope="module")
def corpus20():
    rng = np.random.default_rng(13)
    words = [f"w{i}" for i in range(30)]
    docs = [" ".join(rng.choice(words, size=rng.integers(4, 12)))
            for _ in range(20)]
    return make_lib(docs)


# --- independent oracles --------------------------------------------------

def oracle_tfidf_scores(lib, intent):
    docs = [tokenize(a.description) for a in lib.artifacts]
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
    docs = [tokenize(a.description) for a in lib.artifacts]
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
    assert idx.df[idx.vocabulary["b"]] == 2
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
    for a in corpus20.artifacts:
        df.update(set(tokenize(a.description)))
    for term, i in idx.vocabulary.items():
        assert idx.df[i] == df[term]


def test_term_index_equality_is_identity():
    lib = make_lib(["a b", "b c"])
    idx = build_term_index(lib)
    assert (idx == idx) is True
    assert (idx == build_term_index(lib)) is False


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
    assert ranked.ids() == ["d00", "d01"]  # original order


def test_tfidf_matches_oracle(corpus20):
    idx = build_term_index(corpus20)
    ranked = score_tfidf(idx, "w1 w2 w5 w9")
    oracle = oracle_tfidf_scores(corpus20, "w1 w2 w5 w9")
    got = dict(ranked.entries)
    for i, a in enumerate(corpus20.artifacts):
        assert got[a.id] == pytest.approx(oracle[i], abs=1e-9)


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
    for i, a in enumerate(corpus20.artifacts):
        assert got[a.id] == pytest.approx(oracle[i], abs=1e-9)


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


def test_lsi_clamps_rank(corpus20, caplog):
    idx = build_term_index(corpus20)
    with caplog.at_level("WARNING"):
        ranked = score_lsi(idx, "w1", rank=10_000)
    assert len(ranked.entries) == 20
    assert any("clamped" in r.message for r in caplog.records)


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
    docs = [tokenize(a.description) for a in lib.artifacts]
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
    for a, want in zip(lib.artifacts, oracle_jsd_scores(lib, intent)):
        assert got[a.id] == pytest.approx(want, abs=1e-9)


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
    ranked = score_wordavg(table, lib, "red")
    assert ranked.entries[0] == ("d00", pytest.approx(1.0))


def test_wordavg_out_of_table_scores_zero(vector_file):
    table = load_word_vectors(vector_file)
    lib = make_lib(["unknownword anothermiss", "red"])
    ranked = score_wordavg(table, lib, "red")
    assert dict(ranked.entries)["d00"] == 0.0


def test_wordavg_mean_matches_hand_value(vector_file):
    table = load_word_vectors(vector_file)
    lib = make_lib(["red green blue"])
    # hand arithmetic: mean = (0.5, 0.5); cosine with red (1,0) = 0.7071...
    ranked = score_wordavg(table, lib, "red")
    assert ranked.entries[0][1] == pytest.approx(0.5 / math.sqrt(0.5), abs=1e-9)


def test_wordavg_malformed_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("red 1.0 oops\n")
    with pytest.raises(ValueError, match="line 1"):
        load_word_vectors(path)


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
