"""Comparative retrieval baselines behind one interface: score every
artifact for an intent and return a ranked list.

Covers sparse lexical ranking (TF-IDF, BM25, LSI, Jensen-Shannon),
averaged pretrained word vectors, and a two-stage LLM pipeline
(score each artifact 0-100, then comparatively rank the top fraction).
The two-stage prompts are this package's own minimal phrasing and are
documented in the README.

Formulas are fixed so the oracles are unambiguous:
  tf-idf weight  w(t, d) = tf(t, d) * ln((1 + n) / (1 + df(t)))
  BM25 idf       ln(1 + (n - df + 0.5) / (df + 0.5))
  JSD            base-2 logs over the union support, 0*log0 = 0
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from semtree.catalog import ArtifactLibrary
from semtree.kernels import bm25_scores
from semtree.llm import LlmError
from semtree.search import RankedList, llm_order, render_rerank_prompt, round_scores

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[a-z0-9]+")

SCORING_PROMPT_TEMPLATE = (
    "Rate how well the following artifact satisfies the development intent "
    "on a scale from 0 to 100, where 100 means a perfect match.\n\n"
    "Development Intent: {intent}\n\n"
    "Artifact: <{id}, {description}>\n\n"
    "Please only output the integer score."
)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(eq=False)
class TermIndex:
    """Document statistics over an artifact library's descriptions."""

    doc_ids: list[str]
    vocabulary: dict[str, int]  # term -> index, first-occurrence order
    df: np.ndarray
    doc_len: np.ndarray
    n_docs: int
    avgdl: float
    # Term-major (CSC) postings, the one term-document representation:
    # term t's (doc, tf) pairs live in postings_doc/postings_tf[postings_ptr[t]:
    # postings_ptr[t+1]], docs ascending; postings_term is each posting's term.
    postings_ptr: np.ndarray
    postings_term: np.ndarray
    postings_doc: np.ndarray
    postings_tf: np.ndarray


def build_term_index(lib: ArtifactLibrary) -> TermIndex:
    vocab: dict[str, int] = {}
    terms: list[int] = []
    docs: list[int] = []
    tfs: list[int] = []
    doc_len: list[int] = []
    for doc, artifact in enumerate(lib.artifacts):
        counts = Counter(tokenize(artifact.description))
        for term, c in counts.items():
            terms.append(vocab.setdefault(term, len(vocab)))
            docs.append(doc)
            tfs.append(c)
        doc_len.append(sum(counts.values()))
    terms_arr = np.asarray(terms, dtype=np.int64)
    order = np.argsort(terms_arr, kind="stable")
    df = np.bincount(terms_arr, minlength=len(vocab))
    ptr = np.zeros(len(vocab) + 1, dtype=np.int64)
    np.cumsum(df, out=ptr[1:])
    return TermIndex(
        doc_ids=lib.ids(),
        vocabulary=vocab,
        df=df,
        doc_len=np.asarray(doc_len, dtype=np.float64),
        n_docs=len(lib.artifacts),
        avgdl=float(np.mean(doc_len)) if doc_len else 0.0,
        postings_ptr=ptr,
        postings_term=terms_arr[order],
        postings_doc=np.asarray(docs, dtype=np.int64)[order],
        postings_tf=np.asarray(tfs, dtype=np.float64)[order],
    )


def _ranked(ids: list[str], intent: str, scores: np.ndarray) -> RankedList:
    """Rank as search does: scores rounded by ``round_scores``, ties by id."""
    scores = round_scores(scores)
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return RankedList(intent=intent, entries=[(ids[i], float(scores[i])) for i in order])


def _original_order(idx: TermIndex, intent: str) -> RankedList:
    return RankedList(intent=intent, entries=[(did, 0.0) for did in idx.doc_ids])


def _tfidf_idf(idx: TermIndex) -> np.ndarray:
    return np.log((1.0 + idx.n_docs) / (1.0 + idx.df))


def _tfidf_weights(idx: TermIndex) -> np.ndarray:
    """The tf-idf weight of every posting."""
    return idx.postings_tf * _tfidf_idf(idx)[idx.postings_term]


def _tfidf_query(idx: TermIndex, intent: str) -> np.ndarray | None:
    """The intent's dense tf-idf vector; None when no intent term is known."""
    known = [idx.vocabulary[t] for t in tokenize(intent) if t in idx.vocabulary]
    if not known:
        return None
    return np.bincount(known, minlength=len(idx.vocabulary)) * _tfidf_idf(idx)


def score_tfidf(idx: TermIndex, intent: str) -> RankedList:
    """Cosine between tf-idf vectors of the intent and every document."""
    q = _tfidf_query(idx, intent)
    if q is None:
        return _original_order(idx, intent)
    w = _tfidf_weights(idx)
    dots = np.bincount(idx.postings_doc, weights=w * q[idx.postings_term], minlength=idx.n_docs)
    norms = np.sqrt(np.bincount(idx.postings_doc, weights=w * w, minlength=idx.n_docs))
    scores = np.zeros(idx.n_docs)
    hit = dots != 0.0  # a nonzero dot implies a nonzero norm on both sides
    scores[hit] = dots[hit] / (norms[hit] * np.linalg.norm(q))
    return _ranked(idx.doc_ids, intent, scores)


def score_bm25(idx: TermIndex, intent: str, k1: float = 1.2, b: float = 0.75) -> RankedList:
    """Okapi BM25 with idf = ln(1 + (n - df + 0.5) / (df + 0.5))."""
    counts = Counter(tokenize(intent))
    q_terms = [idx.vocabulary[t] for t in counts if t in idx.vocabulary]
    if not q_terms:
        return _original_order(idx, intent)
    q_counts = np.asarray([float(counts[t]) for t in counts if t in idx.vocabulary])
    idf = np.log(1.0 + (idx.n_docs - idx.df + 0.5) / (idx.df + 0.5))
    scores = bm25_scores(
        np.asarray(q_terms, dtype=np.int64), q_counts,
        idx.postings_ptr, idx.postings_doc, idx.postings_tf,
        idf, idx.doc_len, idx.avgdl, idx.n_docs, k1, b,
    )
    return _ranked(idx.doc_ids, intent, scores)


def score_lsi(idx: TermIndex, intent: str, rank: int = 100) -> RankedList:
    """Truncated SVD of the tf-idf matrix; cosine in the latent space."""
    max_rank = min(idx.n_docs, len(idx.vocabulary))
    if rank > max_rank:
        logger.warning("LSI rank %d clamped to %d", rank, max_rank)
        rank = max_rank
    q = _tfidf_query(idx, intent)
    if q is None:
        return _original_order(idx, intent)
    X = np.zeros((idx.n_docs, len(idx.vocabulary)))
    X[idx.postings_doc, idx.postings_term] = _tfidf_weights(idx)
    _, _, vt = np.linalg.svd(X, full_matrices=False)
    basis = vt[:rank].T  # (V, rank)
    docs_latent = X @ basis
    q_latent = q @ basis
    qn = np.linalg.norm(q_latent)
    dn = np.linalg.norm(docs_latent, axis=1)
    scores = np.zeros(idx.n_docs)
    mask = (dn > 0) & (qn > 0)
    scores[mask] = (docs_latent[mask] @ q_latent) / (dn[mask] * qn)
    # snap numerical noise so unrelated documents tie at exactly zero
    scores[np.abs(scores) < 1e-10] = 0.0
    return _ranked(idx.doc_ids, intent, scores)


def _distribution(weights: np.ndarray) -> np.ndarray:
    total = weights.sum()
    if total <= 0:
        return np.full(weights.shape[0], 1.0 / weights.shape[0])
    return weights / total


def jensen_shannon_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """JSD with base-2 logs; 0 for identical distributions, 1 for disjoint."""
    m = 0.5 * (p + q)
    div = 0.0
    for dist in (p, q):
        nz = dist > 0
        div += 0.5 * float(np.sum(dist[nz] * np.log2(dist[nz] / m[nz])))
    return div


def score_jsd(idx: TermIndex, intent: str) -> RankedList:
    """Similarity = 1 - JSD between normalized tf-idf distributions.

    Summed over each document's postings; every term a document lacks has
    p = 0 and m = q/2, so together they add (1 - sum of q over its terms)/2.
    """
    q = _tfidf_query(idx, intent)
    q = _distribution(np.zeros(len(idx.vocabulary)) if q is None else q)
    doc, w = idx.postings_doc, _tfidf_weights(idx)
    total = np.bincount(doc, weights=w, minlength=idx.n_docs)
    qt = q[idx.postings_term]
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 where masked out
        p = w / total[doc]
        m = 0.5 * (p + qt)
        terms = (np.where(p > 0, p * np.log2(p / m), 0.0)
                 + np.where(qt > 0, qt * np.log2(qt / m), 0.0))
    div = 0.5 * (np.bincount(doc, weights=terms, minlength=idx.n_docs)
                 + 1.0 - np.bincount(doc, weights=qt, minlength=idx.n_docs))
    scores = 1.0 - div
    # a document with no weight keeps the uniform distribution
    scores[total <= 0] = 1.0 - jensen_shannon_divergence(_distribution(np.zeros(len(q))), q)
    return _ranked(idx.doc_ids, intent, scores)


@dataclass
class WordVectorTable:
    dim: int
    vectors: dict[str, np.ndarray]


def load_word_vectors(path: str) -> WordVectorTable:
    """Load plain-text vectors: ``word v1 … vd`` per line, optional
    ``count dim`` header."""
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2:
                try:
                    dim = int(parts[1])
                    continue  # header line
                except ValueError:
                    pass
            try:
                vec = np.asarray([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: malformed vector entry") from exc
            if dim is None:
                dim = vec.shape[0]
            if vec.shape[0] != dim:
                raise ValueError(f"line {lineno}: expected {dim} values, got {vec.shape[0]}")
            vectors[parts[0]] = vec
    if dim is None:
        raise ValueError("empty word-vector file")
    return WordVectorTable(dim=dim, vectors=vectors)


def _avg_vector(table: WordVectorTable, text: str) -> np.ndarray:
    rows = [table.vectors[t] for t in tokenize(text) if t in table.vectors]
    if not rows:
        return np.zeros(table.dim)
    return np.mean(rows, axis=0)


def score_wordavg(table: WordVectorTable, lib: ArtifactLibrary, intent: str) -> RankedList:
    """Cosine between averaged word vectors of intent and descriptions."""
    qvec = _avg_vector(table, intent)
    qn = np.linalg.norm(qvec)
    scores = np.zeros(len(lib))
    for i, artifact in enumerate(lib.artifacts):
        dvec = _avg_vector(table, artifact.description)
        dn = np.linalg.norm(dvec)
        if qn > 0 and dn > 0:
            scores[i] = float(np.dot(qvec, dvec) / (qn * dn))
    return _ranked(lib.ids(), intent, scores)


_SCORE_RE = re.compile(r"-?\d+(?:\.\d+)?")


def _parse_score(response: str) -> float:
    m = _SCORE_RE.search(response)
    if m is None:
        return 0.0
    return max(0.0, min(100.0, float(m.group())))


def llm_two_stage(lib: ArtifactLibrary, intent: str, client,
                  subset_fraction: float = 0.10, final_k: int = 5) -> RankedList:
    """Score each artifact 0-100, then comparatively rank the top fraction."""
    scores: dict[str, float] = {}
    for artifact in lib.artifacts:
        prompt = SCORING_PROMPT_TEMPLATE.format(
            intent=intent, id=artifact.id,
            description=" ".join(artifact.description.split()),
        )
        try:
            scores[artifact.id] = _parse_score(client.complete(prompt))
        except LlmError as exc:
            logger.warning("scoring failed for %s (%s); defaulting to 0", artifact.id, exc)
            scores[artifact.id] = 0.0
    subset_size = max(1, math.ceil(subset_fraction * len(lib)))
    by_score = sorted(lib.ids(), key=lambda aid: (-scores[aid], aid))
    subset = by_score[:subset_size]
    by_id = {a.id: a for a in lib.artifacts}
    prompt = render_rerank_prompt(
        intent, [(aid, by_id[aid].description) for aid in subset]
    )
    order = llm_order(client, prompt, subset)
    return RankedList(
        intent=intent,
        entries=[(aid, scores[aid]) for aid in order[:final_k]],
    )
