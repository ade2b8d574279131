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
from semtree.search import RankedList, llm_order, render_rerank_prompt

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


@dataclass
class TermIndex:
    """Document statistics over an artifact library's descriptions."""

    doc_ids: list[str]
    vocabulary: dict[str, int]  # term -> index, first-occurrence order
    doc_tf: list[dict[int, int]]
    df: np.ndarray
    doc_len: np.ndarray
    n_docs: int
    avgdl: float
    # CSC-style postings for kernel scoring: term t's (doc, tf) pairs
    # live in postings_doc/postings_tf[postings_ptr[t]:postings_ptr[t+1]].
    postings_ptr: np.ndarray
    postings_doc: np.ndarray
    postings_tf: np.ndarray


def build_term_index(lib: ArtifactLibrary) -> TermIndex:
    vocab: dict[str, int] = {}
    doc_tf: list[dict[int, int]] = []
    doc_len: list[int] = []
    for artifact in lib.artifacts:
        counts = Counter(tokenize(artifact.description))
        tf: dict[int, int] = {}
        for term, c in counts.items():
            idx = vocab.setdefault(term, len(vocab))
            tf[idx] = c
        doc_tf.append(tf)
        doc_len.append(sum(counts.values()))
    n_docs = len(doc_tf)
    v = len(vocab)
    df = np.zeros(v, dtype=np.int64)
    for tf in doc_tf:
        for idx in tf:
            df[idx] += 1
    counts_per_term = df.copy()
    ptr = np.zeros(v + 1, dtype=np.int64)
    np.cumsum(counts_per_term, out=ptr[1:])
    postings_doc = np.empty(int(ptr[-1]), dtype=np.int64)
    postings_tf = np.empty(int(ptr[-1]))
    cursor = ptr[:-1].copy()
    for doc, tf in enumerate(doc_tf):
        for idx, c in tf.items():
            postings_doc[cursor[idx]] = doc
            postings_tf[cursor[idx]] = c
            cursor[idx] += 1
    return TermIndex(
        doc_ids=lib.ids(),
        vocabulary=vocab,
        doc_tf=doc_tf,
        df=df,
        doc_len=np.asarray(doc_len, dtype=np.float64),
        n_docs=n_docs,
        avgdl=float(np.mean(doc_len)) if doc_len else 0.0,
        postings_ptr=ptr,
        postings_doc=postings_doc,
        postings_tf=postings_tf,
    )


def _ranked(idx: TermIndex, intent: str, scores: np.ndarray) -> RankedList:
    order = sorted(range(idx.n_docs), key=lambda i: (-scores[i], idx.doc_ids[i]))
    return RankedList(
        intent=intent,
        entries=[(idx.doc_ids[i], float(scores[i])) for i in order],
    )


def _original_order(idx: TermIndex, intent: str) -> RankedList:
    return RankedList(intent=intent, entries=[(did, 0.0) for did in idx.doc_ids])


def _tfidf_idf(idx: TermIndex) -> np.ndarray:
    return np.log((1.0 + idx.n_docs) / (1.0 + idx.df))


def _tfidf_query(idx: TermIndex, intent: str) -> dict[int, float]:
    idf = _tfidf_idf(idx)
    counts = Counter(tokenize(intent))
    return {
        idx.vocabulary[t]: c * idf[idx.vocabulary[t]]
        for t, c in counts.items()
        if t in idx.vocabulary
    }


def _tfidf_matrix(idx: TermIndex) -> np.ndarray:
    idf = _tfidf_idf(idx)
    X = np.zeros((idx.n_docs, len(idx.vocabulary)))
    for doc, tf in enumerate(idx.doc_tf):
        for t, c in tf.items():
            X[doc, t] = c * idf[t]
    return X


def score_tfidf(idx: TermIndex, intent: str) -> RankedList:
    """Cosine between tf-idf vectors of the intent and every document."""
    q = _tfidf_query(idx, intent)
    if not q:
        return _original_order(idx, intent)
    idf = _tfidf_idf(idx)
    qnorm = math.sqrt(sum(w * w for w in q.values()))
    scores = np.zeros(idx.n_docs)
    for doc, tf in enumerate(idx.doc_tf):
        dot = 0.0
        norm2 = 0.0
        for t, c in tf.items():
            w = c * idf[t]
            norm2 += w * w
            if t in q:
                dot += w * q[t]
        if norm2 > 0 and dot != 0.0:
            scores[doc] = dot / (math.sqrt(norm2) * qnorm)
    return _ranked(idx, intent, scores)


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
    return _ranked(idx, intent, scores)


def score_lsi(idx: TermIndex, intent: str, rank: int = 100) -> RankedList:
    """Truncated SVD of the tf-idf matrix; cosine in the latent space."""
    max_rank = min(idx.n_docs, len(idx.vocabulary))
    if rank > max_rank:
        logger.warning("LSI rank %d clamped to %d", rank, max_rank)
        rank = max_rank
    q = _tfidf_query(idx, intent)
    if not q:
        return _original_order(idx, intent)
    X = _tfidf_matrix(idx)
    _, _, vt = np.linalg.svd(X, full_matrices=False)
    basis = vt[:rank].T  # (V, rank)
    docs_latent = X @ basis
    qvec = np.zeros(len(idx.vocabulary))
    for t, w in q.items():
        qvec[t] = w
    q_latent = qvec @ basis
    qn = np.linalg.norm(q_latent)
    dn = np.linalg.norm(docs_latent, axis=1)
    scores = np.zeros(idx.n_docs)
    mask = (dn > 0) & (qn > 0)
    scores[mask] = (docs_latent[mask] @ q_latent) / (dn[mask] * qn)
    # snap numerical noise so unrelated documents tie at exactly zero
    scores[np.abs(scores) < 1e-10] = 0.0
    return _ranked(idx, intent, scores)


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
    """Similarity = 1 - JSD between normalized tf-idf distributions."""
    idf = _tfidf_idf(idx)
    v = len(idx.vocabulary)
    qvec = np.zeros(v)
    for t, w in _tfidf_query(idx, intent).items():
        qvec[t] = w
    q = _distribution(qvec)
    scores = np.zeros(idx.n_docs)
    for doc, tf in enumerate(idx.doc_tf):
        dvec = np.zeros(v)
        for t, c in tf.items():
            dvec[t] = c * idf[t]
        scores[doc] = 1.0 - jensen_shannon_divergence(_distribution(dvec), q)
    return _ranked(idx, intent, scores)


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
    order = sorted(range(len(lib)), key=lambda i: (-scores[i], lib.artifacts[i].id))
    return RankedList(
        intent=intent,
        entries=[(lib.artifacts[i].id, float(scores[i])) for i in order],
    )


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
