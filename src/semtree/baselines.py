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

With m = (p + q)/2, a term only one side holds adds exactly its own mass
to JSD, so 1 - JSD = 1/2 * the sum over the terms both hold of
p*log2((p + q)/p) + q*log2((p + q)/q): nonnegative terms on the intent's
postings alone.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from semtree.catalog import ArtifactLibrary
from semtree.checks import check_integer, check_real
from semtree.embed import tokenize
from semtree.kernels import bm25_scores, csr_ranges
from semtree.llm import LlmError
from semtree.search import RankedList, llm_order, render_rerank_prompt, round_scores
from semtree.tree import rank_by_id

logger = logging.getLogger(__name__)

BM25_K1 = 1.2  # term-frequency saturation
BM25_B = 0.75  # document-length normalization

SCORING_PROMPT_TEMPLATE = (
    "Rate how well the following artifact satisfies the development intent "
    "on a scale from 0 to 100, where 100 means a perfect match.\n\n"
    "Development Intent: {intent}\n\n"
    "Artifact: <{id}, {description}>\n\n"
    "Please only output the integer score."
)


@dataclass(eq=False)
class TermIndex:
    """Document statistics over an artifact library's descriptions, and the
    query-independent arrays every scorer reads, computed once, BM25's
    per-document length norm and the ranking columns among them."""

    ranking: tuple[np.ndarray, np.ndarray, np.ndarray]  # _ranking_columns of the ids
    vocabulary: dict[str, int]  # term -> index, first-occurrence order
    n_docs: int
    # Term-major (CSC) postings, the one term-document representation:
    # term t's (doc, tf) pairs live in postings_doc/postings_tf[postings_ptr[t]:
    # postings_ptr[t+1]], docs ascending; postings_term is each posting's term.
    postings_ptr: np.ndarray
    postings_term: np.ndarray
    postings_doc: np.ndarray
    postings_tf: np.ndarray
    bm25_idf: np.ndarray  # per term
    bm25_norm: np.ndarray  # per document: k1 * (1 - b + b * doc_len / avgdl)
    tfidf_idf: np.ndarray  # per term
    tfidf_weights: np.ndarray  # per posting
    tfidf_norms: np.ndarray  # per document
    jsd_p: np.ndarray  # per posting: its weight over its document's total
    # LSI space by requested rank: the top right singular vectors (rank, V) of
    # the tf-idf matrix, the documents' coordinates on them (n, rank) and
    # their norms (n,).
    lsi_spaces: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False)


def build_term_index(lib: ArtifactLibrary) -> TermIndex:
    """Index ``lib``'s descriptions.  The vocabulary is in first-occurrence
    order; the postings and their tf come from one sort of (term, doc)
    keys, so they run term by term, docs ascending within each term."""
    tokens = [tokenize(d) for d in lib.descriptions]
    flat = list(chain.from_iterable(tokens))
    vocab = {term: i for i, term in enumerate(dict.fromkeys(flat))}
    ids = lib.ids()
    n = len(ids)
    doc_len = np.fromiter(map(len, tokens), dtype=np.int64, count=n)
    terms = np.fromiter(map(vocab.__getitem__, flat), dtype=np.int64, count=len(flat))
    keys, tf = np.unique(terms * n + np.repeat(np.arange(n), doc_len), return_counts=True)
    postings_term = keys // n
    postings_doc = keys - postings_term * n
    postings_tf = tf.astype(np.float64)
    df = np.bincount(postings_term, minlength=len(vocab))
    ptr = np.zeros(len(vocab) + 1, dtype=np.int64)
    np.cumsum(df, out=ptr[1:])
    tfidf_idf = np.log((1.0 + n) / (1.0 + df))
    w = postings_tf * tfidf_idf[postings_term]
    total = np.bincount(postings_doc, weights=w, minlength=n)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 in weightless documents
        p = w / total[postings_doc]
    avgdl = float(np.mean(doc_len)) or 1.0  # 0 only if no description has a token
    return TermIndex(
        ranking=_ranking_columns(ids),
        vocabulary=vocab,
        n_docs=n,
        postings_ptr=ptr,
        postings_term=postings_term,
        postings_doc=postings_doc,
        postings_tf=postings_tf,
        bm25_idf=np.log(1.0 + (n - df + 0.5) / (df + 0.5)),
        bm25_norm=BM25_K1 * (1.0 - BM25_B + BM25_B * doc_len / avgdl),
        tfidf_idf=tfidf_idf,
        tfidf_weights=w,
        tfidf_norms=np.sqrt(np.bincount(postings_doc, weights=w * w, minlength=n)),
        jsd_p=p,
    )


def _ranking_columns(ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What ``_ranked`` reads of the distinct ``ids``: an object array of them,
    their ``rank_by_id`` (the tie-break) and the zero block, a read-only
    object array of ``(id, 0.0)`` for each in id order, whose immutable
    tuples every ranking shares."""
    zero_entries = np.fromiter(zip(sorted(ids), repeat(0.0)), dtype=object, count=len(ids))
    zero_entries.flags.writeable = False
    return np.array(ids, dtype=object), rank_by_id(ids), zero_entries


def _ranked(ranking: tuple[np.ndarray, np.ndarray, np.ndarray], intent: str,
            scores: np.ndarray) -> RankedList:
    """Rank as search does: scores rounded by ``round_scores``, ties by id
    rank; ``ranking`` is what ``_ranking_columns`` returns.

    The list is the one a lexsort of every row over the negated scores and
    the id rank gives: positives, then the rows at zero in id order, then
    negatives, then NaNs in id order.  Most rows of a lexical ranking are
    +0.0, which rounding leaves as it is, so only the other rows are
    rounded, and only those that are not zero once rounded are sorted.
    Rounding makes every zero +0.0, so the zero block is the shared one,
    gathered at every id rank but those of the sorted rows: it makes no
    tuple.  The list is new on every call; only the tuples are shared.
    """
    ids, id_rank, zero_entries = ranking
    rows = np.flatnonzero(scores.view(np.int64))  # +0.0 is the one all-zero bit pattern
    rounded = round_scores(scores[rows])  # elementwise, so the same as rounding every row
    nonzero = rounded != 0
    rows, rounded = rows[nonzero], rounded[nonzero]
    order = np.lexsort((id_rank[rows], -rounded))
    rows, ranked = rows[order], rounded[order]
    pos = np.count_nonzero(ranked > 0)
    keep = np.ones(len(ids), dtype=bool)
    keep[id_rank[rows]] = False
    entries = list(zip(ids[rows[:pos]].tolist(), ranked[:pos].tolist()))
    entries += zero_entries[keep].tolist()
    entries += zip(ids[rows[pos:]].tolist(), ranked[pos:].tolist())
    return RankedList(intent=intent, entries=entries)


def _tfidf_query(idx: TermIndex, intent: str) -> np.ndarray:
    """The intent's dense tf-idf vector; zero when no intent term is known."""
    known = [idx.vocabulary[t] for t in tokenize(intent) if t in idx.vocabulary]
    return np.bincount(known, minlength=len(idx.vocabulary)) * idx.tfidf_idf


def _tfidf_dots(idx: TermIndex, q: np.ndarray) -> np.ndarray:
    """Each document's dot product with the dense intent vector ``q``.

    Sums only the postings of ``q``'s nonzero terms, term by term in
    ascending order as the term-major postings are: each document's
    additions are those over all postings less exact zeros, so the sums
    are the same bits.
    """
    sel = csr_ranges(idx.postings_ptr, np.flatnonzero(q))
    return np.bincount(idx.postings_doc[sel],
                       weights=idx.tfidf_weights[sel] * q[idx.postings_term[sel]],
                       minlength=idx.n_docs)


def score_tfidf(idx: TermIndex, intent: str) -> RankedList:
    """Cosine between tf-idf vectors of the intent and every document."""
    q = _tfidf_query(idx, intent)
    dots = _tfidf_dots(idx, q)
    scores = np.zeros(idx.n_docs)
    hit = dots != 0.0  # a nonzero dot implies a nonzero norm on both sides
    scores[hit] = dots[hit] / (idx.tfidf_norms[hit] * np.linalg.norm(q))
    return _ranked(idx.ranking, intent, scores)


def score_bm25(idx: TermIndex, intent: str) -> RankedList:
    """Okapi BM25 with idf = ln(1 + (n - df + 0.5) / (df + 0.5))."""
    counts = Counter(t for t in tokenize(intent) if t in idx.vocabulary)
    scores = bm25_scores(
        np.asarray([idx.vocabulary[t] for t in counts], dtype=np.int64),
        np.asarray(list(counts.values()), dtype=np.float64),
        idx.postings_ptr, idx.postings_doc, idx.postings_tf,
        idx.bm25_idf, idx.bm25_norm, idx.n_docs, BM25_K1,
    )
    return _ranked(idx.ranking, intent, scores)


def _lsi_space(idx: TermIndex, rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The index's LSI space for a requested ``rank``, clamped to the matrix's
    rank, from one SVD per index and rank."""
    if rank not in idx.lsi_spaces:
        max_rank = min(idx.n_docs, len(idx.vocabulary))
        if rank > max_rank:
            logger.warning("LSI rank %d clamped to %d", rank, max_rank)
        X = np.zeros((idx.n_docs, len(idx.vocabulary)))
        X[idx.postings_doc, idx.postings_term] = idx.tfidf_weights
        vt = np.linalg.svd(X, full_matrices=False)[2][:rank].copy()
        docs_latent = X @ vt.T
        idx.lsi_spaces[rank] = vt, docs_latent, np.linalg.norm(docs_latent, axis=1)
    return idx.lsi_spaces[rank]


def score_lsi(idx: TermIndex, intent: str, rank: int = 100) -> RankedList:
    """Truncated SVD of the tf-idf matrix; cosine in the latent space."""
    rank = check_integer("rank", rank, 1)
    q = _tfidf_query(idx, intent)
    if not q.any():
        return _ranked(idx.ranking, intent, np.zeros(idx.n_docs))
    vt, docs_latent, dn = _lsi_space(idx, rank)
    q_latent = q @ vt.T
    qn = np.linalg.norm(q_latent)
    scores = np.zeros(idx.n_docs)
    mask = (dn > 0) & (qn > 0)
    scores[mask] = (docs_latent[mask] @ q_latent) / (dn[mask] * qn)
    # snap numerical noise so unrelated documents tie at exactly zero
    scores[np.abs(scores) < 1e-10] = 0.0
    return _ranked(idx.ranking, intent, scores)


def _distribution(weights: np.ndarray) -> np.ndarray:
    """``weights`` normalized; uniform when they sum to 0 (empty if empty)."""
    total = weights.sum()
    if total <= 0:
        return np.full(weights.shape[0], 1.0 / max(weights.shape[0], 1))
    return weights / total


def jensen_shannon_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """JSD with base-2 logs; 0 for identical distributions, 1 for disjoint."""
    m = 0.5 * (p + q)
    div = 0.0
    for dist in (p, q):
        nz = dist > 0
        div += 0.5 * float(np.sum(dist[nz] * np.log2(dist[nz] / m[nz])))
    return div


def _jsd_shares(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Each term's share of 1 - JSD, ``(p*log2((p+q)/p) + q*log2((p+q)/q))/2``
    where both ``p`` and ``q`` are > 0, else 0."""
    with np.errstate(divide="ignore", invalid="ignore"):  # p = 0 or nan where masked out
        s = p + q
        shares = 0.5 * (p * np.log2(s / p) + q * np.log2(s / q))
    return np.where((p > 0) & (q > 0), shares, 0.0)


def score_jsd(idx: TermIndex, intent: str) -> RankedList:
    """Similarity = 1 - JSD between normalized tf-idf distributions, as
    1/2 * the sum over the terms both hold of p*log2((p+q)/p) +
    q*log2((p+q)/q): one sum over the intent's postings, gathered as
    TF-IDF gathers them, so a document sharing no term with it scores +0.0."""
    q = _distribution(_tfidf_query(idx, intent))
    sel = csr_ranges(idx.postings_ptr, np.flatnonzero(q))
    scores = np.bincount(idx.postings_doc[sel],
                         weights=_jsd_shares(idx.jsd_p[sel], q[idx.postings_term[sel]]),
                         minlength=idx.n_docs)
    # a document with no weight keeps the uniform distribution
    weightless = idx.tfidf_norms == 0
    if weightless.any():
        scores[weightless] = 1.0 - jensen_shannon_divergence(
            _distribution(np.zeros(len(q))), q)
    return _ranked(idx.ranking, intent, scores)


@dataclass
class WordVectorTable:
    dim: int
    vectors: dict[str, np.ndarray]


def load_word_vectors(path: str) -> WordVectorTable:
    """Load plain-text vectors: ``word v1 … vd`` per line, optional
    ``count dim`` header (a first line of two integers); every word needs
    at least one value, every value must be finite and ``dim`` must be
    at least 1, since a 0-dimensional table scores every artifact 0.
    Every error, bytes that are not UTF-8 included, names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _parse_word_vectors(fh)
    except ValueError as exc:  # UnicodeDecodeError is one too
        raise ValueError(f"word-vector file {path}: {exc}") from exc


def _parse_word_vectors(lines) -> WordVectorTable:
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        if lineno == 1 and len(parts) == 2:
            try:
                _, dim = map(int, parts)  # a header is two integers
            except ValueError:
                pass
            else:
                if dim < 1:
                    raise ValueError(f"line 1: header dim {dim} is not >= 1")
                continue
        if len(parts) == 1:
            raise ValueError(f"line {lineno}: word {parts[0]!r} has no values")
        try:
            vec = np.asarray([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: malformed vector entry") from exc
        if not np.isfinite(vec).all():  # float() parses nan and inf
            raise ValueError(f"line {lineno}: non-finite value")
        if dim is None:
            dim = vec.shape[0]
        if vec.shape[0] != dim:
            raise ValueError(f"line {lineno}: expected {dim} values, got {vec.shape[0]}")
        vectors[parts[0]] = vec
    if dim is None:
        raise ValueError("no vectors")
    return WordVectorTable(dim=dim, vectors=vectors)


def _avg_vector(table: WordVectorTable, text: str) -> np.ndarray:
    rows = [table.vectors[t] for t in tokenize(text) if t in table.vectors]
    if not rows:
        return np.zeros(table.dim)
    return np.mean(rows, axis=0)


def wordavg_scorer(table: WordVectorTable, lib: ArtifactLibrary):
    """``intent -> RankedList`` by the cosine between averaged word vectors
    of the intent and each description.  The nonzero description vectors
    are stacked once here, with their norms and the ranking columns; a query
    takes one ``(m, dim) @ q`` product over them."""
    dvecs = np.array([_avg_vector(table, description) for description in lib.descriptions])
    norms = np.fromiter(map(np.linalg.norm, dvecs), dtype=np.float64, count=len(dvecs))
    rows = np.flatnonzero(norms > 0)
    dvecs, dn = dvecs[rows], norms[rows]
    ranking = _ranking_columns(lib.artifact_ids)

    def score(intent: str) -> RankedList:
        qvec = _avg_vector(table, intent)
        qn = np.linalg.norm(qvec)
        scores = np.zeros(len(lib))
        if qn > 0:
            scores[rows] = dvecs @ qvec / (qn * dn)
        return _ranked(ranking, intent, scores)

    return score


_SCORE_RE = re.compile(r"-?\d+(?:\.\d+)?")


def _parse_score(response: str) -> float:
    m = _SCORE_RE.search(response)
    if m is None:
        return 0.0
    return max(0.0, min(100.0, float(m.group())))


def llm_two_stage(lib: ArtifactLibrary, intent: str, client,
                  subset_fraction: float = 0.10, final_k: int = 5) -> RankedList:
    """Score each artifact 0-100, then comparatively rank the top fraction."""
    check_integer("final_k", final_k, 1)
    subset_fraction = check_real("subset_fraction", subset_fraction)
    if not 0 < subset_fraction <= 1:
        raise ValueError(f"subset_fraction must be in (0, 1], got {subset_fraction}")
    scores: dict[str, float] = {}
    by_id = dict(zip(lib.artifact_ids, lib.descriptions))
    for aid, description in by_id.items():
        prompt = SCORING_PROMPT_TEMPLATE.format(
            intent=intent, id=aid, description=" ".join(description.split()),
        )
        try:
            scores[aid] = _parse_score(client.complete(prompt))
        except LlmError as exc:
            logger.warning("scoring failed for %s (%s); defaulting to 0", aid, exc)
            scores[aid] = 0.0
    subset_size = max(1, math.ceil(subset_fraction * len(lib)))
    by_score = sorted(lib.ids(), key=lambda aid: (-scores[aid], aid))
    subset = by_score[:subset_size]
    prompt = render_rerank_prompt(intent, [(aid, by_id[aid]) for aid in subset])
    order = llm_order(client, prompt, subset)
    return RankedList(
        intent=intent,
        entries=[(aid, scores[aid]) for aid in order[:final_k]],
    )
