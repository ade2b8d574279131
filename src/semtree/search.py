"""Tree-guided beam search over the hierarchical index plus LLM re-rank.

Search walks top-down from the roots: the current frontier is scored by
cosine similarity against the intent embedding, the top-w nodes are
kept (ties by ascending id), and kept internal nodes are expanded into
their children while kept leaves carry themselves forward.  When every
kept node is a leaf the candidates are returned.  Every node is scored
once per query, as ``(c_q · c_d) / (|c_q| |c_d|)`` from the embedder's
values and norms: one product over the rows of the index's dim-major
``values`` at the intent's nonzero dims (a hashed intent touches a few
of them), over the product of norms.  A product of hashed counts is
exact whatever the summation order; each level then reads its frontier's
scores from that vector, and the deduplicated child union makes the
polyhierarchy cost nothing.  Scores are rounded
to ``SCORE_DECIMALS`` before ranking so that ties do not depend on
summation order; rounding is elementwise, so each level rounds only the
scores it reads.
"""

from __future__ import annotations

import logging
import re
import time
from dataclasses import dataclass

import numpy as np

from semtree.checks import check_integer
from semtree.llm import LlmError
from semtree.tree import TreeIndex, expand_beam

logger = logging.getLogger(__name__)

SCORE_DECIMALS = 12
# A frontier of at most this many rows is lexsorted whole: below ~150 rows
# that costs less than cutting it with np.partition first, and the cut
# only drops rows the sort would rank below the beam.
SORT_WHOLE = 128

RERANK_PROMPT_TEMPLATE = (
    "Given a user requirement and a list of candidate artifacts, rank the "
    "artifacts from best match to worst match according to how well each "
    "artifact satisfies the requirement.\n\n"
    "User Requirements: {intent}\n\n"
    "Candidate Artifacts:\n{candidates}\n\n"
    "Please only output the ID of the sorted artifact in a list format."
)


@dataclass(frozen=True)
class SearchConfig:
    beam_width: int = 10
    final_k: int = 5
    rerank: bool = False

    def __post_init__(self):
        check_integer("beam_width", self.beam_width, 1)
        check_integer("final_k", self.final_k, 1)
        if self.final_k > self.beam_width:
            raise ValueError("final_k must not exceed beam_width")


@dataclass
class RankedList:
    intent: str
    entries: list[tuple[str, float]]
    node_evaluations: int = 0
    elapsed: float = 0.0

    def ids(self) -> list[str]:
        return [aid for aid, _ in self.entries]


def round_scores(scores: np.ndarray) -> np.ndarray:
    """Similarity scores as search ranks them: rounded to ``SCORE_DECIMALS``.

    Scores equal in exact arithmetic can differ in the last bits of their
    float dot products, depending on summation order; rounding makes them
    equal, so the id tie-break decides.  A tie can still split if its
    exact value lies within about 1e-16 of a rounding boundary.  A zero's
    sign is summation noise too, so every zero is +0.0: adding 0.0 turns
    -0.0 into +0.0 and is exact for every other value.
    """
    return scores.round(SCORE_DECIMALS) + 0.0  # np.round without its dispatch


def cosines(t: TreeIndex, query: np.ndarray, norm: float) -> np.ndarray:
    """Every node's cosine with the intent whose values are ``query`` and
    whose norm is ``norm``: ``(c_q · c_d) / (|c_q| |c_d|)``, and 0 for a
    zero row or a zero query.

    Integer counts times the index's counts take an exact float64
    product, in any summation order: by Cauchy-Schwarz every partial sum
    is an integer no larger than ``|c_q| |c_d|``, which is below 2^53
    when each sum of squares is (the index checks its own; a query's
    takes a text of ~10^8 features to reach it).  A remote embedder's
    unit rows take the product of unit rows over 1.0, which is that
    product bit for bit.
    """
    nz = np.flatnonzero(query)  # zero dims add nothing to a dot product
    return (query[nz] @ t.values[nz]) / ((norm or 1.0) * t.divisors)


def tree_search(t: TreeIndex, intent: str, cfg: SearchConfig, embedder) -> RankedList:
    """Top-down beam traversal returning up to ``beam_width`` leaf candidates, untimed."""
    values, norms = embedder.embed([intent])
    if values.shape[1] != t.dim:
        raise ValueError("intent embedding dimension does not match the index")

    raw = cosines(t, values[0], norms[0])
    width = cfg.beam_width
    frontier, evaluations = t.root_rows, 0
    if t.root_expansion is not None and len(frontier) <= width:
        # the beam keeps every root, so it starts from their stored expansion
        frontier, evaluations = t.root_expansion, len(frontier)
    for _ in range(t.top_level + 2):
        scores = round_scores(raw[frontier])  # elementwise: only the rows read
        evaluations += len(frontier)
        if len(frontier) > max(width, SORT_WHOLE):
            # only nodes scoring at least the width-th best can be kept;
            # ties at the cut stay, for the id tie-break below
            cut = scores >= np.partition(scores, -width)[-width]
            frontier, scores = frontier[cut], scores[cut]
        order = np.lexsort((t.id_rank[frontier], -scores))[:width]
        kept, kept_scores = frontier[order], scores[order]
        leaf = t.is_leaf[kept]
        if leaf.all():
            break
        frontier = expand_beam(t, kept, leaf)
    entries = [(t.artifact_ids[r], s) for r, s in zip(kept.tolist(), kept_scores.tolist())]
    return RankedList(intent=intent, entries=entries, node_evaluations=evaluations)


def render_rerank_prompt(intent: str, candidates: list[tuple[str, str]]) -> str:
    """Fill the re-rank template with ``<ID, description>`` lines.

    Newlines inside descriptions are flattened so each candidate stays
    on a single line.
    """
    if not candidates:
        raise ValueError("no candidates to rerank")
    lines = []
    for cid, desc in candidates:
        flat = " ".join(desc.split())
        lines.append(f"<{cid}, {flat}>")
    return RERANK_PROMPT_TEMPLATE.format(intent=intent, candidates="\n".join(lines))


_ID_TOKEN_RE = re.compile(r"[^\s,\[\]()'\"<>]+")


def parse_id_list(response: str, known_ids: list[str]) -> list[str]:
    """Extract an ordered id list from free-form LLM output.

    Accepts bracketed, comma-, or newline-separated lists; tokens not in
    ``known_ids`` are dropped, duplicates keep their first position.
    """
    known = set(known_ids)
    ordered: list[str] = []
    seen: set[str] = set()
    for token in _ID_TOKEN_RE.findall(response):
        token = token.strip(".:;")
        if token in known and token not in seen:
            seen.add(token)
            ordered.append(token)
    return ordered


def llm_order(client, prompt: str, ids: list[str]) -> list[str]:
    """``ids`` in the order the LLM gives for ``prompt``.

    Ids the response leaves out follow in their input order, so a failed
    call (``LlmError``) or an unparseable response keeps the input order.
    """
    try:
        order = parse_id_list(client.complete(prompt), ids)
    except LlmError as exc:
        logger.warning("LLM ranking failed (%s); keeping the input order", exc)
        order = []
    chosen = set(order)
    return order + [i for i in ids if i not in chosen]


def rerank(intent: str, candidates: RankedList, client, t: TreeIndex,
           final_k: int) -> RankedList:
    """LLM re-rank of the candidate set; degrades to the input order.

    Hallucinated ids are dropped, omitted candidates are appended in
    their original order, and the list is truncated to ``final_k``.  No
    candidates raise ``ValueError`` from the prompt renderer.
    """
    prompt = render_rerank_prompt(
        intent,
        [(aid, t.summaries[t.leaf_rows[aid]]) for aid, _ in candidates.entries],
    )
    order = llm_order(client, prompt, candidates.ids())
    score_by_id = dict(candidates.entries)
    entries = [(aid, score_by_id[aid]) for aid in order[:final_k]]
    return RankedList(intent=intent, entries=entries,
                      node_evaluations=candidates.node_evaluations)


def recommend(t: TreeIndex, intent: str, cfg: SearchConfig, embedder,
              llm_client=None) -> RankedList:
    """Full pipeline: beam search, optional re-rank, truncate to final_k; timed."""
    start = time.perf_counter()
    result = tree_search(t, intent, cfg, embedder)
    if cfg.rerank:
        if llm_client is None:
            raise ValueError("rerank requested but no LLM client provided")
        result = rerank(intent, result, llm_client, t, cfg.final_k)
    else:
        result.entries = result.entries[: cfg.final_k]
    result.elapsed = time.perf_counter() - start
    return result
