"""Cluster summarization: name a parent "common feature" for a set of
child descriptions, via an LLM or a deterministic offline fallback.

The offline path is extractive: the name is built from the top
document-frequency content tokens, the description is the child text
nearest the normalized mean of the children's rows, which the caller
holds.  That keeps tree builds total and reproducible offline.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from semtree.embed import l2_normalize, tokenize
from semtree.llm import LlmError

logger = logging.getLogger(__name__)

PROMPT_CHAR_BUDGET = 4000

SUMMARY_PROMPT_TEMPLATE = (
    "Based on the following sub-features, please generate a parent common feature "
    "that can cover these sub-features.\n"
    "The sub-features are:\n{children}\n"
    "Please only output the common feature in the format of "
    "'feature name: feature description:'."
)

_STOPWORDS = frozenset(
    "a an and are as at be by for from in is it of on or that the this to with".split()
)


class SummaryParseError(ValueError):
    """Response line does not follow the ``name: description`` format."""


@dataclass(frozen=True)
class FeatureSummary:
    name: str
    description: str

    def format(self) -> str:
        return f"{self.name}: {self.description}"


def render_summary_prompt(children: list[str]) -> str:
    """Fill the summarization template with a newline-separated child list.

    Child text is embedded verbatim (no escaping); the joined list is
    capped at a character budget with tail truncation.
    """
    if not children:
        raise ValueError("no children to summarize")
    joined = "\n".join(children)
    if len(joined) > PROMPT_CHAR_BUDGET:
        joined = joined[:PROMPT_CHAR_BUDGET]
    return SUMMARY_PROMPT_TEMPLATE.format(children=joined)


def parse_feature_line(line: str) -> FeatureSummary:
    """Split on the first colon; tolerate and strip a trailing colon."""
    if ":" not in line:
        raise SummaryParseError(f"no 'name: description' separator in {line!r}")
    name, _, desc = line.partition(":")
    name = name.strip()
    desc = desc.strip()
    if desc.endswith(":"):
        desc = desc[:-1].rstrip()
    if not name or not desc:
        raise SummaryParseError(f"empty name or description in {line!r}")
    return FeatureSummary(name=name, description=desc)


def _content_tokens(text: str) -> list[str]:
    return [t for t in tokenize(text) if t not in _STOPWORDS]


def offline_summarize(children: list[str], vectors: np.ndarray) -> FeatureSummary:
    """Deterministic extractive fallback summary for a cluster: the
    description quotes the first child whose row (``vectors`` holds one
    per child, in order) is nearest the rows' ``l2_normalize``d mean."""
    if not children:
        raise ValueError("no children to summarize")
    if len(vectors) != len(children):
        raise ValueError(f"{len(vectors)} embedding rows for {len(children)} children")
    df: Counter[str] = Counter()  # document frequency
    for child in children:
        df.update(dict.fromkeys(_content_tokens(child), 1))
    # the two most frequent tokens, ties in the order first seen
    name = " ".join(tok for tok, _ in df.most_common(2)) or "misc"
    centroid = l2_normalize(vectors.mean(axis=0))
    nearest = children[int(np.argmax(vectors @ centroid))]
    return FeatureSummary(name=name, description=f"Common feature covering: {nearest}")


def summarize_cluster(children: list[str], vectors: np.ndarray, client=None) -> FeatureSummary:
    """Summarize a cluster via the chat client, falling back offline.

    ``vectors`` are the children's embedding rows, which only the offline
    summary reads.  ``client=None`` selects the offline path directly.  An
    LLM response is parsed from its first non-empty line; unparseable
    output or a transport failure degrades to the offline summary with a
    warning.  No children raise ``ValueError`` on either path.
    """
    if client is None:
        return offline_summarize(children, vectors)
    prompt = render_summary_prompt(children)
    try:
        response = client.complete(prompt)
        for line in response.splitlines():
            if line.strip():
                return parse_feature_line(line)
        raise SummaryParseError("empty response")
    except (LlmError, SummaryParseError) as exc:
        logger.warning("LLM summarization failed (%s); using offline fallback", exc)
        return offline_summarize(children, vectors)
