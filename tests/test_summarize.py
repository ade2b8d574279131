import random

import numpy as np
import pytest

from semtree.embed import unit_rows
from semtree.llm import LlmError
from semtree.summarize import (
    FeatureSummary,
    SummaryParseError,
    _content_tokens,
    offline_summarize,
    parse_feature_line,
    render_summary_prompt,
    summarize_cluster,
)


from pathlib import Path

GOLDEN = Path(__file__).parent / "data" / "golden_prompt_summary.txt"


def test_prompt_matches_golden():
    rendered = render_summary_prompt([
        "Logging: structured application logging",
        "Tracing: distributed request tracing",
    ])
    with open(GOLDEN) as fh:
        assert rendered == fh.read().rstrip("\n")


def test_prompt_contains_format_instruction():
    rendered = render_summary_prompt(["a", "b"])
    assert ("Please only output the common feature in the format of "
            "'feature name: feature description:'." in rendered)


def test_prompt_single_child():
    rendered = render_summary_prompt(["only child"])
    assert "only child" in rendered


def test_prompt_embeds_colons_verbatim():
    child = "name: has: many: colons"
    assert child in render_summary_prompt([child, "other"])


def test_prompt_contains_all_children_verbatim():
    children = [f"child number {i}" for i in range(5)]
    rendered = render_summary_prompt(children)
    for child in children:
        assert child in rendered


def test_parse_simple():
    assert parse_feature_line("A: B") == FeatureSummary("A", "B")


def test_parse_first_colon_rule():
    assert parse_feature_line("A: B: C") == FeatureSummary("A", "B: C")


def test_parse_strips_trailing_colon():
    assert parse_feature_line("Name: desc:") == FeatureSummary("Name", "desc")


def test_parse_error_without_separator():
    with pytest.raises(SummaryParseError):
        parse_feature_line("no separator")


def test_parse_round_trip():
    f = FeatureSummary("Data Serialization", "tools for encoding structured data")
    assert parse_feature_line(f.format()) == f


def test_offline_name_from_document_frequency():
    children = ["parse JSON config files", "parse YAML config files"]
    summary = offline_summarize(children, np.eye(2))
    assert "parse" in summary.name and "config" in summary.name


def reference_name(children):
    """The naming rule as an explicit loop: document frequency, then the
    position at which a token was first seen."""
    df, first_seen = {}, {}
    for child in children:
        for tok in dict.fromkeys(_content_tokens(child)):
            df[tok] = df.get(tok, 0) + 1
            first_seen.setdefault(tok, len(first_seen))
    top = sorted(df, key=lambda t: (-df[t], first_seen[t]))[:2]
    return " ".join(top) if top else "misc"


def test_offline_name_matches_the_reference_loop():
    rng = random.Random(5)
    words = "a the of alpha beta gamma delta Beta GAMMA x1 y2".split()
    for _ in range(2000):
        children = [" ".join(rng.choices(words, k=rng.randint(0, 6)))
                    for _ in range(rng.randint(1, 6))]
        name = offline_summarize(children, np.eye(len(children))).name
        assert name == reference_name(children), children


def test_offline_single_child_is_its_own_centroid():
    for row in ([0.0, 3.0], [0.0, 0.0]):
        summary = offline_summarize(["only child text"], np.array([row]))
        assert summary.description == "Common feature covering: only child text"


@pytest.mark.parametrize("rows, nearest", [
    # the mean of the three rows lies closest to the third
    ([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]], "c"),
    # "b" and "c" tie nearest: the first of them wins
    ([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]], "b"),
], ids=["third", "tie"])
def test_offline_quotes_the_child_nearest_the_normalized_mean(rows, nearest):
    summary = offline_summarize(["a", "b", "c"], np.array(rows))
    assert summary.description == f"Common feature covering: {nearest}"


def test_offline_needs_one_row_per_child():
    with pytest.raises(ValueError, match="2 embedding rows for 3 children"):
        offline_summarize(["a", "b", "c"], np.eye(2))


def test_offline_deterministic(hashed_embedder):
    children = ["alpha beta gamma", "alpha delta epsilon", "zeta eta theta"]
    rows = unit_rows(*hashed_embedder.embed(children))
    assert offline_summarize(children, rows) == offline_summarize(children, rows.copy())


class StubClient:
    def __init__(self, response=None, error=None):
        self.response = response
        self.error = error

    def complete(self, prompt):
        if self.error:
            raise self.error
        return self.response


def test_llm_path_parses_first_line():
    client = StubClient("Data Serialization: tools for encoding structured data")
    summary = summarize_cluster(["a", "b"], np.eye(2), client=client)
    assert summary == FeatureSummary("Data Serialization",
                                     "tools for encoding structured data")


def test_llm_unparseable_falls_back_offline(caplog):
    client = StubClient("no separator whatsoever")
    with caplog.at_level("WARNING"):
        summary = summarize_cluster(["parse json files", "parse xml files"], np.eye(2),
                                    client=client)
    assert summary.description.startswith("Common feature covering:")
    assert any("fallback" in r.message for r in caplog.records)


def test_llm_transport_failure_falls_back(caplog):
    client = StubClient(error=LlmError("boom"))
    with caplog.at_level("WARNING"):
        summary = summarize_cluster(["parse json files"], np.eye(1), client=client)
    assert "parse" in summary.name


@pytest.mark.parametrize("client", [None, StubClient("Name: text")], ids=["offline", "llm"])
def test_no_children_raise(client):
    with pytest.raises(ValueError, match="no children"):
        summarize_cluster([], np.empty((0, 2)), client=client)
