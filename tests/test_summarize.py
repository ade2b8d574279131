import pytest

from semtree.llm import LlmError
from semtree.summarize import (
    FeatureSummary,
    SummaryParseError,
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
    summary = offline_summarize(children)
    assert "parse" in summary.name and "config" in summary.name


def test_offline_single_child_is_its_own_centroid():
    summary = offline_summarize(["only child text"])
    assert summary.description == "Common feature covering: only child text"


def test_offline_deterministic(hashed_embedder):
    children = ["alpha beta gamma", "alpha delta epsilon", "zeta eta theta"]
    a = offline_summarize(children, embedder=hashed_embedder)
    b = offline_summarize(children, embedder=hashed_embedder)
    assert a == b


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
    summary = summarize_cluster(["a", "b"], client=client)
    assert summary == FeatureSummary("Data Serialization",
                                     "tools for encoding structured data")


def test_llm_unparseable_falls_back_offline(caplog):
    client = StubClient("no separator whatsoever")
    with caplog.at_level("WARNING"):
        summary = summarize_cluster(["parse json files", "parse xml files"], client=client)
    assert summary.description.startswith("Common feature covering:")
    assert any("fallback" in r.message for r in caplog.records)


def test_llm_transport_failure_falls_back(caplog):
    client = StubClient(error=LlmError("boom"))
    with caplog.at_level("WARNING"):
        summary = summarize_cluster(["parse json files"], client=client)
    assert "parse" in summary.name


@pytest.mark.parametrize("client", [None, StubClient("Name: text")], ids=["offline", "llm"])
def test_no_children_raise(client):
    with pytest.raises(ValueError, match="no children"):
        summarize_cluster([], client=client)
