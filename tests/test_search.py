from pathlib import Path

import numpy as np
import pytest

from conftest import (
    columns,
    make_balanced_index,
    make_depth1_index,
    make_family_library,
    perturbed_intents,
)
from semtree.catalog import Artifact, ArtifactLibrary
from semtree.embed import EmbedderConfig, HashedEmbedder
from semtree.llm import LlmError
from semtree.search import (
    RankedList,
    SearchConfig,
    parse_id_list,
    recommend,
    render_rerank_prompt,
    rerank,
    round_scores,
    tree_search,
)
from semtree.tree import TreeIndex

GOLDEN = Path(__file__).parent / "data" / "golden_prompt_rerank.txt"


def beam_oracle(index, embedder, intent, k):
    """Per-level linear scan with beam width ``k``: every visited node is
    scored by its own ``np.dot``, rounded by the shared helper, and ranked
    by (-score, node id); kept leaves carry themselves to the next level.
    Returns the entries and the number of node scores taken."""
    query = embedder.embed([intent])[0]
    vectors = dict(zip(index.ids, index.embeddings))
    frontier = set(index.roots)
    evaluations = 0
    while True:
        scored = [(nid, float(round_scores(np.dot(query, vectors[nid]))))
                  for nid in frontier]
        evaluations += len(scored)
        scored.sort(key=lambda item: (-item[1], item[0]))
        kept = scored[:k]
        if all(index.nodes[nid].is_leaf() for nid, _ in kept):
            return [(index.nodes[nid].artifact_id, s) for nid, s in kept], evaluations
        frontier = {c for nid, _ in kept for c in index.nodes[nid].children or (nid,)}


def brute_force(index, embedder, intent, k):
    """The entries of :func:`beam_oracle`."""
    return beam_oracle(index, embedder, intent, k)[0]


@pytest.mark.parametrize("final_k", [0, -1])
def test_search_config_rejects_nonpositive_final_k(final_k):
    with pytest.raises(ValueError, match="final_k"):
        SearchConfig(final_k=final_k)


@pytest.mark.parametrize("beam_width, final_k", [(0, 5), (-3, 1), (0, 0)],
                         ids=["zero", "negative", "zero_with_k_0"])
def test_search_config_rejects_a_beam_below_one(beam_width, final_k):
    with pytest.raises(ValueError, match="^beam_width must be >= 1$"):
        SearchConfig(beam_width=beam_width, final_k=final_k)


def test_search_config_rejects_final_k_above_the_beam():
    with pytest.raises(ValueError, match="final_k must not exceed beam_width"):
        SearchConfig(beam_width=3, final_k=4)


def test_intent_of_another_dimension_is_rejected(tiny_index):
    other = HashedEmbedder(EmbedderConfig(dim=tiny_index.dim + 1))
    with pytest.raises(ValueError, match="dimension does not match"):
        tree_search(tiny_index, "parsing library", SearchConfig(), other)


def test_rerank_without_a_client_is_rejected(tiny_index, hashed_embedder):
    cfg = SearchConfig(beam_width=3, final_k=3, rerank=True)
    with pytest.raises(ValueError, match="no LLM client"):
        recommend(tiny_index, "parsing library", cfg, hashed_embedder)


def test_depth1_equals_linear_scan(family_library, hashed_embedder):
    index = make_depth1_index(family_library, hashed_embedder)
    cfg = SearchConfig(beam_width=5, final_k=5)
    for intent in ["alpha packaging tools", family_library.artifacts[13].description]:
        got = tree_search(index, intent, cfg, hashed_embedder)
        assert got.entries == brute_force(index, hashed_embedder, intent, 5)


@pytest.mark.parametrize("beam_width", [3, 10])
def test_family_index_equals_per_node_oracle(family_index, family_library,
                                             hashed_embedder, beam_width):
    # Every node is scored by one matvec; the oracle scores each visited
    # node by its own np.dot, level by level, and must agree exactly.  A
    # beam of 3 prunes the 5 roots, one of 10 keeps them all.
    assert family_index.max_level() == 1 and len(family_index.roots) == 5
    cfg = SearchConfig(beam_width=beam_width, final_k=3)
    intents = [s.intent for s in perturbed_intents(family_library, 60)]
    for intent in intents + ["alpha packaging tools", ""]:
        got = tree_search(family_index, intent, cfg, hashed_embedder)
        entries, evaluations = beam_oracle(family_index, hashed_embedder, intent, beam_width)
        assert (got.entries, got.node_evaluations) == (entries, evaluations)


def test_deep_index_equals_per_node_oracle(hashed_embedder):
    index = make_balanced_index(branching=4, leaf_levels=3, dim=128)
    assert index.max_level() == 3
    cfg = SearchConfig(beam_width=3, final_k=3)
    rng = np.random.default_rng(1)
    for _ in range(50):
        intent = " ".join(rng.choice(["json", "yaml", "parse", "http", "retry", "cache",
                                      "files", "async"], size=4))
        got = tree_search(index, intent, cfg, hashed_embedder)
        entries, evaluations = beam_oracle(index, hashed_embedder, intent, 3)
        assert (got.entries, got.node_evaluations) == (entries, evaluations)


class FixedEmbedder:
    def __init__(self, vector):
        self.vector = np.asarray(vector, dtype=np.float64)

    def embed(self, texts):
        return np.stack([self.vector for _ in texts])


@pytest.mark.parametrize("row_order", [("L0-0", "L0-1"), ("L0-1", "L0-0")])
@pytest.mark.parametrize("reversed_on", ["L0-0", "L0-1"])
def test_exact_ties_rank_by_node_id(row_order, reversed_on):
    # Permuted embeddings against an all-ones query: equal in exact
    # arithmetic, different in float summation order.
    forward, query = np.array([0.1, 0.2, 0.3]), np.ones(3)
    assert np.dot(forward, query) != np.dot(forward[::-1], query)
    nodes = [{"id": nid, "artifact_id": f"a{nid[-1]}"} for nid in row_order]
    nodes.append({"id": "L1-0", "level": 1, "name": "root", "summary": "root",
                  "children": row_order})
    vectors = [forward[::-1] if nid == reversed_on else forward for nid in row_order]
    index = TreeIndex(**columns(nodes), roots=("L1-0",), embeddings=[*vectors, np.ones(3)])
    assert index.ids[:2] == row_order
    got = tree_search(index, "x", SearchConfig(beam_width=2, final_k=2), FixedEmbedder(query))
    assert got.ids() == ["a0", "a1"]
    assert got.entries[0][1] == got.entries[1][1]


def test_shared_children_and_leaf_roots():
    # L0-s has two parents and must be scored once; the root leaf L0-solo
    # is kept in the first round and must carry itself into the second.
    def node(nid, vector, children=()):
        return {"id": nid, "level": 1 if children else 0, "children": children,
                "artifact_id": None if children else "a" + nid[3:]}, vector
    nodes, vectors = zip(
        node("L0-0", [0, 1, 0]), node("L0-1", [0, 0, 1]), node("L0-2", [0.5, 0.5, 0]),
        node("L0-s", [0.9, 0.1, 0]), node("L0-solo", [0.8, 0.2, 0]),
        node("L1-0", [0.5, 0.5, 0.5], ("L0-0", "L0-1", "L0-s")),
        node("L1-1", [0.6, 0.4, 0], ("L0-2", "L0-s")))
    index = TreeIndex(**columns(nodes), roots=("L1-0", "L1-1", "L0-solo"), embeddings=vectors)
    got = tree_search(index, "x", SearchConfig(beam_width=3, final_k=3),
                      FixedEmbedder([1, 0, 0]))
    assert got.ids() == ["as", "asolo", "a2"]
    assert got.node_evaluations == 3 + 5


def test_single_leaf_index(hashed_embedder):
    lib = ArtifactLibrary(ecosystem="", artifacts=(
        Artifact(id="a1", name="only", description="json parsing helpers"),
    ))
    index = make_depth1_index(lib, hashed_embedder)
    result = tree_search(index, "parse json", SearchConfig(beam_width=3, final_k=1),
                         hashed_embedder)
    assert result.ids() == ["a1"]


def test_node_evaluation_bound(hashed_embedder):
    index = make_balanced_index(branching=8, leaf_levels=3, dim=128)
    layers = index.max_level() + 1
    cfg = SearchConfig(beam_width=5, final_k=5)
    rng = np.random.default_rng(0)
    for _ in range(10):
        intent = " ".join(rng.choice(list("abcdefghij"), size=6))
        result = tree_search(index, intent, cfg, hashed_embedder)
        assert result.node_evaluations <= 5 * 8 * layers
        assert len(result.entries) <= 5


def test_rerank_prompt_matches_golden():
    rendered = render_rerank_prompt(
        "collect and ship application logs",
        [("c1", "structured application logging"),
         ("c2", "distributed request tracing"),
         ("c3", "metrics aggregation and dashboards")],
    )
    assert rendered == GOLDEN.read_text().rstrip("\n")
    assert "from best match to worst match" in rendered


def test_rerank_prompt_flattens_newlines():
    rendered = render_rerank_prompt("x", [("c1", "line one\nline two")])
    assert "<c1, line one line two>" in rendered


def test_parse_id_list_variants():
    known = ["c1", "c2", "c3"]
    assert parse_id_list("[c3, c1, c2]", known) == ["c3", "c1", "c2"]
    assert parse_id_list("c2\nc3\nc1", known) == ["c2", "c3", "c1"]
    assert parse_id_list("'c1', 'c3'", known) == ["c1", "c3"]
    assert parse_id_list("no ids at all", known) == []


class StubClient:
    def __init__(self, response=None, error=None):
        self.response = response
        self.error = error

    def complete(self, prompt):
        if self.error:
            raise self.error
        return self.response


@pytest.fixture()
def tiny_index(hashed_embedder):
    lib = ArtifactLibrary(ecosystem="", artifacts=(
        Artifact(id="c1", name="one", description="json parsing library"),
        Artifact(id="c2", name="two", description="yaml parsing library"),
        Artifact(id="c3", name="three", description="toml parsing library"),
    ))
    return make_depth1_index(lib, hashed_embedder)


def candidates_for(index, embedder, intent="parsing library"):
    return tree_search(index, intent, SearchConfig(beam_width=3, final_k=3), embedder)


def test_rerank_applies_stub_order(tiny_index, hashed_embedder):
    cands = candidates_for(tiny_index, hashed_embedder)
    out = rerank("x", cands, StubClient("[c3, c1, c2]"), tiny_index, final_k=3)
    assert out.ids() == ["c3", "c1", "c2"]


def test_rerank_drops_hallucinated_appends_omitted(tiny_index, hashed_embedder):
    cands = candidates_for(tiny_index, hashed_embedder)
    original = cands.ids()
    out = rerank("x", cands, StubClient("[c3, zzz]"), tiny_index, final_k=3)
    expected = ["c3"] + [cid for cid in original if cid != "c3"]
    assert out.ids() == expected


def test_rerank_prose_fallback(tiny_index, hashed_embedder):
    cands = candidates_for(tiny_index, hashed_embedder)
    out = rerank("x", cands, StubClient("sorry, cannot help"), tiny_index, final_k=3)
    assert out.ids() == cands.ids()


def test_rerank_without_candidates_raises(tiny_index):
    with pytest.raises(ValueError, match="no candidates"):
        rerank("x", RankedList(intent="x", entries=[]), StubClient("[c1]"), tiny_index,
               final_k=3)


def test_rerank_transport_failure_degrades(tiny_index, hashed_embedder, caplog):
    cands = candidates_for(tiny_index, hashed_embedder)
    with caplog.at_level("WARNING"):
        out = rerank("x", cands, StubClient(error=LlmError("down")),
                     tiny_index, final_k=2)
    assert out.ids() == cands.ids()[:2]


def test_rerank_never_invents_ids(tiny_index, hashed_embedder):
    cands = candidates_for(tiny_index, hashed_embedder)
    out = rerank("x", cands, StubClient("[c2, made_up, c1, c1]"), tiny_index, final_k=3)
    assert set(out.ids()) <= set(cands.ids())
    assert len(out.ids()) == len(set(out.ids()))


def test_recommend_without_rerank_is_truncated_search(tiny_index, hashed_embedder):
    cfg = SearchConfig(beam_width=3, final_k=2)
    direct = tree_search(tiny_index, "parsing library", cfg, hashed_embedder)
    result = recommend(tiny_index, "parsing library", cfg, hashed_embedder)
    assert result.entries == direct.entries[:2]


def test_recommend_identity_rerank_same_set(tiny_index, hashed_embedder):
    cfg = SearchConfig(beam_width=3, final_k=3, rerank=True)
    plain = recommend(tiny_index, "parsing library",
                      SearchConfig(beam_width=3, final_k=3), hashed_embedder)

    class IdentityStub:
        def complete(self, prompt):
            import re
            ids = re.findall(r"<(\w+),", prompt)
            return "[" + ", ".join(ids) + "]"

    reranked = recommend(tiny_index, "parsing library", cfg, hashed_embedder,
                         llm_client=IdentityStub())
    assert set(reranked.ids()) == set(plain.ids())


def test_recommend_deterministic(tiny_index, hashed_embedder):
    cfg = SearchConfig(beam_width=3, final_k=3)
    a = recommend(tiny_index, "parse yaml", cfg, hashed_embedder)
    b = recommend(tiny_index, "parse yaml", cfg, hashed_embedder)
    assert a.entries == b.entries

