import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    columns,
    library,
    make_balanced_index,
    make_depth1_index,
    make_family_library,
    perturbed_intents,
    unit_values,
)
from semtree.embed import EmbedderConfig, HashedEmbedder, l2_normalize, unit_rows
from semtree.llm import LlmError
from semtree.search import (
    SORT_WHOLE,
    RankedList,
    SearchConfig,
    cosines,
    parse_id_list,
    recommend,
    render_rerank_prompt,
    rerank,
    round_scores,
    tree_search,
)
from semtree.tree import StoppingCriteria, TreeIndex, build_tree

GOLDEN = Path(__file__).parent / "data" / "golden_prompt_rerank.txt"


def beam_oracle(index, embedder, intent, k):
    """Per-level linear scan with beam width ``k``: every visited node is
    scored by its own ``np.dot`` of float64 unit rows, rounded by the
    shared helper, and ranked by (-score, node id); kept leaves carry
    themselves to the next level.  Returns the entries and the number of
    node scores taken."""
    query = unit_rows(*embedder.embed([intent]))[0]
    vectors = dict(zip(index.ids, index.unit_rows()))
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


@pytest.mark.parametrize("beam_width, final_k, name", [
    (10, 1.5, "final_k"), (10, 2.0, "final_k"), (10, True, "final_k"),
    (1.5, 1, "beam_width"), (10.0, 5, "beam_width"), (True, 1, "beam_width"),
    (True, True, "beam_width"), ("10", 5, "beam_width"), (np.float64(10), 5, "beam_width"),
])
def test_search_config_rejects_a_non_integer_setting(beam_width, final_k, name):
    # 1.5 would fail later as a slice bound; True would be taken for 1
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        SearchConfig(beam_width=beam_width, final_k=final_k)


def test_search_config_takes_numpy_integers(tiny_index, hashed_embedder):
    cfg = SearchConfig(beam_width=np.int64(3), final_k=np.int32(2))
    got = recommend(tiny_index, "parsing library", cfg, hashed_embedder)
    want = recommend(tiny_index, "parsing library", SearchConfig(beam_width=3, final_k=2),
                     hashed_embedder)
    assert len(got.entries) == 2 and got.entries == want.entries


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
    for intent in ["alpha packaging tools", family_library.descriptions[13]]:
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


@pytest.mark.parametrize("intent", ["!!!", "", "漢字"])
def test_a_tokenless_intent_scores_every_entry_positive_zero(family_index, hashed_embedder,
                                                            intent):
    # a text with no [a-z0-9] token embeds to the zero vector, which shares
    # no feature with any node: every entry scores +0.0, as in BM25's list
    got = tree_search(family_index, intent, SearchConfig(beam_width=10, final_k=5),
                      hashed_embedder)
    assert [score.hex() for _, score in got.entries] == [(0.0).hex()] * 10
    values, norms = hashed_embedder.embed([intent])
    assert norms[0] == 0.0
    raw = cosines(family_index, values[0], norms[0])
    assert raw.tolist() == [0.0] * len(family_index.ids)
    assert not np.signbit(round_scores(raw)).any()


class CountEmbedder:
    """Embeds every text as the integer ``counts``, with their norm."""

    def __init__(self, counts):
        self.counts = np.asarray(counts, dtype=np.int64)

    def embed(self, texts):
        norm = np.sqrt(self.counts @ self.counts)
        return np.stack([self.counts for _ in texts]), np.full(len(texts), norm)


def exact_cosines(index, counts, norm):
    """Each node's ``(c_q · c_d) / (|c_q| |c_d|)``, its dot product summed
    in Python integers: exact before the one float64 division."""
    columns = index.values.T.astype(np.int64).tolist()
    return [float(sum(q * d for q, d in zip(counts, column))) / (norm * index.divisors[i])
            for i, column in enumerate(columns)]


def test_large_counts_score_exactly():
    # Counts near 2^22, whose products a query of |c_q|_1 = 16 sums past
    # 2^24, where float32 would round: the float64 product is exact, and
    # search equals the linear-scan oracle.  Each parent holds its first
    # child's counts.
    rng = np.random.default_rng(8)
    n, dim = 40, 6
    counts = (rng.integers(2**22 - 50, 2**22 + 50, size=(n, dim))
              * rng.choice([-1, 1], size=(n, dim)))
    counts[rng.random((n, dim)) < 0.3] = 0
    counts[n - 1] = 0  # a zero row scores 0
    parents = [{"id": f"L1-{j}", "level": 1,
                "children": tuple(f"L0-{i}" for i in range(j, n, 4))} for j in range(4)]
    nodes = [{"id": f"L0-{i}"} for i in range(n)] + parents
    values = np.vstack([counts, counts[:4]])
    index = TreeIndex(**columns(nodes), roots=[p["id"] for p in parents], values=values.T,
                      norms=np.sqrt((values * values).sum(axis=1)))
    assert index.counts and index.values.dtype == np.float64
    wide, narrow = [3, -5, 7, 0, 1, 0], [1, 0, 0, -1, 0, 0]
    for query in (wide, narrow, [0] * dim):
        embedder = CountEmbedder(query)
        q_values, q_norms = embedder.embed(["x"])
        raw = cosines(index, q_values[0], q_norms[0])
        assert raw.tolist() == exact_cosines(index, query, q_norms[0] or 1.0)
        for width in (1, 3, 10):
            got = tree_search(index, "x", SearchConfig(beam_width=width, final_k=1), embedder)
            assert (got.entries, got.node_evaluations) == beam_oracle(index, embedder, "x",
                                                                      width)
    # a float32 product would have rounded the wide query's sums
    rows = index.values[np.flatnonzero(wide)].astype(np.float32)
    assert (np.float32(wide)[np.flatnonzero(wide)] @ rows).tolist() != [
        sum(q * d for q, d in zip(wide, column)) for column in values.tolist()]


def test_a_remote_index_scores_as_its_unit_rows(tmp_path):
    # a remote embedder's rows are unit rows with norms of exactly 1.0: the
    # index holds them as float64 and scores a node by the product of two
    # unit rows over 1.0, which is the product itself, bit for bit
    from semtree.embed import RemoteEmbedder
    from semtree.tree import load_tree, save_tree

    rng = np.random.default_rng(2)
    table = {}  # text → its (not normalized) remote vector

    class Reply:
        status_code = 200

        def __init__(self, texts):
            self.body = {"embeddings": [table.setdefault(text, rng.normal(size=24).tolist())
                                        for text in texts]}

        def raise_for_status(self):
            pass

        def json(self):
            return self.body

    class Session:
        def post(self, url, json, headers, timeout):
            return Reply(json["input"])

    embedder = RemoteEmbedder(EmbedderConfig(provider="remote", dim=24, endpoint="stub"),
                              session=Session())
    lib = make_family_library(n_families=3, per_family=10, seed=4)
    built = build_tree(lib, embedder, stop=StoppingCriteria(max_top_level_nodes=2), seed=0)
    save_tree(built, tmp_path / "index.semtree")
    index = load_tree(tmp_path / "index.semtree")
    assert index.top_level >= 1 and index.values.dtype == np.float64
    assert index.norms.tolist() == [1.0] * len(index.ids)
    unit = np.stack([l2_normalize(table[text]) for text in lib.descriptions])
    assert index.values[:, :len(lib)].tobytes() == np.ascontiguousarray(unit.T).tobytes()
    for intent in lib.descriptions[:10]:
        query = l2_normalize(table[intent])
        nz = np.flatnonzero(query)
        raw = cosines(index, *(a[0] for a in embedder.embed([intent])))
        assert raw.tobytes() == (query[nz] @ index.values[nz]).tobytes()


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
    """Embeds every text as ``vector``, with a norm of 1."""

    def __init__(self, vector):
        self.vector = np.asarray(vector, dtype=np.float64)

    def embed(self, texts):
        return np.stack([self.vector for _ in texts]), np.ones(len(texts))


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
    index = TreeIndex(**columns(nodes), roots=("L1-0",), **unit_values([*vectors, np.ones(3)]))
    assert index.ids[:2] == row_order
    got = tree_search(index, "x", SearchConfig(beam_width=2, final_k=2), FixedEmbedder(query))
    assert got.ids() == ["a0", "a1"]
    assert got.entries[0][1] == got.entries[1][1]


@pytest.mark.parametrize("row_order", [("L0-0", "L0-1"), ("L0-1", "L0-0")])
def test_sparse_query_ties_rank_by_node_id(row_order):
    # The query is nonzero on dims 0, 2 and 4 only.  Both rows hold 0.1,
    # 0.2 and 0.3 there, in opposite orders, and are nonzero on different
    # other dims: equal in exact arithmetic, different in float summation
    # order, so only the rounding makes them tie.
    query = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    rows = {"L0-0": [0.1, 0.5, 0.2, 0.0, 0.3, 0.0], "L0-1": [0.3, 0.0, 0.2, 0.7, 0.1, 0.0]}
    assert np.dot(rows["L0-0"], query) != np.dot(rows["L0-1"], query)
    nodes = [{"id": nid, "artifact_id": f"a{nid[-1]}"} for nid in row_order]
    nodes.append({"id": "L1-0", "level": 1, "children": row_order})
    index = TreeIndex(**columns(nodes), roots=("L1-0",),
                      **unit_values([*(rows[nid] for nid in row_order), np.ones(6)]))
    got = tree_search(index, "x", SearchConfig(beam_width=2, final_k=2), FixedEmbedder(query))
    assert got.ids() == ["a0", "a1"]
    assert got.entries[0][1] == got.entries[1][1]


def full_product_beam(index, query, width):
    """The beam over the rounded scores of the full product ``E @ q``: each
    level's frontier fully sorted by (-score, id rank), kept leaves carried
    forward.  Returns the kept artifact ids and the number of node scores
    read."""
    scores = round_scores(index.unit_rows() @ query)
    frontier, evaluations = sorted(index.root_rows.tolist()), 0
    while True:
        evaluations += len(frontier)
        frontier = np.array(frontier)
        kept = frontier[np.lexsort((index.id_rank[frontier], -scores[frontier]))[:width]]
        if index.is_leaf[kept].all():
            return [index.artifact_ids[r] for r in kept.tolist()], evaluations
        reached = set()
        for r in kept.tolist():
            children = index.child_rows[index.child_ptr[r]:index.child_ptr[r + 1]].tolist()
            reached.update(children or [r])
        frontier = sorted(reached)


@pytest.mark.parametrize("branching, leaf_levels, seed",
                         [(3, 2, 0), (4, 3, 1), (8, 2, 2), (16, 1, 3)])
def test_search_equals_a_full_product_reference_beam(branching, leaf_levels, seed):
    # Sparse (hashed) and dense queries, beams narrower and wider than the
    # roots, so the stored root expansion runs; frontiers of at most
    # SORT_WHOLE rows are sorted whole, and the 16-way index's wider ones
    # (160 and 256 leaves) are cut by the partition first.
    index = make_balanced_index(branching=branching, leaf_levels=leaf_levels, dim=64,
                                seed=seed)
    hashed = HashedEmbedder(EmbedderConfig(dim=64))
    rng = np.random.default_rng(seed)
    words = ["json", "yaml", "parse", "http", "retry", "cache", "files", "async", "log"]
    for width in (1, branching - 1, branching, 10):
        cfg = SearchConfig(beam_width=width, final_k=1)
        for _ in range(20):
            intent = " ".join(rng.choice(words, size=3))
            dense = rng.normal(size=64)
            for embedder in (hashed, FixedEmbedder(dense / np.linalg.norm(dense))):
                query = unit_rows(*embedder.embed([intent]))[0]
                got = tree_search(index, intent, cfg, embedder)
                assert (got.ids(), got.node_evaluations) == full_product_beam(index, query,
                                                                              width)


@pytest.mark.parametrize("width", [1, 10, 50])
def test_ties_at_the_partition_cut_rank_by_node_id(width):
    # 200 leaves under one root hold one of three vectors, so a frontier
    # wider than SORT_WHOLE is cut inside a block of exact ties; the ties
    # at the cut must stay and be ranked by node id, whose order ("L0-10"
    # before "L0-2") is not the row order.
    assert 200 > SORT_WHOLE
    rng = np.random.default_rng(4)
    choices = rng.integers(0, 3, size=200)
    basis = [l2_normalize(rng.normal(size=8)) for _ in range(3)]
    nodes = [{"id": f"L0-{i}"} for i in range(200)]
    nodes.append({"id": "L1-0", "level": 1, "children": tuple(n["id"] for n in nodes)})
    index = TreeIndex(**columns(nodes), roots=("L1-0",),
                      **unit_values([*(basis[c] for c in choices.tolist()), np.ones(8)]))
    for _ in range(10):
        query = l2_normalize(rng.normal(size=8))
        got = tree_search(index, "x", SearchConfig(beam_width=width, final_k=1),
                          FixedEmbedder(query))
        assert (got.ids(), got.node_evaluations) == full_product_beam(index, query, width)
        last = got.entries[-1][1]
        tied = round_scores(index.unit_rows()[:200] @ query) == last
        assert tied.sum() > sum(score == last for _, score in got.entries)  # ties cross the cut


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
    index = TreeIndex(**columns(nodes), roots=("L1-0", "L1-1", "L0-solo"),
                      **unit_values(vectors))
    got = tree_search(index, "x", SearchConfig(beam_width=3, final_k=3),
                      FixedEmbedder([1, 0, 0]))
    assert got.ids() == ["as", "asolo", "a2"]
    assert got.node_evaluations == 3 + 5


def test_single_leaf_index(hashed_embedder):
    lib = library(("a1", "only", "json parsing helpers"))
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


# The sha256 of tree_search's (id, score.hex()) lists and node_evaluations
# for 500 perturbed intents on the BUILD_GATE_SHA256 index (a seeded
# 300-artifact catalog, built at seed 0), at beam widths 1, 5, 10, 20 and
# one as wide as the widest level.  It pins the product, the rounding, the
# partition cut, the tie-break and the beam expansion to the bit.  No
# score is -0.0: every zero is reported as +0.0.
SEARCH_GATE_SHA256 = "13743fc02ca1b7dd0dcf5065bf5d35b4fcdc6dad027b038e99b904e6474ae535"


@pytest.fixture(scope="module")
def gate(hashed_embedder):
    """The BUILD_GATE_SHA256 index and the 500 perturbed intents of the search gate."""
    lib = make_family_library(n_families=15, per_family=20, seed=12)
    index = build_tree(lib, hashed_embedder, seed=0)
    return index, [s.intent for seed in (11, 12) for s in perturbed_intents(lib, 250, seed=seed)]


def test_search_results_are_pinned(hashed_embedder, gate):
    index, intents = gate
    widest = max(np.bincount(index.levels).tolist())
    digest = hashlib.sha256()
    for width in (1, 5, 10, 20, widest):
        cfg = SearchConfig(beam_width=width, final_k=1)
        for intent in intents:
            got = tree_search(index, intent, cfg, hashed_embedder)
            entries = [[aid, score.hex()] for aid, score in got.entries]
            assert (-0.0).hex() not in [h for _, h in entries], intent
            digest.update(json.dumps([entries, got.node_evaluations]).encode())
    assert digest.hexdigest() == SEARCH_GATE_SHA256


def unit_row_product(dim_major, query):
    """Every node's score as the float64 product of two unit rows at the
    query's nonzero dims, the nodes' as the ``(dim, n)`` ``dim_major``: the
    product search took before it read counts."""
    nz = np.flatnonzero(query)
    return query[nz] @ dim_major[nz]


def test_count_scores_round_as_the_unit_row_product(hashed_embedder, gate):
    # the exact count product over the product of norms differs
    # from the unit-row product in the last bits only: rounded, every one of
    # the 500 intents' scores of every node is the same
    index, intents = gate
    assert index.counts
    dim_major = np.ascontiguousarray(index.unit_rows().T)
    for intent in intents:
        values, norms = hashed_embedder.embed([intent])
        raw = cosines(index, values[0], norms[0])
        want = unit_row_product(dim_major, unit_rows(values, norms)[0])
        assert np.abs(raw - want).max() < 1e-15
        assert round_scores(raw).tobytes() == round_scores(want).tobytes(), intent


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
    lib = library(
        ("c1", "one", "json parsing library"),
        ("c2", "two", "yaml parsing library"),
        ("c3", "three", "toml parsing library"),
    )
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

