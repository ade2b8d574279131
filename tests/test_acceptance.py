"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line in the terminal summary and
enforces its own runtime budget.
"""

import contextlib
import string
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    ACCEPTANCE_RESULTS,
    make_balanced_index,
    make_depth1_index,
    make_family_library,
    perturbed_intents,
)
from semtree.baselines import (
    build_term_index,
    jensen_shannon_divergence,
    score_bm25,
    score_lsi,
    score_tfidf,
)
from semtree.cluster import fit_gmm, select_k_bic, soft_assign
from semtree.embed import EmbedderConfig, HashedEmbedder
from semtree.metrics import dcg_at_k, precision_at_k, silhouette, target_rank
from semtree.search import (
    RankedList,
    SearchConfig,
    recommend,
    render_rerank_prompt,
    tree_search,
)
from semtree.summarize import (
    SummaryParseError,
    parse_feature_line,
    render_summary_prompt,
)
from semtree.tree import StoppingCriteria, build_tree, load_tree, save_tree, validate_tree

from test_baselines import make_lib, oracle_bm25_scores, oracle_tfidf_scores
from test_metrics import manual_tree, silhouette_oracle
from test_search import brute_force

DATA = Path(__file__).parent / "data"


@contextlib.contextmanager
def criterion(name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"runtime {elapsed:.2f}s exceeded the {budget_seconds}s budget")
    except BaseException:
        ACCEPTANCE_RESULTS.append(f"FAIL  {name}")
        raise
    ACCEPTANCE_RESULTS.append(
        f"PASS  {name} ({elapsed:.2f}s < {budget_seconds}s)")


@pytest.fixture(scope="module")
def embedder():
    return HashedEmbedder(EmbedderConfig(provider="hashed-local", dim=128, seed=3))


@pytest.fixture(scope="module")
def fixture_library():
    return make_family_library(n_families=5, per_family=20, seed=7)


def test_criterion_1_metric_exactness():
    with criterion("1 metric exactness (1e-6, monotone over 1000 lists)", 5):
        r = RankedList(intent="q", entries=[("a", 0.0), ("b", 0.0), ("c", 0.0)])
        assert precision_at_k(r, "a", 1) == 1
        assert precision_at_k(r, "b", 1) == 0
        assert precision_at_k(r, "c", 3) == 1
        assert abs(dcg_at_k(r, "a", 1) - 1.0) < 1e-6
        assert abs(dcg_at_k(r, "b", 2) - 0.630930) < 1e-6
        assert dcg_at_k(r, "c", 2) == 0.0
        rng = np.random.default_rng(0)
        ids = [f"x{i}" for i in range(20)]
        for _ in range(1000):
            order = list(rng.permutation(ids))
            ranked = RankedList(intent="q", entries=[(i, 0.0) for i in order])
            target = order[int(rng.integers(20))]
            prev = 0
            for k in range(1, 21):
                cur = precision_at_k(ranked, target, k)
                assert cur >= prev
                prev = cur


def test_criterion_2_search_linear_equivalence(embedder):
    lib = make_family_library(n_families=10, per_family=20, seed=7)
    # One root over every leaf, and a built index with all the layers the
    # stopping criteria allow (200, 10, 2 and 1 nodes).
    indexes = [make_depth1_index(lib, embedder),
               build_tree(lib, embedder, stop=StoppingCriteria(max_top_level_nodes=1), seed=0)]
    assert [index.max_level() for index in indexes] == [1, 3]
    vocabulary = sorted({w for d in lib.descriptions for w in d.split()})
    rng = np.random.default_rng(1)
    cfg = SearchConfig(beam_width=5, final_k=5)
    with criterion("2 search equals per-level linear scan (depth-1 and 4-layer built "
                   "index, 200 artifacts, 50 intents)", 2):
        for _ in range(50):
            intent = " ".join(rng.choice(vocabulary, size=6))
            for index in indexes:
                got = tree_search(index, intent, cfg, embedder)
                assert got.entries == brute_force(index, embedder, intent, 5)


def test_criterion_3_sublinear_search(embedder):
    index = make_balanced_index(branching=8, leaf_levels=3, dim=128)
    assert len(index.leaves()) == 4096
    cfg = SearchConfig(beam_width=5, final_k=5)
    rng = np.random.default_rng(2)
    letters = list(string.ascii_lowercase)
    with criterion("3 sub-linear search (node_evaluations <= 160 on 4096 leaves)", 10):
        for _ in range(100):
            intent = " ".join("".join(rng.choice(letters, size=5)) for _ in range(4))
            result = tree_search(index, intent, cfg, embedder)
            assert result.node_evaluations <= 160


def test_criterion_4_clustering_recovery(pool):
    centers = np.zeros((3, 5))
    centers[1, 0] = 8.0
    centers[2, 1] = 8.0
    with criterion("4 clustering recovery (BIC k=3 in >=9/10 seeds, acc >=95%)", 10):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = np.vstack([rng.normal(c, 0.5, (100, 5)) for c in centers])
            model, _ = select_k_bic(X, range(1, 7), seed, pool)
            if model.k == 3:
                hits += 1
            history = np.array(model.ll_history)
            assert np.all(np.diff(history) >= -1e-8)
        assert hits >= 9

        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(c, 0.5, (100, 5)) for c in centers])
        model = fit_gmm(X, 3, seed=0, n_init=3)
        labels = np.argmax(soft_assign(model, X).responsibilities, axis=1)
        correct = 0
        for blob in range(3):
            block = labels[100 * blob:100 * (blob + 1)]
            correct += int(np.bincount(block, minlength=3).max())
        assert correct / 300 >= 0.95


def test_criterion_5_baseline_oracles():
    rng = np.random.default_rng(13)
    words = [f"w{i}" for i in range(30)]
    lib = make_lib([" ".join(rng.choice(words, size=rng.integers(4, 12)))
                    for _ in range(20)])
    idx = build_term_index(lib)
    intents = ["w1 w2 w5 w9", "w0 w3 w3 w7", "w12 w20"]
    with criterion("5 baseline oracle equivalence (1e-9; LSI full rank = tf-idf)", 2):
        for intent in intents:
            tfidf = dict(score_tfidf(idx, intent).entries)
            bm25 = dict(score_bm25(idx, intent).entries)
            oracle_t = oracle_tfidf_scores(lib, intent)
            oracle_b = oracle_bm25_scores(lib, intent)
            for i, aid in enumerate(lib.artifact_ids):
                assert abs(tfidf[aid] - oracle_t[i]) < 1e-9
                assert abs(bm25[aid] - oracle_b[i]) < 1e-9
            full = score_lsi(idx, intent, rank=min(idx.n_docs, len(idx.vocabulary)))
            assert full.ids() == score_tfidf(idx, intent).ids()
        p = np.array([0.25, 0.25, 0.5])
        assert abs(jensen_shannon_divergence(p, p)) < 1e-6
        assert abs(jensen_shannon_divergence(
            np.array([1.0, 0.0]), np.array([0.0, 1.0])) - 1.0) < 1e-6
        assert abs(jensen_shannon_divergence(
            np.array([0.5, 0.5]), np.array([1.0, 0.0])) - 0.311278) < 1e-6


def test_criterion_6_build_determinism(fixture_library, embedder, tmp_path):
    with criterion("6 build determinism + persistence fixpoint", 20):
        p1, p2, p3 = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        save_tree(build_tree(fixture_library, embedder, seed=0), p1)
        save_tree(build_tree(fixture_library, embedder, seed=0), p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = load_tree(p1)
        save_tree(loaded, p3)
        assert p3.read_bytes() == p1.read_bytes()
        validate_tree(loaded)  # acyclicity + full leaf coverage
        covered = {n.artifact_id for n in loaded.leaves()}
        assert covered == set(fixture_library.ids())


def test_criterion_7_end_to_end_offline(fixture_library, embedder):
    index = build_tree(fixture_library, embedder, seed=0)
    samples = perturbed_intents(fixture_library, 50, seed=11)
    cfg = SearchConfig(beam_width=10, final_k=5)
    rng = np.random.default_rng(3)
    with criterion("7 end-to-end offline recommendation (P@1 >= 0.8)", 30):
        hits = 0
        random_hits = 0
        results = []
        for sample in samples:
            result = recommend(index, sample.intent, cfg, embedder)
            results.append((sample, result))
            rank = target_rank(result, sample.target_id)
            hits += 1 if rank == 1 else 0
            shuffled = list(rng.permutation(fixture_library.ids()))[:5]
            random_hits += 1 if shuffled[0] == sample.target_id else 0
        assert hits / 50 >= 0.8
        assert hits >= random_hits

        class IdentityStub:
            def complete(self, prompt):
                import re
                ids = re.findall(r"<([\w-]+),", prompt)
                return "[" + ", ".join(ids) + "]"

        rerank_cfg = SearchConfig(beam_width=10, final_k=5, rerank=True)
        for sample, plain in results[:10]:
            reranked = recommend(index, sample.intent, rerank_cfg, embedder,
                                 llm_client=IdentityStub())
            assert set(reranked.ids()) == set(plain.ids())


def test_criterion_8_prompt_fidelity():
    with criterion("8 prompt fidelity (golden templates, round-trip parsing)", 5):
        summary = render_summary_prompt([
            "Logging: structured application logging",
            "Tracing: distributed request tracing",
        ])
        golden_summary = (DATA / "golden_prompt_summary.txt").read_text().rstrip("\n")
        assert summary == golden_summary
        assert "generate a parent common feature" in summary

        rerank_prompt = render_rerank_prompt(
            "collect and ship application logs",
            [("c1", "structured application logging"),
             ("c2", "distributed request tracing"),
             ("c3", "metrics aggregation and dashboards")],
        )
        golden_rerank = (DATA / "golden_prompt_rerank.txt").read_text().rstrip("\n")
        assert rerank_prompt == golden_rerank
        assert "from best match to worst match" in rerank_prompt

        parsed_any = False
        for line in golden_summary.splitlines():
            try:
                parsed = parse_feature_line(line.strip())
            except SummaryParseError:
                continue
            assert parse_feature_line(parsed.format()) == parsed
            parsed_any = True
        assert parsed_any


def test_criterion_9_silhouette_correctness():
    with criterion("9 silhouette correctness (1.0 fixture; O(n^2) oracle, 1e-9)", 5):
        dup = manual_tree([
            [(1.0, 0.0), (1.0, 0.0)],
            [(0.0, 1.0), (0.0, 1.0)],
        ])
        assert abs(silhouette(dup, 1) - 1.0) < 1e-9

        rng = np.random.default_rng(4)
        for trial in range(5):
            clusters = [
                [tuple(rng.normal(center, 1.0, size=4)) for _ in range(rng.integers(2, 9))]
                for center in ((0, 0, 0, 0), (6, 0, 0, 0), (0, 6, 0, 0))
            ]
            t = manual_tree(clusters)
            value = silhouette(t, 1)
            assert abs(value - silhouette_oracle(t, 1)) < 1e-9
            assert -1.0 <= value <= 1.0
