import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import columns, make_family_library, perturbed_intents
from semtree.baselines import build_term_index, score_tfidf
from semtree.catalog import ArtifactLibrary, IntentSample
from semtree.metrics import (
    EvalReport,
    QueryRecord,
    dcg_at_k,
    metrics_from_records,
    precision_at_k,
    run_benchmark,
    silhouette,
    target_rank,
    write_csv,
)
from semtree.search import RankedList
from semtree.tree import TreeIndex, build_tree


def ranked(ids):
    return RankedList(intent="q", entries=[(i, 0.0) for i in ids])


# --- rank and P@K ---------------------------------------------------------

def test_target_rank_is_one_based():
    r = ranked(["a", "b", "c"])
    assert target_rank(r, "a") == 1
    assert target_rank(r, "c") == 3
    assert target_rank(r, "zzz") is None


def test_precision_at_k_hand_values():
    r = ranked(["a", "b", "c"])
    assert precision_at_k(r, "b", 1) == 0
    assert precision_at_k(r, "b", 2) == 1
    assert precision_at_k(r, "zzz", 3) == 0


def test_precision_rejects_bad_k():
    with pytest.raises(ValueError):
        precision_at_k(ranked(["a"]), "a", 0)


@given(rank=st.integers(1, 30), k1=st.integers(1, 30), k2=st.integers(1, 30))
def test_precision_monotone_in_k(rank, k1, k2):
    ids = [f"x{i}" for i in range(30)]
    r = ranked(ids)
    target = f"x{rank - 1}"
    lo, hi = min(k1, k2), max(k1, k2)
    assert precision_at_k(r, target, lo) <= precision_at_k(r, target, hi)


# --- DCG@K ----------------------------------------------------------------

def test_dcg_hand_values():
    r = ranked(["a", "b", "c"])
    assert dcg_at_k(r, "a", 1) == pytest.approx(1.0)
    # frozen: 1 / log2(3)
    assert dcg_at_k(r, "b", 2) == pytest.approx(0.630930, abs=1e-6)
    assert dcg_at_k(r, "c", 2) == 0.0
    assert dcg_at_k(r, "zzz", 5) == 0.0


def test_dcg_equals_formula_oracle():
    ids = [f"x{i}" for i in range(10)]
    r = ranked(ids)
    for pos in range(1, 11):
        got = dcg_at_k(r, f"x{pos - 1}", 10)
        assert got == pytest.approx(1.0 / math.log2(pos + 1), abs=1e-12)


# --- silhouette -----------------------------------------------------------

def vector_index(nodes, roots, vectors):
    """A ``TreeIndex`` of node literals whose rows are ``vectors`` with their norms."""
    vectors = np.asarray(vectors, dtype=float)
    return TreeIndex(**columns(nodes), roots=tuple(roots), values=vectors.T,
                     norms=np.linalg.norm(vectors, axis=1))


def manual_tree(cluster_embeddings):
    """Two-level index: one parent per list of leaf embeddings."""
    nodes = []
    vectors = []
    roots = []
    for ci, members in enumerate(cluster_embeddings):
        child_ids = []
        for mi, emb in enumerate(members):
            nid = f"L0-{ci}-{mi}"
            nodes.append({"id": nid})
            vectors.append(np.asarray(emb, dtype=float))
            child_ids.append(nid)
        pid = f"L1-{ci}"
        nodes.append({"id": pid, "level": 1, "children": tuple(child_ids)})
        vectors.append(np.mean([np.asarray(e, float) for e in members], axis=0))
        roots.append(pid)
    return vector_index(nodes, roots, vectors)


def test_silhouette_duplicated_points_is_one():
    t = manual_tree([
        [(1.0, 0.0), (1.0, 0.0)],
        [(0.0, 1.0), (0.0, 1.0)],
    ])
    assert silhouette(t, 1) == pytest.approx(1.0, abs=1e-12)


def test_silhouette_singletons_score_zero():
    t = manual_tree([[(1.0, 0.0)], [(0.0, 1.0)]])
    assert silhouette(t, 1) == 0.0


def test_silhouette_requires_two_parents():
    t = manual_tree([[(1.0, 0.0), (0.0, 1.0)]])
    with pytest.raises(ValueError, match="fewer than 2"):
        silhouette(t, 1)


def silhouette_oracle(t, level):
    """Quadratic reference: explicit a/b per membership with cosine distance."""
    parents = sorted(
        (n for n in t.nodes.values() if n.level == level and n.children),
        key=lambda n: n.id,
    )
    vectors = dict(zip(t.ids, t.unit_rows()))
    clusters = [[vectors[c] for c in p.children] for p in parents]

    def dist(u, v):
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        return 1.0 - float(np.dot(u, v)) / (nu * nv)

    values = []
    for ci, members in enumerate(clusters):
        for mi, vec in enumerate(members):
            if len(members) == 1:
                values.append(0.0)
                continue
            a = np.mean([dist(vec, o) for j, o in enumerate(members) if j != mi])
            b = min(
                np.mean([dist(vec, o) for o in other])
                for cj, other in enumerate(clusters) if cj != ci
            )
            values.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    return float(np.mean(values))


def test_silhouette_matches_quadratic_oracle(hashed_embedder):
    lib = make_family_library(n_families=4, per_family=8, seed=11)
    tree = build_tree(lib, hashed_embedder, seed=0)
    level = 1
    assert silhouette(tree, level) == pytest.approx(
        silhouette_oracle(tree, level), abs=1e-9)


def test_silhouette_of_a_tokenless_description_is_finite(hashed_embedder):
    # "!!! ???" has no token, so its row is zero: the origin, 1/2 from
    # every unit row, which scores 0 among unit rows and leaves the mean
    # finite, with no 0 / 0 and so no warning
    lib = make_family_library(n_families=4, per_family=8, seed=11)
    lib = ArtifactLibrary(ecosystem="", artifact_ids=(*lib.artifact_ids, "mute"),
                          names=(*lib.names, "mute"),
                          descriptions=(*lib.descriptions, "!!! ???"))
    tree = build_tree(lib, hashed_embedder, seed=0)
    mute = tree.leaf_rows["mute"]
    assert tree.norms[mute] == 0.0 and not tree.unit_rows()[mute].any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        score = silhouette(tree, 1)
    assert math.isfinite(score)
    assert score == pytest.approx(silhouette_oracle_of_unit_rows(tree, 1), abs=1e-9)


def silhouette_oracle_of_unit_rows(t, level):
    """``silhouette_oracle`` with the cosine distance of two unit rows as
    half their squared distance, which is defined for a zero row too."""
    parents = sorted(
        (n for n in t.nodes.values() if n.level == level and n.children),
        key=lambda n: n.id,
    )
    vectors = dict(zip(t.ids, t.unit_rows()))
    clusters = [[vectors[c] for c in p.children] for p in parents]
    values = []
    for ci, members in enumerate(clusters):
        for mi, vec in enumerate(members):
            if len(members) == 1:
                values.append(0.0)
                continue
            a = np.mean([0.5 * np.sum((vec - o) ** 2)
                         for j, o in enumerate(members) if j != mi])
            b = min(np.mean([0.5 * np.sum((vec - o) ** 2) for o in other])
                    for cj, other in enumerate(clusters) if cj != ci)
            values.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    return float(np.mean(values))


def test_silhouette_well_separated_families_positive(hashed_embedder):
    lib = make_family_library(n_families=4, per_family=10, seed=5)
    tree = build_tree(lib, hashed_embedder, seed=0)
    assert silhouette(tree, 1) > 0.0


def test_silhouette_counts_a_shared_child_once_per_parent():
    # L0-2 sits under both parents, as a soft assignment can place it
    vectors = [(1.0, 0.1, 0.0), (0.9, 0.2, 0.1), (0.5, 0.5, 0.2), (0.1, 1.0, 0.0),
               (0.0, 0.8, 0.3), (0.3, 0.2, 1.0)]
    nodes = [{"id": f"L0-{i}"} for i in range(len(vectors))]
    nodes += [{"id": "L1-0", "level": 1, "children": ("L0-0", "L0-1", "L0-2")},
              {"id": "L1-1", "level": 1, "children": ("L0-2", "L0-3", "L0-4", "L0-5")}]
    t = vector_index(nodes, ("L1-0", "L1-1"), [*vectors, np.ones(3), np.ones(3)])
    assert silhouette(t, 1) == pytest.approx(silhouette_oracle(t, 1), abs=1e-9)


def silhouette_fsum(t, level):
    """Reference that does not cancel: the distance of two unit rows is half
    their squared difference, and every sum is taken by ``math.fsum``."""
    ptr = t.child_ptr
    parents = sorted((r for r, lvl in enumerate(t.levels) if lvl == level and ptr[r + 1] > ptr[r]),
                     key=t.ids.__getitem__)
    rows = t.unit_rows()
    clusters = [[rows[c] / np.linalg.norm(rows[c]) for c in t.child_rows[ptr[r]:ptr[r + 1]]] for r in parents]

    def mean_dist(vec, members, count):
        return math.fsum(0.5 * math.fsum((vec - o) ** 2) for o in members) / count

    values = []
    for ci, members in enumerate(clusters):
        for vec in members:
            if len(members) == 1:
                values.append(0.0)
                continue
            a = mean_dist(vec, members, len(members) - 1)  # its own term is exactly 0
            b = min(mean_dist(vec, other, len(other))
                    for cj, other in enumerate(clusters) if cj != ci)
            values.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    return math.fsum(values) / len(values)


@pytest.mark.parametrize("separation", [1e-2, 1e-4])
@pytest.mark.parametrize("jitter", [1e-4, 1e-6, 1e-8])
def test_silhouette_of_nearly_parallel_clusters_matches_an_exact_sum(jitter, separation):
    # Three clusters in dim 8, two of whose directions are ``separation``
    # apart; rows are scaled by U(0.5, 2) and jittered by ``jitter``, so
    # 1 - cos of two rows loses most of its digits to cancellation.
    rng = np.random.default_rng([round(-math.log10(jitter)), round(-math.log10(separation))])
    for _ in range(5):
        first = rng.normal(size=8)
        first /= np.linalg.norm(first)
        step = rng.normal(size=8)
        step -= step.dot(first) * first
        directions = (first, first + separation * step / np.linalg.norm(step), rng.normal(size=8))
        clusters = [[rng.uniform(0.5, 2.0) * (d / np.linalg.norm(d) + jitter * rng.normal(size=8))
                     for _ in range(rng.integers(2, 40))] for d in directions]
        t = manual_tree(clusters)
        assert abs(silhouette(t, 1) - silhouette_fsum(t, 1)) < 1e-11


# --- benchmark runs -------------------------------------------------------

@pytest.fixture(scope="module")
def small_bench():
    lib = make_family_library(n_families=3, per_family=6, seed=9)
    pairs = perturbed_intents(lib, 12, seed=2)
    idx = build_term_index(lib)
    return lib, pairs, idx


def test_run_benchmark_self_consistent(small_bench):
    _, pairs, idx = small_bench
    report = run_benchmark("tfidf", lambda intent: score_tfidf(idx, intent), pairs)
    assert len(report.records) == len(pairs)
    assert report.metrics == metrics_from_records(report.records)
    # aggregate P@1 equals a direct recount of rank-1 hits
    hits = sum(1 for r in report.records if r.rank == 1)
    assert report.metrics["p@1"] == pytest.approx(hits / len(pairs))


def test_run_benchmark_timing_invariants(small_bench):
    _, pairs, idx = small_bench
    report = run_benchmark("tfidf", lambda intent: score_tfidf(idx, intent), pairs)
    t = report.timing
    assert 0.0 <= t["min"] <= t["mean"] <= t["max"]
    times = np.asarray([r.elapsed for r in report.records])
    assert t["mean"] == pytest.approx(float(times.mean()))
    assert t["std"] == pytest.approx(float(times.std()))


def test_run_benchmark_tolerates_failures(small_bench, caplog):
    _, pairs, idx = small_bench

    calls = {"n": 0}

    def flaky(intent):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("boom")
        return score_tfidf(idx, intent)

    with caplog.at_level("WARNING"):
        report = run_benchmark("flaky", flaky, pairs)
    assert report.records[0].rank is None
    assert len(report.records) == len(pairs)


def test_run_benchmark_rejects_empty_pairs(small_bench):
    _, _, idx = small_bench
    with pytest.raises(ValueError, match="no benchmark pairs"):
        run_benchmark("tfidf", lambda intent: score_tfidf(idx, intent), [])


def test_metrics_from_records_hand_values():
    records = [
        QueryRecord(intent="a", target_id="t", rank=1, elapsed=0.0),
        QueryRecord(intent="b", target_id="t", rank=3, elapsed=0.0),
        QueryRecord(intent="c", target_id="t", rank=None, elapsed=0.0),
    ]
    out = metrics_from_records(records)
    assert out["p@1"] == pytest.approx(1 / 3)
    assert out["p@4"] == pytest.approx(2 / 3)
    assert out["dcg@2"] == pytest.approx(1 / 3)
    assert out["dcg@5"] == pytest.approx((1.0 + 1.0 / math.log2(4)) / 3)


def test_report_json_round_trip(small_bench):
    import json

    _, pairs, idx = small_bench
    report = run_benchmark("tfidf", lambda intent: score_tfidf(idx, intent), pairs)
    doc = json.loads(report.to_json())
    assert doc["solution"] == "tfidf"
    assert doc["metrics"] == report.metrics
    assert len(doc["records"]) == len(pairs)


def test_write_csv(tmp_path):
    reports = [
        EvalReport(solution="a", metrics={"p@1": 0.5}, timing={"mean": 0.001}),
        EvalReport(solution="b", metrics={"p@1": 1.0}, timing={"mean": 0.002}),
    ]
    path = tmp_path / "out.csv"
    write_csv(reports, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "solution,p@1,time_mean"
    assert lines[1].startswith("a,0.5")
    assert len(lines) == 3
