import functools
import hashlib
import multiprocessing
import os
from collections import Counter
from itertools import chain

import numpy as np
import pytest

from semtree import cluster
from semtree.cluster import (
    GmmModel,
    SweepPool,
    VARIANCE_FLOOR,
    bic,
    fit_gmm,
    reduce,
    select_k_bic,
    soft_assign,
)
from semtree.embed import unit_rows
from semtree.tree import build_tree, save_tree
from conftest import make_family_library
from test_kernels import loop_kernel, loop_weighted_log_prob
from test_tree import BUILD_GATE_SHA256


def two_blob_data(seed=0, sigma=0.5):
    rng = np.random.default_rng(seed)
    return np.vstack([
        rng.normal((0.0, 0.0), sigma, (50, 2)),
        rng.normal((10.0, 10.0), sigma, (50, 2)),
    ])


def three_blob_data(seed=0, n=100, sigma=0.5):
    centers = np.zeros((3, 5))
    centers[1, 0] = 8.0
    centers[2, 1] = 8.0
    rng = np.random.default_rng(seed)
    return np.vstack([rng.normal(c, sigma, (n, 5)) for c in centers]), centers


# --- reduce ---------------------------------------------------------------

def test_reduce_line_captures_variance():
    t = np.linspace(0, 1, 30)
    X = np.stack([t, t], axis=1)
    reduced = reduce(X, 1)
    assert reduced.shape == (30, 1)
    assert reduced.var(axis=0).sum() / X.var(axis=0).sum() >= 0.999


def test_reduce_matches_svd_oracle():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 16))
    reduced = reduce(X, 4)
    # oracle: direct truncated SVD of the centered matrix, U_k S_k up to sign
    u, s, _ = np.linalg.svd(X - X.mean(axis=0), full_matrices=False)
    assert np.allclose(np.abs(reduced), np.abs(u[:, :4] * s[:4]), rtol=0.0, atol=1e-9)
    # components are ordered by explained variance
    assert np.allclose(reduced.var(axis=0), s[:4] ** 2 / 20, rtol=0.0, atol=1e-9)


def test_reduce_identical_rows_to_zeros(caplog):
    X = np.ones((6, 3))
    with caplog.at_level("DEBUG"):
        reduced = reduce(X, 2)
    assert reduced.shape == (6, 2) and not reduced.any()
    assert not caplog.records
    # rows within 1e-12 of each other go through the same SVD, not back as the input
    near = X + np.random.default_rng(0).normal(scale=1e-14, size=X.shape)
    assert np.abs(near - near.mean(axis=0)).max() < 1e-12
    assert reduce(near, 2).shape == (6, 2)


# --- fit_gmm --------------------------------------------------------------

def test_k1_closed_form():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 3))
    model = fit_gmm(X, 1, seed=0)
    assert np.allclose(model.means[0], X.mean(axis=0), atol=1e-8)
    assert np.allclose(model.variances[0], np.maximum(X.var(axis=0), VARIANCE_FLOOR),
                       atol=1e-8)


def test_two_blob_recovery():
    X = two_blob_data()
    model = fit_gmm(X, 2, seed=0)
    centers = sorted(model.means.tolist())
    assert np.linalg.norm(np.array(centers[0]) - [0, 0]) < 0.3
    assert np.linalg.norm(np.array(centers[1]) - [10, 10]) < 0.3
    assignment = soft_assign(model, X)
    labels = np.argmax(assignment.responsibilities, axis=1)
    majority0 = np.bincount(labels[:50]).argmax()
    acc = (labels[:50] == majority0).mean() / 2 + (labels[50:] != majority0).mean() / 2
    assert acc >= 0.95


def test_fit_deterministic():
    X = two_blob_data()
    a = fit_gmm(X, 2, seed=42)
    b = fit_gmm(X, 2, seed=42)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.weights, b.weights)
    assert a.log_likelihood == b.log_likelihood


def test_fit_rejects_too_few_points():
    with pytest.raises(ValueError, match="more points"):
        fit_gmm(np.zeros((3, 2)), 3, seed=0)


def test_log_likelihood_monotone():
    X = two_blob_data(seed=5)
    model = fit_gmm(X, 3, seed=1)
    history = np.array(model.ll_history)
    assert np.all(np.diff(history) >= -1e-8)


def test_weights_sum_and_variance_floor():
    X = np.vstack([np.zeros((10, 2)), np.ones((10, 2))])  # duplicate points
    model = fit_gmm(X, 2, seed=0)
    assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(model.variances >= VARIANCE_FLOOR)


# --- select_k_bic ---------------------------------------------------------

def test_bic_selects_three_clusters(pool):
    X, _ = three_blob_data(seed=0)
    model, curve = select_k_bic(X, range(1, 7), 0, pool)
    assert model.k == 3
    assert [k for k, _ in curve] == [1, 2, 3, 4, 5, 6]


def test_bic_excludes_k_at_n(pool):
    X = np.random.default_rng(0).normal(size=(5, 2))
    model, curve = select_k_bic(X, range(1, 6), 0, pool)
    assert all(k < 5 for k, _ in curve)


def test_bic_single_blob_prefers_one(pool):
    rng = np.random.default_rng(7)
    X = rng.normal(0.0, 0.1, size=(80, 3))
    model, curve = select_k_bic(X, range(1, 5), 0, pool)
    assert model.k == 1
    # hand-check the k=1 BIC value against the formula
    m1 = fit_gmm(X, 1, seed=0)
    p = 0 + 2 * 1 * 3
    assert dict(curve)[1] == pytest.approx(p * np.log(80) - 2 * m1.log_likelihood)


def duplicate_groups(offset):
    rng = np.random.default_rng(0)
    X = np.repeat(offset + rng.normal(size=(6, 10)), 10, axis=0)
    X[::7] += rng.normal(scale=1e-4, size=X[::7].shape)
    return X


@pytest.mark.parametrize("offset", [0.0, 123.456])
def test_bic_on_duplicate_groups_matches_loop_kernel(offset, monkeypatch):
    # Six groups of exact duplicates (every 7th row jittered by 1e-4) drive
    # variances to VARIANCE_FLOOR, where the matmul expansion of the log
    # density cancels; unguarded, EM then reports a decreasing likelihood.
    X = duplicate_groups(offset)

    def outcome():
        with SweepPool() as pool:  # forked anew, so its workers fit with the kernel in place
            model, _ = select_k_bic(X, range(2, 9), 0, pool)
        return model.k, len(model.ll_history), soft_assign(model, X).clusters

    got = outcome()
    monkeypatch.setattr(cluster, "weighted_log_prob", loop_kernel)
    assert got == outcome()


def reference_fit_gmm(data, k, seed, *, n_init=1):
    """EM in the straightforward sample-major layout: (n, k) log densities
    from the per-component loop kernel, reductions along the k-axis, and
    each variance from x − μ.  The oracle for ``fit_gmm``'s component-major
    EM, which takes variances as E[x²] − μ² where that does not cancel."""
    if n_init > 1:
        fits = [reference_fit_gmm(data, k, seed + 7919 * i) for i in range(n_init)]
        return max(fits, key=lambda m: m.log_likelihood)
    X = np.asarray(data, dtype=np.float64)
    n = X.shape[0]
    means = cluster._kmeanspp_means(X, k, np.random.default_rng(seed))
    variances = np.tile(np.maximum(X.var(axis=0), VARIANCE_FLOOR), (k, 1))
    weights = np.full(k, 1.0 / k)
    history = []
    for _ in range(cluster.EM_MAX_ITER):
        wlp = loop_weighted_log_prob(X, means, variances, np.log(weights))
        m = wlp.max(axis=1, keepdims=True)
        log_norm = (m + np.log(np.exp(wlp - m).sum(axis=1, keepdims=True)))[:, 0]
        ll = float(log_norm.sum())
        converged = bool(history) and abs(ll - history[-1]) < cluster.EM_TOL
        history.append(ll)
        if converged:
            break
        resp = np.exp(wlp - log_norm[:, None])
        nk = resp.sum(axis=0) + 1e-300
        weights = nk / n
        means = (resp.T @ X) / nk[:, None]
        variances = np.stack([resp[:, j] @ (X - means[j]) ** 2 for j in range(k)])
        variances = np.maximum(variances / nk[:, None], VARIANCE_FLOOR)
    return GmmModel(k=k, weights=weights, means=means, variances=variances,
                    log_likelihood=history[-1], ll_history=tuple(history))


def reference_clusters(model, X, threshold=0.2):
    """Each non-empty cluster's rows, in cluster order: per row, from the
    loop kernel, the clusters at or above ``threshold`` plus the argmax,
    inverted into clusters one row at a time."""
    wlp = loop_weighted_log_prob(X, model.means, model.variances, np.log(model.weights))
    resp = np.exp(wlp - wlp.max(axis=1, keepdims=True))
    resp /= resp.sum(axis=1, keepdims=True)
    clusters = [[] for _ in range(model.k)]
    for i, row in enumerate(resp):
        for c in set(np.flatnonzero(row >= threshold).tolist()) | {int(np.argmax(row))}:
            clusters[c].append(i)
    return tuple(tuple(c) for c in clusters if c)


def ill_conditioned(case):
    rng = np.random.default_rng(1)
    if case.startswith("duplicates"):
        return duplicate_groups(float(case.split("@")[1])), range(2, 9)
    if case == "underflow":  # blobs 1e3 apart: cross responsibilities are exactly 0
        centers = np.array([[0.0, 0.0, 0.0], [1e3, 0.0, 0.0], [0.0, 1e3, 1e3]])
        return np.vstack([rng.normal(c, 1.0, (30, 3)) for c in centers]), range(2, 6)
    if case == "k=n-1":
        return rng.normal(size=(12, 3)), range(2, 12)
    if case == "d=1":
        return np.concatenate([rng.normal(c, 0.3, 40) for c in (-4.0, 0.0, 5.0)])[:, None], \
            range(1, 7)
    raise ValueError(case)


ILL_CONDITIONED = ["duplicates@0", "duplicates@123.456", "duplicates@1e6", "underflow",
                   "k=n-1", "d=1"]


@pytest.mark.parametrize("case", ILL_CONDITIONED)
def test_em_matches_the_sample_major_reference(case, monkeypatch):
    X, k_range = ill_conditioned(case)
    for k in k_range:
        got = fit_gmm(X, k, seed=0, n_init=cluster.BIC_RESTARTS)
        want = reference_fit_gmm(X, k, seed=0, n_init=cluster.BIC_RESTARTS)
        assert len(got.ll_history) == len(want.ll_history), k
        assert got.log_likelihood == pytest.approx(want.log_likelihood, rel=1e-9, abs=0.0), k
    with SweepPool() as pool:
        got, _ = select_k_bic(X, k_range, 0, pool)
    monkeypatch.setattr(cluster, "fit_gmm", reference_fit_gmm)  # forked anew, so workers see it
    with SweepPool() as pool:
        want, _ = select_k_bic(X, k_range, 0, pool)
    assert got.k == want.k
    assert soft_assign(got, X).clusters == reference_clusters(want, X)


def test_underflow_case_has_exactly_zero_responsibilities():
    X, _ = ill_conditioned("underflow")
    assignment = soft_assign(fit_gmm(X, 3, seed=0), X)
    assert np.any(assignment.responsibilities == 0.0)
    assert sorted(chain.from_iterable(assignment.clusters)) == list(range(len(X)))


def test_bic_empty_range(pool):
    with pytest.raises(ValueError, match="no valid k"):
        select_k_bic(np.zeros((4, 2)), range(8, 9), 0, pool)


def test_tied_bic_values_keep_the_smallest_k(pool, monkeypatch):
    X, _ = three_blob_data(seed=0)
    values = {2: 5.0, 3: 1.0, 4: 7.0, 5: 1.0, 6: 1.0}
    monkeypatch.setattr(cluster, "bic", lambda model, n: values[model.k])
    model, curve = select_k_bic(X, range(2, 7), 0, pool)
    assert curve == list(values.items())
    assert model.k == 3


# --- the BIC sweep's worker pool -------------------------------------------

def set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def sweep_case(case, hashed_embedder):
    if case == "level-0":  # the pinned build's first level: k = 2..18 over 300 rows
        lib = make_family_library(n_families=15, per_family=20, seed=12)
        X = reduce(unit_rows(*hashed_embedder.embed(list(lib.descriptions))), 10)
        return X, range(2, 19)
    return ill_conditioned(case)


@pytest.mark.parametrize("case", ["level-0", "duplicates@1e6"])
def test_pooled_sweep_is_bit_equal_to_one_cpu(case, hashed_embedder, monkeypatch):
    X, k_range = sweep_case(case, hashed_embedder)
    set_cpus(monkeypatch, 2)
    with SweepPool() as pool:
        pooled, pooled_curve = select_k_bic(X, k_range, 0, pool)
    assert multiprocessing.active_children() == []
    set_cpus(monkeypatch, 1)
    with SweepPool() as pool:
        serial, serial_curve = select_k_bic(X, k_range, 0, pool)
    assert pooled.k == serial.k
    assert pooled_curve == serial_curve
    for name in ("weights", "means", "variances"):
        assert getattr(pooled, name).tobytes() == getattr(serial, name).tobytes(), name
    assert pooled.ll_history == serial.ll_history


# --- stacked restarts ------------------------------------------------------

def assert_same_fit(got, want):
    assert got.k == want.k
    for name in ("weights", "means", "variances"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.log_likelihood == want.log_likelihood
    assert got.ll_history == want.ll_history


def restarts_alone(X, k_range, seed=0):
    """Check, for each k, that the restarts fitted together give, bit for
    bit, the first best of the lone fits from seeds ``seed + 7919·i``;
    return each k's lone iteration counts."""
    iterations = {}
    for k in k_range:
        alone = [fit_gmm(X, k, seed + 7919 * i) for i in range(cluster.BIC_RESTARTS)]
        assert_same_fit(fit_gmm(X, k, seed, n_init=cluster.BIC_RESTARTS),
                        max(alone, key=lambda m: m.log_likelihood))
        iterations[k] = [len(m.ll_history) for m in alone]
    return iterations


@pytest.mark.parametrize("case", ["level-0"] + ILL_CONDITIONED)
def test_stacked_restarts_equal_the_best_lone_fit(case, hashed_embedder):
    X, k_range = sweep_case(case, hashed_embedder)
    iterations = restarts_alone(X, k_range)
    # some k's restarts leave the stack at different iterations
    assert any(len(set(counts)) > 1 for counts in iterations.values())


def test_stacked_restarts_stopped_at_the_iteration_cap(hashed_embedder, monkeypatch):
    monkeypatch.setattr(cluster, "EM_MAX_ITER", 20)
    X, k_range = sweep_case("level-0", hashed_embedder)
    counts = [n for per_k in restarts_alone(X, k_range).values() for n in per_k]
    assert max(counts) == 20 and min(counts) < 20


class SweepFault(Exception):
    pass


def failing_fit(data, k, seed, *, n_init=1):
    if k == 4:
        raise SweepFault(f"k={k} in process {os.getpid()}")
    return fit_gmm(data, k, seed, n_init=n_init)


def test_a_fault_in_a_worker_reaches_the_caller(monkeypatch):
    X, _ = three_blob_data(seed=0)
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(cluster, "fit_gmm", failing_fit)
    with pytest.raises(SweepFault, match="k=4 in process") as raised, SweepPool() as pool:
        select_k_bic(X, range(2, 7), 0, pool)
    assert raised.value.args[0] != f"k=4 in process {os.getpid()}"  # raised in a worker
    assert multiprocessing.active_children() == []


class ForkCounter:
    """Stands in for ``multiprocessing.get_context``: counts the fork pools made."""

    def __init__(self):
        self.pools, self.fork = 0, multiprocessing.get_context("fork")

    def __call__(self, method):
        assert method == "fork"
        return self

    def Pool(self, workers):
        self.pools += 1
        return self.fork.Pool(workers)


@pytest.fixture()
def forks(monkeypatch):
    counter = ForkCounter()
    monkeypatch.setattr(cluster.multiprocessing, "get_context", counter)
    return counter


@pytest.mark.parametrize("cpus, pools", [(2, 1), (1, 0)])
def test_a_pool_called_twice_forks_once_and_on_one_cpu_never(cpus, pools, forks,
                                                             monkeypatch):
    X, _ = three_blob_data(seed=0)
    set_cpus(monkeypatch, cpus)
    fit = functools.partial(cluster._fit_candidate, X, 0)
    with SweepPool() as pool:
        first, second = pool.fits(fit, [2, 3, 4]), pool.fits(fit, [3, 5])
        assert forks.pools == pools
    assert multiprocessing.active_children() == []
    assert list(first) == ([4, 3, 2] if pools else [2, 3, 4])  # workers: largest k first
    assert first[3].ll_history == second[3].ll_history
    assert [m.k for m in second.values()] == list(second)


def test_a_build_forks_one_pool_for_all_its_sweeps(forks, hashed_embedder, tmp_path,
                                                   monkeypatch):
    import semtree.tree as tree_mod

    set_cpus(monkeypatch, 2)
    sweeps = []
    sweep = tree_mod.select_k_bic
    monkeypatch.setattr(tree_mod, "select_k_bic",
                        lambda X, ks, seed, pool: sweeps.append(len(ks))
                        or sweep(X, ks, seed, pool))
    path = tmp_path / "index.json"
    build_into(hashed_embedder, path)
    assert len(sweeps) == 2 and min(sweeps) >= 2  # both levels sweep in workers
    assert forks.pools == 1
    assert multiprocessing.active_children() == []
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BUILD_GATE_SHA256


def test_a_build_without_a_sweep_forks_nothing(forks, hashed_embedder, monkeypatch):
    set_cpus(monkeypatch, 2)
    index = build_tree(make_family_library(n_families=2, per_family=5, seed=1),
                       hashed_embedder, seed=0)
    assert index.top_level == 0
    assert forks.pools == 0


def fault_above_the_leaves(data, k, seed, *, n_init=1):
    if len(data) < 100:  # the level-1 sweep of build_into's 300 leaves
        raise SweepFault(f"level 1, k={k} in process {os.getpid()}")
    return fit_gmm(data, k, seed, n_init=n_init)


def test_a_fault_in_a_level_1_worker_ends_the_build_and_its_pool(forks, hashed_embedder,
                                                                 tmp_path, monkeypatch):
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(cluster, "fit_gmm", fault_above_the_leaves)
    with pytest.raises(SweepFault, match="level 1, k=") as raised:
        build_into(hashed_embedder, tmp_path / "index.json")
    assert not raised.value.args[0].endswith(f"in process {os.getpid()}")  # in a worker
    assert forks.pools == 1
    assert multiprocessing.active_children() == []


def build_into(embedder, path):
    lib = make_family_library(n_families=15, per_family=20, seed=12)
    save_tree(build_tree(lib, embedder, seed=0), path)


def test_a_daemonic_process_builds_the_same_bytes(hashed_embedder, tmp_path, monkeypatch):
    # A daemonic process may not start a pool; with two CPUs reported it
    # must fit in process rather than fail.
    set_cpus(monkeypatch, 2)
    path = tmp_path / "index.json"
    child = multiprocessing.get_context("fork").Process(
        target=build_into, args=(hashed_embedder, path), daemon=True)
    child.start()
    child.join(timeout=120)
    assert not child.is_alive()
    assert child.exitcode == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BUILD_GATE_SHA256


# --- one BLAS thread per build --------------------------------------------

@pytest.fixture()
def blas_threads():
    """The BLAS thread count getter, with the count set to 2 for the test
    and put back after it."""
    threads = cluster._openblas_threads()
    if threads is None:
        pytest.skip("numpy has no loaded scipy-openblas thread setter")
    get_threads, set_threads = threads
    before = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(before)


class ThreadRecordingEmbedder:
    """Notes the BLAS thread count at each ``embed`` call, then embeds with
    ``inner``, or raises when there is none."""

    def __init__(self, get_threads, inner=None):
        self.get_threads, self.inner, self.seen = get_threads, inner, []

    def embed(self, texts):
        self.seen.append(self.get_threads())
        if self.inner is None:
            raise RuntimeError("embedder down")
        return self.inner.embed(texts)


def test_a_build_runs_on_one_blas_thread_and_restores_the_count(blas_threads,
                                                                hashed_embedder):
    embedder = ThreadRecordingEmbedder(blas_threads, hashed_embedder)
    build_tree(make_family_library(n_families=4, per_family=10, seed=1), embedder, seed=0)
    assert len(embedder.seen) > 1 and set(embedder.seen) == {1}
    assert blas_threads() == 2


def test_a_build_that_raises_restores_the_blas_thread_count(blas_threads):
    embedder = ThreadRecordingEmbedder(blas_threads)
    with pytest.raises(RuntimeError, match="embedder down"):
        build_tree(make_family_library(n_families=4, per_family=10, seed=1), embedder, seed=0)
    assert embedder.seen == [1]
    assert blas_threads() == 2


def test_forked_sweep_workers_inherit_one_blas_thread(blas_threads, hashed_embedder,
                                                      monkeypatch):
    set_cpus(monkeypatch, 2)

    def one_thread_fit(data, k, seed, *, n_init=1):
        assert os.getpid() != parent, f"k={k} fitted in process"
        assert blas_threads() == 1, f"k={k} on {blas_threads()} BLAS threads"
        return fit_gmm(data, k, seed, n_init=n_init)

    parent = os.getpid()
    monkeypatch.setattr(cluster, "fit_gmm", one_thread_fit)
    build_tree(make_family_library(n_families=15, per_family=20, seed=12), hashed_embedder,
               seed=0)
    assert blas_threads() == 2


def test_a_build_without_the_blas_setter_writes_the_same_bytes(hashed_embedder, tmp_path,
                                                               monkeypatch):
    monkeypatch.setattr(cluster, "_openblas_threads", lambda: None)
    path = tmp_path / "index.json"
    build_into(hashed_embedder, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BUILD_GATE_SHA256


def test_a_missing_blas_setter_is_logged_once(monkeypatch, caplog):
    monkeypatch.setattr(cluster.glob, "glob", lambda pattern: [])
    cluster._openblas_threads.cache_clear()
    try:
        with caplog.at_level("DEBUG", logger="semtree.cluster"):
            for _ in range(2):
                with cluster.one_blas_thread():
                    pass
    finally:
        cluster._openblas_threads.cache_clear()
    assert [r.levelname for r in caplog.records] == ["DEBUG"]


# --- soft_assign ----------------------------------------------------------

def test_rows_stochastic_and_memberships_valid():
    X = two_blob_data()
    model = fit_gmm(X, 2, seed=0)
    assignment = soft_assign(model, X, threshold=0.2)
    rows = assignment.responsibilities.sum(axis=1)
    assert np.allclose(rows, 1.0, atol=1e-9)
    assert np.all(assignment.responsibilities >= 0)
    assert len(assignment.clusters) == model.k  # so cluster c is component c
    for i, row in enumerate(assignment.responsibilities):
        assert i in assignment.clusters[int(np.argmax(row))]
    for members in assignment.clusters:
        assert list(members) == sorted(set(members)) and set(members) <= set(range(len(X)))
    assert assignment.clusters == reference_clusters(model, X)


def test_point_at_component_mean_single_membership():
    X = two_blob_data()
    model = fit_gmm(X, 2, seed=0)
    assignment = soft_assign(model, model.means[:1], threshold=0.2)
    assert assignment.clusters == ((0,),)
    assert assignment.responsibilities[0].max() > 0.99


def test_threshold_half_caps_memberships():
    X = two_blob_data()
    model = fit_gmm(X, 2, seed=0)
    assignment = soft_assign(model, X, threshold=0.5)
    assert max(Counter(chain.from_iterable(assignment.clusters)).values()) <= 2


def test_equidistant_point_double_membership():
    # symmetric hand-built model: midpoint responsibilities are exactly 1/2
    from semtree.cluster import GmmModel

    model = GmmModel(
        k=2,
        weights=np.array([0.5, 0.5]),
        means=np.array([[0.0, 0.0], [10.0, 10.0]]),
        variances=np.ones((2, 2)),
        log_likelihood=0.0,
    )
    assignment = soft_assign(model, np.array([[5.0, 5.0]]), threshold=0.2)
    assert np.allclose(assignment.responsibilities[0], 0.5)
    # both components pick the point; the second cluster repeats the first
    assert assignment.clusters == ((0,),)


AXES = np.vstack([np.eye(3), -np.eye(3)])[[0, 3, 1, 4, 2, 5]]  # ±e1, ±e2, ±e3


# Row 0 is the point and row 1 sits on component 1, which it alone joins.
@pytest.mark.parametrize("means,point,threshold,want", [
    # six equal responsibilities of 1/6, all below the threshold: the first argmax
    (AXES, [0.0, 0.0, 0.0], 0.2, ((0,), (1,))),
    # the largest responsibility, +e3's 0.184 (component 4), is below the threshold
    (AXES, [0.0, 0.0, 0.1], 0.2, ((1,), (0,))),
    # two responsibilities of exactly 1/2 at a threshold of 1/2
    (np.array([[0.0, 0.0], [10.0, 10.0]]), [5.0, 5.0], 0.5, ((0,), (0, 1))),
])
def test_memberships_at_ties_and_below_the_threshold(means, point, threshold, want):
    k, d = means.shape
    model = GmmModel(k=k, weights=np.full(k, 1.0 / k), means=means,
                     variances=np.ones((k, d)), log_likelihood=0.0)
    X = np.array([point, means[1]])
    got = soft_assign(model, X, threshold=threshold).clusters
    assert got == want
    assert got == reference_clusters(model, X, threshold)
