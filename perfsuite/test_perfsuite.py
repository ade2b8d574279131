"""Tests of the benchmark's own code: seeded generators, span arithmetic,
and agreement between the metrics it prints and BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfsuite
"""

from __future__ import annotations

import json
import os
import sys
import types
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from perfsuite import clock, gen, layers, run, workloads  # noqa: E402
from perfsuite.spans import Span, Tracer, self_times  # noqa: E402


# ---------------------------------------------------------------- generators

def test_catalogs_repeat_for_a_seed_and_differ_across_seeds():
    assert gen.family_catalog(4, 6, 3) == gen.family_catalog(4, 6, 3)
    assert gen.family_catalog(4, 6, 3) != gen.family_catalog(4, 6, 4)
    assert gen.ragged_catalog(300, 7, "1/build/0") == gen.ragged_catalog(300, 7, "1/build/0")
    assert gen.ragged_catalog(300, 7, "1/build/0") != gen.ragged_catalog(300, 7, "1/build/1")


def test_catalog_files_are_byte_identical_for_a_seed(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    gen.write_jsonl(gen.family_catalog(3, 5, 9), str(a))
    gen.write_jsonl(gen.family_catalog(3, 5, 9), str(b))
    assert a.read_bytes() == b.read_bytes()
    assert [json.loads(line) for line in a.read_text().splitlines()] == gen.family_catalog(3, 5, 9)


def test_ragged_sizes_sum_to_total():
    for seed in range(20):
        sizes = gen.ragged_sizes(1000, 25, seed)
        assert len(sizes) == 25 and sum(sizes) == 1000 and min(sizes) >= 2
        assert max(sizes) > min(sizes)


def test_catalog_ids_unique_and_words_shared_within_family():
    artifacts = gen.family_catalog(5, 10, 1)
    assert len({a["id"] for a in artifacts}) == 50
    fam0 = [a["description"].split() for a in artifacts[:10]]
    fam1 = set().union(*(a["description"].split() for a in artifacts[10:20]))
    counts = Counter(w for words in fam0 for w in words)
    shared = {w for w, n in counts.items() if n > 1}
    assert 1 <= len(shared) <= gen.POOL_WORDS
    assert all(len(set(words) - shared) == gen.UNIQUE_WORDS for words in fam0)
    assert not set().union(*fam0) & fam1


def test_intents_repeat_for_a_seed_and_follow_the_recipe():
    artifacts = gen.family_catalog(5, 20, 2)
    pool = gen.intent_pool(artifacts, 200, "x")
    assert pool == gen.intent_pool(artifacts, 200, "x")
    assert pool != gen.intent_pool(artifacts, 200, "y")
    assert len({s["intent"] for s in pool}) == 200
    by_id = {a["id"]: a["description"].split() for a in artifacts}
    for sample in pool:
        target = by_id[sample["target_id"]]
        words = sample["intent"].split()
        kept = [w for w in words if w in target]
        added = [w for w in words if w not in target]
        assert 1 <= len(added) <= 3
        dropped = 1 - len(kept) / len(target)
        assert 0.3 - 1 / len(target) <= dropped <= 0.7 + 1 / len(target)


def test_intent_stream_never_repeats():
    stream = gen.IntentMaker(gen.family_catalog(3, 10, 5)).stream(1)
    intents = [next(stream)["intent"] for _ in range(500)]
    assert len(set(intents)) == 500


def test_zipf_stream_repeats_for_a_seed_and_is_skewed():
    a = gen.zipf_stream(100, 5000, 4)
    assert a == gen.zipf_stream(100, 5000, 4)
    assert a != gen.zipf_stream(100, 5000, 5)
    counts = sorted((a.count(i) for i in set(a)), reverse=True)
    assert counts[0] > 10 * counts[len(counts) // 2]


# ---------------------------------------------------------------- spans

def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 3.0, 6.0, 0, 1),     # overlaps a: the union counts once
        Span("a.inner", 2.0, 3.0, 1, 1),
        Span("c", 9.0, 12.0, 0, 1),    # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_tracer_nests_spans_and_restores_functions():
    def inner(x):
        return x + 1

    mod = types.SimpleNamespace()
    mod.inner = inner
    mod.outer = lambda x: mod.inner(x) * 2
    original_outer = mod.outer
    seen = []
    tr = Tracer()
    tr.add(mod, "outer", "m.outer")
    tr.add(mod, "inner", "k.inner", lambda t, i, args, kwargs, result: seen.append(result))
    with tr.active("bench.op"):
        assert mod.outer(1) == 4
    assert mod.outer is original_outer and mod.inner is inner
    assert mod.outer(1) == 4 and len(tr.spans) == 3    # untraced call records nothing
    root, outer, inner_span = tr.spans
    assert (outer.parent, inner_span.parent) == (0, 1)
    assert {s.request for s in tr.spans} == {1}
    assert seen == [2]
    [(duration, modules)] = tr.request_breakdown("bench.op")
    assert duration == pytest.approx(sum(modules.values()))
    assert set(modules) == {"bench", "m", "k"}
    summary = tr.summary()
    assert summary["k.inner"]["calls"] == 1
    assert summary["m.outer"]["busy_s"] >= summary["k.inner"]["busy_s"]


def test_tracer_counts_a_recursive_function_once_in_busy_time():
    mod = types.SimpleNamespace()
    mod.f = lambda n: n if n == 0 else mod.f(n - 1)
    tr = Tracer()
    tr.add(mod, "f", "m.f")
    with tr.active():
        mod.f(3)
    row = tr.summary()["m.f"]
    outer = tr.spans[0]
    assert row["calls"] == 4
    assert row["busy_s"] == pytest.approx(outer.end - outer.start)


# ---------------------------------------------------------------- clock

def test_clock_scales_by_the_nearby_references():
    c = clock.HostClock()
    nominal = clock.REFERENCE_MS / 1e3
    # The host runs at half speed between t=10 and t=20.
    c.refs = [(t, nominal * (2.0 if 10 <= t < 20 else 1.0)) for t in range(30)]
    assert c.scale(4.0, 5.0) == pytest.approx(1.0)
    assert c.scale(14.0, 15.0) == pytest.approx(0.5)
    assert c.scale(100.0, 101.0) == pytest.approx(1.0)   # nearest references


def test_run_timings_are_scaled_and_long_operations_look_further():
    r = workloads.Run()
    nominal = clock.REFERENCE_MS / 1e3
    # Half speed until t=10, full speed after; no references during a build.
    r.clock.refs = [(t, nominal * (2.0 if t < 10 else 1.0)) for t in range(20) if not 4 < t < 15]
    r.samples["search"] = [(2.0, 2.004)]
    r.samples["build"] = [(4.5, 14.5)]
    assert r.timings("search") == pytest.approx([0.002])
    assert r.timings("search", scaled=False) == pytest.approx([0.004])
    # The references at 2, 3, 4 (half speed) and 15, 16, 17 (full speed)
    # have a median of 1.5x the nominal time.
    assert r.timings("build") == pytest.approx([10.0 / 1.5])


# ---------------------------------------------------------------- checks

def test_checks_reject_bad_rankings():
    known = {f"a{i}" for i in range(10)}
    ok = types.SimpleNamespace(entries=[(f"a{i}", 1.0 - i / 10) for i in range(5)])
    assert workloads.check_recommend(ok, known) is None
    dup = types.SimpleNamespace(entries=ok.entries[:4] + [ok.entries[0]])
    assert "duplicate" in workloads.check_recommend(dup, known)
    unknown = types.SimpleNamespace(entries=ok.entries[:4] + [("zz", 0.0)])
    assert "not in the catalog" in workloads.check_recommend(unknown, known)
    rising = types.SimpleNamespace(entries=list(reversed(ok.entries)))
    assert "non-increasing" in workloads.check_recommend(rising, known)
    short = types.SimpleNamespace(entries=ok.entries[:3])
    assert workloads.check_recommend(short, known) is not None


def test_a_raised_exception_is_a_failed_operation():
    r = workloads.Run()

    def boom():
        raise ValueError("no")

    assert r.op("search", boom) is None
    assert r.op("search", lambda: 1, lambda _: None) == 1
    assert (r.attempted, r.failed, len(r.samples["search"])) == (2, 1, 1)
    assert r.attempts("search") == 2  # what ends a loop: attempts, failed ones too


def test_echo_client_returns_candidates_in_order():
    from semtree.search import parse_id_list, render_rerank_prompt

    ids = ["f1-a2", "f0-a10", "f3-a0"]
    prompt = render_rerank_prompt("intent", [(i, "some, text") for i in ids])
    assert parse_id_list(workloads.echo_client().complete(prompt), ids) == ids


# ---------------------------------------------------------------- BENCHMARK.json

def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_end_to_end_metrics_match_benchmark_json():
    r = workloads.Run()
    r.clock.refs = [(0.0, 0.0015), (5.0, 0.0015)]
    for kind in ("setup", "build", "bm25", "tfidf", "jsd"):
        r.samples[kind] = [(1.0, 2.0), (3.0, 3.5)]
    for kind in ("search", "rerank"):
        r.samples[kind] = [(1.0, 1.001)] * 1000
    r.measures["index_bytes_per_artifact"] = [2000.0]
    r.values.update(p_at_1=0.5, dcg_at_5=0.6, peak_rss_mb=40.0)
    r.attempted = 10
    printed = {name: unit for name, (_, unit, _) in run.end_to_end(r).items()
               if name not in run.REPORT_ONLY}
    declared = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert printed == declared


def test_failed_operations_leave_metrics_out_instead_of_raising():
    r = workloads.Run()
    r.samples["search"] = [(1.0, 1.001)] * 999  # too few for a p99
    r.values["peak_rss_mb"] = 40.0
    r.attempted, r.failed = 1000, 1
    metrics = run.end_to_end(r, scaled=False)
    assert "search_p50_ms" in metrics and "search_p99_ms" not in metrics
    assert metrics["ok_frac"][0] == pytest.approx(0.999)
    assert {"setup_s", "rerank_p50_ms", "p_at_1", "build_s"} <= set(run.missing(metrics))


def test_per_layer_metrics_match_benchmark_json():
    printed = {name: unit for name, (_, unit) in
               layers.layer_metrics(Tracer(), workloads.Run(), "serve").items()}
    declared = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    assert printed == declared


def test_benchmark_json_workloads_are_the_runnable_ones():
    assert [w["name"] for w in _benchmark()["workloads"]] == list(workloads.WORKLOADS)
    assert set(layers.PRIMARY) == set(workloads.WORKLOADS)
