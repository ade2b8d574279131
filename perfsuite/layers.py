"""Which semtree functions the traced run wraps, and the per-layer metrics
read from its spans and counters.

Each function is wrapped where its caller looks it up, so nested calls
are caught: ``build_tree`` calls ``select_k_bic`` through
``semtree.tree``, ``select_k_bic`` calls ``fit_gmm`` (and ``fit_gmm``
its own restarts) through ``semtree.cluster``.  Span names are
``<module>.<function>``, so a span's self time is charged to the module
that ran it.  ``metrics`` and ``cli`` are not wrapped: the first is the
evaluation harness, the second an argparse front end.
"""

from __future__ import annotations

import statistics

import semtree.baselines
import semtree.catalog
import semtree.cluster
import semtree.search
import semtree.tree
from semtree.embed import HashedEmbedder
from semtree.llm import CallableClient

from perfsuite.spans import Tracer

# Modules whose self time the traced run reports as ``<module>.self_s``.
MODULES = ("catalog", "embed", "cluster", "kernels", "summarize", "tree", "search", "llm",
           "baselines")

# Each workload's primary operation kind, for the tracing-overhead metrics.
PRIMARY = {"serve": "search", "build": "build", "lexical": "bm25"}


def _embed(tr: Tracer, idx, args, kwargs, result) -> None:
    n = len(args[1])  # embed(self, texts)
    tr.counters["embed.texts"] += n
    if tr.in_span("summarize.summarize_cluster"):
        # Child texts are embedded again although the tree holds their vectors.
        tr.counters["summarize.reembedded_texts"] += n


def _fit(tr: Tracer, idx, args, kwargs, model) -> None:
    if kwargs.get("n_init", 1) <= 1:  # one EM run; n_init > 1 only dispatches restarts
        tr.counters["cluster.fits_run"] += 1
        tr.counters["cluster.em_iters"] += len(model.ll_history)


def _fit_kept(tr: Tracer, idx, args, kwargs, model) -> None:
    _fit(tr, idx, args, kwargs, model)
    tr.counters["cluster.fits_kept"] += 1


def _kept(tr: Tracer, idx, args, kwargs, result) -> None:
    tr.counters["cluster.fits_kept"] += 1


def _weighted_log_prob(tr: Tracer, idx, args, kwargs, result) -> None:
    """Work from the argument shapes: per sample and component, d each of
    subtract, multiply, divide and add, plus d logs per component; reads X,
    means, variances and log weights and writes the (n, k) output, float64."""
    X, means = args[0], args[1]
    n, d = X.shape
    k = means.shape[0]
    tr.counters["kernels.weighted_log_prob.flops"] += k * (4 * n * d + d)
    tr.counters["kernels.weighted_log_prob.bytes"] += 8 * (n * d + 2 * k * d + k + n * k)


def _bm25(tr: Tracer, idx, args, kwargs, result) -> None:
    q_terms, ptr = args[0], args[2]
    tr.counters["kernels.bm25_scores.postings"] += int(sum(ptr[t + 1] - ptr[t] for t in q_terms))


def _tree_shape(tr: Tracer, idx, args, kwargs, index) -> None:
    tr.counters["tree.nodes"] = len(index.nodes)
    tr.counters["tree.layers"] = index.max_level() + 1


def _tree_search(tr: Tracer, idx, args, kwargs, ranked) -> None:
    tr.series["search.node_evaluations"].append(ranked.node_evaluations)
    tr.series["search.evals_per_candidate"].append(
        ranked.node_evaluations / max(1, len(ranked.entries)))


def _prompt(tr: Tracer, idx, args, kwargs, result) -> None:
    tr.counters["llm.prompt_chars"] += len(args[1])  # complete(self, prompt)


def make_tracer() -> Tracer:
    tr = Tracer()
    tree_mod, cluster_mod = semtree.tree, semtree.cluster
    tr.add(semtree.catalog, "load_library", "catalog.load_library")
    tr.add(HashedEmbedder, "embed", "embed.embed", _embed)
    tr.add(tree_mod, "reduce", "cluster.reduce")
    tr.add(tree_mod, "select_k_bic", "cluster.select_k_bic", _kept)
    tr.add(tree_mod, "fit_gmm", "cluster.fit_gmm", _fit_kept)
    tr.add(cluster_mod, "fit_gmm", "cluster.fit_gmm", _fit)
    tr.add(tree_mod, "soft_assign", "cluster.soft_assign")
    tr.add(cluster_mod, "weighted_log_prob", "kernels.weighted_log_prob", _weighted_log_prob)
    tr.add(tree_mod, "summarize_cluster", "summarize.summarize_cluster")
    tr.add(tree_mod, "build_tree", "tree.build_tree", _tree_shape)
    tr.add(tree_mod, "save_tree", "tree.save_tree")
    tr.add(tree_mod, "load_tree", "tree.load_tree", _tree_shape)
    tr.add(tree_mod, "validate_tree", "tree.validate_tree")
    tr.add(semtree.search, "recommend", "search.recommend")
    tr.add(semtree.search, "tree_search", "search.tree_search", _tree_search)
    tr.add(semtree.search, "rerank", "search.rerank")
    tr.add(CallableClient, "complete", "llm.complete", _prompt)
    tr.add(semtree.baselines, "build_term_index", "baselines.build_term_index")
    tr.add(semtree.baselines, "score_bm25", "baselines.score_bm25")
    tr.add(semtree.baselines, "score_tfidf", "baselines.score_tfidf")
    tr.add(semtree.baselines, "score_jsd", "baselines.score_jsd")
    tr.add(semtree.baselines, "bm25_scores", "kernels.bm25_scores", _bm25)
    return tr


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p99(values) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def layer_metrics(tr: Tracer, run, workload: str) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``; a layer that did no
    work in this process reads 0."""
    summary = tr.summary()
    c = tr.counters

    def field(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0.0)

    texts = c["embed.texts"]
    embed_busy = field("embed.embed", "busy_s")
    fits = c["cluster.fits_run"]
    out = {
        "embed.texts": (texts, "count"),
        "embed.busy_s": (embed_busy, "s"),
        "embed.us_per_text": (embed_busy / texts * 1e6 if texts else 0.0, "us"),
        "catalog.load_library.busy_s": (field("catalog.load_library", "busy_s"), "s"),
        "cluster.select_k_bic.busy_s": (field("cluster.select_k_bic", "busy_s"), "s"),
        "cluster.fit_gmm.calls": (fits, "count"),
        "cluster.em_iters": (c["cluster.em_iters"], "count"),
        "cluster.fit_kept_ratio": (c["cluster.fits_kept"] / fits if fits else 0.0, "ratio"),
        "cluster.reduce.busy_s": (field("cluster.reduce", "busy_s"), "s"),
        "cluster.soft_assign.busy_s": (field("cluster.soft_assign", "busy_s"), "s"),
        "kernels.weighted_log_prob.calls": (field("kernels.weighted_log_prob", "calls"), "count"),
        "kernels.weighted_log_prob.busy_s": (field("kernels.weighted_log_prob", "busy_s"), "s"),
        "kernels.weighted_log_prob.flops": (c["kernels.weighted_log_prob.flops"], "flop"),
        "kernels.weighted_log_prob.bytes": (c["kernels.weighted_log_prob.bytes"], "B"),
        "kernels.bm25_scores.calls": (field("kernels.bm25_scores", "calls"), "count"),
        "kernels.bm25_scores.busy_s": (field("kernels.bm25_scores", "busy_s"), "s"),
        "kernels.bm25_scores.postings": (c["kernels.bm25_scores.postings"], "count"),
        "summarize.calls": (field("summarize.summarize_cluster", "calls"), "count"),
        "summarize.self_s": (field("summarize", "self_s"), "s"),
        "summarize.reembedded_texts": (c["summarize.reembedded_texts"], "count"),
        "tree.build_tree.self_s": (field("tree.build_tree", "self_s"), "s"),
        "tree.save_tree.busy_s": (field("tree.save_tree", "busy_s"), "s"),
        "tree.load_tree.busy_s": (field("tree.load_tree", "busy_s"), "s"),
        "tree.validate_tree.busy_s": (field("tree.validate_tree", "busy_s"), "s"),
        "tree.nodes": (c["tree.nodes"], "count"),
        "tree.layers": (c["tree.layers"], "count"),
        "search.tree_search.self_s": (field("search.tree_search", "self_s"), "s"),
        "search.node_evaluations.p50": (_median(tr.series["search.node_evaluations"]), "count"),
        "search.node_evaluations.p99": (_p99(tr.series["search.node_evaluations"]), "count"),
        "search.evals_per_candidate": (_median(tr.series["search.evals_per_candidate"]), "ratio"),
        "search.rerank.self_s": (field("search.rerank", "self_s"), "s"),
        "llm.complete.calls": (field("llm.complete", "calls"), "count"),
        "llm.complete.busy_s": (field("llm.complete", "busy_s"), "s"),
        "llm.prompt_chars": (c["llm.prompt_chars"], "count"),
        "baselines.build_term_index.busy_s": (field("baselines.build_term_index", "busy_s"), "s"),
        "baselines.score_bm25.self_s": (field("baselines.score_bm25", "self_s"), "s"),
        "baselines.score_tfidf.busy_s": (field("baselines.score_tfidf", "busy_s"), "s"),
        "baselines.score_jsd.busy_s": (field("baselines.score_jsd", "busy_s"), "s"),
    }
    for module in MODULES:
        out.setdefault(f"{module}.self_s", (field(module, "self_s"), "s"))

    # Tracing overhead on the workload's primary operation, in wall time:
    # untraced and traced operations alternate within this run, so both
    # see the same host speed.  ``op_layers_ms`` is the part of a traced
    # operation that module spans account for; the rest is the benchmark's
    # own code between calls.
    primary = PRIMARY[workload]
    untraced = _median(run.timings(primary, scaled=False)) * 1e3
    traced = _median(run.timings("traced." + primary, scaled=False)) * 1e3
    layers = _median([sum(v for m, v in mods.items() if m != "bench")
                      for _, mods in tr.request_breakdown("bench." + primary)]) * 1e3
    out["trace.op_untraced_ms"] = (untraced, "ms")
    out["trace.op_traced_ms"] = (traced, "ms")
    out["trace.op_layers_ms"] = (layers, "ms")
    out["trace.overhead_frac"] = (traced / untraced - 1.0 if untraced else 0.0, "ratio")
    out["trace.spans"] = (len(tr.spans), "count")
    return {name: (float(value), unit) for name, (value, unit) in out.items()}
