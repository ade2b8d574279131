"""Command line interface: ingest, build, search, bench, stats.

Machine-readable JSON goes to stdout, human diagnostics to stderr.
Exit codes: 0 success, 1 runtime failure, 2 usage error.  Settings
resolve as flags > config file > defaults; credentials are only ever
read from the environment (LLM_API_KEY / LLM_API_BASE /
EMBED_API_KEY / EMBED_API_BASE).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from semtree import baselines, metrics
from semtree.catalog import CatalogError, library_stats, load_library, load_pairs
from semtree.cluster import ReducerConfig
from semtree.embed import EmbedderConfig, make_embedder
from semtree.llm import ChatClient, LlmConfig, ReplayClient
from semtree.search import SearchConfig, recommend
from semtree.tree import (
    ClusterConfig,
    StoppingCriteria,
    TreeError,
    build_tree,
    load_tree,
    save_tree,
    tree_stats,
)

logger = logging.getLogger("semtree")

BASELINE_SOLUTIONS = ("tfidf", "bm25", "lsi", "jsd", "wordavg", "llm", "tree")


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)

def _resolve(args: argparse.Namespace, file_cfg: dict, key: str, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in file_cfg:
        return file_cfg[key]
    return default


def _embedder_from(args, file_cfg) -> tuple[EmbedderConfig, object]:
    cfg = EmbedderConfig(
        provider=_resolve(args, file_cfg, "provider", "hashed-local"),
        dim=int(_resolve(args, file_cfg, "dim", 256)),
        seed=int(_resolve(args, file_cfg, "seed", 0)),
        model=_resolve(args, file_cfg, "embed_model", ""),
        endpoint=_resolve(args, file_cfg, "embed_endpoint", ""),
    )
    return cfg, make_embedder(cfg)


def _llm_client(args, file_cfg):
    stub = _resolve(args, file_cfg, "llm_stub", None)
    if stub:
        return ReplayClient(stub)
    endpoint = _resolve(args, file_cfg, "llm_endpoint", "")
    model = _resolve(args, file_cfg, "llm_model", "")
    return ChatClient(LlmConfig(endpoint=endpoint, model=model))


def cmd_ingest(args) -> int:
    lib = load_library(args.catalog)
    print(json.dumps({"ecosystem": lib.ecosystem, **library_stats(lib)}, indent=2))
    return 0


def cmd_build(args) -> int:
    file_cfg = _load_config_file(args.config)
    lib = load_library(args.catalog)
    embed_cfg, embedder = _embedder_from(args, file_cfg)
    summarizer = None
    if _resolve(args, file_cfg, "llm_stub", None) or _resolve(args, file_cfg, "llm_endpoint", ""):
        summarizer = _llm_client(args, file_cfg)
    seed = int(_resolve(args, file_cfg, "seed", 0))
    index = build_tree(
        lib,
        embedder,
        reducer_cfg=ReducerConfig(target_dim=int(_resolve(args, file_cfg, "target_dim", 10))),
        cluster_cfg=ClusterConfig(
            soft_threshold=float(_resolve(args, file_cfg, "soft_threshold", 0.2)),
        ),
        summarizer=summarizer,
        stop=StoppingCriteria(
            max_depth=int(_resolve(args, file_cfg, "max_depth", 4)),
            max_top_level_nodes=int(_resolve(args, file_cfg, "max_top", 10)),
        ),
        seed=seed,
    )
    index.config["embedder"] = {
        "provider": embed_cfg.provider,
        "dim": embed_cfg.dim,
        "seed": embed_cfg.seed,
        "model": embed_cfg.model,
    }
    save_tree(index, args.out)
    logger.info("index written to %s", args.out)
    print(json.dumps(tree_stats(index), indent=2))
    return 0


def _embedder_for_index(index, args, file_cfg):
    stored = index.config.get("embedder", {})
    cfg = EmbedderConfig(
        provider=stored.get("provider", _resolve(args, file_cfg, "provider", "hashed-local")),
        dim=int(stored.get("dim", index.config.get("embedding_dim", 256))),
        seed=int(stored.get("seed", _resolve(args, file_cfg, "seed", 0))),
        model=stored.get("model", ""),
    )
    return make_embedder(cfg)


def cmd_search(args) -> int:
    file_cfg = _load_config_file(args.config)
    index = load_tree(args.index)
    embedder = _embedder_for_index(index, args, file_cfg)
    cfg = SearchConfig(
        beam_width=max(int(args.beam), int(args.k)),
        final_k=int(args.k),
        rerank=bool(args.rerank),
    )
    client = _llm_client(args, file_cfg) if cfg.rerank else None
    result = recommend(index, args.intent, cfg, embedder, llm_client=client)
    print(json.dumps({
        "intent": result.intent,
        "entries": [{"artifact_id": aid, "score": score} for aid, score in result.entries],
        "node_evaluations": result.node_evaluations,
        "elapsed": result.elapsed,
    }, indent=2))
    return 0


def cmd_bench(args) -> int:
    file_cfg = _load_config_file(args.config)
    lib = load_library(args.catalog)
    pairs = load_pairs(args.pairs, lib)
    name = args.solution
    if name not in BASELINE_SOLUTIONS:
        print(f"unknown solution {name!r}; registered: {', '.join(BASELINE_SOLUTIONS)}",
              file=sys.stderr)
        return 2

    if name in ("tfidf", "bm25", "lsi", "jsd"):
        idx = baselines.build_term_index(lib)
        scorer = getattr(baselines, f"score_{name}")
        solution = lambda intent: scorer(idx, intent)
    elif name == "wordavg":
        if not args.vectors:
            print("--vectors is required for the wordavg solution", file=sys.stderr)
            return 2
        table = baselines.load_word_vectors(args.vectors)
        solution = lambda intent: baselines.score_wordavg(table, lib, intent)
    elif name == "llm":
        client = _llm_client(args, file_cfg)
        solution = lambda intent: baselines.llm_two_stage(
            lib, intent, client, final_k=int(args.k))
    else:  # tree
        if not args.index:
            print("--index is required for the tree solution", file=sys.stderr)
            return 2
        index = load_tree(args.index)
        embedder = _embedder_for_index(index, args, file_cfg)
        cfg = SearchConfig(
            beam_width=max(int(args.beam), int(args.k)),
            final_k=int(args.k),
            rerank=bool(args.rerank),
        )
        client = _llm_client(args, file_cfg) if cfg.rerank else None
        solution = lambda intent: recommend(index, intent, cfg, embedder, llm_client=client)

    report = metrics.run_benchmark(name, solution, lib, pairs)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    if args.csv:
        metrics.write_csv([report], args.csv)
    logger.info("report written to %s", args.out)
    print(json.dumps({"solution": report.solution, "metrics": report.metrics,
                      "timing": report.timing}, indent=2))
    return 0


def cmd_stats(args) -> int:
    index = load_tree(args.index)
    print(json.dumps(tree_stats(index), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semtree",
        description="Hierarchical semantic artifact recommendation",
    )
    parser.add_argument("--config", help="JSON config file mirroring flag names")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a library file and print statistics")
    p.add_argument("catalog")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("build", help="build and persist a semantic index")
    p.add_argument("catalog")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--provider")
    p.add_argument("--target-dim", dest="target_dim", type=int)
    p.add_argument("--soft-threshold", dest="soft_threshold", type=float)
    p.add_argument("--max-depth", dest="max_depth", type=int)
    p.add_argument("--max-top", dest="max_top", type=int)
    p.add_argument("--llm-stub", dest="llm_stub")
    p.add_argument("--llm-endpoint", dest="llm_endpoint")
    p.add_argument("--llm-model", dest="llm_model")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("search", help="answer one intent against an index")
    p.add_argument("--index", required=True)
    p.add_argument("--intent", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--beam", type=int, default=10)
    p.add_argument("--rerank", action="store_true")
    p.add_argument("--llm-stub", dest="llm_stub")
    p.add_argument("--llm-endpoint", dest="llm_endpoint")
    p.add_argument("--llm-model", dest="llm_model")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("bench", help="run a benchmark sweep for one solution")
    p.add_argument("--solution", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--beam", type=int, default=10)
    p.add_argument("--index")
    p.add_argument("--vectors")
    p.add_argument("--rerank", action="store_true")
    p.add_argument("--llm-stub", dest="llm_stub")
    p.add_argument("--llm-endpoint", dest="llm_endpoint")
    p.add_argument("--llm-model", dest="llm_model")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("stats", help="print statistics of a persisted index")
    p.add_argument("--index", required=True)
    p.set_defaults(fn=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CatalogError, TreeError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
