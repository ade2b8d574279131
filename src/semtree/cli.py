"""Command line interface: ingest, build, search, bench, stats.

Machine-readable JSON goes to stdout, human diagnostics to stderr.
Exit codes: 0 success, 1 runtime failure (a provider error included),
2 usage error.  Each setting in ``SETTINGS`` resolves as flag > config
file > the library's default; a config file must be one JSON object
keyed by setting name.  Credentials are only ever read from the
environment (LLM_API_KEY / LLM_API_BASE / EMBED_API_KEY /
EMBED_API_BASE).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from semtree import baselines, metrics
from semtree.catalog import CatalogError, library_stats, load_library, load_pairs
from semtree.checks import check_integer
from semtree.embed import EmbedderConfig, EmbeddingError, make_embedder
from semtree.llm import ChatClient, LlmError, ReplayClient
from semtree.search import SearchConfig, recommend
from semtree.tree import (
    StoppingCriteria,
    TreeError,
    build_tree,
    load_tree,
    save_tree,
    tree_stats,
)

logger = logging.getLogger("semtree")

BASELINE_SOLUTIONS = ("tfidf", "bm25", "lsi", "jsd", "wordavg", "llm", "tree")

# Every setting a flag or the config file can give: its type, then the
# library parameters it sets, as "owner.parameter".  A setting that
# neither gives is not passed, so the library's default applies.
SETTINGS = {
    "provider": (str, "EmbedderConfig.provider"),
    "dim": (int, "EmbedderConfig.dim"),
    "seed": (int, "EmbedderConfig.seed", "build_tree.seed"),
    "embed_model": (str, "EmbedderConfig.model"),
    "embed_endpoint": (str, "EmbedderConfig.endpoint"),
    "target_dim": (int, "build_tree.target_dim"),
    "soft_threshold": (float, "build_tree.soft_threshold"),
    "max_depth": (int, "StoppingCriteria.max_depth"),
    "max_top": (int, "StoppingCriteria.max_top_level_nodes"),
    "k": (int, "SearchConfig.final_k", "llm_two_stage.final_k"),
    "beam": (int, "SearchConfig.beam_width"),
    "rerank": (bool, "SearchConfig.rerank"),
    "llm_stub": (str, "ReplayClient.path"),
    "llm_endpoint": (str, "ChatClient.endpoint"),
    "llm_model": (str, "ChatClient.model"),
}

# The EmbedderConfig fields an index records; they override the settings.
RECORDED_EMBEDDER = ("provider", "dim", "seed", "model")


def _load_config_file(path: str | None) -> dict:
    """The settings in the JSON object at ``path``, each of its flag's type."""
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"config file {path}: not a JSON document: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path}: expected a JSON object of settings")
    for key, value in cfg.items():
        if key not in SETTINGS:
            raise ValueError(f"config file {path}: unknown setting {key!r}; "
                             f"known: {', '.join(SETTINGS)}")
        # exact types: bool("false") is True, and True is an int to isinstance
        kind = SETTINGS[key][0]
        if type(value) not in ((int, float) if kind is float else (kind,)):
            raise ValueError(f"config file {path}: setting {key!r} must be of type "
                             f"{kind.__name__}, got {value!r}")
        try:
            cfg[key] = kind(value)
        except OverflowError as exc:  # an integer too large for a float
            raise ValueError(f"config file {path}: setting {key!r}: {exc}") from exc
    return cfg


def _given(args, file_cfg: dict, owner: str) -> dict:
    """Keyword arguments for the library name ``owner``: the settings that a
    flag, or else the config file, gave.  Unset ones are left out."""
    kwargs = {}
    for name, (_, *params) in SETTINGS.items():
        value = getattr(args, name, None)
        if value is None:
            value = file_cfg.get(name)
        for param in params:
            param_owner, _, param_name = param.partition(".")
            if value is not None and param_owner == owner:
                kwargs[param_name] = value
    return kwargs


def _llm_client(args, file_cfg, required: bool = True):
    """The chat client that the settings name: recorded replies, or an
    endpoint, or if ``required`` the one in LLM_API_BASE; else None."""
    replay = _given(args, file_cfg, "ReplayClient")
    if replay.get("path"):
        return ReplayClient(**replay)
    chat = _given(args, file_cfg, "ChatClient")
    return ChatClient(**chat) if required or chat.get("endpoint") else None


def cmd_ingest(args) -> int:
    lib = load_library(args.catalog)
    print(json.dumps({"ecosystem": lib.ecosystem, **library_stats(lib)}, indent=2))
    return 0


def cmd_build(args) -> int:
    file_cfg = _load_config_file(args.config)
    lib = load_library(args.catalog)
    embed_cfg = EmbedderConfig(**_given(args, file_cfg, "EmbedderConfig"))
    index = build_tree(
        lib,
        make_embedder(embed_cfg),
        summarizer=_llm_client(args, file_cfg, required=False),
        stop=StoppingCriteria(**_given(args, file_cfg, "StoppingCriteria")),
        **_given(args, file_cfg, "build_tree"),
    )
    index.config["embedder"] = {f: getattr(embed_cfg, f) for f in RECORDED_EMBEDDER}
    save_tree(index, args.out)
    logger.info("index written to %s", args.out)
    print(json.dumps(tree_stats(index), indent=2))
    return 0


def _embedder_for_index(index, args, file_cfg):
    """The embedder an index was built with: what the index records (its
    ``config.embedder`` block, or else ``embedding_dim``) over the settings."""
    stored = index.config.get("embedder", {})
    if not isinstance(stored, dict):
        raise TreeError(f"index config: embedder {stored!r} is not a JSON object")
    recorded = {f: stored[f] for f in RECORDED_EMBEDDER if f in stored}
    if "dim" not in recorded and "embedding_dim" in index.config:
        recorded["dim"] = index.config["embedding_dim"]
    given = _given(args, file_cfg, "EmbedderConfig")
    return make_embedder(EmbedderConfig(**{**given, **recorded}))


def _tree_solution(args, file_cfg):
    """``intent -> RankedList`` over the index at ``args.index``."""
    index = load_tree(args.index)
    embedder = _embedder_for_index(index, args, file_cfg)
    given = _given(args, file_cfg, "SearchConfig")
    default = SearchConfig()
    if "beam_width" in given:  # checked before a wider k can widen it
        check_integer("beam_width", given["beam_width"], 1)
    # a k wider than the beam widens the beam to k
    given["beam_width"] = max(given.get("beam_width", default.beam_width),
                              given.get("final_k", default.final_k))
    cfg = SearchConfig(**given)
    client = _llm_client(args, file_cfg) if cfg.rerank else None
    return lambda intent: recommend(index, intent, cfg, embedder, llm_client=client)


def cmd_search(args) -> int:
    result = _tree_solution(args, _load_config_file(args.config))(args.intent)
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
    if name in ("tfidf", "bm25", "lsi", "jsd"):
        idx = baselines.build_term_index(lib)
        scorer = getattr(baselines, f"score_{name}")
        solution = lambda intent: scorer(idx, intent)
    elif name == "wordavg":
        if not args.vectors:
            print("--vectors is required for the wordavg solution", file=sys.stderr)
            return 2
        solution = baselines.wordavg_scorer(baselines.load_word_vectors(args.vectors), lib)
    elif name == "llm":
        client = _llm_client(args, file_cfg)
        two_stage = _given(args, file_cfg, "llm_two_stage")
        if "final_k" in two_stage:  # run_benchmark logs a sample's error and goes on
            check_integer("final_k", two_stage["final_k"], 1)
        solution = lambda intent: baselines.llm_two_stage(lib, intent, client, **two_stage)
    else:  # tree
        if not args.index:
            print("--index is required for the tree solution", file=sys.stderr)
            return 2
        solution = _tree_solution(args, file_cfg)

    report = metrics.run_benchmark(name, solution, pairs)
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


def _add_settings(parser: argparse.ArgumentParser, *names: str) -> None:
    """One ``--name`` flag per setting, unset (None) unless given."""
    for name in names:
        flag = "--" + name.replace("_", "-")
        if SETTINGS[name][0] is bool:
            parser.add_argument(flag, action="store_true", default=None)
        else:
            parser.add_argument(flag, type=SETTINGS[name][0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semtree",
        description="Hierarchical semantic artifact recommendation",
    )
    parser.add_argument("--config", help="JSON config file mirroring flag names")
    sub = parser.add_subparsers(dest="command", required=True)
    llm = argparse.ArgumentParser(add_help=False)
    _add_settings(llm, "llm_stub", "llm_endpoint", "llm_model")

    p = sub.add_parser("ingest", help="validate a library file and print statistics")
    p.add_argument("catalog")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("build", parents=[llm], help="build and persist a semantic index")
    p.add_argument("catalog")
    p.add_argument("--out", required=True)
    _add_settings(p, "seed", "dim", "provider", "target_dim", "soft_threshold",
                  "max_depth", "max_top")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("search", parents=[llm], help="answer one intent against an index")
    p.add_argument("--index", required=True)
    p.add_argument("--intent", required=True)
    _add_settings(p, "k", "beam", "rerank")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("bench", parents=[llm], help="run a benchmark sweep for one solution")
    p.add_argument("--solution", required=True, choices=BASELINE_SOLUTIONS)
    p.add_argument("--catalog", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv")
    _add_settings(p, "k", "beam")
    p.add_argument("--index")
    p.add_argument("--vectors")
    _add_settings(p, "rerank")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("stats", help="print statistics of a persisted index")
    p.add_argument("--index", required=True)
    p.set_defaults(fn=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error (2) or --help (0)
        return exc.code
    try:
        return args.fn(args)
    except (CatalogError, TreeError, OSError, ValueError, LlmError,
            EmbeddingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
