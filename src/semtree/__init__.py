"""Intent-driven artifact recommendation over a hierarchical semantic index.

The package indexes a library of reusable artifacts (packages, models,
groups) into a bottom-up feature tree: descriptions are embedded, soft
clustered with a Gaussian mixture, and each cluster is summarized into a
named parent feature, recursively.  Queries are answered by a top-down
beam search over the tree, optionally refined by an LLM re-rank, with
classic lexical retrievers available as baselines.
"""

from semtree.catalog import ArtifactLibrary, IntentSample, load_library, load_pairs
from semtree.tree import TreeIndex, TreeNode, build_tree, load_tree, save_tree
from semtree.search import SearchConfig, recommend, tree_search

__all__ = [
    "ArtifactLibrary",
    "IntentSample",
    "load_library",
    "load_pairs",
    "TreeIndex",
    "TreeNode",
    "build_tree",
    "load_tree",
    "save_tree",
    "SearchConfig",
    "recommend",
    "tree_search",
]
