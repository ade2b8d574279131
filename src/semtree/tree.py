"""Hierarchical semantic index: bottom-up build, persistence, statistics.

Each round takes the current top level's node texts, reduces their
embeddings, picks a component count by BIC, soft-assigns nodes to
clusters, summarizes every cluster into a named parent feature, and
embeds each summary as the next level.  Soft assignment can give a node
several parents, so the result is a polyhierarchy (a DAG), not a strict
tree; acyclicity and full leaf coverage are validated whenever a
``TreeIndex`` is made, and validation packs the index into the array
fields that search reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from semtree.catalog import ArtifactLibrary
from semtree.cluster import ReducerConfig, fit_gmm, reduce, select_k_bic, soft_assign
from semtree.summarize import summarize_cluster

INDEX_FORMAT_VERSION = 1


class TreeError(ValueError):
    """Structural invariant violation or unreadable index file."""


@dataclass(frozen=True)
class StoppingCriteria:
    max_depth: int = 4  # maximum number of layers, leaves included
    max_top_level_nodes: int = 10

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


@dataclass(frozen=True)
class ClusterConfig:
    soft_threshold: float = 0.2
    max_k: int = 32


@dataclass(eq=False)
class TreeNode:
    id: str
    level: int
    kind: str  # "leaf" or "internal"
    name: str
    summary: str
    embedding: np.ndarray
    children: tuple[str, ...] = ()
    artifact_id: str | None = None

    def is_leaf(self) -> bool:
        return self.kind == "leaf"


def _array_field():
    return field(init=False, repr=False)


@dataclass(eq=False)
class TreeIndex:
    """The index: its nodes, and their array form that search reads.

    Construction runs ``validate_tree``, which sets the array fields.
    Row ``i`` is node ``ids[i]``, in the order of ``nodes``; its children
    are ``child_rows[child_ptr[i]:child_ptr[i + 1]]`` (CSR), and
    ``id_rank[i]`` is the rank of ``ids[i]`` among the sorted node ids,
    the tie-break of search.
    """

    nodes: dict[str, TreeNode]
    roots: tuple[str, ...]
    config: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    ids: tuple[str, ...] = _array_field()
    embeddings: np.ndarray = _array_field()  # (n_nodes, dim), C-contiguous
    child_ptr: np.ndarray = _array_field()
    child_rows: np.ndarray = _array_field()
    is_leaf: np.ndarray = _array_field()
    id_rank: np.ndarray = _array_field()
    root_rows: np.ndarray = _array_field()
    top_level: int = _array_field()
    leaf_by_artifact: dict[str, TreeNode] = _array_field()

    def __post_init__(self):
        validate_tree(self)

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    def leaves(self) -> list[TreeNode]:
        return [n for n in self.nodes.values() if n.is_leaf()]

    def max_level(self) -> int:
        return self.top_level


def validate_tree(t: TreeIndex) -> None:
    """Check the index and set its array fields.

    Checks: ids, names, summaries and artifact ids are strings, each
    kind is ``leaf`` or ``internal``, embeddings are finite vectors of
    one dimension, levels decrease along every edge (hence acyclicity),
    each artifact has one leaf, roots are distinct, and every leaf is
    reachable from a root.  On success every node's ``embedding``
    becomes a row view of ``t.embeddings``, so each vector is held once.
    ``TreeIndex`` runs it when made; run it again after changing ``t.nodes``.
    """
    if not t.nodes:
        raise TreeError("index has no nodes")
    ids = tuple(t.nodes)
    row = {nid: i for i, nid in enumerate(ids)}
    first = t.nodes[ids[0]]
    if first.embedding.ndim != 1:
        raise TreeError(f"node {first.id}: embedding is not a vector")
    shape = first.embedding.shape
    child_ptr = [0]
    child_rows: list[int] = []
    is_leaf: list[bool] = []
    leaf_by_artifact: dict[str, TreeNode] = {}
    for node in t.nodes.values():
        if not (isinstance(node.id, str) and isinstance(node.name, str)
                and isinstance(node.summary, str)):
            raise TreeError(f"node {node.id!r}: id, name and summary must be strings")
        if node.kind not in ("leaf", "internal"):
            raise TreeError(f"node {node.id}: kind {node.kind!r} is not leaf or internal")
        if node.embedding.shape != shape:
            raise TreeError(f"node {node.id}: embedding shape {node.embedding.shape} "
                            f"is not {shape}")
        leaf = node.is_leaf()
        is_leaf.append(leaf)
        if leaf:
            if node.children:
                raise TreeError(f"leaf {node.id} has children")
            if not isinstance(node.artifact_id, str):
                raise TreeError(f"leaf {node.id} has no string artifact_id")
            other = leaf_by_artifact.setdefault(node.artifact_id, node)
            if other is not node:
                raise TreeError(f"leaves {other.id} and {node.id} share "
                                f"artifact_id {node.artifact_id}")
        else:
            if not node.children:
                raise TreeError(f"internal node {node.id} has no children")
            if node.artifact_id is not None:
                raise TreeError(f"internal node {node.id} carries an artifact_id")
        for child_id in node.children:
            child = t.nodes.get(child_id) if isinstance(child_id, str) else None
            if child is None:
                raise TreeError(f"node {node.id} references missing child {child_id!r}")
            if child.level >= node.level:
                raise TreeError(
                    f"edge {node.id} -> {child_id} does not decrease level "
                    f"({node.level} -> {child.level})"
                )
            child_rows.append(row[child_id])
        child_ptr.append(len(child_rows))
    for root_id in t.roots:
        if not isinstance(root_id, str) or root_id not in t.nodes:
            raise TreeError(f"missing root node {root_id!r}")
    if len(set(t.roots)) != len(t.roots):
        raise TreeError(f"duplicate root ids in {list(t.roots)}")
    # Full leaf coverage: every leaf reachable from >= 1 root.
    reachable: set[str] = set()
    stack = list(t.roots)
    while stack:
        nid = stack.pop()
        if nid in reachable:
            continue
        reachable.add(nid)
        stack.extend(t.nodes[nid].children)
    orphans = [n.id for n in leaf_by_artifact.values() if n.id not in reachable]
    if orphans:
        raise TreeError(f"leaves not reachable from any root: {orphans}")
    embeddings = np.array([n.embedding for n in t.nodes.values()], dtype=np.float64)
    if not np.isfinite(embeddings).all():
        bad = int(np.argmin(np.isfinite(embeddings).all(axis=1)))
        raise TreeError(f"node {ids[bad]}: embedding has non-finite values")
    id_rank = np.empty(len(ids), dtype=np.intp)
    id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    for node, vec in zip(t.nodes.values(), embeddings):
        node.embedding = vec
    t.ids = ids
    t.embeddings = embeddings
    t.child_ptr = np.asarray(child_ptr, dtype=np.intp)
    t.child_rows = np.asarray(child_rows, dtype=np.intp)
    t.is_leaf = np.array(is_leaf)
    t.id_rank = id_rank
    t.root_rows = np.array([row[r] for r in t.roots], dtype=np.intp)
    t.top_level = max(n.level for n in t.nodes.values())
    t.leaf_by_artifact = leaf_by_artifact


def build_tree(
    lib: ArtifactLibrary,
    embedder,
    reducer_cfg: ReducerConfig | None = None,
    cluster_cfg: ClusterConfig | None = None,
    summarizer=None,
    stop: StoppingCriteria | None = None,
    seed: int = 0,
) -> TreeIndex:
    """Build the index bottom-up from an artifact library.

    ``summarizer`` is a chat client (or None for the offline extractive
    summarizer).  With offline providers and a fixed seed the result is
    a pure function of (library, config).
    """
    reducer_cfg = reducer_cfg or ReducerConfig()
    cluster_cfg = cluster_cfg or ClusterConfig()
    stop = stop or StoppingCriteria()

    nodes: dict[str, TreeNode] = {}
    texts = [a.description for a in lib.artifacts]
    embeddings = embedder.embed(texts)
    current: list[str] = []
    for i, artifact in enumerate(lib.artifacts):
        node = TreeNode(
            id=f"L0-{i}",
            level=0,
            kind="leaf",
            name=artifact.name,
            summary=artifact.description,
            embedding=embeddings[i],
            artifact_id=artifact.id,
        )
        nodes[node.id] = node
        current.append(node.id)

    level = 0
    while True:
        n = len(current)
        layers = level + 1
        if n == 1 or n <= stop.max_top_level_nodes or layers >= stop.max_depth:
            break
        X = np.stack([nodes[nid].embedding for nid in current])
        reduced, _ = reduce(X, reducer_cfg)
        upper = min(math.ceil(math.sqrt(n)), cluster_cfg.max_k, n - 1)
        if upper < 2:
            # Too few nodes for BIC selection: merge everything into one parent.
            model = fit_gmm(reduced, 1, seed)
        else:
            model, _ = select_k_bic(reduced, range(2, upper + 1), seed)
        assignment = soft_assign(model, reduced, cluster_cfg.soft_threshold)

        clusters: list[list[str]] = [[] for _ in range(model.k)]
        for i, nid in enumerate(current):
            for c in assignment.memberships[i]:
                clusters[c].append(nid)
        clusters = [c for c in clusters if c]

        level += 1
        parent_ids: list[str] = []
        summaries: list[str] = []
        for ordinal, members in enumerate(clusters):
            child_lines = [f"{nodes[m].name}: {nodes[m].summary}" for m in members]
            feature = summarize_cluster(child_lines, client=summarizer, embedder=embedder)
            pid = f"L{level}-{ordinal}"
            nodes[pid] = TreeNode(
                id=pid,
                level=level,
                kind="internal",
                name=feature.name,
                summary=feature.description,
                embedding=np.zeros(0),  # filled below after batch embedding
                children=tuple(members),
            )
            parent_ids.append(pid)
            summaries.append(f"{feature.name}: {feature.description}")
        parent_embeddings = embedder.embed(summaries)
        for pid, emb in zip(parent_ids, parent_embeddings):
            nodes[pid].embedding = emb
        current = parent_ids

    return TreeIndex(
        nodes=nodes,
        roots=tuple(current),
        config={
            "reducer": {"method": reducer_cfg.method, "target_dim": reducer_cfg.target_dim},
            "cluster": {
                "soft_threshold": cluster_cfg.soft_threshold,
                "max_k": cluster_cfg.max_k,
            },
            "stopping": {
                "max_depth": stop.max_depth,
                "max_top_level_nodes": stop.max_top_level_nodes,
            },
            "seed": seed,
            "embedding_dim": int(embeddings.shape[1]),
        },
        provenance={
            "embedder": type(embedder).__name__,
            "summarizer": "offline" if summarizer is None else type(summarizer).__name__,
        },
    )


def _node_to_json(node: TreeNode) -> dict:
    obj = {
        "id": node.id,
        "level": node.level,
        "kind": node.kind,
        "name": node.name,
        "summary": node.summary,
        "embedding": [float(x) for x in node.embedding],
        "children": list(node.children),
    }
    if node.artifact_id is not None:
        obj["artifact_id"] = node.artifact_id
    return obj


def save_tree(t: TreeIndex, path: str) -> None:
    """Persist the index as versioned JSON; a lossless, deterministic dump."""
    ordered = sorted(t.nodes.values(), key=lambda n: (n.level, n.id))
    doc = {
        "version": INDEX_FORMAT_VERSION,
        "config": t.config,
        "provenance": t.provenance,
        "roots": list(t.roots),
        "nodes": [_node_to_json(n) for n in ordered],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_tree(path: str) -> TreeIndex:
    """Load and validate an index; any malformed file raises ``TreeError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TreeError(f"index file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TreeError(f"index file {path} is not a JSON object")
    version = doc.get("version")
    if version != INDEX_FORMAT_VERSION:
        raise TreeError(f"unsupported index version {version!r} "
                        f"(expected {INDEX_FORMAT_VERSION})")
    nodes: dict[str, TreeNode] = {}
    try:
        for obj in doc["nodes"]:
            if obj["id"] in nodes:
                raise TreeError(f"duplicate node id {obj['id']!r}")
            nodes[obj["id"]] = TreeNode(
                id=obj["id"],
                level=int(obj["level"]),
                kind=obj["kind"],
                name=obj["name"],
                summary=obj["summary"],
                embedding=np.asarray(obj["embedding"], dtype=np.float64),
                children=tuple(obj["children"]),
                artifact_id=obj.get("artifact_id"),
            )
        roots = tuple(doc["roots"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TreeError(f"malformed index file {path}: {type(exc).__name__} {exc}") from exc
    return TreeIndex(
        nodes=nodes,
        roots=roots,
        config=doc.get("config", {}),
        provenance=doc.get("provenance", {}),
    )


def tree_stats(t: TreeIndex) -> dict:
    """Layer/node counts and mean summary lengths in characters."""
    leaf_lengths = [len(n.summary) for n in t.nodes.values() if n.is_leaf()]
    internal_lengths = [len(n.summary) for n in t.nodes.values() if not n.is_leaf()]
    return {
        "layers": t.max_level() + 1,
        "nodes": len(t.nodes),
        "mean_leaf_summary_length": (
            sum(leaf_lengths) / len(leaf_lengths) if leaf_lengths else 0.0
        ),
        "mean_internal_summary_length": (
            sum(internal_lengths) / len(internal_lengths) if internal_lengths else 0.0
        ),
    }
