"""Hierarchical semantic index: bottom-up build, persistence, statistics.

Each round takes the current top level's node texts, reduces their
embeddings, picks a component count by BIC, soft-assigns nodes to
clusters, summarizes every cluster into a named parent feature, and
embeds each summary as the next level.  Soft assignment can give a node
several parents, so the result is a polyhierarchy (a DAG), not a strict
tree; acyclicity and full leaf coverage are validated whenever a
``TreeIndex`` is made, and validation packs the index into the array
fields that search reads.  The array fields would not follow an edit,
so the nodes are frozen and the embedding matrix, the only copy of the
node vectors, is not writeable.

On disk (``INDEX_FORMAT_VERSION`` 2) the index is one JSON file: the
nodes in (level, id) order, and one ``"embeddings"`` block holding the
whole matrix, whose row ``i`` is node ``i`` of the file.  The block has
the width ``dim``, a ``mask`` (base64 of ``np.packbits`` over the entries
whose bits are nonzero, row-major) and the ``values`` of those entries
(base64 of little-endian float64), so floats round-trip bit for bit,
``-0.0`` included.
"""

from __future__ import annotations

import json
import math
from base64 import b64decode, b64encode
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from semtree.catalog import ArtifactLibrary
from semtree.cluster import fit_gmm, reduce, select_k_bic, soft_assign
from semtree.summarize import summarize_cluster

INDEX_FORMAT_VERSION = 2
MAX_K = 32  # the most components a level is clustered into


class TreeError(ValueError):
    """Structural invariant violation or unreadable index file."""


@dataclass(frozen=True)
class StoppingCriteria:
    max_depth: int = 4  # maximum number of layers, leaves included
    max_top_level_nodes: int = 10

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


@dataclass(eq=False, frozen=True)
class TreeNode:
    id: str
    level: int
    kind: str  # "leaf" or "internal"
    name: str
    summary: str
    children: tuple[str, ...] = ()
    artifact_id: str | None = None

    def is_leaf(self) -> bool:
        return self.kind == "leaf"


def _array_field():
    return field(init=False, repr=False)


@dataclass(eq=False)
class TreeIndex:
    """The index: its nodes, their vectors, and the array form that search reads.

    Construction copies ``nodes`` into a read-only mapping and
    ``embeddings`` into a read-only float64 matrix, so the index cannot
    change once it is made, and runs ``validate_tree``, which sets the
    array fields.  Row ``i`` is node ``ids[i]``, the ``i``-th of
    ``nodes``: its vector is ``embeddings[i]``, its children are
    ``child_rows[child_ptr[i]:child_ptr[i + 1]]`` (CSR), and
    ``id_rank[i]`` is the rank of ``ids[i]`` among the sorted node ids,
    the tie-break of search.
    """

    nodes: Mapping[str, TreeNode]
    roots: tuple[str, ...]
    embeddings: np.ndarray  # (n_nodes, dim)
    config: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    ids: tuple[str, ...] = _array_field()
    child_ptr: np.ndarray = _array_field()
    child_rows: np.ndarray = _array_field()
    is_leaf: np.ndarray = _array_field()
    id_rank: np.ndarray = _array_field()
    root_rows: np.ndarray = _array_field()
    top_level: int = _array_field()
    leaf_by_artifact: dict[str, TreeNode] = _array_field()

    def __post_init__(self):
        self.nodes = MappingProxyType(dict(self.nodes))
        try:
            self.embeddings = np.array(self.embeddings, dtype=np.float64, order="C")
        except (TypeError, ValueError) as exc:  # ragged or non-numeric rows
            raise TreeError(f"embeddings are not a numeric matrix: {exc}") from exc
        self.embeddings.flags.writeable = False
        validate_tree(self)

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    def leaves(self) -> list[TreeNode]:
        return [n for n in self.nodes.values() if n.is_leaf()]

    def max_level(self) -> int:
        return self.top_level


def rank_by_id(ids) -> np.ndarray:
    """Each id's position among the ids sorted ascending: the tie-break of
    every ranking, search's and the baselines'."""
    ranks = np.empty(len(ids), dtype=np.intp)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def validate_tree(t: TreeIndex) -> None:
    """Check the index and set its array fields.

    Checks: levels are integers, ids, names, summaries and artifact ids
    are strings, each kind is ``leaf`` or ``internal``, the embedding
    matrix is finite with one row per node, levels decrease along every
    edge (hence acyclicity), each artifact has one leaf, roots are
    distinct, and every leaf is reachable from a root.  ``TreeIndex`` runs it when made.
    """
    if not t.nodes:
        raise TreeError("index has no nodes")
    ids = tuple(t.nodes)
    row = {nid: i for i, nid in enumerate(ids)}
    if t.embeddings.ndim != 2 or len(t.embeddings) != len(ids):
        raise TreeError(f"embedding matrix of shape {t.embeddings.shape} does not "
                        f"have one row for each of the {len(ids)} nodes")
    for node in t.nodes.values():  # before any edge compares two levels
        if not isinstance(node.level, int) or isinstance(node.level, bool):
            raise TreeError(f"node {node.id!r}: level {node.level!r} is not an integer")
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
    finite = np.isfinite(t.embeddings).all(axis=1)
    if not finite.all():
        bad = ids[int(np.argmin(finite))]
        raise TreeError(f"node {bad}: embedding has non-finite values")
    t.ids = ids
    t.child_ptr = np.asarray(child_ptr, dtype=np.intp)
    t.child_rows = np.asarray(child_rows, dtype=np.intp)
    t.is_leaf = np.array(is_leaf)
    t.id_rank = rank_by_id(ids)
    t.root_rows = np.array([row[r] for r in t.roots], dtype=np.intp)
    t.top_level = max(n.level for n in t.nodes.values())
    t.leaf_by_artifact = leaf_by_artifact


def build_tree(
    lib: ArtifactLibrary,
    embedder,
    target_dim: int = 10,
    soft_threshold: float = 0.2,
    summarizer=None,
    stop: StoppingCriteria | None = None,
    seed: int = 0,
) -> TreeIndex:
    """Build the index bottom-up from an artifact library.

    Each level is clustered on its top ``target_dim`` principal components,
    and a node joins every cluster with at least ``soft_threshold``
    responsibility.  ``summarizer`` is a chat client (or None for the
    offline extractive summarizer).  With offline providers and a fixed
    seed the result is a pure function of (library, config).
    """
    if target_dim < 1:
        raise ValueError(f"target_dim must be >= 1, got {target_dim}")
    if not 0 < soft_threshold <= 1:  # NaN fails too
        raise ValueError(f"soft_threshold must be in (0, 1], got {soft_threshold}")
    stop = stop or StoppingCriteria()

    nodes: dict[str, TreeNode] = {}
    texts = [a.description for a in lib.artifacts]
    blocks = [embedder.embed(texts)]  # one per level, rows in node order
    current: list[str] = []
    for i, artifact in enumerate(lib.artifacts):
        node = TreeNode(
            id=f"L0-{i}",
            level=0,
            kind="leaf",
            name=artifact.name,
            summary=artifact.description,
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
        reduced = reduce(blocks[-1], target_dim)
        upper = min(math.ceil(math.sqrt(n)), MAX_K, n - 1)
        if upper < 2:
            # Too few nodes for BIC selection: merge everything into one parent.
            model = fit_gmm(reduced, 1, seed)
        else:
            model, _ = select_k_bic(reduced, range(2, upper + 1), seed)
        assignment = soft_assign(model, reduced, soft_threshold)

        clusters: list[list[str]] = [[] for _ in range(model.k)]
        for i, nid in enumerate(current):
            for c in assignment.memberships[i]:
                clusters[c].append(nid)
        clusters = [c for c in clusters if c]

        level += 1
        features = [
            summarize_cluster([f"{nodes[m].name}: {nodes[m].summary}" for m in members],
                              client=summarizer, embedder=embedder)
            for members in clusters
        ]
        blocks.append(embedder.embed([f.format() for f in features]))
        parent_ids = [f"L{level}-{ordinal}" for ordinal in range(len(clusters))]
        for pid, members, feature in zip(parent_ids, clusters, features):
            nodes[pid] = TreeNode(
                id=pid,
                level=level,
                kind="internal",
                name=feature.name,
                summary=feature.description,
                children=tuple(members),
            )
        current = parent_ids

    return TreeIndex(
        nodes=nodes,
        roots=tuple(current),
        embeddings=np.vstack(blocks),
        config={
            "reducer": {"method": "pca", "target_dim": target_dim},
            "cluster": {
                "soft_threshold": soft_threshold,
                "max_k": MAX_K,
            },
            "stopping": {
                "max_depth": stop.max_depth,
                "max_top_level_nodes": stop.max_top_level_nodes,
            },
            "seed": seed,
            "embedding_dim": int(blocks[0].shape[1]),
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
        "children": list(node.children),
    }
    if node.artifact_id is not None:
        obj["artifact_id"] = node.artifact_id
    return obj


def save_tree(t: TreeIndex, path: str) -> None:
    """Persist the index as versioned JSON; a lossless, deterministic dump."""
    nodes = list(t.nodes.values())
    rows = sorted(range(len(nodes)), key=lambda i: (nodes[i].level, nodes[i].id))
    matrix = np.asarray(t.embeddings[rows], dtype="<f8")
    nonzero = matrix.view("<u8") != 0  # by bits, so -0.0 is kept
    doc = {
        "version": INDEX_FORMAT_VERSION,
        "config": t.config,
        "provenance": t.provenance,
        "roots": list(t.roots),
        "nodes": [_node_to_json(nodes[i]) for i in rows],
        "embeddings": {
            "dim": t.dim,
            "mask": b64encode(np.packbits(nonzero).tobytes()).decode(),
            "values": b64encode(matrix[nonzero].tobytes()).decode(),
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        # dumps runs the C encoder; dump streams through the pure-Python one
        fh.write(json.dumps(doc, ensure_ascii=False, sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def _embedding_matrix(block: dict, n: int) -> np.ndarray:
    """The ``(n, dim)`` matrix that an ``"embeddings"`` block encodes."""
    dim = block["dim"]
    if type(dim) is not int or dim < 1:
        raise TreeError(f"embedding dim {dim!r} is not a positive integer")
    size = n * dim
    mask = b64decode(block["mask"], validate=True)
    if len(mask) != -(-size // 8):
        raise TreeError(f"embedding mask has {len(mask)} bytes, not the "
                        f"{-(-size // 8)} of {n} nodes of dim {dim}")
    nonzero = np.unpackbits(np.frombuffer(mask, dtype=np.uint8)).view(bool)
    if nonzero[size:].any():
        raise TreeError("embedding mask marks entries past the last node")
    values = b64decode(block["values"], validate=True)
    count = int(np.count_nonzero(nonzero))
    if len(values) != 8 * count:
        raise TreeError(f"embedding values have {len(values)} bytes, not 8 for each "
                        f"of the {count} entries the mask marks")
    matrix = np.zeros(size)
    # integer indices: ~3x faster than scattering through the boolean mask
    matrix[np.flatnonzero(nonzero[:size])] = np.frombuffer(values, dtype="<f8")
    return matrix.reshape(n, dim)


def load_tree(path: str) -> TreeIndex:
    """Load and validate an index; any malformed file raises ``TreeError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
            doc = json.loads(text)
            # Only a \u escape can make a lone surrogate, which save_tree
            # could not write back as UTF-8.  A backslash is looked for
            # first: it is found ~60x faster than "\\u", and is rare in an index.
            if "\\" in text and "\\u" in text:
                json.dumps(doc, ensure_ascii=False).encode("utf-8")
        except ValueError as exc:  # bad JSON, bad UTF-8 or a lone surrogate
            raise TreeError(f"index file {path} is not valid JSON: {exc}") from exc
    del text  # ~1.6 MB for 2,000 artifacts; the rest of the load need not hold it
    if not isinstance(doc, dict):
        raise TreeError(f"index file {path} is not a JSON object")
    version = doc.get("version")
    if version != INDEX_FORMAT_VERSION:
        raise TreeError(f"unsupported index version {version!r} "
                        f"(expected {INDEX_FORMAT_VERSION}); rebuild the index "
                        f"with `semtree build`")
    config, provenance = doc.get("config", {}), doc.get("provenance", {})
    if not (isinstance(config, dict) and isinstance(provenance, dict)):
        raise TreeError(f"index file {path}: config and provenance must be JSON objects")
    nodes: dict[str, TreeNode] = {}
    try:
        matrix = _embedding_matrix(doc["embeddings"], len(doc["nodes"]))
        for obj in doc["nodes"]:
            if obj["id"] in nodes:
                raise TreeError(f"duplicate node id {obj['id']!r}")
            nodes[obj["id"]] = TreeNode(
                id=obj["id"],
                level=obj["level"],
                kind=obj["kind"],
                name=obj["name"],
                summary=obj["summary"],
                children=tuple(obj["children"]),
                artifact_id=obj.get("artifact_id"),
            )
        roots = tuple(doc["roots"])
    except TreeError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TreeError(f"malformed index file {path}: {type(exc).__name__} {exc}") from exc
    del doc  # the parsed nodes are copied; free them before validation allocates
    return TreeIndex(
        nodes=nodes,
        roots=roots,
        embeddings=matrix,
        config=config,
        provenance=provenance,
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
