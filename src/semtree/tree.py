"""Hierarchical semantic index: bottom-up build, persistence, statistics.

Each round takes the current top level's node texts, reduces their
embeddings, picks a component count by BIC, soft-assigns nodes to
clusters, summarizes every cluster from its children's texts and rows
into a named parent feature, and embeds each summary as the next level.
Soft assignment can give a node several parents, so the result is a
polyhierarchy (a DAG), not a strict tree; acyclicity and full leaf
coverage are validated whenever a ``TreeIndex`` is made.  The index is
columns (ids, levels, kinds, names, summaries, artifact ids, CSR
children and the embedding matrix, the only copy of the node vectors),
and none of them can be edited once it is made.  ``build_tree`` appends
each level to the columns and ``load_tree`` reads them from a file; both
hand them to the one ``TreeIndex`` constructor.

On disk (``INDEX_FORMAT_VERSION`` 3) the index is a header line of
UTF-8 JSON, a ``\n``, and the matrix as raw bytes.  The header holds the
node fields as seven column lists in (level, id) order (``nodes``) and
the matrix width (``embeddings.dim``); row ``i`` of the matrix is node
``i`` of the columns.  The payload is a mask (``np.packbits`` over the
entries whose bits are nonzero, row-major) and then those entries as
little-endian float64, so floats round-trip bit for bit, ``-0.0``
included.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType

import numpy as np

from semtree.catalog import ArtifactLibrary
# fit_gmm is unused here, but the traced benchmark wraps semtree.tree.fit_gmm
from semtree.cluster import fit_gmm, reduce, select_k_bic, soft_assign
from semtree.summarize import summarize_cluster

INDEX_FORMAT_VERSION = 3
MAX_K = 32  # the most components a level is clustered into
# the node columns of an index file's header besides "children"
NODE_COLUMNS = ("id", "level", "kind", "name", "summary", "artifact_id")


class TreeError(ValueError):
    """Structural invariant violation or unreadable index file."""


@dataclass(frozen=True)
class StoppingCriteria:
    max_depth: int = 4  # maximum number of layers, leaves included
    max_top_level_nodes: int = 10

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.max_top_level_nodes < 1:
            raise ValueError("max_top_level_nodes must be >= 1")


@dataclass(eq=False, frozen=True)
class TreeNode:
    """One node of the ``TreeIndex.nodes`` view, which only ``perfsuite/`` reads."""

    id: str
    level: int
    kind: str  # "leaf" or "internal"
    name: str
    summary: str
    children: tuple[str, ...] = ()
    artifact_id: str | None = None

    def is_leaf(self) -> bool:
        return self.kind == "leaf"


class TreeIndex:
    """The index as columns: row ``i`` of each is node ``ids[i]``.

    ``levels``, ``kinds``, ``names``, ``summaries`` and ``artifact_ids``
    are tuples; node ``i``'s vector is ``embeddings[i]``, a read-only
    float64 matrix, and its children are
    ``child_rows[child_ptr[i]:child_ptr[i + 1]]`` (CSR).  ``roots`` are
    node ids.  ``validate_tree`` runs once, when the index is made, and
    sets what search reads: ``is_leaf``, ``id_rank`` (each id's rank among
    the sorted ids, the tie-break), ``root_rows``, ``top_level`` and
    ``leaf_rows`` (artifact id to leaf row).  Nothing here changes after
    that, so the columns cannot fall out of step.

    ``build_tree`` and ``load_tree`` both make an index with this one
    constructor.  It takes ``children`` as child ids per node, and keeps
    a C-contiguous float64 ``embeddings`` array rather than copying it,
    making the caller's array read-only; anything else is converted.
    ``nodes``, ``leaves()`` and ``max_level()`` are views kept only for
    the benchmark in ``perfsuite/``; nothing in the package reads them.
    """

    def __init__(self, *, ids, levels, kinds, names, summaries, artifact_ids, children, roots,
                 embeddings, config: dict | None = None, provenance: dict | None = None):
        try:
            embeddings = np.asarray(embeddings, dtype=np.float64, order="C")
        except (TypeError, ValueError) as exc:  # ragged or non-numeric rows
            raise TreeError(f"embeddings are not a numeric matrix: {exc}") from exc
        self.ids, self.levels, self.kinds = tuple(ids), tuple(levels), tuple(kinds)
        self.names, self.summaries = tuple(names), tuple(summaries)
        self.artifact_ids, self.roots = tuple(artifact_ids), tuple(roots)
        self.row_of, self.child_ptr, self.child_rows = _csr(self.ids, children)
        self.embeddings = embeddings
        self.config = {} if config is None else config
        self.provenance = {} if provenance is None else provenance
        validate_tree(self)
        embeddings.flags.writeable = False  # a failed check leaves the caller's array as it was

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    @cached_property
    def nodes(self) -> Mapping[str, TreeNode]:
        """The nodes by id, a read-only view made from the columns on first
        use; only ``perfsuite/`` reads it."""
        ptr, rows = self.child_ptr.tolist(), self.child_rows.tolist()
        return MappingProxyType({
            nid: TreeNode(id=nid, level=level, kind=kind, name=name, summary=summary,
                          children=tuple(self.ids[r] for r in rows[ptr[i]:ptr[i + 1]]),
                          artifact_id=artifact_id)
            for i, (nid, level, kind, name, summary, artifact_id) in enumerate(zip(
                self.ids, self.levels, self.kinds, self.names, self.summaries,
                self.artifact_ids))
        })

    def leaves(self) -> list[TreeNode]:
        """The leaf nodes of the ``nodes`` view; only ``perfsuite/`` reads it."""
        return [n for n in self.nodes.values() if n.is_leaf()]

    def max_level(self) -> int:
        """``top_level``; only ``perfsuite/`` reads it."""
        return self.top_level


def _csr(ids: tuple, children) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """Each id's row, and the rows of each node's ``children`` ids as CSR
    arrays (``child_ptr``, ``child_rows``)."""
    try:
        row = {nid: i for i, nid in enumerate(ids)}
    except TypeError as exc:  # a JSON list or object as an id
        raise TreeError(f"node ids must be strings: {exc}") from exc
    if len(row) != len(ids):
        seen: set[str] = set()
        raise TreeError(f"duplicate node id {next(n for n in ids if n in seen or seen.add(n))!r}")
    ptr = np.zeros(len(ids) + 1, dtype=np.intp)
    np.cumsum([len(c) for c in children], out=ptr[1:])
    try:
        rows = np.array([row[c] for cs in children for c in cs], dtype=np.intp)
    except (KeyError, TypeError):
        node, child = next((ids[i], c) for i, cs in enumerate(children) for c in cs
                           if not isinstance(c, str) or c not in row)
        raise TreeError(f"node {node} references missing child {child!r}") from None
    return row, ptr, rows


def rank_by_id(ids) -> np.ndarray:
    """Each id's position among the ids sorted ascending: the tie-break of
    every ranking, search's and the baselines'."""
    ranks = np.empty(len(ids), dtype=np.intp)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def _raise_at(bad: np.ndarray, message) -> None:
    """Raise ``TreeError(message(i))`` for the first row ``i`` that ``bad`` marks."""
    if bad.any():
        raise TreeError(message(int(np.argmax(bad))))


def validate_tree(t: TreeIndex) -> None:
    """Check the index's columns and set the arrays that search reads.

    Checks: levels are integers; ids, names, summaries and leaves'
    artifact ids are strings; each kind is ``leaf`` or ``internal``;
    leaves have no children and internal nodes have some; each artifact
    has one leaf; levels decrease along every CSR edge (hence
    acyclicity); roots are present and distinct; every leaf is reached
    by a level-by-level sweep from the roots; and the embedding matrix is
    finite with one row per node.  ``TreeIndex`` runs it when made.
    """
    n, ids = len(t.ids), t.ids
    if not n:
        raise TreeError("index has no nodes")
    if t.embeddings.ndim != 2 or len(t.embeddings) != n:
        raise TreeError(f"embedding matrix of shape {t.embeddings.shape} does not "
                        f"have one row for each of the {n} nodes")
    # Each type check is one set of types, made at C speed; only a column
    # that holds some other type is walked to find the node.
    if set(map(type, t.levels)) != {int}:  # before any edge compares two levels
        for nid, level in zip(ids, t.levels):
            if not isinstance(level, int) or isinstance(level, bool):
                raise TreeError(f"node {nid!r}: level {level!r} is not an integer")
    try:
        levels = np.array(t.levels, dtype=np.int64)
    except OverflowError as exc:
        raise TreeError(f"a node level does not fit in 64 bits: {exc}") from exc
    if set(map(type, chain(ids, t.names, t.summaries))) != {str}:
        for nid, name, summary in zip(ids, t.names, t.summaries):
            if not (isinstance(nid, str) and isinstance(name, str)
                    and isinstance(summary, str)):
                raise TreeError(f"node {nid!r}: id, name and summary must be strings")
    is_leaf = np.array([kind == "leaf" for kind in t.kinds], dtype=bool)
    internal = np.array([kind == "internal" for kind in t.kinds], dtype=bool)
    _raise_at(~(is_leaf | internal),
              lambda i: f"node {ids[i]}: kind {t.kinds[i]!r} is not leaf or internal")
    fanout = np.diff(t.child_ptr)
    _raise_at(is_leaf & (fanout > 0), lambda i: f"leaf {ids[i]} has children")
    _raise_at(internal & (fanout == 0), lambda i: f"internal node {ids[i]} has no children")
    has_artifact = np.array([a is not None for a in t.artifact_ids], dtype=bool)
    _raise_at(internal & has_artifact,
              lambda i: f"internal node {ids[i]} carries an artifact_id")
    leaf_rows: dict[str, int] = {}
    for r in np.flatnonzero(is_leaf).tolist():
        artifact_id = t.artifact_ids[r]
        if not isinstance(artifact_id, str):
            raise TreeError(f"leaf {ids[r]} has no string artifact_id")
        other = leaf_rows.setdefault(artifact_id, r)
        if other != r:
            raise TreeError(f"leaves {ids[other]} and {ids[r]} share artifact_id {artifact_id}")
    parents = np.repeat(np.arange(n), fanout)  # the parent row of each CSR edge
    climbs = levels[t.child_rows] >= levels[parents]
    if climbs.any():
        e = int(np.argmax(climbs))
        p, c = int(parents[e]), int(t.child_rows[e])
        raise TreeError(f"edge {ids[p]} -> {ids[c]} does not decrease level "
                        f"({t.levels[p]} -> {t.levels[c]})")
    root_rows = []
    for root_id in t.roots:
        if not isinstance(root_id, str) or root_id not in t.row_of:
            raise TreeError(f"missing root node {root_id!r}")
        root_rows.append(t.row_of[root_id])
    if len(set(root_rows)) != len(root_rows):
        raise TreeError(f"duplicate root ids in {list(t.roots)}")
    # Full leaf coverage: each pass reaches the children of the last one,
    # so a pass goes one edge deeper and the sweep ends below the leaves.
    reached = np.zeros(n, dtype=bool)
    wave = np.zeros(n, dtype=bool)
    wave[root_rows] = True
    while wave.any():
        reached |= wave
        below = np.zeros(n, dtype=bool)
        below[t.child_rows[wave[parents]]] = True
        wave = below & ~reached
    orphans = [ids[r] for r in np.flatnonzero(is_leaf & ~reached).tolist()]
    if orphans:
        raise TreeError(f"leaves not reachable from any root: {orphans}")
    finite = np.isfinite(t.embeddings).all(axis=1)
    _raise_at(~finite, lambda i: f"node {ids[i]}: embedding has non-finite values")
    t.is_leaf = is_leaf
    t.id_rank = rank_by_id(ids)
    t.root_rows = np.array(root_rows, dtype=np.intp)
    t.top_level = int(levels.max())
    t.leaf_rows = leaf_rows


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

    artifacts = lib.artifacts
    texts = [a.description for a in artifacts]
    blocks = [embedder.embed(texts)]  # one per level, rows in node order
    n = len(artifacts)
    columns = {"ids": [f"L0-{i}" for i in range(n)], "levels": [0] * n,
               "kinds": ["leaf"] * n, "names": [a.name for a in artifacts],
               "summaries": list(texts), "artifact_ids": [a.id for a in artifacts],
               "children": [()] * n}

    level, first = 0, 0  # the top level is the rows from ``first`` on
    while True:
        n = len(columns["ids"]) - first
        layers = level + 1
        if n == 1 or n <= stop.max_top_level_nodes or layers >= stop.max_depth:
            break
        reduced = reduce(blocks[-1], target_dim)
        upper = min(math.ceil(math.sqrt(n)), MAX_K, n - 1)
        # a level of two nodes can only take k = 1: both merge into one parent
        model, _ = select_k_bic(reduced, range(min(2, upper), upper + 1), seed)
        assignment = soft_assign(model, reduced, soft_threshold)

        clusters: list[list[int]] = [[] for _ in range(model.k)]  # positions in the level
        for i, picked in enumerate(assignment.memberships):
            for c in picked:
                clusters[c].append(i)
        clusters = [c for c in clusters if c]

        # Each node's "name: summary" text and its row; above the leaves the
        # block is those rows, since FeatureSummary.format() made the same texts.
        texts = [f"{name}: {summary}" for name, summary
                 in zip(columns["names"][first:], columns["summaries"][first:])]
        rows = blocks[-1] if level else embedder.embed(texts)
        level += 1
        features = [summarize_cluster([texts[i] for i in c], rows[c], client=summarizer)
                    for c in clusters]
        blocks.append(embedder.embed([f.format() for f in features]))
        below, first, k = columns["ids"][first:], len(columns["ids"]), len(clusters)
        columns["ids"] += [f"L{level}-{ordinal}" for ordinal in range(k)]
        columns["levels"] += [level] * k
        columns["kinds"] += ["internal"] * k
        columns["names"] += [f.name for f in features]
        columns["summaries"] += [f.description for f in features]
        columns["artifact_ids"] += [None] * k
        columns["children"] += [tuple(below[i] for i in c) for c in clusters]

    return TreeIndex(
        **columns,
        roots=columns["ids"][first:],
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


def save_tree(t: TreeIndex, path: str) -> None:
    """Persist the index in format 3; a lossless, deterministic dump."""
    rows = np.lexsort((t.id_rank, t.levels)).tolist()  # (level, id) order
    ptr, kids = t.child_ptr.tolist(), t.child_rows.tolist()
    nodes = {key: [column[i] for i in rows] for key, column in zip(
        NODE_COLUMNS, (t.ids, t.levels, t.kinds, t.names, t.summaries, t.artifact_ids))}
    nodes["children"] = [[t.ids[r] for r in kids[ptr[i]:ptr[i + 1]]] for i in rows]
    header = {"version": INDEX_FORMAT_VERSION, "config": t.config,
              "provenance": t.provenance, "roots": list(t.roots),
              "embeddings": {"dim": t.dim}, "nodes": nodes}
    # dumps runs the C encoder; dump streams through the pure-Python one.
    # Text that is not UTF-8 raises here, before the file is truncated.
    head = json.dumps(header, ensure_ascii=False, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    matrix = np.asarray(t.embeddings[rows], dtype="<f8")
    nonzero = matrix.view("<u8") != 0  # by bits, so -0.0 is kept
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(b"\n")
        fh.write(np.packbits(nonzero))
        fh.write(matrix[nonzero])


def _embedding_matrix(dim, payload: bytes, n: int) -> np.ndarray:
    """The ``(n, dim)`` matrix that a payload of mask and values encodes."""
    if type(dim) is not int or dim < 1:
        raise TreeError(f"embedding dim {dim!r} is not a positive integer")
    size = n * dim
    mask = -(-size // 8)
    if len(payload) < mask:
        raise TreeError(f"embedding payload has {len(payload)} bytes, fewer than the "
                        f"{mask}-byte mask of {n} nodes of dim {dim}")
    nonzero = np.unpackbits(np.frombuffer(payload, dtype=np.uint8, count=mask)).view(bool)
    if nonzero[size:].any():
        raise TreeError("embedding mask marks entries past the last node")
    count = int(np.count_nonzero(nonzero))
    if len(payload) != mask + 8 * count:
        raise TreeError(f"embedding payload has {len(payload)} bytes, not the {mask} of "
                        f"the mask and 8 for each of the {count} entries it marks")
    matrix = np.zeros(size)
    # integer indices: ~3x faster than scattering through the boolean mask
    matrix[np.flatnonzero(nonzero[:size])] = np.frombuffer(payload, dtype="<f8",
                                                           offset=mask)
    return matrix.reshape(n, dim)


def load_tree(path: str) -> TreeIndex:
    """Load and validate an index; any malformed file raises ``TreeError``."""
    with open(path, "rb") as fh:
        head, _, payload = fh.read().partition(b"\n")
    try:
        text = head.decode("utf-8")
        doc = json.loads(text)
        # Only a \u escape can make a lone surrogate, which save_tree
        # could not write back as UTF-8.  A backslash is looked for
        # first: it is found ~60x faster than "\\u", and is rare in an index.
        if "\\" in text and "\\u" in text:
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except ValueError as exc:  # bad JSON, bad UTF-8 or a lone surrogate
        raise TreeError(f"index file {path}: the header is not valid JSON: {exc}") from exc
    del head, text
    if not isinstance(doc, dict):
        raise TreeError(f"index file {path}: the header is not a JSON object")
    version = doc.get("version")
    if version != INDEX_FORMAT_VERSION:
        raise TreeError(f"unsupported index version {version!r} "
                        f"(expected {INDEX_FORMAT_VERSION}); rebuild the index "
                        f"with `semtree build`")
    config, provenance = doc.get("config", {}), doc.get("provenance", {})
    if not (isinstance(config, dict) and isinstance(provenance, dict)):
        raise TreeError(f"index file {path}: config and provenance must be JSON objects")
    try:
        nodes, roots = doc["nodes"], doc["roots"]
        if type(nodes) is not dict:
            raise TreeError(f"index file {path}: nodes is not a JSON object")
        if type(roots) is not list:
            raise TreeError(f"index file {path}: roots is not a JSON list")
        ids = nodes["id"]
        for key in (*NODE_COLUMNS, "children"):
            if type(nodes[key]) is not list or len(nodes[key]) != len(ids):
                raise TreeError(f"index file {path}: the {key} column is not a JSON list "
                                f"with one entry per node")
        for nid, kids in zip(ids, nodes["children"]):
            if type(kids) is not list:
                raise TreeError(f"index file {path}: the children of node {nid!r} "
                                f"are not a JSON list")
        matrix = _embedding_matrix(doc["embeddings"]["dim"], payload, len(ids))
    except TreeError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TreeError(f"malformed index file {path}: {type(exc).__name__} {exc}") from exc
    del doc, payload  # the columns hold what validation needs
    return TreeIndex(
        ids=ids, levels=nodes["level"], kinds=nodes["kind"], names=nodes["name"],
        summaries=nodes["summary"], artifact_ids=nodes["artifact_id"],
        children=nodes["children"], roots=roots, embeddings=matrix,
        config=config, provenance=provenance,
    )


def tree_stats(t: TreeIndex) -> dict:
    """Layer/node counts and mean summary lengths in characters."""
    leaf = t.is_leaf.tolist()
    leaf_lengths = [len(s) for s, is_leaf in zip(t.summaries, leaf) if is_leaf]
    internal_lengths = [len(s) for s, is_leaf in zip(t.summaries, leaf) if not is_leaf]
    return {
        "layers": t.top_level + 1,
        "nodes": len(t.ids),
        "mean_leaf_summary_length": (
            sum(leaf_lengths) / len(leaf_lengths) if leaf_lengths else 0.0
        ),
        "mean_internal_summary_length": (
            sum(internal_lengths) / len(internal_lengths) if internal_lengths else 0.0
        ),
    }
