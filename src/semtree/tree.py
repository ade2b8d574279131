"""Hierarchical semantic index: bottom-up build, persistence, statistics.

Each round takes the current top level's node texts, reduces their
embeddings, picks a component count by BIC, soft-assigns nodes to
clusters, summarizes every cluster from its children's texts and rows
into a named parent feature, and embeds each summary as the next level.
Soft assignment can give a node several parents, so the result is a
polyhierarchy (a DAG), not a strict tree; acyclicity and full leaf
coverage are validated whenever a ``TreeIndex`` is made.  The index is
columns (ids, levels, kinds, names, summaries, artifact ids, CSR
children and the embedding matrix, the only copy of the node vectors,
held dim-major), and none of them can be edited once it is made.
``build_tree`` appends each level to the columns and ``load_tree`` reads
them from a file; both hand them to the one ``TreeIndex`` constructor.

On disk (``INDEX_FORMAT_VERSION`` 4) the index is stored as memory
holds it: a header line of UTF-8 JSON, a ``\n``, and the matrix as raw
bytes.  The header holds the node fields as seven column lists in the
index's own row order (``nodes``; a build's is level by level, each
level in cluster order) and the matrix width (``embeddings.dim``).  The
payload is ``dim_major`` in C order: a mask (``np.packbits`` over the
entries whose bits are nonzero) and then those entries as
little-endian float64, so floats round-trip bit for bit, ``-0.0``
included, and a loaded index equals the saved one column for column.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from types import MappingProxyType

import numpy as np

from semtree.catalog import ArtifactLibrary
from semtree.checks import check_integer, check_real
# fit_gmm is unused here, but the traced benchmark wraps semtree.tree.fit_gmm
from semtree.cluster import (SweepPool, fit_gmm, one_blas_thread, reduce, select_k_bic,
                             soft_assign)
from semtree.summarize import summarize_cluster

INDEX_FORMAT_VERSION = 4
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
        for name in ("max_depth", "max_top_level_nodes"):  # as Python ints, for the header
            object.__setattr__(self, name, check_integer(name, getattr(self, name), 1))


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
    are tuples; the matrix is held once, as the read-only C-contiguous
    ``(dim, n)`` float64 array ``dim_major``, and node ``i``'s vector is
    ``embeddings[i]``, where ``embeddings`` is its ``.T`` view.  Node
    ``i``'s children are ``child_rows[child_ptr[i]:child_ptr[i + 1]]``
    (CSR).  ``roots`` are node ids.  ``validate_tree`` runs once, when the
    index is made, and sets what search reads: ``is_leaf``, ``id_rank``
    (each id's rank among the sorted ids, the tie-break), ``root_rows``,
    ``root_expansion``, ``top_level`` and ``leaf_rows`` (artifact id to
    leaf row).  Nothing here changes after that, so the columns cannot
    fall out of step.

    ``build_tree`` and ``load_tree`` both make an index with this one
    constructor.  It takes ``children`` as lists or tuples of child ids
    per node.  An ``(n, dim)`` float64 ``embeddings`` array whose ``.T``
    is C-contiguous (Fortran order) is kept rather than copied, making
    the caller's array read-only; anything else is converted once.
    ``nodes``, ``leaves()`` and ``max_level()`` are views kept only for
    the benchmark in ``perfsuite/``; nothing in the package reads them.
    """

    def __init__(self, *, ids, levels, kinds, names, summaries, artifact_ids, children, roots,
                 embeddings, config: dict | None = None, provenance: dict | None = None):
        try:
            embeddings = np.asarray(embeddings, dtype=np.float64, order="F")
        except (TypeError, ValueError) as exc:  # ragged or non-numeric rows
            raise TreeError(f"embeddings are not a numeric matrix: {exc}") from exc
        for name, column in (("ids", ids), ("levels", levels), ("kinds", kinds),
                             ("names", names), ("summaries", summaries),
                             ("artifact_ids", artifact_ids), ("children", children)):
            if not isinstance(column, (list, tuple)):  # a string would pass as its letters
                raise TreeError(f"the {name} column is not a list or tuple")
            if len(column) != len(ids):
                raise TreeError(f"the {name} column has {len(column)} entries, not one "
                                f"for each of the {len(ids)} node ids")
        (self.ids, self.levels, self.kinds, self.names, self.summaries, self.artifact_ids,
         self.roots) = map(tuple, (ids, levels, kinds, names, summaries, artifact_ids, roots))
        self.row_of, self.child_ptr, self.child_rows = _csr(self.ids, children)
        self.embeddings = embeddings
        self.config = {} if config is None else config
        self.provenance = {} if provenance is None else provenance
        validate_tree(self)
        embeddings.flags.writeable = False  # a failed check leaves the caller's array as it was
        self.dim_major = embeddings.T  # C-contiguous, read-only as its base is

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
    _check_types(ids, (str,),
                 lambda i: f"node {ids[i]!r}: id, name and summary must be strings")
    row = _distinct_keys(ids, range(len(ids)), lambda a, b: f"duplicate node id {ids[b]!r}")
    _check_types(children, (list, tuple),
                 lambda i: f"node {ids[i]}: children {children[i]!r} are not a list of ids")
    ptr = np.zeros(len(ids) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, children), dtype=np.intp), out=ptr[1:])
    try:
        rows = np.fromiter(map(row.__getitem__, chain.from_iterable(children)),
                           dtype=np.intp, count=int(ptr[-1]))
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


def _check_types(column, accepted: tuple[type, ...], message) -> None:
    """Raise ``TreeError(message(i))`` at the first entry ``i`` of ``column`` not of an
    ``accepted`` type (a bool is no int), walking only a column whose set of types fails."""
    if not set(map(type, column)) <= set(accepted):
        for i, value in enumerate(column):
            if not isinstance(value, accepted) or isinstance(value, bool):
                raise TreeError(message(i))


def _distinct_keys(keys, rows, message) -> dict:
    """``dict(zip(keys, rows))``; raises ``TreeError(message(a, b))`` at the first key
    ``keys[b]`` that repeats an earlier one, ``keys[a]``."""
    index = dict(zip(keys, rows))
    if len(index) != len(keys):
        first: dict = {}
        raise TreeError(message(*next((first[k], b) for b, k in enumerate(keys)
                                      if first.setdefault(k, b) != b)))
    return index


def _raise_at(bad: np.ndarray, message) -> None:
    """Raise ``TreeError(message(i))`` for the first row ``i`` that ``bad`` marks."""
    if bad.any():
        raise TreeError(message(int(np.argmax(bad))))


def validate_tree(t: TreeIndex) -> None:
    """Check the index's columns and set the arrays that search reads.

    Checks: levels are integers; names, summaries and leaves' artifact
    ids are strings (``_csr`` checks the ids); each kind is ``leaf`` or
    ``internal``; leaves have no children and internal nodes have some;
    each artifact has one leaf; levels decrease along every CSR edge
    (hence acyclicity); roots are present and distinct; every leaf is
    reached by a level-by-level sweep from the roots; and the embedding
    matrix is finite with one row per node.  ``TreeIndex`` runs it when made.
    """
    n, ids = len(t.ids), t.ids
    if not n:
        raise TreeError("index has no nodes")
    if t.embeddings.ndim != 2 or len(t.embeddings) != n:
        raise TreeError(f"embedding matrix of shape {t.embeddings.shape} does not "
                        f"have one row for each of the {n} nodes")
    _check_types(t.levels, (int,),  # before any edge compares two levels
                 lambda i: f"node {ids[i]!r}: level {t.levels[i]!r} is not an integer")
    try:
        levels = np.array(t.levels, dtype=np.int64)
    except OverflowError as exc:
        raise TreeError(f"a node level does not fit in 64 bits: {exc}") from exc
    for column in (t.names, t.summaries):
        _check_types(column, (str,),
                     lambda i: f"node {ids[i]!r}: id, name and summary must be strings")
    is_leaf = np.array([kind == "leaf" for kind in t.kinds], dtype=bool)
    internal = np.array([kind == "internal" for kind in t.kinds], dtype=bool)
    _raise_at(~(is_leaf | internal),
              lambda i: f"node {ids[i]}: kind {t.kinds[i]!r} is not leaf or internal")
    fanout = np.diff(t.child_ptr)
    _raise_at(is_leaf & (fanout > 0), lambda i: f"leaf {ids[i]} has children")
    _raise_at(internal & (fanout == 0), lambda i: f"internal node {ids[i]} has no children")
    _raise_at(internal & np.array([a is not None for a in t.artifact_ids], dtype=bool),
              lambda i: f"internal node {ids[i]} carries an artifact_id")
    leaves = np.flatnonzero(is_leaf).tolist()
    artifact_ids = list(compress(t.artifact_ids, is_leaf.tolist()))
    _check_types(artifact_ids, (str,),
                 lambda j: f"leaf {ids[leaves[j]]} has no string artifact_id")
    leaf_rows = _distinct_keys(artifact_ids, leaves, lambda a, b: (
        f"leaves {ids[leaves[a]]} and {ids[leaves[b]]} share artifact_id {artifact_ids[b]}"))
    parents = np.repeat(np.arange(n), fanout)  # the parent row of each CSR edge
    _raise_at(levels[t.child_rows] >= levels[parents], lambda e: (
        f"edge {ids[parents[e]]} -> {ids[t.child_rows[e]]} does not decrease level "
        f"({t.levels[parents[e]]} -> {t.levels[t.child_rows[e]]})"))
    missing_root = lambda i: f"missing root node {t.roots[i]!r}"
    _check_types(t.roots, (str,), missing_root)
    root_rows = np.array([t.row_of.get(root_id, -1) for root_id in t.roots], dtype=np.intp)
    _raise_at(root_rows < 0, missing_root)
    _distinct_keys(t.roots, root_rows, lambda a, b: f"duplicate root ids in {list(t.roots)}")
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
    _raise_at(~np.isfinite(t.embeddings).all(axis=1),
              lambda i: f"node {ids[i]}: embedding has non-finite values")
    t.is_leaf = is_leaf
    t.id_rank = rank_by_id(ids)
    t.root_rows = root_rows
    t.top_level = int(levels.max())
    t.leaf_rows = leaf_rows
    # A beam at least as wide as the roots keeps them all, so its next
    # frontier is the same for every query; a beam of leaf roots ends there.
    root_leaf = is_leaf[t.root_rows]
    t.root_expansion = None if root_leaf.all() else expand_beam(t, t.root_rows, root_leaf)


def expand_beam(t: TreeIndex, kept: np.ndarray, leaf: np.ndarray) -> np.ndarray:
    """The rows a beam scores after keeping the rows ``kept``, whose leaf
    mask is ``leaf``: kept leaves carry themselves forward and kept
    internal nodes give their children, each row once, in row order.

    The kept rows' child ranges are sliced out of ``child_rows`` (a leaf's
    is empty) and their union is deduplicated with a mask: ``np.unique``
    sorts and costs ~10x as much on frontiers of this size.
    """
    ptr, rows = t.child_ptr, t.child_rows
    reached = np.zeros(len(t.ids), dtype=bool)
    reached[kept[leaf]] = True
    reached[np.concatenate([rows[a:b] for a, b in zip(ptr[kept].tolist(),
                                                       ptr[kept + 1].tolist())])] = True
    return np.flatnonzero(reached)


@one_blas_thread()
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
    seed the result is a pure function of (library, config).  Each level
    is embedded in one ``embedder.embed`` call; the leaves' call holds the
    descriptions and then the ``"name: summary"`` texts that their parents'
    summaries read.  The build runs on one BLAS thread
    (``one_blas_thread``), and its levels' BIC sweeps share one
    ``SweepPool``, whose workers are gone when the build returns or raises.
    """
    # numpy's generators take no negative seed
    target_dim, seed = check_integer("target_dim", target_dim, 1), check_integer("seed", seed, 0)
    soft_threshold = check_real("soft_threshold", soft_threshold)  # a Python float, for the header
    if not 0 < soft_threshold <= 1:
        raise ValueError(f"soft_threshold must be in (0, 1], got {soft_threshold}")
    stop = stop or StoppingCriteria()

    with SweepPool() as pool:
        n = len(lib)
        # The top level's "name: summary" texts, which their parents'
        # summaries read, and those texts' rows: the leaves' are embedded in
        # the descriptions' call, and above the leaves they are the level's
        # FeatureSummary.format() texts, whose rows are its block.
        texts = [f"{name}: {description}"
                 for name, description in zip(lib.names, lib.descriptions)]
        leaf = embedder.embed([*lib.descriptions, *texts])
        blocks, rows = [leaf[:n]], leaf[n:]  # a block per level, rows in node order
        columns = {"ids": [f"L0-{i}" for i in range(n)], "levels": [0] * n,
                   "kinds": ["leaf"] * n, "names": list(lib.names),
                   "summaries": list(lib.descriptions), "artifact_ids": list(lib.artifact_ids),
                   "children": [()] * n}

        level, first = 0, 0  # the top level is the rows from ``first`` on
        while len(texts) > stop.max_top_level_nodes and level + 1 < stop.max_depth:
            reduced = reduce(blocks[-1], target_dim)
            upper = min(math.ceil(math.sqrt(len(texts))), MAX_K, len(texts) - 1)
            # a level of two nodes can only take k = 1: both merge into one parent
            model, _ = select_k_bic(reduced, range(min(2, upper), upper + 1), seed, pool)
            clusters = soft_assign(model, reduced, soft_threshold).clusters  # level positions
            level += 1
            features = [summarize_cluster([texts[i] for i in c], rows[list(c)], client=summarizer)
                        for c in clusters]
            texts = [f.format() for f in features]
            rows = embedder.embed(texts)
            blocks.append(rows)
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
        embeddings=np.concatenate([block.T for block in blocks], axis=1).T,
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
    """Persist the index in format 4, columns and ``dim_major`` as they
    are held; a lossless, deterministic dump."""
    ptr, kids = t.child_ptr.tolist(), t.child_rows.tolist()
    nodes = dict(zip(NODE_COLUMNS, (t.ids, t.levels, t.kinds, t.names, t.summaries,
                                    t.artifact_ids)))
    nodes["children"] = [[t.ids[r] for r in kids[a:b]] for a, b in zip(ptr, ptr[1:])]
    header = {"version": INDEX_FORMAT_VERSION, "config": t.config,
              "provenance": t.provenance, "roots": t.roots,
              "embeddings": {"dim": t.dim}, "nodes": nodes}
    # dumps runs the C encoder; dump streams through the pure-Python one.
    # Text that is not UTF-8 raises here, before the file is truncated.
    head = json.dumps(header, ensure_ascii=False, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    matrix = np.asarray(t.dim_major, dtype="<f8")
    nonzero = matrix.view("<u8") != 0  # by bits, so -0.0 is kept
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(b"\n")
        fh.write(np.packbits(nonzero))
        fh.write(matrix[nonzero])


def _embedding_matrix(dim, payload: bytes, n: int) -> np.ndarray:
    """The ``(n, dim)`` matrix that a payload of mask and values encodes:
    the ``.T`` view of the C-contiguous ``(dim, n)`` array whose entries
    the payload lists in order."""
    if type(dim) is not int or dim < 1:
        raise TreeError(f"embedding dim {dim!r} is not a positive integer")
    size = n * dim
    mask = -(-size // 8)
    if len(payload) < mask:
        raise TreeError(f"embedding payload has {len(payload)} bytes, fewer than the "
                        f"{mask}-byte mask of {n} nodes of dim {dim}")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8, count=mask))
    at = np.flatnonzero(bits.view(bool))  # ~3x faster than on the uint8 bits
    if at.size and at[-1] >= size:
        raise TreeError("embedding mask marks entries past the last node")
    if len(payload) != mask + 8 * at.size:
        raise TreeError(f"embedding payload has {len(payload)} bytes, not the {mask} of "
                        f"the mask and 8 for each of the {at.size} entries it marks")
    matrix = np.zeros(size)
    # integer indices: ~3x faster than scattering through the boolean mask
    matrix[at] = np.frombuffer(payload, dtype="<f8", offset=mask)
    return matrix.reshape(dim, n).T


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
        ids, levels, kinds, names, summaries, artifact_ids, children = (
            nodes[key] for key in (*NODE_COLUMNS, "children"))  # TreeIndex checks them
        matrix = _embedding_matrix(doc["embeddings"]["dim"], payload, len(ids))
    except TreeError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TreeError(f"malformed index file {path}: {type(exc).__name__} {exc}") from exc
    del doc, payload  # the columns hold what validation needs
    return TreeIndex(
        ids=ids, levels=levels, kinds=kinds, names=names, summaries=summaries,
        artifact_ids=artifact_ids, children=children, roots=roots, embeddings=matrix,
        config=config, provenance=provenance,
    )


def tree_stats(t: TreeIndex) -> dict:
    """Layer/node counts and mean summary lengths in characters."""
    lengths = np.fromiter(map(len, t.summaries), dtype=np.int64, count=len(t.ids))
    leaf, internal = lengths[t.is_leaf], lengths[~t.is_leaf]
    return {"layers": t.top_level + 1, "nodes": len(t.ids),
            "mean_leaf_summary_length": float(leaf.mean()) if leaf.size else 0.0,
            "mean_internal_summary_length": float(internal.mean()) if internal.size else 0.0}
