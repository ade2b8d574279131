"""The array checks of ``validate_tree`` against the per-node validator
they replaced.

``oracle_validate`` and ``oracle_load`` are the node-by-node
``validate_tree`` and the node-building ``load_tree`` as they were
before the index became columns, on a node record of their own;
``oracle_load`` reads the current file format, a JSON header line and
the matrix payload.  On the construction and malformed-file cases of
``test_tree.py`` and on generated corruptions of small DAGs, an index
must fail to load exactly when the oracle raises ``TreeError``.
Levels are drawn within 64 bits: the columns keep levels as int64 and
reject a wider one, which the oracle accepted.
"""

import json
import tempfile
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semtree.search import SearchConfig, recommend
from semtree.llm import CallableClient
from semtree.tree import (
    INDEX_FORMAT_VERSION,
    TreeError,
    TreeIndex,
    TreeNode,
    _embedding_matrix,
    build_tree,
    load_tree,
    save_tree,
    tree_stats,
)
from test_tree import (
    CONSTRUCTION_CASES,
    CONSTRUCTION_IDS,
    MALFORMED_FILE_IDS,
    MALFORMED_FILES,
    MATRIX_CASES,
    MATRIX_IDS,
    _two_leaves,
)
from conftest import columns, encode_payload, read_index, write_index

# the header's column names and the TreeIndex keywords that take them
COLUMNS = {"id": "ids", "level": "levels", "kind": "kinds", "name": "names",
           "summary": "summaries", "children": "children", "artifact_id": "artifact_ids"}


@dataclass(eq=False, frozen=True)
class Node:
    """The oracle's node record."""

    id: str
    level: int
    kind: str
    name: str
    summary: str
    children: tuple
    artifact_id: str | None

    def is_leaf(self) -> bool:
        return self.kind == "leaf"


def make_index(cols, roots, embeddings) -> TreeIndex:
    return TreeIndex(**cols, roots=roots, embeddings=embeddings)


def oracle_validate(nodes, roots, embeddings) -> None:
    if not nodes:
        raise TreeError("index has no nodes")
    ids = tuple(nodes)
    if embeddings.ndim != 2 or len(embeddings) != len(ids):
        raise TreeError("embedding matrix does not have one row per node")
    for node in nodes.values():
        if not isinstance(node.level, int) or isinstance(node.level, bool):
            raise TreeError(f"node {node.id!r}: level {node.level!r} is not an integer")
    leaf_by_artifact = {}
    for node in nodes.values():
        if not (isinstance(node.id, str) and isinstance(node.name, str)
                and isinstance(node.summary, str)):
            raise TreeError(f"node {node.id!r}: id, name and summary must be strings")
        if node.kind not in ("leaf", "internal"):
            raise TreeError(f"node {node.id}: kind {node.kind!r} is not leaf or internal")
        if node.is_leaf():
            if node.children:
                raise TreeError(f"leaf {node.id} has children")
            if not isinstance(node.artifact_id, str):
                raise TreeError(f"leaf {node.id} has no string artifact_id")
            if leaf_by_artifact.setdefault(node.artifact_id, node) is not node:
                raise TreeError(f"leaves share artifact_id {node.artifact_id}")
        else:
            if not node.children:
                raise TreeError(f"internal node {node.id} has no children")
            if node.artifact_id is not None:
                raise TreeError(f"internal node {node.id} carries an artifact_id")
        for child_id in node.children:
            child = nodes.get(child_id) if isinstance(child_id, str) else None
            if child is None:
                raise TreeError(f"node {node.id} references missing child {child_id!r}")
            if child.level >= node.level:
                raise TreeError(f"edge {node.id} -> {child_id} does not decrease level")
    for root_id in roots:
        if not isinstance(root_id, str) or root_id not in nodes:
            raise TreeError(f"missing root node {root_id!r}")
    if len(set(roots)) != len(roots):
        raise TreeError(f"duplicate root ids in {list(roots)}")
    reachable = set()
    stack = list(roots)
    while stack:
        nid = stack.pop()
        if nid in reachable:
            continue
        reachable.add(nid)
        stack.extend(nodes[nid].children)
    if any(n.id not in reachable for n in leaf_by_artifact.values()):
        raise TreeError("leaves not reachable from any root")
    if not np.isfinite(embeddings).all():
        raise TreeError("embedding has non-finite values")


def oracle_index(cols, roots, embeddings) -> None:
    """``oracle_validate`` on node records made from ``TreeIndex`` column keywords."""
    nodes = {}
    for i, nid in enumerate(cols["ids"]):
        if nid in nodes:
            raise TreeError(f"duplicate node id {nid!r}")
        nodes[nid] = Node(nid, cols["levels"][i], cols["kinds"][i], cols["names"][i],
                          cols["summaries"][i], tuple(cols["children"][i]),
                          cols["artifact_ids"][i])
    nodes = MappingProxyType(nodes)
    try:
        embeddings = np.array(embeddings, dtype=np.float64, order="C")
    except (TypeError, ValueError) as exc:
        raise TreeError(f"embeddings are not a numeric matrix: {exc}") from exc
    oracle_validate(nodes, tuple(roots), embeddings)


def oracle_load(path) -> None:
    try:
        header, payload = read_index(path)
        json.dumps(header, ensure_ascii=False).encode("utf-8")
    except ValueError as exc:
        raise TreeError(f"not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("version") != INDEX_FORMAT_VERSION:
        raise TreeError(f"not a version {INDEX_FORMAT_VERSION} index")
    if not (isinstance(header.get("config", {}), dict)
            and isinstance(header.get("provenance", {}), dict)):
        raise TreeError("config and provenance must be JSON objects")
    try:
        nodes = header["nodes"]
        n = len(nodes["id"])
        if any(len(nodes[key]) != n for key in COLUMNS):
            raise TreeError("a node column does not have one entry per node")
        matrix = _embedding_matrix(header["embeddings"]["dim"], payload, n)
        cols = {keyword: nodes[key] for key, keyword in COLUMNS.items()}
        cols["children"] = [tuple(children) for children in cols["children"]]
        roots = tuple(header["roots"])
    except TreeError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TreeError(f"malformed index file: {exc}") from exc
    oracle_index(cols, roots, matrix)


def rejects(fn, *args) -> bool:
    """Whether ``fn(*args)`` raises ``TreeError``; any other error propagates."""
    try:
        fn(*args)
    except TreeError:
        return True
    return False


@pytest.mark.parametrize("nodes, roots, message", CONSTRUCTION_CASES, ids=CONSTRUCTION_IDS)
def test_construction_cases_agree_with_the_oracle(nodes, roots, message):
    embeddings = np.ones((len(nodes), 2))
    assert rejects(oracle_index, columns(nodes), roots, embeddings)
    assert rejects(make_index, columns(nodes), roots, embeddings)


@pytest.mark.parametrize("embeddings, message", MATRIX_CASES, ids=MATRIX_IDS)
def test_matrix_cases_agree_with_the_oracle(embeddings, message):
    assert rejects(oracle_index, _two_leaves(), ("r",), embeddings)
    assert rejects(make_index, _two_leaves(), ("r",), embeddings)


@pytest.mark.parametrize("damage", MALFORMED_FILES, ids=MALFORMED_FILE_IDS)
def test_malformed_files_agree_with_the_oracle(family_index, tmp_path, damage):
    path = tmp_path / "idx.json"
    save_tree(family_index, path)
    assert not rejects(oracle_load, path) and not rejects(load_tree, path)
    damage(path)
    assert rejects(oracle_load, path)
    assert rejects(load_tree, path)


@st.composite
def small_dags(draw):
    """A valid index of up to 6 leaves and 3 levels above them: each
    internal node takes children from any level below its own."""
    n = draw(st.integers(1, 6))
    cols = {"ids": [f"L0-{i}" for i in range(n)], "levels": [0] * n, "kinds": ["leaf"] * n,
            "names": [f"n{i}" for i in range(n)], "summaries": [f"s{i}" for i in range(n)],
            "artifact_ids": [f"a{i}" for i in range(n)], "children": [()] * n}
    roots = list(cols["ids"])
    for level in range(1, draw(st.integers(0, 3)) + 1):
        below = list(cols["ids"])
        uncovered = set(roots)
        parents = []
        for j in range(draw(st.integers(1, 3))):
            children = draw(st.lists(st.sampled_from(below), min_size=1, max_size=4,
                                     unique=True))
            pid = f"L{level}-{j}"
            for key, value in (("ids", pid), ("levels", level), ("kinds", "internal"),
                               ("names", pid), ("summaries", pid), ("artifact_ids", None),
                               ("children", tuple(children))):
                cols[key].append(value)
            parents.append(pid)
            uncovered -= set(children)
        roots = parents + sorted(uncovered)  # every earlier root stays reachable
    embeddings = np.ones((len(cols["ids"]), 3))
    return cols, roots, embeddings


LEVELS = [-1, 0, 1, 2, 3, 7, "1", 1.5, True, None]
KINDS = ["leaf", "internal", "branch", None]
ARTIFACTS = [None, "a0", "fresh", 5]
TEXTS = ["x", 5, None]
# the values a corruption may put in each column but children
CHOICES = {"levels": LEVELS, "kinds": KINDS, "names": TEXTS, "summaries": TEXTS,
           "artifact_ids": ARTIFACTS}


@st.composite
def corrupted(draw, dags):
    """A DAG from ``dags`` with 0-3 random edits to its columns, roots or rows."""
    cols, roots, embeddings = draw(dags)
    ids = list(cols["ids"])
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(ids) - 1))
        what = draw(st.sampled_from(["levels", "kinds", "children", "artifact_ids", "names",
                                     "summaries", "roots", "embeddings"]))
        if what in CHOICES:
            cols[what][i] = draw(st.sampled_from(CHOICES[what]))
        elif what == "children":
            extra = draw(st.sampled_from(ids + ["missing", 5]))
            edit = draw(st.sampled_from(["clear", "add", "drop"]))
            children = cols["children"][i]
            cols["children"][i] = {"clear": (), "add": children + (extra,),
                                   "drop": children[1:]}[edit]
        elif what == "roots":
            edit = draw(st.sampled_from(["drop", "repeat", "add"]))
            if edit == "drop":
                roots = roots[1:]
            elif edit == "repeat":
                roots = roots + roots[:1]
            else:
                roots = roots + [draw(st.sampled_from(ids + ["missing", 5]))]
        else:
            edit = draw(st.sampled_from(["nan", "inf", "short", "long"]))
            embeddings = embeddings.copy()
            if edit in ("nan", "inf"):
                embeddings[draw(st.integers(0, len(embeddings) - 1)), 0] = float(edit)
            else:
                embeddings = embeddings[:-1] if edit == "short" else np.vstack(
                    [embeddings, embeddings[:1]])
    return cols, roots, embeddings


def _written(cols, roots, embeddings, directory) -> Path:
    """The index file of ``cols`` in their given order, encoded here by hand."""
    nodes = {key: list(cols[keyword]) for key, keyword in COLUMNS.items()}
    nodes["children"] = [list(children) for children in nodes["children"]]
    header = {"version": INDEX_FORMAT_VERSION, "roots": list(roots), "nodes": nodes,
              "embeddings": {"dim": embeddings.shape[1]}}
    path = Path(directory) / "index.json"
    write_index(path, header, encode_payload(embeddings))
    return path


@settings(derandomize=True, max_examples=400, deadline=None)
@given(corrupted(small_dags()))
def test_generated_corruptions_agree_with_the_oracle(case):
    cols, roots, embeddings = case
    expected = rejects(oracle_index, cols, roots, embeddings)
    assert rejects(make_index, cols, roots, embeddings) == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = _written(cols, roots, embeddings, tmp)
        on_file = rejects(oracle_load, path)
        assert rejects(load_tree, path) == on_file
    # A file's node count comes from its columns, so a matrix a row short
    # can be a valid payload: two nodes of dim 3 share one mask byte with
    # one node, and the file reads back as another matrix of that shape.
    if len(embeddings) == len(cols["ids"]):
        assert on_file == expected


@pytest.fixture
def made(monkeypatch):
    """One entry for each ``TreeNode`` made while the test runs."""
    made = []
    init = TreeNode.__init__
    monkeypatch.setattr(TreeNode, "__init__",
                        lambda self, *args, **kwargs: made.append(1) or init(self, *args, **kwargs))
    return made


def test_build_and_save_make_no_tree_nodes(family_index, family_library, hashed_embedder,
                                           tmp_path, made):
    built = build_tree(family_library, hashed_embedder, seed=0)
    save_tree(built, tmp_path / "built.json")
    save_tree(family_index, tmp_path / "fixture.json")
    assert made == []
    assert (tmp_path / "built.json").read_bytes() == (tmp_path / "fixture.json").read_bytes()


def test_the_serve_path_makes_no_tree_nodes(family_index, family_library, hashed_embedder,
                                            tmp_path, made):
    path = tmp_path / "index.json"
    save_tree(family_index, path)
    index = load_tree(path)
    cfg = SearchConfig(beam_width=10, final_k=5, rerank=True)
    echo = CallableClient(lambda prompt: prompt)  # the candidates in their given order
    result = recommend(index, family_library.descriptions[0], cfg, hashed_embedder,
                       llm_client=echo)
    assert len(result.entries) == 5
    assert tree_stats(index) == tree_stats(family_index)
    save_tree(index, tmp_path / "again.json")
    assert made == []
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    # the counter does see the view, which is made on first use
    assert len(index.nodes) == len(made) == len(index.ids)


def test_a_level_wider_than_64_bits_is_rejected():
    # the one input on which the columns differ from the oracle, by design
    cols = columns([{"id": "r", "level": 2**64, "children": ("a",)}, {"id": "a"}])
    assert not rejects(oracle_index, cols, ("r",), np.ones((2, 2)))
    with pytest.raises(TreeError, match="does not fit in 64 bits"):
        make_index(cols, ("r",), np.ones((2, 2)))
