import json

import numpy as np
import pytest

from semtree.catalog import Artifact, ArtifactLibrary
from semtree.cli import main
from semtree.tree import (
    StoppingCriteria,
    TreeError,
    TreeIndex,
    TreeNode,
    build_tree,
    load_tree,
    save_tree,
    tree_stats,
)


@pytest.fixture(scope="module")
def family_index(family_library, hashed_embedder):
    return build_tree(family_library, hashed_embedder, seed=0)


def test_single_artifact_tree(hashed_embedder):
    lib = ArtifactLibrary(ecosystem="", artifacts=(
        Artifact(id="a1", name="only", description="the only artifact"),
    ))
    index = build_tree(lib, hashed_embedder, seed=0)
    assert len(index.nodes) == 1
    root = index.nodes[index.roots[0]]
    assert root.is_leaf() and root.artifact_id == "a1"


def test_build_covers_all_leaves(family_index, family_library):
    # reachability oracle: explicit graph walk from the roots
    reachable = set()
    stack = list(family_index.roots)
    while stack:
        nid = stack.pop()
        if nid in reachable:
            continue
        reachable.add(nid)
        stack.extend(family_index.nodes[nid].children)
    leaf_artifacts = {
        family_index.nodes[nid].artifact_id
        for nid in reachable if family_index.nodes[nid].is_leaf()
    }
    assert leaf_artifacts == set(family_library.ids())
    assert len(family_index.roots) <= 10
    assert family_index.max_level() + 1 <= 4


def test_build_respects_stopping_criteria(family_library, hashed_embedder):
    index = build_tree(family_library, hashed_embedder,
                       stop=StoppingCriteria(max_depth=2, max_top_level_nodes=3),
                       seed=0)
    assert index.max_level() + 1 <= 2


def test_child_levels_below_parent(family_index):
    for node in family_index.nodes.values():
        for child in node.children:
            assert family_index.nodes[child].level < node.level


def test_level_sizes_decrease(family_index):
    sizes = {}
    for node in family_index.nodes.values():
        sizes[node.level] = sizes.get(node.level, 0) + 1
    levels = sorted(sizes)
    for lo, hi in zip(levels, levels[1:]):
        assert sizes[hi] < sizes[lo]


def test_build_deterministic(family_library, hashed_embedder, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_tree(build_tree(family_library, hashed_embedder, seed=0), p1)
    save_tree(build_tree(family_library, hashed_embedder, seed=0), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_load_save_fixpoint(family_index, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_tree(family_index, p1)
    save_tree(load_tree(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_round_trip_preserves_embeddings(family_index, tmp_path):
    path = tmp_path / "idx.json"
    save_tree(family_index, path)
    loaded = load_tree(path)
    for nid, node in family_index.nodes.items():
        assert np.array_equal(loaded.nodes[nid].embedding, node.embedding)
    assert loaded.config == family_index.config


def test_load_rejects_wrong_version(family_index, tmp_path):
    path = tmp_path / "idx.json"
    save_tree(family_index, path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(TreeError, match="version"):
        load_tree(path)


def test_load_rejects_cycle(tmp_path):
    doc = {
        "version": 1,
        "roots": ["a"],
        "nodes": [
            {"id": "a", "level": 2, "kind": "internal", "name": "a", "summary": "a",
             "embedding": [1.0, 0.0], "children": ["b"]},
            {"id": "b", "level": 1, "kind": "internal", "name": "b", "summary": "b",
             "embedding": [1.0, 0.0], "children": ["a"]},
        ],
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TreeError, match="does not decrease level"):
        load_tree(path)


def _edited(*path, value=None):
    """Damage that sets the entry at ``path`` of the saved document to
    ``value``, or deletes it when ``value`` is None."""
    def damage(text):
        doc = json.loads(text)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        return json.dumps(doc)
    return damage


def _every_embedding(value):
    """Damage that sets every node's embedding to ``value``."""
    def damage(text):
        doc = json.loads(text)
        for node in doc["nodes"]:
            node["embedding"] = value
        return json.dumps(doc)
    return damage


def _with_doc(edit):
    """Damage that applies ``edit`` to the parsed document in place."""
    def damage(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return damage


@pytest.mark.parametrize("damage", [
    lambda text: text[: len(text) // 2],
    lambda text: json.dumps([json.loads(text)]),
    _edited("nodes"),
    _edited("nodes", 0, "level"),
    _edited("nodes", 0, "id"),
    _edited("nodes", 0, "embedding"),
    _every_embedding(5),
    _edited("nodes", 0, "embedding", value=[[0.5, 0.5], [0.5]]),
    _edited("nodes", 0, "embedding", 3, value=float("nan")),
    _edited("nodes", 1, "embedding", 0, value=float("-inf")),
    _edited("nodes", 1, "artifact_id", value="fam0-art00"),  # node 0's artifact
    _with_doc(lambda doc: doc["roots"].append(doc["roots"][0])),
    _with_doc(lambda doc: doc["nodes"].append({**doc["nodes"][0], "artifact_id": "zzz"})),
    lambda text: text.replace('"L0-0"', "5"),  # the node's id and every reference to it
    _edited("nodes", 0, "name", value=5),
    _edited("nodes", 0, "summary", value=5),
    _edited("nodes", 0, "artifact_id", value=5),
    _edited("nodes", -1, "kind", value="branch"),  # an internal node
    _edited("nodes", -1, "children", 0, value=[1]),
    _edited("roots", 0, value=[1]),
], ids=["truncated", "not_an_object", "no_nodes", "node_without_level",
        "node_without_id", "node_without_embedding", "scalar_embedding",
        "ragged_embedding", "nan_embedding", "infinite_embedding",
        "duplicate_artifact_id", "duplicate_root", "duplicate_node_id",
        "integer_id", "integer_name", "integer_summary", "integer_artifact_id",
        "unknown_kind", "list_child_id", "list_root_id"])
def test_load_rejects_malformed_file(family_index, tmp_path, capsys, damage):
    path = tmp_path / "idx.json"
    save_tree(family_index, path)
    path.write_text(damage(path.read_text()))
    with pytest.raises(TreeError):
        load_tree(path)
    assert main(["search", "--index", str(path), "--intent", "x"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["stats", "--index", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def _leaf(nid):
    return TreeNode(id=nid, level=0, kind="leaf", name=nid, summary=nid,
                    embedding=np.ones(2), artifact_id=nid)


@pytest.mark.parametrize("nodes, roots, message", [
    ({}, (), "no nodes"),
    ({"a": _leaf("a"), "b": _leaf("b")}, ("a",), "not reachable"),
], ids=["empty", "orphan_leaf"])
def test_construction_validates(nodes, roots, message):
    with pytest.raises(TreeError, match=message):
        TreeIndex(nodes=nodes, roots=roots)


def test_validate_runs_once_per_build_and_load(hashed_embedder, tmp_path, monkeypatch):
    import semtree.tree as tree_mod

    validated = []
    check = tree_mod.validate_tree
    monkeypatch.setattr(tree_mod, "validate_tree", lambda t: validated.append(t) or check(t))
    lib = ArtifactLibrary(ecosystem="", artifacts=(
        Artifact(id="a", name="a", description="json parsing"),
        Artifact(id="b", name="b", description="yaml parsing"),
    ))
    built = build_tree(lib, hashed_embedder, stop=StoppingCriteria(max_top_level_nodes=1),
                       seed=0)
    assert len(built.nodes) == 3
    save_tree(built, tmp_path / "idx.json")
    loaded = load_tree(tmp_path / "idx.json")
    assert [id(t) for t in validated] == [id(built), id(loaded)]


def test_validate_rejects_orphan_leaf(family_index):
    nodes = dict(family_index.nodes)
    nodes["L0-orphan"] = TreeNode(
        id="L0-orphan", level=0, kind="leaf", name="orphan", summary="orphan",
        embedding=np.zeros(family_index.dim), artifact_id="orphan",
    )
    with pytest.raises(TreeError, match="not reachable"):
        TreeIndex(nodes=nodes, roots=family_index.roots)


def test_index_nodes_are_read_only(family_index):
    # the packed arrays would not follow an edit, so none is allowed
    with pytest.raises(TypeError):
        del family_index.nodes["L0-0"]
    with pytest.raises(TypeError):
        family_index.nodes["L0-x"] = family_index.nodes["L0-0"]
    assert "L0-0" in family_index.nodes and "L0-x" not in family_index.nodes


def test_index_copies_the_nodes_it_is_given():
    leaf = TreeNode(id="a", level=0, kind="leaf", name="a", summary="a",
                    embedding=np.ones(2), artifact_id="a")
    given = {"a": leaf}
    index = TreeIndex(nodes=given, roots=("a",))
    del given["a"]
    assert list(index.nodes) == ["a"]


def test_index_equality_is_identity(family_index, tmp_path):
    path = tmp_path / "index.json"
    save_tree(family_index, path)
    a, b = load_tree(path), load_tree(path)
    assert (a == a) is True
    assert (a == b) is False
    node_id = a.roots[0]
    assert (a.nodes[node_id] == b.nodes[node_id]) is False


def test_tree_stats_arithmetic(hashed_embedder):
    lib = ArtifactLibrary(ecosystem="", artifacts=(
        Artifact(id="a", name="a", description="x" * 10),
        Artifact(id="b", name="b", description="y" * 20),
    ))
    index = build_tree(lib, hashed_embedder, stop=StoppingCriteria(max_top_level_nodes=1),
                       seed=0)
    stats = tree_stats(index)
    assert stats["layers"] == 2
    assert stats["nodes"] == 3
    assert stats["mean_leaf_summary_length"] == 15.0


def test_tree_stats_single_leaf(hashed_embedder):
    lib = ArtifactLibrary(ecosystem="", artifacts=(
        Artifact(id="a", name="a", description="solo"),
    ))
    stats = tree_stats(build_tree(lib, hashed_embedder, seed=0))
    assert stats["layers"] == 1 and stats["nodes"] == 1


def test_tree_stats_node_count_matches_walk(family_index):
    visited = set()
    stack = list(family_index.roots)
    while stack:
        nid = stack.pop()
        if nid in visited:
            continue
        visited.add(nid)
        stack.extend(family_index.nodes[nid].children)
    assert tree_stats(family_index)["nodes"] == len(visited)
