import base64
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from semtree.catalog import Artifact, ArtifactLibrary
from semtree.cli import main
from conftest import make_depth1_index, make_family_library
from semtree.embed import EmbedderConfig, HashedEmbedder
from semtree.llm import CallableClient, LlmError, prompt_hash
from semtree.search import SearchConfig, tree_search
from semtree.tree import (
    INDEX_FORMAT_VERSION,
    StoppingCriteria,
    TreeError,
    TreeIndex,
    TreeNode,
    build_tree,
    load_tree,
    save_tree,
    tree_stats,
)


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
    vectors = dict(zip(loaded.ids, loaded.embeddings))
    for nid, vec in zip(family_index.ids, family_index.embeddings):
        assert vectors[nid].tobytes() == vec.tobytes()
    assert loaded.config == family_index.config


def test_negative_zero_keeps_its_sign_bit(tmp_path):
    leaf = TreeNode(id="a", level=0, kind="leaf", name="a", summary="a", artifact_id="a")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_tree(TreeIndex(nodes={"a": leaf}, roots=("a",), embeddings=[[-0.0, 0.0, 1.0]]), p1)
    loaded = load_tree(p1).embeddings[0]
    assert list(np.signbit(loaded)) == [True, False, False]
    assert list(loaded) == [0.0, 0.0, 1.0]
    save_tree(load_tree(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_wrong_version(family_index, tmp_path):
    path = tmp_path / "idx.json"
    save_tree(family_index, path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(TreeError, match="version"):
        load_tree(path)


def _embeddings_block(matrix):
    """The v2 ``"embeddings"`` block of ``matrix``, encoded here by hand."""
    matrix = np.asarray(matrix, dtype="<f8")
    nonzero = matrix.view("<u8") != 0
    return {
        "dim": matrix.shape[1],
        "mask": base64.b64encode(np.packbits(nonzero).tobytes()).decode(),
        "values": base64.b64encode(matrix[nonzero].tobytes()).decode(),
    }


def test_load_rejects_cycle(tmp_path):
    doc = {
        "version": 2,
        "roots": ["a"],
        "nodes": [
            {"id": "a", "level": 2, "kind": "internal", "name": "a", "summary": "a",
             "children": ["b"]},
            {"id": "b", "level": 1, "kind": "internal", "name": "b", "summary": "b",
             "children": ["a"]},
        ],
        "embeddings": _embeddings_block([[1.0, 0.0], [1.0, 0.0]]),
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TreeError, match="does not decrease level"):
        load_tree(path)


def test_load_asks_to_rebuild_a_version_1_file(tmp_path, capsys):
    doc = {
        "version": 1,
        "roots": ["a"],
        "nodes": [{"id": "a", "level": 0, "kind": "leaf", "name": "a", "summary": "a",
                   "embedding": [1.0, 0.0], "children": [], "artifact_id": "a"}],
    }
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TreeError, match="rebuild"):
        load_tree(path)
    for command in (["search", "--index", str(path), "--intent", "x"],
                    ["stats", "--index", str(path)]):
        assert main(command) == 1
        assert "semtree build" in capsys.readouterr().err


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


def _b64_edit(key, edit):
    """Damage that decodes ``embeddings[key]``, applies ``edit`` to the
    bytes and encodes the result again."""
    def damage(text):
        doc = json.loads(text)
        block = doc["embeddings"]
        block[key] = base64.b64encode(edit(base64.b64decode(block[key]))).decode()
        return json.dumps(doc)
    return damage


def _set_value(i, value):
    """Damage that writes ``value`` over the ``i``-th stored value."""
    def edit(raw):
        values = np.frombuffer(raw, dtype="<f8").copy()
        values[i] = value
        return values.tobytes()
    return _b64_edit("values", edit)


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
    _edited("embeddings"),  # no node has an embedding
    _edited("embeddings", value=5),  # a scalar where the matrix belongs
    _b64_edit("mask", lambda raw: raw[:-1]),  # the matrix is not n x dim
    _set_value(3, float("nan")),
    _set_value(0, float("-inf")),
    _edited("nodes", 1, "artifact_id", value="fam0-art00"),  # node 0's artifact
    _with_doc(lambda doc: doc["roots"].append(doc["roots"][0])),
    _edited("nodes", 1, "id", value="L0-0"),
    lambda text: text.replace('"L0-0"', "5"),  # the node's id and every reference to it
    _edited("nodes", 0, "name", value=5),
    _edited("nodes", 0, "summary", value=5),
    _edited("nodes", 0, "artifact_id", value=5),
    _edited("nodes", -1, "kind", value="branch"),  # an internal node
    _edited("nodes", -1, "children", 0, value=[1]),
    _edited("roots", 0, value=[1]),
    _edited("embeddings", "mask", value="not base64!"),
    _edited("embeddings", "values", value="é"),
    _b64_edit("values", lambda raw: raw[:-8]),
    _b64_edit("values", lambda raw: raw + raw[:8]),
    _b64_edit("mask", lambda raw: raw + b"\x00"),
    _edited("embeddings", "dim", value=0),
    _edited("embeddings", "dim", value=2.5),
    _edited("embeddings", "dim", value="256"),
    _edited("embeddings", "mask"),
    _edited("nodes", 0, "level", value=float("inf")),
], ids=["truncated", "not_an_object", "no_nodes", "node_without_level",
        "node_without_id", "node_without_embedding", "scalar_embedding",
        "ragged_embedding", "nan_embedding", "infinite_embedding",
        "duplicate_artifact_id", "duplicate_root", "duplicate_node_id",
        "integer_id", "integer_name", "integer_summary", "integer_artifact_id",
        "unknown_kind", "list_child_id", "list_root_id", "non_base64_mask",
        "non_ascii_values", "values_one_float_short", "values_one_float_long",
        "mask_one_byte_long", "zero_dim", "fractional_dim",
        "string_dim", "no_mask", "infinite_level"])
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


def test_load_rejects_text_that_is_not_utf8(family_index, tmp_path):
    path = tmp_path / "idx.json"
    save_tree(family_index, path)
    path.write_bytes(path.read_bytes().replace(b'"L0-0"', b'"L0-\xff"'))
    with pytest.raises(TreeError, match="not valid JSON"):
        load_tree(path)


def test_load_rejects_a_mask_bit_past_the_last_entry(tmp_path):
    # one node of dim 3: the mask byte's last 5 bits are padding
    doc = {
        "version": 2,
        "roots": ["a"],
        "nodes": [{"id": "a", "level": 0, "kind": "leaf", "name": "a", "summary": "a",
                   "children": [], "artifact_id": "a"}],
        "embeddings": _embeddings_block([[1.0, 0.0, 0.0]]),
    }
    path = tmp_path / "idx.json"
    path.write_text(json.dumps(doc))
    assert load_tree(path).embeddings.tolist() == [[1.0, 0.0, 0.0]]
    doc["embeddings"]["mask"] = base64.b64encode(bytes([0b10000001])).decode()
    doc["embeddings"]["values"] = base64.b64encode(np.ones(2).tobytes()).decode()
    path.write_text(json.dumps(doc))
    with pytest.raises(TreeError, match="past the last node"):
        load_tree(path)


def _leaf(nid):
    return TreeNode(id=nid, level=0, kind="leaf", name=nid, summary=nid, artifact_id=nid)


@pytest.mark.parametrize("nodes, roots, message", [
    ({}, (), "no nodes"),
    ({"a": _leaf("a"), "b": _leaf("b")}, ("a",), "not reachable"),
    # the parent comes first, so its edge is met before the child's level
    ({"r": TreeNode(id="r", level=1, kind="internal", name="r", summary="r",
                    children=("a",)),
      "a": dataclasses.replace(_leaf("a"), level="0")}, ("r",), "level '0' is not an integer"),
    ({"a": dataclasses.replace(_leaf("a"), children=("b",)), "b": _leaf("b")}, ("a",),
     "leaf a has children"),
    ({"r": TreeNode(id="r", level=1, kind="internal", name="r", summary="r"),
      "a": _leaf("a")}, ("r", "a"), "internal node r has no children"),
    ({"r": TreeNode(id="r", level=1, kind="internal", name="r", summary="r",
                    children=("a",), artifact_id="x"),
      "a": _leaf("a")}, ("r",), "internal node r carries an artifact_id"),
], ids=["empty", "orphan_leaf", "string_level_after_parent", "leaf_with_children",
        "childless_internal", "internal_with_artifact"])
def test_construction_validates(nodes, roots, message):
    with pytest.raises(TreeError, match=message):
        TreeIndex(nodes=nodes, roots=roots, embeddings=np.ones((len(nodes), 2)))


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


def test_a_two_node_level_merges_through_select_k_bic(hashed_embedder, monkeypatch):
    import semtree.tree as tree_mod

    def no_fit(*args, **kwargs):
        raise AssertionError("build_tree fitted a GMM outside select_k_bic")

    sweeps = []
    sweep = tree_mod.select_k_bic
    monkeypatch.setattr(tree_mod, "fit_gmm", no_fit)
    monkeypatch.setattr(tree_mod, "select_k_bic",
                        lambda X, ks, seed: sweeps.append(list(ks)) or sweep(X, ks, seed))
    lib = ArtifactLibrary(ecosystem="", artifacts=(
        Artifact(id="a", name="a", description="json parsing"),
        Artifact(id="b", name="b", description="yaml parsing"),
    ))
    built = build_tree(lib, hashed_embedder, stop=StoppingCriteria(max_top_level_nodes=1),
                       seed=0)
    assert sweeps == [[1]]
    assert built.roots == ("L1-0",)
    assert built.nodes["L1-0"].children == ("L0-0", "L0-1")


class CountingEmbedder:
    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def embed(self, texts):
        self.calls.append(list(texts))
        return self.inner.embed(texts)


def test_a_build_embeds_each_level_once_and_the_leaf_summaries_once(family_library,
                                                                    hashed_embedder):
    embedder = CountingEmbedder(hashed_embedder)
    index = build_tree(family_library, embedder, stop=StoppingCriteria(max_top_level_nodes=1),
                       seed=0)
    artifacts = family_library.artifacts
    assert index.max_level() >= 2
    assert len(embedder.calls) == index.max_level() + 2
    assert embedder.calls[0] == [a.description for a in artifacts]
    assert embedder.calls[1] == [f"{a.name}: {a.description}" for a in artifacts]
    for level, texts in enumerate(embedder.calls[2:], start=1):
        assert texts == [f"{n.name}: {n.summary}" for n in index.nodes.values()
                         if n.level == level]


def test_validate_rejects_orphan_leaf(family_index):
    nodes = dict(family_index.nodes)
    nodes["L0-orphan"] = TreeNode(
        id="L0-orphan", level=0, kind="leaf", name="orphan", summary="orphan",
        artifact_id="orphan",
    )
    embeddings = np.vstack([family_index.embeddings, np.zeros(family_index.dim)])
    with pytest.raises(TreeError, match="not reachable"):
        TreeIndex(nodes=nodes, roots=family_index.roots, embeddings=embeddings)


def test_index_nodes_are_read_only(family_index):
    # the packed arrays would not follow an edit, so none is allowed
    with pytest.raises(TypeError):
        del family_index.nodes["L0-0"]
    with pytest.raises(TypeError):
        family_index.nodes["L0-x"] = family_index.nodes["L0-0"]
    assert "L0-0" in family_index.nodes and "L0-x" not in family_index.nodes


def test_index_nodes_are_frozen(family_index):
    root = family_index.nodes[family_index.roots[0]]
    with pytest.raises(dataclasses.FrozenInstanceError):
        root.children = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        root.summary = ""
    assert root.children and root.summary


def test_index_embeddings_are_read_only(family_index):
    with pytest.raises(ValueError, match="read-only"):
        family_index.embeddings[0, 0] = 1.0


def test_index_copies_the_embeddings_it_is_given(hashed_embedder):
    # a later write into the caller's array reaches neither the index
    # nor a search on it
    lib = make_family_library(n_families=3, per_family=4)
    index = make_depth1_index(lib, hashed_embedder)
    given = np.array(index.embeddings)
    copied = TreeIndex(nodes=index.nodes, roots=index.roots, embeddings=given)
    intent = lib.artifacts[5].description
    cfg = SearchConfig(beam_width=3, final_k=3)
    before = tree_search(copied, intent, cfg, hashed_embedder).entries
    given[:] = given[::-1]
    assert copied.embeddings.tobytes() == index.embeddings.tobytes()
    assert tree_search(copied, intent, cfg, hashed_embedder).entries == before


@pytest.mark.parametrize("embeddings, message", [
    (np.ones((2, 4)), "one row for each of the 3 nodes"),
    (np.ones((4, 4)), "one row for each of the 3 nodes"),
    (np.ones(4), "one row for each"),
    (np.ones(3), "one row for each"),
    (np.array([[1.0, 0.0], [np.nan, 1.0], [0.0, 1.0]]), "node b: .*non-finite"),
    ([[1.0], [1.0, 2.0]], "not a numeric matrix"),
    ([["x"]], "not a numeric matrix"),
], ids=["too_few_rows", "too_many_rows", "one_dimensional", "one_dimensional_per_node",
        "nan", "ragged", "non_numeric"])
def test_construction_checks_the_embedding_matrix(embeddings, message):
    nodes = {"a": _leaf("a"), "b": _leaf("b"),
             "r": TreeNode(id="r", level=1, kind="internal", name="r", summary="r",
                           children=("a", "b"))}
    assert TreeIndex(nodes=nodes, roots=("r",), embeddings=np.ones((3, 2))).dim == 2
    with pytest.raises(TreeError, match=message):
        TreeIndex(nodes=nodes, roots=("r",), embeddings=embeddings)


def test_index_copies_the_nodes_it_is_given():
    leaf = TreeNode(id="a", level=0, kind="leaf", name="a", summary="a", artifact_id="a")
    given = {"a": leaf}
    index = TreeIndex(nodes=given, roots=("a",), embeddings=np.ones((1, 2)))
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


GOLDEN = Path(__file__).parent / "data" / "index_v2.json"


def golden_index():
    """3 artifacts, dim 16, and a parent level forced by one top node."""
    lib = ArtifactLibrary(ecosystem="pypi", artifacts=(
        Artifact(id="json", name="fastjson", description="parse and dump json documents"),
        Artifact(id="yaml", name="tinyyaml", description="parse yaml configuration files"),
        Artifact(id="http", name="webget", description="send http requests with retries"),
    ))
    embedder = HashedEmbedder(EmbedderConfig(dim=16, seed=0))
    return build_tree(lib, embedder, stop=StoppingCriteria(max_top_level_nodes=1), seed=0)


def test_golden_index_file_is_reproduced(tmp_path):
    index = golden_index()
    assert index.max_level() >= 1 and index.dim == 16
    path = tmp_path / "index.json"
    save_tree(index, path)
    assert path.read_bytes() == GOLDEN.read_bytes()


# build_tree + save_tree of a seeded 300-artifact catalog, whose first level
# is a BIC sweep over k = 2..18 and picks 16 and whose second picks 4 of 2..4.
# A numeric change to EM, BIC or soft assignment that flips a chosen k or a
# membership changes these bytes.
BUILD_GATE_SHA256 = "130d40f76dfa47f4d279d716b5b904a36d3b41df8ba2759dacb6820abd98db71"


def test_build_bytes_of_a_bic_sweep_are_pinned(hashed_embedder, tmp_path):
    lib = make_family_library(n_families=15, per_family=20, seed=12)
    path = tmp_path / "index.json"
    save_tree(build_tree(lib, hashed_embedder, seed=0), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BUILD_GATE_SHA256


def _mixed_reply(prompt):
    """Answers, garbles or fails, by the prompt's sha256."""
    digest = prompt_hash(prompt)
    kind = int(digest, 16) % 3
    if kind == 0:
        return f"feature {digest[:8]}: what prompt {digest[8:16]} covers:"
    if kind == 1:
        return "a reply with no separator"
    raise LlmError("no reply")


# The BUILD_GATE_SHA256 catalog summarized by _mixed_reply: the offline
# fallback runs on the leaves' rows and on a built level's block.
MIXED_LLM_BUILD_SHA256 = "db198f7d50db42fac5df426712b050838aae60a0afd7c1254d56a354f7ea56fb"


def test_build_bytes_of_an_llm_summarized_build_are_pinned(hashed_embedder, tmp_path):
    lib = make_family_library(n_families=15, per_family=20, seed=12)
    replies = []
    client = CallableClient(lambda prompt: replies.append(prompt) or _mixed_reply(prompt))
    path = tmp_path / "index.json"
    index = build_tree(lib, hashed_embedder, summarizer=client, seed=0)
    save_tree(index, path)
    assert {int(prompt_hash(p), 16) % 3 for p in replies} == {0, 1, 2}
    fallbacks = {n.level for n in index.nodes.values()
                 if n.summary.startswith("Common feature covering:")}
    assert fallbacks == {1, 2}
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MIXED_LLM_BUILD_SHA256


def test_golden_index_file_loads_and_decodes_by_hand():
    index = load_tree(GOLDEN)
    doc = json.loads(GOLDEN.read_text())
    assert doc["version"] == INDEX_FORMAT_VERSION == 2
    assert list(doc) == sorted(doc)
    # the layout, decoded without semtree: the mask's first bit is its
    # first byte's most significant one, values are little-endian float64
    # in row-major order, and row i is node i of the file
    block = doc["embeddings"]
    n, dim = len(doc["nodes"]), block["dim"]
    mask = base64.b64decode(block["mask"])
    bits = [(mask[j // 8] >> (7 - j % 8)) & 1 for j in range(n * dim)]
    values = iter(np.frombuffer(base64.b64decode(block["values"]), dtype="<f8"))
    vectors = dict(zip(index.ids, index.embeddings))
    for i, obj in enumerate(doc["nodes"]):
        row = [next(values) if bits[i * dim + j] else 0.0 for j in range(dim)]
        assert vectors[obj["id"]].tobytes() == np.array(row).tobytes()
    assert next(values, None) is None
    assert index.ids == tuple(obj["id"] for obj in doc["nodes"])


def _golden_edited(tmp_path, edit):
    """A copy of the golden file with ``edit`` applied to its document,
    written with ``json.dumps``' ASCII escapes."""
    doc = json.loads(GOLDEN.read_text())
    edit(doc)
    path = tmp_path / "index.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(config=[]),
    lambda doc: doc.update(provenance=5),
    lambda doc: doc["config"].update(embedder=[1]),
    lambda doc: doc["config"].update(embedder={"dim": [3]}),
    lambda doc: doc["config"].update(embedding_dim=[3]),  # read when no embedder is stored
], ids=["list_config", "integer_provenance", "list_embedder", "list_embedder_dim",
        "list_embedding_dim"])
def test_search_rejects_config_of_the_wrong_type(tmp_path, capsys, edit):
    path = _golden_edited(tmp_path, edit)
    assert main(["search", "--index", str(path), "--intent", "parse json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("key, value", [("config", []), ("provenance", 5)],
                         ids=["list_config", "integer_provenance"])
def test_load_rejects_config_that_is_not_an_object(tmp_path, capsys, key, value):
    path = _golden_edited(tmp_path, lambda doc: doc.update({key: value}))
    with pytest.raises(TreeError, match="JSON objects"):
        load_tree(path)
    assert main(["stats", "--index", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_load_rejects_a_lone_surrogate(tmp_path, capsys):
    path = _golden_edited(tmp_path, lambda doc: doc["nodes"][0].update(summary="a\ud800b"))
    assert "\\ud800" in path.read_text()
    with pytest.raises(TreeError, match="surrogates not allowed"):
        load_tree(path)
    assert main(["search", "--index", str(path), "--intent", "parse json"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_load_keeps_an_escaped_surrogate_pair(tmp_path):
    path = _golden_edited(tmp_path, lambda doc: doc["nodes"][0].update(summary="a\U0001F600b"))
    assert "\\ud83d\\ude00" in path.read_text()
    loaded = load_tree(path)
    node_id = json.loads(GOLDEN.read_text())["nodes"][0]["id"]
    assert loaded.nodes[node_id].summary == "a\U0001F600b"
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_tree(loaded, p1)
    save_tree(load_tree(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert "a\U0001F600b" in p1.read_text(encoding="utf-8")


@pytest.mark.parametrize("level", [1.9, "1", True], ids=["float", "string", "bool"])
def test_load_rejects_a_level_that_is_not_an_integer(tmp_path, capsys, level):
    def edit(doc):
        node = next(obj for obj in doc["nodes"] if obj["id"] == "L1-0")
        node["level"] = level
    path = _golden_edited(tmp_path, edit)
    with pytest.raises(TreeError, match="level .* is not an integer"):
        load_tree(path)
    assert main(["search", "--index", str(path), "--intent", "parse json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
