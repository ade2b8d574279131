import base64
import dataclasses
import hashlib
import json
import math
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from semtree.cli import main
from conftest import (
    columns,
    encode_payload,
    library,
    make_family_library,
    read_index,
    write_index,
)
from test_embed import features_of
from semtree import embed
from semtree.embed import EmbedderConfig, HashedEmbedder, tokenize
from semtree.llm import CallableClient, LlmError, prompt_hash
from semtree.search import SearchConfig, tree_search
from semtree.tree import (
    INDEX_FORMAT_VERSION,
    StoppingCriteria,
    TreeError,
    TreeIndex,
    _embedding_matrix,
    build_tree,
    load_tree,
    save_tree,
    tree_stats,
)


def test_single_artifact_tree(hashed_embedder):
    lib = library(("a1", "only", "the only artifact"))
    index = build_tree(lib, hashed_embedder, seed=0)
    assert index.ids == index.roots == ("L0-0",)
    assert index.kinds == ("leaf",) and index.artifact_ids == ("a1",)


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


@pytest.mark.parametrize("field", ["max_depth", "max_top_level_nodes"])
@pytest.mark.parametrize("value", [0, -1])
def test_stopping_criteria_below_one_are_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        StoppingCriteria(**{field: value})


NON_INTEGERS = [2.5, 2.0, True, "3", np.float64(3)]


@pytest.mark.parametrize("field", ["max_depth", "max_top_level_nodes"])
@pytest.mark.parametrize("value", NON_INTEGERS)
def test_stopping_criteria_reject_a_non_integer(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        StoppingCriteria(**{field: value})


@pytest.mark.parametrize("setting", ["target_dim", "seed"])
@pytest.mark.parametrize("value", NON_INTEGERS)
def test_build_rejects_a_non_integer_setting(setting, value, hashed_embedder):
    lib = library(("a", "a", "json"), ("b", "b", "yaml"))
    with pytest.raises(ValueError, match=f"^{setting} must be an integer, got "):
        build_tree(lib, hashed_embedder, **{setting: value})


def test_build_rejects_a_negative_seed(hashed_embedder):
    # it failed in numpy, unnamed, once the whole library was embedded
    lib = make_family_library(n_families=3, per_family=10)
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        build_tree(lib, hashed_embedder, seed=-1)


def test_build_rejects_a_bool_soft_threshold(hashed_embedder):
    # True == 1 would pass the range check as the widest threshold
    lib = library(("a", "a", "json"), ("b", "b", "yaml"))
    with pytest.raises(ValueError, match="soft_threshold"):
        build_tree(lib, hashed_embedder, soft_threshold=True)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, "0.3"])
def test_build_rejects_a_threshold_that_is_not_a_finite_real(hashed_embedder, threshold):
    lib = library(("a", "a", "json"), ("b", "b", "yaml"))
    with pytest.raises(ValueError, match="soft_threshold"):
        build_tree(lib, hashed_embedder, soft_threshold=threshold)


@pytest.mark.parametrize("threshold", [np.float32(0.3), np.float64(0.3)])
def test_build_takes_a_numpy_float_threshold(family_library, hashed_embedder, tmp_path,
                                             threshold):
    # recorded in the header as the plain JSON number of the same value
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_tree(build_tree(family_library, hashed_embedder, soft_threshold=threshold), p1)
    save_tree(build_tree(family_library, hashed_embedder, soft_threshold=float(threshold)), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert load_tree(p1).config["cluster"]["soft_threshold"] == float(threshold)


def test_build_takes_numpy_integer_settings(family_library, hashed_embedder, tmp_path):
    # each is recorded in the header as a plain JSON integer
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_tree(build_tree(family_library, hashed_embedder, target_dim=np.int64(10),
                         stop=StoppingCriteria(np.int32(4), np.int64(10)), seed=np.int64(0)),
              p1)
    save_tree(build_tree(family_library, hashed_embedder, seed=0), p2)
    assert p1.read_bytes() == p2.read_bytes()


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
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_tree(TreeIndex(**columns([{"id": "a"}]), roots=("a",), embeddings=[[-0.0, 0.0, 1.0]]),
              p1)
    loaded = load_tree(p1).embeddings[0]
    assert list(np.signbit(loaded)) == [True, False, False]
    assert list(loaded) == [0.0, 0.0, 1.0]
    save_tree(load_tree(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_wrong_version(family_index, tmp_path):
    path = tmp_path / "idx.json"
    save_tree(family_index, path)
    header, payload = read_index(path)
    header["version"] = 99
    write_index(path, header, payload)
    with pytest.raises(TreeError, match="version"):
        load_tree(path)


def test_load_rejects_cycle(tmp_path):
    header = {
        "version": INDEX_FORMAT_VERSION,
        "roots": ["a"],
        "nodes": {"id": ["a", "b"], "level": [2, 1], "kind": ["internal", "internal"],
                  "name": ["a", "b"], "summary": ["a", "b"], "children": [["b"], ["a"]],
                  "artifact_id": [None, None]},
        "embeddings": {"dim": 2},
    }
    path = tmp_path / "cycle.json"
    write_index(path, header, encode_payload([[1.0, 0.0], [1.0, 0.0]]))
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


def test_load_asks_to_rebuild_a_version_2_file(tmp_path, capsys):
    # one JSON object and a newline, its matrix in a base64 "embeddings" block
    doc = {
        "version": 2,
        "roots": ["a"],
        "nodes": [{"id": "a", "level": 0, "kind": "leaf", "name": "a", "summary": "a",
                   "children": [], "artifact_id": "a"}],
        "embeddings": {"dim": 2, "mask": base64.b64encode(bytes([0b10000000])).decode(),
                       "values": base64.b64encode(np.ones(1).tobytes()).decode()},
    }
    path = tmp_path / "v2.json"
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    with pytest.raises(TreeError, match="unsupported index version 2 .*rebuild"):
        load_tree(path)
    for command in (["search", "--index", str(path), "--intent", "x"],
                    ["stats", "--index", str(path)]):
        assert main(command) == 1
        assert "rebuild the index with `semtree build`" in capsys.readouterr().err


def _rewritten(edit):
    """Damage that writes back the ``(header, payload)`` that ``edit``
    returns for the file's own."""
    def damage(path):
        write_index(path, *edit(*read_index(path)))
    return damage


def _with_header(edit):
    """Damage that applies ``edit`` to the parsed header in place."""
    def edited(header, payload):
        edit(header)
        return header, payload
    return _rewritten(edited)


def _edited(*keys, value=None):
    """Damage that sets the header entry at ``keys`` to ``value``, or
    deletes it when ``value`` is None."""
    def edit(header):
        parent = header
        for key in keys[:-1]:
            parent = parent[key]
        if value is None:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
    return _with_header(edit)


def _bytes_edit(edit):
    """Damage that applies ``edit`` to the whole file's bytes."""
    def damage(path):
        path.write_bytes(edit(path.read_bytes()))
    return damage


def _payload_edit(part, edit):
    """Damage that applies ``edit`` to the payload's ``"mask"`` or
    ``"values"`` bytes; the mask is ceil(n * dim / 8) bytes."""
    def edited(header, payload):
        cut = -(-len(header["nodes"]["id"]) * header["embeddings"]["dim"] // 8)
        mask, values = payload[:cut], payload[cut:]
        if part == "mask":
            return header, edit(mask) + values
        return header, mask + edit(values)
    return _rewritten(edited)


def _set_value(i, value):
    """Damage that writes ``value`` over the ``i``-th stored value."""
    def edit(raw):
        values = np.frombuffer(raw, dtype="<f8").copy()
        values[i] = value
        return values.tobytes()
    return _payload_edit("values", edit)


# Damage to a saved multi-level index, each of which load_tree must reject.
# The ids of the base64 cases, from when the matrix was base64 text, now
# name the nearest damage to the raw payload.
MALFORMED_FILES = [
    _bytes_edit(lambda data: data[: len(data) // 2]),
    _rewritten(lambda header, payload: ([header], payload)),
    _edited("nodes"),
    _edited("nodes", "level"),
    _edited("nodes", "id"),
    _edited("embeddings"),  # no width for the matrix
    _edited("embeddings", value=5),  # a scalar where the block belongs
    _payload_edit("mask", lambda raw: raw[:-1]),  # the matrix is not n x dim
    _set_value(3, float("nan")),
    _set_value(0, float("-inf")),
    _edited("nodes", "artifact_id", 1, value="fam0-art00"),  # node 0's artifact
    _with_header(lambda header: header["roots"].append(header["roots"][0])),
    _edited("nodes", "id", 1, value="L0-0"),
    _bytes_edit(lambda data: data.replace(b'"L0-0"', b"5")),  # the id and each reference
    _edited("nodes", "name", 0, value=5),
    _edited("nodes", "summary", 0, value=5),
    _edited("nodes", "artifact_id", 0, value=5),
    _edited("nodes", "kind", -1, value="branch"),  # an internal node
    _edited("nodes", "children", -1, 0, value=[1]),
    _edited("roots", 0, value=[1]),
    _payload_edit("mask", lambda raw: bytes([raw[0] ^ 0x80]) + raw[1:]),  # one bit flipped
    _payload_edit("values", lambda raw: "é".encode() + raw),  # two stray bytes
    _payload_edit("values", lambda raw: raw[:-8]),
    _payload_edit("values", lambda raw: raw + raw[:8]),
    _payload_edit("mask", lambda raw: raw + b"\x00"),
    _edited("embeddings", "dim", value=0),
    _edited("embeddings", "dim", value=2.5),
    _edited("embeddings", "dim", value="256"),
    _payload_edit("mask", lambda raw: b""),
    _edited("nodes", "level", 0, value=float("inf")),
    _bytes_edit(lambda data: data.replace(b"\n", b"", 1)),
    _rewritten(lambda header, payload: (header, payload[: len(payload) // 2])),
    _rewritten(lambda header, payload: (header, payload + b"\x00")),
    _bytes_edit(lambda data: data.replace(b'"L0-0"', b'"L0-\xff"')),
    _with_header(lambda header: header["nodes"]["summary"].pop()),
]
MALFORMED_FILE_IDS = [
    "truncated", "not_an_object", "no_nodes", "node_without_level",
    "node_without_id", "node_without_embedding", "scalar_embedding",
    "ragged_embedding", "nan_embedding", "infinite_embedding",
    "duplicate_artifact_id", "duplicate_root", "duplicate_node_id",
    "integer_id", "integer_name", "integer_summary", "integer_artifact_id",
    "unknown_kind", "list_child_id", "list_root_id", "non_base64_mask",
    "non_ascii_values", "values_one_float_short", "values_one_float_long",
    "mask_one_byte_long", "zero_dim", "fractional_dim",
    "string_dim", "no_mask", "infinite_level", "no_newline", "truncated_payload",
    "trailing_payload_byte", "header_not_utf8", "column_one_entry_short"]
# A JSON object or string where a list belongs.
NOT_A_LIST = [
    _with_header(lambda header: header["nodes"]["children"].__setitem__(
        -1, dict.fromkeys(header["nodes"]["children"][-1], 0))),
    _edited("nodes", "children", 0, value=""),  # a leaf's
    _with_header(lambda header: header.update(roots=dict.fromkeys(header["roots"], True))),
    _with_header(lambda header: header.update(roots=header["roots"][0])),
]
NOT_A_LIST_IDS = ["object_children", "string_leaf_children", "object_roots", "string_roots"]


@pytest.mark.parametrize("damage", MALFORMED_FILES + NOT_A_LIST,
                         ids=MALFORMED_FILE_IDS + NOT_A_LIST_IDS)
def test_load_rejects_malformed_file(family_index, tmp_path, capsys, damage):
    path = tmp_path / "idx.json"
    save_tree(family_index, path)
    damage(path)
    with pytest.raises(TreeError):
        load_tree(path)
    assert main(["search", "--index", str(path), "--intent", "x"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["stats", "--index", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def _set_field(header, node_id, field, value):
    """Set ``field`` of the golden node ``node_id`` in the header's columns."""
    columns = header["nodes"]
    columns[field][columns["id"].index(node_id)] = value


@pytest.mark.parametrize("edit, message", [
    (lambda header: _set_field(header, "L1-0", "children", {"L0-1": 0}),
     "node L1-0: children .* are not a list of ids"),
    (lambda header: _set_field(header, "L0-0", "children", ""),
     "node L0-0: children '' are not a list of ids"),
    (lambda header: header.update(roots={"L2-0": True}), "^roots is not a list or tuple$"),
    (lambda header: header.update(roots="L2-0"), "^roots is not a list or tuple$"),
    (lambda header: header["nodes"].update(id=dict.fromkeys(header["nodes"]["id"], 0)),
     "the ids column is not a list or tuple"),
    (lambda header: header.update(nodes=[dict(zip(header["nodes"], row))
                                         for row in zip(*header["nodes"].values())]),
     "nodes is not a JSON object"),
    (lambda header: header["nodes"]["level"].pop(),
     "the levels column has .* entries, not one for each of the .* node ids"),
], ids=["object_children", "string_leaf_children", "object_roots", "string_roots",
        "object_nodes", "list_of_node_objects", "column_one_entry_short"])
def test_load_names_the_field_that_is_not_a_list(tmp_path, edit, message):
    with pytest.raises(TreeError, match=message):
        load_tree(_golden_edited(tmp_path, edit))


def test_load_rejects_text_that_is_not_utf8(family_index, tmp_path):
    path = tmp_path / "idx.json"
    save_tree(family_index, path)
    path.write_bytes(path.read_bytes().replace(b'"L0-0"', b'"L0-\xff"'))
    with pytest.raises(TreeError, match="not valid JSON"):
        load_tree(path)


def test_load_rejects_a_mask_bit_past_the_last_entry(tmp_path):
    # one node of dim 3: the mask byte's last 5 bits are padding
    header = {
        "version": INDEX_FORMAT_VERSION,
        "roots": ["a"],
        "nodes": {"id": ["a"], "level": [0], "kind": ["leaf"], "name": ["a"],
                  "summary": ["a"], "children": [[]], "artifact_id": ["a"]},
        "embeddings": {"dim": 3},
    }
    path = tmp_path / "idx.json"
    write_index(path, header, encode_payload([[1.0, 0.0, 0.0]]))
    assert load_tree(path).embeddings.tolist() == [[1.0, 0.0, 0.0]]
    write_index(path, header, bytes([0b10000001]) + np.ones(2).tobytes())
    with pytest.raises(TreeError, match="past the last node"):
        load_tree(path)


# node literals, as conftest.columns reads them
CONSTRUCTION_CASES = [
    ([], (), "no nodes"),
    ([{"id": "a"}, {"id": "b"}], ("a",), "not reachable"),
    # the parent comes first, so its edge is met before the child's level
    ([{"id": "r", "level": 1, "children": ("a",)}, {"id": "a", "level": "0"}], ("r",),
     "level '0' is not an integer"),
    ([{"id": "a", "kind": "leaf", "children": ("b",)}, {"id": "b"}], ("a",),
     "leaf a has children"),
    ([{"id": "r", "level": 1, "kind": "internal"}, {"id": "a"}], ("r", "a"),
     "internal node r has no children"),
    ([{"id": "r", "level": 1, "children": ("a",), "artifact_id": "x"}, {"id": "a"}], ("r",),
     "internal node r carries an artifact_id"),
]
CONSTRUCTION_IDS = ["empty", "orphan_leaf", "string_level_after_parent", "leaf_with_children",
                    "childless_internal", "internal_with_artifact"]


@pytest.mark.parametrize("nodes, roots, message", CONSTRUCTION_CASES, ids=CONSTRUCTION_IDS)
def test_construction_validates(nodes, roots, message):
    with pytest.raises(TreeError, match=message):
        TreeIndex(**columns(nodes), roots=roots, embeddings=np.ones((len(nodes), 2)))


def test_validate_runs_once_per_build_and_load(hashed_embedder, tmp_path, monkeypatch):
    import semtree.tree as tree_mod

    validated = []
    check = tree_mod.validate_tree
    monkeypatch.setattr(tree_mod, "validate_tree", lambda t: validated.append(t) or check(t))
    lib = library(
        ("a", "a", "json parsing"),
        ("b", "b", "yaml parsing"),
    )
    built = build_tree(lib, hashed_embedder, stop=StoppingCriteria(max_top_level_nodes=1),
                       seed=0)
    assert len(built.ids) == 3
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
                        lambda X, ks, seed, pool: sweeps.append(list(ks))
                        or sweep(X, ks, seed, pool))
    lib = library(
        ("a", "a", "json parsing"),
        ("b", "b", "yaml parsing"),
    )
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
    # The leaves' call holds the descriptions, then the "name: summary"
    # texts that the level-1 summaries read; each later call is one level.
    embedder = CountingEmbedder(hashed_embedder)
    index = build_tree(family_library, embedder, stop=StoppingCriteria(max_top_level_nodes=1),
                       seed=0)
    assert index.top_level >= 2
    assert len(embedder.calls) == index.top_level + 1
    leaf_texts = [f"{name}: {description}" for name, description
                  in zip(family_library.names, family_library.descriptions)]
    assert embedder.calls[0] == [*family_library.descriptions, *leaf_texts]
    for level, texts in enumerate(embedder.calls[1:], start=1):
        assert texts == [f"{name}: {summary}" for name, summary, at
                         in zip(index.names, index.summaries, index.levels) if at == level]


class HashCountingEmbedder(CountingEmbedder):
    """Also notes the features that each call hashes."""

    def __init__(self, inner, hashed: list):
        super().__init__(inner)
        self.hashed, self.hashed_by_call = hashed, []

    def embed(self, texts):
        start = len(self.hashed)
        rows = super().embed(texts)
        self.hashed_by_call.append(self.hashed[start:])
        return rows


def test_a_build_hashes_each_distinct_token_once(hashed_embedder, monkeypatch):
    # The leaves' call holds more distinct tokens than the LRU keeps, most
    # of them twice (a description and its "name: summary" text), and
    # hashes each once; a later call hashes at most its own tokens, once.
    hashed = []
    feature_hash = embed._hash_feature
    monkeypatch.setattr(embed, "_hash_feature", lambda f, seed: hashed.append(f)
                        or feature_hash(f, seed))
    embed._token_terms.cache_clear()
    embedder = HashCountingEmbedder(hashed_embedder, hashed)
    index = build_tree(make_family_library(n_families=36, per_family=20, seed=12), embedder,
                       seed=0)
    assert index.top_level == 2
    tokens = [{tok for text in texts for tok in tokenize(text)} for texts in embedder.calls]
    assert len(tokens[0]) > embed.TOKEN_MEMO_SIZE
    assert sorted(embedder.hashed_by_call[0]) == sorted(features_of(tokens[0]))
    for call_tokens, call_hashed in zip(tokens[1:], embedder.hashed_by_call[1:]):
        assert not Counter(call_hashed) - Counter(features_of(call_tokens))


def test_validate_rejects_orphan_leaf(family_index):
    t = family_index
    ptr, rows = t.child_ptr.tolist(), t.child_rows.tolist()
    children = [[t.ids[r] for r in rows[a:b]] for a, b in zip(ptr, ptr[1:])]
    with pytest.raises(TreeError, match="not reachable"):
        TreeIndex(ids=t.ids + ("L0-orphan",), levels=t.levels + (0,),
                  kinds=t.kinds + ("leaf",), names=t.names + ("orphan",),
                  summaries=t.summaries + ("orphan",),
                  artifact_ids=t.artifact_ids + ("orphan",), children=children + [[]],
                  roots=t.roots, embeddings=np.vstack([t.embeddings, np.zeros(t.dim)]))


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


def test_index_keeps_the_float64_matrix_it_is_given(hashed_embedder):
    # the index holds its matrix dim-major: an (n, dim) float64 matrix in
    # Fortran order, whose .T is C-contiguous, is kept, not copied, and
    # made read-only once the index is checked, so no later write through
    # the caller's array can reach a search; a failed check leaves the
    # caller's array as it was, and any other matrix is converted once
    lib = make_family_library(n_families=3, per_family=4)
    nodes = [{"id": aid} for aid in lib.artifact_ids]
    nodes.append({"id": "root", "level": 1, "children": list(lib.artifact_ids)})
    leaves = hashed_embedder.embed(list(lib.descriptions))
    given = np.asfortranarray(np.vstack([leaves, leaves.mean(axis=0)]))
    copied = TreeIndex(**columns(nodes), roots=("root",), embeddings=given.copy(order="F"))
    with pytest.raises(TreeError, match="missing root"):
        TreeIndex(**columns(nodes), roots=("nowhere",), embeddings=given)
    assert given.flags.writeable
    kept = TreeIndex(**columns(nodes), roots=("root",), embeddings=given)
    assert kept.embeddings is given and not given.flags.writeable
    assert kept.dim_major.base is given and kept.dim_major.flags.c_contiguous
    intent = lib.descriptions[5]
    cfg = SearchConfig(beam_width=3, final_k=3)
    before = tree_search(kept, intent, cfg, hashed_embedder).entries
    assert before == tree_search(copied, intent, cfg, hashed_embedder).entries
    with pytest.raises(ValueError, match="read-only"):
        given[:] = given[::-1]
    assert tree_search(kept, intent, cfg, hashed_embedder).entries == before
    for other in (given.astype(np.float32), np.ascontiguousarray(given)):
        converted = TreeIndex(**columns(nodes), roots=("root",), embeddings=other)
        assert not np.shares_memory(converted.embeddings, other) and other.flags.writeable
        # converted once: the dim-major matrix is a view of the one copy
        assert converted.embeddings.flags.owndata and not converted.embeddings.flags.writeable
        assert converted.dim_major.base is converted.embeddings
        assert converted.dim_major.flags.c_contiguous
        assert np.array_equal(converted.embeddings, other)


def test_children_that_are_not_a_list_of_ids_are_rejected():
    # a string would make the node the parent of each of its letters
    cols = columns([{"id": "r", "level": 1, "children": "ab"}, {"id": "a"}, {"id": "b"}])
    with pytest.raises(TreeError, match="^node r: children 'ab' are not a list of ids$"):
        TreeIndex(**cols, roots=("r",), embeddings=np.ones((3, 2)))


@pytest.mark.parametrize("kind", ["string", "dict"])
@pytest.mark.parametrize("column", ["ids", "levels", "kinds", "names", "summaries",
                                    "artifact_ids", "children"])
def test_a_column_that_is_not_a_list_is_rejected(column, kind):
    # of the right length, so only its type gives it away: a string would
    # pass as its letters and a dict as its keys
    cols = columns([{"id": "a"}, {"id": "b"}, {"id": "r", "level": 1, "children": ("a", "b")}])
    cols[column] = ("abr" if kind == "string"
                    else {f"key{i}": value for i, value in enumerate(cols[column])})
    with pytest.raises(TreeError, match=f"^the {column} column is not a list or tuple$"):
        TreeIndex(**cols, roots=("r",), embeddings=np.ones((3, 2)))


@pytest.mark.parametrize("roots", ["r", {"r": 0}], ids=["string", "dict"])
def test_roots_that_are_not_a_list_are_rejected(roots):
    # "r" would pass as its letters and {"r": 0} as its keys: both give ("r",)
    cols = columns([{"id": "a"}, {"id": "r", "level": 1, "children": ("a",)}])
    with pytest.raises(TreeError, match="^roots is not a list or tuple$"):
        TreeIndex(**cols, roots=roots, embeddings=np.ones((2, 2)))


def test_leaves_sharing_an_artifact_id_are_both_named():
    cols = columns([{"id": "a"}, {"id": "b", "artifact_id": "x"}, {"id": "c", "artifact_id": "x"},
                    {"id": "r", "level": 1, "children": ("a", "b", "c")}])
    with pytest.raises(TreeError, match="^leaves b and c share artifact_id x$"):
        TreeIndex(**cols, roots=("r",), embeddings=np.ones((4, 2)))


@pytest.mark.parametrize("change", ["short", "long"])
@pytest.mark.parametrize("column", ["levels", "kinds", "names", "summaries", "artifact_ids",
                                    "children"])
def test_a_column_without_one_entry_per_id_is_rejected(column, change):
    cols = columns([{"id": "a"}, {"id": "b"}, {"id": "r", "level": 1, "children": ("a", "b")}])
    cols[column] = cols[column][:-1] if change == "short" else [*cols[column], cols[column][0]]
    count = 2 if change == "short" else 4
    with pytest.raises(TreeError, match=f"^the {column} column has {count} entries, not one "
                                        f"for each of the 3 node ids$"):
        TreeIndex(**cols, roots=("r",), embeddings=np.ones((3, 2)))


MATRIX_CASES = [
    (np.ones((2, 4)), "one row for each of the 3 nodes"),
    (np.ones((4, 4)), "one row for each of the 3 nodes"),
    (np.ones(4), "one row for each"),
    (np.ones(3), "one row for each"),
    (np.array([[1.0, 0.0], [np.nan, 1.0], [0.0, 1.0]]), "node b: .*non-finite"),
    ([[1.0], [1.0, 2.0]], "not a numeric matrix"),
    ([["x"]], "not a numeric matrix"),
]
MATRIX_IDS = ["too_few_rows", "too_many_rows", "one_dimensional", "one_dimensional_per_node",
              "nan", "ragged", "non_numeric"]


def _two_leaves():
    return columns([{"id": "a"}, {"id": "b"}, {"id": "r", "level": 1, "children": ("a", "b")}])


@pytest.mark.parametrize("embeddings, message", MATRIX_CASES, ids=MATRIX_IDS)
def test_construction_checks_the_embedding_matrix(embeddings, message):
    cols = _two_leaves()
    assert TreeIndex(**cols, roots=("r",), embeddings=np.ones((3, 2))).dim == 2
    with pytest.raises(TreeError, match=message):
        TreeIndex(**cols, roots=("r",), embeddings=embeddings)


def test_index_equality_is_identity(family_index, tmp_path):
    path = tmp_path / "index.json"
    save_tree(family_index, path)
    a, b = load_tree(path), load_tree(path)
    assert (a == a) is True
    assert (a == b) is False
    node_id = a.roots[0]
    assert (a.nodes[node_id] == b.nodes[node_id]) is False


def test_tree_stats_arithmetic(hashed_embedder):
    lib = library(
        ("a", "a", "x" * 10),
        ("b", "b", "y" * 20),
    )
    index = build_tree(lib, hashed_embedder, stop=StoppingCriteria(max_top_level_nodes=1),
                       seed=0)
    stats = tree_stats(index)
    assert stats["layers"] == 2
    assert stats["nodes"] == 3
    assert stats["mean_leaf_summary_length"] == 15.0


def test_tree_stats_single_leaf(hashed_embedder):
    lib = library(("a", "a", "solo"))
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


GOLDEN = Path(__file__).parent / "data" / "index_v4.semtree"


def golden_index():
    """3 artifacts, dim 16, and a parent level forced by one top node."""
    lib = library(
        ("json", "fastjson", "parse and dump json documents"),
        ("yaml", "tinyyaml", "parse yaml configuration files"),
        ("http", "webget", "send http requests with retries"),
        ecosystem="pypi",
    )
    embedder = HashedEmbedder(EmbedderConfig(dim=16, seed=0))
    return build_tree(lib, embedder, stop=StoppingCriteria(max_top_level_nodes=1), seed=0)


def test_golden_index_file_is_reproduced(tmp_path):
    index = golden_index()
    assert index.max_level() >= 1 and index.dim == 16
    path = tmp_path / "index.json"
    save_tree(index, path)
    assert path.read_bytes() == GOLDEN.read_bytes()


def content_sha256(path) -> str:
    """sha256 of what the index file at ``path`` holds, whatever its
    format: the columns (children as id lists), roots, config and
    provenance as sorted-key JSON, then the matrix as little-endian
    float64, rows in (level, id) order."""
    t = load_tree(path)
    rows = np.lexsort((t.id_rank, t.levels)).tolist()
    ptr, kids = t.child_ptr.tolist(), t.child_rows.tolist()
    doc = {name: [getattr(t, name)[i] for i in rows]
           for name in ("ids", "levels", "kinds", "names", "summaries", "artifact_ids")}
    doc.update(children=[[t.ids[r] for r in kids[ptr[i]:ptr[i + 1]]] for i in rows],
               roots=list(t.roots), config=t.config, provenance=t.provenance)
    head = json.dumps(doc, ensure_ascii=False, sort_keys=True).encode("utf-8")
    matrix = np.ascontiguousarray(t.embeddings[rows], dtype="<f8")
    return hashlib.sha256(head + b"\n" + matrix.tobytes()).hexdigest()


# build_tree + save_tree of a seeded 300-artifact catalog, whose first level
# is a BIC sweep over k = 2..18 and picks 16 and whose second picks 4 of 2..4.
# A numeric change to EM, BIC or soft assignment that flips a chosen k or a
# membership changes these bytes.  The content digest does not depend on
# the file format, so a format change moves only the byte digest.
BUILD_GATE_SHA256 = "8b94639bb5d639960f12c2e9a757c0798257ee417d7bdd59a541103132db08c7"
BUILD_GATE_CONTENT_SHA256 = "2da2bd4c56d49f8d836c477e448c82caaad0f8769ca239a4579190ce2743e3d7"


def test_build_bytes_of_a_bic_sweep_are_pinned(hashed_embedder, tmp_path):
    lib = make_family_library(n_families=15, per_family=20, seed=12)
    path = tmp_path / "index.json"
    save_tree(build_tree(lib, hashed_embedder, seed=0), path)
    assert content_sha256(path) == BUILD_GATE_CONTENT_SHA256
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BUILD_GATE_SHA256


@pytest.mark.parametrize("build", [
    lambda embedder: build_tree(make_family_library(n_families=15, per_family=20, seed=12),
                                embedder, seed=0),
    lambda embedder: golden_index(),
], ids=["build_gate", "golden"])
def test_a_loaded_index_equals_the_built_one(build, hashed_embedder, tmp_path):
    # the file holds the columns and dim_major in the index's own order,
    # so loading gives back the built index itself, not a reordered copy
    built = build(hashed_embedder)
    path = tmp_path / "index.json"
    save_tree(built, path)
    loaded = load_tree(path)
    for name in ("ids", "levels", "kinds", "names", "summaries", "artifact_ids", "roots",
                 "config", "provenance"):
        assert getattr(loaded, name) == getattr(built, name), name
    for name in ("child_ptr", "child_rows"):
        assert getattr(loaded, name).tolist() == getattr(built, name).tolist(), name
    assert loaded.dim_major.shape == built.dim_major.shape
    assert loaded.dim_major.flags.c_contiguous
    assert loaded.dim_major.tobytes() == built.dim_major.tobytes()


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
MIXED_LLM_BUILD_SHA256 = "f8288a51cc0b2830439ecad8a5e95f3a7441c82aa14217e987749b1ad141cea1"
MIXED_LLM_BUILD_CONTENT_SHA256 = "eb14f854ffd3af386c18495fed3d0d89b1e0d4f2b684320e1e90f4f4a94f2378"


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
    assert content_sha256(path) == MIXED_LLM_BUILD_CONTENT_SHA256
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MIXED_LLM_BUILD_SHA256


# Catalogs whose descriptions repeat: the leaves' rows are one row many times
# over, which reduce takes to all-zero rows (one parent holds them all), or
# two rows that alternate.
DEGENERATE_CATALOGS = {
    "12_same": ([(f"a{i}", "tool", "parse json files") for i in range(12)],
                "a50719d4b8e2ae814535beadf7125c83c7bafeae9c0611453a1836108493a03c"),
    "200_same": ([(f"a{i}", "tool", "parse json files") for i in range(200)],
                 "20641def6a2fb1201f344258e078470ca12fc9e437510a40a6a5442100f7cdd9"),
    "40_names_same": ([(f"a{i}", f"tool{i}", "parse json files") for i in range(40)],
                      "079b9668dc8e35808534d45e75da4cdaf79d0e68deb5126e06fc0203deb15d40"),
    "30_alternating": ([(f"a{i}", "tool", ("parse json files", "send http requests")[i % 2])
                        for i in range(30)],
                       "d48e98fb1db38f985b05fb100e8801da472b0ab17b450fee186a21501fc9195c"),
}


@pytest.mark.parametrize("rows, sha256", DEGENERATE_CATALOGS.values(),
                         ids=DEGENERATE_CATALOGS.keys())
def test_build_bytes_of_repeated_descriptions_are_pinned(rows, sha256, tmp_path):
    path = tmp_path / "index.json"
    save_tree(build_tree(library(*rows), HashedEmbedder(EmbedderConfig()), seed=3), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_identical_artifacts_get_one_parent():
    # every k fits zero rows equally well and each point's responsibility is
    # spread evenly, so each of BIC's k components picks every point
    rows, _ = DEGENERATE_CATALOGS["200_same"]
    index = build_tree(library(*rows), HashedEmbedder(EmbedderConfig()), seed=3)
    assert index.roots == ("L1-0",)
    assert index.nodes["L1-0"].children == tuple(f"L0-{i}" for i in range(200))


def test_build_bytes_do_not_depend_on_pca_signs(hashed_embedder, tmp_path, monkeypatch):
    # k-means++ seeding, diagonal EM and soft assignment are exactly
    # invariant to negating an axis, so reduce keeps the SVD's signs
    import semtree.tree as tree_mod

    lib = make_family_library(n_families=12, per_family=25, seed=21)
    save_tree(build_tree(lib, hashed_embedder, seed=0), tmp_path / "svd.semtree")
    reduce, rng, flipped = tree_mod.reduce, np.random.default_rng(4), []

    def negated(X, target_dim):
        reduced = reduce(X, target_dim)
        signs = np.where(rng.random(reduced.shape[1]) < 0.5, -1.0, 1.0)
        flipped.append(int((signs < 0).sum()))
        return reduced * signs

    monkeypatch.setattr(tree_mod, "reduce", negated)
    save_tree(build_tree(lib, hashed_embedder, seed=0), tmp_path / "negated.semtree")
    assert len(flipped) > 1 and sum(flipped) > 0
    assert (tmp_path / "negated.semtree").read_bytes() == (tmp_path / "svd.semtree").read_bytes()


def _row_major_scatter(dim, payload, n):
    """The ``(dim, n)`` matrix of a payload, scattered in row-major order
    through the mask."""
    size = n * dim
    mask = -(-size // 8)
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8, count=mask))[:size]
    matrix = np.zeros(size)
    matrix[bits.astype(bool)] = np.frombuffer(payload, dtype="<f8", offset=mask)
    return matrix.reshape(dim, n)


@pytest.mark.parametrize("n, dim", [(1, 5), (4, 1), (5, 3), (2, 4), (3, 11)],
                         ids=["n_1", "dim_1", "dim_3", "no_padding", "dim_11"])
def test_embedding_matrix_is_the_row_major_scatter_transposed(n, dim):
    # every shape but (2, 4) leaves padding bits in the mask's last byte
    rng = np.random.default_rng(n * 100 + dim)
    matrix = rng.normal(size=(n, dim))
    matrix[rng.random((n, dim)) < 0.4] = 0.0
    matrix.flat[0] = -0.0  # nonzero bits, so the mask marks it
    payload = encode_payload(matrix)
    got = _embedding_matrix(dim, payload, n)
    expected = _row_major_scatter(dim, payload, n)
    assert got.shape == (n, dim) and got.T.flags.c_contiguous
    assert got.T.tobytes() == expected.tobytes()
    assert expected.T.tobytes() == matrix.tobytes()


def test_golden_index_file_loads_and_decodes_by_hand():
    index = load_tree(GOLDEN)
    data = GOLDEN.read_bytes()
    head, payload = data[:data.index(b"\n")], data[data.index(b"\n") + 1:]
    header = json.loads(head.decode("utf-8"))
    assert header["version"] == INDEX_FORMAT_VERSION == 4
    assert head == json.dumps(header, ensure_ascii=False, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    columns = header["nodes"]
    assert sorted(columns) == ["artifact_id", "children", "id", "kind", "level", "name",
                               "summary"]
    # the layout, decoded without semtree: the mask's first bit is its
    # first byte's most significant one, values are little-endian float64
    # in dim-major order (dim by dim, node by node within a dim), and
    # node i of the columns is row i of the index
    n, dim = len(columns["id"]), header["embeddings"]["dim"]
    assert all(len(column) == n for column in columns.values())
    mask, values = payload[:-(-n * dim // 8)], payload[-(-n * dim // 8):]
    bits = [(mask[j // 8] >> (7 - j % 8)) & 1 for j in range(n * dim)]
    assert len(values) == 8 * sum(bits)
    values = iter(struct.unpack(f"<{len(values) // 8}d", values))
    by_dim = [[next(values) if bits[j * n + i] else 0.0 for i in range(n)] for j in range(dim)]
    assert next(values, None) is None
    for i in range(n):
        row = [by_dim[j][i] for j in range(dim)]
        assert index.embeddings[i].tobytes() == np.array(row).tobytes()
    assert index.ids == tuple(columns["id"])
    assert index.ids == tuple(f"L{level}-{ordinal}" for level, size in enumerate(
        np.bincount(columns["level"]).tolist()) for ordinal in range(size))
    assert [a is None for a in columns["artifact_id"]] == [k == "internal"
                                                           for k in columns["kind"]]


def _golden_edited(tmp_path, edit):
    """A copy of the golden file with ``edit`` applied to its header,
    written with ``json.dumps``' ASCII escapes."""
    header, payload = read_index(GOLDEN)
    edit(header)
    path = tmp_path / "index.json"
    write_index(path, header, payload)
    return path


@pytest.mark.parametrize("edit", [
    lambda header: header.update(config=[]),
    lambda header: header.update(provenance=5),
    lambda header: header["config"].update(embedder=[1]),
    lambda header: header["config"].update(embedder={"dim": [3]}),
    lambda header: header["config"].update(embedding_dim=[3]),  # read when no embedder is stored
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
    path = _golden_edited(tmp_path, lambda header: header.update({key: value}))
    with pytest.raises(TreeError, match="JSON objects"):
        load_tree(path)
    assert main(["stats", "--index", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_load_rejects_a_lone_surrogate(tmp_path, capsys):
    path = _golden_edited(tmp_path, lambda header: _set_field(header, "L0-0", "summary",
                                                              "a\ud800b"))
    assert b"\\ud800" in path.read_bytes()
    with pytest.raises(TreeError, match="surrogates not allowed"):
        load_tree(path)
    assert main(["search", "--index", str(path), "--intent", "parse json"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_load_keeps_an_escaped_surrogate_pair(tmp_path):
    path = _golden_edited(tmp_path, lambda header: _set_field(header, "L0-0", "summary",
                                                              "a\U0001F600b"))
    assert b"\\ud83d\\ude00" in path.read_bytes()
    loaded = load_tree(path)
    assert loaded.nodes["L0-0"].summary == "a\U0001F600b"
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_tree(loaded, p1)
    save_tree(load_tree(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert "a\U0001F600b".encode("utf-8") in p1.read_bytes()


@pytest.mark.parametrize("level", [1.9, "1", True], ids=["float", "string", "bool"])
def test_load_rejects_a_level_that_is_not_an_integer(tmp_path, capsys, level):
    path = _golden_edited(tmp_path, lambda header: _set_field(header, "L1-0", "level", level))
    with pytest.raises(TreeError, match="level .* is not an integer"):
        load_tree(path)
    assert main(["search", "--index", str(path), "--intent", "parse json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_a_save_that_cannot_encode_leaves_the_file_as_it_was(tmp_path):
    index = TreeIndex(**columns([{"id": "a", "summary": "a\ud800b"}]), roots=("a",),
                      embeddings=np.ones((1, 2)))
    path = tmp_path / "index.json"
    path.write_bytes(b"an older index")
    with pytest.raises(UnicodeEncodeError):
        save_tree(index, path)
    assert path.read_bytes() == b"an older index"


def test_control_and_non_ascii_text_round_trips_in_one_header_line(tmp_path):
    text = "a\nb\rc\u2028d\u2029e\x00f\tg é 日本語 \U0001F600"
    nodes = [{"id": "a", "name": text, "summary": text[::-1]},
             {"id": "r", "level": 1, "name": text, "children": ("a",)}]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_tree(TreeIndex(**columns(nodes), roots=("r",), embeddings=np.eye(2)), p1)
    data = p1.read_bytes()
    head = data[:data.index(b"\n")]
    assert b"\r" not in head and b"\x00" not in head
    assert "é 日本語".encode("utf-8") in head  # written as UTF-8, not escaped
    loaded = load_tree(p1)
    assert loaded.names == (text, text) and loaded.summaries == (text[::-1], "r")
    save_tree(loaded, p2)
    assert p2.read_bytes() == data
