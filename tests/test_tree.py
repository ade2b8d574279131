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
    unit_values,
    write_index,
)
from test_embed import features_of
from semtree import embed
from semtree.embed import EmbedderConfig, HashedEmbedder, tokenize
from semtree.llm import CallableClient, LlmError, prompt_hash
from semtree.search import SearchConfig, tree_search
from semtree.tree import (
    INDEX_FORMAT_VERSION,
    VALUE_TYPES,
    StoppingCriteria,
    TreeError,
    TreeIndex,
    _value_matrix,
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
    vectors = dict(zip(loaded.ids, loaded.unit_rows()))
    for nid, vec in zip(family_index.ids, family_index.unit_rows()):
        assert vectors[nid].tobytes() == vec.tobytes()
    assert loaded.config == family_index.config
    # the counts are held as float64 and stored as int8
    assert loaded.counts and family_index.counts
    assert loaded.values.dtype == family_index.values.dtype == np.float64
    assert read_index(path)[0]["embeddings"]["values"] == "int8"


def test_negative_zero_keeps_its_sign_bit(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_tree(TreeIndex(**columns([{"id": "a"}]), roots=("a",),
                        **unit_values([[-0.0, 0.0, 1.0]])), p1)
    loaded = load_tree(p1).unit_rows()[0]
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
        "embeddings": {"dim": 2, "values": "float64"},
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
    """Damage that applies ``edit`` to the payload's ``"norms"``,
    ``"mask"`` or ``"values"`` bytes: the norms are 8 bytes a node and the
    mask is ceil(n * dim / 8) bytes."""
    def edited(header, payload):
        n = len(header["nodes"]["id"])
        cuts = [0, 8 * n, 8 * n - (-n * header["embeddings"]["dim"] // 8), len(payload)]
        parts = [payload[a:b] for a, b in zip(cuts, cuts[1:])]
        at = ("norms", "mask", "values").index(part)
        parts[at] = edit(parts[at])
        return header, b"".join(parts)
    return _rewritten(edited)


def _set_norm(i, value):
    """Damage that writes ``value`` over the ``i``-th stored norm."""
    def edit(raw):
        norms = np.frombuffer(raw, dtype="<f8").copy()
        norms[i] = value
        return norms.tobytes()
    return _payload_edit("norms", edit)


def _set_value(i, value):
    """Damage that writes ``value`` over the ``i``-th stored (int8) value."""
    def edit(raw):
        return raw[:i] + np.int8(value).tobytes() + raw[i + 1:]
    return _payload_edit("values", edit)


# Damage to a saved multi-level index, each of which load_tree must reject.
# The ids of the base64 cases, from when the matrix was base64 text, now
# name the nearest damage to the raw payload, and those of the float
# cases, from when the values were float64, the nearest damage to the
# int8 values or the float64 norms.
MALFORMED_FILES = [
    _bytes_edit(lambda data: data[: len(data) // 2]),
    _rewritten(lambda header, payload: ([header], payload)),
    _edited("nodes"),
    _edited("nodes", "level"),
    _edited("nodes", "id"),
    _edited("embeddings"),  # no width for the matrix
    _edited("embeddings", value=5),  # a scalar where the block belongs
    # The matrix is not n x dim.  The mask read is then its own bytes and
    # the first int8 value's, and it can parse: the norms, which are not
    # those of the counts read, reject it.
    _payload_edit("mask", lambda raw: raw[:-1]),
    _set_norm(3, float("nan")),
    _set_norm(0, float("-inf")),
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
    _payload_edit("values", lambda raw: raw[:-1]),
    _payload_edit("values", lambda raw: raw + raw[:1]),
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
    _set_norm(2, -1.0),
    _set_value(5, 0),
    _edited("embeddings", "values"),
    _edited("embeddings", "values", value="float32"),
    _edited("embeddings", "values", value=["int8"]),
    _edited("embeddings", "values", value="int16"),  # 2 bytes an entry; the file has 1
    _payload_edit("norms", lambda raw: raw[:-8]),
    # the mask read is shorter and marks no more entries, yet the bytes left
    # for them are more
    _with_header(lambda header: header["embeddings"].update(dim=header["embeddings"]["dim"] - 1)),
    _set_value(5, 7),  # |7| is more than any count of the index
    _set_norm(1, 1.0),
    _set_norm(4, 0.0),
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
    "trailing_payload_byte", "header_not_utf8", "column_one_entry_short",
    "negative_norm", "marked_zero_value", "no_value_type", "unknown_value_type",
    "list_value_type", "wider_value_type", "one_norm_short", "dim_one_short",
    "changed_count", "wrong_norm", "zero_norm"]
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
        "embeddings": {"dim": 3, "values": "float64"},
    }
    path = tmp_path / "idx.json"
    write_index(path, header, encode_payload([[1.0, 0.0, 0.0]]))
    assert load_tree(path).unit_rows().tolist() == [[1.0, 0.0, 0.0]]
    write_index(path, header, np.ones(1).tobytes() + bytes([0b10000001]) + np.ones(2).tobytes())
    with pytest.raises(TreeError, match="past the last node"):
        load_tree(path)
    header["embeddings"]["values"] = "int8"
    write_index(path, header, np.ones(1).tobytes() + bytes([0b10000001, 1, 1]))
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
        TreeIndex(**columns(nodes), roots=roots, **unit_values(np.ones((len(nodes), 2))))


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
                  roots=t.roots, values=np.hstack([t.values, np.zeros((t.dim, 1))]),
                  norms=np.append(t.norms, 0.0))


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
    # the index holds values and norms, both read-only; unit_rows() makes
    # a new matrix from them on each call, so no write to one reaches the index
    for array in (family_index.values, family_index.norms):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    rows = family_index.unit_rows()
    rows[0, 0] = 7.0
    assert family_index.unit_rows()[0, 0] != 7.0


def test_index_keeps_the_float64_matrix_it_is_given(hashed_embedder):
    # the index holds its values dim-major: a C-contiguous (dim, n) float64
    # matrix and float64 norms are kept, not copied, and made read-only
    # once the index is checked, so no later write through the caller's
    # arrays can reach a search; a failed check leaves the caller's arrays
    # as they were, and any other matrix is converted once to float64; only
    # an integer one is taken as counts
    lib = make_family_library(n_families=3, per_family=4)
    nodes = [{"id": aid} for aid in lib.artifact_ids]
    nodes.append({"id": "root", "level": 1, "children": list(lib.artifact_ids)})
    counts, norms = hashed_embedder.embed([*lib.descriptions, " ".join(lib.descriptions)])
    given, given_norms = np.ascontiguousarray(counts.T, dtype=np.float64), norms.copy()
    copied = TreeIndex(**columns(nodes), roots=("root",), values=given.copy(),
                       norms=norms.copy())
    with pytest.raises(TreeError, match="missing root"):
        TreeIndex(**columns(nodes), roots=("nowhere",), values=given, norms=given_norms)
    assert given.flags.writeable and given_norms.flags.writeable
    kept = TreeIndex(**columns(nodes), roots=("root",), values=given, norms=given_norms)
    assert kept.values is given and kept.norms is given_norms
    assert not given.flags.writeable and not given_norms.flags.writeable
    intent = lib.descriptions[5]
    cfg = SearchConfig(beam_width=3, final_k=3)
    before = tree_search(kept, intent, cfg, hashed_embedder).entries
    assert before == tree_search(copied, intent, cfg, hashed_embedder).entries
    with pytest.raises(ValueError, match="read-only"):
        given[:] = given[::-1]
    assert tree_search(kept, intent, cfg, hashed_embedder).entries == before
    assert not kept.counts
    for other, counted in ((counts.T, True), (np.asfortranarray(given), False),
                           (given.astype(np.float32), False)):
        converted = TreeIndex(**columns(nodes), roots=("root",), values=other, norms=norms)
        assert not np.shares_memory(converted.values, other)
        assert converted.counts is counted
        assert converted.values.dtype == np.float64 and converted.values.flags.c_contiguous
        assert converted.values.flags.owndata and not converted.values.flags.writeable
        assert np.array_equal(converted.values, other)
        assert tree_search(converted, intent, cfg, hashed_embedder).entries == before


def test_children_that_are_not_a_list_of_ids_are_rejected():
    # a string would make the node the parent of each of its letters
    cols = columns([{"id": "r", "level": 1, "children": "ab"}, {"id": "a"}, {"id": "b"}])
    with pytest.raises(TreeError, match="^node r: children 'ab' are not a list of ids$"):
        TreeIndex(**cols, roots=("r",), **unit_values(np.ones((3, 2))))


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
        TreeIndex(**cols, roots=("r",), **unit_values(np.ones((3, 2))))


@pytest.mark.parametrize("roots", ["r", {"r": 0}], ids=["string", "dict"])
def test_roots_that_are_not_a_list_are_rejected(roots):
    # "r" would pass as its letters and {"r": 0} as its keys: both give ("r",)
    cols = columns([{"id": "a"}, {"id": "r", "level": 1, "children": ("a",)}])
    with pytest.raises(TreeError, match="^roots is not a list or tuple$"):
        TreeIndex(**cols, roots=roots, **unit_values(np.ones((2, 2))))


def test_leaves_sharing_an_artifact_id_are_both_named():
    cols = columns([{"id": "a"}, {"id": "b", "artifact_id": "x"}, {"id": "c", "artifact_id": "x"},
                    {"id": "r", "level": 1, "children": ("a", "b", "c")}])
    with pytest.raises(TreeError, match="^leaves b and c share artifact_id x$"):
        TreeIndex(**cols, roots=("r",), **unit_values(np.ones((4, 2))))


@pytest.mark.parametrize("change", ["short", "long"])
@pytest.mark.parametrize("column", ["levels", "kinds", "names", "summaries", "artifact_ids",
                                    "children"])
def test_a_column_without_one_entry_per_id_is_rejected(column, change):
    cols = columns([{"id": "a"}, {"id": "b"}, {"id": "r", "level": 1, "children": ("a", "b")}])
    cols[column] = cols[column][:-1] if change == "short" else [*cols[column], cols[column][0]]
    count = 2 if change == "short" else 4
    with pytest.raises(TreeError, match=f"^the {column} column has {count} entries, not one "
                                        f"for each of the 3 node ids$"):
        TreeIndex(**cols, roots=("r",), **unit_values(np.ones((3, 2))))


# (values, norms) for the nodes a, b and r, with the message that rejects them
MATRIX_CASES = [
    (np.ones((4, 2)), np.ones(3), r"shape \(4, 2\) is not \(dim, 3\)"),
    (np.ones((4, 4)), np.ones(3), r"shape \(4, 4\) is not \(dim, 3\)"),
    (np.ones(4), np.ones(3), "is not \\(dim, 3\\)"),
    (np.ones(3), np.ones(3), "is not \\(dim, 3\\)"),
    (np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 1.0]]), np.ones(3), "node b: .*non-finite"),
    ([[1.0], [1.0, 2.0]], np.ones(3), "not numeric"),
    ([["x"]], np.ones(3), "not numeric"),
    (np.ones((0, 3)), np.ones(3), r"shape \(0, 3\) is not \(dim, 3\): dim >= 1"),
    (np.ones((2, 3)), np.ones(2), "norms of shape \\(2,\\) do not hold one norm for each"),
    (np.ones((2, 3)), np.ones((3, 1)), "norms of shape \\(3, 1\\)"),
    (np.ones((2, 3)), [1.0, -1.0, 1.0], "node b: norm -1.0 is not a finite number >= 0"),
    (np.ones((2, 3)), [1.0, 1.0, np.nan], "node r: norm nan is not a finite"),
    (np.ones((2, 3)), [1.0, 1.0, np.inf], "node r: norm inf is not a finite"),
    (np.ones((2, 3)), ["x", "y", "z"], "not numeric"),
    # counts, whose norms must be those of the counts, bit for bit
    (np.array([[1, 0, 2], [1, 3, 0]]), [2**0.5, 3.0, 2.5],
     "^node r: norm 2.5 is not 2.0, the L2 norm of its counts$"),
    (np.array([[1, 0, 2], [1, 3, 0]]), [2**0.5, 3.0, np.nextafter(2.0, 3.0)],
     "node r: norm 2.0000000000000004 is not 2.0"),
    (np.array([[2**27, 0, 1], [0, 1, 0]]), [2.0**27, 1.0, 1.0],
     r"^node a: the sum of squares of its counts reaches 2\^53$"),
    (np.array([[0.6, 0.0, 0.0], [0.8, 1.0, 0.5]]), [1.0, 1.0, 0.0],
     "^node r: norm 0 for a nonzero row$"),
]
MATRIX_IDS = ["too_few_rows", "too_many_rows", "one_dimensional", "one_dimensional_per_node",
              "nan", "ragged", "non_numeric", "no_dims", "short_norms", "two_dimensional_norms",
              "negative_norm", "nan_norm", "infinite_norm", "non_numeric_norms",
              "count_norm_mismatch", "count_norm_one_ulp_off", "counts_too_large",
              "zero_norm_for_a_nonzero_row"]


def _two_leaves():
    return columns([{"id": "a"}, {"id": "b"}, {"id": "r", "level": 1, "children": ("a", "b")}])


@pytest.mark.parametrize("values, norms, message", MATRIX_CASES, ids=MATRIX_IDS)
def test_construction_checks_the_embedding_matrix(values, norms, message):
    cols = _two_leaves()
    assert TreeIndex(**cols, roots=("r",), values=np.ones((2, 3)), norms=np.ones(3)).dim == 2
    with pytest.raises(TreeError, match=message):
        TreeIndex(**cols, roots=("r",), values=values, norms=norms)


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


GOLDEN = Path(__file__).parent / "data" / "index_v5.semtree"
# the golden file of format 4, which is no longer read
GOLDEN_V4 = Path(__file__).parent / "data" / "index_v4.semtree"


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
    matrix = np.ascontiguousarray(t.unit_rows()[rows], dtype="<f8")
    return hashlib.sha256(head + b"\n" + matrix.tobytes()).hexdigest()


# build_tree + save_tree of a seeded 300-artifact catalog, whose first level
# is a BIC sweep over k = 2..18 and picks 16 and whose second picks 4 of 2..4.
# A numeric change to EM, BIC or soft assignment that flips a chosen k or a
# membership changes these bytes.  The content digest does not depend on
# the file format, so a format change moves only the byte digest.
BUILD_GATE_SHA256 = "3b3ccb30192fb2c9de0cb2449bc99f087996365e43448a4e2736a5f3e3fbd905"
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
    # the file holds the columns, norms and values in the index's own order,
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
    for name in ("values", "norms"):
        got, want = getattr(loaded, name), getattr(built, name)
        assert got.shape == want.shape and got.dtype == want.dtype, name
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes(), name


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
MIXED_LLM_BUILD_SHA256 = "8390de86a3ba413c5957f29736cf03cfb812a6652b5a4c9120280b676b0c6744"
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
                "282f17cbcda52d61ba415e80917b93dc3499d705e1fbb5075799a0af280e36ad"),
    "200_same": ([(f"a{i}", "tool", "parse json files") for i in range(200)],
                 "cb737c6a7f45505471448d9f55a5cf06cf00454afa122c997e9dc519be087ece"),
    "40_names_same": ([(f"a{i}", f"tool{i}", "parse json files") for i in range(40)],
                      "2d4160a3c957ea69faadbd68c1a82381b90b4ffadb1e208fe5f594f1417a9b78"),
    "30_alternating": ([(f"a{i}", "tool", ("parse json files", "send http requests")[i % 2])
                        for i in range(30)],
                       "0ea2f42f96f7731115378ba07a25616f077d84ed98a43b5154ca9d2bf50dc8bb"),
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


def _row_major_scatter(dim, payload, n, value_type):
    """The ``(dim, n)`` matrix of a payload, scattered in row-major order
    through the mask that follows the ``n`` norms."""
    size = n * dim
    mask = -(-size // 8)
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8, count=mask,
                                       offset=8 * n))[:size]
    matrix = np.zeros(size, dtype=value_type)
    matrix[bits.astype(bool)] = np.frombuffer(payload, dtype=value_type, offset=8 * n + mask)
    return matrix.reshape(dim, n)


@pytest.mark.parametrize("n, dim", [(1, 5), (4, 1), (5, 3), (2, 4), (3, 11)],
                         ids=["n_1", "dim_1", "dim_3", "no_padding", "dim_11"])
def test_embedding_matrix_is_the_row_major_scatter_transposed(n, dim):
    # every shape but (2, 4) leaves padding bits in the mask's last byte
    rng = np.random.default_rng(n * 100 + dim)
    for value_type, stored in VALUE_TYPES.items():
        stored = np.dtype(stored)
        if value_type == "float64":
            matrix = rng.normal(size=(n, dim))
            matrix.flat[0] = -0.0  # nonzero bits, so the mask marks it
        else:
            matrix = rng.integers(np.iinfo(stored).min, np.iinfo(stored).max, size=(n, dim),
                                  endpoint=True)
        matrix[rng.random((n, dim)) < 0.4] = 0
        norms = rng.random(n)
        payload = encode_payload(matrix, norms, stored)
        values, got_norms = _value_matrix({"dim": dim, "values": value_type}, payload, n)
        expected = _row_major_scatter(dim, payload, n, stored)
        assert values.shape == (dim, n) and values.flags.c_contiguous
        assert values.dtype == stored, value_type
        assert values.tobytes() == expected.tobytes(), value_type
        assert expected.T.tobytes() == matrix.astype(stored).tobytes(), value_type
        assert got_norms.tobytes() == norms.tobytes(), value_type


def test_golden_index_file_loads_and_decodes_by_hand():
    index = load_tree(GOLDEN)
    data = GOLDEN.read_bytes()
    head, payload = data[:data.index(b"\n")], data[data.index(b"\n") + 1:]
    header = json.loads(head.decode("utf-8"))
    assert header["version"] == INDEX_FORMAT_VERSION == 5
    assert head == json.dumps(header, ensure_ascii=False, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    columns = header["nodes"]
    assert sorted(columns) == ["artifact_id", "children", "id", "kind", "level", "name",
                               "summary"]
    # the layout, decoded without semtree: n little-endian float64 norms,
    # then the mask, whose first bit is its first byte's most significant
    # one, then the values as int8 (the counts' type) in dim-major order
    # (dim by dim, node by node within a dim); node i of the columns is
    # column i of the values
    n, dim = len(columns["id"]), header["embeddings"]["dim"]
    assert header["embeddings"]["values"] == "int8"
    assert all(len(column) == n for column in columns.values())
    norms = struct.unpack(f"<{n}d", payload[:8 * n])
    cut = 8 * n - (-n * dim // 8)
    mask, values = payload[8 * n:cut], payload[cut:]
    bits = [(mask[j // 8] >> (7 - j % 8)) & 1 for j in range(n * dim)]
    assert len(values) == sum(bits)
    values = iter(struct.unpack(f"<{len(values)}b", values))
    by_dim = [[next(values) if bits[j * n + i] else 0 for i in range(n)] for j in range(dim)]
    assert next(values, None) is None
    rows = index.unit_rows()
    for i in range(n):
        counts = [by_dim[j][i] for j in range(dim)]
        # a hashed row's norm is the square root of its counts' squares
        assert norms[i] == math.sqrt(sum(c * c for c in counts))
        assert index.values[:, i].tolist() == counts
        assert rows[i].tobytes() == embed.l2_normalize(counts).tobytes()
    assert index.norms.tolist() == list(norms)
    assert index.ids == tuple(columns["id"])
    assert index.ids == tuple(f"L{level}-{ordinal}" for level, size in enumerate(
        np.bincount(columns["level"]).tolist()) for ordinal in range(size))
    assert [a is None for a in columns["artifact_id"]] == [k == "internal"
                                                           for k in columns["kind"]]


def test_a_format_4_file_asks_to_be_rebuilt(tmp_path, capsys):
    # the golden file as format 4 wrote it: a header and the values as
    # float64 behind their mask, with no norms
    header, _ = read_index(GOLDEN_V4)
    assert header["version"] == 4 and header["embeddings"] == {"dim": 16}
    with pytest.raises(TreeError, match="^unsupported index version 4 .*rebuild the index"):
        load_tree(GOLDEN_V4)
    for command in (["search", "--index", str(GOLDEN_V4), "--intent", "parse json"],
                    ["stats", "--index", str(GOLDEN_V4)]):
        assert main(command) == 1
        err = capsys.readouterr().err
        assert "rebuild the index with `semtree build`" in err and "Traceback" not in err


def _golden_payload_edited(tmp_path, edit):
    """A copy of the golden file whose ``(header, payload)`` ``edit`` returns."""
    path = tmp_path / "index.semtree"
    write_index(path, *edit(*read_index(GOLDEN)))
    return path


def _golden_value_type(value_type):
    def edit(header, payload):
        header["embeddings"]["values"] = value_type
        return header, payload
    return edit


@pytest.mark.parametrize("edit, message", [
    (_golden_value_type("uint8"),
     "^embedding value type 'uint8' is not one of int8, int16, int32, float64$"),
    (_golden_value_type(8), "^embedding value type 8 is not one of"),
    (_golden_value_type("int32"),
     "not the 60 of the norms and mask and 4 for each of the 74 entries"),
    (lambda header, payload: (header, payload[:-1]),
     "^embedding payload has 13[35] bytes, not the 60 of the norms and mask and 1 for each "
     "of the 74 entries it marks$"),
    (lambda header, payload: (header, payload + b"\x01"),
     "^embedding payload has 13[35] bytes, not the 60 of the norms and mask and 1 for each "
     "of the 74 entries it marks$"),
    (lambda header, payload: (header, payload[:59]), "^embedding payload has 59 bytes, fewer "
                                                     "than the 60 of the norms and mask of 6 "
                                                     "nodes of dim 16$"),
    (lambda header, payload: (header, payload[:-1] + b"\x00"),
     "^embedding mask marks an entry whose bits are zero$"),
    (lambda header, payload: (header, payload[:8] + struct.pack("<d", -2.0) + payload[16:]),
     "^node L0-1: norm -2.0 is not a finite number >= 0$"),
], ids=["unknown_value_type", "integer_value_type", "int32_value_type", "one_value_short",
        "trailing_byte", "no_room_for_the_mask", "marked_zero", "negative_norm"])
def test_load_names_the_fault_of_a_damaged_payload(tmp_path, capsys, edit, message):
    # the golden file has 6 nodes of dim 16: 48 bytes of norms, 12 of mask
    # and 74 int8 values
    path = _golden_payload_edited(tmp_path, edit)
    with pytest.raises(TreeError, match=message):
        load_tree(path)
    assert main(["stats", "--index", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


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
                      **unit_values(np.ones((1, 2))))
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
    save_tree(TreeIndex(**columns(nodes), roots=("r",), **unit_values(np.eye(2))), p1)
    data = p1.read_bytes()
    head = data[:data.index(b"\n")]
    assert b"\r" not in head and b"\x00" not in head
    assert "é 日本語".encode("utf-8") in head  # written as UTF-8, not escaped
    loaded = load_tree(p1)
    assert loaded.names == (text, text) and loaded.summaries == (text[::-1], "r")
    save_tree(loaded, p2)
    assert p2.read_bytes() == data
