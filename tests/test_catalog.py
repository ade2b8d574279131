import json

import pytest

from semtree.catalog import (
    Artifact,
    ArtifactLibrary,
    CatalogError,
    library_stats,
    load_library,
    load_pairs,
    save_library,
)


def write_lines(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def test_load_library_preserves_order(tmp_path):
    path = tmp_path / "lib.jsonl"
    write_lines(path, [
        {"id": "a1", "name": "one", "description": "first thing", "ecosystem": "npm"},
        {"id": "a2", "name": "two", "description": "second thing", "ecosystem": "npm"},
        {"id": "a3", "name": "three", "description": "third thing", "ecosystem": "npm"},
    ])
    lib = load_library(path)
    assert lib.ids() == ["a1", "a2", "a3"]
    assert lib.artifacts[1].description == "second thing"


def test_duplicate_id_names_line(tmp_path):
    path = tmp_path / "lib.jsonl"
    write_lines(path, [
        {"id": "a1", "description": "x y"},
        {"id": "a1", "description": "z w"},
    ])
    with pytest.raises(CatalogError, match="line 2.*a1"):
        load_library(path)


@pytest.mark.parametrize("bad_id, message", [
    ([1], "line 1: artifact id \\[1\\] is not a string or number"),
    ({"a": 1}, "line 1: artifact id .* is not a string or number"),
], ids=["list", "object"])
def test_id_must_be_a_string_or_number(tmp_path, bad_id, message):
    path = tmp_path / "lib.jsonl"
    write_lines(path, [{"id": bad_id, "description": "x y"}])
    with pytest.raises(CatalogError, match=message):
        load_library(path)


def test_ids_compare_as_strings(tmp_path):
    path = tmp_path / "lib.jsonl"
    write_lines(path, [{"id": 1, "description": "x y"}, {"id": "1", "description": "z"}])
    with pytest.raises(CatalogError, match="line 2: duplicate artifact id '1'"):
        load_library(path)
    write_lines(path, [{"id": True, "description": "x y"}, {"id": 1, "description": "z"}])
    assert load_library(path).ids() == ["True", "1"]


def test_text_that_is_not_utf8_raises(tmp_path):
    path = tmp_path / "lib.jsonl"
    path.write_bytes(b'{"id": "a", "description": "caf\xe9"}\n')
    with pytest.raises(CatalogError, match="not UTF-8"):
        load_library(path)


def test_parse_error_names_line(tmp_path):
    path = tmp_path / "lib.jsonl"
    path.write_text('{"id": "a1", "description": "ok"}\nnot json\n')
    with pytest.raises(CatalogError, match="line 2"):
        load_library(path)


def test_empty_description_rejected(tmp_path):
    path = tmp_path / "lib.jsonl"
    write_lines(path, [{"id": "a1", "description": "   "}])
    with pytest.raises(CatalogError, match="empty description"):
        load_library(path)


def test_extra_not_an_object_names_line(tmp_path):
    path = tmp_path / "lib.jsonl"
    write_lines(path, [
        {"id": "a1", "description": "x y", "extra": {"stars": 3}},
        {"id": "a2", "description": "z w", "extra": [1, 2]},
    ])
    with pytest.raises(CatalogError, match="line 2.*extra"):
        load_library(path)


def test_full_scale_count(tmp_path):
    path = tmp_path / "lib.jsonl"
    write_lines(path, [
        {"id": f"a{i}", "description": f"synthetic artifact number {i}"}
        for i in range(1416)
    ])
    assert len(load_library(path)) == 1416


def test_round_trip_identity(tmp_path):
    lib = ArtifactLibrary(ecosystem="npm", artifacts=(
        Artifact(id="a1", name="one", description="first thing", ecosystem="npm",
                 extra={"downloads": "120"}),
        Artifact(id="a2", name="two", description="second  thing", ecosystem="npm"),
    ))
    path = tmp_path / "out.jsonl"
    save_library(lib, path)
    loaded = load_library(path)
    assert loaded == lib
    # save -> load -> save is a byte fixpoint
    path2 = tmp_path / "out2.jsonl"
    save_library(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_pairs_resolves_targets(tmp_path):
    lib_path = tmp_path / "lib.jsonl"
    write_lines(lib_path, [{"id": "a1", "description": "first thing"}])
    lib = load_library(lib_path)
    pairs_path = tmp_path / "pairs.jsonl"
    write_lines(pairs_path, [{"intent": "do the first thing", "target_id": "a1"}])
    pairs = load_pairs(pairs_path, lib)
    assert pairs[0].target_id == "a1"

    write_lines(pairs_path, [{"intent": "impossible", "target_id": "zzz"}])
    with pytest.raises(CatalogError, match="zzz"):
        load_pairs(pairs_path, lib)


def test_load_pairs_empty_file_warns(tmp_path, caplog):
    lib_path = tmp_path / "lib.jsonl"
    write_lines(lib_path, [{"id": "a1", "description": "first thing"}])
    lib = load_library(lib_path)
    pairs_path = tmp_path / "pairs.jsonl"
    pairs_path.write_text("")
    with caplog.at_level("WARNING"):
        assert load_pairs(pairs_path, lib) == []
    assert any("no samples" in r.message for r in caplog.records)


def test_library_stats_arithmetic():
    lib = ArtifactLibrary(ecosystem="", artifacts=(
        Artifact(id="a", name="", description="one two"),
        Artifact(id="b", name="", description="one two three four"),
        Artifact(id="c", name="", description="one two three four five six"),
    ))
    stats = library_stats(lib)
    assert stats == {"count": 3, "mean_words": 4.0, "max_words": 6, "min_words": 2}


def test_library_stats_single():
    lib = ArtifactLibrary(ecosystem="", artifacts=(
        Artifact(id="a", name="", description="one two three four five"),
    ))
    stats = library_stats(lib)
    assert stats["mean_words"] == stats["max_words"] == stats["min_words"] == 5


def test_library_stats_matches_recount(family_library):
    # independent recount: whitespace token counts done inline
    lengths = [len(a.description.split()) for a in family_library.artifacts]
    stats = library_stats(family_library)
    assert stats["count"] == len(lengths)
    assert stats["mean_words"] == pytest.approx(sum(lengths) / len(lengths))
    assert stats["min_words"] <= stats["mean_words"] <= stats["max_words"]
