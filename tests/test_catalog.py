import json

import pytest

from conftest import library
from semtree.catalog import CatalogError, library_stats, load_library, load_pairs


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
    assert lib.descriptions[1] == "second thing"


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
    write_lines(path, [{"id": 1.5, "description": "x y"}, {"id": 1, "description": "z"}])
    assert load_library(path).ids() == ["1.5", "1"]


NOT_TEXT = [None, True, False, ["x"], {"x": 1}]
NOT_TEXT_IDS = ["null", "true", "false", "list", "object"]


@pytest.mark.parametrize("value", NOT_TEXT, ids=NOT_TEXT_IDS)
@pytest.mark.parametrize("field", ["id", "name", "description", "ecosystem"])
def test_library_field_that_is_not_text_names_line_and_field(tmp_path, field, value):
    # JSON null and booleans are not made into the text "None", "True", "False"
    path = tmp_path / "lib.jsonl"
    row = {"id": "a2", "name": "b", "description": "x y", "ecosystem": "pypi", field: value}
    write_lines(path, [{"id": "a1", "description": "z"}, row])
    label = "artifact id" if field == "id" else field
    with pytest.raises(CatalogError, match=f"^line 2: {label} .* is not a string or number$"):
        load_library(path)


@pytest.mark.parametrize("value", NOT_TEXT, ids=NOT_TEXT_IDS)
@pytest.mark.parametrize("field", ["intent", "target_id"])
def test_pair_field_that_is_not_text_names_line_and_field(tmp_path, field, value):
    lib_path = tmp_path / "lib.jsonl"
    write_lines(lib_path, [{"id": "1", "description": "first thing"}])
    lib = load_library(lib_path)
    pairs_path = tmp_path / "pairs.jsonl"
    write_lines(pairs_path, [{"intent": "first", "target_id": 1},
                             {"intent": "first", "target_id": "1", field: value}])
    with pytest.raises(CatalogError, match=f"^line 2: {field} .* is not a string or number$"):
        load_pairs(pairs_path, lib)


def test_number_fields_keep_their_text(tmp_path):
    path = tmp_path / "lib.jsonl"
    write_lines(path, [{"id": 7, "name": 2.5, "description": 10, "ecosystem": 3}])
    lib = load_library(path)
    assert (lib.artifact_ids, lib.names, lib.descriptions, lib.ecosystem) == \
        (("7",), ("2.5",), ("10",), "3")


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


def test_description_loads_trimmed_and_builds_as_its_trimmed_twin(tmp_path, hashed_embedder):
    from semtree.tree import StoppingCriteria, build_tree, save_tree

    written = []
    for twin, padded in (("trimmed", "json parser"), ("padded", "  json parser \n\t")):
        path = tmp_path / f"{twin}.jsonl"
        write_lines(path, [{"id": "a1", "name": "j", "description": padded},
                           {"id": "a2", "name": "y", "description": "yaml loader"}])
        lib = load_library(path)
        assert lib.descriptions == ("json parser", "yaml loader")
        index = build_tree(lib, hashed_embedder, stop=StoppingCriteria(max_top_level_nodes=1),
                           seed=0)
        save_tree(index, tmp_path / f"{twin}.semtree")
        written.append((tmp_path / f"{twin}.semtree").read_bytes())
    assert written[0] == written[1]


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


def test_load_rejects_a_lone_surrogate_with_its_line(tmp_path):
    # json.loads accepts a "\ud800" escape, but no UTF-8 file can hold it
    path = tmp_path / "lib.jsonl"
    write_lines(path, [{"id": "a1", "description": "first thing"},
                       {"id": "a2", "description": "second \ud800 thing"}])
    assert b"\\ud800" in path.read_bytes()
    with pytest.raises(CatalogError, match="line 2: a lone surrogate"):
        load_library(path)
    write_lines(path, [{"id": "a1", "description": "first thing"}])
    lib = load_library(path)
    pairs_path = tmp_path / "pairs.jsonl"
    write_lines(pairs_path, [{"intent": "do \udfff", "target_id": "a1"}])
    with pytest.raises(CatalogError, match="line 1: a lone surrogate"):
        load_pairs(pairs_path, lib)


def test_load_keeps_an_escaped_surrogate_pair(tmp_path):
    path = tmp_path / "lib.jsonl"
    write_lines(path, [{"id": "a1", "description": "smile \U0001F600"}])
    assert b"\\ud83d\\ude00" in path.read_bytes()
    assert load_library(path).descriptions == ("smile \U0001F600",)


# Each case is the text after a good first line; FIELDS stands for the
# fields of a good second object.  The messages are json.loads' own, and a
# line that starts with "{" must get them as any other line does.
LINE_CASES = {
    "leading-whitespace": (" \t{FIELDS}\n", None),
    "utf8-bom": ("\ufeff{FIELDS}\n",
                 "line 2: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
    "two-objects": ("{FIELDS} {}\n", "line 2: invalid JSON (Extra data)"),
    "two-numbers": ("1, 2\n", "line 2: invalid JSON (Extra data)"),
    "list": ("[]\n", "line 2: expected a JSON object"),
    "null": ("null\n", "line 2: expected a JSON object"),
    "truncated": ("{FIELDS\n", "line 2: invalid JSON (Expecting ',' delimiter)"),
    "truncated-string": ('{"k": "x\n', "line 2: invalid JSON (Invalid control character at)"),
    "lone-surrogate": ('{"k": "\\ud800", FIELDS}\n',
                       "line 2: a lone surrogate, which UTF-8 cannot hold "
                       "(surrogates not allowed)"),
    "crlf": ("{FIELDS}\r\n", None),
    "blank-lines": ("\n  \n\t\r\n{FIELDS}\n\n", None),
    "blank-lines-then-list": ("\n  \n\t\r\n[]\n", "line 5: expected a JSON object"),
    "form-feed-after": ("{FIELDS}\f\n", "line 2: invalid JSON (Extra data)"),
    "tab-after": ("{FIELDS}\t \n", None),
}


@pytest.mark.parametrize("loader", ["library", "pairs"])
@pytest.mark.parametrize("case", list(LINE_CASES))
def test_line_shapes_load_or_raise_as_json_loads_does(tmp_path, loader, case):
    text, message = LINE_CASES[case]
    lib = library(("a1", "", "x"))
    first, fields = {
        "library": ('{"id": "a1", "description": "x"}', '"id": "a2", "description": "y z"'),
        "pairs": ('{"intent": "x", "target_id": "a1"}', '"intent": "y z", "target_id": "a1"'),
    }[loader]
    path = tmp_path / "rows.jsonl"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(first + "\n" + text.replace("FIELDS", fields))

    def load():
        return load_library(path) if loader == "library" else load_pairs(path, lib)

    if message is None:
        loaded = load()
        assert (loaded.ids() if loader == "library" else
                [(p.intent, p.target_id) for p in loaded]) == {
            "library": ["a1", "a2"], "pairs": [("x", "a1"), ("y z", "a1")]}[loader]
    else:
        with pytest.raises(CatalogError) as info:
            load()
        assert str(info.value) == message


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
    lib = library(
        ("a", "", "one two"),
        ("b", "", "one two three four"),
        ("c", "", "one two three four five six"),
    )
    stats = library_stats(lib)
    assert stats == {"count": 3, "mean_words": 4.0, "max_words": 6, "min_words": 2}


def test_library_stats_single():
    lib = library(("a", "", "one two three four five"))
    stats = library_stats(lib)
    assert stats["mean_words"] == stats["max_words"] == stats["min_words"] == 5


def test_library_stats_matches_recount(family_library):
    # independent recount: whitespace token counts done inline
    lengths = [len(d.split()) for d in family_library.descriptions]
    stats = library_stats(family_library)
    assert stats["count"] == len(lengths)
    assert stats["mean_words"] == pytest.approx(sum(lengths) / len(lengths))
    assert stats["min_words"] <= stats["mean_words"] <= stats["max_words"]
