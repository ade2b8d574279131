"""Bounded fuzzing of the two file readers.

A saved index or a catalog that is truncated, or has a few bytes or
characters replaced, inserted or deleted, must either load or raise the
documented error: ``TreeError`` for ``load_tree``, ``CatalogError`` for
``load_library``.  An index is also damaged in its payload alone, behind
an intact header, so the damage reaches the matrix decoder.  Examples
are derandomized and capped, so a run is deterministic and takes a
second or two.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from semtree.catalog import ArtifactLibrary, CatalogError, load_library
from semtree.tree import TreeError, TreeIndex, load_tree, save_tree
from conftest import read_index, write_index

FUZZ = settings(derandomize=True, max_examples=300, deadline=None)

GOLDEN = Path(__file__).parent / "data" / "index_v4.semtree"
INDEX = GOLDEN.read_bytes()
CATALOG = (
    '{"id": "json", "name": "fastjson", "description": "parse and dump json"}\n'
    '{"id": "yaml", "name": "tinyyaml", "description": "parse yaml files",'
    ' "ecosystem": "pypi", "extra": {"license": "MIT"}}\n'
    '\n'
    '{"id": 7, "name": "webget", "description": "send http requests"}\n'
).encode()

# Characters that change JSON structure, numbers or base64 text, and a
# non-ASCII one; ``st.binary`` adds raw bytes, which may not be UTF-8.
CHARACTERS = [c.encode() for c in '"{}[],:0129-.eE+/=Aa \\né'] + [b"null", b"true"]


@st.composite
def damaged(draw, data: bytes) -> bytes:
    if draw(st.booleans()):
        return data[: draw(st.integers(0, len(data) - 1))]
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(out) - 1))
        new = draw(st.sampled_from(CHARACTERS) | st.binary(min_size=1, max_size=1))
        kind = draw(st.sampled_from(["replace", "insert", "delete"]))
        if kind == "replace":
            out[at:at + 1] = new
        elif kind == "insert":
            out[at:at] = new
        else:
            del out[at]
    return bytes(out)


def _written(data: bytes, directory: str) -> str:
    path = Path(directory) / "input"
    path.write_bytes(data)
    return str(path)


@FUZZ
@given(damaged(INDEX))
def test_damaged_index_loads_or_raises_tree_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            index = load_tree(_written(data, tmp))
        except TreeError:
            return
        assert isinstance(index, TreeIndex)
        again = Path(tmp) / "again.json"
        save_tree(index, again)
        assert load_tree(again).embeddings.tobytes() == index.embeddings.tobytes()


HEADER, PAYLOAD = read_index(GOLDEN)


@FUZZ
@given(damaged(PAYLOAD))
def test_damaged_payload_loads_or_raises_tree_error(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        write_index(path, HEADER, payload)
        try:
            index = load_tree(path)
        except TreeError:
            return
        assert isinstance(index, TreeIndex)
        again = Path(tmp) / "again.json"
        save_tree(index, again)
        assert read_index(again)[1] == payload


@FUZZ
@given(damaged(CATALOG))
def test_damaged_catalog_loads_or_raises_catalog_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            lib = load_library(_written(data, tmp))
        except CatalogError:
            return
        assert isinstance(lib, ArtifactLibrary)
