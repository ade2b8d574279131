"""Artifact library and intent-pair catalog: load and validate.

Canonical on-disk format is UTF-8 JSON-lines, one object per line:

    {"id": "...", "name": "...", "description": "...", "ecosystem": "...", "extra": {...}?}

for libraries, and ``{"intent": "...", "target_id": "..."}`` for
intent-artifact pairs.  Descriptions are trimmed but otherwise kept
byte-for-byte; tokenization is each retriever's own business.  A line's
``extra`` and ``ecosystem`` are checked but not kept: the library keeps
one ecosystem, the first non-empty one given.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

logger = logging.getLogger(__name__)


class CatalogError(ValueError):
    """Malformed or inconsistent catalog input."""


@dataclass(frozen=True)
class ArtifactLibrary:
    """Ordered candidate pool of artifacts, as columns: row ``i`` of
    ``artifact_ids``, ``names`` and ``descriptions`` is one artifact.  Ids
    are unique and descriptions trimmed and non-empty; ``load_library``
    checks both."""

    ecosystem: str
    artifact_ids: tuple[str, ...]
    names: tuple[str, ...]
    descriptions: tuple[str, ...]

    def __post_init__(self):
        if not self.artifact_ids:
            raise CatalogError("library is empty")

    def __len__(self) -> int:
        return len(self.artifact_ids)

    def ids(self) -> list[str]:
        return list(self.artifact_ids)


@dataclass(frozen=True)
class IntentSample:
    """A development intent paired with its ground-truth artifact id."""

    intent: str
    target_id: str


_raw_decode = json.JSONDecoder().raw_decode


def _parse_line(line: str, lineno: int) -> dict:
    obj = None
    if line[:1] == "{":  # the common line: one object, then at most a line ending
        try:
            obj, end = _raw_decode(line)
            if line[end:].strip(" \t\n\r"):  # json.loads allows only this after it
                obj = None
        except json.JSONDecodeError:
            pass
    if obj is None:  # any other line, and every failure, reports as json.loads does
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CatalogError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise CatalogError(f"line {lineno}: expected a JSON object")
    if "\\u" in line:  # only a \u escape can make a lone surrogate
        try:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise CatalogError(f"line {lineno}: a lone surrogate, which UTF-8 cannot "
                               f"hold ({exc.reason})") from exc
    return obj


def _text(value, key: str, lineno: int) -> str:
    """A field's ``value`` as text: a string as it is and a number by
    ``str()``.  ``load_library`` tests for a string itself, the common
    case, and calls this only for any other value."""
    if type(value) is str:
        return value
    if type(value) in (int, float):
        return str(value)
    # JSON null, a boolean, a list or an object
    label = "artifact id" if key == "id" else key
    raise CatalogError(f"line {lineno}: {label} {json.dumps(value)} is not a string or number")


def _lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        try:
            return list(fh)
        except UnicodeDecodeError as exc:
            raise CatalogError(f"{path} is not UTF-8 text: {exc}") from exc


def _objects(path: str):
    """Each non-blank line's number and JSON object, in file order."""
    for lineno, line in enumerate(_lines(path), start=1):
        if line[:1] == "{" or line.strip():
            yield lineno, _parse_line(line, lineno)


def load_library(path: str) -> ArtifactLibrary:
    """Load a JSON-lines artifact library, preserving input order.

    Raises:
        CatalogError: on text that is not UTF-8, malformed JSON or a lone
            surrogate (with line number), a missing id, an id, name,
            description or ecosystem that is not a string or number (JSON
            null, a boolean, a list or an object), a duplicate id (naming
            the id and line; ids compare as strings), an empty description,
            or an ``extra`` that is not a JSON object.
    """
    seen: dict[str, int] = {}  # id -> line, in file order: the id column
    names: list[str] = []
    descriptions: list[str] = []
    eco = ""
    for lineno, obj in _objects(path):
        aid = obj.get("id", "")
        if type(aid) is not str:
            aid = _text(aid, "id", lineno)
        if not aid:
            raise CatalogError(f"line {lineno}: missing artifact id")
        if aid in seen:
            raise CatalogError(
                f"line {lineno}: duplicate artifact id {aid!r} "
                f"(first seen on line {seen[aid]})"
            )
        seen[aid] = lineno
        desc = obj.get("description", "")
        if type(desc) is not str:
            desc = _text(desc, "description", lineno)
        desc = desc.strip()
        if not desc:
            raise CatalogError(f"line {lineno}: artifact {aid!r} has an empty description")
        extra = obj.get("extra")
        if not isinstance(extra, (dict, type(None))):
            raise CatalogError(f"line {lineno}: artifact {aid!r}: extra is not a JSON object")
        name = obj.get("name", "")
        if type(name) is not str:
            name = _text(name, "name", lineno)
        ecosystem = obj.get("ecosystem", "")
        if type(ecosystem) is not str:
            ecosystem = _text(ecosystem, "ecosystem", lineno)
        if not eco:
            eco = ecosystem
        names.append(name)
        descriptions.append(desc)
    return ArtifactLibrary(ecosystem=eco, artifact_ids=tuple(seen), names=tuple(names),
                           descriptions=tuple(descriptions))


def load_pairs(path: str, lib: ArtifactLibrary) -> list[IntentSample]:
    """Load intent-artifact pairs, resolving every target against ``lib``.

    An ``intent`` or ``target_id`` must be a string or number, as the
    library's fields must.
    """
    known = set(lib.artifact_ids)
    pairs: list[IntentSample] = []
    for lineno, obj in _objects(path):
        intent = _text(obj.get("intent", ""), "intent", lineno).strip()
        target = _text(obj.get("target_id", ""), "target_id", lineno)
        if not intent:
            raise CatalogError(f"line {lineno}: missing intent text")
        if target not in known:
            raise CatalogError(f"line {lineno}: unresolved target_id {target!r}")
        pairs.append(IntentSample(intent=intent, target_id=target))
    if not pairs:
        logger.warning("pairs file %s contained no samples", path)
    return pairs


def library_stats(lib: ArtifactLibrary) -> dict:
    """Count plus mean/max/min description length in whitespace tokens."""
    lengths = [len(d.split()) for d in lib.descriptions]
    return {
        "count": len(lengths),
        "mean_words": sum(lengths) / len(lengths),
        "max_words": max(lengths),
        "min_words": min(lengths),
    }
