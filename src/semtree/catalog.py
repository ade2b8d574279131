"""Artifact library and intent-pair catalog: load and validate.

Canonical on-disk format is UTF-8 JSON-lines, one object per line:

    {"id": "...", "name": "...", "description": "...", "ecosystem": "...", "extra": {...}?}

for libraries, and ``{"intent": "...", "target_id": "..."}`` for
intent-artifact pairs.  Descriptions are trimmed but otherwise kept
byte-for-byte; tokenization is each retriever's own business.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

logger = logging.getLogger(__name__)


class CatalogError(ValueError):
    """Malformed or inconsistent catalog input."""


@dataclass(frozen=True)
class Artifact:
    """One reusable unit: a package, pretrained model, or package group."""

    id: str
    name: str
    description: str
    ecosystem: str = ""
    extra: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.description.strip():
            raise CatalogError(f"artifact {self.id!r}: description is empty")
        object.__setattr__(self, "description", self.description.strip())


@dataclass(frozen=True)
class ArtifactLibrary:
    """Ordered candidate pool of artifacts with unique ids."""

    ecosystem: str
    artifacts: tuple[Artifact, ...]

    def __post_init__(self):
        if not self.artifacts:
            raise CatalogError("library is empty")
        seen = set()
        for a in self.artifacts:
            if a.id in seen:
                raise CatalogError(f"duplicate artifact id {a.id!r}")
            seen.add(a.id)

    def __len__(self) -> int:
        return len(self.artifacts)

    def ids(self) -> list[str]:
        return [a.id for a in self.artifacts]


@dataclass(frozen=True)
class IntentSample:
    """A development intent paired with its ground-truth artifact id."""

    intent: str
    target_id: str


def _parse_line(line: str, lineno: int) -> dict:
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


def _lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        try:
            return list(fh)
        except UnicodeDecodeError as exc:
            raise CatalogError(f"{path} is not UTF-8 text: {exc}") from exc


def load_library(path: str) -> ArtifactLibrary:
    """Load a JSON-lines artifact library, preserving input order.

    Raises:
        CatalogError: on text that is not UTF-8, malformed JSON or a lone
            surrogate (with line number), an id that is missing or not a
            string or number, a duplicate id (naming the id and line; ids
            compare as strings), an empty description, or an ``extra``
            that is not a JSON object.
    """
    artifacts: list[Artifact] = []
    seen: dict[str, int] = {}
    eco = ""
    for lineno, line in enumerate(_lines(path), start=1):
        if not line.strip():
            continue
        obj = _parse_line(line, lineno)
        aid = obj.get("id")
        if not aid:
            raise CatalogError(f"line {lineno}: missing artifact id")
        if isinstance(aid, (list, dict)):
            raise CatalogError(f"line {lineno}: artifact id {aid!r} is not a string or number")
        aid = str(aid)
        if aid in seen:
            raise CatalogError(
                f"line {lineno}: duplicate artifact id {aid!r} "
                f"(first seen on line {seen[aid]})"
            )
        seen[aid] = lineno
        desc = obj.get("description", "")
        if not str(desc).strip():
            raise CatalogError(f"line {lineno}: artifact {aid!r} has an empty description")
        extra = obj.get("extra")
        if not isinstance(extra, (dict, type(None))):
            raise CatalogError(f"line {lineno}: artifact {aid!r}: extra is not a JSON object")
        art = Artifact(
            id=aid,
            name=str(obj.get("name", "")),
            description=str(desc),
            ecosystem=str(obj.get("ecosystem", eco)),
            extra={str(k): str(v) for k, v in (extra or {}).items()},
        )
        if not eco:
            eco = art.ecosystem
        artifacts.append(art)
    return ArtifactLibrary(ecosystem=eco, artifacts=tuple(artifacts))


def load_pairs(path: str, lib: ArtifactLibrary) -> list[IntentSample]:
    """Load intent-artifact pairs, resolving every target against ``lib``."""
    known = set(lib.ids())
    pairs: list[IntentSample] = []
    for lineno, line in enumerate(_lines(path), start=1):
        if not line.strip():
            continue
        obj = _parse_line(line, lineno)
        intent = str(obj.get("intent", "")).strip()
        target = str(obj.get("target_id", ""))
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
    lengths = [len(a.description.split()) for a in lib.artifacts]
    return {
        "count": len(lengths),
        "mean_words": sum(lengths) / len(lengths),
        "max_words": max(lengths),
        "min_words": min(lengths),
    }
