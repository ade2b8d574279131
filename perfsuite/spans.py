"""In-memory span tracing around the public functions of semtree's modules.

A :class:`Tracer` replaces a function where its caller looks it up (a
module attribute such as ``semtree.tree.select_k_bic``, or a method on
an embedder or LLM client object) with a wrapper that records a span:
name, start, end, parent span and request id.  Nested calls therefore
nest their spans.  Wrappers are installed only while ``tracer.active()``
is open, so untraced operations run the program's own functions.

Spans stay in memory; :func:`write_spans` dumps them when the run ends.
A span's self time is its duration minus the part of it that its
children cover (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    request: int


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children are counted once.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def outermost(spans: list[Span]) -> list[bool]:
    """True for spans with no ancestor of the same name (so busy time of a
    recursive function is not counted twice)."""
    flags = []
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        flags.append(p < 0)
    return flags


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans and counters for wrapped calls while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.series: dict[str, list[float]] = defaultdict(list)
        self.request = 0
        self._stack: list[int] = []
        self._targets: list[tuple[object, str, str, object]] = []

    def add(self, owner, attr: str, name: str, hook=None) -> None:
        """Trace ``owner.attr`` as ``name``; ``hook(tracer, span_index,
        args, kwargs, result)`` runs after each call to update counters."""
        self._targets.append((owner, attr, name, hook))

    def in_span(self, name: str) -> bool:
        """Whether the innermost open spans include one called ``name``."""
        return any(self.spans[i].name == name for i in self._stack)

    def _wrap(self, fn, name: str, hook):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, idx, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def active(self, request_name: str | None = None):
        """Install every wrapper; with ``request_name`` also open a root span
        for one request, with a fresh request id."""
        saved = []
        for owner, attr, name, hook in self._targets:
            saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, hook))
        try:
            if request_name is None:
                yield self
            else:
                self.request += 1
                with self.span(request_name):
                    yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            yield idx
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` (outermost spans only) and
        ``self_s``; per module (``<module>``): ``self_s``."""
        out: dict[str, dict[str, float]] = {}
        selfs = self_times(self.spans)
        for s, self_s, outer in zip(self.spans, selfs, outermost(self.spans)):
            for key in (s.name, module_of(s.name)):
                row = out.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
                row["self_s"] += self_s
            row = out[s.name]
            row["calls"] += 1
            if outer:
                row["busy_s"] += s.end - s.start
        return out

    def request_breakdown(self, root_name: str) -> list[tuple[float, dict[str, float]]]:
        """For each span called ``root_name``: its duration and the self time
        of every module below it (the root's own self time under its module)."""
        selfs = self_times(self.spans)
        roots: dict[int, tuple[float, dict[str, float]]] = {}
        owner: list[int] = []
        for i, s in enumerate(self.spans):
            if s.name == root_name:
                roots[i] = (s.end - s.start, Counter())
                owner.append(i)
            else:
                owner.append(owner[s.parent] if s.parent >= 0 else -1)
            if owner[i] >= 0:
                roots[owner[i]][1][module_of(s.name)] += selfs[i]
        return [roots[i] for i in sorted(roots)]


_MISSING = object()


def write_spans(spans: list[Span], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "request": s.request}) + "\n")
