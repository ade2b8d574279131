"""The benchmark's workloads, each a closed loop with one client.

Every workload reports every end-to-end metric.  Each has a primary path
that does nearly all of its work; the metrics off that path come from
side operations, a small fixed amount of work that is never traced, so
the layers a workload should leave alone read zero in its traced run:

- ``serve``: tree queries on a prebuilt 2,000-artifact index with a
  Zipf-skewed intent stream.  Side: six builds of 250-artifact catalogs,
  and BM25, TF-IDF and JSD queries.
- ``build``: ``build_tree`` + ``save_tree`` of 1,000-artifact catalogs,
  each followed by queries on its index.  Side: BM25, TF-IDF and JSD
  queries between builds.
- ``lexical``: BM25, TF-IDF and JSD on distinct intents.  Side: six
  builds of 250-artifact catalogs and queries on them.

The host's speed drifts by tens of percent over tens of seconds, so side
and setup operations are spread evenly over the timed phase
(:class:`Spread`) rather than run in one burst: every metric then averages
over the same stretch of time.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from collections import Counter, defaultdict

from semtree import baselines, catalog, search, tree
from semtree.embed import EmbedderConfig, make_embedder
from semtree.llm import CallableClient

from perfsuite import gen
from perfsuite.clock import HostClock

HERE = os.path.dirname(os.path.abspath(__file__))

EMBED_CFG = EmbedderConfig()          # what ``semtree build`` uses by default
PLAIN = search.SearchConfig()
RERANK = search.SearchConfig(rerank=True)
FINAL_K = PLAIN.final_k

SETUP_SAMPLES = 13
TAIL_SAMPLES = 1000    # samples per p99 metric at least, so 10 lie beyond it
QUALITY_INTENTS = 1000
RERANK_EVERY = 4       # every 4th serve query is re-ranked
SERVE_FAMILIES, SERVE_PER_FAMILY, SERVE_POOL = 40, 50, 1000
SERVE_STREAM = 200_000
BUILD_ARTIFACTS, BUILD_FAMILIES = 1000, 25
# Build work differs by up to ~40% between catalogs of one size (EM
# iterations), so build_s is a mean over several catalogs.
MIN_BUILDS = 4
GAPS = 3               # the first GAPS builds are each followed by a gap of queries
GAP_SECONDS = 3.0      # least time of a gap
TRACED_BUILDS = 2      # a traced run builds this many catalogs, each twice
SETUPS_PER_GAP = 6     # load_library samples in each gap, besides the one before a build
TFIDF_EVERY = 2        # TF-IDF costs ~4.5x BM25 and JSD ~60x: sample them
JSD_EVERY = 64         # sparsely, so BM25 keeps a fair share of the run
LEXICAL_SIDE = {"bm25": 60, "tfidf": 60, "jsd": 12}
PROBE_FAMILIES, PROBE_PER_FAMILY, PROBE_BUILDS = 5, 50, 6


class Run:
    """Operation counts, timings and values of one benchmark run.

    ``samples[kind]`` holds each successful operation's wall-clock
    ``(start, end)``; :meth:`timings` scales the durations to the
    reference host speed (see ``clock.py``).  With a tracer, every second
    operation of a kind is traced (unless the caller says otherwise) and
    its time goes to ``traced.<kind>``, so the untraced operations of the
    same run give the tracing overhead.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.clock = HostClock()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.measures: dict[str, list[float]] = defaultdict(list)
        self.values: dict[str, float] = {}
        self._count: Counter[str] = Counter()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def op(self, kind: str, fn, check=None, traced: bool | None = None):
        """Time ``fn()``, check its result, and return it (None on failure).

        A raised exception or a message from ``check(result)`` counts as a
        failed operation.
        """
        if traced is None:
            traced = self.tracer is not None and self._count[kind] % 2 == 1
        self._count[kind] += 1
        self.attempted += 1
        self.clock.tick()
        scope = self.tracer.active("bench." + kind) if traced else contextlib.nullcontext()
        try:
            with scope:
                start = time.perf_counter()
                result = fn()
                end = time.perf_counter()
            problem = check(result) if check is not None else None
        except Exception as exc:  # noqa: BLE001 - any failure of the program counts
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.fail(f"{kind}: {problem}")
            return None
        self.samples[("traced." if traced else "") + kind].append((start, end))
        return result

    def attempts(self, kind: str) -> int:
        """Operations of ``kind`` attempted so far, failed ones included."""
        return self._count[kind]

    def timings(self, kind: str, scaled: bool = True) -> list[float]:
        """Seconds per operation of ``kind``: at the reference host speed,
        or wall time if ``scaled`` is false."""
        return [(end - start) * (self.clock.scale(start, end) if scaled else 1.0)
                for start, end in self.samples.get(kind, [])]

    def state(self) -> dict:
        """What a child process reports back for :meth:`merge`."""
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors,
                "samples": self.samples, "measures": self.measures, "refs": self.clock.refs}

    def merge(self, state: dict) -> None:
        self.attempted += state["attempted"]
        self.failed += state["failed"]
        self.errors.extend(state["errors"])
        for kind, samples in state["samples"].items():
            self.samples[kind].extend((start, end) for start, end in samples)
        for name, values in state["measures"].items():
            self.measures[name].extend(values)
        self.clock.merge(state["refs"])


# ---------------------------------------------------------------- checks

def check_ranked(result, known: set[str]) -> str | None:
    """The top ``FINAL_K`` entries: that many, unique, known, scores
    non-increasing."""
    entries = result.entries[:FINAL_K]
    ids = [aid for aid, _ in entries]
    if len(entries) != FINAL_K:
        return f"{len(entries)} results, expected {FINAL_K}"
    if len(set(ids)) != FINAL_K:
        return f"duplicate ids in {ids}"
    unknown = [aid for aid in ids if aid not in known]
    if unknown:
        return f"ids not in the catalog: {unknown}"
    scores = [score for _, score in entries]
    if not all(a >= b for a, b in zip(scores, scores[1:])):
        return f"scores not non-increasing: {scores}"
    return None


def check_recommend(result, known: set[str]) -> str | None:
    if len(result.entries) != FINAL_K:
        return f"{len(result.entries)} results, expected exactly {FINAL_K}"
    return check_ranked(result, known)


def check_index(index, path: str, known: set[str]) -> str | None:
    """Leaves cover the catalog once each; the saved file loads and
    re-saves byte-identically."""
    leaves = sorted(n.artifact_id for n in index.leaves())
    if leaves != sorted(known):
        return "leaves do not cover the catalog exactly once"
    again = path + ".resaved"
    try:
        tree.save_tree(tree.load_tree(path), again)
        with open(path, "rb") as a, open(again, "rb") as b:
            if a.read() != b.read():
                return "load_tree + save_tree is not byte-identical"
    finally:
        if os.path.exists(again):
            os.remove(again)
    return None


def rank_of(result, target: str) -> int | None:
    for pos, aid in enumerate(result.ids(), start=1):
        if aid == target:
            return pos
    return None


def record_quality(run: Run, ranks: list[int | None]) -> None:
    """P@1 and DCG@5 with one relevant artifact per intent; none without
    intents (their operations all failed before any was asked)."""
    if not ranks:
        return
    run.values["p_at_1"] = sum(r == 1 for r in ranks) / len(ranks)
    run.values["dcg_at_5"] = sum(1.0 / math.log2(r + 1) for r in ranks
                                 if r is not None and r <= 5) / len(ranks)


# ---------------------------------------------------------------- helpers

_CANDIDATE_RE = re.compile(r"^<([^,>]+),", re.MULTILINE)


def echo_client() -> CallableClient:
    """Offline LLM stub: answers a re-rank prompt with its candidate ids in
    the order given."""
    return CallableClient(lambda prompt: "[" + ", ".join(_CANDIDATE_RE.findall(prompt)) + "]")


ECHO = echo_client()


def embedder_config(cfg: EmbedderConfig) -> dict:
    """The embedder entry ``semtree build`` stores in an index's config."""
    return {"provider": cfg.provider, "dim": cfg.dim, "seed": cfg.seed, "model": cfg.model}


def embedder_for(index):
    """The query embedder an index was built with, from its config."""
    stored = index.config["embedder"]
    return make_embedder(EmbedderConfig(provider=stored["provider"], dim=int(stored["dim"]),
                                        seed=int(stored["seed"]), model=stored["model"]))


def write_catalog(artifacts: list[dict], workdir: str, name: str) -> str:
    path = os.path.join(workdir, name)
    gen.write_jsonl(artifacts, path)
    return path


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def query(run: Run, kind: str, index, embedder, intent: str, check, traced=None):
    """One ``recommend`` call; ``kind`` "rerank" re-ranks with the echo stub."""
    cfg, client = (RERANK, ECHO) if kind == "rerank" else (PLAIN, None)
    return run.op(kind, lambda: search.recommend(index, intent, cfg, embedder, llm_client=client),
                  check, traced)


def build_index(run: Run, lib, embedder, path: str, traced=None, kind: str = "build"):
    """``build_tree`` + ``save_tree``, as ``semtree build`` does.  Only
    operations of kind "build" are reported as ``build_s``."""
    def build():
        index = tree.build_tree(lib, embedder)
        index.config["embedder"] = embedder_config(EMBED_CFG)
        tree.save_tree(index, path)
        return index

    known = set(lib.ids())
    index = run.op(kind, build, lambda idx: check_index(idx, path, known), traced)
    if index is not None and not traced and kind == "build":
        run.measures["index_bytes_per_artifact"].append(os.path.getsize(path) / len(lib))
    return index


def load(run: Run, fn):
    """Input loading that is not itself measured: an untraced operation."""
    return run.op("load", fn, traced=False)


class Spread:
    """Side operations spread evenly over a timed phase of ``seconds``:
    kind ``k`` runs ``count`` times, the j-th once j/count of it has passed."""

    def __init__(self, seconds: float, plan: dict[str, tuple[int, object]]):
        self.seconds = seconds
        self.plan = plan
        self.done: Counter[str] = Counter()

    def run_due(self, elapsed: float) -> None:
        for kind, (count, fn) in self.plan.items():
            if self.done[kind] < count and elapsed >= self.done[kind] / count * self.seconds:
                self.done[kind] += 1
                fn()

    def finished(self) -> bool:
        return all(self.done[kind] >= count for kind, (count, _) in self.plan.items())


class LexicalProbe:
    """BM25, TF-IDF and JSD side queries on one catalog, never traced."""

    SCORERS = {"bm25": baselines.score_bm25, "tfidf": baselines.score_tfidf,
               "jsd": baselines.score_jsd}

    def __init__(self, run: Run, catalog_path: str, artifacts: list[dict], seed):
        self.run = run
        self.known = {a["id"] for a in artifacts}
        self.idx = load(run, lambda: baselines.build_term_index(catalog.load_library(catalog_path)))
        self.intents = gen.IntentMaker(artifacts).stream(seed)

    def query(self, kind: str) -> None:
        if self.idx is None:
            return
        intent = next(self.intents)["intent"]
        self.run.op(kind, lambda: self.SCORERS[kind](self.idx, intent),
                    lambda r: check_ranked(r, self.known), traced=False)

    def plan(self, counts: dict[str, int]) -> dict[str, tuple[int, object]]:
        return {kind: (n, lambda kind=kind: self.query(kind)) for kind, n in counts.items()}


class TreeProbe:
    """Small builds, and plain and re-ranked queries taking the trees built
    so far in turn: the build and query metrics of a workload whose own
    path does not build or query a tree.  Never traced."""

    def __init__(self, run: Run, workdir: str, seed):
        self.run, self.workdir, self.seed = run, workdir, seed
        self.embedder = make_embedder(EMBED_CFG)
        self.builds = self.queries = 0
        self.trees: list[tuple[object, object, object]] = []  # index, check, intents

    def build(self) -> None:
        n = self.builds
        self.builds += 1
        artifacts = gen.family_catalog(PROBE_FAMILIES, PROBE_PER_FAMILY, f"{self.seed}/{n}")
        path = write_catalog(artifacts, self.workdir, f"probe{n}.jsonl")
        lib = load(self.run, lambda: catalog.load_library(path))
        if lib is None:
            return
        index = build_index(self.run, lib, self.embedder,
                            os.path.join(self.workdir, f"probe{n}.json"), traced=False)
        if index is not None:
            known = set(lib.ids())
            self.trees.append((index, lambda r: check_recommend(r, known),
                               gen.IntentMaker(artifacts).stream(f"{self.seed}/{n}/intents")))

    def query(self) -> None:
        if not self.trees:
            return
        self.queries += 1
        index, check, intents = self.trees[self.queries % len(self.trees)]
        intent = next(intents)["intent"]
        for kind in ("search", "rerank"):
            query(self.run, kind, index, self.embedder, intent, check, traced=False)


def index_in_child(run: Run, catalog_path: str, index_path: str) -> None:
    """Build the ``serve`` index in a child process, so the workload's own
    process (its memory peak and its traced layers) never runs the build.
    The build is checked but not timed: one 20-second build a run, in wall
    time, spreads too much between runs to report."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--build-index",
                           catalog_path, index_path],
                          capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"index build exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    run.merge(json.loads(proc.stdout.strip().splitlines()[-1]))


def build_index_here(catalog_path: str, index_path: str) -> Run:
    """The child-process side of :func:`index_in_child`."""
    run = Run()
    lib = load(run, lambda: catalog.load_library(catalog_path))
    if lib is not None:
        build_index(run, lib, make_embedder(EMBED_CFG), index_path, kind="index")
    return run


# ---------------------------------------------------------------- workloads

def serve(run: Run, seed: int, seconds: float, workdir: str) -> None:
    artifacts = gen.family_catalog(SERVE_FAMILIES, SERVE_PER_FAMILY, f"{seed}/serve")
    known = {a["id"] for a in artifacts}
    catalog_path = write_catalog(artifacts, workdir, "catalog.jsonl")
    index_path = os.path.join(workdir, "index.json")
    index_in_child(run, catalog_path, index_path)

    def setup():
        index = tree.load_tree(index_path)
        return index, embedder_for(index)

    ready = run.op("setup", setup)
    if ready is None:
        raise RuntimeError(f"the index did not load: {run.errors}")
    index, embedder = ready
    probe = LexicalProbe(run, catalog_path, artifacts, f"{seed}/probe")
    builds = TreeProbe(run, workdir, f"{seed}/probe")
    side = Spread(seconds, {"setup": (SETUP_SAMPLES - 1, lambda: run.op("setup", setup)),
                            "probe_build": (PROBE_BUILDS, builds.build),
                            **probe.plan(LEXICAL_SIDE)})

    pool = gen.intent_pool(artifacts, SERVE_POOL, f"{seed}/serve-intents")
    stream = gen.zipf_stream(len(pool), SERVE_STREAM, f"{seed}/serve-stream")
    answers: dict[str, list[str]] = {}

    def consistent(result) -> str | None:
        """The output checks, and that an intent always gets the same answer."""
        problem = check_recommend(result, known)
        if problem is None and answers.setdefault(result.intent, result.ids()) != result.ids():
            problem = f"answer changed for a repeated intent {result.intent!r}"
        return problem

    start = time.perf_counter()
    n = 0
    while True:
        elapsed = time.perf_counter() - start
        side.run_due(elapsed)
        if (elapsed >= seconds and side.finished()
                and run.attempts("rerank") >= TAIL_SAMPLES):
            break
        kind = "rerank" if n % RERANK_EVERY == RERANK_EVERY - 1 else "search"
        query(run, kind, index, embedder, pool[stream[n % len(stream)]]["intent"], consistent)
        n += 1

    # Quality over the whole pool, once each, so it is exact for the seed
    # however many stream queries the timed phase got through.
    ranks = []
    for sample in pool:
        result = query(run, "quality", index, embedder, sample["intent"], consistent)
        ranks.append(rank_of(result, sample["target_id"]) if result is not None else None)
    record_quality(run, ranks)


def build(run: Run, seed: int, seconds: float, workdir: str) -> None:
    """Builds until ``seconds`` have passed, at least ``MIN_BUILDS``
    (``TRACED_BUILDS``, each twice, in a traced run).  After each of the
    first ``GAPS`` comes a gap of queries on the new index
    (:func:`build_gap`)."""
    embedder = make_embedder(EMBED_CFG)
    per_gap = math.ceil(QUALITY_INTENTS / GAPS)
    builds = TRACED_BUILDS if run.tracer else MIN_BUILDS
    ranks = []
    start = time.perf_counter()
    i = 0
    while i < builds or time.perf_counter() - start < seconds:
        artifacts = gen.ragged_catalog(BUILD_ARTIFACTS, BUILD_FAMILIES, f"{seed}/build/{i}")
        path = write_catalog(artifacts, workdir, f"catalog{i}.jsonl")
        index_path = os.path.join(workdir, f"index{i}.json")
        lib = run.op("setup", lambda: catalog.load_library(path))
        # A traced run builds each catalog twice, untraced then traced, so
        # the tracing overhead compares equal work.
        built = lib is not None and all(
            build_index(run, lib, embedder, index_path, traced) is not None
            for traced in ([False, True] if run.tracer else [False]))
        if built and i < GAPS:
            ranks += build_gap(run, artifacts, path, index_path, f"{seed}/{i}", per_gap)
        i += 1
    record_quality(run, ranks)


def build_gap(run: Run, artifacts, catalog_path: str, index_path: str, seed,
              intents: int) -> list[int | None]:
    """``intents`` quality intents, plain and re-ranked, on a new index,
    cycled until ``GAP_SECONDS`` have passed, with ``load_library`` set-ups
    and the side queries spread over the gap.  Returns the first pass's
    ranks."""
    known = {a["id"] for a in artifacts}
    index = load(run, lambda: tree.load_tree(index_path))
    if index is None:
        return [None] * intents
    embedder = embedder_for(index)
    probe = LexicalProbe(run, catalog_path, artifacts, f"{seed}/probe")
    side = Spread(GAP_SECONDS, {
        "setup": (SETUPS_PER_GAP, lambda: run.op("setup", lambda: catalog.load_library(catalog_path))),
        **probe.plan({kind: math.ceil(n / GAPS) for kind, n in LEXICAL_SIDE.items()})})
    check = lambda r: check_recommend(r, known)  # noqa: E731
    pool = gen.intent_pool(artifacts, intents, f"{seed}/intents")
    ranks = []
    start = time.perf_counter()
    j = 0
    while True:
        elapsed = time.perf_counter() - start
        side.run_due(elapsed)
        if j >= len(pool) and elapsed >= GAP_SECONDS and side.finished():
            break
        sample = pool[j % len(pool)]
        result = query(run, "search", index, embedder, sample["intent"], check)
        if j < len(pool):
            ranks.append(rank_of(result, sample["target_id"]) if result is not None else None)
        query(run, "rerank", index, embedder, sample["intent"], check)
        j += 1
    return ranks


def lexical(run: Run, seed: int, seconds: float, workdir: str) -> None:
    artifacts = gen.family_catalog(SERVE_FAMILIES, SERVE_PER_FAMILY, f"{seed}/lexical")
    known = {a["id"] for a in artifacts}
    catalog_path = write_catalog(artifacts, workdir, "catalog.jsonl")

    def setup():
        return baselines.build_term_index(catalog.load_library(catalog_path))

    idx = run.op("setup", setup)
    if idx is None:
        raise RuntimeError(f"the term index did not build: {run.errors}")
    probe = TreeProbe(run, workdir, f"{seed}/probe")
    side = Spread(seconds, {"setup": (SETUP_SAMPLES - 1, lambda: run.op("setup", setup)),
                            "probe_build": (PROBE_BUILDS, probe.build),
                            "probe_query": (TAIL_SAMPLES, probe.query)})

    def checked(r):
        return check_ranked(r, known)

    ranks = []
    start = time.perf_counter()
    for i, sample in enumerate(gen.IntentMaker(artifacts).stream(f"{seed}/lexical-intents")):
        elapsed = time.perf_counter() - start
        side.run_due(elapsed)
        if elapsed >= seconds and i >= QUALITY_INTENTS and side.finished():
            break
        intent = sample["intent"]
        result = run.op("bm25", lambda: baselines.score_bm25(idx, intent), checked)
        if i < QUALITY_INTENTS:
            ranks.append(rank_of(result, sample["target_id"]) if result is not None else None)
        if i % TFIDF_EVERY == 0:
            run.op("tfidf", lambda: baselines.score_tfidf(idx, intent), checked)
        if i % JSD_EVERY == 0:
            run.op("jsd", lambda: baselines.score_jsd(idx, intent), checked)
    record_quality(run, ranks)


WORKLOADS = {"serve": serve, "build": build, "lexical": lexical}

