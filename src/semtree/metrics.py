"""Evaluation: P@K, DCG@K, silhouette over sibling groups, benchmark runs.

Each benchmark query has exactly one relevant artifact, so DCG@K
reduces to 1/log2(rank + 1) when the target lands inside the top K and
0 otherwise.  Silhouette treats the child sets of a chosen tree level's
parents as clusters and sums cosine distances by the parallel-axis theorem.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from semtree.catalog import IntentSample
from semtree.search import RankedList
from semtree.tree import TreeIndex

logger = logging.getLogger(__name__)


def target_rank(ranked: RankedList, target_id: str) -> int | None:
    """1-based rank of the target in the list, None if absent."""
    for pos, (aid, _) in enumerate(ranked.entries, start=1):
        if aid == target_id:
            return pos
    return None


def _gain(kind: str, rank: int | None, k: int) -> float:
    """The gain of a target at ``rank`` under cutoff ``k``: 1 for precision
    ("p") or 1/log2(rank + 1) for DCG ("dcg") inside the top ``k``, else 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if rank is None or rank > k:
        return 0.0
    return 1.0 if kind == "p" else 1.0 / math.log2(rank + 1)


def precision_at_k(ranked: RankedList, target_id: str, k: int) -> int:
    return int(_gain("p", target_rank(ranked, target_id), k))


def dcg_at_k(ranked: RankedList, target_id: str, k: int) -> float:
    return _gain("dcg", target_rank(ranked, target_id), k)


def silhouette(tree: TreeIndex, level: int) -> float:
    """Mean silhouette over the features grouped under each parent at ``level``.

    A feature with several parents contributes once per membership;
    singleton clusters score 0 by convention.  The cosine distance of unit
    rows is half their squared distance, so a row's distance sum to a
    cluster of ``n`` rows with mean ``mu`` is ``(n |x - mu|^2 + sum_j |x_j -
    mu|^2) / 2`` (the parallel-axis theorem): one pass per cluster, not per
    member, and no ``1 - cos`` to cancel for rows a hair apart.
    """
    ptr = tree.child_ptr
    parents = sorted((r for r, lvl in enumerate(tree.levels)
                      if lvl == level and ptr[r + 1] > ptr[r]), key=tree.ids.__getitem__)
    if len(parents) < 2:
        raise ValueError(f"level {level} has fewer than 2 parents; silhouette undefined")
    x = tree.embeddings[np.concatenate([tree.child_rows[ptr[r]:ptr[r + 1]] for r in parents])]
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    sizes = np.diff(ptr)[parents]
    bounds = np.append(0, np.cumsum(sizes)).tolist()
    sums = np.empty((len(x), len(parents)))  # each membership's distance sum to each cluster
    for c, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        off = x - x[lo:hi].mean(axis=0)
        sq = np.einsum("ij,ij->i", off, off)  # each row's squared distance to the mean
        sums[:, c] = 0.5 * ((hi - lo) * sq + sq[lo:hi].sum())
    own, n_own = np.repeat(np.eye(len(parents), dtype=bool), sizes, axis=0), np.repeat(sizes, sizes)
    a = sums[own] / np.maximum(n_own - 1, 1)  # a row's distance to itself is 0
    b = np.where(own, np.inf, sums / sizes).min(axis=1)
    denom = np.maximum(a, b)
    scored = (n_own > 1) & (denom != 0)
    return float(np.mean(np.divide(b - a, denom, out=np.zeros(len(x)), where=scored)))


@dataclass
class QueryRecord:
    intent: str
    target_id: str
    rank: int | None  # None when the target was never retrieved
    elapsed: float
    node_evaluations: int = 0


@dataclass
class EvalReport:
    solution: str
    metrics: dict[str, float]
    timing: dict[str, float]
    records: list[QueryRecord] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def csv_row(self) -> dict:
        row = {"solution": self.solution}
        row.update(self.metrics)
        row.update({f"time_{k}": v for k, v in self.timing.items()})
        return row


CUTOFFS = {"p@1": ("p", 1), "p@4": ("p", 4), "dcg@2": ("dcg", 2), "dcg@5": ("dcg", 5)}


def metrics_from_records(records: list[QueryRecord]) -> dict[str, float]:
    """Recompute the aggregate metrics from per-query target ranks."""
    n = len(records)
    return {label: sum(_gain(kind, rec.rank, k) for rec in records) / n if n else 0.0
            for label, (kind, k) in CUTOFFS.items()}


def run_benchmark(solution_name: str, solution, pairs: list[IntentSample]) -> EvalReport:
    """Time and score ``solution(intent) -> RankedList`` over every pair.

    Failures on individual samples are recorded as never-retrieved
    (all metrics 0 for that sample) and the run continues.  Timing is
    per recommendation; index/tree build time is not included.
    """
    if not pairs:
        raise ValueError("no benchmark pairs")
    records: list[QueryRecord] = []
    for sample in pairs:
        start = time.perf_counter()
        try:
            ranked = solution(sample.intent)
            rank = target_rank(ranked, sample.target_id)
            evals = ranked.node_evaluations
        except Exception as exc:  # noqa: BLE001 - one bad sample must not kill the run
            logger.warning("solution %s failed on intent %r: %s",
                           solution_name, sample.intent[:60], exc)
            rank = None
            evals = 0
        elapsed = time.perf_counter() - start
        records.append(QueryRecord(
            intent=sample.intent,
            target_id=sample.target_id,
            rank=rank,
            elapsed=elapsed,
            node_evaluations=evals,
        ))
    times = np.asarray([r.elapsed for r in records])
    timing = {
        "mean": float(times.mean()),
        "std": float(times.std()),  # population standard deviation
        "min": float(times.min()),
        "max": float(times.max()),
    }
    return EvalReport(
        solution=solution_name,
        metrics=metrics_from_records(records),
        timing=timing,
        records=records,
    )


def write_csv(reports: list[EvalReport], path: str) -> None:
    """One row per solution, for table building."""
    if not reports:
        raise ValueError("no reports to write")
    rows = [r.csv_row() for r in reports]
    fieldnames = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
