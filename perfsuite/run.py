"""Run one benchmark workload against semtree's public API, in-process.

    python3 perfsuite/run.py --workload serve --seed 1 --seconds 15 --trace 0

Workloads: ``serve``, ``build``, ``lexical`` (see ``workloads.py`` and
``BENCHMARK.json``), or ``all`` to run the three in turn.  Run from the
root of a checkout: the program is imported from ``src/``.

Standard output is a report (environment, then one line per metric
with its unit and sample count) followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With ``--trace 0`` the metrics are the end-to-end ones, from untraced
operations (the report also prints the ``REPORT_ONLY`` ones, which the
JSON line leaves out); with ``--trace 1`` they are the per-layer ones
from the traced run.  Each run also writes ``perfsuite/out/<workload>-seed<N>-trace<T>.json``
(environment, metrics, sample counts, first errors) and, when traced,
the spans as ``perfsuite/out/spans-<workload>-seed<N>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SRC = os.path.join(ROOT, "src")


# Printed in the report and kept in the record, but left out of the JSON
# line and BENCHMARK.json: bursts of host contention a few milliseconds
# long slow 1-5% of operations in some stretches of time and not in
# others, so a p99 spread 0.27-0.72 between runs while the medians spread
# 0.01-0.06 (ten seeds per workload on a shared 2-core host).
REPORT_ONLY = ("search_p99_ms", "rerank_p99_ms")


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(run, scaled: bool = True) -> dict[str, tuple[float, str, int]]:
    """End-to-end metrics as ``{name: (value, unit, samples)}``.

    Timings are medians at the reference host speed (``clock.py``), or in
    wall time with ``scaled`` false; ``build_s`` is a mean, because the
    work of a build differs by catalog.  The ``p99`` ones are reported
    only with at least ten samples beyond the 99th percentile.  A metric
    with no successful operation behind it is left out (``missing``
    names it).  ``ok_frac`` is the share of attempted operations that
    neither raised nor failed a check.
    """
    def timed(kind: str, scale: float, pct: int | None = None, average=statistics.median):
        values = run.measures[kind] if kind in run.measures else run.timings(kind, scaled)
        if not values or (pct is not None and len(values) * (100 - pct) / 100 < 10):
            return None
        if pct is None:
            return average(values) * scale, len(values)
        return percentile(values, pct) * scale, len(values)

    queries = run.timings("search", scaled) + run.timings("rerank", scaled)
    found = {
        "setup_s": (timed("setup", 1.0), "s"),
        "search_p50_ms": (timed("search", 1e3), "ms"),
        "search_p99_ms": (timed("search", 1e3, 99), "ms"),
        "rerank_p50_ms": (timed("rerank", 1e3), "ms"),
        "rerank_p99_ms": (timed("rerank", 1e3, 99), "ms"),
        "serve_qps": ((len(queries) / sum(queries), len(queries)) if queries else None, "1/s"),
        "build_s": (timed("build", 1.0, average=statistics.fmean), "s"),
        "index_bytes_per_artifact": (timed("index_bytes_per_artifact", 1.0), "B"),
        "bm25_p50_ms": (timed("bm25", 1e3), "ms"),
        "tfidf_p50_ms": (timed("tfidf", 1e3), "ms"),
        "jsd_p50_ms": (timed("jsd", 1e3), "ms"),
    }
    for name, unit in (("p_at_1", "ratio"), ("dcg_at_5", "ratio"), ("peak_rss_mb", "MB")):
        found[name] = ((run.values[name], 1) if name in run.values else None, unit)
    found["ok_frac"] = ((run.attempted - run.failed) / run.attempted, run.attempted), "ratio"
    return {name: (got[0], unit, got[1]) for name, (got, unit) in found.items() if got is not None}


def missing(metrics: dict) -> list[str]:
    """Bounded end-to-end metrics (``BENCHMARK.json``) the run could not give."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounded = [m["name"] for m in json.load(fh)["end_to_end"]]
    return [name for name in bounded if name not in metrics]


def environment() -> dict:
    import numpy

    from semtree import kernels

    return {
        "kernel_path": "numba" if kernels.USING_NUMBA else "numpy",
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def run_build_index(catalog_path: str, index_path: str) -> int:
    """Child-process entry: build and save one index, print the run state."""
    from perfsuite import workloads

    print(json.dumps(workloads.build_index_here(catalog_path, index_path).state()))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and combine their results,
    prefixing each metric with its workload's name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("serve", "build", "lexical"):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["serve", "build", "lexical", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--build-index", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "semtree", "__init__.py")):
        print(f"semtree sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    if args.build_index:
        return run_build_index(*args.build_index)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)

    from perfsuite import layers, spans, workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    tracer = layers.make_tracer() if args.trace else None
    run = workloads.Run(tracer)
    try:
        workloads.WORKLOADS[args.workload](run, args.seed, args.seconds, workdir)
    except Exception as exc:  # noqa: BLE001 - an aborted workload is one failed operation
        run.attempted += 1
        run.fail(f"{args.workload} aborted: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.values["peak_rss_mb"] = workloads.peak_rss_mb()

    raw, absent = {}, []
    if tracer is None:
        metrics = end_to_end(run)
        raw = {name: value for name, (value, _, _) in end_to_end(run, scaled=False).items()}
        absent = missing(metrics)
    else:
        metrics = {name: (value, unit, tracer.request)
                   for name, (value, unit) in layers.layer_metrics(tracer, run, args.workload).items()}
    env = environment()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "env": env, "attempted": run.attempted,
                   "failed": run.failed, "errors": run.errors, "missing": absent,
                   "metrics": {n: {"value": v, "unit": u, "samples": k, "wall": raw.get(n)}
                               for n, (v, u, k) in metrics.items()}}, fh, indent=1)
    if tracer is not None:
        spans.write_spans(tracer.spans, os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))

    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# workload={args.workload} seed={args.seed} attempted={run.attempted} "
          f"failed={run.failed} failed_frac={run.failed / run.attempted:.6f}")
    for error in run.errors:
        print(f"# error: {error}")
    for name in absent:
        print(f"# missing: {name} (no successful operation to measure)")
    for name, (value, unit, n) in metrics.items():
        wall = f" wall={raw[name]:.6f}" if name in raw and raw[name] != value else ""
        print(f"{name:40s} {value:16.6f} {unit:6s} n={n}{wall}")
    print(json.dumps({
        "correct": run.failed == 0 and not absent,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items() if name not in REPORT_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
