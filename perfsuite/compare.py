"""Compare two sets of benchmark records (``perfsuite/out/*.json``).

    python3 perfsuite/compare.py BASE_DIR NEW_DIR

Each directory holds the records that runs of one commit wrote.  For
every workload and end-to-end metric this prints the two medians over
seeds and the change relative to the base, and flags a change worse than
the metric's bound in ``BENCHMARK.json``.  Records made on different
kernel paths (numba or numpy), numpy or Python versions, or core counts
measure different programs: the comparison is then marked INVALID and
the command exits with status 1.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory: str) -> list[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("no records found", file=sys.stderr)
        return 2
    envs = {json.dumps(r["env"], sort_keys=True) for r in base + new}
    valid = len(envs) == 1
    if not valid:
        print("INVALID: records come from different environments:")
        for env in sorted(envs):
            print("  " + env)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    for workload in sorted({r["workload"] for r in base + new}):
        print(f"== {workload}")
        for name, m in spec.items():
            a = [r["metrics"][name]["value"] for r in base if r["workload"] == workload]
            b = [r["metrics"][name]["value"] for r in new if r["workload"] == workload]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            worse = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            print(f"{'WORSE' if worse else '':5s} {name:28s} {ma:14.4f} -> {mb:14.4f} "
                  f"{change:+8.2%}  (n={len(a)}/{len(b)}, bound {m['bound']:.0%})")
    return 0 if valid else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
