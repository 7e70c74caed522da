"""Compare two sets of benchmark results, one row per workload and metric.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records that ``run.py --out FILE`` appends, one run per
line.  For every workload and end-to-end metric the report gives each side's
median and quartiles over its runs and the change in the median as a share
of the base median.  The verdict is:

* ``unresolved`` when either side's spread (quartile distance over median)
  exceeds the metric's bound in BENCHMARK.json, unless every run of the
  change reads better than every run of the base;
* ``worse`` when the change's median is worse than the base's by more than
  the bound;
* ``ok`` otherwise.

Traced records get the same rows for the per-layer metrics, without a
verdict.  Accuracy guards of runs with the same workload and seed must be
identical.  The exit code is 1 when a metric is worse or a guard differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def by_workload(records: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in records:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def values(runs: list[dict], metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if metric in r["result"]["metrics"]]


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    lower = better == "lower"
    if max(spread(base), spread(change)) > bound:
        every = max(change) < min(base) if lower else min(change) > max(base)
        return "better (every run)" if every else "unresolved"
    med_a, med_b = statistics.median(base), statistics.median(change)
    worse_by = (med_b - med_a) / abs(med_a) * (1.0 if lower else -1.0)
    return "worse" if worse_by > bound else "ok"


def row(workload: str, metric: str, unit: str, a: list[float], b: list[float]) -> str:
    qa, qb = quartiles(a), quartiles(b)
    delta = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else float("nan")
    return (f"{workload:10s} {metric:44s} "
            f"base {qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}] n={len(a):<3d} "
            f"change {qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}] n={len(b):<3d} "
            f"{delta:+.1%} {unit}")


def compare(base: list[dict], change: list[dict], spec: dict) -> int:
    status = 0
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        runs_a, runs_b = by_workload(base, trace), by_workload(change, trace)
        for workload in sorted(set(runs_a) & set(runs_b)):
            for m in metrics:
                a, b = values(runs_a[workload], m["name"]), values(runs_b[workload], m["name"])
                if not a or not b:
                    continue
                line = row(workload, m["name"], m["unit"], a, b)
                if trace == 0:
                    v = verdict(a, b, m["better"], m["bound"])
                    status |= v == "worse"
                    line += f"  {v}"
                print(line)
    for workload, runs_a in sorted(by_workload(base, 0).items()):
        guards_a = {r["seed"]: r["guards"] for r in runs_a}
        shared = [r for r in by_workload(change, 0).get(workload, [])
                  if r["seed"] in guards_a and (r["guards"] or guards_a[r["seed"]])]
        differing = [r["seed"] for r in shared if r["guards"] != guards_a[r["seed"]]]
        if differing:
            status = 1
            print(f"{workload:10s} guards differ on seeds {sorted(set(differing))}")
        elif shared:
            print(f"{workload:10s} guards identical on {len(shared)} runs with shared seeds")
    return status


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    return compare(load(argv[0]), load(argv[1]), spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
