"""Compare mode: summarise result sets written by `run.py --append`.

A result set is a JSONL file, one benchmark run per line, tagged with its
workload, seed and trace flag. Given one set, this prints each metric's
quartiles and spread. Given a parent set and a change set, it also gives a
verdict per workload and metric:

- better: the change wins at least 9 in 10 of the runs paired by seed (ties
  count for neither), and the medians differ by more than the parent's own
  interquartile range;
- worse: the same test the other way round, or the change's median is worse
  than the parent's by more than the metric's bound in BENCHMARK.json;
- unchanged: neither, and both sides' spreads are within the bound;
- unresolved: anything else, including metrics without a bound.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(path) -> dict:
    """{(workload, trace): {metric: [(seed, value), ...]}}, in file order."""
    table = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        for name, metric in run["metrics"].items():
            table[(run["workload"], run["trace"])][name].append((run["seed"], metric["value"]))
    return table


def _pairs(parent: list, change: list) -> list:
    """Runs paired by seed when each side ran each seed once, else in file order."""
    p, c = dict(parent), dict(change)
    if len(p) == len(parent) and len(c) == len(change) and set(p) & set(c):
        return [(p[s], c[s]) for s in sorted(set(p) & set(c))]
    return [(a, b) for (_, a), (_, b) in zip(parent, change)]


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list, change: list, better: str, bound: float | None) -> str:
    sign = 1 if better == "higher" else -1
    pairs = _pairs(parent, change)
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    pq1, pmed, pq3 = quartiles([v for _, v in parent])
    cq1, cmed, cq3 = quartiles([v for _, v in change])
    gain = sign * (cmed - pmed)
    if pairs and wins >= 0.9 * len(pairs) and gain > pq3 - pq1:
        return "better"
    if pairs and losses >= 0.9 * len(pairs) and -gain > pq3 - pq1:
        return "worse"
    if bound is None or pmed == 0:
        return "unresolved"
    if -gain > bound * abs(pmed):
        return "worse"
    spreads = ((pq3 - pq1) / abs(pmed), (cq3 - cq1) / abs(cmed) if cmed else float("inf"))
    return "unchanged" if max(spreads) <= bound else "unresolved"


def main(paths: list[str], benchmark_json: Path) -> int:
    if len(paths) > 2:
        raise SystemExit("compare takes one or two result sets")
    spec = json.loads(benchmark_json.read_text()) if benchmark_json.exists() else {}
    declared = {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    sets = [load(p) for p in paths]
    for key in sorted(set().union(*sets)):
        workload, trace = key
        print(f"workload {workload}, trace {trace}")
        header = "  ".join(f"{'q1':>11s} {'median':>11s} {'q3':>11s} {'spread':>7s}"
                           for _ in sets)
        print(f"  {'metric':44s} {header}  verdict")
        names = sorted(set().union(*(s[key] for s in sets if key in s)))
        for name in names:
            sides = [s[key].get(name, []) if key in s else [] for s in sets]
            cells = []
            for side in sides:
                if not side:
                    cells.append(f"{'-':>11s} {'-':>11s} {'-':>11s} {'-':>7s}")
                    continue
                q1, med, q3 = quartiles([v for _, v in side])
                spread = (q3 - q1) / abs(med) if med else 0.0
                cells.append(f"{q1:11.4f} {med:11.4f} {q3:11.4f} {spread:7.3f}")
            text = "n/a"
            meta = declared.get(name, {})
            if len(sides) == 2 and all(sides) and "better" in meta:
                text = verdict(sides[0], sides[1], meta["better"], meta.get("bound"))
            runs = "/".join(str(len(side)) for side in sides)
            print(f"  {name:44s} {'  '.join(cells)}  {text} (runs {runs})")
    return 0
