"""Compare two result sets written by run.py into ``.bench_results/``.

For each workload and end-to-end metric: both sides' medians and
quartiles, the ratio of medians (B over A), and a verdict under the bound
BENCHMARK.json fixes for the metric:

- unresolved: the quartile spread of either side, over A's median, exceeds
  the bound, unless every run of one side beats every run of the other
  (then improved or worse);
- worse: B's median is worse than A's by more than the bound;
- improved: B wins at least 9 in 10 of the runs paired in order, and the
  medians differ by more than A's own quartile spread;
- unchanged: otherwise.

For the traced runs it prints the per-layer self times of both sides and
their difference.
"""

from __future__ import annotations

import glob
import json
import os
import statistics


def _load(path: str) -> list[dict]:
    files = [path] if os.path.isfile(path) else sorted(glob.glob(os.path.join(path, "*.json")))
    records = []
    for name in files:
        with open(name) as fh:
            record = json.load(fh)
        if "result" in record:
            records.append(record)
    return records


def _values(records, workload, trace, metric) -> list[float]:
    return [
        r["result"]["metrics"][metric]["value"]
        for r in records
        if r["workload"] == workload and r["trace"] == trace and metric in r["result"]["metrics"]
    ]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], bound: float, lower_is_better: bool) -> str:
    """Verdict on B against A for one metric; see the module docstring."""
    sign = 1.0 if lower_is_better else -1.0
    a_q1, a_med, a_q3 = _quartiles(a)
    b_q1, b_med, b_q3 = _quartiles(b)
    worse_by = sign * (b_med - a_med) / abs(a_med)
    if max(a_q3 - a_q1, b_q3 - b_q1) / abs(a_med) > bound:
        if max(sign * x for x in b) < min(sign * x for x in a):
            return "improved"
        if min(sign * x for x in b) > max(sign * x for x in a):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(sign * y < sign * x for x, y in pairs)
    if wins >= 0.9 * len(pairs) and -worse_by * abs(a_med) > a_q3 - a_q1:
        return "improved"
    return "unchanged"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    a, b = _load(path_a), _load(path_b)
    if not a or not b:
        print(f"no results found in {path_a if not a else path_b}")
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"A = {path_a} ({len(a)} runs), B = {path_b} ({len(b)} runs)")
    print(f"{'workload':<20} {'metric':<12} {'A median [q1, q3]':<32} {'B median [q1, q3]':<32} {'B/A':>6}  verdict")
    for workload in workloads:
        for m in spec["end_to_end"]:
            va, vb = _values(a, workload, 0, m["name"]), _values(b, workload, 0, m["name"])
            if not va or not vb:
                continue
            qa, qb = _quartiles(va), _quartiles(vb)
            text = verdict(va, vb, m["bound"], m["better"] == "lower")
            side_a = f"{qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}] {m['unit']}"
            side_b = f"{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] {m['unit']}"
            print(
                f"{workload:<20} {m['name']:<12} {side_a:<32} {side_b:<32} {qb[1] / qa[1]:>6.3f}  "
                f"{text} (bound {m['bound']}, n={len(va)}/{len(vb)})"
            )
    print()
    print("per-layer self times from the traced runs (medians, B - A)")
    for workload in workloads:
        for m in spec["per_layer"]:
            if m["unit"] != "s":
                continue
            va, vb = _values(a, workload, 1, m["name"]), _values(b, workload, 1, m["name"])
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            if ma == 0.0 and mb == 0.0:
                continue
            ratio = f"{mb / ma:.3f}" if ma else "n/a"
            print(f"{workload:<20} {m['name']:<44} {ma:>10.4f} s {mb:>10.4f} s {mb - ma:>+10.4f} s  B/A {ratio}")
    return 0
