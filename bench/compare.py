#!/usr/bin/env python3
"""Compare two sets of benchmark results, one workload per block.

    python3 bench/compare.py BEFORE AFTER

``BEFORE`` and ``AFTER`` are directories of result files written by
``bench/run.py --out`` (for example by ``bench/sweep.py``) or single result
files. For each workload and metric the table gives each side's median and
quartiles over its runs and the change of the median. A metric whose
run-to-run spread, (q3 - q1) / median on either side, exceeds its bound is
reported as unresolved, unless every run of one side beats every run of the
other. Per-layer counts are compared exactly.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(path: str) -> dict:
    """Result values grouped as {(workload, trace): {metric: [values]}}, with
    units and bounds alongside."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    groups: dict = {}
    for f in files:
        res = json.loads(f.read_text())
        if "metrics" not in res or "workload" not in res:
            continue
        group = groups.setdefault((res["workload"], res["trace"]), {})
        for name, m in res["metrics"].items():
            entry = group.setdefault(name, {"unit": m["unit"], "bound": m.get("bound"), "values": []})
            entry["values"].append(m["value"])
        group.setdefault("failed_frac", {"unit": "ratio", "bound": None, "values": []})[
            "values"].append(res["failed_frac"])
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], bound: float | None, unit: str) -> str:
    qa, qb = quartiles(a), quartiles(b)
    if unit in ("count", "bytes"):
        return "same" if sorted(a) == sorted(b) else "CHANGED"
    if bound is None:
        return ""
    if max(b) < min(a):
        return "better in every run"
    if min(b) > max(a):
        return "REGRESSED in every run" if qb[1] > qa[1] * (1 + bound) else "worse in every run"
    spreads = [(q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb)]
    if max(spreads) > bound:
        return "unresolved (spread above bound)"
    delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    if delta > bound:
        return "REGRESSED"
    return "within bound"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    regressed = False
    for key in sorted(set(before) & set(after)):
        workload, trace = key
        a_runs = len(next(iter(before[key].values()))["values"])
        b_runs = len(next(iter(after[key].values()))["values"])
        print(f"{workload}  trace {trace}  (before: {a_runs} runs, after: {b_runs} runs)")
        print(f"  {'metric':<40} {'unit':<6} {'before median [q1, q3]':>34} "
              f"{'after median [q1, q3]':>34} {'delta':>8}  status")
        for name in before[key]:
            if name not in after[key]:
                continue
            a, b = before[key][name], after[key][name]
            qa, qb = quartiles(a["values"]), quartiles(b["values"])
            delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            status = verdict(a["values"], b["values"], a["bound"], a["unit"])
            regressed |= status.startswith("REGRESSED")
            print(f"  {name:<40} {a['unit']:<6} {qa[1]:>12.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
                  f"{'':>2}{qb[1]:>12.5g} [{qb[0]:.5g}, {qb[2]:.5g}] {delta:>+8.1%}  {status}")
    for key in sorted(set(before) ^ set(after)):
        print(f"{key[0]}  trace {key[1]}: only in {'before' if key in before else 'after'}")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
