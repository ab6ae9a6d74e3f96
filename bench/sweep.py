#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/sweep.py --workload dynamics-large --seeds 0-9 --out DIR [--trace 0]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, keeps
every result file under ``DIR``, and prints for each metric the median,
quartiles and the spread (q3 - q1) / median over the runs next to the
metric's bound; "WIDE" marks a spread above a third of the bound. ``DIR`` is
then one side of ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread_table(results: list[dict]) -> list[tuple]:
    """Rows (name, unit, median, q1, q3, spread, bound) over the runs' values."""
    rows = []
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else values * 3
        spread = (q3 - q1) / med if med else 0.0
        rows.append((name, first["unit"], med, q1, q3, spread, first.get("bound")))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for the result files")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    ok = True
    for name in args.workload:
        results = []
        for seed in parse_seeds(args.seeds):
            path = out / f"{name}-seed{seed}-trace{args.trace}.json"
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace), "--out", str(path)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
            line = json.loads(last) if last.startswith("{") else {}
            if done.returncode != 0 or not line.get("correct"):
                ok = False
                print(f"{name} seed {seed}: FAILED (exit {done.returncode})\n{done.stderr[-2000:]}")
                continue
            results.append(json.loads(path.read_text()))
            shown = "  ".join(f"{k} {v['value']:.4g}" for k, v in line["metrics"].items())
            print(f"{name} seed {seed}: {shown}", flush=True)
        if not results:
            continue
        print(f"\n{name}: {len(results)} runs")
        print(f"  {'metric':<34} {'unit':<6} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>8} {'bound':>6}")
        for row in spread_table(results):
            name_, unit, med, q1, q3, spread, bound = row
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
            print(f"  {name_:<34} {unit:<6} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
