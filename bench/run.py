#!/usr/bin/env python3
"""netgame benchmark: times the CLI subcommands on fixed workloads.

One process per workload runs a single closed-loop client: it calls
``netgame.cli.main(argv + ["--deterministic"])`` in-process, one job after
another, inside the workload's working directory, and repeats the job list
(a *pass*) until ``--seconds`` are used. Every job's outputs are hashed and
compared with the golden digests recorded at the seed commit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 bench/run.py --record-golden [--workload NAME]

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics. Run it from
the root of a source checkout; the last line of standard output is one JSON
object, and the full result is written to ``--out`` (default under
``.bench_work/results``). See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"
SETUP_REPEATS = 5

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

SUBCOMMAND_METRICS = {
    "run": "run_s", "verify": "verify_s", "local-sim": "local_sim_s", "ineff": "ineff_s",
    "poa": "poa_s", "frozen": "frozen_s", "gen": "gen_s", "simgame": "simgame_s",
}


def fail_setup(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_netgame():
    if not (SRC / "netgame" / "__init__.py").is_file():
        fail_setup(f"no netgame sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import netgame.cli

    return netgame.cli


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail_setup(f"cannot read BENCHMARK.json: {exc}")


# ---------------------------------------------------------------------------
# Set-up


def setup_only(name: str, seed: int) -> None:
    """Import netgame and write the workload's input graphs; the benchmark
    times this in a fresh interpreter."""
    import_netgame()
    workloads.write_inputs(workloads.workload(name, seed), str(WORK / name))


def measure_setup(name: str, seed: int, repeats: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # No timeout: with one, Popen.wait polls with sleeps of up to 50 ms,
        # which would quantize the measurement.
        done = subprocess.run(cmd)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            fail_setup(f"set-up of {name} failed with exit code {done.returncode}")
    return times


# ---------------------------------------------------------------------------
# Passes


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()[:20]


def run_job(cli, job) -> tuple[float, str | None, str | None, int]:
    """Run one job; returns (seconds, output digest, failure reason, bytes written)."""
    for path in job.outputs:
        if os.path.exists(path):
            os.remove(path)
    saved = {k: os.environ.get(k) for k in job.env}
    os.environ.update(job.env)
    reason = None
    t0 = time.perf_counter()
    try:
        rc = cli.main([*job.argv, "--deterministic"])
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a job that raises is a failed job, not a crash
        rc, reason = None, f"raised {exc!r}"
    elapsed = time.perf_counter() - t0
    for key, value in saved.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    if reason is None and rc != 0:
        reason = f"exit code {rc}"
    if reason is not None:
        return elapsed, None, reason, 0
    missing = [p for p in job.outputs if not os.path.exists(p)]
    if missing:
        return elapsed, None, f"missing output {missing}", 0
    return elapsed, digest(job.outputs), None, sum(os.path.getsize(p) for p in job.outputs)


def reference_work() -> Fraction:
    """A fixed piece of interpreter work resembling netgame's inner loops
    but calling none of its code: tuple slicing, dict updates and Fraction
    arithmetic."""
    counts: dict = {}
    total = Fraction(0)
    profile = tuple(range(64))
    for i in range(1500):
        v = i % 60
        counts[profile[v : v + 4]] = counts.get(profile[v : v + 4], 0) + 1
        profile = profile[:v] + (i,) + profile[v + 1 :]
        total += Fraction(i % 7, 3)
    return total


def reference_seconds() -> float:
    """The machine's current speed: median time of three `reference_work` runs."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(cli, wl, golden: dict | None, tracer=None, job_base: int = 0) -> dict:
    """One pass over the job list. With ``golden`` None the digests are only
    returned, not checked.

    A virtual machine on a shared host can change speed by half within
    minutes, so each job's time is also expressed in units of the reference
    loop timed just before and just after it (``*_ref``); that ratio moves
    with the code and much less with the host.
    """
    per_sub: dict[str, float] = {}
    per_sub_ref: dict[str, float] = {}
    per_job: dict[str, float] = {}
    failures, digests, written = [], {}, 0
    ref = reference_seconds()
    for j, job in enumerate(wl.jobs):
        if tracer is not None:
            tracer.job = job_base + j
        elapsed, dig, reason, nbytes = run_job(cli, job)
        ref_after = reference_seconds()
        per_sub[job.subcommand] = per_sub.get(job.subcommand, 0.0) + elapsed
        per_sub_ref[job.subcommand] = (
            per_sub_ref.get(job.subcommand, 0.0) + 2 * elapsed / (ref + ref_after)
        )
        ref = ref_after
        per_job[job.name] = elapsed
        written += nbytes
        digests[job.name] = dig
        if reason is None and golden is not None:
            want = golden.get(job.name)
            if want is None:
                reason = "no golden digest recorded"
            elif dig != want:
                reason = f"output digest {dig} != golden {want}"
        if reason is not None:
            failures.append({"job": job.name, "reason": reason})
            print(f"bench: job {job.name} failed: {reason}", file=sys.stderr)
    return {
        "wall_s": sum(per_sub.values()),
        "wall_ref": sum(per_sub_ref.values()),
        "subcommands": per_sub,
        "subcommands_ref": per_sub_ref,
        "jobs": per_job,
        "failures": failures,
        "digests": digests,
        "bytes_written": written,
    }


# ---------------------------------------------------------------------------
# Statistics and reporting


def summary(values: list[float], unit: str, bound: float | None = None) -> dict:
    """Median, quartiles, the maximum as the tail, and the sample count."""
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    out = {"value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3,
           "max": values[-1], "n": len(values)}
    if bound is not None:
        out["bound"] = bound
    return out


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(wl, seed: int) -> dict:
    job_threads = sorted({job.env["NETGAME_THREADS"] for job in wl.jobs if "NETGAME_THREADS" in job.env})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "NETGAME_THREADS": os.environ.get("NETGAME_THREADS", "unset"),
        "NETGAME_THREADS_ineff": job_threads[0] if job_threads else None,
        "seed": seed,
        "variant": seed % workloads.VARIANTS,
        "machine": platform.machine(),
    }


def print_table(title: str, metrics: dict) -> None:
    print(title)
    print(f"  {'metric':<40} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'max':>12} {'n':>3}")
    for name, m in metrics.items():
        if "absent" in m:
            print(f"  {name:<40} {m['unit']:<6} {'-':>12}  absent: {m['absent']}")
            continue
        print(f"  {name:<40} {m['unit']:<6} {m['value']:>12.6g} {m['q1']:>12.6g} "
              f"{m['q3']:>12.6g} {m['max']:>12.6g} {m['n']:>3}")


# ---------------------------------------------------------------------------
# Modes


def end_to_end(cli, wl, golden, seconds: float, spec: dict, setup: list[float]) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, wl, golden))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if elapsed + typical > seconds:
            break
    bound = bounds["wall_ref"]
    metrics = {
        "setup_s": summary(setup, "s", bounds["setup_s"]),
        "wall_s": summary([p["wall_s"] for p in passes], "s", bound),
        "wall_ref": summary([p["wall_ref"] for p in passes], "ref", bound),
    }
    for sub, metric in SUBCOMMAND_METRICS.items():
        if sub in passes[0]["subcommands"]:
            metrics[metric] = summary([p["subcommands"][sub] for p in passes], "s", bound)
            metrics[metric[:-2] + "_ref"] = summary(
                [p["subcommands_ref"][sub] for p in passes], "ref", bound)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mib"] = summary([rss], "MiB", bounds["peak_rss_mib"])
    return {"passes": passes, "metrics": metrics}


def traced(cli, wl, golden, seconds: float) -> dict:
    """Alternate untraced and traced passes; at least one untraced and two
    traced passes run, and the work counts of the traced passes must agree."""
    import tracer as tracing

    untraced, traced_passes, aggregates = [], [], []
    spans = None
    start = time.perf_counter()
    while True:
        if len(untraced) <= len(traced_passes):
            untraced.append(run_pass(cli, wl, golden))
        else:
            tr = tracing.Tracer(record=spans is None)
            tr.install()
            try:
                p = run_pass(cli, wl, golden, tracer=tr, job_base=len(traced_passes) * len(wl.jobs))
            finally:
                tr.uninstall()
            p["traced"] = True
            traced_passes.append(p)
            aggregates.append(tr.merged())
            if spans is None:
                spans = tr
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in untraced + traced_passes)
        if len(untraced) >= 1 and len(traced_passes) >= 2 and elapsed + typical > seconds:
            break
    return {
        "untraced": untraced,
        "traced": traced_passes,
        "aggregates": aggregates,
        "spans": spans,
    }


# Per-layer metrics. Each reader takes one traced pass's merged aggregates
# and the pass record, and returns (unit, value, function): a time is shown
# as absent on workloads where that function is never called.
def _calls(fn):
    return lambda a, p: ("count", a["calls"].get(fn, 0), None)


def _time(fn, kind="s"):
    return lambda a, p: ("s", a[kind].get(fn, 0.0), fn)


def _count(key):
    return lambda a, p: ("count", a["counts"].get(key, 0), None)


def _us_per(fns, work, gate):
    """Microseconds spent in ``fns`` per unit of ``work`` (a count reader)."""
    def read(a, p):
        n = work(a, p)[1]
        spent = sum(a["s"].get(fn, 0.0) for fn in fns)
        return "us", 1e6 * spent / n if n else 0.0, gate
    return read


def _module_self(mod):
    return lambda a, p: ("s", sum(v for k, v in a["self_s"].items() if k.startswith(mod + ".")), None)


STEP = "dynamics.preferred_best_response"
SCANS = ("oracle.enumerate_ne", "oracle.max_welfare_exhaustive")
PER_LAYER = {
    "cli.main.self_s": _time("cli.main", "self_s"),
    "cli.bytes_written": lambda a, p: ("bytes", p["bytes_written"], None),
    "network.graph_from_json.s": _time("network.graph_from_json"),
    "network.bfs_distances.calls": _calls("network.bfs_distances"),
    "network.bfs_distances.s": _time("network.bfs_distances"),
    "network.girth.calls": _calls("network.girth"),
    "network.girth.s": _time("network.girth"),
    "network.from_edges.calls": _calls("network.from_edges"),
    "network.from_edges.s": _time("network.from_edges"),
    "network.cut_short_cycles.s": _time("network.cut_short_cycles"),
    "game.best_responses.calls": _calls("game.best_responses"),
    "game.best_responses.s": _time("game.best_responses"),
    "game.best_responses.us_per_call": _us_per(
        ["game.best_responses"], _calls("game.best_responses"), "game.best_responses"),
    "game.utility_evals": _count("game.utility_evals"),
    "game.welfare.calls": _calls("game.welfare"),
    "game.welfare.s": _time("game.welfare"),
    "game.validate_profile.calls": _calls("game.validate_profile"),
    "game.validate_profile.s": _time("game.validate_profile"),
    "dynamics.run.s": _time("dynamics.run"),
    "dynamics.steps": _calls(STEP),
    "dynamics.us_per_step": _us_per([STEP], _calls(STEP), STEP),
    "dynamics.switches": _count("dynamics.switches"),
    "dynamics.switch_ratio": lambda a, p: (
        "ratio", a["counts"].get("dynamics.switches", 0) / a["calls"][STEP] if a["calls"][STEP] else 0.0, None),
    "dynamics.rounds": _count("dynamics.rounds"),
    "lvl.verify.s": _time("lvl.verify"),
    "lvl.nodes_checked": _count("lvl.nodes_checked"),
    "lvl.us_per_node": _us_per(["lvl.verify"], _count("lvl.nodes_checked"), "lvl.verify"),
    "local_sim.distance_coloring.s": _time("local_sim.distance_coloring"),
    "local_sim.check_coloring.s": _time("local_sim.check_coloring"),
    "local_sim.simulate_fair_rounds.self_s": _time("local_sim.simulate_fair_rounds", "self_s"),
    "local_sim.palette": _count("local_sim.palette"),
    "simgame.build_simulation_game.s": _time("simgame.build_simulation_game"),
    "simgame.play_simulation_round.s": _time("simgame.play_simulation_round"),
    "simgame.constructive_best_response.calls": _calls("simgame.constructive_best_response"),
    "simgame.constructive_best_response.s": _time("simgame.constructive_best_response"),
    "simgame.simulation_utility.calls": _calls("simgame.simulation_utility"),
    "oracle.enumerate_ne.s": _time("oracle.enumerate_ne"),
    "oracle.max_welfare_exhaustive.s": _time("oracle.max_welfare_exhaustive"),
    "oracle.profiles_scanned": _count("oracle.profiles_scanned"),
    "oracle.us_per_profile": _us_per(SCANS, _count("oracle.profiles_scanned"), "oracle.enumerate_ne"),
    "oracle.equilibria": _count("oracle.equilibria"),
    "oracle.find_frozen_configuration.s": _time("oracle.find_frozen_configuration"),
    "oracle.frozen_steps": _count("oracle.frozen_steps"),
    **{f"{mod}.self_s": _module_self(mod)
       for mod in ("cli", "network", "game", "dynamics", "lvl", "local_sim", "simgame", "oracle")},
}


def per_layer_metrics(result: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics over the traced passes, and the work counts that
    did not repeat exactly across them."""
    aggs, passes = result["aggregates"], result["traced"]
    metrics, mismatches = {}, []
    for name, read in PER_LAYER.items():
        readings = [read(a, p) for a, p in zip(aggs, passes)]
        unit, gate = readings[0][0], readings[0][2]
        values = [r[1] for r in readings]
        if unit in ("count", "bytes") and len(set(values)) != 1:
            mismatches.append(f"{name} differs across traced passes: {values}")
        metrics[name] = summary(values, unit)
        if gate is not None and not any(a["calls"].get(gate, 0) for a in aggs):
            metrics[name]["absent"] = f"{gate} is not called on this workload"
    overhead = statistics.median(p["wall_s"] for p in passes) / statistics.median(
        p["wall_s"] for p in result["untraced"])
    metrics["trace.overhead"] = summary([overhead], "x")
    return metrics, mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result JSON path")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-golden", action="store_true",
                        help="record golden digests for every input variant")
    args = parser.parse_args(argv)

    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    if args.record_golden:
        return record_golden([args.workload] if args.workload else sorted(workloads.BUILDERS))
    if args.workload is None:
        parser.error("--workload is required")

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    out_path = (Path(args.out).resolve() if args.out else
                WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    import_netgame()  # fail before any work when the sources are missing
    wl = workloads.workload(args.workload, args.seed)
    golden_all = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden = golden_all.get(wl.name, {}).get(str(args.seed % workloads.VARIANTS), {})

    repeats = SETUP_REPEATS if args.trace == 0 else 1
    setup = measure_setup(wl.name, args.seed, repeats)
    cli = import_netgame()
    os.chdir(WORK / wl.name)

    env = environment(wl, args.seed)
    print(f"workload {wl.name}  seed {args.seed} (input variant {env['variant']})  "
          f"trace {args.trace}  git {env['git_sha'][:12]}  python {env['python']}  "
          f"nproc {env['nproc']}  NETGAME_THREADS {env['NETGAME_THREADS']} "
          f"(ineff jobs: {env['NETGAME_THREADS_ineff']})")
    out = {"workload": wl.name, "trace": args.trace, "seconds": seconds, "env": env}
    if args.trace == 0:
        res = end_to_end(cli, wl, golden, seconds, spec, setup)
        passes, metrics = res["passes"], res["metrics"]
        mismatches = []
    else:
        res = traced(cli, wl, golden, seconds)
        passes = res["untraced"] + res["traced"]
        metrics, mismatches = per_layer_metrics(res)
    attempted = len(passes) * len(wl.jobs)
    failures = [dict(f, pass_index=i) for i, p in enumerate(passes) for f in p["failures"]]
    failed = len(failures)
    correct = failed == 0 and not mismatches
    for message in mismatches:
        print(f"bench: WORK COUNT MISMATCH: {message}", file=sys.stderr)

    print(f"passes {len(passes)}  jobs attempted {attempted}  failed {failed}  "
          f"failed_frac {failed / attempted:.6g}")
    if args.trace == 0:
        print_table("end-to-end metrics (median over passes; setup_s over fresh interpreters):", metrics)
    else:
        print(f"traced passes {len(res['traced'])}  untraced passes {len(res['untraced'])}  "
              f"spans recorded {res['spans'].span_count()}")
        print_table("per-layer metrics (median over traced passes; counts are exact):", metrics)

    pass_log = [{"traced": p.get("traced", False), "wall_s": p["wall_s"], "wall_ref": p["wall_ref"],
                 "jobs": p["jobs"]} for p in passes]
    out.update(passes=len(passes), pass_log=pass_log, attempted=attempted, failed=failed,
               failed_frac=failed / attempted, correct=correct, failures=failures,
               work_count_mismatches=mismatches, metrics=metrics)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if args.trace == 1:
        spans_path = out_path.with_suffix(".spans.tsv.gz")
        res["spans"].write_spans(str(spans_path))
        out["spans_file"] = os.path.relpath(spans_path, ROOT)
    out_path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")

    kind = "end_to_end" if args.trace == 0 else "per_layer"
    line = {}
    for m in spec[kind]:
        got = metrics[m["name"]]
        line[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": line}))
    return 0 if correct else 1


def record_golden(names: list[str]) -> int:
    """Run one pass per input variant and store its output digests. Only
    meaningful at a commit whose outputs are the reference."""
    cli = import_netgame()
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    for name in names:
        table = {}
        for variant in range(workloads.VARIANTS):
            wl = workloads.workload(name, variant)
            workdir = WORK / name
            workloads.write_inputs(wl, str(workdir))
            os.chdir(workdir)
            p = run_pass(cli, wl, None)
            if p["failures"]:
                print(f"bench: {name} variant {variant} failed: {p['failures']}", file=sys.stderr)
                return 1
            table[str(variant)] = p["digests"]
            print(f"{name} variant {variant}: {p['wall_s']:.2f} s", flush=True)
        golden[name] = table
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
