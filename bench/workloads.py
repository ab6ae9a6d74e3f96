"""Workload definitions: the input graphs each workload generates and the
CLI jobs one pass runs over them.

A workload seed selects one of ``VARIANTS`` input variants (``seed %
VARIANTS``). Every generator seed of a variant is derived from the variant
number, so the same seed always gives the same inputs, and every variant has
golden output digests in ``golden.json``. The program sees only the graph
files written here and the CLI arguments of each job.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

VARIANTS = 16


def derived_seed(variant: int, label: str) -> int:
    """A 32-bit generator seed for one input of one variant."""
    digest = hashlib.sha256(f"netgame-bench/{variant}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class Job:
    """One CLI call. ``outputs`` are the files it writes, under fixed
    relative names, which are hashed for the golden check."""

    name: str
    subcommand: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    env: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: dict  # file name -> (generator, args) for write_inputs
    jobs: tuple[Job, ...]


def _run(name: str, game: list[str], graph: str, seed: int, extra: list[str] = ()) -> Job:
    argv = ["run", *game, "--graph-file", graph, "--seed", str(seed), *extra,
            "--out", f"{name}.csv", "--profile-out", f"{name}.json"]
    return Job(name, "run", tuple(argv), (f"{name}.csv", f"{name}.json"))


def _verify(name: str, game: list[str], graph: str, profile: str) -> Job:
    argv = ["verify", *game, "--graph-file", graph, "--profile", profile, "--out", f"{name}.json"]
    return Job(name, "verify", tuple(argv), (f"{name}.json",))


def _poa(name: str, args: list[str]) -> Job:
    return Job(name, "poa", ("poa", *args, "--out", f"{name}.json"), (f"{name}.json",))


def _gen(name: str, args: list[str]) -> Job:
    return Job(name, "gen", ("gen", *args, "--out", f"{name}.json"), (f"{name}.json",))


def _simgame(name: str, n: int, orders: int, seed: int) -> Job:
    argv = ("simgame", "--n", str(n), "--orders", str(orders), "--seed", str(seed),
            "--out", f"{name}.json")
    return Job(name, "simgame", argv, (f"{name}.json",))


PGG = ["--game", "pgg", "--c", "1/2"]
MINORITY = ["--game", "minority"]
COLORING5 = ["--game", "coloring", "--k", "5"]


def dynamics_large(variant: int) -> Workload:
    s = lambda label: derived_seed(variant, label)  # noqa: E731
    threads = str(min(2, len(os.sched_getaffinity(0))))
    jobs = (
        _run("run_pgg", PGG, "torus.json", s("run-pgg")),
        _run("run_minority", MINORITY, "rr.json", s("run-minority"), ["--max-rounds", "6"]),
        _run("run_coloring", COLORING5, "rr.json", s("run-coloring")),
        _verify("verify_pgg", PGG, "torus.json", "run_pgg.json"),
        _verify("verify_minority", MINORITY, "rr.json", "run_minority.json"),
        _verify("verify_coloring", COLORING5, "rr.json", "run_coloring.json"),
        Job("local_sim", "local-sim",
            ("local-sim", *COLORING5, "--graph-file", "rr.json", "--rounds", "3",
             "--seed", str(s("local-sim")), "--coloring-out", "local_sim_coloring.json",
             "--profile-out", "local_sim_profile.json"),
            ("local_sim_coloring.json", "local_sim_profile.json")),
        Job("ineff", "ineff",
            ("ineff", *MINORITY, "--graph-file", "rr_small.json", "--T", "5",
             "--trials", "4", "--seed", str(s("ineff")), "--out", "ineff.json"),
            ("ineff.json",), env={"NETGAME_THREADS": threads}),
    )
    inputs = {
        "rr.json": ("random_regular", (10000, 3, s("rr"))),
        "torus.json": ("torus", (100,)),
        "rr_small.json": ("random_regular", (2000, 3, s("rr-small"))),
    }
    return Workload("dynamics-large", inputs, jobs)


def exhaustive_small(variant: int) -> Workload:
    s = lambda label: derived_seed(variant, label)  # noqa: E731
    jobs = (
        _poa("poa_pgg_instance", ["--family", "pgg-instance", "--d", "3", "--k", "2",
                                  "--c", "1/2", "--seed", str(s("pgg-instance"))]),
        _poa("poa_minority", ["--family", "minority-instance", "--graph-file", "rr14.json"]),
        _poa("poa_coloring3", ["--family", "enumerate", "--game", "coloring", "--k", "3",
                               "--graph-file", "torus3.json"]),
        Job("ineff", "ineff",
            ("ineff", *PGG, "--graph-file", "rr14.json", "--T", "5", "--trials", "20",
             "--seed", str(s("ineff")), "--out", "ineff.json"),
            ("ineff.json",)),
        Job("frozen", "frozen",
            ("frozen", "--n", "6", "--k", "5", "--seed", str(s("frozen")),
             "--budget", "50000", "--out", "frozen.json"),
            ("frozen.json",)),
    )
    inputs = {
        "rr14.json": ("random_regular", (14, 3, s("rr14"))),
        "torus3.json": ("torus", (3,)),
    }
    return Workload("exhaustive-small", inputs, jobs)


def construct(variant: int) -> Workload:
    s = lambda label: str(derived_seed(variant, label))  # noqa: E731
    # The girth-8 rewiring always starts from variant 0's graph: over the 16
    # variants its swap count ranges from 14 to 30 and its time by 2.5x, which
    # alone would spread this workload's pass time by more than the noise.
    jobs = (
        _gen("gen_rr_girth", ["--graph", "random-regular", "--n", "1000", "--d", "3",
                              "--seed", str(derived_seed(0, "gen-rr")), "--cut-girth", "8"]),
        _gen("gen_torus_bipartite", ["--graph", "torus", "--n", "16", "--cut-girth", "6",
                                     "--constraint", "bipartition"]),
        _gen("gen_star_cover", ["--graph", "star-matching", "--k", "64", "--d", "3",
                                "--seed", s("gen-star"), "--cut-girth", "6",
                                "--constraint", "leaf-edges", "--double-cover"]),
        _gen("gen_power", ["--graph", "random-regular", "--n", "2000", "--d", "3",
                           "--seed", s("gen-power"), "--power", "2"]),
        _simgame("simgame64", 64, 8, int(s("simgame64"))),
        _simgame("simgame128", 128, 8, int(s("simgame128"))),
    )
    return Workload("construct", {}, jobs)


BUILDERS = {
    "dynamics-large": dynamics_large,
    "exhaustive-small": exhaustive_small,
    "construct": construct,
}


def workload(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed % VARIANTS)


def write_inputs(wl: Workload, workdir: str) -> None:
    """Generate the workload's input graph files with netgame's own
    generators; ``netgame`` must already be importable."""
    from netgame import network

    os.makedirs(workdir, exist_ok=True)
    for fname, (gen, args) in wl.inputs.items():
        net = getattr(network, gen)(*args)
        payload = network.graph_to_json(net, meta={"generator": gen, "args": list(args)})
        with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
