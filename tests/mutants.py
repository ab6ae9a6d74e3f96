"""Mutation check: each mutant below must make its test files fail.

Run from the root of a source checkout, after Tier-1 passes:

    python tests/mutants.py

Each mutant replaces one text, which must occur exactly once in its file,
in a temporary copy of ``src/``; the checkout is never written. Its test
files then run under pytest with that copy first on ``PYTHONPATH``, and a
one-hook pytest plugin records the ``netgame`` package the run imported, so
a run that imported any other copy is an error, not a kill. Hypothesis runs
with a fixed seed, so the verdicts repeat.

A mutant marked "killed" must fail its tests. One marked equivalent must
pass them, and its row says why no test can tell it apart: a table that
calls a caught mutant equivalent is out of date. The script exits 1 when a
verdict differs from the table or an old text does not occur exactly once.
It needs only the standard library, pytest and the test suite's own
dependencies; its name keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KILLED = "killed"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/netgame
    old: str
    new: str
    tests: tuple[str, ...]  # under tests/
    verdict: str  # KILLED, or "equivalent, because ..."


MUTANTS = (
    # -- run-time invariants of the game kinds
    Mutant(
        "cut switch check at a tie", "game.py",
        "!= own) <= len(nbrs):", "!= own) < len(nbrs):",
        ("test_dynamics.py",), KILLED,
    ),
    Mutant(
        "cut read from the welfare: final check dropped", "dynamics.py",
        "    if counted != cuts[-1]:", "    if False:",
        ("test_local_sim.py", "test_dynamics.py"), KILLED,
    ),
    # -- the local replay is `dynamics.run` under the colour-major order
    Mutant(
        "replay plays rounds - 1", "local_sim.py",
        "FixedOrder(order), rounds).final", "FixedOrder(order), rounds - 1).final",
        ("test_local_sim.py",), KILLED,
    ),
    Mutant(
        "replay in index order", "local_sim.py",
        "order = tuple(sorted(range(game.network.node_count), key=coloring.colors.__getitem__))",
        "order = tuple(range(game.network.node_count))",
        ("test_local_sim.py",), KILLED,
    ),
    # -- the exhaustive search
    Mutant(
        "branch and bound at a tie", "oracle.py",
        "if rest[0] > best:", "if rest[0] >= best:",
        ("test_oracle.py",),
        "equivalent, because a walk of the paying profiles that cannot beat the best "
        "welfare found changes the work, not the output; no test counts search nodes",
    ),
    # -- graph files, seeds and the verifier
    Mutant(
        "graph file: repeated edge taken as increasing", "network.py",
        "if not prev < item:", "if not prev <= item:",
        ("test_network.py",), KILLED,
    ),
    Mutant(
        "shuffle accepts a draw equal to n", "seeds.py",
        "while j >= n:", "while j > n:",
        ("test_seeds.py",), KILLED,
    ),
    Mutant(
        "verify keys read from an all-zero labeling", "lvl.py",
        "zip(engine.keys(labels), labels)", "zip(engine.keys([0] * len(labels)), labels)",
        ("test_lvl.py",), KILLED,
    ),
    # -- the girth cut
    Mutant(
        "ball level cap one too deep", "network.py",
        "(limit is None or depth < limit)", "(limit is None or depth <= limit)",
        ("test_network.py",), KILLED,
    ),
    Mutant(
        "rescan radius one short", "network.py",
        "(u, v, up, vp), (g - 2) // 2)", "(u, v, up, vp), (g - 3) // 2)",
        ("test_network.py",), KILLED,
    ),
    Mutant(
        "meet in the middle: radii swapped", "network.py",
        "near = _ball(adjacency, (a,), (limit + 1) // 2)\n"
        "        return not near.keys().isdisjoint(_ball(adjacency, (b,), limit // 2))",
        "near = _ball(adjacency, (a,), limit // 2)\n"
        "        return not near.keys().isdisjoint(_ball(adjacency, (b,), (limit + 1) // 2))",
        ("test_network.py",),
        "equivalent, because the two radii still sum to limit, and the edge is undirected",
    ),
    Mutant(
        "meet in the middle: both radii limit // 2", "network.py",
        "near = _ball(adjacency, (a,), (limit + 1) // 2)", "near = _ball(adjacency, (a,), limit // 2)",
        ("test_network.py",), KILLED,
    ),
    Mutant(
        "meet in the middle: both radii (limit + 1) // 2", "network.py",
        "isdisjoint(_ball(adjacency, (b,), limit // 2))", "isdisjoint(_ball(adjacency, (b,), (limit + 1) // 2))",
        ("test_network.py",), KILLED,
    ),
    Mutant(
        "root scan bound never lowered", "network.py",
        "                    bound = (cand - 1) // 2\n", "                    pass\n",
        ("test_network.py",), KILLED,
    ),
    Mutant(
        "root scan stops one level early", "network.py",
        "if dx > bound:", "if dx >= bound:",
        ("test_network.py",), KILLED,
    ),
    # -- the simulation game
    Mutant(
        "truncated run radius t", "simgame.py",
        "view.within(x, t - 1)", "view.within(x, t)",
        ("test_simgame.py",), KILLED,
    ),
    Mutant(
        "truncated run radius t - 2", "simgame.py",
        "view.within(x, t - 1)", "view.within(x, t - 2)",
        ("test_simgame.py",), KILLED,
    ),
    Mutant(
        "join test filtered to the truncated ball", "simgame.py",
        "        for w in sorted(view.within(x, t - 1), key=coloring.__getitem__):\n"
        "            if joined.isdisjoint(adjacency[w]):",
        "        within = view.within(x, t - 1)\n"
        "        for w in sorted(within, key=coloring.__getitem__):\n"
        "            if not any(y in joined for y in adjacency[w] if y in within):",
        ("test_simgame.py",),
        "equivalent, because every joined node lies in the truncated ball",
    ),
    Mutant(
        "join test negated", "simgame.py",
        "if joined.isdisjoint(adjacency[w]):", "if not joined.isdisjoint(adjacency[w]):",
        ("test_simgame.py",), KILLED,
    ),
    Mutant(
        "join test over the center's neighbors", "simgame.py",
        "if joined.isdisjoint(adjacency[w]):", "if joined.isdisjoint(adjacency[x]):",
        ("test_simgame.py",), KILLED,
    ),
    Mutant(
        "opening check reads radius 1 of the merged map", "simgame.py",
        "for y in near[x]:", "for y in sim.network.neighbors(x):",
        ("test_simgame.py",), KILLED,
    ),
)

# A pytest plugin that records where ``netgame`` was imported from.
PROBE = '''
import os


def pytest_sessionfinish(session):
    import netgame

    with open(os.environ["MUTANT_PROBE_OUT"], "w", encoding="utf-8") as fh:
        fh.write(os.path.realpath(netgame.__file__))
'''


def mutate(mutant: Mutant, src: Path) -> None:
    """Apply ``mutant`` to the copy ``src`` of ``src/``."""
    path = src / "netgame" / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: old text occurs {count} times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def killed(mutant: Mutant, scratch: Path) -> bool:
    """Whether the mutant's test files fail against a mutated copy of ``src/``."""
    src = scratch / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    mutate(mutant, src)
    (scratch / "mutant_probe.py").write_text(PROBE, encoding="utf-8")
    probe_out = scratch / "imported"
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(src), str(scratch)]),
        "PYTHONDONTWRITEBYTECODE": "1",
        "MUTANT_PROBE_OUT": str(probe_out),
    }
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-p", "mutant_probe",
        "--hypothesis-seed=0", *(str(ROOT / "tests" / name) for name in mutant.tests),
    ]
    # The hypothesis example database goes to the scratch directory, the cwd.
    done = subprocess.run(cmd, cwd=scratch, env=env, capture_output=True, text=True)
    imported = probe_out.read_text(encoding="utf-8") if probe_out.exists() else None
    if imported != os.path.realpath(src / "netgame" / "__init__.py"):
        print(done.stdout[-2000:], done.stderr[-2000:], sep="\n")
        raise SystemExit(f"{mutant.name}: the tests imported {imported}, not the mutated copy")
    if done.returncode not in (0, 1):  # 1: tests failed; anything else: pytest itself failed
        print(done.stdout[-2000:], done.stderr[-2000:], sep="\n")
        raise SystemExit(f"{mutant.name}: pytest exited {done.returncode}")
    return done.returncode == 1


def main() -> int:
    wrong = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="netgame-mutant-") as scratch:
            caught = killed(mutant, Path(scratch))
        expected = mutant.verdict == KILLED
        ok = caught == expected
        wrong += not ok
        outcome = "killed" if caught else "survived"
        note = "" if ok else ("  <- table says killed" if expected else "  <- table says equivalent")
        print(f"{outcome:8} {time.perf_counter() - start:5.1f} s  {mutant.file}: {mutant.name}{note}", flush=True)
    if wrong:
        print(f"{wrong} mutant verdicts differ from the table")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
