"""Command-line harness for reproducible experiments.

Exit status: 0 on success, 1 on guard or validation errors (one-line
diagnostic naming the violated precondition), 2 on usage errors. Every
output file embeds the resolved configuration and seeds in a ``meta``
block, a ``run --config`` the config in place of the run flags it overrides;
``--deterministic`` suppresses the timestamp so identical runs produce
byte-identical files. Rationals cross this boundary as ``"p/q"`` text,
never as decimals.

Flags meet the checks of a config: ``run``'s flags become a config, the game
flags of every command are a config's ``game`` section, and ``gen``'s flags a
``graph`` section (`_generate`), so a flag for a parameter the game or
generator lacks is rejected with the flag's name; ``poa`` rejects a flag
its ``--family`` does not read (`_POA_FLAGS`).

The argument parser is built once per process (`build_parser` is cached);
``parse_args`` keeps no state between calls.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from random import Random

from . import dynamics, game as game_mod, local_sim, lvl, network, oracle, simgame
from .errors import NetgameError, ValidationError
from .seeds import derive_seed, shuffle


def _meta(args: argparse.Namespace, **extra) -> dict:
    resolved = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "command") and v is not None
    }
    meta = {"command": args.command, "args": resolved, **extra}
    if not getattr(args, "deterministic", False):
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


def _write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as ``json.dumps(payload, indent=2, sort_keys=True)``
    plus a newline, byte for byte, in pieces (see `_emit`)."""
    with open(path, "w", encoding="utf-8") as fh:
        _emit(fh.write, payload, "\n")
        fh.write("\n")


def _emit(write, value, nl: str) -> None:
    """Stream ``value`` indented as ``json.dumps(indent=2, sort_keys=True)``
    does, ``nl`` being a newline and the current indentation.

    Dicts with ``str`` keys, lists, tuples, strings and exact ints are
    written here, an int list, or a list of int pairs such as an edge list,
    as one ``join`` per slice of ``_SLICE`` items (json's pure-Python
    indented encoder takes several generator steps per item); every other
    value (None, bools, floats, empty containers, dicts with other keys) is
    ``json.dumps`` re-indented. Writing in pieces keeps a large list from
    being held as one string."""
    if isinstance(value, str):
        write(encode_basestring_ascii(value))
    elif type(value) is int:
        write(int.__repr__(value))
    elif value and isinstance(value, dict) and all(isinstance(key, str) for key in value):
        inner = nl + "  "
        lead = "{" + inner
        for key in sorted(value):
            write(lead + encode_basestring_ascii(key) + ": ")
            _emit(write, value[key], inner)
            lead = "," + inner
        write(nl + "}")
    elif value and isinstance(value, (list, tuple)):
        inner = nl + "  "
        sep = "," + inner
        if set(map(type, value)) == {int}:
            for i in range(0, len(value), _SLICE):
                write(("[" if i == 0 else ",") + inner
                      + sep.join(map(int.__repr__, value[i : i + _SLICE])))
        elif (set(map(type, value)) <= {list, tuple} and set(map(len, value)) == {2}
              and set(map(type, chain.from_iterable(value))) == {int}):
            pair = "[" + inner + "  %d," + inner + "  %d" + inner + "]"
            for i in range(0, len(value), _SLICE):
                write(("[" if i == 0 else ",") + inner
                      + sep.join([pair % (u, v) for u, v in value[i : i + _SLICE]]))
        else:
            lead = "[" + inner
            for item in value:
                write(lead)
                _emit(write, item, inner)
                lead = sep
        write(nl + "]")
    else:
        write(json.dumps(value, indent=2, sort_keys=True).replace("\n", nl))


_SLICE = 1024


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"{what} file not found: {path}")
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise ValidationError(f"{what} file {path} is not valid JSON: {exc}")
    except RecursionError:
        raise ValidationError(f"{what} file {path} is nested too deeply")


def _load_graph(path: str) -> network.Network:
    """The network in a graph file. Cyclic GC is paused for the parse and the
    build, which allocate tens of thousands of lists that all stay live, and
    then left as it was found."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return network.graph_from_json(_load_json(path, "graph"))
    finally:
        if enabled:
            gc.enable()


def _game_descriptor(args: argparse.Namespace) -> dict:
    """The game descriptor spelled by ``--game``, ``--c`` and ``--k``; the game
    rejects a flag for a parameter it lacks, as it rejects a config's key."""
    return {"game": args.game, "c": args.c, "k": args.k}


def _load_game(args: argparse.Namespace) -> game_mod.GraphicalGame:
    """The game of the game flags on the ``--graph-file`` network (``g.network``)."""
    return game_mod.game_from_descriptor(_game_descriptor(args), _load_graph(args.graph_file), "--")


# ---------------------------------------------------------------------------
# Experiment configs


# A config holds the graph, game and dynamics sections of a run, from a config
# file or translated from ``run`` flags, as the JSON object itself.
_CONFIG_SCHEMA = {
    "graph": {"file", "generator", "n", "d", "k", "seed"},
    "game": {"game", "c", "k"},
    "dynamics": {"policy", "seed", "init", "max_rounds"},
}


def _read_config(path: str) -> dict:
    obj = _load_json(path, "config")
    if not isinstance(obj, dict):
        raise ValidationError("config must be a JSON object")
    for key in obj:
        if key not in _CONFIG_SCHEMA:
            raise ValidationError(f"unknown config key at /{key}")
    for section, allowed in _CONFIG_SCHEMA.items():
        if section not in obj:
            raise ValidationError(f"config missing section /{section}")
        if not isinstance(obj[section], dict):
            raise ValidationError(f"config section /{section} must be an object")
        for key in obj[section]:
            if key not in allowed:
                raise ValidationError(f"unknown config key at /{section}/{key}")
    return obj


def _config_from_args(args: argparse.Namespace) -> dict:
    if args.graph_file is None:
        raise ValidationError("run needs --graph-file or --config")
    init = args.init
    if init != "random":
        try:
            init = [int(x) for x in init.split(",")]
        except ValueError:
            raise ValidationError(f"--init must be 'random' or 'i,j,...', got {init!r}") from None
    dyn = {"policy": args.policy, "seed": args.seed, "init": init, "max_rounds": args.max_rounds}
    return {"graph": {"file": args.graph_file}, "game": _game_descriptor(args), "dynamics": dyn}


def _build_run(config: dict) -> tuple:
    """Validate ``config`` and build the arguments of `dynamics.run`: the
    game (on the network, built once), the initial profile, the schedule
    policy and the round cap; and ``config`` without null values, with
    every seed a generator uses and every dynamics field filled in
    (``max_rounds`` None is the default cap)."""
    net, graph = _config_network(config["graph"])
    g = game_mod.game_from_descriptor(config["game"], net, "/game/")
    dyn = _present(config["dynamics"])
    seed = game_mod.typed_field(dyn, "seed", int, "/dynamics/", 0)
    init = given_init = dyn.get("init", "random")
    if init == "random":
        init = dynamics.RandomInit(seed)
    elif isinstance(init, list):
        init = tuple(init)
        try:
            game_mod.validate_profile(g, init)
        except ValidationError as exc:
            raise ValidationError(f"/dynamics/init: {exc}") from None
    else:
        raise ValidationError(f"/dynamics/init must be 'random' or a list of indices, got {init!r}")
    policy_name = game_mod.typed_field(dyn, "policy", ("random", "fixed"), "/dynamics/", "random")
    if policy_name == "random":
        policy = dynamics.FreshRandomEachRound(seed)
    else:
        policy = dynamics.FixedOrder(tuple(range(net.node_count)))
    max_rounds = game_mod.typed_field(dyn, "max_rounds", int, "/dynamics/", None)
    if max_rounds is not None and max_rounds < 1:
        raise ValidationError(f"/dynamics/max_rounds must be >= 1, got {max_rounds}")
    resolved_dyn = {"policy": policy_name, "seed": seed, "init": given_init, "max_rounds": max_rounds}
    resolved = {"graph": graph, "game": _present(config["game"]), "dynamics": resolved_dyn}
    return (g, init, policy, max_rounds), resolved


def _present(section: dict) -> dict:
    """``section`` without its null values: a null is the same as leaving the key out."""
    return {key: value for key, value in section.items() if value is not None}


def _config_network(graph: dict) -> tuple[network.Network, dict]:
    """The network of a config's graph section, and the section without null
    values, with the generator seed filled in, or left out for a generator
    that ignores it. A file stands alone; a generator is checked by
    `_generate`."""
    graph = _present(graph)
    if "file" in graph:
        for key in graph:
            if key != "file":
                raise ValidationError(f"/graph/{key} cannot be given with /graph/file")
        return _load_graph(game_mod.typed_field(graph, "file", str, "/graph/")), graph
    gen = game_mod.typed_field(graph, "generator", tuple(_GENERATORS), "/graph/")
    net, _, _, seed = _generate(gen, graph, "/graph/", gen)
    if _GENERATORS[gen][2]:  # the builder reads the seed
        return net, {**graph, "seed": seed}
    return net, {key: value for key, value in graph.items() if key != "seed"}


def _star_matching(params: dict, seed: int):
    net, _, leaf_edges = network.star_matching(params["k"], params["d"], seed)
    return net, leaf_edges


# Generator name (the config spelling; the CLI uses hyphens) -> its required
# integer parameters, a builder returning the network and, for
# star-matching only, its leaf edges, and whether the builder reads the seed.
_GENERATORS = {
    "ring": (("n",), lambda p, seed: (network.ring(p["n"]), None), False),
    "torus": (("n",), lambda p, seed: (network.torus(p["n"]), None), False),
    "random_regular": (
        ("n", "d"),
        lambda p, seed: (network.random_regular(p["n"], p["d"], seed), None),
        True,
    ),
    "star_matching": (("k", "d"), _star_matching, True),
}


def _generate(name: str, section: dict, prefix: str, shown: str):
    """Build generator ``name`` from ``section`` (no null values), which may
    hold ``generator``, ``seed`` (0 if absent) and the integer parameters
    of the generator, and nothing else.

    Returns the network, the star-matching leaf edges (None for other
    generators), the parameters used and the seed. Errors name a key as
    ``prefix + key`` and the generator as ``shown``.
    """
    required, build, _ = _GENERATORS[name]
    for key in section:
        if key not in ("generator", "seed", *required):
            raise ValidationError(f"{prefix}{key} is not a {shown} parameter")
    seed = game_mod.typed_field(section, "seed", int, prefix, 0)
    params = {key: game_mod.typed_field(section, key, int, prefix) for key in required}
    net, leaf_edges = build(params, seed)
    return net, leaf_edges, params, seed


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.cut_girth is None and args.constraint != "unconstrained":
        raise ValidationError(f"--constraint {args.constraint} needs --cut-girth")
    section = _present({key: vars(args)[key] for key in ("n", "d", "k", "seed")})
    net, leaf_edges, params, seed = _generate(args.graph.replace("-", "_"), section, "--", args.graph)

    if args.cut_girth is not None:
        if args.constraint == "leaf-edges":
            if leaf_edges is None:
                raise ValidationError("--constraint leaf-edges needs --graph star-matching")
            constraint = network.CycleCutConstraint.leaf_edges_only(leaf_edges)
        elif args.constraint == "bipartition":
            sides = network.two_coloring(net)
            if sides is None:
                raise ValidationError("--constraint bipartition needs a bipartite graph")
            constraint = network.CycleCutConstraint.preserve_bipartition(*sides)
        else:
            constraint = network.CycleCutConstraint.unconstrained()
        net = network.cut_short_cycles(net, args.cut_girth, constraint)
        params["cut_girth"] = args.cut_girth
        params["constraint"] = args.constraint
    if args.double_cover:
        net = network.bipartite_double_cover(net)
        params["double_cover"] = True
    if args.power is not None:
        net = network.power_graph(net, args.power)
        params["power"] = args.power

    payload = network.graph_to_json(
        net, meta={"generator": args.graph, "seed": seed, "params": params}
    )
    payload["meta"].update(_meta(args))
    _write_json(args.out, payload)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _read_config(args.config) if args.config is not None else _config_from_args(args)
    run_args, resolved = _build_run(config)
    extra = {}
    if args.config is not None:  # meta records the config, not the run flags it overrides
        vars(args).update(dict.fromkeys(("game", "c", "k", "graph_file", "policy", "init", "seed", "max_rounds")))
        extra = {"config": resolved}
    trace = dynamics.run(*run_args)
    csv_text = dynamics.trace_to_csv(trace)
    meta = _meta(
        args,
        converged=trace.converged,
        convergence_round=trace.convergence_round,
        rounds_executed=trace.rounds_executed,
        **extra,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    if args.profile_out is not None:
        payload = dynamics.profile_to_json(trace.final)
        payload["meta"] = meta
        _write_json(args.profile_out, payload)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_game(args)
    profile = dynamics.profile_from_json(_load_json(args.profile, "profile"))
    verdict = lvl.verify(lvl.compile_lvl(g), g.network, profile)
    payload = verdict.to_json()
    payload["meta"] = _meta(args)
    _write_json(args.out, payload)
    return 0


# The flags each poa family reads; ``--seed`` and ``--max-listed`` are open to
# every family, and any other flag given is rejected.
_POA_FLAGS = {
    "pgg-instance": ("c", "k", "d"),
    "minority-instance": ("graph_file",),
    "enumerate": ("game", "c", "k", "graph_file"),
}


def _cmd_poa(args: argparse.Namespace) -> int:
    for key in ("game", "c", "k", "d", "graph_file"):
        if vars(args)[key] is not None and key not in _POA_FLAGS[args.family]:
            raise ValidationError(f"--{key.replace('_', '-')} is not a {args.family} parameter")
    if args.max_listed < 0:
        raise ValidationError(f"--max-listed must be >= 0, got {args.max_listed}")
    if args.family == "pgg-instance":
        d, k, c = (
            game_mod.typed_field(vars(args), key, kind, "--")
            for key, kind in (("d", int), ("k", int), ("c", Fraction))
        )
        report = oracle.poa_pgg_instance(d, k, c, args.seed)
        payload = report.to_json(max_listed=args.max_listed)
    elif args.family == "minority-instance":
        if args.graph_file is None:
            raise ValidationError("poa --family minority-instance needs --graph-file")
        net = _load_graph(args.graph_file)
        payload = oracle.minority_poa_report(game_mod.minority_game(net))
    else:  # enumerate
        if args.graph_file is None or args.game is None:
            raise ValidationError("poa --family enumerate needs --graph-file and --game")
        payload = oracle.enumerate_ne(_load_game(args)).to_json(max_listed=args.max_listed)
    payload["meta"] = _meta(args)
    _write_json(args.out, payload)
    return 0


def _cmd_ineff(args: argparse.Namespace) -> int:
    report = oracle.measured_inefficiency(_load_game(args), args.T, args.trials, args.seed)
    payload = report.to_json()
    payload["meta"] = _meta(args)
    _write_json(args.out, payload)
    return 0


def _cmd_simgame(args: argparse.Namespace) -> int:
    if args.orders < 0:
        raise ValidationError(f"--orders must be >= 0, got {args.orders}")
    net = network.ring(args.n)
    base = game_mod.pgg_game(net, game_mod.typed_field(vars(args), "c", Fraction, "--"))
    algo = simgame.greedy_mis_normal_form(net.max_degree)
    sim = simgame.build_simulation_game(base, algo)
    verifier = lvl.compile_lvl(base)

    projection_ok = True
    for i in range(args.orders):
        rng = Random(derive_seed(args.seed, "order", i))
        order = list(range(net.node_count))
        shuffle(rng, order)
        # raises unless every agent ends the round at utility 1
        profile = simgame.play_simulation_round(sim, tuple(order))
        projection = simgame.project(sim, profile)
        if not lvl.verify(verifier, net, projection).accepted:
            projection_ok = False
    payload = simgame.simulation_report(sim, projection_ok)
    payload["orders_tested"] = args.orders
    payload["meta"] = _meta(args)
    _write_json(args.out, payload)
    return 0


def _cmd_frozen(args: argparse.Namespace) -> int:
    if args.budget < 0:
        raise ValidationError(f"--budget must be >= 0, got {args.budget}")
    net = network.torus(args.n)
    profile = oracle.find_frozen_configuration(net, args.k, args.seed, args.budget)
    payload: dict = {"found": profile is not None}
    if profile is not None:
        payload["profile"] = list(profile)
        g = game_mod.coloring_game(net, args.k)
        payload["verifier_accepts"] = lvl.verify(lvl.compile_lvl(g), net, profile).accepted
        payload["proper"] = oracle.is_proper_coloring(g, profile)
    payload["meta"] = _meta(args)
    _write_json(args.out, payload)
    return 0


def _cmd_local_sim(args: argparse.Namespace) -> int:
    g = _load_game(args)
    coloring = local_sim.distance_coloring(g.network)
    init = game_mod.random_profile(g, Random(derive_seed(args.seed, "init")))
    final, orders = local_sim.simulate_fair_rounds(g, init, coloring, args.rounds)
    payload = coloring.to_json()
    payload["local_rounds_per_fair_round"] = coloring.palette_size
    payload["round_accounting_note"] = (
        "round counts cover the schedule phase only; the coloring phase is excluded"
    )
    payload["meta"] = _meta(args, rounds=args.rounds)
    _write_json(args.coloring_out, payload)
    if args.profile_out is not None:
        out = dynamics.profile_to_json(final)
        out["meta"] = _meta(args, induced_orders=[list(o) for o in orders])
        _write_json(args.profile_out, out)
    return 0


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one argument parser, shared by every call: do not change it."""
    parser = argparse.ArgumentParser(
        prog="netgame",
        description="Games on networks: dynamics, local verification, oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--deterministic", action="store_true", help="omit timestamps from outputs")

    def game_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
        p.add_argument("--game", required=required, choices=list(game_mod.GAME_KINDS))
        p.add_argument("--c", help="production cost p/q for pgg")
        p.add_argument("--k", type=int, help="color count for coloring")

    p = sub.add_parser("gen", help="generate a graph JSON file")
    p.add_argument("--graph", required=True, choices=[g.replace("_", "-") for g in _GENERATORS])
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--cut-girth", type=int, help="raise girth to this value by edge swaps")
    p.add_argument("--constraint", choices=["unconstrained", "leaf-edges", "bipartition"], default="unconstrained")
    p.add_argument("--double-cover", action="store_true")
    p.add_argument("--power", type=int, help="take the distance-<=r power graph")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="run fair-round best-response dynamics")
    game_flags(p, required=False)
    p.add_argument("--graph-file")
    p.add_argument("--policy", choices=["random", "fixed"], default="random")
    p.add_argument("--init", default="random", help="'random' or action indices 'i,j,...'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rounds", type=int)
    p.add_argument("--config", help="experiment config JSON (overrides other flags)")
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.add_argument("--profile-out", help="final profile JSON path")
    common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify", help="verify a labeling with the compiled local checker")
    game_flags(p)
    p.add_argument("--graph-file", required=True)
    p.add_argument("--profile", required=True, help="profile JSON path")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("poa", help="exhaustive equilibrium and price-of-anarchy reports")
    p.add_argument("--family", required=True, choices=["pgg-instance", "minority-instance", "enumerate"])
    game_flags(p, required=False)
    p.add_argument("--d", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--graph-file")
    p.add_argument("--max-listed", type=int, default=1000, help="cap on listed equilibria")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_poa)

    p = sub.add_parser("ineff", help="measured round-limited inefficiency report")
    game_flags(p)
    p.add_argument("--graph-file", required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_ineff)

    p = sub.add_parser("simgame", help="play the derived one-round game on a ring")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--c", default="1/2")
    p.add_argument("--orders", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_simgame)

    p = sub.add_parser("frozen", help="search for a stuck non-proper coloring equilibrium")
    p.add_argument("--n", type=int, required=True, help="torus side length")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=10**6)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_frozen)

    p = sub.add_parser("local-sim", help="schedule-driven parallel replay of fair rounds")
    game_flags(p)
    p.add_argument("--graph-file", required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coloring-out", required=True)
    p.add_argument("--profile-out")
    common(p)
    p.set_defaults(func=_cmd_local_sim)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NetgameError, OSError) as exc:  # OSError: an input or output file
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
