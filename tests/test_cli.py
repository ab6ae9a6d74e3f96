import contextlib
import io
import json
import tempfile
import time
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from random import Random

import pytest

from netgame import cli
from netgame.cli import main
from netgame.errors import ValidationError
from netgame.game import is_nash_equilibrium, pgg_game
from netgame.network import graph_from_json


def run_cli(*argv) -> int:
    return main(list(argv))


def test_gen_torus(tmp_path):
    out = tmp_path / "g.json"
    assert run_cli("gen", "--graph", "torus", "--n", "6", "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    assert obj["n"] == 36
    assert len(obj["edges"]) == 72
    assert obj["max_degree"] == 4
    assert obj["meta"]["generator"] == "torus"
    # --seed is open to every generator, as /graph/seed is.
    assert run_cli("gen", "--graph", "torus", "--n", "6", "--seed", "3", "--out", str(out)) == 0
    assert json.loads(out.read_text())["edges"] == obj["edges"]


def test_gen_with_transforms(tmp_path):
    out = tmp_path / "g.json"
    code = run_cli(
        "gen", "--graph", "random-regular", "--n", "32", "--d", "3", "--seed", "4",
        "--cut-girth", "5", "--double-cover", "--out", str(out),
    )
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["n"] == 64
    assert obj["max_degree"] == 3


def test_run_pgg_converges_within_two_rounds(tmp_path):
    g = tmp_path / "g.json"
    run_cli("gen", "--graph", "torus", "--n", "5", "--out", str(g))
    traj = tmp_path / "traj.csv"
    prof = tmp_path / "p.json"
    code = run_cli(
        "run", "--game", "pgg", "--c", "1/2", "--graph-file", str(g),
        "--policy", "random", "--seed", "7",
        "--out", str(traj), "--profile-out", str(prof),
    )
    assert code == 0
    meta = json.loads(prof.read_text())["meta"]
    assert meta["converged"] is True
    assert meta["convergence_round"] <= 2
    lines = traj.read_text().strip().split("\n")
    assert lines[0] == "round,welfare_num,welfare_den,switches"
    assert len(lines) == meta["rounds_executed"] + 2  # header + rounds + initial


def test_verify_subcommand(tmp_path):
    g = tmp_path / "g.json"
    run_cli("gen", "--graph", "ring", "--n", "4", "--out", str(g))
    prof = tmp_path / "p.json"
    prof.write_text(json.dumps({"profile": [1, 0, 1, 0]}))
    out = tmp_path / "verdict.json"
    assert run_cli(
        "verify", "--game", "pgg", "--c", "1/2", "--graph-file", str(g),
        "--profile", str(prof), "--out", str(out),
    ) == 0
    assert json.loads(out.read_text())["accepted"] is True


def test_poa_pgg_instance(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        "poa", "--family", "pgg-instance", "--d", "3", "--k", "2", "--c", "1/2",
        "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["poa"] == "7/6"
    assert report["best_welfare"] == "14"


def test_poa_enumerate_elides_long_lists(tmp_path):
    g = tmp_path / "g.json"
    run_cli("gen", "--graph", "torus", "--n", "3", "--out", str(g))
    out = tmp_path / "report.json"
    code = run_cli(
        "poa", "--family", "enumerate", "--game", "coloring", "--k", "3",
        "--graph-file", str(g), "--max-listed", "5", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["equilibria_elided"] is True
    assert len(report["equilibria"]) == 5


def test_poa_enumerate_lists_the_lexicographically_smallest_equilibria(tmp_path):
    g = tmp_path / "g.json"
    run_cli("gen", "--graph", "ring", "--n", "7", "--out", str(g))
    game = pgg_game(graph_from_json(json.loads(g.read_text())), Fraction(1, 2))
    full = [p for p in product(range(2), repeat=7) if is_nash_equilibrium(game, p)]
    out = tmp_path / "report.json"
    code = run_cli(
        "poa", "--family", "enumerate", "--game", "pgg", "--c", "1/2",
        "--graph-file", str(g), "--max-listed", "3", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["equilibrium_count"] == len(full) > 3
    assert report["equilibria_elided"] is True
    assert report["equilibria"] == [list(p) for p in sorted(full)[:3]]


def test_poa_negative_max_listed_exits_1(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli("gen", "--graph", "ring", "--n", "6", "--out", str(g))
    out = tmp_path / "report.json"
    code = run_cli(
        "poa", "--family", "enumerate", "--game", "minority", "--graph-file", str(g),
        "--max-listed", "-1", "--out", str(out),
    )
    assert code == 1
    assert capsys.readouterr().err == "error: --max-listed must be >= 0, got -1\n"
    assert not out.exists()


POA_FLAGS = {"--game": "minority", "--c": "1/2", "--k": "3", "--d": "3", "--graph-file": "g.json"}
POA_READS = {
    "pgg-instance": {"--c", "--k", "--d"},
    "minority-instance": {"--graph-file"},
    "enumerate": {"--game", "--c", "--k", "--graph-file"},
}


@pytest.mark.parametrize("family", sorted(POA_READS))
def test_poa_rejects_the_first_flag_its_family_does_not_read(tmp_path, capsys, family):
    # every subset of the flags: the first unread one in POA_FLAGS order is named
    out = tmp_path / "report.json"
    for r in range(1, len(POA_FLAGS) + 1):
        for given in combinations(POA_FLAGS, r):
            stray = [flag for flag in given if flag not in POA_READS[family]]
            if not stray:
                continue
            argv = [x for flag in given for x in (flag, POA_FLAGS[flag])]
            assert run_cli("poa", "--family", family, *argv, "--seed", "3", "--out", str(out)) == 1
            assert capsys.readouterr().err == f"error: {stray[0]} is not a {family} parameter\n"
            assert not out.exists()


def test_simgame_negative_orders_exits_1(tmp_path, capsys):
    out = tmp_path / "sim.json"
    code = run_cli("simgame", "--n", "8", "--orders", "-3", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == "error: --orders must be >= 0, got -3\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["frozen", "--n", "3", "--k", "3", "--budget", "-1"], "--budget must be >= 0, got -1"),
        (["poa", "--family", "pgg-instance", "--k", "2", "--c", "1/2"],
         "--d must be an integer, got nothing"),
        (["poa", "--family", "pgg-instance", "--d", "3", "--c", "1/2"],
         "--k must be an integer, got nothing"),
        (["poa", "--family", "pgg-instance", "--d", "3", "--k", "2"],
         "--c must be a rational 'p/q', got nothing"),
        (["poa", "--family", "pgg-instance", "--d", "3", "--k", "2", "--c", "half"],
         "--c must be a rational 'p/q', got 'half'"),
        (["gen", "--graph", "ring", "--n", "5", "--d", "3", "--k", "7"], "--d is not a ring parameter"),
        (["gen", "--graph", "torus", "--n", "4", "--k", "3"], "--k is not a torus parameter"),
        (["gen", "--graph", "random-regular", "--n", "10", "--d", "3", "--k", "2", "--seed", "1"],
         "--k is not a random-regular parameter"),
        (["gen", "--graph", "star-matching", "--n", "8", "--d", "3", "--k", "2"],
         "--n is not a star-matching parameter"),
        (["simgame", "--n", "8", "--c", "x"], "--c must be a rational 'p/q', got 'x'"),
        (["gen", "--graph", "ring", "--seed", "1"], "--n must be an integer, got nothing"),
        (["poa", "--family", "pgg-instance", "--d", "3", "--k", "2", "--c", "1/2", "--game", "minority",
          "--graph-file", "nonexist.json"], "--game is not a pgg-instance parameter"),
        (["poa", "--family", "minority-instance", "--game", "pgg", "--c", "1/2", "--k", "3", "--d", "4"],
         "--game is not a minority-instance parameter"),
        (["poa", "--family", "enumerate", "--game", "minority", "--d", "4"],
         "--d is not a enumerate parameter"),
    ],
)
def test_flag_faults_exit_1(tmp_path, capsys, argv, message):
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "game_flags, key, game",
    [
        (["--game", "pgg", "--c", "1/2", "--k", "3"], "k", "pgg"),
        (["--game", "minority", "--c", "1/2"], "c", "minority"),
        (["--game", "coloring", "--k", "3", "--c", "1/2"], "c", "coloring"),
    ],
    ids=["pgg-k", "minority-c", "coloring-c"],
)
@pytest.mark.parametrize(
    "argv, out_flag, prefix",
    [
        (["run"], "--out", "/game/"),
        (["verify", "--profile", "p.json"], "--out", "--"),
        (["ineff", "--T", "2", "--trials", "3"], "--out", "--"),
        (["local-sim", "--rounds", "2"], "--coloring-out", "--"),
        (["poa", "--family", "enumerate"], "--out", "--"),
    ],
    ids=["run", "verify", "ineff", "local-sim", "poa-enumerate"],
)
def test_game_flag_the_game_lacks_is_rejected_as_a_config_key(
    tmp_path, monkeypatch, capsys, argv, out_flag, prefix, game_flags, key, game
):
    # A game flag meets the check of a config's game section: run names the
    # config pointer it translates the flag to, the other commands the flag.
    monkeypatch.chdir(tmp_path)
    assert run_cli("gen", "--graph", "ring", "--n", "6", "--out", "g.json") == 0
    Path("p.json").write_text(json.dumps({"profile": [0] * 6}))
    assert run_cli(*argv, *game_flags, "--graph-file", "g.json", out_flag, "out") == 1
    assert capsys.readouterr().err == f"error: {prefix}{key} is not a {game} parameter\n"
    assert not Path("out").exists()


def test_ineff_subcommand(tmp_path):
    g = tmp_path / "g.json"
    run_cli("gen", "--graph", "ring", "--n", "8", "--out", str(g))
    out = tmp_path / "ineff.json"
    code = run_cli(
        "ineff", "--game", "minority", "--graph-file", str(g),
        "--T", "2", "--trials", "10", "--seed", "3", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["trials"] == 10
    assert "/" in report["mean_br_welfare"] or report["mean_br_welfare"].isdigit()
    assert "note" in report


def test_frozen_subcommand(tmp_path):
    out = tmp_path / "frozen.json"
    code = run_cli(
        "frozen", "--n", "6", "--k", "4", "--seed", "1",
        "--budget", "1000000", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["found"] is True
    assert report["verifier_accepts"] is True
    assert report["proper"] is False


def test_local_sim_subcommand(tmp_path):
    g = tmp_path / "g.json"
    run_cli("gen", "--graph", "torus", "--n", "4", "--out", str(g))
    col = tmp_path / "col.json"
    prof = tmp_path / "p.json"
    code = run_cli(
        "local-sim", "--game", "coloring", "--k", "5", "--graph-file", str(g),
        "--rounds", "3", "--coloring-out", str(col), "--profile-out", str(prof),
    )
    assert code == 0
    coloring = json.loads(col.read_text())
    assert coloring["radius"] == 2
    assert coloring["palette"] <= 17
    assert len(coloring["colors"]) == 16
    assert coloring["local_rounds_per_fair_round"] == coloring["palette"]


def test_verify_with_malformed_profile_exits_1(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli("gen", "--graph", "ring", "--n", "4", "--out", str(g))
    prof = tmp_path / "p.json"
    prof.write_text("not json {")
    code = run_cli(
        "verify", "--game", "pgg", "--c", "1/2", "--graph-file", str(g),
        "--profile", str(prof), "--out", str(tmp_path / "v.json"),
    )
    assert code == 1
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("profile", [5, [True, False, True, False]])
def test_verify_with_mistyped_profile_exits_1(tmp_path, capsys, profile):
    g = tmp_path / "g.json"
    run_cli("gen", "--graph", "ring", "--n", "4", "--out", str(g))
    prof = tmp_path / "p.json"
    prof.write_text(json.dumps({"profile": profile}))
    code = run_cli(
        "verify", "--game", "pgg", "--c", "1/2", "--graph-file", str(g),
        "--profile", str(prof), "--out", str(tmp_path / "v.json"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "profile, message",
    [
        ([1, 0, 1], "profile has 3 entries for 4 nodes"),
        ([1, 0, 2, 0], "profile entry 2 invalid for node 2"),
        ([True, 0, 1, 0], "profile entry True invalid for node 0"),
    ],
    ids=["short", "out_of_range", "bool"],
)
def test_verify_names_the_bad_profile_entry(tmp_path, capsys, profile, message):
    g, prof, out = tmp_path / "g.json", tmp_path / "p.json", tmp_path / "v.json"
    run_cli("gen", "--graph", "ring", "--n", "4", "--out", str(g))
    prof.write_text(json.dumps({"profile": profile}))
    capsys.readouterr()
    assert run_cli("verify", "--game", "pgg", "--c", "1/2", "--graph-file", str(g),
                   "--profile", str(prof), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_validation_error_exits_1(tmp_path, capsys):
    out = tmp_path / "g.json"
    code = run_cli("gen", "--graph", "ring", "--n", "2", "--out", str(out))
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("constraint", ["leaf-edges", "bipartition"])
def test_gen_constraint_without_cut_girth_exits_1(tmp_path, capsys, constraint):
    out = tmp_path / "g.json"
    code = run_cli(
        "gen", "--graph", "star-matching", "--k", "4", "--d", "3",
        "--constraint", constraint, "--out", str(out),
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: --constraint {constraint} needs --cut-girth\n"
    assert not out.exists()


def test_bad_cost_exits_1(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli("gen", "--graph", "ring", "--n", "4", "--out", str(g))
    code = run_cli(
        "run", "--game", "pgg", "--c", "3/2", "--graph-file", str(g),
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 1
    assert "0 < c < 1" in capsys.readouterr().err


def test_write_json_matches_indented_json_dumps(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    text = st.one_of(
        st.text(),
        st.lists(st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x7f", "é", "\u2028", "\ud800", "😀"]))
        .map("".join),
    )
    ints = st.integers(-(2**70), 2**70)
    long_int_lists = st.builds(  # longer than one slice of the writer
        lambda size, seed: [Random(seed).randrange(-(2**40), 2**40) for _ in range(size)],
        st.integers(cli._SLICE - 2, cli._SLICE + 30), st.integers(0, 99),
    )
    int_lists = st.one_of(
        st.lists(ints, min_size=1, max_size=30),
        long_int_lists,
        st.lists(ints, min_size=1, max_size=5).map(lambda xs: [*xs, True]),  # a bool is not an int
        st.lists(ints, max_size=5).map(tuple),
    )
    pair = st.one_of(st.tuples(ints, ints), st.tuples(ints, ints).map(list))
    long_pair_lists = st.builds(  # edge lists longer than one slice of the writer
        lambda size, seed: [[u, u + Random(seed + u).randrange(1, 99)] for u in range(size)],
        st.integers(cli._SLICE - 2, cli._SLICE + 30), st.integers(0, 99),
    )
    pair_lists = st.one_of(
        st.lists(pair, min_size=1, max_size=20),
        long_pair_lists,
        st.lists(pair, min_size=1, max_size=5).map(tuple),
        # Pairs mixed with other items, with a bool, or next to an empty inner list.
        st.lists(st.one_of(pair, ints, st.lists(ints, max_size=3)), min_size=1, max_size=8),
        st.lists(pair, min_size=1, max_size=5).map(lambda ps: [*ps, [1, True]]),
        st.lists(pair, min_size=1, max_size=5).map(lambda ps: [*ps, []]),
        st.lists(pair, min_size=1, max_size=5).map(lambda ps: [*ps, (1, 2, 3)]),
    )
    scalars = st.one_of(st.none(), st.booleans(), ints, st.floats(), text)
    values = st.recursive(
        st.one_of(scalars, int_lists, pair_lists),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(text, children, max_size=4),
            st.dictionaries(ints, children, max_size=3),
            st.dictionaries(st.floats(allow_nan=False), children, max_size=3),
        ),
        max_leaves=12,
    )
    path = tmp_path / "out.json"

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.one_of(values, st.dictionaries(text, values, max_size=5)))
    def check(payload):
        cli._write_json(str(path), payload)
        assert path.read_bytes() == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()

    check()


@pytest.fixture
def piece_sizes(monkeypatch):
    """The length of every piece `cli._write_json` writes."""
    sizes = []

    class Recorder:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, piece):
            sizes.append(len(piece))
            return self.fh.write(piece)

    monkeypatch.setattr(cli, "open", lambda *args, **kw: Recorder(open(*args, **kw)), raising=False)
    return sizes


def test_write_json_streams_a_long_int_list(tmp_path, piece_sizes):
    # Pieces, not one string of the whole file: that keeps peak memory level.
    payload = {"profile": list(range(10000)), "n": 10000}
    cli._write_json(str(tmp_path / "p.json"), payload)
    written = (tmp_path / "p.json").read_text()
    assert written == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert len(piece_sizes) > 1 and max(piece_sizes) < len(written) // 2


def test_write_json_writes_an_edge_list_by_slice(tmp_path, piece_sizes):
    # One piece per slice of edges, not three per edge.
    payload = {"edges": [[u, u + 1] for u in range(3000)], "n": 3001}
    cli._write_json(str(tmp_path / "g.json"), payload)
    assert (tmp_path / "g.json").read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert len(piece_sizes) < 12


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "content, message",
    [
        (None, "graph file not found"),
        ("{not json", "is not valid JSON"),
        ('{"n": 3, "edges": [[0, 5]], "max_degree": 1}', "edge 0-5 out of range for n=3"),
        ('{"n": 3, "edges": [[0, 1], [1, 2]], "max_degree": 2}', None),
        ("[" * 100000 + "]" * 100000, "is nested too deeply"),
    ],
    ids=["missing", "not_json", "bad_graph", "good", "deep"],
)
def test_load_graph_leaves_gc_as_it_found_it(tmp_path, capsys, enabled, content, message):
    import gc

    path = tmp_path / "g.json"
    if content is not None:
        path.write_text(content)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if message is None:
            assert cli._load_graph(str(path)).edge_count == 2
        else:
            with pytest.raises(ValidationError):
                cli._load_graph(str(path))
        assert gc.isenabled() is enabled
        code = run_cli("verify", "--game", "minority", "--graph-file", str(path),
                       "--profile", str(tmp_path / "p.json"), "--out", str(tmp_path / "v.json"))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    err = capsys.readouterr().err
    assert code == 1 and len(err.strip().splitlines()) == 1
    # A good graph fails later, on the missing profile file.
    assert (message or "profile file not found") in err


def test_deterministic_outputs_are_byte_identical(tmp_path, monkeypatch):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        d.mkdir()
        monkeypatch.chdir(d)
        run_cli(
            "gen", "--graph", "random-regular", "--n", "20", "--d", "3",
            "--seed", "5", "--deterministic", "--out", "out.json",
        )
    assert (dirs[0] / "out.json").read_bytes() == (dirs[1] / "out.json").read_bytes()


# -- experiment configs


def make_config(tmp_path, **overrides) -> dict:
    cfg = {
        "graph": {"generator": "ring", "n": 6},
        "game": {"game": "pgg", "c": "1/2"},
        "dynamics": {"policy": "random", "seed": 4, "init": "random"},
    }
    cfg.update(overrides)
    return cfg


def assert_config_rejected(tmp_path, capsys, cfg, message):
    """``run --config`` on ``cfg`` exits 1 with the one line ``error: message``
    and writes no output file."""
    path, csv, prof = tmp_path / "cfg.json", tmp_path / "t.csv", tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("run", "--config", str(path), "--out", str(csv), "--profile-out", str(prof)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not csv.exists() and not prof.exists()


def test_config_rejects_bad_cost(tmp_path, capsys):
    cfg = make_config(tmp_path, game={"game": "pgg", "c": "3/2"})
    assert_config_rejected(tmp_path, capsys, cfg, "production cost must satisfy 0 < c < 1, got 3/2")


def test_config_rejects_unknown_keys_with_pointer(tmp_path, capsys):
    cfg = make_config(tmp_path)
    cfg["dynamics"]["mystery"] = 1
    assert_config_rejected(tmp_path, capsys, cfg, "unknown config key at /dynamics/mystery")


def test_config_generator_missing_parameter_names_pointer(tmp_path, capsys):
    cfg = make_config(tmp_path, graph={"generator": "ring"})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = run_cli("run", "--config", str(path), "--out", str(tmp_path / "t.csv"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "/graph/n" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "graph, message",
    [
        ({"generator": "ring", "n": 5, "d": 3}, "/graph/d is not a ring parameter"),
        ({"generator": "torus", "n": 4, "k": 2}, "/graph/k is not a torus parameter"),
        ({"generator": "star_matching", "k": 2, "d": 3, "n": 8}, "/graph/n is not a star_matching parameter"),
        ({"file": "g.json", "generator": "ring"}, "/graph/generator cannot be given with /graph/file"),
        ({"file": "g.json", "n": 6}, "/graph/n cannot be given with /graph/file"),
        ({"generator": "random_regular", "n": 10, "d": 3, "k": 2, "seed": 1},
         "/graph/k is not a random_regular parameter"),
    ],
)
def test_config_graph_rejects_keys_its_source_ignores(tmp_path, capsys, graph, message):
    assert_config_rejected(tmp_path, capsys, make_config(tmp_path, graph=graph), message)


def test_config_nested_too_deeply_exits_1(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"graph": ' + "[" * 100000 + "]" * 100000 + "}")
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "t.csv")) == 1
    assert capsys.readouterr().err == f"error: config file {path} is nested too deeply\n"
    assert not (tmp_path / "t.csv").exists()


def test_config_missing_graph_file_names_path(tmp_path, capsys):
    cfg = make_config(tmp_path, graph={"file": str(tmp_path / "nope.json")})
    assert_config_rejected(tmp_path, capsys, cfg, f"graph file not found: {tmp_path / 'nope.json'}")


def test_run_from_config(tmp_path):
    cfg = make_config(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    traj, prof = tmp_path / "traj.csv", tmp_path / "prof.json"
    assert run_cli("run", "--config", str(path), "--out", str(traj), "--profile-out", str(prof)) == 0
    assert traj.read_text().startswith("round,welfare_num")
    # The round cap takes its default; ring ignores the generator seed, so
    # the resolved section leaves it out.
    resolved = json.loads(prof.read_text())["meta"]["config"]
    assert resolved["graph"] == cfg["graph"]
    assert resolved["game"] == cfg["game"]
    assert resolved["dynamics"] == {**cfg["dynamics"], "max_rounds": None}


@pytest.mark.parametrize("graph", [{"generator": "ring", "n": 6}, {"generator": "torus", "n": 3},
                                   {"generator": "random_regular", "n": 8, "d": 3}])
def test_resolved_config_gives_a_seed_only_to_seeded_generators(tmp_path, graph):
    # A seed given to ring or torus still loads, and is left out of the
    # resolved section; random_regular records it, 0 when not given. Feeding
    # the resolved config back in gives the same run and the same section.
    seeded = graph["generator"] == "random_regular"
    runs = []
    for label, section in (("none", graph), ("given", {**graph, "seed": 3})):
        cfg = make_config(tmp_path, graph=section)
        for attempt in ("first", "again"):
            path, csv, prof = (tmp_path / f"{label}-{attempt}.{ext}" for ext in ("json", "csv", "prof.json"))
            path.write_text(json.dumps(cfg))
            argv = ("--config", str(path), "--deterministic", "--out", str(csv), "--profile-out", str(prof))
            assert run_cli("run", *argv) == 0
            resolved = json.loads(prof.read_text())["meta"]["config"]
            want = {**graph, "seed": section.get("seed", 0)} if seeded else graph
            assert resolved["graph"] == want
            runs.append(csv.read_bytes())
            cfg = resolved
    assert runs[0] == runs[1] and runs[2] == runs[3]
    assert (runs[0] == runs[2]) is not seeded


@pytest.mark.parametrize(
    "section, key, without",
    [
        ("game", "k", {"game": "pgg", "c": "1/2"}),
        ("dynamics", "init", {"policy": "random", "seed": 4}),
        ("graph", "file", {"generator": "ring", "n": 6}),
        ("graph", "d", {"generator": "ring", "n": 6}),
        ("graph", "generator", {"file": "g.json"}),
    ],
)
def test_null_config_value_equals_leaving_the_key_out(tmp_path, monkeypatch, section, key, without):
    monkeypatch.chdir(tmp_path)
    assert run_cli("gen", "--graph", "ring", "--n", "6", "--out", "g.json") == 0
    outs = []
    for label, fields in (("without", without), ("null", {**without, key: None})):
        path, csv, prof = (tmp_path / f"{label}.{ext}" for ext in ("json", "csv", "prof.json"))
        path.write_text(json.dumps(make_config(tmp_path, **{section: fields})))
        argv = ("--config", str(path), "--deterministic", "--out", str(csv), "--profile-out", str(prof))
        assert run_cli("run", *argv) == 0
        outs.append((csv.read_bytes(), json.loads(prof.read_text())["meta"]["config"]))
    assert outs[0] == outs[1]


def test_unwritable_output_exits_1(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli("gen", "--graph", "ring", "--n", "4", "--out", str(g))
    code = run_cli(
        "run", "--game", "minority", "--graph-file", str(g),
        "--out", str(tmp_path / "missing-dir" / "t.csv"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "missing-dir" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("init", ["0,x,0,1", "0,1,,1", "1.0,0,1,0"])
def test_run_init_with_non_integer_entry_exits_1(tmp_path, capsys, init):
    g = tmp_path / "g.json"
    run_cli("gen", "--graph", "ring", "--n", "4", "--out", str(g))
    code = run_cli(
        "run", "--game", "minority", "--graph-file", str(g), "--init", init,
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --init") and repr(init) in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "section, fields, pointer",
    [
        ("dynamics", {"max_rounds": "5"}, "/dynamics/max_rounds"),
        ("dynamics", {"max_rounds": True}, "/dynamics/max_rounds"),
        ("dynamics", {"seed": "x"}, "/dynamics/seed"),
        ("dynamics", {"init": 5}, "/dynamics/init"),
        ("dynamics", {"policy": "bogus"}, "/dynamics/policy"),
        ("dynamics", {"trials": 7}, "/dynamics/trials"),
        ("graph", {"generator": "random_regular", "n": 6, "d": 3, "seed": True}, "/graph/seed"),
        ("game", {"game": "coloring", "k": "3"}, "/game/k"),
        ("dynamics", {"init": [0, 1]}, "/dynamics/init"),
        ("dynamics", {"init": [0, 1, 0, 1, 2, 0]}, "/dynamics/init"),
        ("dynamics", {"max_rounds": 0}, "/dynamics/max_rounds"),
    ],
)
def test_config_field_faults_name_pointer(tmp_path, capsys, section, fields, pointer):
    cfg = make_config(tmp_path)
    cfg[section] = fields if section != "dynamics" else {**cfg["dynamics"], **fields}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = run_cli("run", "--config", str(path), "--out", str(tmp_path / "t.csv"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and pointer in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "flags, game, dyn",
    [
        (["--game", "pgg", "--c", "1/2"], {"game": "pgg", "c": "1/2"}, {}),
        (["--game", "minority", "--max-rounds", "1"], {"game": "minority"}, {"max_rounds": 1}),
        (["--game", "coloring", "--k", "3", "--policy", "fixed"], {"game": "coloring", "k": 3},
         {"policy": "fixed"}),
        (["--game", "minority", "--init", ",".join("01" * 15)], {"game": "minority"},
         {"init": [int(x) for x in "01" * 15]}),
    ],
)
def test_flag_run_matches_config_run(tmp_path, flags, game, dyn):
    g = tmp_path / "g.json"
    run_cli("gen", "--graph", "random-regular", "--n", "30", "--d", "3", "--seed", "2", "--out", str(g))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": {"file": str(g)}, "game": game, "dynamics": {"seed": 9, **dyn}}))
    outs = {}
    for label, argv in (
        ("flags", [*flags, "--graph-file", str(g), "--seed", "9"]),
        ("config", ["--config", str(cfg)]),
    ):
        csv, prof = tmp_path / f"{label}.csv", tmp_path / f"{label}.json"
        assert run_cli("run", *argv, "--deterministic", "--out", str(csv), "--profile-out", str(prof)) == 0
        outs[label] = csv.read_bytes(), json.loads(prof.read_text())
    assert outs["flags"][0] == outs["config"][0]
    # meta records each run's own arguments; the rest of the profile file,
    # and the run summary in meta, must agree.
    flag_prof, config_prof = outs["flags"][1], outs["config"][1]
    flag_meta, config_meta = flag_prof.pop("meta"), config_prof.pop("meta")
    assert flag_prof == config_prof
    for key in ("converged", "convergence_round", "rounds_executed"):
        assert flag_meta[key] == config_meta[key]
    # A config run records the dynamics it used, defaults filled in, and
    # none of the run flags' defaults that the config overrode.
    used = {"policy": "random", "seed": 9, "init": "random", "max_rounds": None, **dyn}
    assert config_meta["config"] == {"graph": {"file": str(g)}, "game": game, "dynamics": used}
    assert set(config_meta["args"]) == {"config", "deterministic", "out", "profile_out"}
    for key in ("policy", "seed"):
        assert flag_meta["args"][key] == used[key]


# Robustness probe: graph files with the faults a hand-written file may
# hold, fed to every subcommand that loads one. A case ends in exit 0, or in
# exit 1 with one ``error:`` line, never in a traceback, within a time bound.
# JSON files hold plain lists only; list subclasses as edge entries are
# covered by `test_graph_from_json_matches_three_stage_validation`.
def _insert_edge(obj, rng, item):
    obj["edges"].insert(rng.randrange(len(obj["edges"]) + 1), item)


def _nodes(obj, rng):
    return rng.randrange(max(obj["n"], 1))


GRAPH_FILE_FAULTS = [
    lambda obj, rng: obj.update({rng.choice(["n", "edges", "max_degree"]): rng.choice(["3", 1.5, None, {}])}),
    lambda obj, rng: obj.update(n=True) if rng.random() < 0.5 else obj.update(max_degree=True),
    lambda obj, rng: _insert_edge(obj, rng, rng.choice([[False, True], [0, True]])),
    lambda obj, rng: _insert_edge(obj, rng, rng.choice([[[0], [1]], [[0, 1]], [[0, 1], [1, 2]]])),
    lambda obj, rng: obj.update(edges=[obj["edges"]]),
    lambda obj, rng: _insert_edge(obj, rng, [0, 1, 2]),
    lambda obj, rng: _insert_edge(obj, rng, sorted([_nodes(obj, rng), _nodes(obj, rng)], reverse=True)),
    lambda obj, rng: _insert_edge(obj, rng, rng.choice([[_nodes(obj, rng), obj["n"] + rng.randrange(3)],
                                                         [-1, _nodes(obj, rng)]])),
    lambda obj, rng: obj.update(max_degree=obj["max_degree"] + rng.choice([-1, 1])),
    lambda obj, rng: obj.update(n=obj["n"] + rng.choice([-1, 2])),
    lambda obj, rng: obj.pop(rng.choice(["n", "edges", "max_degree"])),
]

PROBED_GAMES = [["--game", "minority"], ["--game", "pgg", "--c", "1/2"], ["--game", "coloring", "--k", "3"]]


def probe_cli(argv) -> None:
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    took = time.perf_counter() - start
    lines = err.getvalue().splitlines()
    assert took < 10, f"{argv} took {took:.1f} s"
    assert (code, lines) == (0, []) or (code == 1 and len(lines) == 1 and lines[0].startswith("error: ")), (
        argv, code, lines)


def test_mutated_graph_files_exit_cleanly():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graph_files(draw):
        n, isolated = draw(st.integers(0, 8)), draw(st.integers(0, 2))
        rng = Random(draw(st.integers(0, 2**32 - 1)))
        p = draw(st.sampled_from([0.2, 0.5, 0.8]))
        edges = [list(e) for e in combinations(range(n), 2) if rng.random() < p]
        rng.shuffle(edges)
        degrees = [sum(v in e for e in edges) for v in range(n + isolated)]
        obj = {"n": n + isolated, "edges": edges, "max_degree": max(degrees, default=0)}
        for fault in draw(st.lists(st.sampled_from(GRAPH_FILE_FAULTS), max_size=2)):
            if type(obj.get("n")) is int and isinstance(obj.get("edges"), list) and type(obj.get("max_degree")) is int:
                fault(obj, rng)  # a fault needs the fields it reads intact
        return obj, n + isolated, draw(st.sampled_from(PROBED_GAMES))

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(graph_files())
    def check(case):
        obj, n, game = case
        with tempfile.TemporaryDirectory() as tmp:
            graph, profile, out = (str(Path(tmp, name)) for name in ("g.json", "p.json", "out"))
            Path(graph).write_text(json.dumps(obj))
            Path(profile).write_text(json.dumps({"profile": [0] * n}))
            for argv in (
                ["run", *game, "--graph-file", graph, "--seed", "1", "--out", out],
                ["verify", *game, "--graph-file", graph, "--profile", profile, "--out", out],
                ["local-sim", *game, "--graph-file", graph, "--rounds", "2", "--coloring-out", out],
                ["ineff", *game, "--graph-file", graph, "--T", "2", "--trials", "2", "--out", out],
                ["poa", "--family", "minority-instance", "--graph-file", graph, "--out", out],
            ):
                probe_cli([*argv, "--deterministic"])

    check()


# Robustness probe of profile files, flags and config files: each case ends
# in exit 0, in exit 1 with one ``error:`` line, or in argparse's usage error
# (exit 2). ``{g}`` is a 6-node ring, ``{p}`` a profile file, ``{cfg}`` a
# config file and ``{out}`` an output path.
PROBED_PROFILES = [
    b'"0,1,0,1,0,1"', b'{"profile": "010101"}', b'{"profile": [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]}',
    b"null", b'{"profile": null}', b"true", b'{"profile": [true, 0, 1, 0, 1, 0]}',
    b'{"profile": [[0], [1], [0], [1], [0], [1]]}', b'{"profile": [0, 1, 0]}',
    b'{"profile": [0, 1, 0, 1, 0, 1, 0]}', b'{"profile": [-1, 0, 1, 0, 1, 0]}',
    b"[0, 1, 0, 1, 0, 1]", b'{"profile": [0, 1, 0, 1, 0, 1]}', b'\xff\xfe{"profile": []}',
]
# Probed after every other case, so that the cases above keep their ids.
PROBED_LATE_PROFILES = [b'{"profile": ' + b"[" * 100000 + b"]" * 100000 + b"}"]
PROBED_INITS = ["", ",", "0,1", "-1,0,0,0,0,0", "0,1,0,1,0,2", "random,0", "1e3,0,0,0,0,0",
                "RANDOM", " random", "0, 1,0,1,0,1"]
PROBED_COUNTS = [
    ["run", "--game", "minority", "--graph-file", "{g}", "--max-rounds", "{x}", "--out", "{out}"],
    ["local-sim", "--game", "minority", "--graph-file", "{g}", "--rounds", "{x}", "--coloring-out", "{out}"],
    ["ineff", "--game", "minority", "--graph-file", "{g}", "--T", "{x}", "--trials", "2", "--out", "{out}"],
    ["ineff", "--game", "minority", "--graph-file", "{g}", "--T", "2", "--trials", "{x}", "--out", "{out}"],
    ["frozen", "--n", "3", "--k", "3", "--budget", "{x}", "--out", "{out}"],
    ["frozen", "--n", "3", "--k", "{x}", "--budget", "100", "--out", "{out}"],
    ["run", "--game", "coloring", "--k", "{x}", "--graph-file", "{g}", "--out", "{out}"],
    ["gen", "--graph", "ring", "--n", "{x}", "--out", "{out}"],
    ["gen", "--graph", "torus", "--n", "{x}", "--out", "{out}"],
    ["simgame", "--n", "{x}", "--orders", "1", "--out", "{out}"],
    ["frozen", "--n", "{x}", "--k", "3", "--budget", "100", "--out", "{out}"],
    ["gen", "--graph", "random-regular", "--n", "10", "--d", "3", "--seed", "1", "--power", "{x}",
     "--out", "{out}"],
]
PROBED_COSTS = [
    ["run", "--game", "pgg", "--c", "{x}", "--graph-file", "{g}", "--out", "{out}"],
    ["simgame", "--n", "8", "--orders", "1", "--c", "{x}", "--out", "{out}"],
    ["poa", "--family", "pgg-instance", "--d", "3", "--k", "2", "--c", "{x}", "--out", "{out}"],
]
RING6 = {"generator": "ring", "n": 6}
PGG = {"game": "pgg", "c": "1/2"}
PROBED_CONFIGS = [
    [], "cfg", 5, {"graph": [], "game": PGG, "dynamics": {}},
    {"graph": RING6, "game": "pgg", "dynamics": {}},
    {"graph": RING6, "game": PGG, "dynamics": []},
    {"graph": {"generator": "ring", "n": "6"}, "game": PGG, "dynamics": {}},
    {"graph": {"generator": "ring", "n": 6.0}, "game": PGG, "dynamics": {}},
    {"graph": {"generator": 5, "n": 6}, "game": PGG, "dynamics": {}},
    {"graph": {"file": 5}, "game": PGG, "dynamics": {}},
    {"graph": RING6, "game": {"game": "pgg", "c": 0.5}, "dynamics": {}},
    {"graph": RING6, "game": {"game": ["pgg"], "c": "1/2"}, "dynamics": {}},
    {"graph": RING6, "game": PGG, "dynamics": {"seed": 1.5}},
    {"graph": RING6, "game": PGG, "dynamics": {"policy": 5}},
    {"graph": RING6, "game": PGG, "dynamics": {"max_rounds": -1}},
    {"graph": RING6, "game": PGG, "dynamics": {"init": "0,1,0,1,0,1"}},
    {"graph": RING6, "game": PGG, "dynamics": {"init": [0.0, 1, 0, 1, 0, 1]}},
    {"graph": {**RING6, "d": 3}, "game": PGG, "dynamics": {}},
]
PROBED_GEN_FLAGS = [  # flags a generator does not take, beside its own
    ["ring", "--n", "5", "--d", "3", "--k", "7"], ["torus", "--n", "4", "--d", "0"],
    ["random-regular", "--n", "10", "--d", "3", "--k", "-1"], ["star-matching", "--n", "x", "--k", "2", "--d", "3"],
    ["star-matching", "--n", "0", "--k", "2", "--d", "3"], ["ring", "--d", "3"],
]
GAMES = [["--game", "minority"], ["--game", "pgg", "--c", "1/2"], ["--game", "coloring", "--k", "3"]]
PROBED_CASES = (
    [(["verify", *game, "--graph-file", "{g}", "--profile", "{p}", "--out", "{out}"], profile, None)
     for profile in PROBED_PROFILES for game in GAMES]
    + [(["run", "--game", "minority", "--graph-file", "{g}", "--init", init, "--out", "{out}"], None, None)
       for init in PROBED_INITS]
    + [([arg.replace("{x}", x) for arg in argv], None, None) for argv in PROBED_COUNTS for x in ("0", "-1")]
    + [([arg.replace("{x}", c) for arg in argv], None, None)
       for argv in PROBED_COSTS for c in ("x", "1/0", "-1/2", "2")]
    + [(["run", "--config", "{cfg}", "--out", "{out}"], None, config) for config in PROBED_CONFIGS]
    + [(["gen", "--graph", *flags, "--out", "{out}"], None, None) for flags in PROBED_GEN_FLAGS]
    + [(["verify", *game, "--graph-file", "{g}", "--profile", "{p}", "--out", "{out}"], profile, None)
       for profile in PROBED_LATE_PROFILES for game in GAMES]
)


@pytest.mark.parametrize(
    "argv, profile, config", PROBED_CASES, ids=[f"{case[0][0]}-{i}" for i, case in enumerate(PROBED_CASES)]
)
def test_mutated_profiles_flags_and_configs_exit_cleanly(tmp_path, argv, profile, config):
    files = {name: tmp_path / f"{name}.json" for name in ("g", "p", "cfg", "out")}
    assert run_cli("gen", "--graph", "ring", "--n", "6", "--out", str(files["g"])) == 0
    files["p"].write_bytes(profile if profile is not None else b'{"profile": [0, 1, 0, 1, 0, 1]}')
    files["cfg"].write_text(json.dumps(config))
    argv = [arg.format(**{name: str(path) for name, path in files.items()}) for arg in argv]
    try:
        probe_cli([*argv, "--deterministic"])
    except SystemExit as exc:  # argparse rejected the flags before any work
        assert exc.code == 2


# -- the parser shared by every call in a process


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_shared_parser_carries_no_state_between_calls(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli("gen", "--graph", "torus", "--n", "4", "--deterministic", "--out", "g.json")
    plain = ("run", "--game", "minority", "--graph-file", "g.json", "--deterministic",
             "--out", "t.csv", "--profile-out", "p.json")

    def outputs():
        return (tmp_path / "t.csv").read_bytes(), (tmp_path / "p.json").read_bytes()

    cli.build_parser.cache_clear()  # the plain run below is this parser's first call
    assert run_cli(*plain) == 0
    first = outputs()
    with pytest.raises(SystemExit) as exc:
        main(["run", "--no-such-flag"])
    assert exc.value.code == 2
    assert run_cli("run", "--game", "pgg", "--c", "1/3", "--graph-file", "g.json", "--policy", "fixed",
                   "--seed", "5", "--max-rounds", "3", "--deterministic", "--out", "f.csv") == 0
    assert run_cli(*plain) == 0
    assert outputs() == first


def test_config_run_leaks_no_cleared_flag_into_the_next_call(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli("gen", "--graph", "ring", "--n", "6", "--deterministic", "--out", "g.json")
    Path("cfg.json").write_text(json.dumps(make_config(tmp_path)))
    flags = ("run", "--game", "pgg", "--c", "1/2", "--graph-file", "g.json", "--seed", "3",
             "--deterministic", "--out", "t.csv", "--profile-out", "p.json")
    assert run_cli("run", "--config", "cfg.json", "--deterministic", "--out", "c.csv",
                   "--profile-out", "c.json") == 0
    assert json.loads(Path("c.json").read_text())["meta"]["args"] == {
        "config": "cfg.json", "deterministic": True, "out": "c.csv", "profile_out": "c.json"}
    assert run_cli(*flags) == 0
    assert json.loads(Path("p.json").read_text())["meta"]["args"] == {
        "c": "1/2", "deterministic": True, "game": "pgg", "graph_file": "g.json", "init": "random",
        "out": "t.csv", "policy": "random", "profile_out": "p.json", "seed": 3}
