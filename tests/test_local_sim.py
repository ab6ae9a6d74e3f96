from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from random import Random
import tracemalloc

import pytest

from netgame.errors import SimulationFault, ValidationError
from netgame.dynamics import FixedOrder, fair_round, run, step
from netgame.game import BestResponseEngine, coloring_game, minority_game, pgg_game, random_profile, welfare
from netgame.local_sim import (
    DistanceColoring,
    check_coloring,
    distance_coloring,
    simulate_fair_rounds,
)
from netgame.network import Network, _ball, random_regular, ring, torus
from conftest import path_graph, star_graph

HALF = Fraction(1, 2)


def test_greedy_trace_on_ring6():
    col = distance_coloring(ring(6))
    assert col.colors == (1, 2, 3, 1, 2, 3)
    assert col.palette_size <= 5


def test_radius2_palette_bound_on_torus():
    net = torus(4)
    col = distance_coloring(net)
    check_coloring(net, col)
    assert col.palette_size <= net.max_degree**2 + 1  # 17


def test_improper_coloring_rejected():
    net = ring(6)
    g = pgg_game(net, HALF)
    bad = DistanceColoring(colors=(1, 1, 2, 3, 2, 3), palette_size=3)
    with pytest.raises(ValidationError):
        simulate_fair_rounds(g, (0,) * 6, bad, 1)


def test_zero_rounds_is_identity():
    net = ring(8)
    g = minority_game(net)
    col = distance_coloring(net)
    init = (0, 1) * 4
    final, orders = simulate_fair_rounds(g, init, col, 0)
    assert final == init and orders == []


def test_final_profile_matches_sequential_replay():
    rng = Random(21)
    for trial in range(10):
        n = rng.choice([12, 20, 30])
        net = random_regular(n, 3, seed=trial)
        g = [pgg_game(net, HALF), minority_game(net), coloring_game(net, 4)][trial % 3]
        init = random_profile(g, Random(trial))
        col = distance_coloring(net)
        final, orders = simulate_fair_rounds(g, init, col, 3)
        replay = init
        for order in orders:
            replay = fair_round(g, replay, order)
        assert replay == final


def test_replay_runs_the_switch_check():
    # A coordination utility under the anti-coordination kind: node 0 (color
    # 1) switches to match both neighbors, so the cut shrinks.
    g = minority_game(ring(6))
    inverted = replace(g, utility_fn=lambda v, own, nbrs: -g.utility_fn(v, own, nbrs))
    with pytest.raises(SimulationFault, match="switch of node 0 failed to add a cut edge"):
        simulate_fair_rounds(inverted, (0, 1) * 3, distance_coloring(ring(6)), 1)


def test_replay_runs_the_round_check():
    # A utility that always prefers producing: every node produces in round 1.
    eager = replace(pgg_game(ring(6), HALF), utility_fn=lambda v, own, nbrs: Fraction(own == "P"))
    with pytest.raises(SimulationFault, match="not independent after round 1: nodes 0 and 1 produce"):
        simulate_fair_rounds(eager, (0,) * 6, distance_coloring(ring(6)), 2)


def test_each_node_acts_once_per_round():
    net = torus(3)
    g = coloring_game(net, 5)
    col = distance_coloring(net)
    _, orders = simulate_fair_rounds(g, (0,) * 9, col, 2)
    for order in orders:
        assert sorted(order) == list(range(9))


def test_intra_class_order_irrelevant():
    net = random_regular(24, 3, seed=9)
    g = minority_game(net)
    col = distance_coloring(net)
    init = random_profile(g, Random(0))
    final, _ = simulate_fair_rounds(g, init, col, 1)

    classes: dict[int, list[int]] = {}
    for v in range(24):
        classes.setdefault(col.colors[v], []).append(v)
    rng = Random(33)
    for _ in range(5):
        profile = init
        for color in sorted(classes):
            members = classes[color][:]
            rng.shuffle(members)
            for v in members:
                profile = step(g, profile, v)
        assert profile == final


# Test-only references: one truncated BFS per node at radius ``r``.
def reference_distance_coloring(net, r):
    colors = [0] * net.node_count
    for v in range(net.node_count):
        taken = {colors[u] for u, d in _ball(net.adjacency, (v,), r).items() if 0 < d and colors[u]}
        c = 1
        while c in taken:
            c += 1
        colors[v] = c
    return DistanceColoring(colors=tuple(colors), palette_size=max(max(colors, default=0), 1))


def reference_check_coloring(net, coloring, r):
    if len(coloring.colors) != net.node_count:
        raise ValidationError("coloring length does not match the network")
    if any(c < 1 or c > coloring.palette_size for c in coloring.colors):
        raise ValidationError("colors must lie in 1..palette_size")
    for v in range(net.node_count):
        for u, d in _ball(net.adjacency, (v,), r).items():
            if 0 < d and coloring.colors[u] == coloring.colors[v]:
                raise ValidationError(
                    f"nodes {v} and {u} at distance {d} share color {coloring.colors[v]}"
                )


def colored_networks(st):
    """Random regular graphs, tori, rings, sparse graphs with isolated nodes,
    the empty graph and stars whose leaves all lie within distance 2, so
    that a proper coloring uses more colors than a machine word has bits."""

    @st.composite
    def networks(draw):
        shape = draw(st.sampled_from(["regular", "torus", "ring", "sparse", "empty", "star"]))
        if shape == "star":
            return star_graph(draw(st.integers(66, 81)))  # 65 to 80 leaves
        if shape == "regular":
            d = draw(st.integers(3, 4))
            n = draw(st.integers(d + 1, 24).filter(lambda n: n * d % 2 == 0))
            return random_regular(n, d, draw(st.integers(0, 99)))
        if shape == "torus":
            return torus(draw(st.integers(3, 6)))
        if shape == "ring":
            return ring(draw(st.integers(3, 14)))
        if shape == "empty":
            return Network.from_edges(0, [])
        n, isolated = draw(st.integers(0, 10)), draw(st.integers(0, 3))
        rng = Random(draw(st.integers(0, 2**32 - 1)))
        p = draw(st.sampled_from([0.1, 0.3, 0.6]))
        return Network.from_edges(n + isolated, [e for e in combinations(range(n), 2) if rng.random() < p])

    return networks()


def check_outcome(check, net, coloring, *radius):
    try:
        check(net, coloring, *radius)
    except ValidationError as exc:
        return str(exc)
    return None


def test_distance_coloring_matches_bfs_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(colored_networks(st))
    def check(net):
        coloring = distance_coloring(net)
        assert coloring == reference_distance_coloring(net, 2)
        assert check_outcome(check_coloring, net, coloring) is None

    check()


def test_check_coloring_names_the_bfs_reference_clash():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # A proper coloring at radius r (at r = 1, one with many radius-2
    # clashes), checked at radius 2 after up to three nodes take the color of
    # a node within distance 2.
    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(colored_networks(st), st.integers(1, 3), st.randoms(use_true_random=False))
    def check(net, r, rng):
        colors = list(reference_distance_coloring(net, r).colors)
        for _ in range(rng.randrange(4) if colors else 0):
            v = rng.randrange(len(colors))
            near = sorted(u for u in _ball(net.adjacency, (v,), 2) if u != v)
            if near:
                colors[v] = colors[rng.choice(near)]
        coloring = DistanceColoring(colors=tuple(colors), palette_size=max(colors, default=1))
        want = check_outcome(reference_check_coloring, net, coloring, 2)
        assert check_outcome(check_coloring, net, coloring) == want

    check()


def test_check_coloring_runs_no_bfs_on_a_proper_coloring(monkeypatch):
    nets = [star_graph(71), torus(6), random_regular(40, 3, 5), ring(9)]
    colorings = [distance_coloring(net) for net in nets]

    def no_bfs(*args, **kwargs):
        raise AssertionError("the BFS scan ran on a proper coloring")

    monkeypatch.setattr(Network, "bfs_distances", no_bfs)
    for net, coloring in zip(nets, colorings):
        check_coloring(net, coloring)


def test_check_coloring_on_huge_colors():
    # Mask bits are ranks among the colors used; bit ``c`` itself would
    # take 125 MB per color here.
    big = 10**9
    cases = [
        (path_graph(2), (big, big - 1), None),
        (path_graph(3), (big - 2, big, big - 1), None),
        (path_graph(2), (big, big), f"nodes 0 and 1 at distance 1 share color {big}"),
        (path_graph(3), (big, 7, big), f"nodes 0 and 2 at distance 2 share color {big}"),
        (path_graph(3), (big - 1, big - 1, 1), f"nodes 0 and 1 at distance 1 share color {big - 1}"),
    ]
    tracemalloc.start()
    try:
        for net, colors, want in cases:
            coloring = DistanceColoring(colors=colors, palette_size=big)
            assert check_outcome(reference_check_coloring, net, coloring, 2) == want
            assert check_outcome(check_coloring, net, coloring) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# Test-only reference: each class computes every member's move against the
# profile as of the class start, then writes the moves one by one. As
# `dynamics.run`, it stops after the first round without a switch and, for a
# kind with a cut count, reads the cut of each played profile from `welfare`.
def reference_class_replay(game, init, coloring, rounds):
    classes: dict[int, list[int]] = {}
    for v in range(game.network.node_count):
        classes.setdefault(coloring.colors[v], []).append(v)
    schedule = [classes[color] for color in sorted(classes)]
    engine = BestResponseEngine(game, init)
    prof, key, table, entry = engine.profile, engine.key, engine.table, engine.entry
    played = [tuple(prof)]
    for r in range(1, rounds + 1):
        switches = 0
        for members in schedule:
            moves = [(table.get(key[v]) or entry(v, key[v]))[1][prof[v]] for v in members]
            for v, choice in zip(members, moves):
                if choice != prof[v]:
                    engine.switch(v, choice)
                    switches += 1
        if game.kind.check_round is not None:
            game.kind.check_round(game, prof, r)
        played.append(tuple(prof))
        if switches == 0:
            break
    if game.kind.cut_edges is not None:
        net = game.network
        for r, p in enumerate(played):
            cut = (welfare(game, p) - net.node_count + 2 * net.edge_count) / 4
            if cut.denominator != 1:
                raise SimulationFault(f"welfare {welfare(game, p)} after round {r} gives a fractional cut {cut}")
        counted = game.kind.cut_edges(game, played[-1])
        if counted != cut:
            raise SimulationFault(f"cut after round {r} read from welfare is {cut}, counted {counted}")
    order = tuple(v for members in schedule for v in members)
    return tuple(prof), [order] * rounds


def replay_outcome(replay, game, init, coloring, rounds):
    try:
        return replay(game, init, coloring, rounds)
    except SimulationFault as exc:
        return f"fault: {exc}"


def replay_game(name, net, k=3):
    """A game of one of the three kinds, or one whose utility breaks its kind's
    switch check (a coordination utility under the anti-coordination kind) or
    round check (an always-produce utility under the pgg kind)."""
    if name == "inverted-minority":
        g = minority_game(net)
        return replace(g, utility_fn=lambda v, own, nbrs: -g.utility_fn(v, own, nbrs))
    if name == "eager-pgg":
        return replace(pgg_game(net, HALF), utility_fn=lambda v, own, nbrs: Fraction(own == "P"))
    if name == "pgg":
        return pgg_game(net, HALF)
    return minority_game(net) if name == "minority" else coloring_game(net, k)


def test_replay_sweep_matches_the_class_by_class_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        colored_networks(st),
        st.sampled_from(["pgg", "minority", "coloring", "inverted-minority", "eager-pgg"]),
        st.integers(2, 5), st.integers(0, 3), st.integers(0, 2**32 - 1),
    )
    def check(net, name, k, rounds, seed):
        game = replay_game(name, net, k)
        init = random_profile(game, Random(seed))
        coloring = distance_coloring(net)
        want = replay_outcome(reference_class_replay, game, init, coloring, rounds)
        assert replay_outcome(simulate_fair_rounds, game, init, coloring, rounds) == want

    check()


@pytest.mark.parametrize("rounds", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", ["pgg", "minority", "coloring"])
def test_replay_sweep_matches_the_reference_per_kind(kind, rounds):
    net = random_regular(30, 3, seed=4)
    game = replay_game(kind, net)
    init, coloring = random_profile(game, Random(rounds)), distance_coloring(net)
    assert simulate_fair_rounds(game, init, coloring, rounds) == reference_class_replay(game, init, coloring, rounds)


@pytest.mark.parametrize("name, init", [("inverted-minority", (0, 1) * 3), ("eager-pgg", (0,) * 6)])
def test_replay_sweep_faults_as_the_reference(name, init):
    game, coloring = replay_game(name, ring(6)), distance_coloring(ring(6))
    want = replay_outcome(reference_class_replay, game, init, coloring, 2)
    assert want.startswith("fault: ")
    assert replay_outcome(simulate_fair_rounds, game, init, coloring, 2) == want


def colour_major(coloring):
    return tuple(sorted(range(len(coloring.colors)), key=coloring.colors.__getitem__))


def run_outcome(game, init, coloring, rounds):
    try:
        return run(game, init, FixedOrder(colour_major(coloring)), rounds).final
    except SimulationFault as exc:
        return f"fault: {exc}"


def test_replay_reads_the_cut_from_the_welfare_as_run_does():
    # A coordination utility under the anti-coordination kind, from all
    # zeros: no switch, so no switch check runs, but its welfare reads a cut
    # of 3 where the kind counts 0.
    net = ring(6)
    g = minority_game(net)
    inverted = replace(g, utility_fn=lambda v, own, nbrs: -g.utility_fn(v, own, nbrs))
    coloring, init = distance_coloring(net), (0,) * 6
    want = "fault: cut after round 1 read from welfare is 3, counted 0"
    assert run_outcome(inverted, init, coloring, 1) == want
    assert replay_outcome(simulate_fair_rounds, inverted, init, coloring, 1) == want


def test_replay_stops_after_a_zero_switch_round_as_run_does():
    # A never-produce utility under the pgg kind, from all-F: round 1 has no
    # switch, so the round-2 maximality check that would fail never runs.
    net = ring(6)
    never = replace(pgg_game(net, HALF), utility_fn=lambda v, own, nbrs: Fraction(own == "F"))
    coloring, init = distance_coloring(net), (0,) * 6
    assert run_outcome(never, init, coloring, 2) == init
    assert simulate_fair_rounds(never, init, coloring, 2) == (init, [colour_major(coloring)] * 2)


@pytest.mark.parametrize("kind", ["pgg", "minority", "coloring"])
def test_rounds_past_convergence_replay_the_converged_profile(kind):
    net = random_regular(40, 3, seed=6)
    game, coloring = replay_game(kind, net), distance_coloring(net)
    init = random_profile(game, Random(2))
    trace = run(game, init, FixedOrder(colour_major(coloring)), 50)
    assert trace.converged
    settled = trace.convergence_round + 1
    final, _ = simulate_fair_rounds(game, init, coloring, settled)
    assert final == trace.final
    for rounds in (settled + 1, settled + 5, 50):
        assert simulate_fair_rounds(game, init, coloring, rounds)[0] == final


@pytest.mark.parametrize(
    "coloring, init, rounds, message",
    [
        (DistanceColoring(colors=(1, 1, 2, 3, 2, 3), palette_size=3), (0,) * 6, 1,
         "nodes 0 and 1 at distance 1 share color 1"),
        (DistanceColoring(colors=(1, 2, 3), palette_size=3), (0,) * 6, 1,
         "coloring length does not match the network"),
        (None, (0,) * 5, 1, "profile has 5 entries for 6 nodes"),
        (None, (0, 0, 2, 0, 0, 0), 1, "profile entry 2 invalid for node 2"),
        (None, (0,) * 6, -1, "rounds must be >= 0"),
    ],
)
def test_replay_input_faults_keep_their_messages(coloring, init, rounds, message):
    game = pgg_game(ring(6), HALF)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        simulate_fair_rounds(game, init, coloring or distance_coloring(ring(6)), rounds)
