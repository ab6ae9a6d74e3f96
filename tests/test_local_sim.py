from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from netgame.errors import SimulationFault, ValidationError
from netgame.dynamics import fair_round, step
from netgame.game import coloring_game, minority_game, pgg_game, random_profile
from netgame.local_sim import (
    DistanceColoring,
    check_coloring,
    distance_coloring,
    simulate_fair_rounds,
)
from netgame.network import random_regular, ring, torus

HALF = Fraction(1, 2)


def test_greedy_trace_on_ring6():
    col = distance_coloring(ring(6), 2)
    assert col.colors == (1, 2, 3, 1, 2, 3)
    assert col.palette_size <= 5


def test_radius1_palette_bound():
    for seed in range(5):
        net = random_regular(30, 4, seed=seed)
        col = distance_coloring(net, 1)
        check_coloring(net, col)
        assert col.palette_size <= net.max_degree + 1


def test_radius2_palette_bound_on_torus():
    net = torus(4)
    col = distance_coloring(net, 2)
    check_coloring(net, col)
    assert col.palette_size <= net.max_degree**2 + 1  # 17


def test_improper_coloring_rejected():
    net = ring(6)
    g = pgg_game(net, HALF)
    bad = DistanceColoring(radius=2, colors=(1, 1, 2, 3, 2, 3), palette_size=3)
    with pytest.raises(ValidationError):
        simulate_fair_rounds(g, (0,) * 6, bad, 1)


def test_radius1_coloring_rejected_as_schedule():
    net = ring(6)
    g = pgg_game(net, HALF)
    col = distance_coloring(net, 1)
    with pytest.raises(ValidationError):
        simulate_fair_rounds(g, (0,) * 6, col, 1)


def test_zero_rounds_is_identity():
    net = ring(8)
    g = minority_game(net)
    col = distance_coloring(net, 2)
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
        col = distance_coloring(net, 2)
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
        simulate_fair_rounds(inverted, (0, 1) * 3, distance_coloring(ring(6), 2), 1)


def test_replay_runs_the_round_check():
    # A utility that always prefers producing: every node produces in round 1.
    eager = replace(pgg_game(ring(6), HALF), utility_fn=lambda v, own, nbrs: Fraction(own == "P"))
    with pytest.raises(SimulationFault, match="not independent after round 1: nodes 0 and 1 produce"):
        simulate_fair_rounds(eager, (0,) * 6, distance_coloring(ring(6), 2), 2)


def test_each_node_acts_once_per_round():
    net = torus(3)
    g = coloring_game(net, 5)
    col = distance_coloring(net, 2)
    _, orders = simulate_fair_rounds(g, (0,) * 9, col, 2)
    for order in orders:
        assert sorted(order) == list(range(9))


def test_intra_class_order_irrelevant():
    net = random_regular(24, 3, seed=9)
    g = minority_game(net)
    col = distance_coloring(net, 2)
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
