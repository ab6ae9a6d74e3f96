from fractions import Fraction
from random import Random

import pytest

from netgame.errors import ValidationError
from netgame.game import pgg_game
from netgame.lvl import compile_lvl, verify
from netgame.network import Network, ring, torus
from netgame.simgame import (
    build_simulation_game,
    empty_profile,
    greedy_mis_normal_form,
    make_action,
    merged_coloring,
    play_simulation_round,
    project,
    simulation_fair_round,
    simulation_report,
    simulation_utility,
)

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def ring64_sim():
    base = pgg_game(ring(64), HALF)
    return build_simulation_game(base, greedy_mis_normal_form(2))


def test_normal_form_parameters():
    algo = greedy_mis_normal_form(2)
    assert algo.t == 5
    assert algo.palette == 2**12 + 1


def test_normal_form_rejects_small_degree():
    with pytest.raises(ValidationError):
        greedy_mis_normal_form(1)


def test_degree_mismatch_rejected():
    base = pgg_game(torus(3), HALF)  # max degree 4
    with pytest.raises(ValidationError):
        build_simulation_game(base, greedy_mis_normal_form(2))


def test_derived_network_is_wide_circulant(ring64_sim):
    sim = ring64_sim
    radius = 4 * sim.algorithm.t + 2
    assert radius == 22
    expected = sorted(((0 + o) % 64) for o in range(-radius, radius + 1) if o != 0)
    assert list(sim.network_prime.neighbors(0)) == expected
    assert sim.network_prime.max_degree == 44


def test_all_empty_profile_scores_zero(ring64_sim):
    sim = ring64_sim
    profile = empty_profile(sim)
    assert all(simulation_utility(sim, v, profile) == 0 for v in range(64))


def test_one_round_reaches_full_utility(ring64_sim):
    sim = ring64_sim
    order = tuple(range(64))
    profile = play_simulation_round(sim, order)
    assert all(simulation_utility(sim, v, profile) == 1 for v in range(64))


def test_second_round_has_no_switches(ring64_sim):
    sim = ring64_sim
    order = tuple(range(63, -1, -1))
    profile = play_simulation_round(sim, order)
    again, switches = simulation_fair_round(sim, profile, order)
    assert switches == 0
    assert again == profile


def test_projection_is_equilibrium_of_base(ring64_sim):
    sim = ring64_sim
    verifier = compile_lvl(sim.base)
    for seed in range(5):
        rng = Random(seed)
        order = list(range(64))
        rng.shuffle(order)
        profile = play_simulation_round(sim, tuple(order))
        projection = project(sim, profile)
        assert verify(verifier, ring(64), projection).accepted


def test_merged_coloring_is_well_defined_and_proper(ring64_sim):
    sim = ring64_sim
    profile = play_simulation_round(sim, tuple(range(64)))
    merged = merged_coloring(sim, profile)
    assert set(merged) == set(range(64))
    net = sim.network
    radius = sim.coloring_radius
    for v in range(64):
        for u, d in net.bfs_distances(v, limit=radius).items():
            if 0 < d:
                assert merged[u] != merged[v]


def test_project_rejects_empty_entries(ring64_sim):
    sim = ring64_sim
    with pytest.raises(ValidationError):
        project(sim, empty_profile(sim))


def test_single_node_projection_produces():
    net = Network.from_edges(1, [])
    base = pgg_game(net, HALF)
    sim = build_simulation_game(base, greedy_mis_normal_form(2))
    profile = play_simulation_round(sim, (0,))
    assert project(sim, profile) == (1,)  # the one agent produces


def test_ball_minimum_color_always_produces(ring64_sim):
    # a center holding its ball's smallest color joins unblocked and has no
    # smaller-colored neighbor, so it must emit the producing label
    sim = ring64_sim
    rng = Random(3)
    for v in (0, 17, 40):
        ball = sim.balls[v].order
        others = rng.sample(range(2, sim.algorithm.palette + 1), len(ball) - 1)
        coloring = {w: (1 if w == v else others.pop()) for w in ball}
        assert make_action(sim, v, coloring).output == "P"


def test_decide_is_exact_greedy_on_small_tori():
    # degree-4 rule: the truncation radius t-1 = 16 covers the whole torus,
    # so outputs must form an independent set to which nothing can be added
    rng = Random(11)
    net = torus(3)
    base = pgg_game(net, HALF)
    sim = build_simulation_game(base, greedy_mis_normal_form(4))
    assert sim.algorithm.t == 17
    verifier = compile_lvl(base)
    for _ in range(10):
        colors = rng.sample(range(1, 10_000), 9)
        labels = []
        for v in range(9):
            coloring = {w: colors[w] for w in sim.balls[v].order}
            action = make_action(sim, v, coloring)
            labels.append(base.action_index(v, action.output))
        assert verify(verifier, net, tuple(labels)).accepted


def test_decide_is_exact_greedy_on_small_rings():
    # a ball of radius t-1 covers these graphs, so the rule must reproduce
    # the global ascending-color greedy set: a maximal independent set
    rng = Random(7)
    for n in (5, 7, 9):
        net = ring(n)
        base = pgg_game(net, HALF)
        sim = build_simulation_game(base, greedy_mis_normal_form(2))
        verifier = compile_lvl(base)
        for _ in range(60):
            colors = rng.sample(range(1, sim.algorithm.palette + 1), n)
            labels = []
            for v in range(n):
                coloring = {w: colors[w] for w in sim.balls[v].order}
                action = make_action(sim, v, coloring)
                labels.append(base.action_index(v, action.output))
            assert verify(verifier, net, tuple(labels)).accepted


def test_adjacent_centers_never_both_produce_on_colored_paths():
    # independence is structural: check across random and adversarially
    # monotone colorings of paths, evaluating the rule at adjacent centers
    from conftest import path_graph

    rng = Random(19)
    n = 12
    net = path_graph(n)
    base = pgg_game(net, HALF)
    sim = build_simulation_game(base, greedy_mis_normal_form(2))
    colorings = [list(range(1, n + 1)), list(range(n, 0, -1))]
    for _ in range(200):
        colorings.append(rng.sample(range(1, 4098), n))
    for colors in colorings:
        outputs = []
        for v in range(n):
            coloring = {w: colors[w] for w in sim.balls[v].order}
            outputs.append(make_action(sim, v, coloring).output)
        for u in range(n - 1):
            assert not (outputs[u] == "P" and outputs[u + 1] == "P")


def test_make_action_validates_coloring(ring64_sim):
    sim = ring64_sim
    ball = sim.balls[0]
    good = {w: i + 1 for i, w in enumerate(ball.order)}
    make_action(sim, 0, good)
    with pytest.raises(ValidationError):
        make_action(sim, 0, {w: 1 for w in ball.order})  # repeated colors
    with pytest.raises(ValidationError):
        bad = dict(good)
        bad.pop(ball.order[-1])
        make_action(sim, 0, bad)  # wrong domain
    with pytest.raises(ValidationError):
        make_action(sim, 0, {w: c + sim.algorithm.palette for w, c in good.items()})


def test_simulation_report_fields(ring64_sim):
    payload = simulation_report(ring64_sim, True)
    assert payload["t"] == 5
    assert payload["palette"] == 4097
    assert payload["n_prime_degree"] == 44
    assert payload["one_round_converged"] is True
    assert payload["projection_is_ne"] is True
