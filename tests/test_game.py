from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from netgame.errors import ValidationError
from netgame.game import (
    BestResponseEngine,
    best_responses,
    coloring_game,
    game_from_descriptor,
    is_nash_equilibrium,
    minority_cut_edges,
    minority_game,
    parse_rational,
    pgg_game,
    random_profile,
    utility,
    welfare,
)
from netgame.network import Network, bipartite_double_cover, random_regular, ring, torus
from conftest import path_graph

HALF = Fraction(1, 2)


def test_pgg_payoffs():
    net = path_graph(2)
    g = pgg_game(net, HALF)
    # actions are (F, P); profiles are index tuples
    assert utility(g, 0, (1, 0)) == HALF  # producing
    assert utility(g, 0, (0, 1)) == 1  # covered free-rider
    assert utility(g, 0, (0, 0)) == 0  # uncovered
    assert utility(g, 0, (1, 1)) == HALF  # production cost applies regardless


def test_pgg_rejects_degenerate_cost():
    for c in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValidationError):
            pgg_game(ring(4), c)


def test_minority_formula():
    net = Network.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    g = minority_game(net)
    # own -1 (index 0), neighbors +1, +1, -1 -> 1 + 2 - 1 = 2
    assert utility(g, 0, (0, 1, 1, 0)) == 2
    # own +1 among three +1 neighbors -> 1 + 0 - 3 = -2
    assert utility(g, 0, (1, 1, 1, 1)) == -2


def test_minority_isolated_node():
    net = Network.from_edges(1, [])
    g = minority_game(net)
    assert utility(g, 0, (0,)) == 1


def test_minority_ring4_all_same():
    g = minority_game(ring(4))
    for v in range(4):
        assert utility(g, v, (1, 1, 1, 1)) == -1


def test_coloring_payoffs():
    net = path_graph(3)
    g = coloring_game(net, 3)
    # center colored 1 with neighbors 2 and 3
    assert utility(g, 1, (1, 0, 2)) == 1
    # clash with a neighbor
    assert utility(g, 1, (0, 0, 2)) == 0


def test_coloring_isolated_node_always_happy():
    net = Network.from_edges(1, [])
    g = coloring_game(net, 2)
    assert utility(g, 0, (0,)) == 1
    assert utility(g, 0, (1,)) == 1


def test_coloring_rejects_small_k():
    with pytest.raises(ValidationError):
        coloring_game(ring(3), 1)


def test_welfare_pgg_ring4():
    g = pgg_game(ring(4), HALF)
    assert welfare(g, (1, 0, 1, 0)) == 3


def test_welfare_minority_full_cut():
    base = random_regular(10, 3, seed=4)
    net = bipartite_double_cover(base)
    g = minority_game(net)
    # put one side at -1, the other at +1: every edge is cut
    profile = tuple(0 if v < 10 else 1 for v in range(20))
    assert minority_cut_edges(g, profile) == net.edge_count
    assert welfare(g, profile) == (3 + 1) * 20


def test_welfare_proper_coloring_is_n():
    g = coloring_game(ring(6), 3)
    assert welfare(g, (0, 1, 0, 1, 0, 1)) == 6


def test_best_responses_pgg():
    g = pgg_game(path_graph(2), HALF)
    assert best_responses(g, 0, (0, 0)) == (1,)  # 1/2 beats 0: produce
    assert best_responses(g, 0, (1, 1)) == (0,)  # 1 beats 1/2: free-ride


def test_best_responses_tie_in_order():
    g = minority_game(ring(4))
    # neighbors split evenly: both actions tie, listed in action order
    assert best_responses(g, 0, (1, 0, 1, 1)) == (0, 1)


def test_best_responses_nonempty_and_equal_payoff(atlas5):
    rng = Random(5)
    for net in atlas5:
        g = minority_game(net)
        profile = tuple(rng.randrange(2) for _ in range(net.node_count))
        for v in range(net.node_count):
            best = best_responses(g, v, profile)
            assert best
            vals = {
                utility(g, v, profile[:v] + (i,) + profile[v + 1 :]) for i in best
            }
            assert len(vals) == 1


def test_locality_far_perturbation():
    net = ring(8)
    g = pgg_game(net, Fraction(1, 3))
    rng = Random(7)
    for _ in range(50):
        profile = tuple(rng.randrange(2) for _ in range(8))
        v = rng.randrange(8)
        far = [u for u in range(8) if u != v and not net.has_edge(u, v)]
        u = rng.choice(far)
        flipped = profile[:u] + (1 - profile[u],) + profile[u + 1 :]
        assert utility(g, v, profile) == utility(g, v, flipped)


def test_utilities_are_exact_fractions():
    g = pgg_game(ring(4), Fraction(355, 1130))
    assert utility(g, 0, (1, 0, 0, 0)) == 1 - Fraction(355, 1130)
    assert isinstance(utility(g, 0, (1, 0, 0, 0)), Fraction)


def test_nash_definition_bridge(atlas5):
    # a profile is an equilibrium iff every node's entry is a best response
    rng = Random(13)
    for net in atlas5[:10]:
        g = minority_game(net)
        for _ in range(20):
            p = tuple(rng.randrange(2) for _ in range(net.node_count))
            by_def = is_nash_equilibrium(g, p)
            by_best = all(
                p[v] in best_responses(g, v, p) for v in range(net.node_count)
            )
            assert by_def == by_best


def test_coloring_game_shares_one_action_tuple():
    for net, k in ((ring(7), 3), (torus(5), 4)):
        n = net.node_count
        g = coloring_game(net, k)
        copies = tuple(tuple(range(1, k + 1)) for _ in range(n))
        assert g.actions == copies
        assert all(a is g.actions[0] for a in g.actions)
        assert len({id(a) for a in copies}) == n
        apart = replace(g, actions=copies)
        profile = random_profile(g, Random(k))
        shared, distinct = BestResponseEngine(g, profile), BestResponseEngine(apart, profile)
        for _ in range(2):
            assert shared.key == distinct.key
            assert shared.pay == distinct.pay
            assert shared.welfare() == distinct.welfare()
            assert shared.sweep(range(n)) == distinct.sweep(range(n))
        assert shared.profile == distinct.profile


def test_profile_shape_rejected():
    g = pgg_game(ring(4), HALF)
    with pytest.raises(ValidationError):
        utility(g, 0, (0, 0, 0))
    with pytest.raises(ValidationError):
        welfare(g, (0, 0, 0, 5))


def test_game_descriptor_round_trip():
    net = ring(4)
    g = game_from_descriptor({"game": "pgg", "c": "1/2"}, net)
    assert g.name == "pgg"
    g = game_from_descriptor({"game": "coloring", "k": 4}, net)
    assert g.actions[0] == (1, 2, 3, 4)
    with pytest.raises(ValidationError):
        game_from_descriptor({"game": "pgg", "c": "1/2", "extra": 1}, net)
    with pytest.raises(ValidationError):
        game_from_descriptor({"game": "pgg", "c": "3/2"}, net)
    with pytest.raises(ValidationError):
        game_from_descriptor({"game": "pgg", "c": "1/2", "k": 3}, net)  # k is not a pgg key
    with pytest.raises(ValidationError):
        game_from_descriptor({"game": "minority", "c": "1/2"}, net)


def test_parse_rational():
    assert parse_rational("7/6") == Fraction(7, 6)
    assert parse_rational(3) == Fraction(3)
    with pytest.raises(ValidationError):
        parse_rational("x/y")
