import itertools
import json
from fractions import Fraction
from random import Random

import pytest

from netgame.errors import ValidationError
from netgame.game import best_responses, coloring_game, is_nash_equilibrium, minority_game, pgg_game
from netgame.lvl import Verdict, compile_lvl, verify
from netgame.network import random_regular, torus
from conftest import path_graph, star_graph

HALF = Fraction(1, 2)


def test_pgg_path_maximal_independent_set_accepted():
    net = path_graph(3)
    g = pgg_game(net, HALF)
    spec = compile_lvl(g)
    verdict = verify(spec, net, (0, 1, 0))  # F P F
    assert verdict.accepted and verdict.violations == ()


def test_pgg_path_adjacent_producers_rejected():
    net = path_graph(3)
    g = pgg_game(net, HALF)
    verdict = verify(compile_lvl(g), net, (1, 1, 0))
    assert not verdict.accepted
    assert verdict.violations == (0, 1)


def test_pgg_uncovered_node_rejected():
    net = path_graph(3)
    g = pgg_game(net, HALF)
    verdict = verify(compile_lvl(g), net, (0, 0, 1))
    assert 0 in verdict.violations


def test_minority_accepts_balanced_nodes():
    net = path_graph(3)
    g = minority_game(net)
    spec = compile_lvl(g)
    # alternating labels: every node has all neighbors differing
    assert verify(spec, net, (0, 1, 0)).accepted


def test_coloring_proper_coloring_accepted_on_torus():
    net = torus(4)
    g = coloring_game(net, 4)
    # 2-color the even torus properly (colors 1 and 2 of the 4)
    labels = tuple((v // 4 + v % 4) % 2 for v in range(16))
    assert verify(compile_lvl(g), net, labels).accepted


def test_equivalence_with_definition_small_graphs(atlas5):
    for net in atlas5:
        n = net.node_count
        for g in (pgg_game(net, HALF), minority_game(net), coloring_game(net, 3)):
            spec = compile_lvl(g)
            sizes = [len(a) for a in g.actions]
            for profile in itertools.product(*(range(s) for s in sizes)):
                assert verify(spec, net, profile).accepted == is_nash_equilibrium(
                    g, profile
                )


def test_verifier_is_label_local():
    net = path_graph(5)
    g = pgg_game(net, HALF)
    spec = compile_lvl(g)
    rng = Random(3)
    for _ in range(50):
        labels = tuple(rng.randrange(2) for _ in range(5))
        baseline = verify(spec, net, labels).violations
        # flip the label of a node at distance >= 2 from node 0
        u = rng.choice([2, 3, 4])
        flipped = labels[:u] + (1 - labels[u],) + labels[u + 1 :]
        updated = verify(spec, net, flipped).violations
        assert (0 in baseline) == (0 in updated)


def test_verify_rejects_shape_mismatch():
    net = path_graph(3)
    g = pgg_game(net, HALF)
    spec = compile_lvl(g)
    with pytest.raises(ValidationError, match=r"^profile has 2 entries for 3 nodes$"):
        verify(spec, net, (0, 1))
    with pytest.raises(ValidationError, match=r"^profile entry 7 invalid for node 2$"):
        verify(spec, net, (0, 1, 7))
    with pytest.raises(ValidationError, match=r"^profile entry 2 invalid for node 1$"):
        verify(spec, net, (0, 2, 1))  # pgg has two actions
    with pytest.raises(ValidationError, match=r"^profile entry True invalid for node 0$"):
        verify(spec, net, (True, 1, 0))


@pytest.mark.parametrize("net, labels", [(star_graph(5), (0, 1, 1, 1, 0)), (star_graph(7), (0,) * 7)],
                         ids=["star5", "star7"])
def test_verify_rejects_a_network_other_than_the_compiled_one(net, labels):
    # The spec's keys are read on its own network; on another one, a 5-node
    # star once gave violations (0, 4) where best_responses gives [4], and a
    # 7-node star an IndexError. An equal network built anew passes
    # (test_simgame verifies on a fresh ring(64)).
    spec = compile_lvl(minority_game(path_graph(5)))
    with pytest.raises(ValidationError, match=r"^labeling's network is not the one the verifier was compiled on$"):
        verify(spec, net, labels)


def test_verdict_json():
    net = path_graph(3)
    g = pgg_game(net, HALF)
    verdict = verify(compile_lvl(g), net, (1, 1, 0))
    payload = json.loads(json.dumps(verdict.to_json()))
    assert payload == {"accepted": False, "violations": [0, 1]}


def accept_reference(spec, net, labels):
    """Violators by one `LvlSpec.accept` call per node."""
    return tuple(
        v for v in range(net.node_count)
        if not spec.accept(v, labels[v], tuple(labels[u] for u in net.neighbors(v)))
    )


def differential_games():
    from test_engine import thirds_pgg_ring6

    for net in (random_regular(40, 3, 1), random_regular(30, 4, 2), torus(5)):
        yield pgg_game(net, Fraction(1, 3))
        yield minority_game(net)
        yield coloring_game(net, 3)
    # Entries with no producing neighbor are in halves, the others in thirds:
    # the engine's common denominator grows while verify fills its table.
    yield thirds_pgg_ring6()
    yield thirds_pgg_ring6(1, Fraction(-4, 3))


@pytest.mark.parametrize("game", differential_games())
def test_verify_matches_the_accept_predicate_at_every_node(game):
    net, rng = game.network, Random(7)
    reused = compile_lvl(game)  # as `simgame` and `frozen` reuse one spec
    for _ in range(25):
        labels = tuple(rng.randrange(len(game.actions[v])) for v in range(net.node_count))
        expected = accept_reference(compile_lvl(game), net, labels)
        for spec in (compile_lvl(game), reused):
            assert verify(spec, net, labels) == Verdict(not expected, expected)
        assert expected == tuple(v for v in range(net.node_count)
                                 if labels[v] not in best_responses(game, v, labels))

