"""Differential tests of the integer neighbor-count engine (`BestResponseEngine`)
against the engine-free references: `reference_round` plus `welfare` for
`run`, per-node deviation checks for `verify`, and sequential replay for
`simulate_fair_rounds`."""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from netgame.dynamics import ExplicitOrders, FixedOrder, run
from netgame.game import (
    BestResponseEngine,
    coloring_game,
    is_nash_equilibrium,
    minority_cut_edges,
    minority_game,
    pgg_game,
    utility,
    welfare,
)
from netgame.lvl import compile_lvl, verify
from netgame.local_sim import distance_coloring, simulate_fair_rounds
from netgame.network import Network, ring
from test_dynamics import reference_round

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

HALF = Fraction(1, 2)
GAMES = {
    "pgg": lambda net: pgg_game(net, HALF),
    "minority": minority_game,
    "coloring": lambda net: coloring_game(net, 3),
}
SETTINGS = hypothesis.settings(max_examples=40, deadline=None)


@st.composite
def cases(draw):
    """A G(n, p) graph with n <= 14, a built-in game on it, and a seed."""
    n = draw(st.integers(1, 14))
    p = draw(st.sampled_from([0.15, 0.3, 0.5]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = Random(seed)
    net = Network.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])
    game = GAMES[draw(st.sampled_from(sorted(GAMES)))](net)
    profile = tuple(rng.randrange(len(game.actions[v])) for v in range(n))
    return game, profile, rng


def reference_trace(game, profile, orders):
    """Welfare, switches, cuts and final profile by `reference_round`."""
    cut = game.kind.cut_edges is not None
    welfares, switches = [welfare(game, profile)], []
    cuts = [minority_cut_edges(game, profile)] if cut else None
    for order in orders:
        profile, count = reference_round(game, profile, order)
        welfares.append(welfare(game, profile))
        switches.append(count)
        if cut:
            cuts.append(minority_cut_edges(game, profile))
        if count == 0:
            break
    return tuple(welfares), tuple(switches), tuple(cuts) if cut else None, profile


def shuffled_orders(n, rng, rounds):
    orders = []
    for _ in range(rounds):
        order = list(range(n))
        rng.shuffle(order)
        orders.append(tuple(order))
    return tuple(orders)


@SETTINGS
@hypothesis.given(cases())
def test_run_matches_reference_rounds(case):
    game, profile, rng = case
    orders = shuffled_orders(game.network.node_count, rng, 8)
    trace = run(game, profile, ExplicitOrders(orders), max_rounds=len(orders))
    welfares, switches, cuts, final = reference_trace(game, profile, orders)
    assert trace.welfare_per_round == welfares
    assert trace.switches_per_round == switches
    assert trace.cut_edges_per_round == cuts
    assert trace.final == final


@SETTINGS
@hypothesis.given(cases())
def test_verify_matches_per_node_deviation_check(case):
    game, profile, _ = case
    n = game.network.node_count

    def deviates(v):
        own = utility(game, v, profile)
        return any(
            utility(game, v, profile[:v] + (a,) + profile[v + 1 :]) > own
            for a in range(len(game.actions[v]))
        )

    verdict = verify(compile_lvl(game), game.network, profile)
    assert verdict.violations == tuple(v for v in range(n) if deviates(v))
    assert verdict.accepted == is_nash_equilibrium(game, profile)


@SETTINGS
@hypothesis.given(cases(), st.integers(0, 3))
def test_simulate_fair_rounds_matches_sequential_replay(case, rounds):
    game, profile, _ = case
    final, orders = simulate_fair_rounds(game, profile, distance_coloring(game.network, 2), rounds)
    for order in orders:
        profile, _ = reference_round(game, profile, order)
    assert final == profile


@pytest.mark.parametrize("profile", [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0)], ids=["reset", "move"])
def test_rescale_to_a_common_denominator_keeps_welfare_exact(profile):
    # thirds under pgg's c = 1/2: entries with no producing neighbor are in
    # halves, the others need thirds. From (1, 0, ...) the rescale to sixths
    # comes while the engine is set up, after node 0's payoff is stored; from
    # all zeros it comes in round 1, when node 0's switch fills its
    # neighbors' entries, with the running welfare already nonzero.
    g = pgg_game(ring(6), HALF)
    thirds = replace(
        g, utility_fn=lambda v, own, nbrs: g.utility_fn(v, own, nbrs) + Fraction(nbrs.count("P"), 3)
    )
    engine = BestResponseEngine(thirds, profile)
    assert engine.welfare() == welfare(thirds, profile)
    orders = (tuple(range(6)),) * 4
    trace = run(thirds, profile, FixedOrder(orders[0]), max_rounds=4)
    welfares, switches, _, final = reference_trace(thirds, profile, orders)
    assert trace.welfare_per_round == welfares
    assert trace.switches_per_round == switches
    assert trace.final == final
    engine.sweep(orders[0])
    assert engine.den == 6
    assert engine.welfare() == welfares[1]
