"""Differential tests of the integer neighbor-count engine (`BestResponseEngine`)
against the engine-free references: `reference_round` plus `welfare` for
`run` and `step`, per-node deviation checks for `verify`, sequential replay
for `simulate_fair_rounds`, a search by `is_nash_equilibrium` and
`reference_round` for `worst_case_convergence`, a recount by `key_of`,
`utility` and `welfare` for the engine's keys, payoffs and welfare after
arbitrary moves, and, for the exact search of `enumerate_ne`, a definitional
scan (every profile through `is_nash_equilibrium` and `welfare`) and
`gray_walk_ne`, a walk over every profile that makes one engine move per
profile."""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations, product
from random import Random

import pytest

from netgame.dynamics import (
    EXCEEDED,
    ExplicitOrders,
    FixedOrder,
    preferred_best_response,
    run,
    step,
    worst_case_convergence,
)
from netgame.game import (
    BestResponseEngine,
    best_response_payoffs,
    coloring_game,
    is_nash_equilibrium,
    minority_cut_edges,
    minority_game,
    neighbor_values,
    pgg_game,
    random_profile,
    utility,
    welfare,
)
from netgame.lvl import compile_lvl, verify
from netgame.local_sim import distance_coloring, simulate_fair_rounds
from netgame.network import Network, random_regular, ring, torus
from netgame.oracle import NeReport, enumerate_ne
from conftest import path_graph, star_graph
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
def cases(draw, max_n=14):
    """A G(n, p) graph with n <= ``max_n``, a built-in game on it, and a seed."""
    n = draw(st.integers(1, max_n))
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
def test_step_matches_a_one_node_reference_round(case):
    game, profile, rng = case
    v = rng.randrange(game.network.node_count)
    after = reference_round(game, profile, (v,))[0]
    assert step(game, profile, v) == after
    assert preferred_best_response(game, profile, v) == after[v]


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
    final, orders = simulate_fair_rounds(game, profile, distance_coloring(game.network), rounds)
    for order in orders:
        profile, _ = reference_round(game, profile, order)
    assert final == profile


def reference_worst_case(game, init, budget):
    """`worst_case_convergence` by `is_nash_equilibrium` and `reference_round`:
    memoised over (profile, rounds left), every order tried at each step."""
    perms = list(permutations(range(game.network.node_count)))
    memo = {}

    def worst(profile, left):
        if (profile, left) not in memo:
            if is_nash_equilibrium(game, profile):
                memo[profile, left] = 0
            elif left <= 1:
                memo[profile, left] = EXCEEDED
            else:
                tails = [worst(reference_round(game, profile, o)[0], left - 1) for o in perms]
                memo[profile, left] = EXCEEDED if EXCEEDED in tails else 1 + max(tails)
        return memo[profile, left]

    return worst(tuple(init), budget)


@SETTINGS
@hypothesis.given(cases(5), st.integers(1, 3))
def test_worst_case_convergence_matches_reference_search(case, budget):
    game, profile, _ = case
    assert worst_case_convergence(game, profile, budget) == reference_worst_case(game, profile, budget)


# Five-node graphs on which the worst case reaches 2 rounds and EXCEEDED.
@pytest.mark.parametrize("make_net", [lambda: ring(5), lambda: path_graph(5), lambda: star_graph(5)],
                         ids=["ring5", "path5", "star5"])
@pytest.mark.parametrize("kind", sorted(GAMES))
def test_worst_case_convergence_matches_reference_search_on_five_nodes(make_net, kind):
    game, rng = GAMES[kind](make_net()), Random(0)
    for _ in range(8):
        init = tuple(rng.randrange(len(game.actions[0])) for _ in range(5))
        for budget in (1, 2, 3):
            assert worst_case_convergence(game, init, budget) == reference_worst_case(game, init, budget)


def reference_scan(game):
    """Equilibria in lexicographic order, best welfare, and the worst and best
    equilibrium welfare, by `is_nash_equilibrium` and `welfare` on every profile."""
    scored = [(p, welfare(game, p)) for p in product(*(range(len(a)) for a in game.actions))]
    ne = [(p, w) for p, w in scored if is_nash_equilibrium(game, p)]
    ne_welfare = [w for _, w in ne]
    return (
        [p for p, _ in ne],
        max(w for _, w in scored),
        min(ne_welfare, default=None),
        max(ne_welfare, default=None),
    )


def scan_of(report):
    return list(report.equilibria), report.best_welfare, report.worst_ne_welfare, report.best_ne_welfare


@SETTINGS
@hypothesis.given(cases(8))
def test_enumerate_ne_matches_definitional_scan(case):
    game = case[0]
    assert scan_of(enumerate_ne(game)) == reference_scan(game)


def thirds_pgg_ring6(free_ride=0, per_producer=Fraction(1, 3)):
    """pgg with c = 1/2 on ring(6), plus ``free_ride`` for playing F and
    ``per_producer`` per producing neighbor: entries with no producing
    neighbor are in halves, the others need thirds, so the common
    denominator grows to sixths during a scan (while `enumerate_ne` fills
    the table)."""
    g = pgg_game(ring(6), HALF)

    def u(v, own, nbrs):
        return g.utility_fn(v, own, nbrs) + free_ride * (own == "F") + per_producer * nbrs.count("P")

    return replace(g, utility_fn=u)


# With 1 for free riding and -4/3 per producing neighbor, the all-F first
# profile is the only equilibrium and the welfare maximum, both stored in
# halves before the rescale.
@pytest.mark.parametrize("free_ride, per_producer", [(0, Fraction(1, 3)), (1, Fraction(-4, 3))])
def test_enumerate_ne_rescales_to_a_common_denominator_mid_scan(free_ride, per_producer):
    thirds = thirds_pgg_ring6(free_ride, per_producer)
    assert scan_of(enumerate_ne(thirds)) == reference_scan(thirds)


def gray_walk_ne(game):
    """`enumerate_ne` as a walk over every profile on one `BestResponseEngine`,
    in loopless reflected mixed-radix Gray order (Knuth, TAOCP Vol. 4A,
    7.2.1.1, Algorithm H): each step moves one node one action up or down,
    a profile is an equilibrium iff every node plays its preferred response
    in the engine's table (every key read is already filled by `reset` or
    `move`), and stored welfare numerators follow each rescale of ``den``."""
    n = game.network.node_count
    engine = BestResponseEngine(game, (0,) * n)
    prof, den, best = engine.profile, engine.den, engine.welfare_num
    top = len(engine.acts) - 1
    digits = n if top > 0 else 0  # a single action never moves
    focus, direction = list(range(digits + 1)), [1] * digits
    equilibria, ne_welfare = [], []
    while True:
        if engine.den != den:
            scale, den = engine.den // den, engine.den
            best *= scale
            ne_welfare = [w * scale for w in ne_welfare]
        best = max(best, engine.welfare_num)
        if all(engine.entry(u, engine.key[u])[1][a] == a for u, a in enumerate(prof)):
            equilibria.append(tuple(prof))
            ne_welfare.append(engine.welfare_num)
        v = focus[0]
        if v == digits:
            break
        focus[0] = 0
        a = prof[v] + direction[v]
        engine.move(v, a)
        if a == 0 or a == top:
            direction[v] = -direction[v]
            focus[v] = focus[v + 1]
            focus[v + 1] = v + 1
    best_welfare = Fraction(best, den)
    worst_ne = Fraction(min(ne_welfare), den) if ne_welfare else None
    return NeReport(
        equilibria=tuple(sorted(equilibria)),
        best_welfare=best_welfare,
        worst_ne_welfare=worst_ne,
        best_ne_welfare=Fraction(max(ne_welfare), den) if ne_welfare else None,
        poa=best_welfare / worst_ne if worst_ne else None,
    )


def rock_paper_scissors(net):
    """Three actions, each beating the next: two points per neighbor beaten,
    minus one per neighbor lost to. A single edge has no pure equilibrium."""

    def u(v, own, nbrs):
        return Fraction(sum(2 if (own - x) % 3 == 1 else -1 if (x - own) % 3 == 1 else 0 for x in nbrs))

    return replace(coloring_game(net, 3), utility_fn=u)


@st.composite
def ne_games(draw):
    """A built-in game (colouring with 2 or 3 colours) or `rock_paper_scissors`
    on a G(n, p) graph with n <= 7, often disconnected, plus up to two
    isolated nodes."""
    n, isolated = draw(st.integers(0, 7)), draw(st.integers(0, 2))
    p = draw(st.sampled_from([0.15, 0.3, 0.5, 0.8]))
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    net = Network.from_edges(n + isolated, [e for e in combinations(range(n), 2) if rng.random() < p])
    makers = {**GAMES, "coloring2": lambda net: coloring_game(net, 2), "rps": rock_paper_scissors}
    return makers[draw(st.sampled_from(sorted(makers)))](net)


def counting_utility(game):
    """``game`` with its utility calls counted; returns it and the tally."""
    calls, fn = [0], game.utility_fn

    def counted(v, own, nbrs):
        calls[0] += 1
        return fn(v, own, nbrs)

    return replace(game, utility_fn=counted), calls


# The search fills the table entries the walk fills, with as many utility calls.
@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(ne_games())
def test_enumerate_ne_matches_gray_walk(game):
    game, calls = counting_utility(game)
    report = enumerate_ne(game)
    searched, calls[0] = calls[0], 0
    assert report == gray_walk_ne(game)
    assert searched == calls[0]


@pytest.mark.parametrize(
    "game",
    [
        pgg_game(Network.from_edges(0, []), HALF),
        replace(pgg_game(ring(4), HALF), actions=(("F",),) * 4),
        replace(minority_game(path_graph(5000)), actions=((1,),) * 5000),
        thirds_pgg_ring6(),
        thirds_pgg_ring6(1, Fraction(-4, 3)),
        rock_paper_scissors(path_graph(2)),
    ],
    ids=["no_nodes", "one_action", "one_action_path5000", "thirds_pgg_ring6", "thirds_pgg_ring6_all_f",
         "no_equilibrium"],
)
def test_enumerate_ne_matches_gray_walk_on_edge_cases(game):
    assert enumerate_ne(game) == gray_walk_ne(game)


@pytest.mark.parametrize("profile", [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0)], ids=["reset", "move"])
def test_rescale_to_a_common_denominator_keeps_welfare_exact(profile):
    # From (1, 0, ...) the rescale to sixths comes while the engine is set
    # up, after node 0's payoff is stored; from all zeros it comes in round
    # 1, when node 0's switch fills its neighbors' entries, with the running
    # welfare already nonzero.
    thirds = thirds_pgg_ring6()
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


def assert_state_matches_recount(engine):
    """Keys, payoffs and welfare against `key_of`, `utility` and `welfare` on
    the engine's profile."""
    game, profile = engine.game, tuple(engine.profile)
    nodes = range(len(profile))
    assert engine.key == [engine.key_of(profile[u] for u in game.network.neighbors(v)) for v in nodes]
    assert [Fraction(engine.pay[v], engine.den) for v in nodes] == [utility(game, v, profile) for v in nodes]
    assert engine.welfare() == welfare(game, profile)


# Each op is (kind, r): move node r % n to action r // n % k, switch node
# r % n to its preferred response, or sweep in an order shuffled by Random(r).
OPS = st.lists(st.tuples(st.sampled_from(["move", "switch", "sweep"]), st.integers(0, 2**16)), max_size=25)


def apply_ops_checking_state(engine, ops):
    assert_state_matches_recount(engine)
    n, k = len(engine.profile), len(engine.acts)
    for kind, r in ops:
        v = r % n
        if kind == "move":
            engine.move(v, r // n % k)
        elif kind == "switch":
            b = engine.entry(v, engine.key[v])[1][engine.profile[v]]
            if b != engine.profile[v]:
                engine.switch(v, b)
        else:
            order = list(range(n))
            Random(r).shuffle(order)
            engine.sweep(order)
        assert_state_matches_recount(engine)


@SETTINGS
@hypothesis.given(cases(), OPS)
def test_engine_state_matches_a_recount_after_random_operations(case, ops):
    game, profile, _ = case
    apply_ops_checking_state(BestResponseEngine(game, profile), ops)


# From all zeros, thirds_pgg_ring6 starts in halves; the first producer
# grows the common denominator to sixths mid-sequence.
@pytest.mark.parametrize("make_game", [thirds_pgg_ring6, lambda: coloring_game(torus(3), 3)],
                         ids=["thirds_pgg_ring6", "coloring3_torus3"])
@SETTINGS
@hypothesis.given(ops=OPS)
@hypothesis.example(ops=[("sweep", 0)])
def test_engine_state_matches_a_recount_from_all_zeros(make_game, ops):
    game = make_game()
    engine = BestResponseEngine(game, (0,) * game.network.node_count)
    apply_ops_checking_state(engine, ops)


# `keys` sums the weights of each node's neighbors, from none up: graphs with
# isolated nodes, paths, stars and regular graphs.
KEY_NETWORKS = {
    "one_node": Network(((),)),
    "isolated_and_edge": Network.from_edges(4, [(1, 3)]),
    "path2": path_graph(2),
    "path7": path_graph(7),
    "star6": star_graph(6),
    "star_plus_isolated": Network.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4)]),
    "regular_20_3": random_regular(20, 3, 4),
    "regular_24_5": random_regular(24, 5, 1),
}


@pytest.mark.parametrize("kind", sorted(GAMES))
@pytest.mark.parametrize("name", sorted(KEY_NETWORKS))
def test_keys_and_reset_match_a_recount_after_random_resets(name, kind):
    game = GAMES[kind](KEY_NETWORKS[name])
    engine, rng = BestResponseEngine(game), Random(name)
    neighbors = game.network.neighbors
    for _ in range(20):
        profile = random_profile(game, rng)
        assert engine.keys(profile) == [engine.key_of(profile[u] for u in neighbors(v))
                                        for v in range(len(profile))]
        engine.reset(profile)
        assert_state_matches_recount(engine)


ENTRY_GAMES = {
    **{f"coloring{k}": (lambda k: lambda net: coloring_game(net, k))(k) for k in (2, 3, 7, 64)},
    "pgg": GAMES["pgg"],
    "minority": minority_game,
}


@pytest.mark.parametrize("kind", sorted(ENTRY_GAMES))
@pytest.mark.parametrize("name", sorted(KEY_NETWORKS))
def test_entry_rows_follow_the_best_response_definition(name, kind):
    # Each row holds v's payoffs over the common denominator and, per own
    # action, that action if it maximizes, else the first maximizer.
    game = ENTRY_GAMES[kind](KEY_NETWORKS[name])
    engine, rng = BestResponseEngine(game), Random(name + kind)
    neighbors = game.network.neighbors
    for _ in range(20):
        profile = random_profile(game, rng)
        for v in range(len(profile)):
            pays, pref = engine.entry(v, engine.key_of(profile[u] for u in neighbors(v)))
            payoffs, best = best_response_payoffs(game, v, neighbor_values(game, v, profile))
            assert [Fraction(p, engine.den) for p in pays] == list(payoffs)
            assert pref == tuple(a if a in best else best[0] for a in range(len(payoffs)))
