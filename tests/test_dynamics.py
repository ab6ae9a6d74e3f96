from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from netgame.errors import ValidationError
from netgame.dynamics import (
    EXCEEDED,
    Exceeded,
    ExplicitOrders,
    FixedOrder,
    FreshRandomEachRound,
    RandomInit,
    Trace,
    _round_order,
    default_max_rounds,
    fair_round,
    profile_from_json,
    profile_to_json,
    run,
    step,
    trace_to_csv,
    worst_case_convergence,
)
from netgame.game import (
    coloring_game,
    is_nash_equilibrium,
    minority_game,
    pgg_game,
    utility,
    welfare,
)
from netgame.network import Network, random_regular, ring, torus
from conftest import path_graph, star_graph

HALF = Fraction(1, 2)


def test_step_uncovered_node_produces():
    g = pgg_game(ring(4), HALF)
    out = step(g, (0, 0, 0, 0), 0)
    assert out == (1, 0, 0, 0)


def test_step_prefers_current_on_tie():
    g = minority_game(ring(4))
    # node 0's neighbors split evenly: stays put
    profile = (1, 0, 1, 1)
    assert step(g, profile, 0) == profile


def test_step_fixpoint_unchanged():
    g = pgg_game(ring(4), HALF)
    ne = (1, 0, 1, 0)
    for v in range(4):
        assert step(g, ne, v) == ne


def test_fair_round_pgg_hand_simulation():
    g = pgg_game(ring(4), HALF)
    assert fair_round(g, (0, 0, 0, 0), (0, 1, 2, 3)) == (1, 0, 1, 0)


def test_fair_round_minority_hand_simulation():
    g = minority_game(ring(4))
    assert fair_round(g, (1, 1, 1, 1), (0, 1, 2, 3)) == (0, 1, 0, 1)


def test_fair_round_rejects_non_permutation():
    g = pgg_game(ring(4), HALF)
    with pytest.raises(ValidationError):
        fair_round(g, (0, 0, 0, 0), (0, 1, 2, 2))


def test_run_pgg_converges_within_two_rounds():
    rng = Random(2)
    for seed in range(20):
        net = random_regular(30, 3, seed=seed)
        g = pgg_game(net, HALF)
        trace = run(g, RandomInit(seed), FreshRandomEachRound(seed + 100))
        assert trace.converged
        assert trace.convergence_round <= 2


def test_run_minority_cut_never_decreases():
    net = random_regular(40, 4, seed=6)
    g = minority_game(net)
    trace = run(g, RandomInit(1), FreshRandomEachRound(2))
    cuts = trace.cut_edges_per_round
    assert cuts is not None
    assert all(a <= b for a, b in zip(cuts, cuts[1:]))
    assert trace.converged


def test_run_coloring_k5_on_torus_reaches_all_happy():
    net = torus(5)
    g = coloring_game(net, 5)
    trace = run(g, RandomInit(3), FreshRandomEachRound(4))
    assert trace.converged
    assert all(utility(g, v, trace.final) == 1 for v in range(net.node_count))


def test_trace_shape_invariants():
    from netgame.game import random_profile
    from netgame.seeds import derive_seed

    g = pgg_game(ring(6), HALF)
    trace = run(g, RandomInit(0), FixedOrder(tuple(range(6))))
    assert len(trace.welfare_per_round) == trace.rounds_executed + 1
    assert len(trace.switches_per_round) == trace.rounds_executed
    init = random_profile(g, Random(derive_seed(0, "init")))
    assert trace.welfare_per_round[0] == welfare(g, init)
    assert trace.converged
    assert trace.switches_per_round[-1] == 0


def test_run_converged_iff_profile_entering_round_is_equilibrium(atlas5):
    # replay each round: the zero-switch round's entering profile is a NE,
    # every earlier round's is not
    rng = Random(8)
    for net in atlas5[:12]:
        g = minority_game(net)
        init = tuple(rng.randrange(2) for _ in range(net.node_count))
        policy = FreshRandomEachRound(17)
        trace = run(g, init, policy)
        assert trace.converged
        profile = init
        from netgame.dynamics import _round_order

        for r in range(1, trace.rounds_executed + 1):
            entering_is_ne = is_nash_equilibrium(g, profile)
            assert entering_is_ne == (r == trace.rounds_executed)
            profile = fair_round(g, profile, _round_order(policy, r, net.node_count))


def test_run_is_deterministic():
    net = random_regular(26, 3, seed=1)
    g = minority_game(net)
    t1 = run(g, RandomInit(5), FreshRandomEachRound(6))
    t2 = run(g, RandomInit(5), FreshRandomEachRound(6))
    assert t1 == t2


def test_run_already_at_equilibrium_reports_round_zero():
    g = pgg_game(ring(4), HALF)
    trace = run(g, (1, 0, 1, 0), FixedOrder((0, 1, 2, 3)))
    assert trace.converged
    assert trace.convergence_round == 0
    assert trace.rounds_executed == 1


def test_run_zero_rounds_keeps_only_the_initial_welfare():
    from netgame.game import minority_cut_edges, random_profile
    from netgame.seeds import derive_seed

    g = minority_game(ring(4))
    ne = (0, 1, 0, 1)  # an equilibrium, yet no round is played to show it
    assert run(g, ne, FixedOrder((0, 1, 2, 3)), max_rounds=0) == Trace(
        rounds_executed=0,
        converged=False,
        convergence_round=None,
        welfare_per_round=(welfare(g, ne),),
        switches_per_round=(),
        cut_edges_per_round=(minority_cut_edges(g, ne),),
        final=ne,
    )
    trace = run(g, RandomInit(3), FreshRandomEachRound(4), max_rounds=0)
    assert trace.final == random_profile(g, Random(derive_seed(3, "init")))
    with pytest.raises(ValidationError, match="max_rounds must be >= 0"):
        run(g, ne, FixedOrder((0, 1, 2, 3)), max_rounds=-1)


def test_explicit_orders_exhausted_errors():
    g = minority_game(ring(4))
    with pytest.raises(ValidationError):
        run(g, (1, 1, 1, 1), ExplicitOrders(((0, 1, 2, 3),)), max_rounds=5)


def test_worst_case_convergence_guards():
    g = pgg_game(ring(7), HALF)
    with pytest.raises(ValidationError):
        worst_case_convergence(g, (0,) * 7, 3)
    g4 = pgg_game(ring(4), HALF)
    with pytest.raises(ValidationError):
        worst_case_convergence(g4, (0, 0, 0, 0), 4)


def test_worst_case_convergence_at_equilibrium_is_zero():
    g = pgg_game(path_graph(3), HALF)
    assert worst_case_convergence(g, (0, 1, 0), 3) == 0


def test_worst_case_convergence_pgg_paths_at_most_two():
    g = pgg_game(path_graph(3), HALF)
    for bits in range(8):
        init = tuple(bits >> v & 1 for v in range(3))
        value = worst_case_convergence(g, init, 3)
        assert not isinstance(value, Exceeded)
        assert value <= 2


def test_worst_case_convergence_minority_ring5():
    g = minority_game(ring(5))
    value = worst_case_convergence(g, (1, 1, 1, 1, 1), 3)
    assert not isinstance(value, Exceeded)
    assert 1 <= value <= 2


def test_exceeded_is_distinguished():
    assert isinstance(EXCEEDED, Exceeded)
    assert EXCEEDED != 0


def test_trace_csv_format():
    g = minority_game(ring(4))
    trace = run(g, (1, 1, 1, 1), FixedOrder((0, 1, 2, 3)))
    lines = trace_to_csv(trace).strip().split("\n")
    assert lines[0] == "round,welfare_num,welfare_den,switches,cut_edges"
    assert lines[1] == "0,-4,1,0,0"
    row = lines[2].split(",")
    assert row[0] == "1" and int(row[3]) > 0


def test_trace_csv_without_cut_column_for_pgg():
    g = pgg_game(ring(4), HALF)
    trace = run(g, (0, 0, 0, 0), FixedOrder((0, 1, 2, 3)))
    header = trace_to_csv(trace).split("\n")[0]
    assert header == "round,welfare_num,welfare_den,switches"


def test_profile_json_round_trip():
    payload = profile_to_json((1, 0, 1, 0))
    assert payload == {"profile": [1, 0, 1, 0]}
    assert profile_from_json(payload) == (1, 0, 1, 0)
    # Only the shape is checked here; `verify` checks the entries against the game.
    with pytest.raises(ValidationError, match=r"^profile JSON must be an object with a 'profile' list$"):
        profile_from_json({"profile": 5})


def test_minority_monotonicity_check_fires_on_bad_utility():
    # a coordination utility mislabeled as the anti-coordination game makes
    # switches lose cut edges, which the engine must reject
    from dataclasses import replace

    from netgame.errors import SimulationFault

    g = minority_game(ring(4))
    inverted = replace(
        g, utility_fn=lambda v, own, nbrs: -g.utility_fn(v, own, nbrs)
    )
    with pytest.raises(SimulationFault, match="switch of node 0 failed"):
        run(inverted, (0, 1, 0, 1), FixedOrder((0, 1, 2, 3)), max_rounds=3)


def test_minority_switch_check_rejects_a_switch_at_a_tie():
    # A "tie-eager" utility adds 1/2 to action +1, so a node with one
    # neighbor on each side switches to +1 although the cut stays the same.
    # Nodes 0-2 keep their actions; node 3 (-1, between +1 and -1) is the
    # first to switch at a tie, and the check must count a tie as no gain.
    from dataclasses import replace

    from netgame.errors import SimulationFault

    g = minority_game(ring(6))
    eager = replace(g, utility_fn=lambda v, own, nbrs: g.utility_fn(v, own, nbrs) + HALF * (own == 1))
    with pytest.raises(SimulationFault, match="^anti-coordination switch of node 3 failed to add a cut edge$"):
        run(eager, (0, 1, 1, 0, 0, 1), FixedOrder(tuple(range(6))))


def test_producer_structure_check_fires_on_bad_utility():
    # inverted payoffs drive everyone to abstain; the empty producer set
    # fails the round-2 maximality condition
    from dataclasses import replace

    from netgame.errors import SimulationFault

    g = pgg_game(ring(4), HALF)
    inverted = replace(
        g, utility_fn=lambda v, own, nbrs: -g.utility_fn(v, own, nbrs)
    )
    with pytest.raises(SimulationFault, match="not maximal after round 2: node 0 "):
        run(inverted, (1, 0, 0, 0), FixedOrder((0, 1, 2, 3)), max_rounds=3)


def test_producer_independence_check_names_round_and_nodes():
    # a utility that always prefers producing makes neighbors both produce
    from dataclasses import replace

    from netgame.errors import SimulationFault

    g = pgg_game(ring(4), HALF)
    eager = replace(g, utility_fn=lambda v, own, nbrs: Fraction(1 if own == "P" else 0))
    with pytest.raises(SimulationFault, match="not independent after round 1: nodes 0 and 1 produce"):
        run(eager, (0, 0, 0, 0), FixedOrder((0, 1, 2, 3)), max_rounds=3)


def test_default_round_budget_grows_with_n():
    from netgame.dynamics import default_max_rounds

    assert default_max_rounds(0) == 10
    assert default_max_rounds(7) == 40  # 10*ceil(log2(8)) + 10
    assert default_max_rounds(1000) == 110


def test_star_graph_two_round_worst_case():
    g = pgg_game(star_graph(5), HALF)
    for bits in range(32):
        init = tuple(bits >> v & 1 for v in range(5))
        value = worst_case_convergence(g, init, 3)
        assert not isinstance(value, Exceeded) and value <= 2


def reference_round(game, profile, order):
    """Test-only sequential round, independent of the engine: each node in
    turn evaluates `utility` for every action, keeps its current action if
    that is a maximizer and otherwise takes the first maximizer."""
    switches = 0
    for v in order:
        payoffs = [
            utility(game, v, profile[:v] + (a,) + profile[v + 1 :])
            for a in range(len(game.actions[v]))
        ]
        top = max(payoffs)
        if payoffs[profile[v]] != top:
            profile = profile[:v] + (payoffs.index(top),) + profile[v + 1 :]
            switches += 1
    return profile, switches


@pytest.mark.parametrize(
    "make_game",
    [lambda net: pgg_game(net, HALF), minority_game, lambda net: coloring_game(net, 3)],
    ids=["pgg", "minority", "coloring"],
)
@pytest.mark.parametrize("seed", range(6))
def test_fair_round_and_run_match_reference_round(make_game, seed):
    rng = Random(seed)
    n = rng.randrange(6, 20)
    net = Network.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < 0.3])
    g = make_game(net)
    profile = tuple(rng.randrange(len(g.actions[v])) for v in range(n))
    policy = FreshRandomEachRound(seed)
    trace = run(g, profile, policy)

    switches, welfares = [], [welfare(g, profile)]
    for r in range(1, default_max_rounds(n) + 1):
        order = _round_order(policy, r, n)
        expected, count = reference_round(g, profile, order)
        assert fair_round(g, profile, order) == expected
        profile = expected
        switches.append(count)
        welfares.append(welfare(g, profile))
        if count == 0:
            break
    assert trace.final == profile
    assert trace.switches_per_round == tuple(switches)
    assert trace.welfare_per_round == tuple(welfares)


# For the anti-coordination game u_v = 1 - deg(v) + 2 * differ(v), so the
# welfare is n - 2m + 4 * cut; `run` reads its cut column from this.
def test_minority_welfare_gives_the_cut():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from netgame.game import minority_cut_edges

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.integers(0, 12), st.integers(0, 3), st.sampled_from([0.1, 0.3, 0.6, 0.9]),
                      st.randoms(use_true_random=False))
    def check(n, isolated, p, rng):
        net = Network.from_edges(n + isolated, [e for e in combinations(range(n), 2) if rng.random() < p])
        g = minority_game(net)
        profile = tuple(rng.randrange(2) for _ in range(net.node_count))
        cut = (welfare(g, profile) - net.node_count + 2 * net.edge_count) / 4
        assert cut == minority_cut_edges(g, profile)

    check()


def test_run_checks_the_welfare_cut_against_the_counted_cut():
    # A cut count that is one too high disagrees with the welfare's cut at
    # the end of the run, which names its last round.
    from dataclasses import replace

    from netgame.errors import SimulationFault
    from netgame.game import minority_cut_edges

    g = minority_game(ring(6))
    trace = run(g, (0,) * 6, FixedOrder(tuple(range(6))))
    assert trace.rounds_executed == 2 and trace.cut_edges_per_round == (0, 6, 6)
    off_by_one = replace(g, kind=replace(g.kind, cut_edges=lambda g, p: minority_cut_edges(g, p) + 1))
    with pytest.raises(SimulationFault, match="^cut after round 2 read from welfare is 6, counted 7$"):
        run(off_by_one, (0,) * 6, FixedOrder(tuple(range(6))))


def test_run_rejects_a_fractional_welfare_cut():
    # Half a unit more per node keeps every best response, but the welfare
    # no longer gives a whole cut.
    from dataclasses import replace

    from netgame.errors import SimulationFault

    g = minority_game(ring(6))
    shifted = replace(g, utility_fn=lambda v, own, nbrs: g.utility_fn(v, own, nbrs) + HALF)
    with pytest.raises(SimulationFault, match="^welfare -3 after round 0 gives a fractional cut 3/4$"):
        run(shifted, (0,) * 6, FixedOrder(tuple(range(6))))


def test_fresh_random_round_orders_are_permutations():
    # `run` does not check these orders, so every one must be a permutation
    # by construction.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.integers(0, 2**64), st.integers(1, 10**6), st.integers(0, 300))
    def check(seed, round_index, n):
        assert sorted(_round_order(FreshRandomEachRound(seed), round_index, n)) == list(range(n))

    check()


def test_run_checks_a_fixed_order_when_round_1_starts():
    g = pgg_game(ring(4), HALF)
    bad = FixedOrder((0, 1, 1, 3))
    with pytest.raises(ValidationError, match="^order must be a permutation scheduling every node exactly once$"):
        run(g, (0, 0, 0, 0), bad, max_rounds=1)
    # No round starts, so no order is used or checked.
    assert run(g, (0, 0, 0, 0), bad, max_rounds=0).rounds_executed == 0


def test_run_checks_each_explicit_order_when_its_round_is_reached():
    from dataclasses import replace

    g = pgg_game(ring(4), HALF)
    finished = []
    g = replace(g, kind=replace(g.kind, check_round=lambda game, profile, r: finished.append(r)))
    orders = ExplicitOrders(((0, 1, 2, 3), (0, 1, 2)))
    # An equilibrium converges in round 1 and never reaches the bad entry.
    trace = run(g, (1, 0, 1, 0), orders, max_rounds=5)
    assert trace.converged and trace.rounds_executed == 1
    # All-free-riding switches in round 1, so round 2 is reached.
    finished.clear()
    with pytest.raises(ValidationError, match="^order must be a permutation scheduling every node exactly once$"):
        run(g, (0, 0, 0, 0), orders, max_rounds=5)
    assert finished == [1]
    with pytest.raises(ValidationError, match="^order must be a permutation"):
        run(g, (0, 0, 0, 0), ExplicitOrders(((3, 2, 1, 0, 0),)), max_rounds=5)
