import itertools
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from netgame.errors import GuardError, ValidationError
from netgame.dynamics import fair_round
from netgame.game import (
    GAME_KINDS,
    BestResponseEngine,
    GraphicalGame,
    coloring_game,
    is_nash_equilibrium,
    minority_game,
    pgg_game,
    random_profile,
    welfare,
)
from netgame.lvl import compile_lvl, verify
from netgame.network import (
    Network,
    bipartite_double_cover,
    random_regular,
    ring,
    star_matching,
    torus,
)
from netgame.oracle import (
    _caps,
    _cuthill_mckee,
    _search,
    combinatorial_optima,
    domination_number,
    enumerate_ne,
    find_frozen_configuration,
    is_proper_coloring,
    measured_inefficiency,
    minority_poa_report,
    optimum_welfare_upper_bound,
    poa_pgg_instance,
    proper_coloring_exists,
)
from netgame.seeds import derive_seed
from conftest import path_graph

HALF = Fraction(1, 2)


def test_enumerate_pgg_path3():
    report = enumerate_ne(pgg_game(path_graph(3), HALF))
    assert set(report.equilibria) == {(0, 1, 0), (1, 0, 1)}
    assert report.best_welfare == Fraction(5, 2)  # one producer covering both
    assert report.best_ne_welfare == Fraction(5, 2)
    assert report.worst_ne_welfare == Fraction(2)
    assert report.poa == Fraction(5, 4)


def test_enumerate_minority_ring4():
    report = enumerate_ne(minority_game(ring(4)))
    assert len(report.equilibria) == 6
    alternating = {(0, 1, 0, 1), (1, 0, 1, 0)}
    assert alternating <= set(report.equilibria)


def test_enumerate_coloring_single_edge():
    net = Network.from_edges(2, [(0, 1)])
    report = enumerate_ne(coloring_game(net, 2))
    assert set(report.equilibria) == {(0, 1), (1, 0)}
    assert report.poa == 1


def test_enumerate_ne_lists_every_profile_of_an_all_negative_game():
    # Every profile is an equilibrium of welfare -5, so the equilibrium
    # search must start below the least welfare, not at 0 or -rest.
    game = replace(minority_game(ring(5)), utility_fn=lambda v, own, nbrs: Fraction(-1))
    report = enumerate_ne(game)
    assert report.equilibria == tuple(itertools.product(range(2), repeat=5))
    assert report.best_welfare == report.worst_ne_welfare == report.best_ne_welfare == -5
    assert report.poa == 1


def forbid_profile_updates(monkeypatch):
    """Make `BestResponseEngine.move` and `reset` fail, so that `enumerate_ne`
    can read nothing but the payoff table that `entry` fills."""

    def forbidden(engine, *args):
        raise AssertionError("enumerate_ne updated the engine's profile")

    monkeypatch.setattr(BestResponseEngine, "move", forbidden)
    monkeypatch.setattr(BestResponseEngine, "reset", forbidden)


# The radix 3 of the colouring game exercises a middle action as well as both
# ends of a node's action list.
@pytest.mark.parametrize(
    "game",
    [pgg_game(random_regular(12, 3, 1), HALF), minority_game(ring(7)), coloring_game(torus(3), 3)],
    ids=["pgg_rr12", "minority_ring7", "coloring3_torus3"],
)
def test_enumerate_ne_never_moves(monkeypatch, game):
    forbid_profile_updates(monkeypatch)
    report = enumerate_ne(game)
    assert list(report.equilibria) == sorted(report.equilibria)
    assert report.equilibria and len(set(report.equilibria)) == len(report.equilibria)


@pytest.mark.parametrize(
    "game",
    [pgg_game(Network.from_edges(0, []), HALF),
     replace(pgg_game(ring(4), HALF), actions=(("F",),) * 4)],
    ids=["no_nodes", "one_action"],
)
def test_enumerate_ne_single_profile_space(monkeypatch, game):
    forbid_profile_updates(monkeypatch)
    report = enumerate_ne(game)
    assert report.equilibria == ((0,) * game.network.node_count,)
    assert report.best_welfare == report.worst_ne_welfare == welfare(game, report.equilibria[0])


def test_enumeration_guard():
    with pytest.raises(GuardError):
        enumerate_ne(coloring_game(ring(8), 8))  # 8^8 > 2^21


def test_enumeration_agrees_with_verifier(atlas5):
    # The scan and the verifier share one best-response engine, so both are
    # also checked against the definitional equilibrium test and a direct
    # welfare maximum.
    for net in atlas5:
        for g in (minority_game(net), pgg_game(net, HALF), coloring_game(net, 3)):
            report = enumerate_ne(g)
            spec = compile_lvl(g)
            listed = set(report.equilibria)
            profiles = list(itertools.product(*(range(len(a)) for a in g.actions)))
            for profile in profiles:
                assert (profile in listed) == verify(spec, net, profile).accepted
            assert listed == {p for p in profiles if is_nash_equilibrium(g, p)}
            assert report.best_welfare == max(welfare(g, p) for p in profiles)


def reference_search(engine):
    """`oracle._search` before the caps: the branch and bound bounds each
    unfinished node by its degree's largest table payoff until its closed
    neighborhood is assigned."""
    nbrs, weight, table = engine.nbrs, engine.weight, engine.table
    k, n = len(engine.acts), len(nbrs)
    degrees = {len(nb): v for v, nb in enumerate(nbrs)}
    keys = {d: [engine.key_of(labels) for labels in itertools.combinations_with_replacement(range(k), d)]
            for d in degrees}
    for d, v in degrees.items():
        for key in keys[d]:
            engine.entry(v, key)
    pays = {key: p for key, (p, _) in table.items()}
    zero = sum(pays[keys[len(nb)][0]][0] for nb in nbrs)
    if k < 2:
        return [(0,) * n], [zero], zero
    settled = {key: [x if pref[a] == a else None for a, x in enumerate(p)]
               for key, (p, pref) in table.items()}
    top = {d: max(max(pays[key]) for key in ks) for d, ks in keys.items()}
    low = {d: min(min(pays[key]) for key in ks) for d, ks in keys.items()}
    order = _cuthill_mckee(nbrs)
    pos = {v: i for i, v in enumerate(order)}
    finished = [[] for _ in order]
    for v, nb in enumerate(nbrs):
        finished[max([pos[v], *(pos[u] for u in nb)])].append(v)
    rest = [0] * (n + 1)
    for i in reversed(range(n)):
        rest[i] = rest[i + 1] + sum(top[len(nbrs[x])] for x in finished[i])
    steps = [(order[i], nbrs[order[i]], finished[i], rest[i + 1]) for i in range(n)]
    prof, partial = [0] * n, [0] * n
    equilibria, ne_welfare = [], []

    def walk(rows, i, total):
        nonlocal best
        v, nb, fin, bound = steps[i]
        for a in range(k):
            prof[v] = a
            w = weight[a]
            for u in nb:
                partial[u] += w
            t = total
            for x in fin:
                p = rows[partial[x]][prof[x]]
                if p is None:
                    break
                t += p
            else:
                if t + bound > best:
                    if i + 1 < n:
                        walk(rows, i + 1, t)
                    elif rows is pays:
                        best = t
                    else:
                        equilibria.append(tuple(prof))
                        ne_welfare.append(t)
            for u in nb:
                partial[u] -= w

    best = sum(low[len(nb)] for nb in nbrs) - 1
    walk(settled, 0, 0)
    best = max(ne_welfare, default=zero)
    if rest[0] > best:
        walk(pays, 0, 0)
    return equilibria, ne_welfare, best


# Negative, fractional and tied payoffs: a few values, so that ties are common.
TABLE_VALUES = (Fraction(-3), Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(1, 2),
                Fraction(1), Fraction(7, 3))


def table_game(net, k, values):
    """A game whose payoff is ``values[own, counts]``, ``counts`` the number
    of neighbors playing each action: anonymous, as the engine needs."""

    def utility_fn(v, own, nbrs):
        return values[own, tuple(nbrs.count(a) for a in range(k))]

    return GraphicalGame(net, (tuple(range(k)),) * net.node_count, utility_fn, GAME_KINDS["coloring"], {})


def test_capped_search_matches_the_reference_search():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def games(draw):
        k = draw(st.integers(2, 4))
        most = {2: 12, 3: 8, 4: 6}[k]  # at most 4096 profiles
        shape = draw(st.sampled_from(["ring", "path", "cubic", "gnp"]))
        if shape == "ring":
            net = ring(draw(st.integers(3, most)))
        elif shape == "path":
            net = path_graph(draw(st.integers(1, most)))
        elif shape == "cubic":
            net = random_regular(draw(st.sampled_from(range(4, most + 1, 2))), 3, draw(st.integers(0, 99)))
        else:  # isolated nodes and mixed degrees
            n = draw(st.integers(1, most))
            p = draw(st.sampled_from([0.2, 0.4, 0.7]))
            rng = Random(draw(st.integers(0, 2**32 - 1)))
            net = Network.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        values = {}
        for d in sorted({len(nb) for nb in net.adjacency}):
            for labels in itertools.combinations_with_replacement(range(k), d):
                counts = tuple(labels.count(a) for a in range(k))
                for own in range(k):
                    values[own, counts] = draw(st.sampled_from(TABLE_VALUES))
        return table_game(net, k, values)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(games())
    def check(game):
        equilibria, ne_welfare, best = _search(BestResponseEngine(game))
        assert (equilibria, ne_welfare, best) == reference_search(BestResponseEngine(game))

    check()


def test_caps_are_the_largest_payoff_over_every_completion():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def tables(draw):
        k, d = draw(st.integers(1, 4)), draw(st.integers(0, 5))
        radix = d + 1 + draw(st.integers(0, 2))  # the network's largest degree may exceed d
        weight = [radix**a for a in range(k)]
        pays = {sum(weight[a] for a in labels): draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k))
                for labels in itertools.combinations_with_replacement(range(k), d)}
        return pays, weight, d

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(tables())
    def check(case):
        pays, weight, d = case
        k = len(weight)
        want = {}
        for m in range(d + 1):
            for labels in itertools.combinations_with_replacement(range(k), m):
                p = sum(weight[a] for a in labels)
                rows = [pays[p + sum(weight[b] for b in rest)]
                        for rest in itertools.combinations_with_replacement(range(k), d - m)]
                row = [max(r[a] for r in rows) for a in range(k)]
                want[p] = [*row, max(row)]
        assert _caps(pays, weight, d) == want

    check()


def gift_game(net, k):
    """Each node pays its action times its degree and gives twice its action
    to each neighbor: all-zero is the one equilibrium, of welfare 0, and the
    optimum is every node at ``k - 1``, of welfare ``(k - 1)`` times the
    degree sum. So the branch and bound runs."""
    return GraphicalGame(net, (tuple(range(k)),) * net.node_count,
                         lambda v, own, nbrs: Fraction(2 * sum(nbrs) - len(nbrs) * own),
                         GAME_KINDS["coloring"], {})


@pytest.mark.parametrize("n, k", [(2, 1000), (3, 64)])
def test_branch_and_bound_at_the_guard_edge(n, k):
    # The caps come from the one-more-neighbor recurrence, k entries per key
    # and action, not from a scan of every completion of every partial key.
    net = path_graph(n)
    report = enumerate_ne(gift_game(net, k))
    assert report.equilibria == ((0,) * n,)
    assert report.worst_ne_welfare == report.best_ne_welfare == 0
    assert report.best_welfare == (k - 1) * 2 * net.edge_count


def test_caps_are_built_only_for_the_branch_and_bound(monkeypatch):
    built = []

    def counted(pays, weight, d):
        built.append(d)
        return _caps(pays, weight, d)

    monkeypatch.setattr("netgame.oracle._caps", counted)
    # On the 3x3 torus a proper 3-coloring pays every node its top payoff,
    # so the best equilibrium meets the bound and the branch and bound never runs.
    enumerate_ne(coloring_game(torus(3), 3))
    assert built == []
    enumerate_ne(pgg_game(ring(6), HALF))
    assert built == [2]


def test_poa_at_least_one(atlas5):
    for net in atlas5[:10]:
        report = enumerate_ne(pgg_game(net, HALF))
        assert report.poa >= 1
        if report.poa == 1:
            assert report.worst_ne_welfare == report.best_welfare


def test_poa_pgg_instance_value():
    report = poa_pgg_instance(3, 2, HALF, seed=11)
    assert report.poa == Fraction(7, 6)
    assert report.best_welfare == 14
    assert report.best_ne_welfare == 14
    assert report.worst_ne_welfare == 12


def test_poa_pgg_instance_contains_structural_equilibria():
    d, k = 3, 2
    base, centers, _ = star_matching(k, d, seed=11)
    net = bipartite_double_cover(base)
    report = poa_pgg_instance(d, k, HALF, seed=11)
    n0 = base.node_count
    center_profile = tuple(1 if (v % n0) in centers else 0 for v in range(net.node_count))
    side_profile = tuple(1 if v < n0 else 0 for v in range(net.node_count))
    assert center_profile in report.equilibria
    assert sum(center_profile) * (d + 1) == net.node_count
    assert side_profile in report.equilibria
    assert sum(side_profile) * 2 == net.node_count


def test_combinatorial_optima_star_matching():
    net, centers, _ = star_matching(4, 3, seed=5)
    min_dom, max_ind, max_cut = combinatorial_optima(net)
    assert min_dom == 4  # the centers attain the n/(d+1) bound
    assert max_ind >= 4
    assert max_cut <= net.edge_count


def test_combinatorial_optima_bipartite_cut_is_all_edges():
    net = bipartite_double_cover(ring(3))
    _, _, max_cut = combinatorial_optima(net)
    assert max_cut == net.edge_count


def test_combinatorial_optima_ring5():
    assert combinatorial_optima(ring(5)) == (2, 2, 4)


def test_combinatorial_optima_guard():
    with pytest.raises(GuardError):
        combinatorial_optima(ring(25))
    with pytest.raises(GuardError):
        domination_number(ring(25))


def test_combinatorial_optima_match_networkx(atlas5):
    # independent oracles: networkx's dominating-set test over subsets,
    # its exact maximum clique of the complement, and its cut size
    nx = pytest.importorskip("networkx")
    nets = atlas5 + [random_regular(n, 3, seed=s) for n, s in ((8, 1), (10, 2), (12, 3))]
    for net in nets:
        g = nx.Graph(net.edges())
        g.add_nodes_from(range(net.node_count))
        nodes = list(g)
        gamma = min(
            size
            for size in range(1, net.node_count + 1)
            if any(nx.is_dominating_set(g, s) for s in itertools.combinations(nodes, size))
        )
        alpha = nx.max_weight_clique(nx.complement(g), weight=None)[1]
        cut = max(
            nx.cut_size(g, s)
            for size in range(net.node_count + 1)
            for s in itertools.combinations(nodes, size)
        )
        assert combinatorial_optima(net) == (gamma, alpha, cut)
        assert domination_number(net) == gamma


@pytest.mark.parametrize(
    "game, bound",
    [
        (pgg_game(ring(22), HALF), 18),  # 2**22 profiles: 22 - c * gamma(ring(22)) = 22 - 8/2
        (pgg_game(ring(30), HALF), 25),  # ceiling formula: 30 - c * ceil(30 / 3)
        (minority_game(ring(30)), 90),  # (max_degree + 1) * n
        (coloring_game(ring(30), 3), 30),  # n
    ],
    ids=["pgg-ring22", "pgg-ring30", "minority-ring30", "coloring-ring30"],
)
def test_closed_form_welfare_bounds_above_enumeration_guard(game, bound):
    assert optimum_welfare_upper_bound(game) == bound


def test_max_welfare_exhaustive_minority_bipartite():
    net = bipartite_double_cover(ring(4))
    assert enumerate_ne(minority_game(net)).best_welfare == (2 + 1) * 8


def test_measured_inefficiency_t0_matches_expectation():
    # expected welfare of a uniform random profile in the anti-coordination
    # game is exactly n; check the sampled mean within 3 standard deviations
    from netgame.network import random_regular

    net = random_regular(14, 4, seed=3)
    g = minority_game(net)
    report = measured_inefficiency(g, T=0, trials=400, seed=9)
    n, m = 14, net.edge_count
    # welfare = n + 2*(2*cut - m); edge cut indicators are pairwise
    # independent, so Var(welfare) = 16 * m/4 = 4m
    sigma_mean = (4.0 * m / 400) ** 0.5
    assert abs(float(report.mean_br_welfare) - n) <= 3 * sigma_mean
    assert report.ratio_upper_bound == report.optimum_upper_bound / report.mean_br_welfare


def test_measured_inefficiency_monotone_for_minority_paired_seeds():
    from netgame.network import random_regular

    net = random_regular(12, 4, seed=1)
    g = minority_game(net)
    means = [
        measured_inefficiency(g, T=t, trials=30, seed=77).mean_br_welfare
        for t in (0, 1, 2, 3)
    ]
    assert all(a <= b for a, b in zip(means, means[1:]))


def test_measured_inefficiency_minority_ratio_bounds():
    # 4-regular bipartite n=8: five rounds reach locally optimal cuts with
    # welfare >= n, so the certified ratio sits between 1 and 5
    net = Network.from_edges(
        8, [(v, (v + 1) % 8) for v in range(8)] + [(v, (v + 3) % 8) for v in range(8)]
    )
    g = minority_game(net)
    report = measured_inefficiency(g, T=5, trials=1000, seed=13)
    assert report.optimum_upper_bound == 40
    assert Fraction(1) <= report.ratio_upper_bound <= Fraction(5)


def test_measured_inefficiency_pgg_stabilizes_after_convergence():
    # production runs converge within two rounds, so adding rounds to the
    # same seeded trials cannot move the measured mean
    g = pgg_game(ring(10), HALF)
    two = measured_inefficiency(g, T=2, trials=25, seed=3)
    ten = measured_inefficiency(g, T=10, trials=25, seed=3)
    assert two.mean_br_welfare == ten.mean_br_welfare
    assert two.ratio_upper_bound == ten.ratio_upper_bound


def test_measured_inefficiency_validates_inputs():
    g = minority_game(ring(6))
    with pytest.raises(ValidationError):
        measured_inefficiency(g, T=1, trials=0, seed=0)
    with pytest.raises(ValidationError):
        measured_inefficiency(g, T=-1, trials=5, seed=0)


def test_frozen_configuration_found_on_torus6_k4():
    net = torus(6)
    profile = find_frozen_configuration(net, 4, seed=1, budget=10**6)
    assert profile is not None
    g = coloring_game(net, 4)
    assert verify(compile_lvl(g), net, profile).accepted
    assert not is_proper_coloring(g, profile)


def test_frozen_configuration_is_a_fixpoint():
    net = torus(6)
    profile = find_frozen_configuration(net, 4, seed=2, budget=10**6)
    assert profile is not None
    g = coloring_game(net, 4)
    current = profile
    rng = Random(5)
    for _ in range(20):
        order = list(range(36))
        rng.shuffle(order)
        current = fair_round(g, current, tuple(order))
        assert current == profile


@pytest.mark.parametrize("seed, enough", [(1, 144), (3, 756)])
def test_frozen_configuration_budget_boundary(seed, enough):
    # A sweep that cannot finish within the remaining budget is not started:
    # the smallest sufficient budget finds what an ample one does, one less
    # finds nothing.
    net = torus(6)
    found = find_frozen_configuration(net, 4, seed=seed, budget=10**6)
    assert found is not None
    assert find_frozen_configuration(net, 4, seed=seed, budget=enough) == found
    assert find_frozen_configuration(net, 4, seed=seed, budget=enough - 1) is None


def reference_frozen_search(net, k, seed, budget):
    """`find_frozen_configuration` with every sweep run, the last one (no
    switch) included, each charged before the next budget check."""
    game, n, steps, restart = coloring_game(net, k), net.node_count, 0, 0
    while steps < budget:
        rng = Random(derive_seed(seed, "restart", restart))
        restart += 1
        engine = BestResponseEngine(game, random_profile(game, rng))
        switches = 1
        while switches:
            if steps + n > budget:
                return None
            order = list(range(n))
            rng.shuffle(order)
            switches = engine.sweep(order)
            steps += n
        if engine.welfare() != n:
            return tuple(engine.profile)
    return None


# With k = 5 on torus(6), the bench's frozen shape, every restart ends in a
# proper coloring. The budgets 144 and 756 end exactly on the last charge of
# the restart that finds the configuration for seeds 1 and 3 on torus(6)
# (`test_frozen_configuration_budget_boundary`); both are multiples of every n here.
@pytest.mark.parametrize("net", [torus(6), ring(9), random_regular(12, 3, 1)], ids=["torus6", "ring9", "rr12"])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_frozen_search_matches_the_search_that_runs_every_sweep(net, k):
    for seed in range(4):
        for budget in (0, 35, 108, 143, 144, 180, 500, 720, 755, 756, 792, 3000):
            assert find_frozen_configuration(net, k, seed, budget) == reference_frozen_search(net, k, seed, budget)


def test_frozen_configuration_not_found_for_k5():
    net = torus(6)
    assert find_frozen_configuration(net, 5, seed=1, budget=5 * 10**4) is None


def test_frozen_configuration_rejects_negative_budget():
    assert find_frozen_configuration(torus(3), 3, seed=0, budget=0) is None
    with pytest.raises(ValidationError, match=r"^budget must be >= 0, got -1$"):
        find_frozen_configuration(torus(3), 3, seed=0, budget=-1)


def test_frozen_configuration_none_on_a_network_without_nodes():
    # Each sweep would be charged n = 0 steps; max degree 0 < k answers first.
    assert find_frozen_configuration(Network.from_edges(0, []), 3, 0, 10) is None


def test_no_frozen_configuration_below_degree_k():
    # A node at utility 0 that plays a best response sees all k colors on its
    # neighbors, so below degree k every fixpoint is proper. Checked on the
    # search without the degree certificate, which must exhaust its budget.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    nets = st.one_of(
        st.integers(3, 12).map(ring),
        st.integers(3, 5).map(torus),
        st.tuples(st.integers(4, 12), st.integers(3, 4), st.integers(0, 99))
        .filter(lambda a: a[0] * a[1] % 2 == 0 and a[0] > a[1])
        .map(lambda a: random_regular(*a)),
    )

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(nets, st.integers(1, 3), st.lists(st.integers(0, 1500), min_size=1, max_size=3))
    def check(net, above, budgets):
        k = net.max_degree + above
        for seed in range(3):
            for budget in budgets:
                assert reference_frozen_search(net, k, seed, budget) is None

    check()


def test_frozen_search_below_degree_k_runs_no_restart(monkeypatch):
    def refuse(*args):
        raise AssertionError("the degree certificate should answer before any restart")

    monkeypatch.setattr("netgame.oracle.random_profile", refuse)
    monkeypatch.setattr("netgame.oracle.BestResponseEngine", refuse)
    monkeypatch.setattr("netgame.oracle.coloring_game", refuse)  # its action tuple has k entries
    for seed in range(3):
        assert find_frozen_configuration(torus(6), 5, seed, 10**9) is None
        assert find_frozen_configuration(torus(6), 10**12, seed, 10**9) is None
        assert find_frozen_configuration(Network.from_edges(0, []), 3, seed, 10**9) is None
    # The argument checks still come first, then the game's own check of k.
    with pytest.raises(ValidationError, match=r"^frozen-configuration search needs k >= 2$"):
        find_frozen_configuration(torus(6), 1, 0, 10**9)
    with pytest.raises(ValidationError, match=r"^budget must be >= 0, got -1$"):
        find_frozen_configuration(torus(6), 5, 0, -1)
    monkeypatch.undo()
    with pytest.raises(ValidationError, match=r"^coloring game needs an integer k >= 2, got 2\.5$"):
        find_frozen_configuration(torus(6), 2.5, 0, 10**9)


def test_minority_poa_report_flags_convention_gap():
    net = bipartite_double_cover(ring(4))  # 2-regular bipartite n=8
    payload = minority_poa_report(minority_game(net))
    assert payload["closed_form_candidate"] == "6"  # 2*(d+1) for d=2
    assert payload["derived_poa"] is not None
    assert payload["poa_matches_closed_form"] is False


def test_proper_coloring_exists():
    assert proper_coloring_exists(ring(4), 2)
    assert not proper_coloring_exists(ring(5), 2)
    assert proper_coloring_exists(ring(5), 3)
    assert proper_coloring_exists(torus(4), 2)
    assert not proper_coloring_exists(torus(5), 2)
