from fractions import Fraction
from random import Random

import pytest

from netgame.errors import SimulationFault, ValidationError
from netgame.game import pgg_game
from netgame.lvl import compile_lvl, verify
from netgame.network import Network, random_regular, ring, torus
from netgame.simgame import (
    BallView,
    SimulationAction,
    _check_opening_round,
    _forms_proper_map,
    _pair_consistent,
    build_simulation_game,
    constructive_best_response,
    empty_profile,
    greedy_mis_normal_form,
    make_action,
    merged_coloring,
    play_simulation_round,
    project,
    simulation_report,
    simulation_utility,
)
from conftest import path_graph
from test_network import reference_ball

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
    # a fair round switches exactly the agents that are empty or below
    # utility 1, and utility is at most 1: here that is nobody
    sim = ring64_sim
    order = tuple(range(63, -1, -1))
    profile = play_simulation_round(sim, order)
    assert all(simulation_utility(sim, v, profile) == 1 for v in range(64))


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


def reference_decide(t):
    """`greedy_mis_normal_form`'s rule with no cache: each truncated run
    searches its ``t - 1``-ball afresh and tests only neighbors inside it."""

    def truncated_join(view, coloring, x):
        dist = reference_ball(view.adjacency, (x,), t - 1)
        joined = set()
        for w in sorted(dist, key=lambda w: coloring[w]):
            if not any(y in joined for y in view.adjacency[w] if y in dist):
                joined.add(w)
        return x in joined

    def decide(view, coloring):
        center = view.center
        if not truncated_join(view, coloring, center):
            return "F"
        for u in view.adjacency[center]:
            if coloring[u] < coloring[center] and truncated_join(view, coloring, u):
                return "F"
        return "P"

    return decide


def test_cached_rule_matches_the_uncached_rule_on_random_colorings():
    # Several colorings per ball, so later ones read the views the first
    # filled. A ring or path longer than the radius t - 1 (4 at degree
    # bound 2, 9 at 3) is wider than its runs. A run differs from one of
    # radius t only along a color chain that descends all the way from x
    # to the ball's edge, which random colorings almost never hold, so
    # colors also rise or fall along the node indices from a random start.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graphs(draw):
        kind = draw(st.sampled_from(["ring", "path", "torus", "cubic"]))
        if kind == "ring":
            return ring(draw(st.integers(5, 40))), draw(st.sampled_from([2, 3]))
        if kind == "path":
            return path_graph(draw(st.integers(2, 30))), draw(st.sampled_from([2, 3]))
        if kind == "torus":
            return torus(draw(st.integers(3, 5))), 4
        n = draw(st.integers(4, 20))
        return random_regular(n + n % 2, 3, draw(st.integers(0, 2**32 - 1))), 3

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(graphs(), st.sampled_from(["random", "rising", "falling"]), st.integers(0, 2**32 - 1))
    @hypothesis.example((ring(20), 2), "random", 0)
    @hypothesis.example((ring(30), 3), "rising", 0)
    def check(case, colors_by, seed):
        net, delta = case
        n = net.node_count
        sim = build_simulation_game(pgg_game(net, HALF), greedy_mis_normal_form(delta))
        reference = reference_decide(sim.algorithm.t)
        rng = Random(seed)
        for _ in range(4):
            colors = rng.sample(range(1, 10_000), n)
            if colors_by != "random":
                start = rng.randrange(n)
                rank = sorted(colors, reverse=colors_by == "falling")
                colors = [rank[(w - start) % n] for w in range(n)]
            for view in sim.balls:
                coloring = {w: colors[w] for w in view.order}
                assert sim.algorithm.decide(view, coloring) == reference(view, coloring)

    check()


def test_sims_built_from_one_algorithm_share_no_cached_view():
    algorithm = greedy_mis_normal_form(2)
    reference = reference_decide(algorithm.t)
    first = build_simulation_game(pgg_game(ring(12), HALF), algorithm)
    second = build_simulation_game(pgg_game(path_graph(12), HALF), algorithm)
    colors = Random(5).sample(range(1, 10_000), 12)
    for sim in (first, second):  # the first sim's views are filled before the second runs
        for view in sim.balls:
            coloring = {w: colors[w] for w in view.order}
            assert sim.algorithm.decide(view, coloring) == reference(view, coloring)
            assert view.inner
            for (x, depth), nodes in view.inner.items():
                assert nodes == tuple(reference_ball(view.adjacency, (x,), depth))
    assert not {id(view.inner) for view in first.balls} & {id(view.inner) for view in second.balls}
    assert first.balls[0] != second.balls[0]  # a ring's ball and a path's end differ


def test_ball_view_cache_takes_no_part_in_equality(ring64_sim):
    net = ring64_sim.network
    filled, bare = BallView.extract(net, 3, 5), BallView.extract(net, 3, 5)
    assert filled.within(3, 4) == tuple(reference_ball(filled.adjacency, (3,), 4))
    assert filled.within(3, 4) is filled.within(3, 4)
    assert filled.inner and not bare.inner
    assert filled == bare and repr(filled) == repr(bare)


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


def test_make_action_indexes_the_assignment(ring64_sim):
    sim = ring64_sim
    coloring = {w: 3 * i + 1 for i, w in enumerate(sim.balls[7].order)}
    a = make_action(sim, 7, coloring)
    b = make_action(sim, 7, dict(reversed(coloring.items())))
    assert a is not b and a == b and hash(a) == hash(b)
    assert dict(a.assignment) == coloring
    bare = SimulationAction(a.assignment, a.output)
    assert bare == a and hash(bare) == hash(a) and repr(bare) == repr(a)


def nested_pair_consistent(sim, a, b):
    """`_pair_consistent` as a nested loop over both assignments."""
    for w, cw in a.assignment:
        near_w = sim.near_nodes[w]
        for x, cx in b.assignment:
            if w == x:
                if cw != cx:
                    return False
            elif cw == cx and x in near_w:
                return False
    return True


def test_pair_consistent_matches_nested_loop(ring64_sim):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cubic = build_simulation_game(pgg_game(random_regular(20, 3, 1), HALF), greedy_mis_normal_form(3))
    # the balls of the cubic graph cover it, so only the ring has far pairs
    sims = {
        "ring64": (ring64_sim, ("consistent", "same-node", "near", "far", "random")),
        "rr20": (cubic, ("consistent", "same-node", "near", "random")),
    }

    def candidates(sim, u, case, a):
        """(v, w, x) with w in u's ball and x in v's: for "same-node" w = x;
        for "near" x != w within the coloring radius of w; for "far" x beyond
        it, and neither node in both balls."""
        out = []
        for v in (u, *sim.network_prime.neighbors(u)):
            ball_v = sim.balls[v].order
            for w in a:
                near_w = sim.near_nodes[w]
                if case == "same-node":
                    out += [(v, w, w)] if w in ball_v else []
                elif case == "near":
                    out += [(v, w, x) for x in ball_v if x != w and x in near_w]
                elif w not in ball_v:
                    out += [(v, w, x) for x in ball_v if x not in a and x not in near_w]
        return out

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        sim, cases = sims[data.draw(st.sampled_from(sorted(sims)))]
        case = data.draw(st.sampled_from(cases))
        n, palette = sim.network.node_count, sim.algorithm.palette
        u = data.draw(st.integers(0, n - 1))
        rng = Random(data.draw(st.integers(0, 2**32 - 1)))
        colors = dict(enumerate(rng.sample(range(1, palette), n)))  # distinct, so proper
        a = {w: colors[w] for w in sim.balls[u].order}
        if case in ("consistent", "random"):
            v = data.draw(st.sampled_from((u, *sim.network_prime.neighbors(u))))
            b = {x: colors[x] for x in sim.balls[v].order}
            expected = True
            if case == "random":
                # few spare colors: agreements and both kinds of clash
                a = dict(zip(a, rng.sample(range(1, len(a) + 3), len(a))))
                b = dict(zip(b, rng.sample(range(1, len(b) + 3), len(b))))
                expected = None
        else:
            v, w, x = data.draw(st.sampled_from(candidates(sim, u, case, a)))
            b = {y: colors[y] for y in sim.balls[v].order}
            if case == "same-node":
                b[x] = palette  # a color no node holds
            else:
                # give x the color of w; if w is in v's ball too, it takes x's
                if w in b:
                    b[w] = b[x]
                b[x] = a[w]
            expected = case == "far"
        pair = make_action(sim, u, a), make_action(sim, v, b)
        assert _pair_consistent(sim, *pair) == nested_pair_consistent(sim, *pair)
        # symmetric, which the opening round's final check relies on
        assert _pair_consistent(sim, *pair) == _pair_consistent(sim, *reversed(pair))
        if expected is not None:
            assert _pair_consistent(sim, *pair) is expected

    check()


def reference_best_response_colors(sim, v, fixed):
    """The greedy coloring of `constructive_best_response`, testing every
    fixed color against each uncolored ball node."""
    view = sim.balls[v]
    coloring = {}
    for w in view.order:
        if w in fixed:
            coloring[w] = fixed[w]
            continue
        forbidden = set(coloring.values())
        forbidden |= {cx for x, cx in fixed.items() if x in sim.near_nodes[w]}
        c = 1 if view.distance[w] % 2 == 0 else sim.algorithm.palette // 2
        while c in forbidden:
            c += 1
        coloring[w] = c
    return coloring


@pytest.mark.parametrize("played", [(11,), tuple(range(6, 23))])
def test_constructive_best_response_on_partly_played_profiles(ring64_sim, played):
    # One played agent fixes 11 nodes near the ball of 0; agents 6..22 fix
    # nodes 1..27, while 59..0 of the ball of 0 stay free.
    sim = ring64_sim
    profile = list(empty_profile(sim))
    for u in played:
        profile[u] = constructive_best_response(sim, u, merged_coloring(sim, profile))
    fixed = {x: c for u in played for x, c in profile[u].assignment}
    assert any(w not in fixed for w in sim.balls[0].order)
    profile[0] = constructive_best_response(sim, 0, merged_coloring(sim, profile))
    assert dict(profile[0].assignment) == reference_best_response_colors(sim, 0, fixed)
    assert simulation_utility(sim, 0, tuple(profile)) == 1


# -- the opening round's final check and the published coloring


def reference_opening_check(sim, profile):
    """The per-agent utility scan the opening round's final check replaces."""
    for v in range(sim.network.node_count):
        if simulation_utility(sim, v, profile) != 1:
            raise SimulationFault(f"agent {v} finished the opening round below utility 1")


def outcome(f, *args):
    """``f(*args)``, or the message of the `SimulationFault` it raises."""
    try:
        return f(*args)
    except SimulationFault as exc:
        return str(exc)


def recolored(sim, profile, colors):
    """``profile`` with every owner of a node in ``colors`` recolored there."""
    out = list(profile)
    for u, action in enumerate(profile):
        held = {} if action is None else dict(action.assignment)
        if any(x in colors for x in held):
            changes = {x: c for x, c in colors.items() if x in held}
            out[u] = make_action(sim, u, {**held, **changes})
    return tuple(out)


def test_opening_check_matches_the_utility_scan_on_injected_faults(ring64_sim):
    sim = ring64_sim
    t, palette = sim.algorithm.t, sim.algorithm.palette
    rng = Random(23)
    cases = 0
    for _ in range(6):
        order = list(range(64))
        rng.shuffle(order)
        good = play_simulation_round(sim, tuple(order))
        u, x = rng.randrange(64), rng.randrange(64)
        ball_u = sim.balls[u].order
        w = rng.choice(ball_u)
        faulty = {
            # u alone recolors a node that its neighbors also color
            "shared-node": good[:u] + (make_action(sim, u, {**dict(good[u].assignment), w: palette}),) + good[u + 1:],
            # x and the node 2t+2 (or 2t+3) along the ring share a fresh color
            "distance 2t+2": recolored(sim, good, {x: palette, (x + 2 * t + 2) % 64: palette}),
            "distance 2t+3": recolored(sim, good, {x: palette, (x + 2 * t + 3) % 64: palette}),
            "empty": good[:u] + (None,) + good[u + 1:],
        }
        for name, profile in faulty.items():
            expected = outcome(reference_opening_check, sim, profile)
            assert (expected is None) == (name == "distance 2t+3")
            assert _forms_proper_map(sim, profile) == (expected is None)
            assert outcome(_check_opening_round, sim, profile) == expected
            cases += 1
        # a working round passes the map test, so the utility scan never runs
        assert _forms_proper_map(sim, good)
    assert cases == 24


def test_opening_check_matches_the_utility_scan_on_random_recolorings(ring64_sim):
    # Recolor a few nodes of a few agents with colors already in use nearby:
    # disagreements, clashes at every distance, and harmless changes.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    sim = ring64_sim
    base = play_simulation_round(sim, tuple(range(64)))

    edit = st.tuples(st.integers(0, 63), st.integers(0, 10), st.integers(1, 40))  # agent, ball index, color

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.lists(edit, max_size=3))
    def check(edits):
        profile = list(base)
        for u, i, c in edits:
            coloring = dict(profile[u].assignment)
            w = sim.balls[u].order[i]
            swap = next((y for y, cy in coloring.items() if cy == c), None)
            if swap is not None:
                coloring[swap] = coloring[w]  # keep the ball's colors distinct
            coloring[w] = c
            profile[u] = make_action(sim, u, coloring)
        profile = tuple(profile)
        assert outcome(_check_opening_round, sim, profile) == outcome(reference_opening_check, sim, profile)

    check()


def reference_fair_round(sim, profile, agents):
    """A fair round of ``agents`` from ``profile``: an agent keeps a utility-1
    action, else takes the greedy response to ``fixed``, the colors of every
    played derived neighbor, rebuilt per call, and must reach utility 1."""
    current = list(profile)
    switches = 0
    for v in agents:
        if current[v] is None or simulation_utility(sim, v, current) != 1:
            fixed = {}
            for u in sim.network_prime.neighbors(v):
                if current[u] is not None:
                    for x, cx in current[u].assignment:
                        assert fixed.setdefault(x, cx) == cx
            current[v] = make_action(sim, v, reference_best_response_colors(sim, v, fixed))
            if simulation_utility(sim, v, current) != 1:
                raise SimulationFault(f"constructed response for {v} does not reach utility 1")
            switches += 1
    return tuple(current), switches


def reference_opening_round(sim, order):
    """`reference_fair_round` from the all-empty profile, then the utility scan."""
    profile, switches = reference_fair_round(sim, empty_profile(sim), order)
    assert switches == len(order)
    reference_opening_check(sim, profile)
    return profile


@pytest.mark.parametrize("graph", ["ring64", "path40"])
def test_fair_round_matches_the_round_that_rebuilds_fixed(ring64_sim, graph):
    from conftest import path_graph

    if graph == "ring64":
        sim = ring64_sim
    else:
        sim = build_simulation_game(pgg_game(path_graph(40), HALF), greedy_mis_normal_form(2))
    n = sim.network.node_count
    rng = Random(31)
    for _ in range(18):
        order = list(range(n))
        rng.shuffle(order)
        got = outcome(play_simulation_round, sim, tuple(order))
        assert got == outcome(reference_opening_round, sim, order)
        assert not isinstance(got, str), got


@pytest.mark.parametrize("seed", range(4))
def test_opening_round_reports_an_injected_response_at_its_end(ring64_sim, monkeypatch, seed):
    # One agent's response recolors a node that a derived neighbor already
    # published; the round must fail with the utility scan's message on the
    # actions played.
    import netgame.simgame as simgame_mod

    sim = ring64_sim
    palette = sim.algorithm.palette
    rng = Random(seed)
    order = list(range(64))
    rng.shuffle(order)
    bad = order[rng.randrange(1, 64)]
    played = {}
    respond = simgame_mod.constructive_best_response

    def injected(sim, v, published):
        action = respond(sim, v, published)
        if v == bad:
            shared = [w for w in sim.balls[v].order if w in published]
            w = rng.choice(shared)
            action = make_action(sim, v, {**dict(action.assignment), w: palette})
        played[v] = action
        return action

    monkeypatch.setattr(simgame_mod, "constructive_best_response", injected)
    with pytest.raises(SimulationFault) as info:
        play_simulation_round(sim, tuple(order))
    assert sorted(played) == list(range(64))
    expected = outcome(reference_opening_check, sim, tuple(played[v] for v in range(64)))
    assert expected is not None
    assert str(info.value) == expected


@pytest.mark.parametrize("order", [(), tuple(range(63)), (0,) * 64, tuple(range(1, 65))])
def test_opening_round_rejects_an_order_that_is_not_a_permutation(ring64_sim, order):
    with pytest.raises(ValidationError, match="^order must be a permutation of the agents$"):
        play_simulation_round(ring64_sim, order)
