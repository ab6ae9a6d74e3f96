import copy
import hashlib
from collections import deque
from itertools import combinations
from math import inf
from random import Random

import pytest

from netgame import network
from netgame.errors import ConstructionError, ValidationError
from netgame.network import (
    CycleCutConstraint,
    Network,
    _root_cycle,
    _shortest_cycle,
    _swap_and_rescan,
    bipartite_double_cover,
    cut_short_cycles,
    degree_multiset,
    girth,
    graph_from_json,
    graph_to_json,
    is_perfect_dominating_set,
    power_graph,
    random_regular,
    ring,
    star_matching,
    torus,
    two_coloring,
)
from conftest import complete_graph, path_graph


def exhaustive_girth(net: Network) -> int | None:
    """Independent oracle: DFS enumeration of every simple cycle."""
    best = None
    n = net.node_count

    def extend(start: int, path: list[int], on_path: set[int]) -> None:
        nonlocal best
        here = path[-1]
        for nxt in net.neighbors(here):
            if nxt == start and len(path) >= 3:
                if best is None or len(path) < best:
                    best = len(path)
            elif nxt > start and nxt not in on_path:
                path.append(nxt)
                on_path.add(nxt)
                extend(start, path, on_path)
                on_path.discard(nxt)
                path.pop()

    for s in range(n):
        extend(s, [s], {s})
    return best


def reference_shortest_cycle(net: Network) -> tuple[int | None, tuple[int, ...] | None]:
    """The two-pass reference for `_shortest_cycle`: the girth by a per-root
    BFS, then every cycle of that length the same BFS trees close, each
    rotated and reflected to its lexicographic minimum, smallest first."""
    best = None
    for root in range(net.node_count):
        dist, parent, queue = {root: 0}, {root: -1}, deque([root])
        while queue:
            x = queue.popleft()
            if best is not None and dist[x] > best // 2:
                break
            for y in net.neighbors(x):
                if y == parent[x]:
                    continue
                if y in dist:
                    best = min(best or inf, dist[x] + dist[y] + 1)
                else:
                    dist[y], parent[y] = dist[x] + 1, x
                    queue.append(y)
    if best is None:
        return None, None

    def to_root(x, parent):
        path = [x]
        while parent[path[-1]] != -1:
            path.append(parent[path[-1]])
        return path

    found = set()
    for root in range(net.node_count):
        dist, parent, queue, order = {root: 0}, {root: -1}, deque([root]), [root]
        while queue:
            x = queue.popleft()
            if dist[x] > best // 2:
                break
            for y in net.neighbors(x):
                if y not in dist:
                    dist[y], parent[y] = dist[x] + 1, x
                    queue.append(y)
                    order.append(y)
        for x in order:
            for y in net.neighbors(x):
                if y not in dist or y == parent[x] or x == parent[y] or x > y:
                    continue
                if dist[x] + dist[y] + 1 != best:
                    continue
                path_x, path_y = to_root(x, parent), to_root(y, parent)
                if set(path_x) & set(path_y) != {root}:
                    continue  # walk is not a simple cycle
                cycle = path_x[::-1] + path_y[:-1]
                k = len(cycle)
                found.add(min(
                    tuple(cycle[(i + step * j) % k] for j in range(k))
                    for i in range(k)
                    for step in (1, -1)
                ))
    return best, min(found)


def reference_cut_short_cycles(net: Network, g: int, constraint: CycleCutConstraint) -> Network:
    """The swap loop of `cut_short_cycles` written with unbounded BFS: the
    edge distance of ``f`` is its least endpoint distance from an endpoint
    of ``e``, infinite in another component, and ``f`` is far when it is at
    least ``g``. Each swap orientation and edge-set update is spelled out."""
    edges = set(net.edges())
    leaf_edges = edges & constraint.leaf_edges if constraint.leaf_edges is not None else None
    eligible = edges if leaf_edges is None else leaf_edges
    budget = 10 * len(edges) + 10
    for _ in range(budget):
        current = Network.from_edges(net.node_count, edges)
        have, cycle = _shortest_cycle(current)
        if have is None or have >= g:
            return current
        cycle_edges = sorted(
            tuple(sorted((cycle[i], cycle[(i + 1) % len(cycle)]))) for i in range(len(cycle))
        )
        eligible_on_cycle = [e for e in cycle_edges if e in eligible]
        if not eligible_on_cycle:
            raise ConstructionError("shortest cycle has no eligible edge to cut")
        pair = None
        for e in eligible_on_cycle:
            dist_u, dist_v = current.bfs_distances(e[0]), current.bfs_distances(e[1])

            def edge_distance(f):
                ds = [d.get(x) for d in (dist_u, dist_v) for x in f]
                return inf if any(x is None for x in ds) else min(ds)

            far = min((f for f in eligible if f != e and edge_distance(f) >= g), default=None)
            if far is not None:
                pair = (e, far)
                break
        if pair is None:
            raise ConstructionError(
                f"no eligible edge at distance >= {g} from any edge of cycle {cycle}; "
                "girth target too large for n"
            )
        e, f = pair
        if constraint.sides is not None:
            side_a, _ = constraint.sides
            u, v = e if e[0] in side_a else (e[1], e[0])
            up, vp = f if f[0] in side_a else (f[1], f[0])
        else:
            u, v = e
            up, vp = f
        new_1, new_2 = tuple(sorted((u, vp))), tuple(sorted((up, v)))
        edges.remove(e)
        edges.remove(f)
        edges.add(new_1)
        edges.add(new_2)
        if leaf_edges is not None:
            leaf_edges.discard(e)
            leaf_edges.discard(f)
            leaf_edges.add(new_1)
            leaf_edges.add(new_2)
    raise ConstructionError(f"cycle cutting did not reach girth {g} within {budget} swaps")


def edge_digest(net: Network) -> str:
    return hashlib.sha256(repr(net.edges()).encode()).hexdigest()[:16]


def shuffled_cover(n, seed, g, d=3):
    """The case cutting the double cover of `random_regular(n, d, seed)` to
    girth g under its bipartition. The nodes are relabelled at random, so
    the endpoint of an edge on side A may be either one."""
    cover = bipartite_double_cover(random_regular(n, d, seed))
    label = list(range(2 * n))
    Random(seed).shuffle(label)
    net = Network.from_edges(2 * n, [(label[u], label[v]) for u, v in cover.edges()])
    return net, g, CycleCutConstraint.preserve_bipartition(*two_coloring(net))


def cut_outcome(cut, net, g, constraint):
    """The edge list `cut` returns, or the message of its `ConstructionError`."""
    try:
        return cut(net, g, constraint).edges()
    except ConstructionError as exc:
        return str(exc)


# -- construction and validation


def test_ring_4():
    net = ring(4)
    assert net.node_count == 4
    assert net.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert net.max_degree == 2


def test_ring_3_is_triangle():
    assert girth(ring(3)) == 3


def test_ring_rejects_small_n():
    with pytest.raises(ValidationError):
        ring(2)


def test_network_rejects_asymmetric_adjacency():
    with pytest.raises(ValidationError):
        Network(((1,), ()))


def test_network_rejects_self_loop():
    with pytest.raises(ValidationError):
        Network.from_edges(2, [(0, 0)])


def test_network_rejects_duplicate_edge():
    with pytest.raises(ValidationError):
        Network.from_edges(2, [(0, 1), (1, 0)])


# -- torus


def test_torus_3_shape():
    net = torus(3)
    assert net.node_count == 9
    assert net.edge_count == 18
    assert degree_multiset(net) == (4,) * 9


def test_torus_4_girth_matches_oracle():
    net = torus(4)
    assert girth(net) == 4
    assert exhaustive_girth(net) == 4


def test_torus_rejects_small_n():
    with pytest.raises(ValidationError):
        torus(2)


# -- random regular


def test_random_regular_10_3():
    net = random_regular(10, 3, seed=1)
    assert net.edge_count == 15
    assert degree_multiset(net) == (3,) * 10


def test_random_regular_rejects_odd_parity():
    with pytest.raises(ValidationError):
        random_regular(9, 3, seed=1)


def test_random_regular_large_instance_is_simple():
    net = random_regular(1000, 3, seed=42)
    assert degree_multiset(net) == (3,) * 1000
    g = girth(net)
    assert g is not None and g >= 3


def test_random_regular_deterministic_per_seed():
    assert random_regular(20, 3, seed=9).edges() == random_regular(20, 3, seed=9).edges()


# -- star matching


def test_star_matching_4_3():
    net, centers, leaf_edges = star_matching(4, 3, seed=0)
    assert net.node_count == 16
    assert degree_multiset(net) == (3,) * 16
    assert len(centers) == 4
    assert is_perfect_dominating_set(net, centers)
    # leaf edges are exactly the non-star edges
    star_edges = {e for e in net.edges() if e[0] in centers or e[1] in centers}
    assert leaf_edges == frozenset(net.edges()) - star_edges


def test_star_matching_6_3():
    net, centers, _ = star_matching(6, 3, seed=3)
    assert net.node_count == 24
    assert degree_multiset(net) == (3,) * 24
    assert len(centers) == 6
    assert is_perfect_dominating_set(net, centers)


def test_star_matching_infeasible_odd_leaves():
    with pytest.raises(ValidationError):
        star_matching(1, 3, seed=0)


# -- cycle cutting


def test_cut_short_cycles_unconstrained():
    net = random_regular(64, 3, seed=7)
    assert girth(net) == 3
    out = cut_short_cycles(net, 5)
    assert girth(out) >= 5
    assert degree_multiset(out) == degree_multiset(net)
    assert out.edge_count == net.edge_count
    assert edge_digest(out) == "7421421e09d4d7d1"


def test_cut_short_cycles_preserves_bipartition():
    net = bipartite_double_cover(random_regular(24, 3, seed=2))
    sides = two_coloring(net)
    assert sides is not None
    out = cut_short_cycles(net, 6, CycleCutConstraint.preserve_bipartition(*sides))
    assert girth(out) >= 6
    assert two_coloring(out) is not None
    assert edge_digest(out) == "478c86fdcaf4ae89"


def test_cut_short_cycles_leaf_edges_keep_domination():
    net, centers, leaf_edges = star_matching(16, 3, seed=5)
    out = cut_short_cycles(net, 6, CycleCutConstraint.leaf_edges_only(leaf_edges))
    assert girth(out) >= 6
    assert is_perfect_dominating_set(out, centers)
    assert edge_digest(out) == "60357043e876c9b3"


def test_cut_short_cycles_impossible_target_errors():
    with pytest.raises(ConstructionError):
        cut_short_cycles(ring(6), 10)
    for g in (2, "auto"):
        with pytest.raises(ValidationError, match=r"^girth target must be an integer >= 3$"):
            cut_short_cycles(ring(6), g)


def test_cut_short_cycles_to_girth_4():
    net = random_regular(82, 3, seed=12)
    out = cut_short_cycles(net, 4)
    assert girth(out) >= 4
    assert degree_multiset(out) == degree_multiset(net)
    assert edge_digest(out) == "ade48da29c9103f0"


def test_cut_short_cycles_cuts_a_chord_4_cycle():
    # The chord closes the 4-cycle 0-1-2-3 on a ring.
    net = Network.from_edges(243, ring(243).edges() + [(0, 3)])
    assert girth(net) == 4
    out = cut_short_cycles(net, 5)
    assert girth(out) >= 5
    assert degree_multiset(out) == degree_multiset(net)


def test_cut_short_cycles_counts_other_components_as_infinitely_far():
    # A triangle and a 7-node path: the path's edges lie in another
    # component, so they are far enough for any target, even one above n.
    net = Network.from_edges(10, [(0, 1), (0, 2), (1, 2)] + [(i, i + 1) for i in range(3, 9)])
    out = cut_short_cycles(net, 11)
    assert girth(out) is None
    assert degree_multiset(out) == degree_multiset(net)


def test_cut_short_cycles_skips_a_cycle_edge_without_far_partner():
    # The smallest eligible edge of some shortest cycle has no edge at
    # distance >= 4, so the swap uses the next cycle edge.
    out = cut_short_cycles(random_regular(16, 3, seed=5), 4)
    assert girth(out) >= 4
    assert edge_digest(out) == "18c77cc6156d3d7f"


def test_cut_short_cycles_matches_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cuts(draw):
        """`random_regular(n, 3 or 4)` with n <= 40, unconstrained; the double
        cover of a cubic graph on n <= 24 nodes, keeping its bipartition; or
        `star_matching(k, 3)` with k <= 16, rewiring only its leaf edges."""
        seed, g = draw(st.integers(0, 2**32 - 1)), draw(st.integers(4, 7))
        shape = draw(st.sampled_from(["regular", "double-cover", "star-matching"]))
        if shape == "regular":
            d = draw(st.sampled_from([3, 4]))
            n = draw(st.integers(d + 1, 40))
            net = random_regular(n + (n * d) % 2, d, seed)
            return net, g, CycleCutConstraint.unconstrained()
        if shape == "double-cover":
            return shuffled_cover(2 * draw(st.integers(2, 12)), seed, g)
        net, _, leaf_edges = star_matching(2 * draw(st.integers(1, 8)), 3, seed)
        return net, g, CycleCutConstraint.leaf_edges_only(leaf_edges)

    # Cases that swap several times: eight swaps, six under the bipartition,
    # and three before the bipartition runs out of far edges.
    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(cuts())
    @hypothesis.example((random_regular(40, 3, seed=0), 5, CycleCutConstraint.unconstrained()))
    @hypothesis.example(shuffled_cover(22, 0, 5))
    @hypothesis.example(shuffled_cover(24, 0, 6))
    def check(case):
        assert cut_outcome(cut_short_cycles, *case) == cut_outcome(reference_cut_short_cycles, *case)

    check()


def test_local_cut_matches_full_rescan_on_random_regular_graphs():
    # Each swap rescans only the roots near its endpoints; the reference
    # rescans every root after every swap.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def leaf_case(n, d, seed, g, p):
        """`random_regular(n, d, seed)` cut to girth g, rewiring only a
        random share p of its edges."""
        net, rng = random_regular(n, d, seed), Random(seed)
        leaf_edges = [e for e in net.edges() if rng.random() < p]
        return net, g, CycleCutConstraint.leaf_edges_only(leaf_edges)

    @st.composite
    def cuts(draw):
        """`random_regular(n, 3 or 4)` with n <= 64 and g = 4-7: unconstrained,
        with a random subset of its edges as the leaf edges, or its double
        cover (n <= 32 per side) under the cover's bipartition."""
        seed, g = draw(st.integers(0, 2**32 - 1)), draw(st.integers(4, 7))
        d = draw(st.sampled_from([3, 4]))
        constraint = draw(st.sampled_from(["unconstrained", "leaf-edges", "bipartition"]))
        if constraint == "bipartition":
            n = draw(st.integers(d + 1, 32))
            return shuffled_cover(n + (n * d) % 2, seed, g, d)
        n = draw(st.integers(d + 1, 64))
        n += (n * d) % 2
        if constraint == "unconstrained":
            return random_regular(n, d, seed), g, CycleCutConstraint.unconstrained()
        return leaf_case(n, d, seed, g, draw(st.sampled_from([0.3, 0.6, 0.9])))

    # Most drawn cases stop early with "no eligible edge"; the first three
    # reach girth 6 after several swaps under each constraint. In the last
    # two, one swap puts both new edges on cycles shorter than 7, so roots
    # cached without a cycle are rescanned.
    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(cuts())
    @hypothesis.example((random_regular(64, 3, seed=2), 6, CycleCutConstraint.unconstrained()))
    @hypothesis.example(leaf_case(64, 3, 1, 6, 0.6))
    @hypothesis.example(shuffled_cover(32, 1, 6))
    @hypothesis.example((random_regular(80, 3, seed=6), 7, CycleCutConstraint.unconstrained()))
    @hypothesis.example((random_regular(80, 3, seed=20), 7, CycleCutConstraint.unconstrained()))
    def check(case):
        assert cut_outcome(cut_short_cycles, *case) == cut_outcome(reference_cut_short_cycles, *case)

    check()


def lies_on_cycle_shorter_than(adjacency, root: int, g: int) -> bool:
    """Whether some edge ``{root, w}`` closes a cycle of length < g: an
    unbounded BFS from ``w`` that avoids the edge reaches ``root`` within
    ``g - 2``."""
    for w in adjacency[root]:
        dist, queue = {w: 0}, deque([w])
        while queue:
            x = queue.popleft()
            for y in adjacency[x]:
                if y not in dist and {x, y} != {w, root}:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if dist.get(root, inf) <= g - 2:
            return True
    return False


def test_swap_and_rescan_keeps_the_cache_invariant():
    # After any degree-preserving swap, far or not, every cached entry is a
    # fresh `_root_cycle` under the limit g - 1, or None at a root on no
    # cycle shorter than g; so the cached minimum is the fresh one.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        st.integers(0, 2**32 - 1), st.integers(4, 30), st.integers(5, 8), st.data()
    )
    def check(seed, n, g, data):
        net = random_regular(n + n % 2, 3, seed)
        adjacency = [list(nbrs) for nbrs in net.adjacency]
        found = [_root_cycle(adjacency, root, g - 1) for root in range(net.node_count)]
        for _ in range(data.draw(st.integers(1, 12), label="swaps")):
            # Both orientations of each edge, so either end of it may be u.
            edges = [(x, y) for x in range(net.node_count) for y in adjacency[x]]
            (u, v), (up, vp) = data.draw(st.sampled_from(edges)), data.draw(st.sampled_from(edges))
            if len({u, v, up, vp}) < 4 or vp in adjacency[u] or v in adjacency[up]:
                continue
            _swap_and_rescan(adjacency, found, g, u, v, up, vp)
            fresh = [_root_cycle(adjacency, root, g - 1) for root in range(net.node_count)]
            for root, (cached, scan) in enumerate(zip(found, fresh)):
                assert cached == scan or (
                    cached is None and not lies_on_cycle_shorter_than(adjacency, root, g)
                )
            assert min(filter(None, found), default=None) == min(filter(None, fresh), default=None)

    check()


def test_cut_short_cycles_rescans_only_roots_a_swap_can_change(monkeypatch):
    # 256 first scans and 127 swaps; rescanning every root within
    # (g - 2) // 2 of a swap's endpoints makes 6026 scans in all.
    scans = 0

    def counting(*args):
        nonlocal scans
        scans += 1
        return _root_cycle(*args)

    monkeypatch.setattr(network, "_root_cycle", counting)
    net = torus(16)
    out = cut_short_cycles(net, 6, CycleCutConstraint.preserve_bipartition(*two_coloring(net)))
    assert scans <= 1600
    assert girth(out) >= 6


@pytest.mark.parametrize(
    "constraint, error, message",
    [
        (CycleCutConstraint.leaf_edges_only([]), ConstructionError, "no eligible edge to cut"),
        (CycleCutConstraint.preserve_bipartition({0, 1}, {2, 3}), ValidationError, "does not cross"),
        (
            CycleCutConstraint.preserve_bipartition({0, 1, 2}, {1, 3}),
            ValidationError,
            "cover all nodes exactly once",
        ),
    ],
)
def test_cut_short_cycles_constraint_faults(constraint, error, message):
    with pytest.raises(error, match=message):
        cut_short_cycles(ring(4), 5, constraint)


# -- double cover


def test_double_cover_of_triangle_is_six_cycle():
    out = bipartite_double_cover(ring(3))
    assert out.node_count == 6
    assert degree_multiset(out) == (2,) * 6
    assert girth(out) == 6
    assert two_coloring(out) is not None


def test_double_cover_of_ring4_is_two_squares():
    out = bipartite_double_cover(ring(4))
    assert out.node_count == 8
    assert girth(out) == 4
    # two components of four nodes each
    comp = out.bfs_distances(0)
    assert len(comp) == 4


def test_double_cover_preserves_degrees_and_girth():
    for net in (torus(3), random_regular(12, 3, seed=8)):
        out = bipartite_double_cover(net)
        assert degree_multiset(out) == degree_multiset(net) * 2
        assert girth(out) >= girth(net)


# -- power graph


def test_power_graph_ring8_radius2():
    out = power_graph(ring(8), 2)
    expected = {(v, (v + 1) % 8) for v in range(8)} | {(v, (v + 2) % 8) for v in range(8)}
    assert set(out.edges()) == {tuple(sorted(e)) for e in expected}


def test_power_graph_radius1_is_identity():
    net = random_regular(16, 3, seed=3)
    assert power_graph(net, 1).edges() == net.edges()


def test_power_graph_ring5_radius2_is_complete():
    assert power_graph(ring(5), 2).edges() == complete_graph(5).edges()


# -- girth


def test_girth_examples():
    assert girth(ring(5)) == 5
    assert girth(complete_graph(4)) == 3
    assert girth(path_graph(3)) is None


def test_girth_matches_exhaustive_enumeration_on_atlas(atlas6):
    for net in atlas6:
        assert girth(net) == exhaustive_girth(net)


def test_girth_matches_exhaustive_on_random_graphs_up_to_8():
    # sparse, dense, and disconnected graphs alike
    rng = Random(11)
    for trial in range(120):
        n = rng.randrange(2, 9)
        p = rng.choice([0.2, 0.4, 0.8])
        edges = [e for e in complete_graph(n).edges() if rng.random() < p]
        net = Network.from_edges(n, edges)
        assert girth(net) == exhaustive_girth(net)


def networkx_graph(net: Network):
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    graph.add_nodes_from(range(net.node_count))
    graph.add_edges_from(net.edges())
    return graph


def networkx_girth(net: Network):
    nx = pytest.importorskip("networkx")
    g = nx.girth(networkx_graph(net))
    return None if g == inf else g


def test_girth_matches_networkx_on_atlas(atlas6):
    for net in atlas6:
        assert girth(net) == networkx_girth(net)


# A square, a path and two isolated nodes; then a triangle beside a square.
DISCONNECTED = [
    Network.from_edges(9, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6)]),
    Network.from_edges(9, [(0, 1), (1, 2), (2, 3), (0, 3), (5, 6), (6, 7), (5, 7)]),
]


def test_two_coloring_matches_networkx(atlas6):
    nx = pytest.importorskip("networkx")
    for net in [*atlas6, *DISCONNECTED]:
        sides = two_coloring(net)
        assert (sides is None) == (not nx.is_bipartite(networkx_graph(net)))
        if sides is not None:
            side_a, side_b = sides
            assert side_a | side_b == set(range(net.node_count)) and not side_a & side_b
            assert all((u in side_a) != (v in side_a) for u, v in net.edges())


def test_on_short_cycle_matches_networkx(atlas6):
    nx = pytest.importorskip("networkx")
    for net in [*atlas6, *DISCONNECTED]:
        adjacency = [list(nbrs) for nbrs in net.adjacency]
        for u, v in net.edges():
            graph = networkx_graph(net)
            graph.remove_edge(u, v)
            try:
                dist = nx.shortest_path_length(graph, u, v)
            except nx.NetworkXNoPath:
                dist = inf
            for a, b in ((u, v), (v, u)):
                for limit in range(1, 6):
                    assert network._on_short_cycle(adjacency, a, b, limit) == (dist <= limit)
                    assert adjacency == [list(nbrs) for nbrs in net.adjacency]


def test_shortest_cycle_matches_reference_and_networkx():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graphs(draw):
        """G(n, p) graphs with n <= 12 (sparse ones are often forests or
        disconnected) and `random_regular(n, 3 or 4)` graphs with n <= 40."""
        seed = draw(st.integers(0, 2**32 - 1))
        if draw(st.booleans()):
            n = draw(st.integers(1, 12))
            p = draw(st.sampled_from([0.1, 0.2, 0.35, 0.6]))
            rng = Random(seed)
            return Network.from_edges(
                n, [e for e in combinations(range(n), 2) if rng.random() < p]
            )
        d = draw(st.sampled_from([3, 4]))
        n = draw(st.integers(d + 1, 40))
        return random_regular(n + (n * d) % 2, d, seed)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(graphs())
    def check(net):
        assert _shortest_cycle(net) == reference_shortest_cycle(net)
        assert girth(net) == networkx_girth(net)

    check()


def test_root_cycles_under_a_fixed_limit_give_the_shortest_cycle():
    # `cut_short_cycles` keeps one `_root_cycle` per root under the fixed
    # limit g - 1 and takes their minimum; it must be the reference's
    # (girth, smallest cycle) whenever the girth is within the limit.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(
        st.integers(0, 2**32 - 1), st.sampled_from([3, 4]), st.integers(5, 64), st.integers(2, 8)
    )
    def check(seed, d, n, limit):
        net = random_regular(n + (n * d) % 2, d, seed)
        found = [_root_cycle(net.adjacency, root, limit) for root in range(net.node_count)]
        shortest = min((c for c in found if c is not None), default=None)
        expected = reference_shortest_cycle(net)
        assert shortest == (expected if expected[0] <= limit else None)
        assert expected[0] == networkx_girth(net)

    check()


# -- the BFS helpers against their first-in-first-out references


def reference_ball(adjacency, sources, limit):
    """`_ball` as a first-in-first-out queue that tests the depth per node."""
    dist = dict.fromkeys(sources, 0)
    queue = deque(dist)
    while queue:
        x = queue.popleft()
        if limit is not None and dist[x] >= limit:
            continue
        for y in adjacency[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def reference_root_cycle(adjacency, root, limit):
    """`_root_cycle` on a first-in-first-out queue that recomputes its depth
    bound and rereads the depth and parent of a node per neighbor."""
    length, smallest = limit, None
    dist, parent, queue = {root: 0}, {root: -1}, deque([root])
    while queue:
        x = queue.popleft()
        if dist[x] > (length - 1) // 2:
            break
        for y in adjacency[x]:
            if y == parent[x]:
                continue
            if y not in dist:
                dist[y] = dist[x] + 1
                parent[y] = x
                queue.append(y)
                continue
            cand = dist[x] + dist[y] + 1
            if cand > length:
                continue
            cycle = network._path_to_root(x, parent)[::-1] + network._path_to_root(y, parent)[:-1]
            i = cycle.index(min(cycle))
            if cycle[i - 1] < cycle[(i + 1) % cand]:
                cycle.reverse()
                i = cand - 1 - i
            cycle = tuple(cycle[i:] + cycle[:i])
            if smallest is None or cand < length or cycle < smallest:
                length, smallest = cand, cycle
    return None if smallest is None else (length, smallest)


def bfs_graphs():
    """`random_regular(n, 3 or 4)` with n <= 48, tori of side 3-7, and G(n, p)
    graphs with n <= 16, among them forests and disconnected graphs."""
    st = pytest.importorskip("hypothesis").strategies

    @st.composite
    def graphs(draw):
        kind = draw(st.sampled_from(["regular", "torus", "gnp"]))
        seed = draw(st.integers(0, 2**32 - 1))
        if kind == "torus":
            return torus(draw(st.integers(3, 7)))
        if kind == "gnp":
            n = draw(st.integers(1, 16))
            p = draw(st.sampled_from([0.08, 0.15, 0.3, 0.6]))
            rng = Random(seed)
            return Network.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        d = draw(st.sampled_from([3, 4]))
        n = draw(st.integers(d + 1, 48))
        return random_regular(n + (n * d) % 2, d, seed)

    return graphs()


def test_root_cycle_matches_the_queue_reference_at_every_root():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(bfs_graphs())
    @hypothesis.example(Network.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]))
    @hypothesis.example(path_graph(6))
    def check(net):
        adjacency = [list(nbrs) for nbrs in net.adjacency]
        for limit in range(3, 10):
            for root in range(net.node_count):
                assert _root_cycle(adjacency, root, limit) == reference_root_cycle(adjacency, root, limit)

    check()


@pytest.mark.parametrize("side, g", [(10, 6), (12, 6), (16, 6), (12, 7), (16, 8)])
def test_root_cycle_matches_the_queue_reference_mid_cut(monkeypatch, side, g):
    # The adjacency states a bipartition-constrained torus cut passes
    # through: after each swap, every root's scan equals the reference's at
    # the cut's limit g - 1, and after every eighth swap at each limit 3-9.
    swap = network._swap_and_rescan
    states = 0

    def checked(adjacency, found, g, *ends):
        nonlocal states
        swap(adjacency, found, g, *ends)
        states += 1
        for limit in range(3, 10) if states % 8 == 1 else (g - 1,):
            for root in range(len(adjacency)):
                assert _root_cycle(adjacency, root, limit) == reference_root_cycle(adjacency, root, limit)

    monkeypatch.setattr(network, "_swap_and_rescan", checked)
    net = torus(side)
    try:
        cut_short_cycles(net, g, CycleCutConstraint.preserve_bipartition(*two_coloring(net)))
    except ConstructionError:
        pass  # a side too small for the target still checks the swaps it made
    assert states > 0


def test_ball_matches_the_queue_reference_in_insertion_order():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(bfs_graphs(), st.data())
    def check(net, data):
        if net.node_count == 0:
            return
        nodes = st.integers(0, net.node_count - 1)
        sources = data.draw(st.lists(nodes, min_size=1, max_size=4), label="sources")
        for limit in (None, 0, 1, 2, 3, 4, 5, 6):
            got = network._ball(net.adjacency, sources, limit)
            assert list(got.items()) == list(reference_ball(net.adjacency, sources, limit).items())

    check()


# -- JSON interchange


def test_graph_json_round_trip():
    net = torus(3)
    obj = graph_to_json(net, meta={"generator": "torus", "seed": 0, "params": {"n": 3}})
    assert obj["n"] == 9
    assert obj["edges"] == sorted(obj["edges"])
    assert graph_from_json(obj).edges() == net.edges()


MALFORMED_GRAPHS = [  # (mangle of graph_to_json(ring(4)), the one fault's message)
    (lambda o: o["edges"].append([1, 0]), "edge [1, 0] must be listed with u < v"),
    (lambda o: o["edges"].append(o["edges"][0]), "duplicate edge 0-1"),
    (lambda o: o.update(max_degree=99), "declared max_degree 99 != actual 2"),
    (lambda o: o.pop("n"), "graph JSON missing field 'n'"),
    (lambda o: o["edges"].append([0, 0]), "edge [0, 0] must be listed with u < v"),
    (lambda o: o.update(edges=17), "graph JSON field 'edges' must be a list of pairs"),
    (lambda o: o["edges"].append([0, "x"]), "malformed edge entry [0, 'x']"),
    (lambda o: o.update(n=True, edges=[], max_degree=0),  # JSON true is not an int
     "graph JSON field 'n' must be a nonnegative integer"),
    (lambda o: o.update(n=2, edges=[[False, True]], max_degree=1),
     "malformed edge entry [False, True]"),
    (lambda o: o.update(n=2, edges=[[0, 1]], max_degree=True), "declared max_degree True != actual 1"),
    (lambda o: o["edges"].insert(1, [0, 7]), "edge 0-7 out of range for n=4"),
    (lambda o: o["edges"].append([-1, 2]), "edge -1-2 out of range for n=4"),
    (lambda o: o["edges"].append([2, 3]), "duplicate edge 2-3"),
    (lambda o: o["edges"].append([[0], [1]]), "malformed edge entry [[0], [1]]"),
    (lambda o: o["edges"].append([0, 1, 2]), "malformed edge entry [0, 1, 2]"),
    (lambda o: o["edges"].append([1.0, 2]), "malformed edge entry [1.0, 2]"),
    (lambda o: o["edges"].append([2, None]), "malformed edge entry [2, None]"),
]


@pytest.mark.parametrize(
    "mangle, message",
    [pytest.param(*case, id=f"<lambda>{i}") for i, case in enumerate(MALFORMED_GRAPHS)],
)
def test_graph_json_rejects_malformed(mangle, message):
    obj = graph_to_json(ring(4))
    mangle(obj)
    with pytest.raises(ValidationError) as exc:
        graph_from_json(obj)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "adjacency, message",
    [
        (((1,), ()), "edge 0-1 is not symmetric"),
        (((1, 1), (0, 0)), "duplicate edge 0-1"),
        (((2, 1), (0,), (0,)), "adjacency of node 0 is not sorted"),
        (((0,),), "self-loop at node 0"),
        (((3,), ()), "node 0 lists out-of-range neighbor 3"),
        (((-1,), ()), "node 0 lists out-of-range neighbor -1"),
    ],
)
def test_network_constructor_names_each_fault(adjacency, message):
    with pytest.raises(ValidationError) as exc:
        Network(adjacency)
    assert str(exc.value) == message


def reference_graph_from_json(obj) -> Network:
    """`graph_from_json` with three-stage validation: the shape loop, an
    edge-by-edge build that rejects range faults, self-loops and duplicates
    in list order, and a re-check of every sorted adjacency list."""
    if not isinstance(obj, dict):
        raise ValidationError("graph JSON must be an object")
    for key in ("n", "edges", "max_degree"):
        if key not in obj:
            raise ValidationError(f"graph JSON missing field {key!r}")
    n = obj["n"]
    if type(n) is not int or n < 0:
        raise ValidationError("graph JSON field 'n' must be a nonnegative integer")
    if not isinstance(obj["edges"], list):
        raise ValidationError("graph JSON field 'edges' must be a list of pairs")
    for item in obj["edges"]:
        if not (isinstance(item, list) and len(item) == 2 and all(type(x) is int for x in item)):
            raise ValidationError(f"malformed edge entry {item!r}")
        if not item[0] < item[1]:
            raise ValidationError(f"edge {item} must be listed with u < v")
    nbrs = [set() for _ in range(n)]
    for u, v in obj["edges"]:
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"edge {u}-{v} out of range for n={n}")
        if u == v:
            raise ValidationError(f"self-loop at node {u}")
        if v in nbrs[u]:
            raise ValidationError(f"duplicate edge {u}-{v}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    adjacency = tuple(tuple(sorted(s)) for s in nbrs)
    for v, row in enumerate(adjacency):
        if len(set(row)) != len(row):
            raise ValidationError(f"node {v} has a repeated neighbor")
        for u in row:
            if not 0 <= u < n:
                raise ValidationError(f"node {v} lists out-of-range neighbor {u}")
            if u == v:
                raise ValidationError(f"self-loop at node {v}")
            if v not in adjacency[u]:
                raise ValidationError(f"edge {v}-{u} is not symmetric")
    max_degree = max(map(len, adjacency), default=0)
    if type(obj["max_degree"]) is not int or max_degree != obj["max_degree"]:
        raise ValidationError(f"declared max_degree {obj['max_degree']} != actual {max_degree}")
    return Network(adjacency)


# Single faults for `test_graph_from_json_matches_three_stage_validation`:
# each mutates a valid graph dict in place, given the dict and a Random.
def _insert(obj, rng, item):
    obj["edges"].insert(rng.randrange(len(obj["edges"]) + 1), item)


def _out_of_range(obj, rng):
    n = obj["n"]
    _insert(obj, rng, rng.choice([[rng.randrange(n), n + rng.randrange(3)], [-1, rng.randrange(n)]]))


def _duplicate(obj, rng):
    if obj["edges"]:  # the chosen entry may be malformed, e.g. 5
        _insert(obj, rng, copy.copy(rng.choice(obj["edges"])))


def _repeated(obj, rng):
    if obj["edges"]:  # next to its twin, so a sorted list stays sorted
        i = rng.randrange(len(obj["edges"]))
        obj["edges"].insert(i, copy.copy(obj["edges"][i]))


def _reversed(obj, rng):
    u, v = rng.sample(range(obj["n"]), 2)
    _insert(obj, rng, [max(u, v), min(u, v)])


MALFORMED_EDGES = [5, [1], [0, 1, 2], [0, "x"], [True, 1], [0.0, 1], [[0], [1]], [[0, 1]]]


class Pair(list):
    """A list subclass as an edge entry: loaded like a plain list."""


GRAPH_FAULTS = [
    _out_of_range,
    _duplicate,
    _repeated,
    _reversed,
    lambda obj, rng: _insert(obj, rng, [rng.randrange(obj["n"])] * 2),
    lambda obj, rng: _insert(obj, rng, rng.choice(MALFORMED_EDGES)),
    lambda obj, rng: obj.update(max_degree=rng.choice([obj["max_degree"] + 1, True, "2"])),
    lambda obj, rng: obj.update(n=rng.choice([-1, True, "5", 1.5, obj["n"] - 1])),
    lambda obj, rng: obj.pop(rng.choice(["n", "edges", "max_degree"])),
    lambda obj, rng: obj.update(edges=rng.choice([17, {}, "edges"])),
]


@pytest.mark.parametrize("entry", MALFORMED_EDGES, ids=repr)
def test_graph_faults_apply_on_top_of_a_malformed_entry(entry):
    # A draw may apply a fault after an earlier one inserted a malformed
    # entry; each fault must still apply, and both loaders must reject.
    for i, fault in enumerate(GRAPH_FAULTS):
        for edges in ([entry], [[0, 1], entry], [entry, [1, 2]]):
            obj = {"n": 3, "edges": copy.deepcopy(edges), "max_degree": 1}
            fault(obj, Random(i))
            for load in (graph_from_json, reference_graph_from_json):
                with pytest.raises(ValidationError):
                    load(obj)


@pytest.mark.parametrize("index", range(len(GRAPH_FAULTS)))
def test_each_graph_fault_alone_matches_three_stage_validation(index):
    # Every fault runs alone, so a late entry is not left to the rare draws
    # that pick it as the only fault. Each one must be rejected on this graph
    # (every node has an edge, so n - 1 leaves one out of range), with the
    # reference's message, in sorted and shuffled edge order.
    base = graph_to_json(random_regular(8, 3, seed=1))
    for seed in range(12):
        rng = Random(seed)
        for pair in (list, Pair):
            edges = [pair(e) for e in base["edges"]]
            if seed % 2:
                rng.shuffle(edges)
            obj = {**base, "edges": edges}
            GRAPH_FAULTS[index](obj, rng)
            with pytest.raises(ValidationError) as want:
                reference_graph_from_json(obj)
            with pytest.raises(ValidationError) as got:
                graph_from_json(obj)
            assert str(got.value) == str(want.value)


def test_graph_from_json_matches_three_stage_validation():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graph_dicts(draw):
        n = draw(st.integers(2, 8))
        pairs = list(combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        obj = graph_to_json(Network.from_edges(n, edges))
        pair = draw(st.sampled_from([list, Pair]))
        if draw(st.booleans()):  # sorted, as `graph_to_json` writes, or the drawn order
            edges = sorted(edges)
        obj["edges"] = [pair(e) for e in edges]
        rng = Random(draw(st.integers(0, 2**32)))
        applied = 0
        for fault in draw(st.lists(st.sampled_from(GRAPH_FAULTS), max_size=3)):
            n, edges, max_degree = (obj.get(key) for key in ("n", "edges", "max_degree"))
            if type(n) is int and n >= 2 and isinstance(edges, list) and type(max_degree) is int:
                fault(obj, rng)  # a fault needs the fields it mutates intact
                applied += 1
        return obj, applied

    def outcome(load, obj):
        try:
            return load(obj)
        except ValidationError as exc:
            return str(exc)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(graph_dicts())
    def check(case):
        obj, faults = case
        got, want = outcome(graph_from_json, obj), outcome(reference_graph_from_json, obj)
        if faults <= 1:
            assert got == want
        else:  # with several faults, either may be named first
            assert got == want or (isinstance(got, str) and isinstance(want, str))
        if isinstance(got, Network):  # built with or without the check, it passes it
            assert got == Network(got.adjacency)

    check()


def test_graph_from_json_sorts_only_an_unsorted_edge_list():
    # A sorted file loads without the per-node sort; a shuffled one must be
    # sorted, or the constructor would reject its adjacency as unsorted.
    net = random_regular(30, 3, seed=4)
    ordered = graph_to_json(net)
    shuffled = dict(ordered, edges=list(ordered["edges"]))
    Random(1).shuffle(shuffled["edges"])
    assert shuffled["edges"] != ordered["edges"]
    for obj in (ordered, shuffled):
        assert graph_from_json(obj) == net == reference_graph_from_json(obj)
    # A repeated edge ends in the constructor's duplicate check either way.
    u, v = ordered["edges"][7]
    for obj in (
        dict(ordered, edges=sorted([*ordered["edges"], [u, v]])),
        dict(shuffled, edges=[*shuffled["edges"], [u, v]]),
    ):
        with pytest.raises(ValidationError) as exc:
            graph_from_json(obj)
        assert str(exc.value) == f"duplicate edge {u}-{v}"
        with pytest.raises(ValidationError) as exc:
            reference_graph_from_json(obj)
        assert str(exc.value) == f"duplicate edge {u}-{v}"


def test_graph_from_json_runs_the_constructor_check_only_off_a_strictly_increasing_list(monkeypatch):
    cut = cut_short_cycles(random_regular(40, 3, seed=1), 5, CycleCutConstraint.unconstrained())
    files = [
        graph_to_json(net)
        for net in (ring(9), torus(4), random_regular(30, 3, seed=4), star_matching(4, 3, 1)[0],
                    power_graph(ring(12), 2), bipartite_double_cover(torus(3)), cut)
    ]
    checks = []
    check = Network.__post_init__

    def counted(net):
        checks.append(net)
        check(net)

    monkeypatch.setattr(Network, "__post_init__", counted)
    for obj in files:
        net = reference_graph_from_json(obj)
        shuffled = dict(obj, edges=list(obj["edges"]))
        Random(3).shuffle(shuffled["edges"])
        u, v = obj["edges"][len(obj["edges"]) // 2]
        repeated = dict(obj, edges=sorted([*obj["edges"], [u, v]]))
        for case, count in ((obj, 0), (shuffled, 1), (repeated, 1)):
            checks.clear()
            if case is repeated:
                with pytest.raises(ValidationError, match=f"^duplicate edge {u}-{v}$"):
                    graph_from_json(case)
            else:
                assert graph_from_json(case) == net
            assert len(checks) == count


def test_graph_from_json_names_the_first_fault_in_list_order():
    # One walk checks each entry whole: an out-of-range edge is named before
    # a later entry listed with u > v, which the three-stage loader names.
    obj = {"n": 4, "edges": [[0, 7], [1, 0]], "max_degree": 1}
    with pytest.raises(ValidationError) as exc:
        graph_from_json(obj)
    assert str(exc.value) == "edge 0-7 out of range for n=4"
    with pytest.raises(ValidationError) as exc:
        reference_graph_from_json(obj)
    assert str(exc.value) == "edge [1, 0] must be listed with u < v"


def test_double_cover_and_power_graph_match_edge_list_builds():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    graphs = st.one_of(
        st.integers(3, 12).map(ring),
        st.integers(3, 6).map(torus),
        st.tuples(st.integers(3, 11), st.sampled_from([3, 4]), st.integers(0, 99)).map(
            lambda t: random_regular(2 * t[0], t[1], t[2])
        ),
    )

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(graphs, st.integers(1, 3))
    def check(net, r):
        n = net.node_count
        cover = [(u, v + n) for u, v in net.edges()] + [(u + n, v) for u, v in net.edges()]
        assert bipartite_double_cover(net) == Network.from_edges(2 * n, cover)
        power = {
            (v, u)
            for v in range(n)
            for u, dist in net.bfs_distances(v, limit=r).items()
            if 0 < dist and u > v
        }
        assert power_graph(net, r) == Network.from_edges(n, power)

    check()


def test_generator_outputs_pass_validator():
    # construction re-validates; reaching here means the invariants held
    for net in (ring(7), torus(4), random_regular(14, 3, seed=2), star_matching(4, 3, 1)[0]):
        Network(net.adjacency)
