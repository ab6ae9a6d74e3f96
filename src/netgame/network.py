"""Simple bounded-degree graphs: representation, generators, and rewiring.

Nodes are dense integer identifiers ``0..n-1``; the index order doubles as
the deterministic tie-breaking order used throughout the package. All
values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from operator import or_
from random import Random

from .errors import ConstructionError, GuardError, ValidationError
from .seeds import derive_seed, shuffle

Edge = tuple[int, int]


@dataclass(frozen=True)
class Network:
    """Simple undirected graph with per-node sorted adjacency lists.

    The constructor checks the structure: each neighbor of ``v`` is a node
    other than ``v`` that lists ``v`` back, and each adjacency list is
    strictly increasing, so no neighbor repeats. Every graph passes it but
    one read from a strictly increasing edge list (see `_proved`).
    """

    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        adjacency = self.adjacency
        n = len(adjacency)
        for v, nbrs in enumerate(adjacency):
            prev = -1
            for u in nbrs:
                if not 0 <= u < n:
                    raise ValidationError(f"node {v} lists out-of-range neighbor {u}")
                if u == v:
                    raise ValidationError(f"self-loop at node {v}")
                if v not in adjacency[u]:
                    raise ValidationError(f"edge {v}-{u} is not symmetric")
                if u == prev:
                    raise ValidationError(f"duplicate edge {v}-{u}")
                if u < prev:
                    raise ValidationError(f"adjacency of node {v} is not sorted")
                prev = u

    @classmethod
    def _proved(cls, adjacency: tuple[tuple[int, ...], ...]) -> "Network":
        """The network on ``adjacency`` without the constructor's check. Its
        one caller, `graph_from_json`, proves from a strictly increasing list
        of node pairs ``u < v``, each appended to both lists, that every list
        is symmetric, strictly increasing and free of its own node."""
        net = object.__new__(cls)
        object.__setattr__(net, "adjacency", adjacency)
        return net

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "Network":
        """Build a network on ``n`` nodes from an iterable of edges.

        Checks only that ``n >= 0`` and that both ends of every edge are
        nodes; the constructor rejects self-loops and duplicate edges."""
        if n < 0:
            raise ValidationError("node count must be nonnegative")
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge {u}-{v} out of range for n={n}")
            nbrs[u].append(v)
            nbrs[v].append(u)
        return cls(tuple(tuple(sorted(s)) for s in nbrs))

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @cached_property
    def max_degree(self) -> int:
        return max(map(len, self.adjacency), default=0)

    @cached_property
    def edge_count(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def edges(self) -> list[Edge]:
        """All edges as ``(u, v)`` with ``u < v``, lexicographically sorted."""
        return [(u, v) for u in range(self.node_count) for v in self.adjacency[u] if u < v]

    def bfs_distances(self, source: int, limit: int | None = None) -> dict[int, int]:
        """Hop distances from ``source``, truncated at ``limit`` if given."""
        return _ball(self.adjacency, (source,), limit)


def _ball(adjacency, sources, limit: int | None) -> dict[int, int]:
    """Hop distances from the nearest of ``sources``, truncated at ``limit``
    if given; ``adjacency[x]`` lists the neighbors of ``x``.

    The search expands one level at a time from a list frontier, so the
    depth is tested once per level, not once per node. Each level lists its
    nodes in the order the level before discovers them, so the dict holds
    the nodes in the order of a first-in-first-out search.
    """
    dist = dict.fromkeys(sources, 0)
    frontier = list(dist)
    depth = 0
    while frontier and (limit is None or depth < limit):
        depth += 1
        level = []
        for x in frontier:
            for y in adjacency[x]:
                if y not in dist:
                    dist[y] = depth
                    level.append(y)
        frontier = level
    return dist


@dataclass(frozen=True)
class CycleCutConstraint:
    """Restriction on which edges `cut_short_cycles` may rewire.

    * ``leaf_edges`` set (`leaf_edges_only`) - only the designated edge set
      is rewired (the replacement edges join the set), preserving perfect
      domination of a star construction.
    * ``sides`` set (`preserve_bipartition`) - every replacement edge must
      cross the given 2-partition of the nodes.

    With neither set (`unconstrained`), any edge may be swapped.
    """

    leaf_edges: frozenset[Edge] | None = None
    sides: tuple[frozenset[int], frozenset[int]] | None = None

    @classmethod
    def unconstrained(cls) -> "CycleCutConstraint":
        return cls()

    @classmethod
    def leaf_edges_only(cls, leaf_edges) -> "CycleCutConstraint":
        return cls(leaf_edges=frozenset(tuple(sorted(e)) for e in leaf_edges))

    @classmethod
    def preserve_bipartition(cls, side_a, side_b) -> "CycleCutConstraint":
        return cls(sides=(frozenset(side_a), frozenset(side_b)))


# ---------------------------------------------------------------------------
# Generators


def ring(n: int) -> Network:
    """Cycle on ``n >= 3`` nodes with edges ``{i, (i+1) mod n}``."""
    if n < 3:
        raise ValidationError("ring needs n >= 3 (smaller n would duplicate an edge)")
    return Network.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def torus(n: int) -> Network:
    """Two-dimensional ``n``-by-``n`` torus (4-regular, ``2*n*n`` edges).

    Node ``(i, j)`` has index ``i*n + j`` and is adjacent to ``(i, j+1 mod n)``
    and ``(i+1 mod n, j)``.
    """
    if n < 3:
        raise ValidationError("torus needs n >= 3 (wrap-around would duplicate edges)")
    edges = []
    for i in range(n):
        for j in range(n):
            edges.append((i * n + j, i * n + (j + 1) % n))
            edges.append((i * n + j, ((i + 1) % n) * n + j))
    return Network.from_edges(n * n, edges)


def random_regular(n: int, d: int, seed: int) -> Network:
    """Random ``d``-regular simple graph via the configuration model.

    Stubs are paired uniformly at random (Bollobas, Europ. J. Combin. 1980):
    each attempt shuffles the stub list as `seeds.shuffle` does, from a
    fresh derived seed, and pairs positions ``2m`` and ``2m+1``. Fisher-Yates
    from the end fixes both positions of a pair at the step at index ``2m``,
    so each pair is checked then and the attempt is abandoned at its first
    self-loop or repeated edge, up to 1000 attempts. The draws an abandoned
    attempt skips feed nothing else, so the accepted pairing is the one a
    full shuffle followed by a check of every pair would accept.
    Deterministic given ``seed``.

    Raises:
        ValidationError: if ``n*d`` is odd, ``n <= d``, or ``d < 3``.
        ConstructionError: if no simple pairing is found within the budget.
    """
    if d < 3:
        raise ValidationError("random_regular needs degree d >= 3")
    if n <= d:
        raise ValidationError("random_regular needs n > d")
    if (n * d) % 2 != 0:
        raise ValidationError("random_regular needs n*d even (handshake parity)")
    for attempt in range(1000):
        getrandbits = Random(derive_seed(seed, "regular-attempt", attempt)).getrandbits
        stubs = [v for v in range(n) for _ in range(d)]
        seen: set[int] = set()  # u * n + v per edge u < v
        for i in range(len(stubs) - 1, -1, -1):
            if i:  # one Fisher-Yates step, as in `seeds.shuffle`
                size = i + 1
                k = size.bit_length()
                j = getrandbits(k)
                while j >= size:
                    j = getrandbits(k)
                stubs[i], stubs[j] = stubs[j], stubs[i]
            if i & 1:
                continue
            u, v = stubs[i], stubs[i + 1]  # both final now
            key = u * n + v if u < v else v * n + u
            if u == v or key in seen:
                break
            seen.add(key)
        else:
            return Network.from_edges(n, zip(stubs[::2], stubs[1::2]))
    raise ConstructionError(
        f"no simple {d}-regular pairing on {n} nodes after 1000 attempts; retry with a new seed"
    )


def star_matching(k: int, d: int, seed: int) -> tuple[Network, frozenset[int], frozenset[Edge]]:
    """``k`` stars on ``d+1`` nodes joined by ``d-1`` disjoint leaf matchings.

    The result is ``d``-regular on ``k*(d+1)`` nodes. Star centers form a
    perfect dominating set (every leaf has exactly one center neighbor) and
    the matching edges are returned as the designated leaf edges.

    Centers get indices ``0..k-1``; leaves ``k..k(d+1)-1``. The matchings
    come from a round-robin one-factorization of the complete graph on the
    leaves after a seed-driven shuffle, so construction never needs
    rejection: it is feasible exactly when ``k*d`` is even.

    Raises:
        ValidationError: on ``d < 3``, ``k < 1``, or odd ``k*d`` (no perfect
            matching on an odd leaf set).
    """
    if d < 3:
        raise ValidationError("star_matching needs d >= 3")
    if k < 1:
        raise ValidationError("star_matching needs k >= 1")
    m = k * d
    if m % 2 != 0:
        raise ValidationError(
            f"star_matching infeasible: {m} leaves cannot host disjoint perfect matchings"
        )
    n = k * (d + 1)
    leaves = list(range(k, n))
    rng = Random(derive_seed(seed, "star-matching"))
    shuffle(rng, leaves)

    edges: list[Edge] = []
    for c in range(k):
        for j in range(d):
            edges.append((c, k + c * d + j))

    # Round-robin one-factorization of K_m: round r matches the rotating
    # positions; m-1 rounds exist, we use the first d-1.
    leaf_edges: set[Edge] = set()
    fixed = leaves[m - 1]
    rotating = leaves[: m - 1]
    for r in range(d - 1):
        pair = (fixed, rotating[r % (m - 1)])
        matches = [pair]
        for i in range(1, m // 2):
            a = rotating[(r + i) % (m - 1)]
            b = rotating[(r - i) % (m - 1)]
            matches.append((a, b))
        for a, b in matches:
            e = (a, b) if a < b else (b, a)
            leaf_edges.add(e)
            edges.append(e)

    net = Network.from_edges(n, edges)
    return net, frozenset(range(k)), frozenset(leaf_edges)


def bipartite_double_cover(net: Network) -> Network:
    """Two copies of each node; each edge ``{u,v}`` becomes the crossed pair
    ``{u1,v2}`` and ``{u2,v1}``. Always bipartite; degrees preserved; the
    girth never decreases."""
    n = net.node_count
    return Network(tuple(tuple(u + n for u in nbrs) for nbrs in net.adjacency) + net.adjacency)


def power_graph(net: Network, r: int) -> Network:
    """Graph on the same nodes with ``u ~ v`` iff ``1 <= dist(u, v) <= r``."""
    if r < 1:
        raise ValidationError("power_graph needs r >= 1")
    return Network(tuple(
        tuple(sorted(u for u in net.bfs_distances(v, limit=r) if u != v))
        for v in range(net.node_count)
    ))


# ---------------------------------------------------------------------------
# Girth and cycle cutting


def girth(net: Network) -> int | None:
    """Length of the shortest cycle, or None for forests (see `_shortest_cycle`)."""
    return _shortest_cycle(net)[0]


def _shortest_cycle(net: Network) -> tuple[int | None, tuple[int, ...] | None]:
    """The girth and the lexicographically smallest of the shortest cycles
    closed by the per-root BFS trees, or ``(None, None)`` for forests.

    The minimum of `_root_cycle` over every root, each one's limit shrunk to
    the best length found so far: every shortest cycle is found from each
    root on it, and no root finds a shorter closed walk.
    """
    best = None
    for root in range(net.node_count):
        found = _root_cycle(net.adjacency, root, best[0] if best else net.node_count)
        if found is not None and (best is None or found < best):
            best = found
    return best or (None, None)


def _root_cycle(adjacency, root: int, limit: int) -> tuple[int, tuple[int, ...]] | None:
    """The shortest closed walk of length at most ``limit`` that the BFS tree
    of ``root`` closes, and the lexicographically smallest one of that
    length, as ``(length, cycle)``; None if there is none.

    The BFS reads only the neighbor lists within ``(limit - 1) // 2`` of
    ``root``, less once a shorter walk is found: each candidate of length
    ``k`` is found while reading a node at most ``(k - 1) // 2`` deep. For
    each non-tree edge ``{x,y}``, ``dist(x) + dist(y) + 1`` bounds a cycle
    from below, and the bound is attained from every root on a shortest
    cycle (Itai and Rodeh, "Finding a Minimum Circuit in a Graph", SIAM J.
    Comput. 1978). Each candidate is the closed walk from the root down the
    tree to ``x``, across ``{x,y}`` and back up from ``y``, written from its
    minimum node towards the smaller of that node's two cycle neighbors. A
    walk whose tree paths share more than the root contains a strictly
    shorter cycle, so only simple cycles survive to the girth.

    The BFS walks its own node list, which it extends as it goes, reads
    each node's depth and parent once, and keeps the depth bound
    ``(length - 1) // 2`` in a local that changes only when ``length``
    shrinks.
    """
    length, smallest = limit, None
    bound = (length - 1) // 2
    dist = {root: 0}
    parent = {root: -1}
    order = [root]
    for x in order:
        dx = dist[x]
        if dx > bound:
            break
        px = parent[x]
        for y in adjacency[x]:
            if y == px:
                continue
            dy = dist.get(y)
            if dy is None:
                dist[y] = dx + 1
                parent[y] = x
                order.append(y)
                continue
            cand = dx + dy + 1
            if cand > length:
                continue
            cycle = _path_to_root(x, parent)[::-1] + _path_to_root(y, parent)[:-1]
            i = cycle.index(min(cycle))
            if cycle[i - 1] < cycle[(i + 1) % cand]:
                cycle.reverse()
                i = cand - 1 - i
            cycle = tuple(cycle[i:] + cycle[:i])
            if smallest is None or cand < length or cycle < smallest:
                if cand < length:
                    bound = (cand - 1) // 2
                length, smallest = cand, cycle
    return None if smallest is None else (length, smallest)


def _path_to_root(x: int, parent: dict[int, int]) -> list[int]:
    path = [x]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    return path


def cut_short_cycles(
    net: Network,
    g: int,
    constraint: CycleCutConstraint | None = None,
) -> Network:
    """Raise the girth to at least ``g`` by degree-preserving edge swaps.

    Repeatedly takes the lexicographically smallest shortest cycle, the
    smallest eligible edge ``e = {u,v}`` on it, and the smallest eligible
    edge ``f = {u',v'}`` at edge distance >= g: no endpoint of ``f`` within
    ``g - 1`` of an endpoint of ``e``; another component is infinitely far.
    It then replaces both with the crossed pair ``{u,v'}, {u',v}``. Endpoints
    of far edges are pairwise non-adjacent, so swaps can never create
    parallel edges, and every swap preserves the degree sequence and the
    edge count. The eligible edges are also kept as a sorted list, so ``f``
    is the first one disjoint from the ball around ``e``.

    The work per swap is local. Each root's `_root_cycle` under the limit
    ``g - 1`` is cached, the cycle to cut is the smallest cached one, and
    `_swap_and_rescan` rescans only the roots a swap can change. The cache
    keeps this invariant: every entry equals a fresh
    ``_root_cycle(adjacency, root, g - 1)``, except for a None entry at a
    root that lies on no cycle shorter than ``g``. The fresh minimum is a
    shortest cycle, found from each root on it, and no root finds a shorter
    closed walk (`_shortest_cycle`). Those roots lie on a short cycle, so
    their entries are fresh, while every stale entry is None. So the cached
    minimum is the fresh one at every swap, and the swaps are those of a
    full rescan. The invariant holds for any degree-preserving swap, far or
    not. The graph is held as mutable sorted neighbor lists, and one
    `Network` is built at the end.

    ``g`` must be an integer of at least 3; the procedure is deterministic.

    Raises:
        ConstructionError: if no eligible far edge exists at some step
            (``g`` too large for this graph) or the iteration budget runs out.
    """
    if constraint is None:
        constraint = CycleCutConstraint.unconstrained()
    if not isinstance(g, int) or g < 3:
        raise ValidationError("girth target must be an integer >= 3")

    if constraint.sides is not None:
        side_a, side_b = constraint.sides
        nodes = set(range(net.node_count))
        if (side_a | side_b) != nodes or (side_a & side_b):
            raise ValidationError("bipartition must cover all nodes exactly once")
        for u, v in net.edges():
            if (u in side_a) == (v in side_a):
                raise ValidationError(
                    f"edge {u}-{v} does not cross the given bipartition"
                )

    # Eligible edges: all of them, or the designated edges still in the graph.
    eligible = set(net.edges())
    if constraint.leaf_edges is not None:
        eligible &= constraint.leaf_edges
    ordered = sorted(eligible)
    adjacency = [list(nbrs) for nbrs in net.adjacency]
    found = [_root_cycle(adjacency, root, g - 1) for root in range(net.node_count)]
    budget = 10 * net.edge_count + 10

    for _ in range(budget):
        shortest = min((c for c in found if c is not None), default=None)
        if shortest is None:
            return Network(tuple(map(tuple, adjacency)))
        cycle = shortest[1]
        cycle_edges = sorted(
            tuple(sorted((cycle[i], cycle[(i + 1) % len(cycle)]))) for i in range(len(cycle))
        )
        eligible_on_cycle = [e for e in cycle_edges if e in eligible]
        if not eligible_on_cycle:
            raise ConstructionError("shortest cycle has no eligible edge to cut")

        # Smallest eligible cycle edge that has a far partner at all; a cycle
        # edge with no partner at distance >= g is skipped in favor of the
        # next one rather than aborting the whole construction.
        for e in eligible_on_cycle:
            near = _ball(adjacency, e, g - 1).keys()
            f = next((x for x in ordered if near.isdisjoint(x)), None)
            if f is not None:
                break
        else:
            raise ConstructionError(
                f"no eligible edge at distance >= {g} from any edge of cycle {cycle}; "
                "girth target too large for n"
            )

        # Under a bipartition both edges run from side A, so the new ones cross.
        (u, v), (up, vp) = (
            (x, y) if constraint.sides is None or x in constraint.sides[0] else (y, x)
            for x, y in (e, f)
        )
        for old in (e, f):
            eligible.remove(old)
            del ordered[bisect_left(ordered, old)]
        for new in (tuple(sorted((u, vp))), tuple(sorted((up, v)))):
            eligible.add(new)
            insort(ordered, new)
        _swap_and_rescan(adjacency, found, g, u, v, up, vp)
    raise ConstructionError(f"cycle cutting did not reach girth {g} within {budget} swaps")


def _swap_and_rescan(adjacency, found, g: int, u: int, v: int, up: int, vp: int) -> None:
    """Replace the edges ``{u,v}, {up,vp}`` by ``{u,vp}, {up,v}`` in the
    sorted neighbor lists, and rescan the roots of the `cut_short_cycles`
    cache ``found`` whose entry the swap can change.

    Only the four endpoints' lists change. A root cached with a cycle of
    length ``L`` read only the lists within ``(L - 1) // 2`` of it
    (`_root_cycle`), so it is rescanned only if an endpoint lies that close.
    A None entry says the root lay on no cycle shorter than ``g``, since a
    fresh scan finds one from every root on one. Such a root is rescanned
    only if an endpoint lies within ``(g - 2) // 2`` of it and a new edge
    lies on a cycle shorter than ``g``. Otherwise every cycle shorter than
    ``g`` is one of the old graph, so the root still lies on none; or its
    scan read no changed list. A new short cycle holds a new edge, and each
    of its nodes lies within ``(g - 2) // 2`` of that edge's nearer end, so
    it is rescanned. Distances are taken in the new graph; no list within
    them changed, so the old graph gives the same roots.
    """
    for x, old, new in ((u, v, vp), (v, u, up), (up, vp, v), (vp, up, u)):
        adjacency[x].remove(old)
        insort(adjacency[x], new)
    short = _on_short_cycle(adjacency, u, vp, g - 2) or _on_short_cycle(adjacency, up, v, g - 2)
    for root, d in _ball(adjacency, (u, v, up, vp), (g - 2) // 2).items():
        cached = found[root]
        if (d <= (cached[0] - 1) // 2) if cached is not None else short:
            found[root] = _root_cycle(adjacency, root, g - 1)


def _on_short_cycle(adjacency, a: int, b: int, limit: int) -> bool:
    """Whether ``b`` lies within ``limit`` of ``a`` without the edge
    ``{a,b}``, that is, whether the edge lies on a cycle of length at most
    ``limit + 1``. The edge is lifted out of the sorted neighbor lists for
    the search and put back.

    The search meets in the middle: ``b`` lies within ``limit`` of ``a``
    iff the ``(limit + 1) // 2``-ball of ``a`` and the ``limit // 2``-ball
    of ``b`` share a node. A shortest path of length ``d <= limit`` has its
    node at ``min(d, (limit + 1) // 2)`` from ``a`` in both balls, and a
    shared node gives a walk of length at most ``limit``. Where the graph
    looks like a tree out to ``limit``, each half-ball holds about the
    square root of the nodes of the full ``limit``-ball.
    """
    adjacency[a].remove(b)
    adjacency[b].remove(a)
    try:
        near = _ball(adjacency, (a,), (limit + 1) // 2)
        return not near.keys().isdisjoint(_ball(adjacency, (b,), limit // 2))
    finally:
        insort(adjacency[a], b)
        insort(adjacency[b], a)


# ---------------------------------------------------------------------------
# Certifiers


def two_coloring(net: Network) -> tuple[frozenset[int], frozenset[int]] | None:
    """A proper 2-coloring as a node bipartition, or None if not bipartite.
    A component's sides are the parities of its distances from its least node."""
    sides: tuple[set[int], set[int]] = (set(), set())
    for start in range(net.node_count):
        if start not in sides[0] and start not in sides[1]:
            for x, d in _ball(net.adjacency, (start,), None).items():
                sides[d & 1].add(x)
    if any(not side.isdisjoint(net.adjacency[x]) for side in sides for x in side):
        return None
    return frozenset(sides[0]), frozenset(sides[1])


def is_perfect_dominating_set(net: Network, centers: frozenset[int] | set[int]) -> bool:
    """True iff ``centers`` is independent and every other node has exactly
    one neighbor in it."""
    centers = set(centers)
    for v in range(net.node_count):
        inside = sum(1 for u in net.adjacency[v] if u in centers)
        if v in centers:
            if inside != 0:
                return False
        elif inside != 1:
            return False
    return True


def domination_number(net: Network) -> int:
    """Exact minimum dominating set size by brute force over subsets in
    increasing size; guarded to ``n <= 24``."""
    n = net.node_count
    if n > 24:
        raise GuardError(f"exact combinatorial optima are guarded to n <= 24, got {n}")
    closed = [sum(1 << u for u in (v, *net.neighbors(v))) for v in range(n)]
    full = (1 << n) - 1
    for size in range(n + 1):
        for subset in combinations(closed, size):
            if reduce(or_, subset, 0) == full:
                return size


def degree_multiset(net: Network) -> tuple[int, ...]:
    return tuple(sorted(net.degree(v) for v in range(net.node_count)))


# ---------------------------------------------------------------------------
# JSON interchange


def graph_to_json(net: Network, meta: dict | None = None) -> dict:
    """Serialize to the interchange dict: ``{"n", "edges", "max_degree", "meta"}``."""
    return {
        "n": net.node_count,
        "edges": [[u, v] for u, v in net.edges()],
        "max_degree": net.max_degree,
        "meta": meta if meta is not None else {},
    }


def graph_from_json(obj: dict) -> Network:
    """Parse and validate the interchange dict; rejects malformed edge lists.

    One walk over ``edges`` checks each entry (a pair of ints ``u < v``, both
    nodes) and appends it to both neighbor lists, so each fault is reported
    at its position in the list. If each entry is greater than the one before
    it, as in every file `graph_to_json` writes, the walk proves what the
    `Network` constructor checks; any other list has its neighbor lists
    sorted and passes the constructor, which rejects a duplicate edge.
    """
    if not isinstance(obj, dict):
        raise ValidationError("graph JSON must be an object")
    for key in ("n", "edges", "max_degree"):
        if key not in obj:
            raise ValidationError(f"graph JSON missing field {key!r}")
    n = obj["n"]
    if type(n) is not int or n < 0:  # JSON booleans load as bool, an int subclass
        raise ValidationError("graph JSON field 'n' must be a nonnegative integer")
    if not isinstance(obj["edges"], list):
        raise ValidationError("graph JSON field 'edges' must be a list of pairs")
    nbrs: list[list[int]] = [[] for _ in range(n)]
    increasing = True
    prev: list = []
    for item in obj["edges"]:
        if not (isinstance(item, list) and len(item) == 2):
            raise ValidationError(f"malformed edge entry {item!r}")
        u, v = item
        if type(u) is not int or type(v) is not int:
            raise ValidationError(f"malformed edge entry {item!r}")
        if not u < v:
            raise ValidationError(f"edge {item} must be listed with u < v")
        if u < 0 or v >= n:
            raise ValidationError(f"edge {u}-{v} out of range for n={n}")
        if not prev < item:
            increasing = False
        prev = item
        nbrs[u].append(v)
        nbrs[v].append(u)
    if not increasing:
        for a in nbrs:
            a.sort()
    net = (Network._proved if increasing else Network)(tuple(map(tuple, nbrs)))
    if type(obj["max_degree"]) is not int or net.max_degree != obj["max_degree"]:
        raise ValidationError(
            f"declared max_degree {obj['max_degree']} != actual {net.max_degree}"
        )
    return net
