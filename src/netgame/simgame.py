"""Derived games whose best responses execute a distributed algorithm.

The construction lifts a base game to a new game on the same agents:

1. The derived network connects two agents iff their distance in the base
   network is at most ``4t + 2``, where ``t`` is the radius of a
   normal-form algorithm ``F`` (a constant-radius rule that consumes a
   proper distance-``(2t+2)`` coloring and emits a base-game action).
2. A non-empty action of agent ``v`` is a coloring of its ``t``-ball with
   pairwise-distinct colors from ``1..palette`` together with the output
   label ``F`` yields on that colored ball. The pairing is enforced at
   construction, so invalid (coloring, label) combinations cannot exist.
3. Utility is 1 iff the agent's ball coloring agrees with every non-empty
   derived-neighbor's coloring on shared nodes and the union is a proper
   distance-``(2t+2)`` coloring; empty actions and clashes score 0.

Action sets are astronomically large (all distinct-color labelings of a
ball), so they are never enumerated: best responses are constructed
greedily, which always succeeds because the palette ``max_degree**(2t+2)+1``
exceeds the number of constraints any single ball node can face.

Everything here is computed from per-node views of radius at most
``4t + 2``: the derived edges, the ball colorings, and the pairwise
utility checks all come from bounded-depth breadth-first traversals. Each
action indexes its coloring by node and by color, so the pairwise utility
check is linear in the ball. The game plays one kind of round, the
opening round: from the all-empty profile, every agent plays its
constructed response once, reading the colorings played so far as one
published node-to-color map. The round is checked once, at its end, by
testing the merged coloring in place of every pair: once every agent has
played, every utility is 1 iff the played colorings agree on shared nodes
and their union is proper at the coloring radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import SimulationFault, ValidationError
from .game import GraphicalGame, Profile
from .network import Network, _ball, power_graph

SimProfile = tuple["SimulationAction | None", ...]


@dataclass(frozen=True)
class BallView:
    """Induced subgraph on the nodes within ``radius`` of ``center``.

    ``order`` lists the ball's nodes by (distance from center, index); the
    adjacency map is restricted to the ball. ``inner`` caches, per
    ``(x, depth)``, the ball's nodes within ``depth`` of ``x`` in that
    subgraph, in BFS order; it is filled on first use by `within`, takes no
    part in equality, and lives and dies with the view. It holds only what
    the ball's own edges determine, never anything read from a coloring.
    """

    center: int
    order: tuple[int, ...]
    adjacency: dict[int, tuple[int, ...]]
    distance: dict[int, int]
    inner: dict[tuple[int, int], tuple[int, ...]] = field(
        default_factory=dict, compare=False, repr=False
    )

    def within(self, x: int, depth: int) -> tuple[int, ...]:
        """The ball's nodes within ``depth`` of ``x`` in the induced subgraph."""
        nodes = self.inner.get((x, depth))
        if nodes is None:
            nodes = self.inner[x, depth] = tuple(_ball(self.adjacency, (x,), depth))
        return nodes

    @classmethod
    def extract(cls, net: Network, center: int, radius: int) -> "BallView":
        dist = net.bfs_distances(center, limit=radius)
        nodes = set(dist)
        order = tuple(sorted(nodes, key=lambda w: (dist[w], w)))
        adj = {
            w: tuple(u for u in net.neighbors(w) if u in nodes) for w in nodes
        }
        return cls(center=center, order=order, adjacency=adj, distance=dist)


@dataclass(frozen=True)
class NormalFormAlgorithm:
    """Constant-radius rule: colored ``t``-ball in, output label out.

    ``decide(view, coloring)`` must be deterministic and emit a value from
    the base game's action alphabet.
    """

    delta: int
    t: int
    palette: int
    decide: Callable[[BallView, dict[int, int]], object]


@dataclass(frozen=True)
class SimulationAction:
    """A ball coloring paired with the algorithm's output on it.

    Built only through `make_action`, which runs the algorithm itself, so
    the pairing invariant holds for every reachable instance. The empty
    action is represented by ``None`` wherever actions may appear.
    """

    assignment: tuple[tuple[int, int], ...]
    output: object


@dataclass(frozen=True)
class SimulationGame:
    """Derived game: base game, derived network, and the algorithm."""

    base: GraphicalGame
    algorithm: NormalFormAlgorithm
    network: Network
    network_prime: Network
    balls: tuple[BallView, ...]
    near_nodes: tuple[frozenset[int], ...]  # per node, the nodes within 2t+2

    @property
    def coloring_radius(self) -> int:
        return 2 * self.algorithm.t + 2


def greedy_mis_normal_form(delta: int) -> NormalFormAlgorithm:
    """A concrete normal-form rule computing a maximal independent set.

    Radius ``t = delta**2 + 1``, palette ``delta**(2t+2) + 1``. The rule
    simulates greedy joining in ascending color order, truncated to radius
    ``t - 1``, for the center and each of its neighbors; the center emits
    "P" iff it joins and no smaller-colored neighbor also joins. Both ends
    of an edge can evaluate each other's truncated run from their own
    balls, so two adjacent centers never both emit "P" regardless of the
    coloring; on graphs small enough that the truncation sees everything
    the output is exactly the global greedy maximal independent set.

    The nodes within ``t - 1`` of ``x`` depend only on the ball's edges, so
    each ball computes them once per ``x`` (`BallView.within`) and every
    coloring of that ball reuses them; only the order of the greedy run
    reads the coloring. A node ``w`` joins iff no neighbor of ``w`` joined
    before it; the joined nodes all lie within ``t - 1`` of ``x``, so
    testing the whole of ``w``'s ball neighbors equals testing those within
    ``t - 1``.
    """
    if delta < 2:
        raise ValidationError("normal-form rule needs max degree >= 2")
    t = delta * delta + 1
    palette = delta ** (2 * t + 2) + 1

    def truncated_join(view: BallView, coloring: dict[int, int], x: int) -> bool:
        adjacency = view.adjacency
        joined: set[int] = set()
        for w in sorted(view.within(x, t - 1), key=coloring.__getitem__):
            if joined.isdisjoint(adjacency[w]):
                joined.add(w)
        return x in joined

    def decide(view: BallView, coloring: dict[int, int]) -> object:
        center = view.center
        if not truncated_join(view, coloring, center):
            return "F"
        for u in view.adjacency[center]:
            if coloring[u] < coloring[center] and truncated_join(view, coloring, u):
                return "F"
        return "P"

    return NormalFormAlgorithm(delta=delta, t=t, palette=palette, decide=decide)


def build_simulation_game(base: GraphicalGame, algorithm: NormalFormAlgorithm) -> SimulationGame:
    """Assemble the derived game for ``base`` from per-node ball views."""
    net = base.network
    if net.max_degree > algorithm.delta:
        raise ValidationError(
            f"degree mismatch: network has max degree {net.max_degree}, "
            f"algorithm handles at most {algorithm.delta}"
        )
    t = algorithm.t
    prime = power_graph(net, 4 * t + 2)
    balls = tuple(BallView.extract(net, v, t) for v in range(net.node_count))
    near = tuple(frozenset(net.bfs_distances(v, limit=2 * t + 2)) for v in range(net.node_count))
    return SimulationGame(
        base=base,
        algorithm=algorithm,
        network=net,
        network_prime=prime,
        balls=balls,
        near_nodes=near,
    )


def make_action(sim: SimulationGame, v: int, coloring: dict[int, int]) -> SimulationAction:
    """Validate a ball coloring and pair it with the algorithm's output."""
    view = sim.balls[v]
    if set(coloring) != set(view.order):
        raise ValidationError("coloring domain must be exactly the node's ball")
    values = list(coloring.values())
    if len(set(values)) != len(values):
        raise ValidationError("ball colors must be pairwise distinct")
    if any(not 1 <= c <= sim.algorithm.palette for c in values):
        raise ValidationError("ball colors must lie in 1..palette")
    output = sim.algorithm.decide(view, coloring)
    return SimulationAction(tuple(sorted(coloring.items())), output)


def empty_profile(sim: SimulationGame) -> SimProfile:
    return (None,) * sim.network.node_count


def simulation_utility(sim: SimulationGame, v: int, profile: SimProfile) -> Fraction:
    """1 if ``v``'s coloring is compatible with every played derived
    neighbor and jointly proper at the coloring radius, else 0."""
    action = profile[v]
    if action is None:
        return Fraction(0)
    for u in sim.network_prime.neighbors(v):
        other = profile[u]
        if other is None:
            continue
        if not _pair_consistent(sim, action, other):
            return Fraction(0)
    return Fraction(1)


def _pair_consistent(sim: SimulationGame, a: SimulationAction, b: SimulationAction) -> bool:
    """True iff ``a`` and ``b`` agree on shared nodes and no two nodes within
    the coloring radius share a color: a node of ``b`` outside ``a`` can only
    clash with the one node of ``a`` holding its color. ``a``'s coloring is
    indexed by node and by color (exact, as ball colors are distinct), so
    the check is linear in the balls."""
    color_of = dict(a.assignment)
    node_of = {c: w for w, c in a.assignment}
    for x, cx in b.assignment:
        cw = color_of.get(x)
        if cw is None:
            w = node_of.get(cx)
            if w is not None and x in sim.near_nodes[w]:
                return False
        elif cw != cx:
            return False
    return True


def constructive_best_response(
    sim: SimulationGame, v: int, published: dict[int, int]
) -> SimulationAction:
    """Build ``v``'s response to the colorings published so far.

    ``published`` is the `merged_coloring` of the played actions other than
    ``v``'s, as `play_simulation_round` keeps it. Only nodes within
    ``3t + 2`` of ``v`` are read, and every agent coloring one of them is a
    derived neighbor of ``v``. Ball nodes already published keep their
    color; the rest are colored in ball order (distance from center, then
    index) with the smallest non-clashing color, searched from 1 at even
    distances from the center and from the palette midpoint at odd
    distances. The parity split keeps color-descent chains in the merged
    coloring short, which lets the bounded-radius decision rule reproduce
    the global greedy outcome; the palette bound guarantees a free color
    always exists either way. The response is not checked here: the
    opening round checks every agent's utility once, at its end.

    Raises:
        SimulationFault: if the palette runs out, which is impossible in a
            round played from the all-empty profile.
    """
    view = sim.balls[v]
    coloring: dict[int, int] = {}
    for w in view.order:
        if w in published:
            coloring[w] = published[w]
            continue
        forbidden = set(coloring.values())
        forbidden.update(published[x] for x in sim.near_nodes[w] if x in published)
        c = 1 if view.distance[w] % 2 == 0 else sim.algorithm.palette // 2
        while c in forbidden:
            c += 1
        if c > sim.algorithm.palette:
            raise SimulationFault(f"palette exhausted while coloring the ball of {v}")
        coloring[w] = c
    return make_action(sim, v, coloring)


def play_simulation_round(sim: SimulationGame, order: tuple[int, ...]) -> SimProfile:
    """The opening round: from the all-empty profile, each agent in
    ``order`` plays its constructed best response to the colorings
    published so far, and its coloring is published.

    Nobody withdraws a coloring, so every response agrees with the
    published map and the map is the `merged_coloring` of the round so
    far. `_check_opening_round` then certifies every agent at utility 1
    from the played actions alone, once, at the end of the round.

    Raises:
        ValidationError: if ``order`` is not a permutation of the agents.
        SimulationFault: if an agent ends the round below utility 1, or a
            palette runs out (`constructive_best_response`).
    """
    if sorted(order) != list(range(sim.network.node_count)):
        raise ValidationError("order must be a permutation of the agents")
    played = list(empty_profile(sim))
    published: dict[int, int] = {}
    for v in order:
        action = played[v] = constructive_best_response(sim, v, published)
        published.update(action.assignment)
    profile = tuple(played)
    _check_opening_round(sim, profile)
    return profile


def _check_opening_round(sim: SimulationGame, profile: SimProfile) -> None:
    """Raise unless every agent of ``profile`` is at utility 1.

    Once every agent has played, that holds iff the played colorings form
    one map and no two nodes within the coloring radius share a color in
    it: two owners of a node lie within ``2t`` of each other, and the
    centers of two nodes within ``2t + 2`` lie within ``4t + 2``, so both
    are derived pairs; and a pair check fails only on one of these two
    faults. Only when the map test fails does the per-agent utility scan
    run, to name the first agent below utility 1.
    """
    if not _forms_proper_map(sim, profile):
        for v in range(sim.network.node_count):
            if simulation_utility(sim, v, profile) != 1:
                raise SimulationFault(f"agent {v} finished the opening round below utility 1")


def _forms_proper_map(sim: SimulationGame, profile: SimProfile) -> bool:
    """True iff every agent played and the played colorings form one map
    that is proper at the coloring radius."""
    if any(action is None for action in profile):
        return False
    try:
        merged = merged_coloring(sim, profile)
    except SimulationFault:  # two played colorings disagree on a node
        return False
    # Every node is its own ball's center, so every node is in ``merged``.
    near = sim.near_nodes
    for x, c in merged.items():
        for y in near[x]:
            if merged[y] == c and y != x:
                return False
    return True


def project(sim: SimulationGame, profile: SimProfile) -> Profile:
    """Map each agent's output label to the base game's action index."""
    base = sim.base
    out = []
    for v, action in enumerate(profile):
        if action is None:
            raise ValidationError(f"cannot project: agent {v} plays the empty action")
        out.append(base.action_index(v, action.output))
    return tuple(out)


def merged_coloring(sim: SimulationGame, profile: SimProfile) -> dict[int, int]:
    """Union of all played ball colorings; raises if owners disagree."""
    merged: dict[int, int] = {}
    for v, action in enumerate(profile):
        if action is None:
            continue
        for x, cx in action.assignment:
            if merged.setdefault(x, cx) != cx:
                raise SimulationFault(f"played colorings disagree on node {x}")
    return merged


def simulation_report(sim: SimulationGame, projection_is_ne: bool) -> dict:
    """Report of played rounds; each converged in one round, since
    `play_simulation_round` raises otherwise."""
    return {
        "t": sim.algorithm.t,
        "palette": sim.algorithm.palette,
        "n_prime_degree": sim.network_prime.max_degree,
        "one_round_converged": True,
        "projection_is_ne": projection_is_ne,
        "round_accounting_note": (
            "reported round counts cover the schedule phase only; the "
            "coloring phase is excluded"
        ),
    }
