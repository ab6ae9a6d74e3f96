"""Replay of best-response rounds on a distance-2 coloring schedule.

Color classes of a distance-2 coloring are independent sets of the square
graph: no two same-color nodes are adjacent or share a neighbor, so a
whole class can play simultaneously and the outcome equals sequential play
of the class in any internal order. One simulated fair round activates the
classes ``1..palette`` in turn and therefore costs ``palette`` rounds of
synchronous message passing; the greedy coloring below keeps the palette
within ``max_degree**2 + 1``.

The replay plays each round as one `BestResponseEngine.sweep` over the
color-major, index-minor order. That equals moving each class at once: a
switch changes the keys of the mover's neighbors only, and no neighbor of
a class member is in its class, so no member's key changes while its class
plays and every member responds to the profile as of the class start.

Two nodes are within distance 2 iff they are adjacent or share a
neighbor, so a coloring is proper iff every closed neighborhood is
rainbow (McCormick 1983). The coloring and its check read closed
neighborhoods straight from the adjacency, as one integer color mask per
node; a truncated BFS per node runs only when the check fails, to name
the clash.

Every switch runs the game kind's switch check (`BestResponseEngine.switch`)
and every round its round check, as in `dynamics.run`.

The coloring itself is computed centrally; reported round counts cover the
schedule phase only and say so in output metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .game import BestResponseEngine, GraphicalGame, Profile, validate_profile
from .network import Network


@dataclass(frozen=True)
class DistanceColoring:
    """Proper distance-2 coloring: any two nodes within graph distance 2
    hold distinct colors from ``1..palette_size``."""

    colors: tuple[int, ...]
    palette_size: int

    def to_json(self) -> dict:
        return {
            "radius": 2,
            "palette": self.palette_size,
            "colors": list(self.colors),
        }


def distance_coloring(net: Network) -> DistanceColoring:
    """Greedy proper distance-2 coloring over ascending node index.

    Each node takes the smallest color unused by its neighbors and by their
    neighbors, so at most ``max_degree**2 + 1`` colors are used. Color ``c``
    is bit ``c`` of an integer mask, and ``held[v]`` holds the colors
    present in ``v``'s closed neighborhood: the colors within distance 2 of
    ``v`` are the union of ``held`` over that neighborhood.
    """
    adjacency = net.adjacency
    colors = [0] * net.node_count
    held = [0] * net.node_count
    for v in range(net.node_count):
        nbrs = adjacency[v]
        taken = held[v] | 1  # bit 0 stands for uncolored, so colors start at 1
        for u in nbrs:
            taken |= held[u]
        bit = ~taken & (taken + 1)  # the lowest clear bit
        colors[v] = bit.bit_length() - 1
        held[v] |= bit
        for u in nbrs:
            held[u] |= bit
    palette = max(colors, default=0)
    return DistanceColoring(colors=tuple(colors), palette_size=max(palette, 1))


def _rainbow(adjacency: tuple[tuple[int, ...], ...], masks: list[int]) -> bool:
    """Whether no closed neighborhood holds one color bit twice."""
    for v, nbrs in enumerate(adjacency):
        seen = masks[v]
        for u in nbrs:
            bit = masks[u]
            if seen & bit:
                return False
            seen |= bit
    return True


def check_coloring(net: Network, coloring: DistanceColoring) -> None:
    """Raise unless the coloring is a proper distance-2 coloring of this
    network.

    The coloring is proper iff every closed neighborhood is rainbow, since
    two nodes are within distance 2 iff they are adjacent or share a
    neighbor. Each distinct color gets one mask bit by its rank among the
    colors used, not bit ``c``, so a caller's color of ``10**9`` costs one
    bit. Only when some closed neighborhood repeats a bit does a truncated
    BFS per node run, to name the first clashing pair ``(v, u)`` and their
    distance.
    """
    colors = coloring.colors
    if len(colors) != net.node_count:
        raise ValidationError("coloring length does not match the network")
    if any(c < 1 or c > coloring.palette_size for c in colors):
        raise ValidationError("colors must lie in 1..palette_size")
    bits = {c: 1 << i for i, c in enumerate(set(colors))}
    if _rainbow(net.adjacency, [bits[c] for c in colors]):
        return
    for v in range(net.node_count):
        for u, d in net.bfs_distances(v, limit=2).items():
            if 0 < d and colors[u] == colors[v]:
                raise ValidationError(
                    f"nodes {v} and {u} at distance {d} share color {colors[v]}"
                )


def simulate_fair_rounds(
    game: GraphicalGame,
    init: Profile,
    coloring: DistanceColoring,
    rounds: int,
) -> tuple[Profile, list[tuple[int, ...]]]:
    """Run ``rounds`` fair rounds with same-color nodes updating together.

    Per round, classes are activated in color order; class members compute
    best responses against the profile as of class start and all update at
    once, played as one engine sweep of the color-major index-minor order.
    Returns the final profile and, per round, that order, whose sequential
    replay produces the same profiles.

    Raises:
        ValidationError: if the coloring is not a proper distance-2
            coloring of the game's network.
        SimulationFault: if a switch or a round breaks a kind invariant.
    """
    net = game.network
    check_coloring(net, coloring)
    validate_profile(game, init)
    if rounds < 0:
        raise ValidationError("rounds must be >= 0")

    order = tuple(sorted(range(net.node_count), key=coloring.colors.__getitem__))
    engine = BestResponseEngine(game, init)
    check_round = game.kind.check_round
    for r in range(1, rounds + 1):
        engine.sweep(order)
        if check_round is not None:
            check_round(game, engine.profile, r)
    return tuple(engine.profile), [order] * rounds
