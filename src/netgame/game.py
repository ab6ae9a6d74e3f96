"""Games on networks: per-node action lists and local utility evaluators.

A profile assigns each node an index into its action list; the list order
is the fixed tie-breaking order. Utilities are exact, `Fraction` at the API
and integers over one common denominator inside `BestResponseEngine`, so
ties are detected exactly. Games are immutable after construction and
utility evaluation is pure, so instances are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from random import Random
from typing import Callable, Iterable

from .errors import SimulationFault, ValidationError
from .network import Network, domination_number
from .seeds import randbelow_each

Action = object  # an action value, e.g. "P", -1, or a color number
Profile = tuple[int, ...]  # one action index per node

UtilityFn = Callable[[int, Action, tuple[Action, ...]], Fraction]


@dataclass(frozen=True, eq=False)
class GameKind:
    """A built-in game kind as data: parameter types (see `typed_field`), builder,
    closed-form welfare upper bound, and run-time invariants: ``check_switch(game,
    profile, v)`` after each switch, ``check_round(game, profile, round)`` after
    each round, and, for the anti-coordination kind, ``cut_edges(game, profile)``:
    `dynamics.run` reads its per-round cut column from the welfare and checks
    the final profile's cut against this count."""

    name: str
    param_types: dict
    build: Callable[[Network, dict], GraphicalGame]
    welfare_bound: Callable[[GraphicalGame], Fraction]
    check_switch: Callable | None = None
    check_round: Callable | None = None
    cut_edges: Callable | None = None


@dataclass(frozen=True)
class GraphicalGame:
    """A network together with per-node actions and a local utility.

    ``utility_fn(v, own_value, neighbor_values)`` sees only the closed
    neighborhood: the node, its own action value, and the action values of
    its neighbors in adjacency order. Locality is therefore enforced by
    the interface shape. It must also be anonymous, depending on neither
    ``v`` nor the neighbor order, only on how many neighbors play each
    action: `BestResponseEngine` shares payoffs among such nodes. ``kind``
    is the built-in kind and ``params`` its exact parameters (``c`` for
    pgg, ``k`` for coloring).
    """

    network: Network
    actions: tuple[tuple[Action, ...], ...]
    utility_fn: UtilityFn
    kind: GameKind
    params: dict = field(hash=False)

    @property
    def name(self) -> str:
        return self.kind.name

    def action_index(self, v: int, value: Action) -> int:
        return self.actions[v].index(value)


def validate_profile(game: GraphicalGame, profile: Profile) -> None:
    if len(profile) != game.network.node_count:
        raise ValidationError(
            f"profile has {len(profile)} entries for {game.network.node_count} nodes"
        )
    for v, idx in enumerate(profile):
        if type(idx) is not int or not 0 <= idx < len(game.actions[v]):
            raise ValidationError(f"profile entry {idx!r} invalid for node {v}")


def random_profile(game: GraphicalGame, rng: Random) -> Profile:
    """Uniform independent draw per node over that node's action list."""
    return tuple(randbelow_each(rng, map(len, game.actions)))


def neighbor_values(game: GraphicalGame, v: int, profile: Profile) -> tuple[Action, ...]:
    return tuple(game.actions[u][profile[u]] for u in game.network.neighbors(v))


def utility(game: GraphicalGame, v: int, profile: Profile) -> Fraction:
    """Exact utility of node ``v`` under ``profile``."""
    validate_profile(game, profile)
    own = game.actions[v][profile[v]]
    return game.utility_fn(v, own, neighbor_values(game, v, profile))


def welfare(game: GraphicalGame, profile: Profile) -> Fraction:
    """Total welfare: the sum of all node utilities."""
    validate_profile(game, profile)
    total = Fraction(0)
    for v in range(game.network.node_count):
        own = game.actions[v][profile[v]]
        total += game.utility_fn(v, own, neighbor_values(game, v, profile))
    return total


def best_response_payoffs(
    game: GraphicalGame, v: int, nbr_vals: tuple[Action, ...]
) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """``v``'s payoff for each of its action indices against the neighbor
    action values ``nbr_vals``, and the maximizing indices in tie-break
    (list) order: the definition that `BestResponseEngine` memoises."""
    payoffs = tuple([game.utility_fn(v, a, nbr_vals) for a in game.actions[v]])
    top = max(payoffs)
    return payoffs, tuple([i for i, p in enumerate(payoffs) if p == top])


class BestResponseEngine:
    """Best-response dynamics on one mutable profile, in exact integers.

    A node's payoffs depend only on its neighbor-count vector (see
    `GraphicalGame`), packed into one integer ``key`` in radix
    ``max_degree + 1``. ``table`` memoises per key, filled on first use from
    `best_response_payoffs`, the payoff numerators over the common
    denominator ``den`` (rescaled by the lcm when needed, never rounded) and
    per own action the preferred response. All nodes share one action list.
    `reset` and `move` keep ``key``, ``pay`` and ``welfare_num`` current.
    Best-response switches go through `switch`,
    which runs the kind's ``check_switch``; `move` alone is unchecked.
    `enumerate_ne` uses no profile: it fills ``table`` by `entry` and
    searches on it.
    """

    def __init__(self, game: GraphicalGame, profile: Profile | None = None) -> None:
        acts = game.actions[0] if game.actions else ()
        if any(a != acts for a in game.actions):
            raise ValidationError("the best-response engine needs one action list for all nodes")
        self.game, self.acts, self.nbrs = game, acts, game.network.adjacency
        self.check_switch = game.kind.check_switch
        self.radix = game.network.max_degree + 1
        self.weight = [self.radix**a for a in range(len(acts))]
        self.table: dict[int, tuple[list[int], tuple[int, ...]]] = {}
        self.den, self.pay, self.welfare_num = 1, [], 0
        if profile is not None:
            self.reset(profile)

    def reset(self, profile: Profile) -> None:
        """Start over from ``profile`` (unvalidated), keeping the table."""
        self.profile = prof = list(profile)
        table = self.table
        self.key = key = self.keys(prof)
        self.pay = pay = [0] * len(prof)
        for v, a in enumerate(prof):
            pay[v] = (table.get(key[v]) or self.entry(v, key[v]))[0][a]
        self.welfare_num = sum(pay)

    def key_of(self, labels) -> int:
        """The key of a neighborhood playing the action indices ``labels``."""
        return sum(self.weight[a] for a in labels)

    def keys(self, profile) -> list[int]:
        """Every node's key under ``profile``."""
        weight = self.weight
        weights = [weight[a] for a in profile]
        return [sum(map(weights.__getitem__, nbrs)) for nbrs in self.nbrs]

    def entry(self, v: int, key: int) -> tuple[list[int], tuple[int, ...]]:
        """``(payoff numerators, preferred response per own action)`` at ``key``."""
        if key in self.table:
            return self.table[key]
        vals, rest = (), key
        for x in self.acts:
            rest, count = divmod(rest, self.radix)
            vals += (x,) * count
        payoffs, best = best_response_payoffs(self.game, v, vals)
        den = lcm(self.den, *(p.denominator for p in payoffs))
        if den != self.den:
            scale, self.den = den // self.den, den
            for pays, _ in self.table.values():
                pays[:] = [p * scale for p in pays]
            self.pay[:] = [p * scale for p in self.pay]
            self.welfare_num *= scale
        pays = [p.numerator * (den // p.denominator) for p in payoffs]
        top = set(best)  # a tuple of k maximizers would cost O(k) per action
        pref = tuple([a if a in top else best[0] for a in range(len(payoffs))])
        self.table[key] = (pays, pref)
        return pays, pref

    def sweep(self, order: Iterable[int]) -> int:
        """Each node of ``order`` takes its preferred response by `switch`; counts switches."""
        prof, key, table, switch = self.profile, self.key, self.table, self.switch
        switches = 0
        for v in order:
            a = prof[v]
            b = (table.get(key[v]) or self.entry(v, key[v]))[1][a]
            if b != a:
                switch(v, b)
                switches += 1
        return switches

    def switch(self, v: int, b: int) -> None:
        """`move` ``v`` to ``b``, then ``check_switch(game, profile, v)``."""
        self.move(v, b)
        if self.check_switch is not None:
            self.check_switch(self.game, self.profile, v)

    def move(self, v: int, b: int) -> None:
        """Set ``v``'s action to ``b``, updating keys, payoffs and welfare."""
        prof, key, pay, table = self.profile, self.key, self.pay, self.table
        nbrs = self.nbrs[v]
        d = self.weight[b] - self.weight[prof[v]]
        prof[v] = b
        for u in nbrs:
            key[u] += d
        for u in (v, *nbrs):
            # `entry` may rescale ``welfare_num`` and ``pay``: write both per node.
            new = (table.get(key[u]) or self.entry(u, key[u]))[0][prof[u]]
            self.welfare_num += new - pay[u]
            pay[u] = new

    def welfare(self) -> Fraction:
        return Fraction(self.welfare_num, self.den)


def best_responses(game: GraphicalGame, v: int, profile: Profile) -> tuple[int, ...]:
    """All action indices of ``v`` maximizing its utility given the
    neighbors' entries of ``profile``, in tie-break (list) order."""
    return best_response_payoffs(game, v, neighbor_values(game, v, profile))[1]


def is_nash_equilibrium(game: GraphicalGame, profile: Profile) -> bool:
    """Definitional check: no node can gain by a unilateral deviation.

    Independent of `best_response_payoffs`; tests use it as the reference."""
    for v in range(game.network.node_count):
        nbr_vals = neighbor_values(game, v, profile)
        current = game.utility_fn(v, game.actions[v][profile[v]], nbr_vals)
        for a in game.actions[v]:
            if game.utility_fn(v, a, nbr_vals) > current:
                return False
    return True


# ---------------------------------------------------------------------------
# The three built-in games


def pgg_game(net: Network, c: Fraction) -> GraphicalGame:
    """Best-shot public goods game with production cost ``c``.

    Actions are ``(F, P)`` in that tie-break order. Producing yields
    ``1 - c``; free-riding next to a producer yields 1; an uncovered
    non-producer gets 0. ``c`` must lie strictly between 0 and 1, else the
    best-response structure degenerates.
    """
    c = Fraction(c)
    if not 0 < c < 1:
        raise ValidationError(f"production cost must satisfy 0 < c < 1, got {c}")
    produce, covered, uncovered = Fraction(1) - c, Fraction(1), Fraction(0)

    def u(v: int, own: Action, nbrs: tuple[Action, ...]) -> Fraction:
        if own == "P":
            return produce
        return covered if "P" in nbrs else uncovered

    actions = tuple(("F", "P") for _ in range(net.node_count))
    return GraphicalGame(net, actions, u, GAME_KINDS["pgg"], {"c": c})


def minority_game(net: Network) -> GraphicalGame:
    """Anti-coordination game with actions ``(-1, +1)``.

    Utility is one plus the number of neighbors playing the opposite
    action minus the number playing the same action, counted over the open
    neighborhood (the node itself is excluded).
    """

    def u(v: int, own: Action, nbrs: tuple[Action, ...]) -> Fraction:
        differ = sum(1 for x in nbrs if x != own)
        same = len(nbrs) - differ
        return Fraction(1 + differ - same)

    actions = tuple((-1, 1) for _ in range(net.node_count))
    return GraphicalGame(net, actions, u, GAME_KINDS["minority"], {})


def coloring_game(net: Network, k: int) -> GraphicalGame:
    """Coordination game on ``k >= 2`` colors: utility 1 iff no neighbor
    picks the same color."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise ValidationError(f"coloring game needs an integer k >= 2, got {k!r}")

    def u(v: int, own: Action, nbrs: tuple[Action, ...]) -> Fraction:
        return Fraction(0) if own in nbrs else Fraction(1)

    actions = (tuple(range(1, k + 1)),) * net.node_count  # one tuple, shared
    return GraphicalGame(net, actions, u, GAME_KINDS["coloring"], {"k": k})


def _pgg_welfare_bound(game: GraphicalGame) -> Fraction:
    # welfare = n - c * |producers| for fully covered profiles, and any
    # producer set must dominate, so gamma >= n/(max_degree+1).
    net, n = game.network, game.network.node_count
    if n <= 24:
        gamma = domination_number(net)
    else:
        gamma = -((-n) // (net.max_degree + 1))
    return Fraction(n) - game.params["c"] * gamma


def _check_producer_round(game: GraphicalGame, profile: Profile, r: int) -> None:
    """Best-shot public goods: the producers are independent after round 1
    and a maximal independent set from round 2 on."""
    net = game.network
    producers = {v for v in range(net.node_count) if game.actions[v][profile[v]] == "P"}
    for v in sorted(producers):
        clash = producers.intersection(net.neighbors(v))
        if clash:
            raise SimulationFault(
                f"producer set not independent after round {r}: nodes {v} and {min(clash)} produce"
            )
    for v in range(net.node_count) if r >= 2 else ():
        if v not in producers and producers.isdisjoint(net.neighbors(v)):
            raise SimulationFault(f"producer set not maximal after round {r}: node {v} is uncovered")


def _check_cut_switch(game: GraphicalGame, profile: Profile, v: int) -> None:
    """Anti-coordination: the cut is a potential, so a switch by ``v`` must add
    to it; with two actions, iff ``v`` now differs from most of its neighbors."""
    actions, nbrs = game.actions, game.network.neighbors(v)
    own = actions[v][profile[v]]
    if 2 * sum(1 for u in nbrs if actions[u][profile[u]] != own) <= len(nbrs):
        raise SimulationFault(f"anti-coordination switch of node {v} failed to add a cut edge")


def minority_cut_edges(game: GraphicalGame, profile: Profile) -> int:
    """Number of edges whose endpoints play different actions."""
    acts = game.actions
    return sum(1 for u, v in game.network.edges() if acts[u][profile[u]] != acts[v][profile[v]])


# Built-in game kinds by name. Builders and `minority_cut_edges` are looked
# up when called, so module wrappers apply.
GAME_KINDS = {
    kind.name: kind
    for kind in (
        GameKind("pgg", {"c": Fraction}, lambda net, p: pgg_game(net, p["c"]),
                 _pgg_welfare_bound, check_round=_check_producer_round),
        GameKind("minority", {}, lambda net, p: minority_game(net),
                 lambda g: Fraction((g.network.max_degree + 1) * g.network.node_count),
                 check_switch=_check_cut_switch, cut_edges=lambda g, p: minority_cut_edges(g, p)),
        GameKind("coloring", {"k": int}, lambda net, p: coloring_game(net, p["k"]),
                 lambda g: Fraction(g.network.node_count)),
    )
}


def game_from_descriptor(desc: dict, net: Network, prefix: str = "/") -> GraphicalGame:
    """Build a game from the JSON descriptor ``{"game", "c"?, "k"?}``; a null
    value is the same as leaving the key out. Errors name a field as
    ``prefix + key`` (see `typed_field`)."""
    if not isinstance(desc, dict):
        raise ValidationError("game descriptor must be an object")
    desc = {key: value for key, value in desc.items() if value is not None}
    kind = GAME_KINDS[typed_field(desc, "game", tuple(GAME_KINDS), prefix)]
    for key in desc:
        if key != "game" and key not in kind.param_types:
            raise ValidationError(f"{prefix}{key} is not a {kind.name} parameter")
    params = {key: typed_field(desc, key, t, prefix) for key, t in kind.param_types.items()}
    return kind.build(net, params)


_REQUIRED = object()


def typed_field(section: dict, key: str, kind, prefix: str, default=_REQUIRED):
    """``section[key]`` checked against ``kind``: ``int`` (never a bool), ``str``,
    ``Fraction`` (``"p/q"`` text or an integer, returned parsed) or a tuple of
    allowed values; absent or null gives ``default`` if one is given. Errors
    name the field ``prefix + key``, a JSON pointer (``/game/k``) or flag (``--k``)."""
    value = section.get(key)
    if value is None and default is not _REQUIRED:
        return default
    if isinstance(kind, tuple):
        ok, expected = value in kind, "one of " + ", ".join(map(repr, kind))
    elif kind is Fraction:
        try:
            return parse_rational(value)
        except ValidationError:
            ok, expected = False, "a rational 'p/q'"
    else:
        ok = isinstance(value, kind) and not isinstance(value, bool)
        expected = "an integer" if kind is int else "a string"
    if not ok:
        got = "nothing" if value is None else repr(value)
        raise ValidationError(f"{prefix}{key} must be {expected}, got {got}")
    return value


def parse_rational(text) -> Fraction:
    """Parse exact ``"p/q"`` (or integer) text into a Fraction."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValidationError(f"rational must be 'p/q' text, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"malformed rational {text!r}") from exc


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
