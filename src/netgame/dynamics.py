"""Fair-round best-response dynamics.

A fair round schedules every node to act exactly once, one at a time. A
node keeps its current action whenever it is among the best responses;
otherwise it takes the first maximizer in the fixed action order. With
this tie rule a round with zero switches is exactly a Nash equilibrium,
which is how convergence is detected.

The engine also enforces each game kind's run-time invariants (see
`game.GameKind`): every switch in the anti-coordination game must raise
the cut-edge count, and in the public-goods game the producer set must be
independent after round 1 and a maximal independent set from round 2 on.

`run` checks that a round order schedules every node exactly once where
the caller supplies it: a `FixedOrder` once, when round 1 starts, and each
`ExplicitOrders` entry when its round is reached. A `FreshRandomEachRound`
order is a shuffle of ``range(n)``, a permutation by construction, and is
not checked.

A single run is strictly sequential (the model is sequential play);
distinct runs share no mutable state and may execute in parallel.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, log2
from random import Random

from .errors import SimulationFault, ValidationError
from .game import BestResponseEngine, GraphicalGame, Profile, random_profile, validate_profile
from .seeds import derive_seed, shuffle


@dataclass(frozen=True)
class FixedOrder:
    """Same permutation every round."""

    order: tuple[int, ...]


@dataclass(frozen=True)
class FreshRandomEachRound:
    """A fresh uniformly random permutation per round, derived from seed."""

    seed: int


@dataclass(frozen=True)
class ExplicitOrders:
    """A caller-supplied list of permutations, one per round."""

    orders: tuple[tuple[int, ...], ...]


SchedulePolicy = FixedOrder | FreshRandomEachRound | ExplicitOrders


@dataclass(frozen=True)
class RandomInit:
    """Uniform independent initial action per node, derived from seed."""

    seed: int


@dataclass(frozen=True)
class Trace:
    """Record of one run of fair rounds.

    ``welfare_per_round`` has ``rounds_executed + 1`` entries (the first is
    the initial profile's welfare). ``convergence_round`` is the index of
    the last round that contained a switch, or 0 if the initial profile was
    already an equilibrium; it is None when the run hit ``max_rounds``
    without a zero-switch round.
    """

    rounds_executed: int
    converged: bool
    convergence_round: int | None
    welfare_per_round: tuple[Fraction, ...]
    switches_per_round: tuple[int, ...]
    cut_edges_per_round: tuple[int, ...] | None
    final: Profile


class Exceeded:
    """Distinguished result of `worst_case_convergence` when some order
    sequence fails to reach a zero-switch round within the budget."""

    def __repr__(self) -> str:  # pragma: no cover
        return "Exceeded"


EXCEEDED = Exceeded()


def _validate_order(net_size: int, order: tuple[int, ...]) -> None:
    if sorted(order) != list(range(net_size)):
        raise ValidationError("order must be a permutation scheduling every node exactly once")


def preferred_best_response(game: GraphicalGame, profile: Profile, v: int) -> int:
    """Best-response index for ``v``: the current action if it is among the
    maximizers, else the first maximizer in tie-break order."""
    return step(game, profile, v)[v]


def step(game: GraphicalGame, profile: Profile, v: int) -> Profile:
    """One node plays: ``profile`` with ``v``'s entry best-responded by a
    one-node engine sweep, which runs the kind's switch check."""
    validate_profile(game, profile)
    engine = BestResponseEngine(game, profile)
    engine.sweep((v,))
    return tuple(engine.profile)


def fair_round(game: GraphicalGame, profile: Profile, order: tuple[int, ...]) -> Profile:
    """Sequential composition of `step` in the given order."""
    validate_profile(game, profile)
    _validate_order(game.network.node_count, order)
    engine = BestResponseEngine(game, profile)
    engine.sweep(order)
    return tuple(engine.profile)


def default_max_rounds(n: int) -> int:
    return 10 * ceil(log2(n + 1)) + 10


def run(
    game: GraphicalGame,
    init: Profile | RandomInit,
    policy: SchedulePolicy,
    max_rounds: int | None = None,
) -> Trace:
    """Execute fair rounds until a zero-switch round or ``max_rounds``.

    Deterministic given the initial profile (or its seed) and the policy's
    seeds: identical inputs reproduce identical traces.

    Raises:
        SimulationFault: if a switch or a round breaks a kind invariant, or
            the cut column read from the welfare is fractional or ends
            away from the kind's own cut count.
    """
    n = game.network.node_count
    if isinstance(init, RandomInit):
        profile = random_profile(game, Random(derive_seed(init.seed, "init")))
    else:
        validate_profile(game, init)
        profile = tuple(init)
    if max_rounds is None:
        max_rounds = default_max_rounds(n)
    if max_rounds < 0:
        raise ValidationError("max_rounds must be >= 0")

    kind = game.kind
    engine = BestResponseEngine(game, profile)
    profile = engine.profile  # the engine updates it in place
    welfares = [engine.welfare()]
    switch_counts: list[int] = []

    converged = False
    convergence_round: int | None = None
    rounds_executed = 0
    for round_index in range(1, max_rounds + 1):
        order = _round_order(policy, round_index, n)
        switches = engine.sweep(order)
        rounds_executed = round_index
        welfares.append(engine.welfare())
        switch_counts.append(switches)
        if kind.check_round is not None:
            kind.check_round(game, profile, round_index)
        if switches == 0:
            # A zero-switch round means the entering profile was already an
            # equilibrium, so every earlier round contained a switch.
            converged = True
            convergence_round = round_index - 1
            break

    return Trace(
        rounds_executed=rounds_executed,
        converged=converged,
        convergence_round=convergence_round,
        welfare_per_round=tuple(welfares),
        switches_per_round=tuple(switch_counts),
        cut_edges_per_round=_cuts_from_welfare(game, welfares, profile),
        final=tuple(profile),
    )


def _cuts_from_welfare(
    game: GraphicalGame, welfares: list[Fraction], final: Profile
) -> tuple[int, ...] | None:
    """The cut column of a kind with one (the anti-coordination game), read
    from the welfare per round: there ``u_v = 1 - deg(v) + 2 * differ(v)``,
    so ``W = n - 2m + 4 * cut``. The final cut is checked against the
    kind's own count."""
    if game.kind.cut_edges is None:
        return None
    net = game.network
    offset = net.node_count - 2 * net.edge_count
    cuts = []
    for r, w in enumerate(welfares):
        cut = (w - offset) / 4
        if cut.denominator != 1:
            raise SimulationFault(f"welfare {w} after round {r} gives a fractional cut {cut}")
        cuts.append(cut.numerator)
    counted = game.kind.cut_edges(game, final)
    if counted != cuts[-1]:
        raise SimulationFault(
            f"cut after round {len(cuts) - 1} read from welfare is {cuts[-1]}, counted {counted}"
        )
    return tuple(cuts)


def _round_order(policy: SchedulePolicy, round_index: int, n: int) -> tuple[int, ...]:
    """The order of round ``round_index``; a supplied order is checked the
    first time a round uses it (see the module docstring)."""
    if isinstance(policy, FixedOrder):
        if round_index == 1:
            _validate_order(n, policy.order)
        return tuple(policy.order)
    if isinstance(policy, FreshRandomEachRound):
        rng = Random(derive_seed(policy.seed, "round", round_index))
        order = list(range(n))
        shuffle(rng, order)
        return tuple(order)
    if isinstance(policy, ExplicitOrders):
        if round_index > len(policy.orders):
            raise ValidationError(
                f"explicit schedule has {len(policy.orders)} rounds, needed round {round_index}"
            )
        order = tuple(policy.orders[round_index - 1])
        _validate_order(n, order)
        return order
    raise ValidationError(f"unknown schedule policy {policy!r}")


def worst_case_convergence(
    game: GraphicalGame, init: Profile, round_budget: int
) -> int | Exceeded:
    """Maximum convergence round over all order sequences of length
    ``round_budget``, or EXCEEDED if some sequence has no zero-switch round
    within the budget.

    Guarded to ``node_count <= 6`` and ``round_budget <= 3``. The search is
    memoized over (profile, rounds left); because a fair round is a
    deterministic function of the profile and its permutation, this is
    equivalent to enumerating all ``(n!)^round_budget`` sequences.
    """
    n = game.network.node_count
    if n > 6 or round_budget > 3:
        raise ValidationError("worst_case_convergence is guarded to n <= 6, budget <= 3")
    if round_budget < 1:
        raise ValidationError("round_budget must be >= 1")
    validate_profile(game, init)

    perms = list(itertools.permutations(range(n)))
    engine = BestResponseEngine(game)
    memo: dict[tuple[Profile, int], int | Exceeded] = {}

    def worst(profile: Profile, rounds_left: int) -> int | Exceeded:
        key = (profile, rounds_left)
        if key in memo:
            return memo[key]
        engine.reset(profile)
        if engine.sweep(range(n)) == 0:  # a zero-switch round: an equilibrium
            result: int | Exceeded = 0
        elif rounds_left <= 1:
            # The single remaining round must contain a switch, so no
            # zero-switch round fits in the budget.
            result = EXCEEDED
        else:
            worst_tail = 0
            for order in perms:
                engine.reset(profile)
                engine.sweep(order)
                tail = worst(tuple(engine.profile), rounds_left - 1)
                if isinstance(tail, Exceeded):
                    worst_tail = EXCEEDED
                    break
                worst_tail = max(worst_tail, tail)
            result = EXCEEDED if isinstance(worst_tail, Exceeded) else 1 + worst_tail
        memo[key] = result
        return result

    return worst(tuple(init), round_budget)


# ---------------------------------------------------------------------------
# Interchange formats


def trace_to_csv(trace: Trace) -> str:
    """Trajectory CSV, one row per round; row 0 is the initial profile."""
    out = io.StringIO()
    has_cuts = trace.cut_edges_per_round is not None
    header = "round,welfare_num,welfare_den,switches"
    if has_cuts:
        header += ",cut_edges"
    out.write(header + "\n")
    for r, w in enumerate(trace.welfare_per_round):
        switches = 0 if r == 0 else trace.switches_per_round[r - 1]
        row = f"{r},{w.numerator},{w.denominator},{switches}"
        if has_cuts:
            row += f",{trace.cut_edges_per_round[r]}"
        out.write(row + "\n")
    return out.getvalue()


def profile_to_json(profile: Profile) -> dict:
    return {"profile": list(profile)}


def profile_from_json(obj: dict) -> Profile:
    """The profile of ``{"profile": [...]}``, checked for shape only: its entries
    meet `validate_profile` where the profile is used."""
    if not isinstance(obj, dict) or not isinstance(obj.get("profile"), list):
        raise ValidationError("profile JSON must be an object with a 'profile' list")
    return tuple(obj["profile"])
