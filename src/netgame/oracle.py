"""Exhaustive and search-based ground truth.

Everything here recomputes quantities from first principles: equilibria by
a reflected Gray-code walk over every profile on the best-response engine
(one move per profile, integer welfare, one action list for all nodes),
combinatorial optima by subset search, inefficiency by measured runs. Hard
size guards keep the exhaustive paths from silently running for hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .errors import GuardError, ValidationError
from .game import (
    BestResponseEngine,
    GraphicalGame,
    Profile,
    coloring_game,
    format_rational,
    minority_cut_edges,
    pgg_game,
    random_profile,
)
from .dynamics import FreshRandomEachRound, RandomInit, run
from .network import Network, bipartite_double_cover, domination_number, star_matching
from .seeds import derive_seed

ENUMERATION_GUARD = 1 << 21


@dataclass(frozen=True)
class NeReport:
    """Exhaustive pure-equilibrium enumeration summary.

    ``poa`` is best achievable welfare over all profiles divided by the
    worst equilibrium welfare; None when no pure equilibrium exists.
    """

    equilibria: tuple[Profile, ...]
    best_welfare: Fraction
    worst_ne_welfare: Fraction | None
    best_ne_welfare: Fraction | None
    poa: Fraction | None

    def to_json(self, max_listed: int | None = None) -> dict:
        listed = self.equilibria
        elided = False
        if max_listed is not None and len(listed) > max_listed:
            listed = listed[:max_listed]
            elided = True
        return {
            "equilibrium_count": len(self.equilibria),
            "equilibria": [list(p) for p in listed],
            "equilibria_elided": elided,
            "best_welfare": _opt_rational(self.best_welfare),
            "worst_ne_welfare": _opt_rational(self.worst_ne_welfare),
            "best_ne_welfare": _opt_rational(self.best_ne_welfare),
            "poa": _opt_rational(self.poa),
        }


@dataclass(frozen=True)
class InefficiencyReport:
    """Measured round-limited welfare against a certified optimum bound."""

    T: int
    optimum_upper_bound: Fraction
    mean_br_welfare: Fraction
    trials: int
    ratio_upper_bound: Fraction | None
    note: str

    def to_json(self) -> dict:
        return {
            "T": self.T,
            "optimum_upper_bound": _opt_rational(self.optimum_upper_bound),
            "mean_br_welfare": _opt_rational(self.mean_br_welfare),
            "trials": self.trials,
            "ratio_upper_bound": _opt_rational(self.ratio_upper_bound),
            "note": self.note,
        }


def _opt_rational(x: Fraction | None) -> str | None:
    return None if x is None else format_rational(x)


OPT_BOUND_NOTE = (
    "optimum_upper_bound is the global welfare maximum (or a closed-form bound "
    "on it), which upper-bounds anything a round-limited distributed strategy "
    "can produce; ratio_upper_bound is therefore a certified upper bound on the "
    "round-limited inefficiency, not a sharp value"
)


def _profile_space_size(game: GraphicalGame) -> int:
    size = 1
    for acts in game.actions:
        size *= len(acts)
        if size > ENUMERATION_GUARD:
            return size
    return size


def enumerate_ne(game: GraphicalGame) -> NeReport:
    """Scan every profile; report all pure equilibria and welfare extremes.

    One `BestResponseEngine` walks the profiles in loopless reflected
    mixed-radix Gray order (Knuth, TAOCP Vol. 4A, 7.2.1.1, Algorithm H):
    each node's digit keeps a direction and a focus pointer, and every step
    moves exactly one node one action up or down, so the walk makes
    ``size - 1`` moves. A profile is an equilibrium iff the engine's
    ``unsettled`` count is 0; the equilibria are sorted at the end, into
    lexicographic order. Welfare is the engine's integer numerator; stored
    numerators are rescaled whenever a new table entry enlarges the common
    denominator. Like the engine, this needs one action list for all nodes.

    Raises:
        GuardError: if the profile space exceeds ``2**21``.
        ValidationError: if the nodes' action lists differ.
    """
    size = _profile_space_size(game)
    if size > ENUMERATION_GUARD:
        raise GuardError(
            f"profile space {size} exceeds enumeration guard {ENUMERATION_GUARD}"
        )
    n = game.network.node_count
    engine = BestResponseEngine(game, (0,) * n)
    prof, move, den, best = engine.profile, engine.move, engine.den, engine.welfare_num
    top = len(engine.acts) - 1
    digits = n if top > 0 else 0  # a single action never moves
    focus, step = list(range(digits + 1)), [1] * digits
    equilibria: list[Profile] = []
    ne_welfare: list[int] = []  # numerators over den, one per equilibrium
    while True:
        if engine.den != den:
            scale, den = engine.den // den, engine.den
            best *= scale
            ne_welfare[:] = [w * scale for w in ne_welfare]
        best = max(best, engine.welfare_num)
        if not engine.unsettled:
            equilibria.append(tuple(prof))
            ne_welfare.append(engine.welfare_num)
        v = focus[0]
        if v == digits:
            break
        focus[0] = 0
        a = prof[v] + step[v]
        move(v, a)
        if a == 0 or a == top:
            step[v] = -step[v]
            focus[v] = focus[v + 1]
            focus[v + 1] = v + 1
    equilibria.sort()

    best_welfare = Fraction(best, den)
    worst_ne = Fraction(min(ne_welfare), den) if ne_welfare else None
    best_ne = Fraction(max(ne_welfare), den) if ne_welfare else None
    return NeReport(
        equilibria=tuple(equilibria),
        best_welfare=best_welfare,
        worst_ne_welfare=worst_ne,
        best_ne_welfare=best_ne,
        poa=best_welfare / worst_ne if worst_ne else None,
    )


def poa_pgg_instance(d: int, k: int, c: Fraction, seed: int) -> NeReport:
    """Exhaustive equilibrium report for the benchmark production-game
    family: the bipartite double cover of a star-matching graph.

    The enumeration always contains the two structural equilibria: both
    copies of the star centers (a fraction ``1/(d+1)`` producing) and one
    side of the bipartition (a fraction ``1/2`` producing).
    """
    base, centers, _ = star_matching(k, d, seed)
    net = bipartite_double_cover(base)
    game = pgg_game(net, c)
    report = enumerate_ne(game)

    n0 = base.node_count
    center_profile = tuple(
        1 if (v % n0) in centers else 0 for v in range(net.node_count)
    )
    side_profile = tuple(1 if v < n0 else 0 for v in range(net.node_count))
    for name, profile in (("center", center_profile), ("one-side", side_profile)):
        if profile not in report.equilibria:
            raise ValidationError(f"expected {name} equilibrium missing from enumeration")
    return report


def combinatorial_optima(net: Network) -> tuple[int, int, int]:
    """Exact (min dominating set, max independent set, max cut) by brute
    force; guarded to ``n <= 24``."""
    gamma = domination_number(net)
    n = net.node_count
    adj_mask = [sum(1 << u for u in net.neighbors(v)) for v in range(n)]
    closed = [m | 1 << v for v, m in enumerate(adj_mask)]

    def max_independent(remaining: int) -> int:
        if remaining == 0:
            return 0
        v = remaining.bit_length() - 1
        without = max_independent(remaining & ~(1 << v))
        with_v = 1 + max_independent(remaining & ~closed[v])
        return max(without, with_v)

    max_cut = 0
    for mask in range(1 << max(n - 1, 0)):
        cut = 0
        rest = ~mask
        m = mask
        while m:
            v = m & -m
            cut += (adj_mask[v.bit_length() - 1] & rest).bit_count()
            m ^= v
        max_cut = max(max_cut, cut)

    return gamma, max_independent((1 << n) - 1), max_cut


def optimum_welfare_upper_bound(game: GraphicalGame) -> Fraction:
    """Certified upper bound on achievable welfare: exact when the profile
    space is enumerable, else the game kind's closed form."""
    if _profile_space_size(game) <= ENUMERATION_GUARD:
        return enumerate_ne(game).best_welfare
    return game.kind.welfare_bound(game)


def measured_inefficiency(
    game: GraphicalGame, T: int, trials: int, seed: int
) -> InefficiencyReport:
    """Mean welfare after exactly ``T`` fair rounds from uniform random
    initial profiles, against the certified optimum upper bound.

    Trial ``i`` draws its initial profile and its per-round schedules from
    seeds derived as ``(seed, "trial", i)`` and ``(seed, "schedule", i)``,
    so adding rounds keeps the comparison paired.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if T < 0:
        raise ValidationError("T must be >= 0")
    bound = optimum_welfare_upper_bound(game)

    def one_trial(i: int) -> Fraction:
        trace = run(
            game,
            RandomInit(derive_seed(seed, "trial", i)),
            FreshRandomEachRound(derive_seed(seed, "schedule", i)),
            max_rounds=T,
        )
        return trace.welfare_per_round[-1]

    results = [one_trial(i) for i in range(trials)]
    mean = sum(results, Fraction(0)) / trials
    ratio = bound / mean if mean > 0 else None
    return InefficiencyReport(
        T=T,
        optimum_upper_bound=bound,
        mean_br_welfare=mean,
        trials=trials,
        ratio_upper_bound=ratio,
        note=OPT_BOUND_NOTE,
    )


def is_proper_coloring(game: GraphicalGame, profile: Profile) -> bool:
    """True iff no edge is monochromatic under the profile's action values."""
    return minority_cut_edges(game, profile) == game.network.edge_count


def proper_coloring_exists(net: Network, k: int) -> bool:
    """Exact decision by exhaustive backtracking over node order."""
    n = net.node_count
    colors = [0] * n

    def assign(v: int) -> bool:
        if v == n:
            return True
        used = {colors[u] for u in net.neighbors(v) if u < v}
        for c in range(1, k + 1):
            if c not in used:
                colors[v] = c
                if assign(v + 1):
                    return True
        colors[v] = 0
        return False

    return assign(0)


def find_frozen_configuration(
    net: Network, k: int, seed: int, budget: int
) -> Profile | None:
    """Search for an equilibrium of the k-coloring game that is not a
    proper coloring: some node has utility 0 yet every color is blocked.

    Randomized restarts: draw a uniform profile, run best-response sweeps
    to a fixpoint (each switch strictly increases the number of conflict-free
    nodes, so sweeps always terminate), and inspect the fixpoint. Every
    best-response evaluation consumes one unit of ``budget``, charged one
    whole sweep at a time: a sweep that cannot finish within the remaining
    budget is not started. The last sweep, which finds no switch, is charged
    but not run: the engine's ``unsettled`` count of 0 already shows the
    fixpoint. Returns None when the budget runs out.
    """
    if k < 2:
        raise ValidationError("frozen-configuration search needs k >= 2")
    if budget < 0:
        raise ValidationError(f"budget must be >= 0, got {budget}")
    game = coloring_game(net, k)
    engine = BestResponseEngine(game)
    n = net.node_count
    steps = 0
    restart = 0
    while steps < budget:
        rng = Random(derive_seed(seed, "restart", restart))
        restart += 1
        engine.reset(random_profile(game, rng))
        while True:
            if steps + n > budget:
                return None
            steps += n
            if not engine.unsettled:
                break
            order = list(range(n))
            rng.shuffle(order)
            engine.sweep(order)
        if engine.welfare() != n:  # proper iff every node has utility 1
            return tuple(engine.profile)
    return None


def minority_poa_report(game: GraphicalGame) -> dict:
    """Exhaustive anti-coordination report, comparing the enumerated ratio
    with the closed-form candidate ``2*(d+1)`` and flagging a mismatch."""
    if game.kind.cut_edges is None:  # the cut marks the anti-coordination kind
        raise ValidationError("minority_poa_report needs a minority game")
    report = enumerate_ne(game)
    d = game.network.max_degree
    candidate = Fraction(2 * (d + 1))
    return {
        "report": report.to_json(max_listed=0),
        "derived_poa": _opt_rational(report.poa),
        "closed_form_candidate": _opt_rational(candidate),
        "poa_matches_closed_form": report.poa == candidate,
        "note": (
            "derived_poa comes from exhaustive enumeration with welfare summed "
            "per node; the closed-form candidate uses a different counting "
            "convention and the mismatch is reported, not reconciled"
        ),
    }
