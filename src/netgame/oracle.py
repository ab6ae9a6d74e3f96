"""Exhaustive and search-based ground truth.

Everything here recomputes quantities from first principles: equilibria and
the welfare optimum by exact search over the profiles on the best-response
engine's payoff table (backtracking and branch and bound, integer welfare,
one action list for all nodes), combinatorial optima by subset search,
inefficiency by measured runs. Hard size guards keep the exhaustive paths
from silently running for hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
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
from .seeds import derive_seed, shuffle

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
    """Report every pure equilibrium and the welfare extremes, by exact search.

    A node's payoff reads only its closed neighborhood, so the equilibria are
    the solutions of a constraint problem on the graph and the welfare
    optimum a maximization over it (Gottlob, Greco and Scarcello, JAIR 2005):
    `_search` finds the first by backtracking and the second by branch and
    bound, on the payoff table of a `BestResponseEngine`. The game is
    succinct, so a partly assigned neighborhood already caps what a node can
    earn: the bound sums those caps, never less than any completion's
    welfare, and the optimum stays exact. The equilibria are
    sorted at the end, into lexicographic order. Like the engine, this needs
    one action list for all nodes.

    Raises:
        GuardError: if the profile space exceeds ``2**21``.
        ValidationError: if the nodes' action lists differ.
    """
    size = _profile_space_size(game)
    if size > ENUMERATION_GUARD:
        raise GuardError(
            f"profile space {size} exceeds enumeration guard {ENUMERATION_GUARD}"
        )
    engine = BestResponseEngine(game)
    equilibria, ne_welfare, best = _search(engine)
    equilibria.sort()

    den = engine.den
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


def _search(engine: BestResponseEngine) -> tuple[list[Profile], list[int], int]:
    """The equilibria of the engine's game with their welfare numerators over
    ``engine.den``, and the largest welfare numerator of any profile.

    The table is first filled for every neighbor-count key of every degree
    present, so ``den`` is final. One depth-first walk then assigns the nodes
    in `_cuthill_mckee` order, keeps each node's partial key, and reads a
    node's row as soon as its closed neighborhood is assigned; a None entry
    ends the branch. It runs twice. The first run reads ``settled``, whose
    entries are None off the preferred response: it backtracks over the
    equilibria and collects each. The second reads ``pays`` from the best
    equilibrium welfare (else the all-zero profile's) and raises ``best`` at
    each profile it completes: branch and bound for the optimum. It ends a
    branch whose bound, the payoffs of the finished nodes plus the `_caps`
    of the unfinished ones at their partial keys, cannot exceed ``best``.
    No completion of a branch pays an unfinished node more than its cap, and
    the caps are integers over the final ``den``, so the bound never ends a
    branch that holds a better profile, and ``best`` is exact. A step
    changes the partial keys of the stepped node's closed neighborhood only,
    so the sum of caps is updated over that neighborhood. The caps are built
    only when the second run starts, and only it keeps their sum: the first
    run needs no bound.
    """
    nbrs, weight, table = engine.nbrs, engine.weight, engine.table
    k, n = len(engine.acts), len(nbrs)
    degrees = {len(nb): v for v, nb in enumerate(nbrs)}  # a node of each degree
    keys = {d: [engine.key_of(labels) for labels in combinations_with_replacement(range(k), d)]
            for d in degrees}  # the all-zero key first
    for d, v in degrees.items():
        for key in keys[d]:
            engine.entry(v, key)
    pays = {key: p for key, (p, _) in table.items()}
    zero = sum(pays[keys[len(nb)][0]][0] for nb in nbrs)  # the all-zero profile's welfare
    if k < 2:  # that profile is the only one: no recursion, however many nodes
        return [(0,) * n], [zero], zero
    # settled[key][a] is pays[key][a] if a is the preferred response at key, else None.
    settled = {key: [x if pref[a] == a else None for a, x in enumerate(p)]
               for key, (p, pref) in table.items()}
    order = _cuthill_mckee(nbrs)
    pos = {v: i for i, v in enumerate(order)}
    finished: list[list[int]] = [[] for _ in order]  # by the step that completes them
    for v, nb in enumerate(nbrs):
        finished[max([pos[v], *(pos[u] for u in nb)])].append(v)
    steps = []
    for v, fin in zip(order, finished):
        closed = (v, *nbrs[v])  # a step finishes nodes of these only
        steps.append((v, nbrs[v], fin, closed, [x for x in closed if x not in fin]))
    # prof: k until assigned, which reads a cap row's entry for any action;
    # partial: the neighbor-count keys so far.
    prof, partial = [k] * n, [0] * n
    caps: list[dict[int, list[int]]] = []  # per node; filled when the branch and bound starts
    equilibria: list[Profile] = []
    ne_welfare: list[int] = []

    def walk(rows: dict, i: int, total: int, bound: int) -> None:
        # bound: the caps of the nodes unfinished before this step, summed;
        # kept by the second run only. The last step finishes every node, so
        # there c is 0 and t is the profile's welfare.
        nonlocal best
        v, nb, fin, closed, live = steps[i]
        if rows is pays:
            for x in closed:
                bound -= caps[x][partial[x]][prof[x]]
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
                if rows is settled:
                    if i + 1 < n:
                        walk(rows, i + 1, t, 0)
                    else:
                        equilibria.append(tuple(prof))
                        ne_welfare.append(t)
                else:
                    c = bound
                    for x in live:
                        c += caps[x][partial[x]][prof[x]]
                    if t + c > best:
                        if i + 1 < n:
                            walk(rows, i + 1, t, c)
                        else:
                            best = t
            for u in nb:
                partial[u] -= w
        prof[v] = k

    walk(settled, 0, 0, 0)
    best = max(ne_welfare, default=zero)
    top = {d: max(max(pays[key]) for key in ks) for d, ks in keys.items()}
    bound = sum(top[len(nb)] for nb in nbrs)  # every node's cap before any step
    if bound > best:
        by_degree = {d: _caps(pays, weight, d) for d in keys}
        caps.extend(by_degree[len(nb)] for nb in nbrs)
        walk(pays, 0, 0, bound)
    return equilibria, ne_welfare, best


def _caps(pays: dict[int, list[int]], weight: list[int], d: int) -> dict[int, list[int]]:
    """A degree-``d`` node's caps, by the partial key ``p`` of its assigned
    neighbors: entry ``a`` of ``p``'s row is the largest payoff for action
    ``a`` over the full keys that extend ``p``, and the extra last entry, at
    index ``k = len(weight)``, the largest over every action: the cap of a
    node whose own action is not assigned yet. Built one neighbor count at a
    time, down from the full keys: ``cap[p]`` is the entrywise maximum of
    ``cap[p + weight[b]]`` over the actions ``b``.
    """
    k = len(weight)
    caps: dict[int, list[int]] = {}
    for m in reversed(range(d + 1)):
        for labels in combinations_with_replacement(range(k), m):
            p = sum(map(weight.__getitem__, labels))
            if m == d:
                caps[p] = [*pays[p], max(pays[p])]
            else:
                caps[p] = [max(col) for col in zip(*[caps[p + w] for w in weight])]
    return caps


def _cuthill_mckee(nbrs) -> list[int]:
    """The nodes in Cuthill-McKee order: each component breadth first from a
    node of least degree, neighbors by (degree, index)."""
    by_degree = lambda v: (len(nbrs[v]), v)  # noqa: E731
    seen = [False] * len(nbrs)
    order: list[int] = []
    for s in sorted(range(len(nbrs)), key=by_degree):
        if seen[s]:
            continue
        seen[s] = True
        j = len(order)
        order.append(s)
        while j < len(order):
            for u in sorted(nbrs[order[j]], key=by_degree):
                if not seen[u]:
                    seen[u] = True
                    order.append(u)
            j += 1
    return order


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
    budget is not started. A restart ends at its first sweep that finds no
    switch, which is the first sweep to start at a fixpoint. A proper coloring
    is a fixpoint read from the welfare (every node at utility 1): its
    zero-switch sweep is charged but not run. Returns None when the budget runs out,
    and on a network without nodes, whose empty profile is proper.

    Returns None at once, charging no budget and building no game, when
    ``net.max_degree < k``: a node at utility 0 that plays a best response
    finds every color held by a neighbor, so its degree is at least k; below
    that, every fixpoint is proper and the search could only run out of budget.
    """
    if k < 2:
        raise ValidationError("frozen-configuration search needs k >= 2")
    if budget < 0:
        raise ValidationError(f"budget must be >= 0, got {budget}")
    if type(k) is int and net.max_degree < k:  # no node can see all k colors: nothing is frozen
        return None
    game = coloring_game(net, k)
    n = net.node_count
    engine = BestResponseEngine(game)
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
            if engine.welfare_num == n * engine.den:  # proper: every node has utility 1
                break
            order = list(range(n))
            shuffle(rng, order)
            if not engine.sweep(order):
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
