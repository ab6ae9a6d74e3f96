from fractions import Fraction
from random import Random

import pytest

import netgame.network as network_mod
from netgame.errors import ConstructionError
from netgame.game import GAME_KINDS, GraphicalGame, random_profile
from netgame.network import Network, random_regular, star_matching
from netgame.seeds import derive_seed, randbelow_each, shuffle


def test_shuffle_and_randbelow_match_the_stdlib_draw_for_draw():
    # If a future CPython changed `Random.shuffle` or `randrange`, this test
    # fails while netgame's traces (and the golden digests) stay as they are.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        st.integers(0, 2**64),
        st.integers(0, 300),
        st.lists(st.integers(1, 2**70), max_size=20),
    )
    def check(seed, length, bounds):
        ours, stdlib = Random(seed), Random(seed)
        x, y = list(range(length)), list(range(length))
        shuffle(ours, x)
        stdlib.shuffle(y)
        assert x == y
        assert randbelow_each(ours, bounds) == [stdlib.randrange(n) for n in bounds]
        assert ours.random() == stdlib.random()  # the same generator state after

    check()


# Every length up to 70, and each side of the lengths where the draw's bit
# count changes: the shuffle draws in runs of one bit count.
SHUFFLE_LENGTHS = sorted({*range(71), *(n for j in range(1, 15) for n in range(2**j - 2, 2**j + 2)), 10000})


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
def test_shuffle_runs_of_one_bit_count_match_the_stdlib(seed):
    for length in SHUFFLE_LENGTHS:
        ours, stdlib = Random(seed), Random(seed)
        x, y = list(range(length)), list(range(length))
        shuffle(ours, x)
        stdlib.shuffle(y)
        assert x == y, length
        assert ours.getstate() == stdlib.getstate(), length


def reference_random_regular(n: int, d: int, seed: int) -> Network:
    """The configuration model with wholesale rejection: a full stdlib
    shuffle per attempt, then a check of every pair from the front."""
    for attempt in range(1000):
        rng = Random(network_mod.derive_seed(seed, "regular-attempt", attempt))
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges: set = set()
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            e = (u, v) if u < v else (v, u)
            if u == v or e in edges:
                break
            edges.add(e)
        else:
            return Network.from_edges(n, edges)
    raise ConstructionError(
        f"no simple {d}-regular pairing on {n} nodes after 1000 attempts; retry with a new seed"
    )


def _outcome_and_attempts(build, monkeypatch, n, d, seed):
    """What ``build(n, d, seed)`` returns or raises, and its attempt count,
    read from the derived seeds it asks `network.derive_seed` for."""
    calls = []

    def counted(master, *parts):
        if parts[0] == "regular-attempt":
            calls.append(parts[1])
        return derive_seed(master, *parts)

    monkeypatch.setattr(network_mod, "derive_seed", counted)
    try:
        outcome = build(n, d, seed)
    except ConstructionError as exc:
        outcome = str(exc)
    finally:
        monkeypatch.undo()
    return outcome, len(calls)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_random_regular_equals_wholesale_rejection(monkeypatch, d):
    # Early rejection abandons an attempt at its first bad pair; the accepted
    # pairing and the number of attempts must be the parent loop's.
    for n in range(d + 1, 15):
        if n * d % 2:
            continue
        for seed in range(8):
            got = _outcome_and_attempts(random_regular, monkeypatch, n, d, seed)
            want = _outcome_and_attempts(reference_random_regular, monkeypatch, n, d, seed)
            assert got == want, (n, d, seed)


def test_random_regular_budget_exhaustion_matches(monkeypatch):
    # Six nodes of degree 5 leave one graph, K6, which about one pairing in
    # 2000 hits, so the 1000-attempt budget runs out on some seeds.
    outcomes = [
        (_outcome_and_attempts(random_regular, monkeypatch, 6, 5, seed),
         _outcome_and_attempts(reference_random_regular, monkeypatch, 6, 5, seed))
        for seed in range(4)
    ]
    assert all(got == want for got, want in outcomes)
    assert any(isinstance(got[0], str) for got, _ in outcomes)


# Leaf edges of `star_matching` before its shuffle moved to `seeds.shuffle`.
STAR_LEAF_EDGES = {
    (4, 3, 0): [(4, 5), (4, 10), (5, 7), (6, 8), (6, 14), (7, 15), (8, 9), (9, 12), (10, 13),
                (11, 12), (11, 15), (13, 14)],
    (6, 3, 3): [(6, 8), (6, 12), (7, 21), (7, 23), (8, 17), (9, 12), (9, 21), (10, 20), (10, 22),
                (11, 13), (11, 16), (13, 15), (14, 18), (14, 20), (15, 18), (16, 19), (17, 19),
                (22, 23)],
    (5, 4, 2): [(5, 14), (5, 15), (5, 18), (6, 10), (6, 13), (6, 21), (7, 8), (7, 9), (7, 17),
                (8, 10), (8, 23), (9, 22), (9, 23), (10, 17), (11, 15), (11, 16), (11, 18),
                (12, 19), (12, 22), (12, 23), (13, 16), (13, 20), (14, 18), (14, 19), (15, 24),
                (16, 24), (17, 21), (19, 22), (20, 21), (20, 24)],
}


@pytest.mark.parametrize("k, d, seed", sorted(STAR_LEAF_EDGES))
def test_star_matching_is_unchanged(k, d, seed):
    net, centers, leaf_edges = star_matching(k, d, seed)
    assert sorted(leaf_edges) == STAR_LEAF_EDGES[k, d, seed]
    stars = [(c, k + c * d + j) for c in range(k) for j in range(d)]
    assert net == Network.from_edges(k * (d + 1), stars + sorted(leaf_edges))
    assert centers == frozenset(range(k))


def test_random_profile_draws_as_randrange_per_node():
    # Action lists of 1 to 9 entries, non-powers of two included: the profile
    # and the generator state after it are those of one `randrange` per node.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.integers(0, 2**64), st.lists(st.integers(1, 9), max_size=40))
    def check(seed, sizes):
        actions = tuple(tuple(range(size)) for size in sizes)
        game = GraphicalGame(Network(((),) * len(sizes)), actions, lambda v, own, nbrs: Fraction(0),
                             GAME_KINDS["coloring"], {})
        stdlib = Random(seed)
        want = [stdlib.randrange(len(a)) for a in actions]
        for draw in (lambda rng: random_profile(game, rng), lambda rng: randbelow_each(rng, sizes)):
            ours = Random(seed)
            assert list(draw(ours)) == want
            assert ours.getstate() == stdlib.getstate()

    check()
