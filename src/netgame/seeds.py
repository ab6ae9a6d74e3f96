"""Deterministic seed derivation and the package's seeded draws.

All randomness in the package flows from one user-supplied seed. Child
seeds are derived by hashing the master seed together with a label and
optional indices (e.g. ``derive_seed(master, "trial", 17)``), so runs are
replayable and independent sub-streams never collide.

Every seeded draw goes through `randbelow_each` (one draw per bound, such
as a random profile's one draw per node, in one loop) and `shuffle`. They
reproduce ``Random.randrange(n)`` and ``Random.shuffle`` draw for draw,
generator state included, through the public ``Random.getrandbits``: a
draw below ``n`` takes ``n.bit_length()`` bits and is redrawn while it is
``>= n``, and the shuffle is Fisher-Yates from the end (Knuth, TAOCP
vol. 2, Algorithm P). Written here, they skip the stdlib's per-draw method
dispatch, which is most of a draw's cost, and they pin every trace to
netgame's own code rather than to the interpreter's ``shuffle``.
"""

from __future__ import annotations

import hashlib
from random import Random
from typing import Iterable


def derive_seed(master: int, *parts: int | str) -> int:
    """Derive a 64-bit child seed from a master seed and a label path."""
    payload = repr((int(master),) + parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def randbelow_each(rng: Random, bounds: Iterable[int]) -> list[int]:
    """One uniform draw from ``range(n)`` per bound ``n >= 1``, in order; the
    draws and the state after them equal those of
    ``[rng.randrange(n) for n in bounds]``."""
    getrandbits = rng.getrandbits
    draws = []
    append = draws.append
    for n in bounds:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        append(r)
    return draws


def shuffle(rng: Random, x: list) -> None:
    """Shuffle ``x`` in place exactly as ``rng.shuffle(x)`` does."""
    getrandbits = rng.getrandbits
    for i in range(len(x) - 1, 0, -1):
        n = i + 1
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]
