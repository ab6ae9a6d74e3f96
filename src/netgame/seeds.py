"""Deterministic seed derivation and the package's seeded draws.

All randomness in the package flows from one user-supplied seed. Child
seeds are derived by hashing the master seed together with a label and
optional indices (e.g. ``derive_seed(master, "trial", 17)``), so runs are
replayable and independent sub-streams never collide.

Every seeded draw goes through `randbelow` and `shuffle`. They reproduce
``Random.randrange(n)`` and ``Random.shuffle`` draw for draw, generator
state included, through the public ``Random.getrandbits``: a draw below
``n`` takes ``n.bit_length()`` bits and is redrawn while it is ``>= n``,
and the shuffle is Fisher-Yates from the end (Knuth, TAOCP vol. 2,
Algorithm P). Written here, they skip the stdlib's per-draw method
dispatch, which is most of a draw's cost, and they pin every trace to
netgame's own code rather than to the interpreter's ``shuffle``.
"""

from __future__ import annotations

import hashlib
from random import Random


def derive_seed(master: int, *parts: int | str) -> int:
    """Derive a 64-bit child seed from a master seed and a label path."""
    payload = repr((int(master),) + parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def randbelow(rng: Random, n: int) -> int:
    """A uniform draw from ``range(n)``, ``n >= 1``; the draw and the state
    after it equal those of ``rng.randrange(n)``."""
    getrandbits = rng.getrandbits
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


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
