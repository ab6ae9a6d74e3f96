"""Radius-1 local verifiers compiled from a game's equilibrium condition.

A labeling is accepted at a node iff the node's own label is a best
response to its neighbors' labels, so a profile passes at every node
exactly when it is a Nash equilibrium. The configuration set is kept
intensional (a predicate) because enumerating labeled stars is
exponential in the degree and adds nothing.

``LvlSpec.accept`` is the public predicate. `verify` gives the same verdict
at every node without a call per node: it computes every node's key in
one pass, as `BestResponseEngine.reset` does, and reads the preferred
response from the compiled spec's engine table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ValidationError
from .game import BestResponseEngine, GraphicalGame, Profile, validate_profile
from .network import Network

AcceptPredicate = Callable[[int, int, tuple[int, ...]], bool]


@dataclass(frozen=True)
class LvlSpec:
    """A deterministic accept predicate over labeled stars.

    ``accept(center, center_label, neighbor_labels)`` reads only the
    radius-1 star; labels index the game's action list. ``engine`` is the
    best-response engine behind ``accept``, whose table `verify` reads.
    """

    accept: AcceptPredicate
    engine: BestResponseEngine


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    violations: tuple[int, ...]

    def to_json(self) -> dict:
        return {"accepted": self.accepted, "violations": list(self.violations)}


def compile_lvl(game: GraphicalGame) -> LvlSpec:
    """Compile the game's equilibrium condition into a radius-1 verifier."""

    engine = BestResponseEngine(game)

    def accept(v: int, center_label: int, neighbor_labels: tuple[int, ...]) -> bool:
        return engine.entry(v, engine.key_of(neighbor_labels))[1][center_label] == center_label

    return LvlSpec(accept=accept, engine=engine)


def verify(spec: LvlSpec, net: Network, labels: Profile) -> Verdict:
    """The accept predicate's verdict at every node, read from the spec's
    engine table by key; collect violators in node order. ``net`` must equal
    the network the spec was compiled on, and ``labels`` must pass
    `validate_profile` on the spec's game."""
    engine = spec.engine
    if net != engine.game.network:
        raise ValidationError("labeling's network is not the one the verifier was compiled on")
    validate_profile(engine.game, labels)
    table, entry = engine.table, engine.entry
    violations = [v for v, (key, lab) in enumerate(zip(engine.keys(labels), labels))
                  if (table.get(key) or entry(v, key))[1][lab] != lab]
    return Verdict(accepted=not violations, violations=tuple(violations))
