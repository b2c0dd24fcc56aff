"""Criticalness scoring and the threshold gate.

score(path) = sum of the per-property weights of the distinct properties the
path violates, divided by (epsilon * number of function calls).  Each weight
is the product of an FMEA triple (likelihood, severity, difficulty of
detection, each 1..3).  Paths above the threshold are handed to symbolic
execution; among paths violating the same property set only the shortest is
executed first, the rest wait until it is proven infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .analyzers import PropertyId, PropertyViolation
from .pathgen import ProgramPath

DEFAULT_FMEA: dict[PropertyId, tuple[int, int, int]] = {
    PropertyId.TRANSFER_LIMIT: (1, 2, 2),
    PropertyId.NON_EXISTING_ADDRESS: (1, 3, 2),
    PropertyId.GUARD_SUICIDE: (2, 3, 3),
    PropertyId.BLACK_HOLE: (3, 2, 2),
}


def _default_alpha() -> dict[PropertyId, Fraction]:
    return {prop: Fraction(l * s * d) for prop, (l, s, d) in DEFAULT_FMEA.items()}


@dataclass
class RankConfig:
    alpha: dict[PropertyId, Fraction] = field(default_factory=_default_alpha)
    epsilon: Fraction = Fraction(1)
    threshold: Fraction = Fraction(10)
    fmea: dict[PropertyId, tuple[int, int, int]] = field(
        default_factory=lambda: dict(DEFAULT_FMEA))

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        for prop, triple in self.fmea.items():
            if prop not in self.alpha:
                continue
            if any(not 1 <= f <= 3 for f in triple):
                raise ValueError(f"FMEA factors for {prop.value} must be in 1..3")
            product = triple[0] * triple[1] * triple[2]
            if self.alpha[prop] != product:
                raise ValueError(
                    f"alpha for {prop.value} is {self.alpha[prop]}, but its FMEA "
                    f"triple {triple} gives {product}")

    def override_alpha(self, prop: PropertyId, value: Fraction) -> None:
        if value <= 0:
            raise ValueError("alpha must be positive")
        self.alpha[prop] = value
        self.fmea.pop(prop, None)  # a hand-set weight has no FMEA triple


class RankedPath(NamedTuple):
    path: ProgramPath
    violations: tuple[PropertyViolation, ...]
    score: Fraction

    @property
    def property_set(self) -> frozenset[PropertyId]:
        return frozenset(v.property for v in self.violations)


def score(path: ProgramPath, violations: list[PropertyViolation],
          config: RankConfig) -> Fraction:
    """Distinct properties count once; the informational gas property is free."""
    calls = path.call_count
    if calls < 1:
        raise ValueError("path length must be at least 1")
    props = {v.property for v in violations if v.property is not PropertyId.MAX_GAS}
    total = sum((config.alpha.get(p, Fraction(0)) for p in props), Fraction(0))
    return total / (config.epsilon * calls)


def make_ranked(path: ProgramPath, violations: list[PropertyViolation],
                config: RankConfig,
                scores: dict[tuple, Fraction] | None = None) -> RankedPath:
    """`scores`, if given, memoizes scores by (property set, call count)
    for callers that rank many paths under one config."""
    if scores is None:
        path_score = score(path, violations, config)
    else:
        key = (frozenset(v.property for v in violations), path.call_count)
        path_score = scores.get(key)
        if path_score is None:
            path_score = scores[key] = score(path, violations, config)
    return RankedPath(path=path, violations=tuple(violations), score=path_score)


def _score_places(ranked: list[RankedPath]) -> tuple[dict[int, int], list[Fraction]]:
    """Each score's place among the distinct scores, highest first, keyed by
    the score object's id, and the distinct scores in that order.  Paths of
    one score share its object and `ranked` keeps each alive, so a place is
    found once per score and sorting compares ints, never Fractions."""
    scores = {id(rp.score): rp.score for rp in ranked}
    distinct = sorted(set(scores.values()), reverse=True)
    place = {s: i for i, s in enumerate(distinct)}
    return {key: place[s] for key, s in scores.items()}, distinct


@dataclass
class GatePlan:
    """Symbolic-execution work order produced by the threshold gate."""
    ordered: list[RankedPath]              # every scored path, ranked
    admitted: list[RankedPath]             # above threshold, ranked
    queue: list[RankedPath]                # first (shortest) of each property set
    deferred: dict[frozenset, list[RankedPath]]  # longer same-set paths, in order

    def promote(self, property_set: frozenset) -> RankedPath | None:
        """Next deferred path of a set whose shorter representative failed."""
        pending = self.deferred.get(property_set)
        if pending:
            return pending.pop(0)
        return None


def rank_and_gate(ranked: list[RankedPath], config: RankConfig) -> GatePlan:
    """`ordered` is a deterministic total order: score desc, then shorter,
    then block list."""
    places, distinct = _score_places(ranked)

    def key(rp: RankedPath) -> tuple:
        return places[id(rp.score)], rp.path.call_count, rp.path.blocks

    ordered = sorted(ranked, key=key)
    # the scores above the threshold hold the first places
    cut = sum(1 for s in distinct if s > config.threshold)
    admitted = [rp for rp in ordered if places[id(rp.score)] < cut]
    queue: list[RankedPath] = []
    deferred: dict[frozenset, list[RankedPath]] = {}
    seen: set[frozenset] = set()
    for rp in sorted(admitted, key=lambda rp: (rp.path.call_count, rp.path.blocks)):
        prop_set = rp.property_set
        if prop_set in seen:
            deferred.setdefault(prop_set, []).append(rp)
        else:
            seen.add(prop_set)
            queue.append(rp)
    queue.sort(key=key)
    return GatePlan(ordered=ordered, admitted=admitted, queue=queue, deferred=deferred)
