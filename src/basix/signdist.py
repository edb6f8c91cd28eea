"""Partial sign distributions and type-changing classification.

A distribution assigns +1 to the regions of S and -1 to the regions of one
complement component (or to the whole complement for the total distribution).
One rule, `classify_sides`, classifies both kinds of curve the criterion
reads: a boundary factor by the signs on the two sides of each of its edges
(condition a), and an exceptional component of a blow-up by the signs on the
two sides of each of its arcs (condition b).  A (+,-) arc witnesses a sign
change, a (+,+) arc an interior-of-closure arc, a (-,-) arc the negative
counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .arrangement import Arrangement
from .decompose import SetDecomposition
from .errors import BasixError


@dataclass(frozen=True)
class SignDistribution:
    plus: frozenset[int]
    minus: frozenset[int]
    kind: str  # 'sigma' | 'sigma_complement' | 'delta'
    index: int = -1

    def region_sign(self, rid: int) -> int:
        if rid in self.plus:
            return 1
        if rid in self.minus:
            return -1
        return 0


@dataclass
class Classification:
    verdict: str  # 'PositiveTypeChanging' | 'NegativeTypeChanging' | 'ChangeOnly' | 'Silent'
    omega1: list = field(default_factory=list)  # (+,-) arcs
    omega2_plus: list = field(default_factory=list)  # (+,+) arcs
    omega2_minus: list = field(default_factory=list)  # (-,-) arcs


def classify_sides(triples: Iterable[tuple[object, int, int]]) -> Classification:
    """The type-changing rule over (arc, sign on one side, sign on the other)
    triples: positive type changing when some arc changes sign and some arc
    has S on both sides, negative with a (-,-) arc instead; arcs are kept in
    input order."""
    cls = Classification("Silent")
    for arc, s1, s2 in triples:
        if {s1, s2} == {1, -1}:
            cls.omega1.append(arc)
        elif s1 == s2 == 1:
            cls.omega2_plus.append(arc)
        elif s1 == s2 == -1:
            cls.omega2_minus.append(arc)
    if cls.omega1 and cls.omega2_plus:
        cls.verdict = "PositiveTypeChanging"
    elif cls.omega1 and cls.omega2_minus:
        cls.verdict = "NegativeTypeChanging"
    elif cls.omega1:
        cls.verdict = "ChangeOnly"
    return cls


def make_sigma(d: SetDecomposition, i: int) -> SignDistribution:
    """plus = regions of S, minus = regions of the i-th complement component."""
    if not (0 <= i < len(d.a_components)):
        raise IndexError(f"component index {i} out of range")
    return SignDistribution(frozenset(d.s_regions), frozenset(d.a_components[i]), "sigma", i)


def make_sigmas(d: SetDecomposition) -> list[SignDistribution]:
    return [make_sigma(d, i) for i in range(len(d.a_components))]


def make_delta(d: SetDecomposition) -> SignDistribution:
    """plus = regions of S, minus = every complement region."""
    minus = frozenset(r.rid for r in d.arrangement.regions if r.rid not in d.s_regions)
    return SignDistribution(frozenset(d.s_regions), minus, "delta")


def classify_component(factor: str, sigma: SignDistribution, arr: Arrangement) -> Classification:
    """Classify the factor by the signs above and below each of its edges;
    the arcs are edge ids."""
    if factor not in arr.factors:
        raise BasixError(f"unknown factor {factor!r}")
    return classify_sides(
        (e.eid, sigma.region_sign(e.side_above), sigma.region_sign(e.side_below))
        for e in arr.edges_of_factor(factor)
    )


@dataclass
class ConditionAFailure:
    factor: str
    sigma_index: int
    classification: Classification


def condition_a(d: SetDecomposition) -> tuple[list[tuple[str, int, str]], ConditionAFailure | None]:
    """Classify every boundary factor against every sigma_i once: the
    (factor, sigma index, verdict) table, and the first positive type
    changing row with its classification, or None."""
    arr = d.arrangement
    rows = [
        (factor, i, classify_component(factor, sigma, arr))
        for i, sigma in enumerate(make_sigmas(d))
        for factor in arr.order
        if factor in d.zariski_boundary
    ]
    fail = next((ConditionAFailure(*row) for row in rows if row[2].verdict == "PositiveTypeChanging"), None)
    return [(factor, i, cc.verdict) for factor, i, cc in rows], fail


def condition_a_check(d: SetDecomposition) -> ConditionAFailure | None:
    """The first positive type changing row of `condition_a`, or None."""
    return condition_a(d)[1]


def condition_a_table(d: SetDecomposition) -> list[tuple[str, int, str]]:
    """Full (factor, sigma index, verdict) classification table."""
    return condition_a(d)[0]
