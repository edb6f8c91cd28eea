"""Partial sign distributions and type-changing classification.

A distribution assigns +1 to the regions of S and -1 to the regions of one
complement component (or to the whole complement for the total distribution).
A curve factor is classified by scanning its edges and reading the signs of
the two adjacent regions: a (+,-) edge witnesses a sign change, a (+,+) edge
an interior-of-closure arc, a (-,-) edge the negative counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
class ComponentClassification:
    factor: str
    verdict: str  # 'PositiveTypeChanging' | 'NegativeTypeChanging' | 'ChangeOnly' | 'Silent'
    omega1_edges: list[int] = field(default_factory=list)  # (+,-) edges
    omega2_plus_edges: list[int] = field(default_factory=list)  # (+,+) edges
    omega2_minus_edges: list[int] = field(default_factory=list)  # (-,-) edges


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


def classify_component(
    factor: str, sigma: SignDistribution, arr: Arrangement
) -> ComponentClassification:
    """Aggregate the adjacent-region sign pairs over every edge of the factor."""
    if factor not in arr.factors:
        raise BasixError(f"unknown factor {factor!r}")
    cc = ComponentClassification(factor, "Silent")
    for e in arr.edges_of_factor(factor):
        sa = sigma.region_sign(e.side_above)
        sb = sigma.region_sign(e.side_below)
        pair = {sa, sb}
        if pair == {1, -1}:
            cc.omega1_edges.append(e.eid)
        elif sa == 1 and sb == 1:
            cc.omega2_plus_edges.append(e.eid)
        elif sa == -1 and sb == -1:
            cc.omega2_minus_edges.append(e.eid)
    if cc.omega1_edges and cc.omega2_plus_edges:
        cc.verdict = "PositiveTypeChanging"
    elif cc.omega1_edges and cc.omega2_minus_edges:
        cc.verdict = "NegativeTypeChanging"
    elif cc.omega1_edges:
        cc.verdict = "ChangeOnly"
    else:
        cc.verdict = "Silent"
    return cc


@dataclass
class ConditionAFailure:
    factor: str
    sigma_index: int
    classification: ComponentClassification


def condition_a_check(d: SetDecomposition) -> ConditionAFailure | None:
    """None if no boundary factor is positive type changing w.r.t. any sigma_i;
    otherwise the first failing (factor, sigma, classification) witness."""
    arr = d.arrangement
    for i in range(len(d.a_components)):
        sigma = make_sigma(d, i)
        for factor in arr.order:
            if factor not in d.zariski_boundary:
                continue
            cc = classify_component(factor, sigma, arr)
            if cc.verdict == "PositiveTypeChanging":
                return ConditionAFailure(factor, i, cc)
    return None


def condition_a_table(d: SetDecomposition) -> list[tuple[str, int, str]]:
    """Full (factor, sigma index, verdict) classification table."""
    arr = d.arrangement
    out = []
    for i in range(len(d.a_components)):
        sigma = make_sigma(d, i)
        for factor in arr.order:
            if factor in d.zariski_boundary:
                out.append((factor, i, classify_component(factor, sigma, arr).verdict))
    return out
