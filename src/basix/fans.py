"""Four-element fans: normal forms, exact sign evaluation, witnesses.

A fan is four orderings of the rational function field, each the product of
the other three.  Curve-centered fans attach +-z tails to two half-branches of
a factor; point-centered fans take the two half-branches of each of two
transversal-family arcs.  A curve fan's base points are edge samples, smooth
points of the curve, so each base arc is one Hensel lift (or the line itself
on a vertical edge), never a branch-set expansion.

Every sign is decided once, at the precision the fan was built with:
point-fan arcs and vertical lines are exact polynomials, and a curve-fan
arc carries its z-slot at t^0, so every scene factor along it is decided by
its t^0 term g(x0, y0 + eta*z) (`puiseux.arc_sign`).  The fan's own factor
has derivative eta*f_y != 0 there, and no other factor vanishes on the line
x = x0 through an edge sample; so counting a curve fan composes nothing.
A sign still undecided (only a hand-written fan can have one) raises
``Unsupported("TruncationCap")``.
`Fan.sign_vector` checks the product law on every polynomial it signs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .arrangement import Box, bipoly_sign_on_box
from .bipoly import BiPoly
from .decompose import SetDecomposition
from .errors import BasixError, CountMismatch, InternalError, Unsupported
from .puiseux import (
    ArcFamily,
    PuiseuxArc,
    Slot,
    arc_sign,
    certified_point,
    simulate_branch_blowups,
    smooth_branch,
)
from .realroots import RootLocator, vanishes_at
from .resolution import ExceptionalComponent, component_family
from .scene import Scene
from .sphere import PoleView

F = Fraction

_K0 = 12


# ------------------------------------------------------------------ orderings


@dataclass
class ArcOrdering:
    """A field ordering realized by a parametrized half-branch."""

    arc: PuiseuxArc
    side: int  # +1 / -1 parameter side

    def sign(self, g: BiPoly) -> int:
        s = arc_sign(g, self.arc, self.side)
        if s is None:
            raise Unsupported("TruncationCap", "fan sign undecided at the precision of its arc")
        return s

    def concretize(self, z0: Fraction, polys: list[BiPoly]) -> tuple[Fraction, Fraction]:
        return certified_point(self.arc, self.side, polys, z0 if self.arc.slot else None)


@dataclass
class CurvePointOrdering:
    """Curve-fan ordering at a smooth curve point with an irrational ordinate.

    Signs only need the order-zero value (nonzero for polynomials missing the
    point) and the z-slot direction (for multiples of the factor), so no
    series expansion over an extension field is required.
    """

    factor_poly: BiPoly
    x0: Fraction
    yloc: RootLocator
    eta: int

    def sign(self, g: BiPoly) -> int:
        h = self.factor_poly
        k = 0
        r = g
        while r and (q := r.quotient(h)) is not None:
            r = q
            k += 1
        if r.is_zero():
            return 0
        # h-part: sign of eta * dh/dy at the point, raised to k
        s = 1
        if k:
            hy = h.partial_y()
            shy = bipoly_sign_on_box(hy, Box(RootLocator.at(self.x0), self.yloc))
            s = (self.eta * shy) ** k
        # residual part: r must not vanish at the point
        if vanishes_at(r.int_fibre(self.x0), self.yloc):
            raise Unsupported(
                "NonRationalWitnessBase",
                "polynomial vanishes at an irrational fan base point",
            )
        sr = bipoly_sign_on_box(r, Box(RootLocator.at(self.x0), self.yloc))
        return s * sr


Ordering = ArcOrdering | CurvePointOrdering


# ------------------------------------------------------------------ the fan


@dataclass
class Fan:
    """Orderings are indexed alpha_1..alpha_4, grouped by specialization pair:
    (alpha_1, alpha_2) share the first half-branch family and (alpha_3,
    alpha_4) the second.  A curve-centred fan names its ``factor``; a
    point-centred fan keeps the transversal ``family`` whose two instances
    it takes, and its centre is the family's."""

    kind: str  # 'curve_centered' | 'point_centered'
    form_tag: str
    chart: str
    orderings: list[Ordering]
    factor: str | None = None
    family: ArcFamily | None = None

    @property
    def center(self) -> tuple[Fraction, Fraction] | None:
        return self.family.center if self.family is not None else None

    def sign_vector(self, g: BiPoly) -> tuple[int, int, int, int]:
        if g.is_zero():
            raise BasixError("sign of the zero polynomial")
        s1, s2, s3, s4 = signs = tuple(o.sign(g) for o in self.orderings)
        if 0 not in signs and s1 * s2 * s3 != s4:
            raise BasixError(f"product law failed on {g.to_text()}: {list(signs)}")
        return signs

    def count_in_set(self, scene: Scene) -> int:
        return sum(
            scene.formula.holds({n: o.sign(scene.factors[n]) for n in scene.order})
            for o in self.orderings
        )


def fan_count_in_S(fan: Fan, scene: Scene) -> int:
    return fan.count_in_set(scene)


# ------------------------------------------------------------------ construction


def witness_curve_fan(
    decomp: SetDecomposition,
    factor: str,
    omega1_edge: int,
    omega2_edge: int,
) -> Fan:
    """Fan along the factor with tau_1 on the sign-change edge and tau_2 on the
    same-sign edge; the +-z tails make four orderings in the curve normal form."""
    arr = decomp.arrangement
    poly = arr.factors[factor]
    bases = []
    for eid in (omega1_edge, omega2_edge):
        e = arr.edges[eid]
        if e.factor != factor:
            raise BasixError("witness edge does not belong to the factor")
        if e.vertical:
            x0, y0v = arr.vertical_edge_sample(e)
            bases.append((x0, y0v, None, True))
            continue
        x0, yloc = arr.edge_sample(e)
        bases.append((x0, yloc.exact, yloc, False))

    orderings: list[Ordering] = []
    for x0, y0, yloc, vertical in bases:
        if vertical:
            # the line x = x0, parametrized by y; the z-tail perturbs x
            base = PuiseuxArc((x0, y0), 1, 1, (), None, swapped=True)
        elif y0 is not None:
            # a sample in an open slab, where f_y != 0: one Hensel lift
            base = smooth_branch(poly, (x0, y0), _K0)
        else:
            orderings += [CurvePointOrdering(poly, x0, yloc, eta) for eta in (1, -1)]
            continue
        orderings += [ArcOrdering(base.with_slot(0, eta, F(0)), 1) for eta in (1, -1)]
    return Fan(kind="curve_centered", form_tag="4.1-1", chart=arr.chart, orderings=orderings, factor=factor)


def witness_point_fan(
    D: ExceptionalComponent,
    omega2_mid: Fraction,
    omega1_mid: Fraction,
    decomp: SetDecomposition | PoleView,
    eta: int = 1,
    eta_prime: int = 1,
) -> Fan:
    """Fan from two transversal-family arcs of an exceptional component, with
    parameters in the same-sign gap and the sign-change gap respectively.
    Its membership count is left to the caller."""
    fam = component_family(D)
    g1 = fam.make_at(eta, omega2_mid)
    g2 = fam.make_at(eta_prime, omega1_mid)
    _validate_star_property(D, fam, (omega2_mid, omega1_mid))
    form = "4.1-2a" if (fam.N == 1 and not fam.kept and fam.m == 1) else "4.1-2b"
    return _point_fan(form, decomp.scene.chart, fam, g1, g2)


def _point_fan(form_tag: str, chart: str, fam: ArcFamily, g1: PuiseuxArc, g2: PuiseuxArc) -> Fan:
    orderings: list[Ordering] = [ArcOrdering(g, side) for g in (g1, g2) for side in (1, -1)]
    return Fan(kind="point_centered", form_tag=form_tag, chart=chart, orderings=orderings, family=fam)


def _validate_star_property(D: ExceptionalComponent, fam: ArcFamily, mids: tuple[Fraction, ...]) -> None:
    """The lifted instances must cross the component transversally at the
    prescribed, distinct, unmarked positions."""
    if mids[0] == mids[1]:
        raise InternalError("witness gaps must give distinct crossing points")
    for v_ in mids:
        for mp in D.marked:
            if mp.v.lo <= v_ <= mp.v.hi:
                raise InternalError("witness parameter hits a marked point")
    for v_ in mids:
        inst = fam.make_at(1, v_)
        conc = PuiseuxArc(
            inst.center,
            inst.delta,
            inst.N,
            tuple(sorted(inst.terms + ((inst.slot.m, inst.slot.a),))),
            None,
            swapped=inst.swapped,
        )
        word = simulate_branch_blowups(conc, D.level)
        kinds = [k for k, _c in word]
        own = [s.kind for s in D.chart.steps]
        if kinds != own:
            raise InternalError("witness lift leaves the component's chart word")
        if word[-1][1] != v_:
            raise InternalError("witness lift crosses at an unexpected point")


# ------------------------------------------------------------------ verification


@dataclass
class FanReport:
    product_law_ok: bool
    checked: int
    distinct: bool
    separators: dict[str, str]
    failures: list[str] = field(default_factory=list)


def verify_fan(fan: Fan, scene: Scene, extra_polys: list[BiPoly] | None = None) -> FanReport:
    """Product-law check over the scene factors plus supplied polynomials, and
    pairwise distinctness via separating polynomials."""
    polys: list[BiPoly] = [scene.factors[n] for n in scene.order]
    if extra_polys:
        polys += extra_polys
    rep = FanReport(True, 0, True, {})
    for g in polys:
        if g.is_zero():
            continue
        try:
            fan.sign_vector(g)
        except InternalError:
            raise  # a broken invariant, not a failed product law
        except BasixError as exc:
            rep.product_law_ok = False
            rep.failures.append(str(exc))
            return rep
        rep.checked += 1
    # distinctness: find a separating polynomial for each pair
    cands: list[BiPoly] = list(polys)
    cands += [BiPoly.x(), BiPoly.y()]
    if fan.center is not None:
        cx, cy = fan.center
        cands.append(BiPoly.x() - BiPoly.const(cx))
        cands.append(BiPoly.y() - BiPoly.const(cy))
    fam = fan.family
    if fam is not None and not fam.swapped and fam.N == 1:
        # the graph of the instance halfway between the two instances' slots
        cx, cy = fam.center
        mid = (fan.orderings[0].arc.slot.a + fan.orderings[2].arc.slot.a) / 2
        sep = BiPoly.y() - BiPoly.const(cy)
        xx = BiPoly.x() - BiPoly.const(cx)
        for n, c in fam.kept:
            sep = sep - (xx**n).scale(c)
        sep = sep - (xx**fam.m).scale(mid)
        cands.append(sep)
    for i in range(4):
        for j in range(i + 1, 4):
            found = None
            for g in cands:
                if g.is_zero():
                    continue
                try:
                    sv = fan.sign_vector(g)
                except InternalError:
                    raise
                except BasixError:
                    continue
                if sv[i] != sv[j]:
                    found = g
                    break
            if found is None:
                rep.distinct = False
                rep.failures.append(f"orderings {i + 1} and {j + 1} not separated")
            else:
                rep.separators[f"{i + 1},{j + 1}"] = found.to_text()
    return rep


def independent_count_check(
    fan: Fan, scene: Scene, z_values: tuple[Fraction, ...] = (F(1, 8), F(1, 16))
) -> int:
    """Membership count recomputed from concrete z-instances pushed through
    rational point sampling; must reproduce the symbolic count exactly."""
    sym = fan.count_in_set(scene)
    polys = [scene.factors[n] for n in scene.order]
    for z0 in z_values:
        count = 0
        for o in fan.orderings:
            if not isinstance(o, ArcOrdering):
                raise Unsupported("NonRationalWitnessBase", "cannot concretize this fan")
            pt = o.concretize(z0, polys)
            if scene.member(*pt):
                count += 1
        if count != sym:
            raise CountMismatch(f"concrete count {count} != symbolic {sym} at z={z0}")
    return sym


# ------------------------------------------------------------------ serialization


def _w_form(eta: int) -> str:
    """The JSON name of a slot tail (eta*z + a)*t^m."""
    return "z+a" if eta > 0 else "-z+a"


def fan_to_json(fan: Fan) -> str:
    d: dict = {
        "kind": fan.kind,
        "form_tag": fan.form_tag,
        "chart": fan.chart,
        "pair_structure": "alpha1,alpha2 -> tau1; alpha3,alpha4 -> tau2",
    }
    if fan.kind == "point_centered":
        fam = fan.family
        if fam is None:
            raise InternalError("a point-centred fan has a family")
        s1, s2 = fan.orderings[0].arc.slot, fan.orderings[2].arc.slot
        d.update(
            {
                "center": [str(fam.center[0]), str(fam.center[1])],
                "delta": fam.delta,
                "N": fam.N,
                "terms": [[n, str(c)] for n, c in fam.kept],
                "m": fam.m,
                "a1": str(s1.a),
                "a2": str(s2.a),
                "eta": s1.eta,
                "eta_prime": s2.eta,
                "swapped": fam.swapped,
            }
        )
    else:
        d["factor"] = fan.factor
        arcs = []
        for o in fan.orderings:
            if not isinstance(o, ArcOrdering):
                raise Unsupported("NonRationalWitnessBase", "this fan has no rational serialization")
            a = o.arc
            arcs.append(
                {
                    "center": [str(a.center[0]), str(a.center[1])],
                    "delta": a.delta,
                    "N": a.N,
                    "terms": [[n, str(c)] for n, c in a.terms],
                    "m": a.slot.m if a.slot else None,
                    "w_form": _w_form(a.slot.eta) if a.slot else None,
                    "a": str(a.slot.a) if a.slot else None,
                    "eta": a.slot.eta if a.slot else None,
                    "truncation": a.truncation,
                    "swapped": a.swapped,
                    "side": o.side,
                }
            )
        d["orderings"] = arcs
    return json.dumps(d, indent=2, sort_keys=True)


def fan_from_json(text: str, scene: Scene) -> Fan:
    """The fan that `fan_to_json` wrote.  Text that is no such fan, with a
    key missing, a value of the wrong type (a float or a boolean for an
    integer too), a coordinate that is no fraction, a kind other than the
    two or an integer out of range, is an input error (`BasixError`).  The
    ranges: N >= 1, m >= 1 for a point fan's family and m >= 0 for a curve
    ordering's slot, delta, eta, eta_prime and side each +1 or -1, a
    truncation null or at least 1, and term exponents as `_terms` reads."""
    try:
        d = json.loads(text)
        kind = d["kind"]
        if kind not in ("point_centered", "curve_centered"):
            raise BasixError(f"unknown fan kind {kind!r}")
        return _fan_from_dict(d, scene)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise BasixError(f"malformed fan: {type(exc).__name__}: {exc}") from exc


def _as_int(v: object, key: str, least: int | None = None) -> int:
    """v, named key, as an int: at least `least`, or with no `least` a sign,
    +1 or -1; any other value, a float or a boolean among them, is refused."""
    if type(v) is not int:
        raise BasixError(f"malformed fan: {key} is {json.dumps(v)}, not an integer")
    if (v < least) if least is not None else (v not in (1, -1)):
        want = f"at least {least}" if least is not None else "1 or -1"
        raise BasixError(f"malformed fan: {key} is {v}, not {want}")
    return v


def _terms(d: dict, trunc: int | None = None, m: int | None = None) -> tuple[tuple[int, Fraction], ...]:
    """d["terms"] as (exponent, coefficient) pairs, each exponent at least 1
    as `PuiseuxArc.t0_line` assumes: a curve ordering's (no m) strictly
    increasing and below its truncation, a point family's distinct and
    other than its m."""
    terms = tuple((_as_int(n, "a term exponent", 1), F(c)) for n, c in d["terms"])
    exps = [e for e, _c in terms]
    if m is None and (exps != sorted(set(exps)) or trunc is not None and exps and exps[-1] >= trunc):
        raise BasixError(f"malformed fan: term exponents {exps} are not strictly increasing and below the truncation")
    if m is not None and (len(set(exps)) < len(exps) or m in exps):
        raise BasixError(f"malformed fan: term exponents {exps} are not distinct and other than m = {m}")
    return terms


def _fan_from_dict(d: dict, scene: Scene) -> Fan:
    chart = d.get("chart", "affine")
    if d["kind"] == "point_centered":
        center = (F(d["center"][0]), F(d["center"][1]))
        delta, N, m = _as_int(d["delta"], "delta"), _as_int(d["N"], "N", 1), _as_int(d["m"], "m", 1)
        fam = ArcFamily(center, delta, N, _terms(d, m=m), m, bool(d.get("swapped", False)))
        g1 = fam.make_at(_as_int(d["eta"], "eta"), F(d["a1"]))
        g2 = fam.make_at(_as_int(d["eta_prime"], "eta_prime"), F(d["a2"]))
        return _point_fan(d["form_tag"], chart, fam, g1, g2)
    factor = d["factor"]
    if factor not in scene.factors:
        raise BasixError(f"fan references unknown factor {factor!r}")
    orderings: list[Ordering] = []
    for a in d["orderings"]:
        slot = Slot(_as_int(a["m"], "m", 0), _as_int(a["eta"], "eta"), F(a["a"])) if a["m"] is not None else None
        w_form = _w_form(slot.eta) if slot is not None else None
        if a["w_form"] != w_form:
            raise BasixError(f"ordering w_form {a['w_form']!r} is not {w_form!r}, the form its eta names")
        trunc = _as_int(a["truncation"], "truncation", 1) if a["truncation"] is not None else None
        arc = PuiseuxArc(
            (F(a["center"][0]), F(a["center"][1])),
            _as_int(a["delta"], "delta"),
            _as_int(a["N"], "N", 1),
            _terms(a, trunc),
            trunc,
            slot=slot,
            swapped=bool(a.get("swapped", False)),
        )
        orderings.append(ArcOrdering(arc, _as_int(a["side"], "side")))
    return Fan(kind="curve_centered", form_tag=d["form_tag"], chart=chart, orderings=orderings, factor=factor)
