"""Four-element fans: normal forms, exact sign evaluation, witnesses.

A fan is four orderings of the rational function field, each the product of
the other three.  Curve-centered fans attach +-z tails to two half-branches of
a factor; point-centered fans take the two half-branches of each of two
transversal-family arcs.  Signs are evaluated exactly along the stored arcs;
the product law is asserted on every evaluation.
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
    newton_puiseux,
    simulate_branch_blowups,
)
from .realroots import RootLocator, isolate_real_roots, roots_equal
from .resolution import ExceptionalComponent, component_family
from .scene import Scene
from .sphere import PoleView

F = Fraction

_K0 = 12
_K_CAP = 192


# ------------------------------------------------------------------ orderings


@dataclass
class ArcOrdering:
    """A field ordering realized by a parametrized half-branch."""

    arc: PuiseuxArc
    side: int  # +1 / -1 parameter side
    on_poly: BiPoly | None = None

    def sign(self, g: BiPoly) -> int | None:
        return arc_sign(g, self.arc, self.side, on_poly=self.on_poly)

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

    def sign(self, g: BiPoly) -> int | None:
        h = self.factor_poly
        k = 0
        r = g
        while not r.is_zero() and h.divides(r):
            r = r.exact_div(h)
            k += 1
        if r.is_zero():
            return 0
        # h-part: sign of eta * dh/dy at the point, raised to k
        s = 1
        if k:
            hy = h.partial_y()
            shy = bipoly_sign_on_box(hy, Box(RootLocator.at(self.x0), self.yloc))
            s = (self.eta * shy) ** k if (self.eta * shy) > 0 else (-1) ** k
        # residual part: r must not vanish at the point
        u = r.specialize_x(self.x0)
        if u.is_zero() or self._vanishes(u):
            raise Unsupported(
                "NonRationalWitnessBase",
                "polynomial vanishes at an irrational fan base point",
            )
        sr = bipoly_sign_on_box(r, Box(RootLocator.at(self.x0), self.yloc))
        return s * sr

    def _vanishes(self, u) -> bool:
        if u.degree < 1:
            return u.is_zero()
        return any(roots_equal(self.yloc, loc) for loc in isolate_real_roots(u))

    def concretize(self, z0: Fraction, polys: list[BiPoly]):
        raise Unsupported("NonRationalWitnessBase", "cannot concretize an irrational base point")


Ordering = ArcOrdering | CurvePointOrdering


# ------------------------------------------------------------------ the fan


@dataclass
class Fan:
    """Orderings are indexed alpha_1..alpha_4, grouped by specialization pair:
    (alpha_1, alpha_2) share the first half-branch family and (alpha_3,
    alpha_4) the second."""

    kind: str  # 'curve_centered' | 'point_centered'
    form_tag: str
    chart: str
    orderings: list[Ordering]
    factor: str | None = None
    center: tuple[Fraction, Fraction] | None = None
    meta: dict = field(default_factory=dict)
    _deepen_state: dict = field(default_factory=dict)

    def sign_vector(self, g: BiPoly) -> tuple[int, int, int, int]:
        if g.is_zero():
            raise BasixError("sign of the zero polynomial")
        while True:
            signs = [o.sign(g) for o in self.orderings]
            if all(s is not None for s in signs):
                s1, s2, s3, s4 = signs  # type: ignore[misc]
                if 0 not in signs and s1 * s2 * s3 != s4:
                    raise BasixError(f"product law failed on {g.to_text()}: {signs}")
                return (s1, s2, s3, s4)  # type: ignore[return-value]
            self._deepen()

    def _deepen(self) -> None:
        st = self._deepen_state
        if not st:
            raise Unsupported("TruncationCap", "fan arcs cannot be deepened")
        K = st["K"] * 2
        if K > _K_CAP:
            raise Unsupported("TruncationCap", "fan arc truncation cap reached")
        st["K"] = K
        st["rebuild"](K)

    def count_in_set(self, scene: Scene) -> int:
        count = 0
        for o in self.orderings:
            signs = {}
            for n in scene.order:
                s = None
                while s is None:
                    s = o.sign(scene.factors[n])
                    if s is None:
                        self._deepen()
                signs[n] = s
            if scene.formula.holds(signs):
                count += 1
        return count


def fan_count_in_S(fan: Fan, scene: Scene) -> int:
    return fan.count_in_set(scene)


# ------------------------------------------------------------------ construction


def _branch_arc_at(poly: BiPoly, factor: str, point: tuple[Fraction, Fraction], K: int) -> PuiseuxArc:
    arcs = [a for a in newton_puiseux(poly, point, K, factor) if not a.swapped]
    if len(arcs) != 1:
        raise BasixError(f"expected one smooth branch at {point}, found {len(arcs)}")
    return arcs[0]


def witness_curve_fan(
    decomp: SetDecomposition,
    factor: str,
    omega1_edge: int,
    omega2_edge: int,
    K: int = _K0,
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
        bases.append((x0, yloc.try_rational(rounds=64), yloc, False))

    slots: list[Ordering] = [None] * 4  # type: ignore[list-item]
    state: dict = {"K": K}

    def build(KK: int) -> None:
        for pi, (x0, y0, yloc, vertical) in enumerate(bases):
            if vertical:
                # the line x = x0, parametrized by y; the z-tail perturbs x
                base = PuiseuxArc((x0, y0), 1, 1, (), None, swapped=True, on_factor=factor)
                op: Ordering = ArcOrdering(base.with_slot(0, 1, F(0), "z+a"), 1, on_poly=poly)
                om: Ordering = ArcOrdering(base.with_slot(0, -1, F(0), "-z+a"), 1, on_poly=poly)
            elif y0 is not None:
                b = _branch_arc_at(poly, factor, (x0, y0), KK)
                op = ArcOrdering(b.with_slot(0, 1, F(0), "z+a"), 1, on_poly=poly)
                om = ArcOrdering(b.with_slot(0, -1, F(0), "-z+a"), 1, on_poly=poly)
            else:
                op = CurvePointOrdering(poly, x0, yloc, 1)
                om = CurvePointOrdering(poly, x0, yloc, -1)
            if pi == 0:
                slots[0], slots[1] = op, om
            else:
                slots[2], slots[3] = op, om

    build(K)
    state["rebuild"] = build
    fan = Fan(
        kind="curve_centered",
        form_tag="4.1-1",
        chart=arr.chart,
        orderings=slots,  # shared list: deepening replaces entries in place
        factor=factor,
        meta={
            "base_points": [
                [str(x0), str(y0) if y0 is not None else "algebraic"] for (x0, y0, _l, _v) in bases
            ],
            "omega_edges": [omega1_edge, omega2_edge],
        },
    )
    fan._deepen_state = state
    return fan


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
    return Fan(
        kind="point_centered",
        form_tag=form,
        chart=decomp.scene.chart,
        orderings=[
            ArcOrdering(g1, 1),
            ArcOrdering(g1, -1),
            ArcOrdering(g2, 1),
            ArcOrdering(g2, -1),
        ],
        center=fam.center,
        meta={
            "delta": fam.delta,
            "N": fam.N,
            "terms": [[n, str(c)] for n, c in fam.kept],
            "m": fam.m,
            "a1": str(g1.slot.a),
            "a2": str(g2.slot.a),
            "eta": g1.slot.eta,
            "eta_prime": g2.slot.eta,
            "swapped": fam.swapped,
            "component_level": D.level,
        },
    )


def _validate_star_property(D: ExceptionalComponent, fam: ArcFamily, mids: tuple[Fraction, ...]) -> None:
    """The lifted instances must cross the component transversally at the
    prescribed, distinct, unmarked positions."""
    if mids[0] == mids[1]:
        raise BasixError("witness gaps must give distinct crossing points")
    for v_ in mids:
        for mp in D.marked:
            if mp.v.lo <= v_ <= mp.v.hi:
                raise BasixError("witness parameter hits a marked point")
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
            raise BasixError("witness lift leaves the component's chart word")
        if word[-1][1] != v_:
            raise BasixError("witness lift crosses at an unexpected point")


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
    m = fan.meta
    if fan.kind == "point_centered" and not m.get("swapped") and fan.center is not None:
        cx, cy = fan.center
        mid = (F(m["a1"]) + F(m["a2"])) / 2 if isinstance(m.get("a1"), str) else None
        if mid is not None and m["N"] == 1:
            sep = BiPoly.y() - BiPoly.const(cy)
            xx = BiPoly.x() - BiPoly.const(cx)
            for n, c in [(int(n), F(c)) for n, c in m.get("terms", [])]:
                sep = sep - (xx**n).scale(F(c))
            sep = sep - (xx ** m["m"]).scale(mid)
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


def fan_to_json(fan: Fan) -> str:
    d: dict = {
        "kind": fan.kind,
        "form_tag": fan.form_tag,
        "chart": fan.chart,
        "pair_structure": "alpha1,alpha2 -> tau1; alpha3,alpha4 -> tau2",
    }
    if fan.kind == "point_centered":
        if fan.center is None:
            raise InternalError("a point-centred fan has a centre")
        d["center"] = [str(fan.center[0]), str(fan.center[1])]
        d.update(
            {
                "delta": fan.meta["delta"],
                "N": fan.meta["N"],
                "terms": fan.meta["terms"],
                "m": fan.meta["m"],
                "a1": fan.meta["a1"],
                "a2": fan.meta["a2"],
                "eta": fan.meta["eta"],
                "eta_prime": fan.meta["eta_prime"],
                "swapped": fan.meta.get("swapped", False),
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
                    "w_form": a.slot.form if a.slot else None,
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
    d = json.loads(text)
    if d["kind"] == "point_centered":
        center = (F(d["center"][0]), F(d["center"][1]))
        kept = tuple((int(n), F(c)) for n, c in d["terms"])
        fam = ArcFamily(center, int(d["delta"]), int(d["N"]), kept, int(d["m"]), bool(d.get("swapped", False)))
        g1 = fam.make_at(int(d["eta"]), F(d["a1"]))
        g2 = fam.make_at(int(d["eta_prime"]), F(d["a2"]))
        return Fan(
            kind="point_centered",
            form_tag=d["form_tag"],
            chart=d.get("chart", "affine"),
            orderings=[
                ArcOrdering(g1, 1),
                ArcOrdering(g1, -1),
                ArcOrdering(g2, 1),
                ArcOrdering(g2, -1),
            ],
            center=center,
            meta={k: d[k] for k in ("delta", "N", "terms", "m", "a1", "a2", "eta", "eta_prime")},
        )
    factor = d["factor"]
    poly = scene.factors.get(factor)
    if poly is None:
        raise BasixError(f"fan references unknown factor {factor!r}")
    orderings: list[Ordering] = []
    for a in d["orderings"]:
        arc = PuiseuxArc(
            (F(a["center"][0]), F(a["center"][1])),
            int(a["delta"]),
            int(a["N"]),
            tuple((int(n), F(c)) for n, c in a["terms"]),
            a["truncation"],
            slot=Slot(int(a["m"]), int(a["eta"]), F(a["a"]), a["w_form"]) if a["m"] is not None else None,
            swapped=bool(a.get("swapped", False)),
            on_factor=factor,
        )
        orderings.append(ArcOrdering(arc, int(a["side"]), on_poly=poly))
    return Fan(
        kind="curve_centered",
        form_tag=d["form_tag"],
        chart=d.get("chart", "affine"),
        orderings=orderings,
        factor=factor,
    )
