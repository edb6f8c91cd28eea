from dataclasses import dataclass, field
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import load_fixture

from basix import puiseux
from basix.bipoly import BiPoly

from basix.arrangement import build_arrangement
from basix.decompose import decompose_set
from basix.errors import BasixError, Unsupported
from basix.fans import _K0
from basix.parser import parse_polynomial
from basix.realroots import rational_roots
from basix.puiseux import (
    NotOnCurve,
    PuiseuxArc,
    Slot,
    arc_sign,
    certified_point,
    residual_order,
    simulate_branch_blowups,
    smooth_branch,
)
from basix.resolution import component_family, resolve_point
from basix.scene import Scene, invert_scene
from basix.series import TSeries, compose_bipoly, series_div_unit
from basix.unipoly import UniPoly
from test_algebra import _ref_subst

F = Fraction


def decompose_text(text):
    sc = Scene.from_text(text)
    return decompose_set(build_arrangement(sc), sc)
P = parse_polynomial


# ------------------------------------------------------------------ the branch-set oracle

# The Newton-polygon recursion with a Hensel lift at regular leaves, passing
# the same K to every level: every real branch of a curve at a point, which
# the engine never expands (resolution blows up at a multiple tangent line
# instead).  Only rational characteristic roots are supported.

_DEPTH_CAP = 64


def _divide_y_power(p: BiPoly) -> tuple[BiPoly, int]:
    if p.is_zero():
        return p, 0
    m = min(j for _i, j in p.t)
    if m == 0:
        return p, 0
    return BiPoly({(i, j - m): v for (i, j), v in p.t.items()}), m


def _edge_polynomial(sup, j1, i1, j2, i2, q) -> UniPoly:
    coeffs = {}
    # points on the segment from (j1, i1) to (j2, i2) in the (j, i) plane
    for i, j, a in sup:
        if j1 <= j <= j2 and (i - i1) * (j2 - j1) == (j - j1) * (i2 - i1):
            k = (j - j1) // q
            coeffs[k] = coeffs.get(k, F(0)) + a
    return UniPoly([coeffs.get(k, F(0)) for k in range(max(coeffs) + 1)])


def _rational_roots(psi: UniPoly) -> list[Fraction]:
    """Nonzero rational roots; a real irrational root raises Unsupported."""
    roots, irrational = rational_roots(psi.int_primitive())
    if irrational:
        raise Unsupported("NonRationalCoefficient", "irrational characteristic root in a branch expansion")
    return [r for r in roots if r != 0]


def _hensel_reference(Fp, K):
    """The Hensel lift composing with the exact, untruncated y."""
    xs = TSeries.make({1: UniPoly.const(1)}, None)
    y = TSeries.zero(None)
    Fy = Fp.partial_y()
    p = 1
    while p < K:
        p = min(2 * p, K)
        num = compose_bipoly(Fp, xs, y)
        den = compose_bipoly(Fy, xs, y)
        q = series_div_unit(num, den, p)
        y = TSeries.make({e: v for e, v in (y - q).coeff if e < p}, None)
    return {e: v.c[0] for e, v in y.coeff if v.c}


def _expand_reference(Fp, K, depth=0):
    """Branches (N, {exponent: coefficient}, exact-order) of Fp at the
    origin, with x = t^N and y = sum of the terms, exact below t^K."""
    if depth > _DEPTH_CAP:
        raise Unsupported("DepthCap", "branch expansion recursion too deep")
    out = []
    Fp, _ = puiseux._divide_x_power(Fp)
    Fp, ymult = _divide_y_power(Fp)
    if ymult > 0:
        out.append((1, {}, None))  # the horizontal axis branch
    if Fp.eval(0, 0) != 0 or Fp.deg_y == 0:
        return out
    if Fp.partial_y().eval(0, 0) != 0:
        out.append((1, _hensel_reference(Fp, K), K))
        return out
    sup = [(i, j, a) for (i, j), a in Fp.t.items()]
    pts = {}
    for i, j, _a in sup:
        pts[j] = min(pts.get(j, i), i)
    hull = []  # (j, i) lower hull, increasing j
    for j in sorted(pts):
        i = pts[j]
        while len(hull) >= 2:
            (j0, i0), (j1, i1) = hull[-2], hull[-1]
            if (i1 - i0) * (j - j0) >= (i - i0) * (j1 - j0):
                hull.pop()
            else:
                break
        hull.append((j, i))
    for (j1, i1), (j2, i2) in zip(hull, hull[1:]):
        if i2 >= i1:
            continue  # only descending edges give branches through y = 0
        mu = F(i1 - i2, j2 - j1)
        p, q = mu.numerator, mu.denominator
        psi = _edge_polynomial(sup, j1, i1, j2, i2, q)
        for c in _rational_roots(psi):
            G = _ref_subst(Fp, BiPoly({(q, 0): F(1)}), BiPoly({(p, 0): c, (p, 1): F(1)}))
            G, _m = puiseux._divide_x_power(G)
            for N1, terms1, upto1 in _expand_reference(G, K, depth + 1):
                terms = {p * N1: c}
                for n, b in terms1.items():
                    terms[p * N1 + n] = b
                out.append((q * N1, terms, None if upto1 is None else p * N1 + upto1))
    return out


def _mu_eff(N, terms):
    exps = [n for n, c in terms.items() if c != 0]
    return F(min(exps), N) if exps else None  # None: the axis branch


def branch_set(f: BiPoly, center: tuple[Fraction, Fraction], K: int) -> list[PuiseuxArc]:
    """All real branches of f through the center, truncated at t^K: the
    graphs over x on both sides, then the graphs over y tangent to x = 0."""
    cx, cy = F(center[0]), F(center[1])
    if f.eval(cx, cy) != 0:
        raise NotOnCurve(f"({cx}, {cy}) is not on the curve")
    T = f.translate(cx, cy)
    arcs = []

    def emit(raw, delta, swapped, keep):
        for N, terms, upto in raw:
            if not keep(_mu_eff(N, terms)):
                continue
            if delta == -1 and N % 2 == 1:
                continue  # odd ramification already covers both sides
            tt = tuple(sorted((n, c) for n, c in terms.items() if c != 0))
            trunc = upto if upto is None else min(upto, K)
            if trunc is not None:
                tt = tuple((n, c) for n, c in tt if n < trunc)
            arcs.append(PuiseuxArc((cx, cy), delta, N, tt, trunc, swapped=swapped))

    ge1 = lambda mu: mu is None or mu >= 1
    gt1 = lambda mu: mu is None or mu > 1
    emit(_expand_reference(T, K), 1, False, ge1)
    emit(_expand_reference(T.monomial_subst((1, 0), (0, 1), -1), K), -1, False, ge1)
    Ts = T.swap_xy()
    emit(_expand_reference(Ts, K), 1, True, gt1)
    emit(_expand_reference(Ts.monomial_subst((1, 0), (0, 1), -1), K), -1, True, gt1)
    return arcs


def newton_puiseux(f: BiPoly, center: tuple[Fraction, Fraction], K: int) -> list[PuiseuxArc]:
    """The oracle's branch set, with the residual guarantee that composing
    f with each branch vanishes exactly modulo t^truncation."""
    arcs = branch_set(f, center, K)
    for a in arcs:
        r = residual_order(f, a)
        if r is not None:
            raise BasixError(f"branch residual of order {r} below truncation")
    return arcs


def arcs_of(text, center=(0, 0), K=16):
    return newton_puiseux(P(text), (F(center[0]), F(center[1])), K)


# ------------------------------------------------------------------ expansion


def test_cusp_single_branch():
    arcs = arcs_of("y^2 - x^3")
    assert len(arcs) == 1
    a = arcs[0]
    assert (a.delta, a.N, a.swapped) == (1, 2, False)
    assert a.terms == ((3, F(1)),)
    # exact residual: t^6 - t^6 = 0
    assert residual_order(P("y^2 - x^3"), a) is None


def test_parabola_branch():
    arcs = arcs_of("y - x^2")
    assert len(arcs) == 1
    assert arcs[0].N == 1
    assert arcs[0].terms == ((2, F(1)),)


def test_node_two_branches_binomial_series():
    arcs = arcs_of("y^2 - x^2*(x + 1)", K=8)
    assert len(arcs) == 2
    # y = +-(x + x^2/2 - x^3/8 + ...)
    pos = [a for a in arcs if a.terms[0][1] > 0][0]
    d = dict(pos.terms)
    assert d[1] == 1 and d[2] == F(1, 2) and d[3] == -F(1, 8)
    for a in arcs:
        assert residual_order(P("y^2 - x^2*(x + 1)"), a) is None


def test_axis_branches():
    arcs = arcs_of("x*y - x^3")  # not squarefree-coprime scene-wise but fine here
    swapped = [a for a in arcs if a.swapped]
    graphs = [a for a in arcs if not a.swapped]
    assert len(swapped) == 1  # the vertical line x = 0
    assert len(graphs) == 1 and dict(graphs[0].terms) == {2: F(1)}


def test_circle_vertical_tangent_swapped():
    arcs = newton_puiseux(P("x^2 + y^2 - 1"), (F(1), F(0)), 10)
    assert len(arcs) == 1
    a = arcs[0]
    # parametrized by y: y = t, x = 1 - t^2/2 - t^4/8 - ...
    assert a.swapped and a.N == 1 and a.delta == 1
    d = dict(a.terms)
    assert d[2] == -F(1, 2) and d[4] == -F(1, 8)


def test_not_on_curve():
    with pytest.raises(NotOnCurve):
        newton_puiseux(P("y - x^2"), (F(1), F(5)), 8)


def test_irrational_characteristic_root_unsupported():
    with pytest.raises(Unsupported):
        newton_puiseux(P("y^2 - 2*x^2 + x^3"), (F(0), F(0)), 8)


def test_node_with_irrational_tangents_is_unsupported():
    # tangent slopes +-sqrt 2: the edge polynomial c^2 - 2 has no rational root
    with pytest.raises(Unsupported) as exc:
        branch_set(P("y^2 - x^3 - 2*x^2"), (F(0), F(0)), 10)
    assert exc.value.reason == "NonRationalCoefficient"


FIXTURE_NAMES = ("cubic", "half", "para", "quad", "saddle")


def _rational_edge_samples():
    """(factor, point) at each rational sample of a curve edge of the
    fixtures and their inversions."""
    for name in FIXTURE_NAMES:
        sc = load_fixture(name)
        for scene in (sc, invert_scene(sc)):
            arr = build_arrangement(scene)
            for e in arr.edges:
                if e.vertical:
                    continue
                x0, yloc = arr.edge_sample(e)
                if yloc.exact is not None:
                    yield arr.factors[e.factor], (x0, yloc.exact)


def _graph_arc(f, point, K=_K0):
    (arc,) = [a for a in newton_puiseux(f, point, K) if not a.swapped]
    return arc


def test_smooth_branch_is_the_graph_arc_of_the_branch_set_at_edge_samples():
    # equal arcs have equal terms and truncation; the horizontal line y = 0
    # of quad gives an axis branch, with no truncation
    truncations = []
    for f, pt in _rational_edge_samples():
        arc = smooth_branch(f, pt, _K0)
        assert arc == _graph_arc(f, pt), (f.to_text(), pt)
        truncations.append(arc.truncation)
    assert len(truncations) >= 20 and None in truncations


@pytest.mark.parametrize(
    "text, point, truncation",
    [
        ("2*y - 1", (3, F(1, 2)), None),  # a horizontal line: the axis branch
        ("x^2 + 2*y^2 - 2", (0, 1), _K0),  # the top of an ellipse: a horizontal tangent
        ("y - x^20", (0, 0), _K0),  # flat below t^K: no terms, still truncated
        ("y^2 + x*y - 3 + x^3", (1, 1), _K0),
    ],
)
def test_smooth_branch_examples(text, point, truncation):
    f, pt = P(text), (F(point[0]), F(point[1]))
    got = smooth_branch(f, pt, _K0)
    assert got == _graph_arc(f, pt)
    assert got.truncation == truncation


def test_smooth_branch_needs_a_smooth_graph_point():
    with pytest.raises(NotOnCurve):
        smooth_branch(P("y - x^2"), (F(1), F(5)), 8)
    with pytest.raises(BasixError, match="f_y vanishes"):
        smooth_branch(P("x^2 + y^2 - 1"), (F(1), F(0)), 8)


def mkarc(terms, N=1, delta=1, trunc=None, center=(0, 0), slot=None):
    return PuiseuxArc(
        (F(center[0]), F(center[1])),
        delta,
        N,
        tuple((n, F(c)) for n, c in terms),
        trunc,
        slot=slot,
    )


# ------------------------------------------------------------------ signs


def test_arc_sign_basic():
    cusp = mkarc([(3, 1)], N=2)  # x = t^2, y = t^3
    assert arc_sign(P("y"), cusp, 1) == 1
    assert arc_sign(P("y"), cusp, -1) == -1
    assert arc_sign(P("x^2 + y^2"), cusp, 1) == 1
    assert arc_sign(P("x^2 + y^2"), cusp, -1) == 1


def test_arc_sign_slot():
    arc = mkarc([(2, 1)], slot=Slot(3, 1, F(1, 2)))  # y = t^2 + (z + 1/2) t^3
    g = P("y - x^2")
    assert arc_sign(g, arc, 1) == 1
    assert arc_sign(g, arc, -1) == -1
    h = P("y - x^2 - x^3")  # coefficient (z - 1/2): negative for small z
    assert arc_sign(h, arc, 1) == -1
    assert arc_sign(h, arc, -1) == 1


def test_arc_sign_zero_slot_coefficient_uses_z():
    arc = mkarc([(2, 1)], slot=Slot(3, 1, F(0)))  # tail z * t^3
    g = P("y - x^2")
    assert arc_sign(g, arc, 1) == 1  # sign of z for small z > 0
    assert arc_sign(g, arc, -1) == -1


def test_arc_sign_vanishing_needs_division():
    f = P("y^2 - x^3")
    arcs = newton_puiseux(f, (F(0), F(0)), 12)
    a = arcs[0]
    g = f * P("x + y + 1")
    s = arc_sign(g, a, 1)
    assert s == 0  # g vanishes identically on the branch


# ------------------------------------------------------------------ blow-up families


def test_simulate_blowups_parabola():
    arcs = arcs_of("y - x^2", K=12)
    word = simulate_branch_blowups(arcs[0], 3)
    assert [k for k, _c in word] == ["x", "x", "x"]
    assert [c for _k, c in word] == [F(0), F(1), F(0)]


# the transversal families of real resolution components

CUBIC_TREE = {"f0": "y - x^2", "f1": "y - x^2 - x^3", "f2": "y - x^2 - 2*x^3", "f3": "y - x^2 - 3*x^3"}


def components_of(factors):
    return resolve_point({n: P(s) for n, s in factors.items()}, (F(0), F(0))).components


def test_family_level_3_cubic():
    fam = component_family(components_of(CUBIC_TREE)[2])
    assert (fam.N, fam.m, fam.delta, fam.swapped) == (1, 3, 1, False)
    assert fam.kept == ((2, F(1)),)
    arc = fam.make_at(1, F(1, 2))
    assert arc.slot is not None and arc.slot.m == 3


def test_family_level_1_trivial():
    fam = component_family(components_of(CUBIC_TREE)[0])
    assert (fam.N, fam.m, fam.kept) == (1, 1, ())


def test_family_level_1_cusp():
    fam = component_family(components_of({"c": "y^2 - x^3"})[0])
    assert (fam.N, fam.m, fam.kept) == (1, 1, ())


def test_family_level_2_cusp():
    fam = component_family(components_of({"c": "y^2 - x^3"})[1])
    assert (fam.N, fam.m) == (1, 2)
    assert fam.kept == ()


def test_family_instances_cross_at_distinct_points():
    D = components_of(CUBIC_TREE)[2]
    fam = component_family(D)
    # lift the z = 0 representative of each instance through the component's levels
    for v in (F(1, 2), F(5, 2)):
        a = fam.make_at(1, v)
        rep = PuiseuxArc(a.center, a.delta, a.N, a.terms + ((a.slot.m, a.slot.a),), None)
        word = simulate_branch_blowups(rep, D.level)
        assert [k for k, _c in word] == [s.kind for s in D.chart.steps]
        assert word[-1][1] == v


SWAPPED_CUBIC_TREE = {"f0": "x - y^2", "f1": "x - y^2 - y^3", "f2": "x - y^2 - 2*y^3", "f3": "x - y^2 - 3*y^3"}


def test_family_instances_lift_through_y_charts():
    # the x<->y swap of the cubic tree: D3 has the chart word (y, x, x) and a
    # swapped family, whose lift must read the y-chart coordinates as (y, x/y)
    D = components_of(SWAPPED_CUBIC_TREE)[2]
    assert [s.kind for s in D.chart.steps] == ["y", "x", "x"]
    fam = component_family(D)
    assert fam.swapped
    for v in (F(1, 2), F(5, 2)):
        a = fam.make_at(1, v)
        rep = PuiseuxArc(a.center, a.delta, a.N, a.terms + ((a.slot.m, a.slot.a),), None, swapped=True)
        word = simulate_branch_blowups(rep, D.level)
        assert [k for k, _c in word] == ["y", "x", "x"]
        assert word[-1][1] == v


# ------------------------------------------------------------------ truncation


@st.composite
def _y_regular(draw):
    """Fp(0, 0) = 0 and Fy(0, 0) != 0, with rational coefficients."""
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 3)).filter(lambda ij: ij not in ((0, 0), (0, 1))),
            st.fractions(min_value=-5, max_value=5, max_denominator=7),
            max_size=7,
        )
    )
    terms[(0, 1)] = draw(st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(lambda v: v != 0))
    return BiPoly(terms)


@given(_y_regular(), st.sampled_from((1, 2, 3, 8, 12, 16)))
@settings(max_examples=80, deadline=None)
def test_hensel_matches_series_lift(Fp, K):
    got = puiseux._hensel(Fp, K)
    want = _hensel_reference(Fp, K)
    assert list(got.items()) == list(want.items())
    assert all(type(v) is Fraction for v in got.values())


@pytest.mark.parametrize(
    "text",
    ["y^2 - x^3", "y^3 - x^4 + x^3*y", "y^2 - x^5", "(y - x^2)*(y + x^2)", "(y - x^2)*(y - x^2 - x^3)", "(y^2 - x^3)*(y - x^2)"],
)
@pytest.mark.parametrize("K", [2, 8, 10, 12])
def test_branch_set_matches_untruncated_expansion_examples(text, K):
    # the oracle's branch set at K is its expansion to a higher order cut at
    # t^K: no coefficient below t^K depends on where the expansion stops
    f = P(text)
    got = newton_puiseux(f, (F(0), F(0)), K)
    deeper = newton_puiseux(f, (F(0), F(0)), 2 * K + 4)
    assert got and len(got) == len(deeper)
    for a, b in zip(got, deeper):
        assert (a.N, a.delta, a.swapped) == (b.N, b.delta, b.swapped)
        assert a.terms == tuple((n, c) for n, c in b.terms if a.truncation is None or n < a.truncation)
        assert a.truncation == (None if b.truncation is None else K)


# ------------------------------------------------------------------ membership

# The membership oracles: a half-arc's region tag from its factor signs,
# composing each factor with the arc, and from a located certified point of
# the arc.  Condition (b) reads the same signs from total transforms and
# locates a point of the half-line from them
# (`resolution.classify_exceptional`, `resolution._located_tag`).


@dataclass(frozen=True)
class FamilyArc:
    """A raw parametric arc (x(t), y(t)): here the transversal line of a
    component's chart pushed down to the base chart (`family_arc`).  `arc_sign` and `certified_point` read it as
    they read a `PuiseuxArc`, with its composition memo and t^0 line."""

    xs: TSeries
    ys: TSeries
    _comp: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def xy_series(self) -> tuple[TSeries, TSeries]:
        return self.xs, self.ys

    composed = PuiseuxArc.composed

    @property
    def t0_line(self):
        """`PuiseuxArc.t0_line` read off the series: the t^0 terms of a
        transversal line pushed down are its centre, with no z."""
        start = []
        for s in (self.xs, self.ys):
            lead = s.leading()
            c = lead[1].c if lead is not None and lead[0] == 0 else (F(0),)
            assert len(c) == 1 and (s.trunc is None or s.trunc >= 1), s
            start.append(c[0])
        return start[0], start[1], 0, False


def family_arc(D, v: Fraction) -> FamilyArc:
    """The transversal family instance crossing the component D at v, pushed
    down to the base chart without performing any blow-up on it."""
    return FamilyArc(*D.chart.down_line(UniPoly.const(v)))


def located_membership(arc, side: int, decomp, signs: dict[str, int]) -> tuple:
    """The tag of the region holding a certified rational point of the
    half-arc, found by locating the point in the arrangement; `signs` are
    the half-arc's factor signs, every one nonzero, and the point must have
    them."""
    factors, order = decomp.scene.factors, decomp.scene.order
    z0 = F(1, 8)
    polys = [factors[n] for n in order]
    has_slot = isinstance(arc, FamilyArc) or arc.slot is not None
    for _ in range(24):
        pt = certified_point(arc, side, polys, z0 if has_slot else None)
        if all(factors[n].sign_at(*pt) == signs[n] for n in order):
            return decomp.located_tag(*pt)
        z0 = z0 / 2
    raise Unsupported("TruncationCap", "could not certify a concrete arc point")


def arc_region_membership(arc, side: int, decomp) -> tuple:
    """('in_S',) | ('in_A', i) | ('unsigned', region) | ('on_curve', factor)
    for the local region entered by the half-arc.

    The tag is read from the half-arc's signs.  For small t the half-arc
    lies in one 2-cell, on which every factor keeps its sign along it, so
    that cell's sign vector is the half-arc's; a tag shared by every region
    with that vector (`decomp.tag_of_signs`) is the cell's.  Only when
    regions with that vector carry different tags is a certified point of
    the arc located (`located_membership`)."""
    factors, order = decomp.scene.factors, decomp.scene.order
    signs: dict[str, int] = {}
    for n in order:
        s = arc_sign(factors[n], arc, side)
        if s is None:
            raise Unsupported("TruncationCap", f"sign of {n} unresolved along arc")
        if s == 0:
            return ("on_curve", n)
        signs[n] = s
    tag = decomp.tag_of_signs(signs)
    return tag if tag is not None else located_membership(arc, side, decomp, signs)


CUBIC = (
    "factor a = x; factor f0 = y - x^2; factor f1 = y - x^2 - x^3;"
    "factor f2 = y - x^2 - 2*x^3; factor f3 = y - x^2 - 3*x^3;"
    "set S = { f0 > 0, f1 < 0 } | { f0 < 0, f1 > 0 } | { a < 0, f2 < 0, f3 > 0 };"
)


def both_paths(arc, side, d):
    """The half-arc's tag from its sign vector (None when regions with that
    vector carry different tags) and at a located certified point."""
    signs = {n: arc_sign(d.scene.factors[n], arc, side) for n in d.scene.order}
    assert 0 not in signs.values()
    return d.tag_of_signs(signs), located_membership(arc, side, d, signs)


def test_arc_region_membership_cubic():
    d = decompose_text(CUBIC)
    arc_half = mkarc([(2, 1), (3, F(1, 2))])  # a = 1/2, z dropped
    assert arc_region_membership(arc_half, 1, d) == ("in_S",)
    assert arc_region_membership(arc_half, -1, d) == ("in_S",)
    arc_5_2 = mkarc([(2, 1), (3, F(5, 2))])
    got = arc_region_membership(arc_5_2, 1, d)
    assert got[0] == "in_A"
    arc_slot = mkarc([(2, 1)], slot=Slot(3, 1, F(1, 2)))
    assert arc_region_membership(arc_slot, 1, d) == ("in_S",)
    assert arc_region_membership(arc_slot, -1, d) == ("in_S",)
    arc_slot2 = mkarc([(2, 1)], slot=Slot(3, 1, F(5, 2)))
    assert arc_region_membership(arc_slot2, 1, d)[0] == "in_A"
    assert arc_region_membership(arc_slot2, -1, d) == ("in_S",)
    # every tag above is read from the sign vector, and a located point agrees
    for arc in (arc_half, arc_5_2, arc_slot, arc_slot2):
        for side in (1, -1):
            by_signs, located = both_paths(arc, side, d)
            assert by_signs == located == arc_region_membership(arc, side, d), (arc, side)


def test_a_sign_vector_of_regions_with_different_tags_locates_a_point(monkeypatch):
    # the two regions f > 0, above and below the hyperbola, are different
    # complement components with the one sign vector (+)
    d = decompose_text("factor f = y^2 - x^2 - 1; set S = { f < 0 };")
    assert d.tag_of_signs({"f": -1}) == ("in_S",)
    assert d.tag_of_signs({"f": 1}) is None
    up = mkarc([(1, 1)], center=(0, 1))  # (t, 1 + t)
    down = mkarc([(1, -1)], center=(0, -1))  # (t, -1 - t)
    located = []
    locate = d.located_tag
    monkeypatch.setattr(d, "located_tag", lambda x, y: located.append((x, y)) or locate(x, y))
    tags = [arc_region_membership(arc, 1, d) for arc in (up, down)]
    assert tags == [("in_A", 1), ("in_A", 0)]  # components in order of their lowest region
    assert len(located) == 2 and located[0][1] > 1 and located[1][1] < -1
    # the side into S is read from the signs, without a located point
    assert arc_region_membership(up, -1, d) == ("in_S",) and len(located) == 2
    assert tags == [d.tag_at(F(0), F(2)), d.tag_at(F(0), F(-2))]


def test_arc_on_curve_detected():
    d = decompose_text(CUBIC)
    on_f0 = mkarc([(2, 1)])
    got = arc_region_membership(on_f0, 1, d)
    assert got[0] == "on_curve" and got[1] == "f0"
