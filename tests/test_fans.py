import random
from fractions import Fraction

import pytest
from conftest import bench_scene_texts, bench_workload, load_fixture, swap_scene
from hypothesis import given, settings, strategies as st

from basix.arrangement import build_arrangement
from basix.bipoly import BiPoly
from basix.checker import PROPERTIES, CheckRequest, run_check
from basix.decompose import decompose_set
from basix.errors import BasixError, Unsupported
from basix.fans import (
    Fan,
    ArcOrdering,
    fan_count_in_S,
    fan_from_json,
    fan_to_json,
    independent_count_check,
    verify_fan,
    witness_curve_fan,
    witness_point_fan,
)
from basix.parser import parse_polynomial
from basix.puiseux import PuiseuxArc, Slot, arc_sign
from basix.resolution import resolve_point
from basix.scene import Scene, invert_scene
from basix.series import compose_bipoly
from basix.signdist import condition_a_check

F = Fraction
P = parse_polynomial

QUAD = "factor a = x; factor b = y; set S = { a > 0, b > 0 };"
PARA = (
    "factor a = x; factor l = y; factor p = y - x^2;"
    "set S = { a < 0, l > 0, p != 0 } | { a > 0, l > 0, p < 0 };"
)
CUBIC = (
    "factor a = x; factor f0 = y - x^2; factor f1 = y - x^2 - x^3;"
    "factor f2 = y - x^2 - 2*x^3; factor f3 = y - x^2 - 3*x^3;"
    "set S = { f0 > 0, f1 < 0 } | { f0 < 0, f1 > 0 } | { a < 0, f2 < 0, f3 > 0 };"
)


def D_of(text):
    sc = Scene.from_text(text)
    return decompose_set(build_arrangement(sc), sc)


def quad_fan():
    """Fan along y = 0 with base points (1, 0) and (-1, 0)."""
    d = D_of(QUAD)
    arr = d.arrangement
    pos_edge = neg_edge = None
    for e in arr.edges_of_factor("b"):
        x, _y = arr.edge_sample(e)
        if x > 0:
            pos_edge = e.eid
        else:
            neg_edge = e.eid
    return d, witness_curve_fan(d, "b", pos_edge, neg_edge)


def test_quad_fan_signs():
    d, fan = quad_fan()
    assert fan.sign_vector(P("x")) == (1, 1, -1, -1)
    assert fan.sign_vector(P("y")) == (1, -1, 1, -1)
    assert fan.sign_vector(P("x^2 + y^2 + 1")) == (1, 1, 1, 1)


def test_quad_fan_count_one():
    d, fan = quad_fan()
    assert fan_count_in_S(fan, d.scene) == 1


def test_para_curve_fan_count_three():
    d = D_of(PARA)
    fail = condition_a_check(d)
    assert fail is not None and fail.factor == "p"
    cc = fail.classification
    fan = witness_curve_fan(d, "p", cc.omega1[0], cc.omega2_plus[0])
    scene = d.scene
    assert fan_count_in_S(fan, scene) == 3
    rep = verify_fan(fan, scene)
    assert rep.product_law_ok and rep.distinct


def test_cubic_point_fan():
    sc = Scene.from_text(CUBIC)
    d = decompose_set(build_arrangement(sc), sc)
    factors = {n: sc.factors[n] for n in ("f0", "f1", "f2", "f3")}
    tree = resolve_point(factors, (F(0), F(0)))
    E3 = tree.components[-1]
    fan = witness_point_fan(E3, F(1, 2), F(5, 2), d)
    assert fan.form_tag == "4.1-2b"
    assert fan_count_in_S(fan, sc) == 3
    # the spec's concrete witness: x = t, y = t^2 + (z + 1/2) t^3 etc.
    a1 = fan.orderings[0].arc
    assert a1.terms == ((2, F(1)),) and a1.slot.m == 3 and a1.slot.a == F(1, 2)
    rep = verify_fan(fan, sc)
    assert rep.product_law_ok and rep.distinct


def test_cubic_point_fan_flipped_etas():
    sc = Scene.from_text(CUBIC)
    d = decompose_set(build_arrangement(sc), sc)
    factors = {n: sc.factors[n] for n in ("f0", "f1", "f2", "f3")}
    tree = resolve_point(factors, (F(0), F(0)))
    E3 = tree.components[-1]
    fan = witness_point_fan(E3, F(1, 2), F(5, 2), d, eta=-1, eta_prime=-1)
    assert fan_count_in_S(fan, sc) == 3


def test_product_law_random_polys():
    sc = Scene.from_text(CUBIC)
    d = decompose_set(build_arrangement(sc), sc)
    factors = {n: sc.factors[n] for n in ("f0", "f1", "f2", "f3")}
    tree = resolve_point(factors, (F(0), F(0)))
    fan = witness_point_fan(tree.components[-1], F(1, 2), F(5, 2), d)
    rng = random.Random(17)
    for _ in range(120):
        terms = {}
        for _k in range(rng.randint(1, 6)):
            terms[(rng.randint(0, 4), rng.randint(0, 4))] = F(rng.randint(-9, 9))
        g = BiPoly(terms)
        if g.is_zero():
            continue
        s = fan.sign_vector(g)  # the product law is asserted internally
        assert s[0] * s[1] * s[2] == s[3]


def test_corrupted_fan_fails():
    d, fan = quad_fan()
    # flip one tail sign: orderings 1 and 3 become identical
    o1 = fan.orderings[0]
    bad = Fan(
        kind=fan.kind,
        form_tag=fan.form_tag,
        chart=fan.chart,
        orderings=[fan.orderings[0], fan.orderings[1], fan.orderings[0], fan.orderings[3]],
        factor=fan.factor,
        family=fan.family,
    )
    rep = verify_fan(bad, d.scene)
    assert not (rep.product_law_ok and rep.distinct)


def test_trivial_fan_distinctness_fails():
    d, fan = quad_fan()
    o = fan.orderings[0]
    triv = Fan(fan.kind, fan.form_tag, fan.chart, [o, o, o, o], factor=fan.factor)
    rep = verify_fan(triv, d.scene)
    assert not rep.distinct


def test_fan_json_roundtrip_point():
    sc = Scene.from_text(CUBIC)
    d = decompose_set(build_arrangement(sc), sc)
    factors = {n: sc.factors[n] for n in ("f0", "f1", "f2", "f3")}
    tree = resolve_point(factors, (F(0), F(0)))
    fan = witness_point_fan(tree.components[-1], F(1, 2), F(5, 2), d)
    text = fan_to_json(fan)
    back = fan_from_json(text, sc)
    for g in [sc.factors[n] for n in sc.order]:
        assert fan.sign_vector(g) == back.sign_vector(g)
    assert fan_count_in_S(back, sc) == 3


def test_fan_json_roundtrip_curve():
    d, fan = quad_fan()
    sc = d.scene
    text = fan_to_json(fan)
    back = fan_from_json(text, sc)
    for g in [sc.factors[n] for n in sc.order] + [P("x + y"), P("x*y - 3")]:
        assert fan.sign_vector(g) == back.sign_vector(g)


def test_independent_count_check():
    sc = Scene.from_text(CUBIC)
    d = decompose_set(build_arrangement(sc), sc)
    factors = {n: sc.factors[n] for n in ("f0", "f1", "f2", "f3")}
    tree = resolve_point(factors, (F(0), F(0)))
    fan = witness_point_fan(tree.components[-1], F(1, 2), F(5, 2), d)
    assert independent_count_check(fan, sc) == 3
    dq, fanq = quad_fan()
    assert independent_count_check(fanq, dq.scene) == 1


FIXTURE_NAMES = ("cubic", "half", "para", "quad", "saddle")


def test_fan_json_round_trip_of_every_witness(monkeypatch):
    scenes = [load_fixture(n) for n in FIXTURE_NAMES]
    blowup = bench_scene_texts(monkeypatch, "blowup")
    scenes += [swap_scene(sc) for sc in scenes] + [Scene.from_text(t) for t in blowup.values()]
    texts = []
    for sc in scenes:
        for prop in PROPERTIES:
            v = run_check(CheckRequest(sc, prop))
            if v.witness is None:
                continue
            try:
                texts.append((fan_to_json(v.witness), sc))
            except Unsupported:
                continue  # a curve fan at an irrational ordinate
    assert len(texts) == 26
    assert any('"swapped": true' in t for t, _sc in texts)
    for text, sc in texts:
        assert fan_to_json(fan_from_json(text, sc)) == text


def _composed_sign(g, arc, side):
    """The sign of g along the half-arc from the full composition."""
    comp = compose_bipoly(g, *arc.xy_series())
    return (comp.negate_t() if side < 0 else comp).sign_small_pos_t()


def test_t0_line_signs_match_the_full_composition(monkeypatch):
    # arc_sign reads a polynomial from its t^0 term h(z) along the arc's t^0
    # line when h is not identically zero; on every fan ordering signed on
    # the fixtures, their inversions and their swaps it agrees with the sign
    # of the full composition, and so does every signed polynomial moved to
    # vanish at the line's start (z = 0), which the t^0 line still decides on
    # a curve fan's slot at t^0 and arc_sign composes on a point fan's arc
    signed = []
    sign = ArcOrdering.sign

    def recording(self, g):
        signed.append((self.arc, self.side, g))
        return sign(self, g)

    monkeypatch.setattr(ArcOrdering, "sign", recording)
    scenes = []
    for name in FIXTURE_NAMES:
        fx = load_fixture(name)
        inv = invert_scene(fx)
        scenes += [fx, Scene(inv.factors, inv.order, inv.formula, "affine"), swap_scene(fx)]
    for sc in scenes:
        for prop in PROPERTIES:
            run_check(CheckRequest(sc, prop))
    on_line = at_start = 0
    for arc, side, g in signed:
        u, v, eta, swapped = arc.t0_line
        start = (v, u) if swapped else (u, v)
        on_line += eta != 0
        at_start += g.sign_at(*start) != 0
        for h in (g, g - BiPoly.const(g.eval(*start))):
            assert arc_sign(h, arc, side) == _composed_sign(h, arc, side), (arc, side, h)
    assert 0 < at_start < len(signed) and 0 < on_line < len(signed), (at_start, on_line, len(signed))


_t0_values = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def _t0_cases(draw):
    """An arc whose exponents are at least 1, with its slot at t^0 or above,
    and a polynomial g(X, Y) in the arc's own coordinates (X the
    parameter's, Y the body's; the arc's x and y are exchanged when it is
    swapped): a multiple of (X - u), alone (divisible by X - u), plus
    c (Y - v)^k and a multiple of (X - u)(Y - v)^k (c != 0, vanishing to
    order k = 1, 2 or 3 along the t^0 line) or plus a random part."""
    u, v = draw(_t0_values), draw(_t0_values)
    exps = sorted(draw(st.sets(st.integers(1, 4), max_size=3)))
    terms = tuple((e, draw(_t0_values.filter(bool))) for e in exps)
    trunc = draw(st.one_of(st.none(), st.integers(max(exps, default=0) + 1, 6)))
    m = draw(st.one_of(st.just(0), st.integers(1, 3)))
    slot = Slot(m, draw(st.sampled_from((1, -1))), v if m == 0 else draw(_t0_values))
    delta, N, swapped = draw(st.sampled_from((1, -1))), draw(st.integers(1, 3)), draw(st.booleans())
    arc = PuiseuxArc((u, F(0)) if m == 0 else (u, v), delta, N, terms, trunc, slot, swapped)
    X, Y = BiPoly.x() - BiPoly.const(u), BiPoly.y() - BiPoly.const(v)

    def poly():
        return BiPoly({(i, j): draw(st.integers(-3, 3)) for i in range(3) for j in range(3)})

    g = X * poly()
    kind = draw(st.sampled_from(("order k", "random", "divisible")))
    if kind == "order k":
        g = g + Y ** draw(st.integers(1, 3)) * (BiPoly.const(draw(st.sampled_from((1, -2)))) + X * poly())
    elif kind == "random":
        g = g + poly()
    return arc, (g.swap_xy() if swapped else g), draw(st.sampled_from((1, -1)))


@given(_t0_cases())
@settings(max_examples=300, deadline=None)
def test_random_arcs_t0_line_sign_matches_the_full_composition(case):
    # the t^0 line decides exactly when the composition's t^0 term is not
    # identically zero, and then gives the composition's sign: on vanishing
    # to order k >= 2 along the line, on g divisible by x - u (where the
    # composition decides), on swapped arcs and on both sides
    arc, g, side = case
    assert arc_sign(g, arc, side) == _composed_sign(g, arc, side), (arc, g, side)


def test_counting_a_curve_fan_composes_nothing(monkeypatch):
    # every scene factor along a curve-fan ordering is decided on its t^0
    # line: the fan's own factor has h'(0) = eta * f_y != 0 at the smooth
    # edge sample, and no other factor vanishes on the line through it; so
    # counting the curve fans of the fixtures and of the lines workload
    # composes no polynomial with an arc
    from basix import checker, puiseux

    curve_fans, composed = [0], []
    inside = [False]
    compose, count = puiseux.compose_bipoly, checker.fan_count_in_S

    def counted_compose(g, xs, ys):
        if inside[0]:
            composed.append(g)
        return compose(g, xs, ys)

    def counted_count(fan, scene):
        inside[0] = fan.kind == "curve_centered"
        curve_fans[0] += inside[0]
        try:
            return count(fan, scene)
        finally:
            inside[0] = False

    monkeypatch.setattr(puiseux, "compose_bipoly", counted_compose)
    monkeypatch.setattr(checker, "fan_count_in_S", counted_count)
    texts, checks = bench_workload(monkeypatch, "lines")
    scenes = [(load_fixture(n), prop) for n in FIXTURE_NAMES for prop in PROPERTIES]
    scenes += [(Scene.from_text(texts[c.scene]), c.prop) for c in checks]
    for sc, prop in scenes:
        run_check(CheckRequest(sc, prop))
    assert curve_fans[0] >= 10 and composed == [], (curve_fans[0], len(composed))
