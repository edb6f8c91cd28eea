from fractions import Fraction

import pytest
from conftest import bench_scene_texts, bench_workload, int_primitive, load_fixture, swap_scene
from test_algebra import _RefSeries, _ref_subst, _ref_y_coeffs
from test_checker import IRRATIONAL_TANGENTS, LARGE_DENOMINATOR_POINTS
from test_puiseux import CUBIC_TREE, arc_region_membership, branch_set, components_of, family_arc, located_membership
from test_cli import DIVERGENT

from basix import checker, puiseux, resolution
from basix.arrangement import build_arrangement
from basix.bipoly import BiPoly
from basix.checker import PROPERTIES, CheckRequest, run_check
from basix.decompose import decompose_set
from basix.errors import Unsupported
from basix.parser import parse_polynomial
from basix.puiseux import ArcFamily
from basix.realroots import RootLocator, open_count, roots_equal
from basix.resolution import (
    classify_exceptional,
    local_analysis_points,
    resolve_point,
)
from basix.scene import Scene, invert_scene
from basix.series import compose_bipoly
from basix.unipoly import UniPoly

F = Fraction


def decompose_text(text):
    sc = Scene.from_text(text)
    return decompose_set(build_arrangement(sc), sc)
P = parse_polynomial

CUBIC = (
    "factor a = x; factor f0 = y - x^2; factor f1 = y - x^2 - x^3;"
    "factor f2 = y - x^2 - 2*x^3; factor f3 = y - x^2 - 3*x^3;"
    "set S = { f0 > 0, f1 < 0 } | { f0 < 0, f1 > 0 } | { a < 0, f2 < 0, f3 > 0 };"
)


def test_cross_already_normal_crossing():
    tree = resolve_point({"a": P("x"), "b": P("y")}, (F(0), F(0)))
    assert tree.components == []


def test_cusp_three_blowups():
    tree = resolve_point({"c": P("y^2 - x^3")}, (F(0), F(0)))
    assert len(tree.components) == 3


def test_nodal_point_is_normal_crossing():
    tree = resolve_point({"n": P("y^2 - x^2*(x + 1)")}, (F(0), F(0)))
    assert tree.components == []


def test_tacnode_resolves():
    # two parabola-like branches with second-order contact
    tree = resolve_point({"t": P("(y - x^2)*(y + x^2)")}, (F(0), F(0)))
    assert len(tree.components) >= 2


def test_cubic_fixture_marked_points():
    factors = {n: P(s) for n, s in [
        ("f0", "y - x^2"),
        ("f1", "y - x^2 - x^3"),
        ("f2", "y - x^2 - 2*x^3"),
        ("f3", "y - x^2 - 3*x^3"),
    ]}
    tree = resolve_point(factors, (F(0), F(0)))
    assert len(tree.components) == 3
    last = tree.components[-1]
    vs = sorted(m.v.exact for m in last.marked)
    assert vs == [F(0), F(1), F(2), F(3)]
    # the down map of the final chart is x = u, y = u^2 + u^3 v
    X, Y = last.chart.down_map()
    assert X == P("x")
    assert Y == P("x^2 + x^3*y")


def test_cubic_classification_and_dual_path():
    sc = Scene.from_text(CUBIC)
    d = decompose_set(build_arrangement(sc), sc)
    factors = {n: sc.factors[n] for n in ("f0", "f1", "f2", "f3")}
    tree = resolve_point(factors, (F(0), F(0)))
    E3 = tree.components[-1]
    # sigma with minus = the band between f2 and f3 at x > 0
    target = None
    for i, comp in enumerate(d.a_components):
        rid = next(iter(comp))
        x, y = d.arrangement.regions[rid].sample
        if x > 0 and sc.factors["f3"].sign_at(x, y) < 0 < sc.factors["f2"].sign_at(x, y):
            target = i
    assert target is not None
    cls = classify_exceptional(E3, d).against(target)
    assert cls.verdict == "PositiveTypeChanging"
    o2 = cls.omega2_plus[0]
    o1 = cls.omega1[0]
    assert (o2.vlo, o2.vhi) == (F(0), F(1))
    assert (o1.vlo, o1.vhi) == (F(2), F(3))
    # the earlier components stay harmless for this distribution
    for D in tree.components[:-1]:
        assert classify_exceptional(D, d).against(target).verdict != "PositiveTypeChanging"


def test_basic_set_never_positive_on_exceptionals():
    # S = {y > 0, y < x^2} is basic by definition
    sc = Scene.from_text("factor l = y; factor p = y - x^2; set S = { l > 0, p < 0 };")
    d = decompose_set(build_arrangement(sc), sc)
    tree = resolve_point({n: sc.factors[n] for n in ("l", "p")}, (F(0), F(0)))
    assert tree.components  # tangential contact needs at least one blow-up
    for D in tree.components:
        arcs = classify_exceptional(D, d)
        for i in range(len(d.a_components)):
            assert arcs.against(i).verdict != "PositiveTypeChanging"


def test_local_analysis_points_cubic():
    d = decompose_text(CUBIC)
    pts = local_analysis_points(d)
    assert len(pts) == 1
    ap = pts[0]
    assert ap.point == (F(0), F(0)) and ap.rational
    assert set(ap.factors) == {"f0", "f1", "f2", "f3"}


def test_local_analysis_cross_empty():
    d = decompose_text("set S = { x > 0, y > 0 };")
    assert local_analysis_points(d) == []


def test_local_analysis_cusp():
    d = decompose_text("set S = { y^2 - x^3 > 0 };")
    pts = local_analysis_points(d)
    assert len(pts) == 1 and pts[0].point == (F(0), F(0))


def test_down_map_consistency_random_points():
    # the chart map read on points, on polynomials and on the transversal
    # line through (t0, v) must agree, on the cusp's tree and the cubic's
    import random

    cusp = resolve_point({"c": P("y^2 - x^3")}, (F(0), F(0)))
    sc = Scene.from_text(CUBIC)
    cubic = resolve_point({n: sc.factors[n] for n in ("f0", "f1", "f2", "f3")}, (F(0), F(0)))
    rng = random.Random(5)
    for D in cusp.components + cubic.components:
        X, Y = D.chart.down_map()
        for _ in range(60):
            t0 = F(rng.randint(-50, 50), 64)
            v = F(rng.randint(-50, 50), 16)
            x, y = D.chart.down_point(t0, v)
            assert X.eval(t0, v) == x and Y.eval(t0, v) == y
            line = family_arc(D, v)
            assert line.xs.eval_t(t0) == x and line.ys.eval_t(t0) == y


def test_transversal_irrational_crossing_supported():
    # the parabolas cross transversally at (+-sqrt2, 0): fully supported
    sc_text = "factor f = y - x^2 + 2; factor g = y + x^2 - 2; set S = { f > 0, g < 0 };"
    sc = Scene.from_text(sc_text)
    arr = build_arrangement(sc)
    assert len(arr.vertices) == 2
    d = decompose_set(arr, sc)
    assert local_analysis_points(d) == []  # transversal crossings are exempt


def test_irrational_tangency_unsupported():
    # second-order contact along y = x^2 - 2 at x = +-sqrt2: the arrangement
    # finds both tangency points, and resolution refuses their irrational centre
    sc = Scene.from_text(
        "factor f = y - x^2 + 2; factor g = y - x^4 + 3*x^2 - 2;"
        "set S = { f > 0, g < 0 };"
    )
    arr = build_arrangement(sc)
    assert (len(arr.vertices), len(arr.edges), len(arr.regions)) == (2, 6, 5)
    assert [(v.factors, v.x.sign()) for v in arr.vertices] == [({"f", "g"}, -1), ({"f", "g"}, 1)]
    assert all(roots_equal(v.y, RootLocator.at(0)) for v in arr.vertices)
    v = run_check(CheckRequest(sc, "basic_open"))
    assert (v.answer, v.reason.split(":")[0]) == ("Unsupported", "NonRationalSingularPoint")


def _record_cones(monkeypatch) -> list[tuple[BiPoly, bool]]:
    """(polynomial, has a multiple real line) per cone resolution reads, in
    order."""
    calls = []
    cone_lines = resolution._cone_lines

    def recording(p):
        lines, multiple = cone_lines(p)
        calls.append((p, multiple))
        return lines, multiple

    monkeypatch.setattr(resolution, "_cone_lines", recording)
    return calls


def test_contact_of_order_three_expands_no_branch_set(monkeypatch):
    # contact(3) of the blowup benchmark: y = x^2 against y = x^2 + x^3; at
    # every site each local curve's lowest form has simple real lines only
    calls = _record_cones(monkeypatch)
    tree = resolve_point({"f": P("y - x^2"), "g": P("y - x^2 - x^3")}, (F(0), F(0)))
    assert calls and not any(multiple for _p, multiple in calls)
    assert tree.trace == [
        "blow-up 1: centre (0, 0) at depth 0, chart x",
        "blow-up 2: centre (0, 0) at depth 1, chart x",
        "blow-up 3: centre (0, 1) at depth 2, chart x",
    ]
    assert tree.certificate == [
        "D3 at v=0: transversal simple crossing",
        "D3 at v=1: transversal simple crossing",
        "D3 at v=inf: normal crossing",
        "D2 at v=inf: normal crossing",
    ]


def test_resolve_point_expands_each_branch_set_once(monkeypatch):
    # the pole pair of the blowup benchmark: f's lowest form is the double
    # line x = 0, so the first site is blown up without reading g's cone
    # there, and the y-chart is visited; every strict transform's cone has
    # simple lines only, and no cone is read twice
    f, g = P("y^3 + x^2*y - x^2"), P("y^3 + x^2*y - 2*x^2")
    calls = _record_cones(monkeypatch)
    tree = resolve_point({"f": f, "g": g}, (F(0), F(0)))
    assert calls[0] == (f, True)
    assert [p for p, multiple in calls if multiple] == [f]
    assert g not in [p for p, _m in calls]
    assert len({p for p, _m in calls}) == len(calls)
    assert [[s.kind for s in D.chart.steps] for D in tree.components] == [["x"], ["y", "x"], ["y", "y", "x"]]
    assert tree.trace == [
        "blow-up 1: centre (0, 0) at depth 0, chart x",
        "blow-up 2: centre (0, 0) at depth 1, chart x",
        "blow-up 3: centre (0, 0) at depth 2, chart x",
    ]
    assert tree.certificate == [
        "D3 at v=0: transversal simple crossing",
        "D3 at v=1: transversal simple crossing",
        "D3 at v=2: transversal simple crossing",
        "D3 at v=inf: normal crossing",
    ]


def _reference_tangents(p: BiPoly) -> list[tuple[bool, tuple[F, F]]]:
    """(smooth, tangent direction) per real branch of p at the origin, read
    from the oracle's Puiseux branch set."""
    out = []
    for a in branch_set(p, (F(0), F(0)), 10):
        slope = dict(a.terms).get(a.N, F(0))
        out.append((a.N == 1, (F(0), F(1)) if a.swapped else (F(1), slope)))
    return out


def _reference_normal_crossing(curves) -> bool:
    tangents = [t for _tag, p in curves for t in _reference_tangents(p)]
    if len(tangents) > 2 or not all(smooth for smooth, _d in tangents):
        return False
    if len(tangents) == 2:
        (a, b), (c, d) = tangents[0][1], tangents[1][1]
        return a * d - b * c != 0
    return True


def _reference_vertical_branch(curves) -> bool:
    return any(a.swapped for _tag, p in curves for a in branch_set(p, (F(0), F(0)), 10))


def _line_multiplicity(p: BiPoly, direction: tuple[F, F]) -> int:
    """The multiplicity of the line through the origin in the given
    direction as a factor of the lowest form of p."""
    d = min(i + j for i, j in p.t)
    h = UniPoly([p.t.get((d - j, j), F(0)) for j in range(d + 1)])
    a, b = direction
    if a == 0:
        return d - h.degree
    k, s = 0, b / a
    while not h.is_zero() and h.eval(s) == 0:
        h, k = UniPoly([v * i for i, v in enumerate(h.c)][1:]), k + 1
    return k


def _branches_on_multiple_lines(p: BiPoly) -> str:
    """What the oracle finds on the multiple real lines of p's cone: no
    branch, one smooth branch, a singular branch or a tangent pair."""
    on = [smooth for smooth, d in _reference_tangents(p) if _line_multiplicity(p, d) > 1]
    if not all(on):
        return "singular"
    if len(on) > 1:
        return "tangent pair"
    return "one smooth" if on else "none"


# local curves at the origin, each tested alone and beside the exceptional
# line x; the cases from the cusp on have a multiple real line
CONE_CASES = {
    "transversal lines": ["y - x", "y + 2*x"],
    "three lines": ["y", "x - y", "y + x"],
    "tangent parabolas": ["y - x^2", "y + x^2"],
    "rational node": ["y^2 - x^2*(x + 1)"],
    "acnode": ["x^2 + y^2 + x^3"],
    "vertical": ["x - y^2"],
    "cusp": ["y^2 - x^3"],
    "tacnode": ["y^2 - x^4"],
    "boundary acnode": ["y^2 + x^4 - x^5", "y - x"],
    "vertical acnode": ["x^2 + y^4 - y^5"],
    "line on a triple line": ["y^3 + x^4*y"],
}
MULTIPLE_LINE_BRANCHES = {
    "cusp": "singular",
    "tacnode": "tangent pair",
    "boundary acnode": "none",
    "vertical acnode": "none",
    "line on a triple line": "one smooth",
}


@pytest.mark.parametrize("label", sorted(CONE_CASES))
@pytest.mark.parametrize("with_exceptional", [False, True])
def test_cone_rule_agrees_with_branch_sets(label, with_exceptional):
    curves = [(k, P(t)) for k, t in enumerate(CONE_CASES[label])]
    if with_exceptional:
        curves.append((("exc", 1), BiPoly.x()))
    cones = {}
    normal_crossing = resolution.is_normal_crossing(curves, cones)
    has_vertical = resolution._has_vertical_branch(curves, cones)
    multiple = [p for _tag, p in curves if resolution._cone_lines(p)[1]]
    for _tag, p in curves:
        # every real branch is tangent to a real line of the cone
        assert all(_line_multiplicity(p, d) > 0 for _sm, d in _reference_tangents(p))
    # x = 0 in a cone, multiple or not, sends resolution to the y-chart
    assert has_vertical == any(None in resolution._cone_lines(p)[0] for _tag, p in curves)
    if label not in MULTIPLE_LINE_BRANCHES:
        assert multiple == []
        assert normal_crossing == _reference_normal_crossing(curves)
        assert has_vertical == _reference_vertical_branch(curves)
    else:
        # a multiple real line is blown up, whatever branches it carries
        assert len(multiple) == 1 and not normal_crossing
        assert _branches_on_multiple_lines(multiple[0]) == MULTIPLE_LINE_BRANCHES[label]
        assert has_vertical or not _reference_vertical_branch(curves)


@pytest.mark.parametrize("with_exceptional", [False, True])
def test_a_node_with_irrational_tangents_needs_no_expansion(monkeypatch, with_exceptional):
    # y^2 = x^3 + 2x^2 has slopes +-sqrt2: its branch set has irrational
    # coefficients, its cone two simple real lines
    curves = [("f", P("y^2 - x^3 - 2*x^2"))] + [(("exc", 1), BiPoly.x())] * with_exceptional
    with pytest.raises(Unsupported, match="NonRationalCoefficient"):
        _reference_normal_crossing(curves)
    calls = _record_cones(monkeypatch)
    cones = {}
    assert resolution.is_normal_crossing(curves, cones) is not with_exceptional
    assert resolution._has_vertical_branch(curves, cones) is with_exceptional
    assert [p for p, multiple in calls] == [p for _tag, p in curves]
    assert not any(multiple for _p, multiple in calls)


def _has_multiple_real_line(sympy, p: BiPoly) -> bool:
    """Whether the lowest form h of p at the origin has a multiple real line,
    read with sympy: x = 0 of multiplicity above 1, or a real root of
    gcd(h(1, m), h'(1, m))."""
    d = min(i + j for i, j in p.t)
    m = sympy.Symbol("m")
    h = sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * m**j for (i, j), c in p.t.items() if i + j == d), m)
    return d - h.degree() > 1 or sympy.gcd(h, h.diff(m)).count_roots() > 0


def test_bench_workload_checks_expand_branch_sets_only_at_a_multiple_real_line(monkeypatch):
    # every cone the benchmark's checks read has a multiple real line exactly
    # when sympy finds one, and every site with one is blown up
    sympy = pytest.importorskip("sympy")
    calls = _record_cones(monkeypatch)
    sites = []
    is_normal_crossing = resolution.is_normal_crossing

    def recording(curves, cones):
        nc = is_normal_crossing(curves, cones)
        sites.append((curves, nc))
        return nc

    monkeypatch.setattr(resolution, "is_normal_crossing", recording)
    for name in ("fixtures", "blowup", "lines"):
        texts, checks = bench_workload(monkeypatch, name)
        for c in checks:
            run_check(CheckRequest(Scene.from_text(texts[c.scene]), c.prop))
    assert any(multiple for _p, multiple in calls), "no check reaches a multiple real line"
    assert [p for p, multiple in calls if multiple != _has_multiple_real_line(sympy, p)] == []
    at_multiple = [nc for curves, nc in sites if any(_has_multiple_real_line(sympy, p) for _tag, p in curves)]
    assert at_multiple and not any(at_multiple)


# f = 0 is an isolated real point at the origin, where f's tangent cone is
# the double line y = 0, and the line g passes through it
BOUNDARY_ACNODE = "factor f = y^2 + x^4 - x^5; factor g = y - x; set S = { f > 0, g > 0 };"


def test_a_boundary_acnode_on_a_line_is_blown_up_and_keeps_its_answers():
    sc = Scene.from_text(BOUNDARY_ACNODE)
    answers = {p: run_check(CheckRequest(sc, p)) for p in PROPERTIES}
    assert {p: (v.answer, v.reason) for p, v in answers.items()} == {
        "basic_open": ("Yes", ""),
        "basic_closed": ("No", "NotClosed"),
        "generically_basic": ("Yes", ""),
        "principal_open": ("No", "principal-complement-side"),
        "principal_closed": ("No", "BoundaryMeetsComplement"),
    }
    # g's is the one real branch at the origin, a normal crossing on its own,
    # but f's double line blows the origin up once; every arc of that circle
    # has the two sides of g on its two sides, so it never changes type
    origin = (F(0), F(0))
    curves = [(n, sc.factors[n]) for n in ("f", "g")]
    assert branch_set(sc.factors["f"], origin, 10) == [] and _reference_normal_crossing(curves)
    assert len(resolve_point(dict(curves), origin).components) == 1
    for prop in ("basic_open", "generically_basic"):
        affine = [r for r in answers[prop].diagnostics["exceptional_table"] if r["chart"] == "affine"]
        # one row per complement component, of which S has three
        assert [r["level"] for r in affine] == [1, 1, 1]
        assert {r["verdict"] for r in affine} <= {"Silent", "ChangeOnly"}


# the tangent cone of f at the origin is the pair of double lines y = +-sqrt2 x
SQRT2_DOUBLE_LINES = "factor f = (y^2 - 2*x^2)^2 + x^5; factor g = y; set S = { f > 0, g > 0 };"


def test_double_lines_of_irrational_slope_lead_to_an_irrational_singular_point():
    # blowing up the origin puts f's strict transform through D1 at the
    # irrational points v = +-sqrt2, which resolution does not centre on; the
    # branch set would need the irrational characteristic roots +-sqrt2
    sc = Scene.from_text(SQRT2_DOUBLE_LINES)
    with pytest.raises(Unsupported, match="NonRationalCoefficient"):
        branch_set(sc.factors["f"], (F(0), F(0)), 10)
    answers = {p: run_check(CheckRequest(sc, p)) for p in PROPERTIES}
    assert {p: (v.answer, v.reason) for p, v in answers.items()} == {
        "basic_open": ("Unsupported", "NonRationalSingularPoint: D1 carries a non-transversal crossing at an irrational point"),
        "basic_closed": ("No", "NotClosed"),
        "generically_basic": ("Unsupported", "NonRationalSingularPoint: D1 carries a non-transversal crossing at an irrational point"),
        "principal_open": ("No", "principal-complement-side"),
        "principal_closed": ("No", "BoundaryMeetsComplement"),
    }


def test_resolution_multiplies_no_polynomials(monkeypatch):
    # translations are Taylor shifts on integer rows, and strict transforms,
    # reflections and Newton-edge substitutions are term maps, so resolving
    # the benchmark's contact of order 2 forms no BiPoly product
    scene = Scene.from_text(bench_scene_texts(monkeypatch, "blowup")["contact2"])
    products = []
    mul = BiPoly.__mul__

    def counted_mul(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(BiPoly, "__mul__", counted_mul)
    tree = resolve_point(scene.factors, (F(0), F(0)))
    assert len(tree.components) == 2
    assert products == []


# S = {f > 0}: g is no boundary factor, but the transversal line of the
# cusp's D1 at its default sample v = 1 is the line y = x, on which g vanishes
ON_CURVE = "factor f = y^2 - x^3; factor g = y - x; set S = { f > 0, g >= 0 } | { f > 0, g <= 0 };"


def test_arc_sample_avoids_a_scene_curve():
    sc = Scene.from_text(ON_CURVE)
    d = decompose_set(build_arrangement(sc), sc)
    D1 = resolve_point({"f": sc.factors["f"]}, (F(0), F(0))).components[0]
    (arc,) = [a for a in classify_exceptional(D1, d).arcs if (a.vlo, a.vhi) == (F(0), None)]
    assert arc.v_mid != 1
    assert run_check(CheckRequest(sc, "basic_open")).answer == "Yes"


def _chart_point_sides(D, decomp, v_mid):
    """Region verdicts on both sides of D at v_mid, read at rational points
    pushed down the chart word: the segment (-q, q) of the chart line
    v = v_mid is halved until no scene factor, pulled back, has a root on
    it other than u = 0, so each half lies in one region."""
    X, Y = D.chart.down_map()
    gs = [_ref_subst(p, X, Y).swap_xy() for p in decomp.scene.factors.values()]
    gs = [UniPoly([c.eval(v_mid) for c in _ref_y_coeffs(g)]) for g in gs]
    assert not any(g.is_zero() for g in gs), "the sample line lies on a scene curve"
    q = F(1, 2)
    while not all(
        open_count(int_primitive(g), F(0), q) == open_count(int_primitive(g), -q, F(0)) == 0
        and g.eval(q) != 0 != g.eval(-q)
        for g in gs
    ):
        q /= 2
    return tuple(decomp.tag_at(*D.chart.down_point(side * q, v_mid)) for side in (1, -1))


def test_arc_sides_agree_with_chart_point_sampling(monkeypatch):
    # every component the checker classifies on the fixtures, the scene on
    # which chart-point sampling once certified its segment against the
    # boundary factors only, and the scene whose default sample is on a curve
    classified = []
    classify = checker.classify_exceptional

    def recording(D, decomp):
        arcs = classify(D, decomp)
        classified.append((D, decomp, arcs))
        return arcs

    monkeypatch.setattr(checker, "classify_exceptional", recording)
    scenes = [load_fixture(n) for n in ("half", "quad", "saddle", "para", "cubic")]
    scenes += [Scene.from_text(DIVERGENT), Scene.from_text(ON_CURVE)]
    for sc in scenes:
        for prop in PROPERTIES:
            run_check(CheckRequest(sc, prop))
    n_arcs = 0
    for D, decomp, arcs in classified:
        for a in arcs.arcs:
            assert _chart_point_sides(D, decomp, a.v_mid) == (a.verdict_pos, a.verdict_neg), (D.level, a)
            n_arcs += 1
    assert len(classified) >= 10 and n_arcs >= 30


@pytest.fixture(scope="module")
def classified_widely():
    """(D, decomp, its arcs) for every component classified on the
    benchmark's checks, on the fixtures' inversions read as affine scenes
    and their x/y swaps, and on the scenes with irrational tangents and with
    large denominators; some of their arcs enter regions that share a sign
    vector but not a tag, and some components have y-steps in their chart
    words."""
    classified = []
    classify = checker.classify_exceptional

    def recording(D, decomp):
        arcs = classify(D, decomp)
        classified.append((D, decomp, arcs))
        return arcs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checker, "classify_exceptional", recording)
        runs = []
        for name in ("fixtures", "blowup", "lines"):
            texts, checks = bench_workload(mp, name)
            runs += [(Scene.from_text(texts[c.scene]), c.prop) for c in checks]
        for name in ("half", "quad", "saddle", "para", "cubic"):
            fx = load_fixture(name)
            inv = invert_scene(fx)
            for sc in (Scene(inv.factors, inv.order, inv.formula, "affine"), swap_scene(fx)):
                runs += [(sc, prop) for prop in PROPERTIES]
        for text in (*IRRATIONAL_TANGENTS.values(), *LARGE_DENOMINATOR_POINTS.values()):
            runs.append((Scene.from_text(text), "basic_open"))
        for sc, prop in runs:
            run_check(CheckRequest(sc, prop, want_witness=False))
    return classified


def test_sign_vector_tags_agree_with_located_points(classified_widely):
    # each half-line's tag is the membership oracle's, which composes every
    # factor with the family arc, and the tag of a located certified point
    # of that arc; where the sign vector has no single tag, the point that
    # `_located_tag` locates from the total transforms has that tag too
    by_signs = located = 0
    for D, decomp, arcs in classified_widely:
        for a in arcs.arcs:
            fam = family_arc(D, a.v_mid)
            for side, tag in ((1, a.verdict_pos), (-1, a.verdict_neg)):
                assert tag == arc_region_membership(fam, side, decomp), (D.level, a.v_mid, side)
                signs = {n: puiseux.arc_sign(decomp.scene.factors[n], fam, side) for n in decomp.scene.order}
                at_point = located_membership(fam, side, decomp, signs)
                assert tag == at_point, (decomp.scene.factors, a.v_mid, side)
                if decomp.tag_of_signs(signs) is None:
                    assert resolution._located_tag(D, decomp, a.v_mid, side, signs) == at_point
                    located += 1
                else:
                    by_signs += 1
    assert by_signs >= 200 and located >= 10, (by_signs, located)


def test_total_transform_signs_match_family_arc_composition(classified_widely):
    # every factor's sign on each half of the line u = t, v = v of a
    # component's chart, read from its total transform, is its sign along
    # the family arc crossing the component at v: at each arc's sample and
    # at each rational mark, where a factor may vanish on the whole line
    zeros = y_words = n = 0
    for D, decomp, arcs in classified_widely:
        table = resolution._factor_rows(D, decomp)
        y_words += any(s.kind == "y" for s in D.chart.steps)
        samples = [a.v_mid for a in arcs.arcs] + [m.v.exact for m in D.marked if m.v.exact is not None]
        for v in samples:
            fam = family_arc(D, v)
            for side, signs in zip((1, -1), resolution._line_signs(table, v)):
                for name, g in decomp.scene.factors.items():
                    comp = compose_bipoly(g, *fam.xy_series())
                    full = (comp.negate_t() if side < 0 else comp).sign_small_pos_t()
                    assert signs[name] == puiseux.arc_sign(g, fam, side) == full, (D.chart, v, side, name)
                    zeros += signs[name] == 0
                    n += 1
    assert zeros and y_words and n >= 1000, (zeros, y_words, n)


def test_factor_rows_are_the_swapped_rows_of_the_total_transform(classified_widely):
    # the rows of `_factor_rows` by the power of u, read off the columns of
    # the total transform's cached rows, are the integer y-rows of that
    # transform with x and y swapped; the sign of a factor off the centre
    # is its sign at the image of u = 0, which each component keeps
    through = 0
    for D, decomp, _arcs in classified_widely:
        assert D.center == D.chart.down_point(F(0), F(0))
        for name, s, rows in resolution._factor_rows(D, decomp):
            g = decomp.scene.factors[name]
            assert s == g.sign_at(*D.chart.down_point(F(0), F(0)))
            if s:
                assert rows == []
                continue
            G = resolution._total_transform(g, D.chart.steps, {})
            assert rows == G.swap_xy().int_y_rows()[0], (D.chart, name)
            through += 1
    assert through >= 100, through


def _down_line_family(D):
    """The family that `component_family` read before it read `down_map`:
    the line u = t, v = z pushed down through D's chart on the Fraction
    series oracle, and put in normal form term by term on those series."""
    one, z = _RefSeries({1: UniPoly.const(1)}), _RefSeries({0: UniPoly([0, 1])})
    xs, ys = D.chart.down(one, z, _RefSeries.const)
    cx, cy = D.center
    xs, ys = xs - _RefSeries.const(cx), ys - _RefSeries.const(cy)

    def clean(s):
        return len(s.coeff) == 1 and len(s.coeff[0][1].c) == 1 and abs(s.coeff[0][1].c[0]) == 1

    swapped = False
    if not clean(xs):
        if not clean(ys):
            raise Unsupported("A1FormUnsupported", "transversal family is not rationally parametrizable in normal form")
        xs, ys, swapped = ys, xs, True
    nx, cxz = xs.coeff[0]
    kept, mslot, zscale = [], None, F(1)
    for e, zc in ys.coeff:
        const = zc.c[0] if zc.c else F(0)
        zlin = zc.c[1] if len(zc.c) > 1 else F(0)
        if len(zc.c) > 2:
            raise Unsupported("A1FormUnsupported", "family parameter appears nonlinearly")
        if zlin != 0:
            if mslot is not None:
                raise Unsupported("A1FormUnsupported", "family parameter spread over terms")
            mslot, zscale = e, zlin
            if const != 0:
                raise Unsupported("A1FormUnsupported", "slot term carries a fixed part")
        elif const != 0:
            kept.append((e, const))
    if mslot is None:
        raise Unsupported("A1FormUnsupported", "family parameter vanished in the push-down")
    return ArcFamily((cx, cy), 1 if cxz.c[0] > 0 else -1, nx, tuple(kept), mslot, swapped, zscale)


def test_component_family_from_the_down_map_matches_the_down_line_path(classified_widely):
    # the family read off the polynomial down map is the one the pushed-down
    # series line gave, and where that line has no normal form the map has
    # none either, for the same reason and detail
    comps = components_of(CUBIC_TREE) + components_of({"c": "y^2 - x^3"})
    comps += [D for D, _decomp, _arcs in classified_widely]
    families = unsupported = 0
    for D in comps:
        try:
            want = _down_line_family(D)
        except Unsupported as e:
            with pytest.raises(Unsupported) as got:
                resolution.component_family(D)
            assert (got.value.reason, got.value.detail) == (e.reason, e.detail), D.chart
            unsupported += 1
        else:
            assert resolution.component_family(D) == want, D.chart
            families += 1
    assert families >= 50 and unsupported >= 10, (families, unsupported)


def test_total_transform_memo_hashes_no_fraction(monkeypatch):
    # the transforms of a tree are kept by chart word, and a Step hashes its
    # centre once, when it is made, so no lookup in `_total_transform`
    # hashes a Fraction: on every check of the three benchmark workloads
    depth = [0]
    counts = {"calls": 0, "hashes": 0}
    real_hash, real_transform = Fraction.__hash__, resolution._total_transform

    def counted_hash(self):
        counts["hashes"] += depth[0] > 0
        return real_hash(self)

    def transform(*args):
        depth[0] += 1
        counts["calls"] += 1
        try:
            return real_transform(*args)
        finally:
            depth[0] -= 1

    runs = []
    for name in ("fixtures", "blowup", "lines"):
        texts, checks = bench_workload(monkeypatch, name)
        runs += [(Scene.from_text(texts[c.scene]), c.prop) for c in checks]
    monkeypatch.setattr(Fraction, "__hash__", counted_hash)
    monkeypatch.setattr(resolution, "_total_transform", transform)
    for sc, prop in runs:
        run_check(CheckRequest(sc, prop))
    assert counts["calls"] >= 100 and counts["hashes"] == 0, counts
