import random
from collections import Counter
from fractions import Fraction

import pytest
from conftest import bench_workload, differential_module, load_fixture, sqrt2_twin
from hypothesis import given, settings, strategies as st
from test_sphere import random_scene_text

from basix import arrangement, realroots
from basix.arrangement import Box, _Fibre, _IrrationalAbscissa, _Window, bipoly_sign_on_box, build_arrangement
from basix.bipoly import BiPoly, parse_poly
from basix.checker import CheckRequest, run_check
from basix.errors import InternalError, NotSquarefree, SceneError, SharedComponent, Unsupported
from basix.realroots import RootLocator, gap_sample, isolate_real_roots, roots_equal
from basix.scene import Scene, invert_scene, validate_scene
from basix.unipoly import UniPoly

F = Fraction


def S(text):
    return Scene.from_text(text)


def counts(arr):
    return len(arr.vertices), len(arr.edges), len(arr.regions)


def member_regions(arr, sc):
    return [reg for reg in arr.regions if sc.formula.holds(reg.signs)]


def test_cross():
    arr = build_arrangement(S("factor a = x; factor b = y; set S = { a > 0, b > 0 };"))
    assert counts(arr) == (1, 4, 4)
    assert arr.euler_characteristic_sphere() == 2


def test_single_line():
    arr = build_arrangement(S("set S = { y > 0 };"))
    assert counts(arr) == (0, 1, 2)
    assert arr.euler_characteristic_sphere() == 2


def test_circle():
    sc = S("set S = { x^2 + y^2 - 1 < 0 };")
    arr = build_arrangement(sc)
    v, e, r = counts(arr)
    assert r == 2
    assert v == 2 and e == 2  # turning points at x = +-1
    assert arr.euler_characteristic_sphere() == 2
    inside = member_regions(arr, sc)
    assert len(inside) == 1 and not inside[0].unbounded


def test_line_and_parabola():
    arr = build_arrangement(S("factor l = y; factor p = y - x^2; set S = { l > 0, p < 0 };"))
    v, e, r = counts(arr)
    assert v == 1  # tangential contact at the origin
    assert r == 4  # below both; two lobes between; above both
    assert e == 4
    assert arr.euler_characteristic_sphere() == 2


def test_para_fixture_geometry():
    arr = build_arrangement(
        S("factor a = x; factor l = y; factor p = y - x^2; set S = { a < 0, l > 0, p != 0 } | { a > 0, l > 0, p < 0 };")
    )
    assert counts(arr) == (1, 6, 6)
    assert arr.euler_characteristic_sphere() == 2


def test_cubic_fixture_geometry():
    sc = S(
        "factor a = x; factor f0 = y - x^2; factor f1 = y - x^2 - x^3;"
        "factor f2 = y - x^2 - 2*x^3; factor f3 = y - x^2 - 3*x^3;"
        "set S = { f0 > 0, f1 < 0 } | { f0 < 0, f1 > 0 } | { a < 0, f2 < 0, f3 > 0 };"
    )
    arr = build_arrangement(sc)
    assert counts(arr) == (1, 10, 10)
    assert arr.euler_characteristic_sphere() == 2
    assert len(member_regions(arr, sc)) == 3


def test_hyperbola_lc_escape():
    sc = S("set S = { x*y - 1 > 0 };")
    arr = build_arrangement(sc)
    v, e, r = counts(arr)
    assert v == 0
    assert e == 2
    assert r == 3
    assert arr.euler_characteristic_sphere() == 2
    members = member_regions(arr, sc)
    assert len(members) == 2  # both hyperbola lobes satisfy xy > 1


@pytest.mark.parametrize("c", ["1", "2"])
def test_hyperbola_lc_escape_at_asymptotes(c):
    # y = 1/(x^2 - c): the middle branch escapes down both asymptotes x = +-sqrt c,
    # the outer ones escape up, and no wall point lies on them
    arr = build_arrangement(S(f"factor f = x^2*y - {c}*y - 1; set S = {{ f > 0 }};"))
    assert counts(arr) == (0, 3, 4)
    assert [len(w.points) for w in arr.walls] == [0, 0]
    assert arr.euler_characteristic_sphere() == 2


@pytest.mark.parametrize(
    "text, cells",
    [
        # a node at each of (+-sqrt2, 0): y^2 = (x^2 - 2)^2 (x^2 + 1)
        ("factor f = y^2 - x^6 + 3*x^4 - 4; set S = { f > 0 };", (2, 6, 5)),
        # f and g touch at (+-3 sqrt3/2, -3/2), and l crosses both
        (
            "factor f = x^2 + y^2 + 2*y - 6; factor g = y - x^2 + 33/4; factor l = y + 5/2*x - 5/4;"
            "set S = { f < 0, g > 0 } | { l > 0, f > 0 };",
            (8, 16, 9),
        ),
    ],
)
def test_irrational_node_and_tangency(text, cells):
    arr = build_arrangement(S(text))
    assert counts(arr) == cells
    assert arr.euler_characteristic_sphere() == 2
    for prop in ("basic_open", "basic_closed"):
        assert run_check(CheckRequest(S(text), prop)).answer in ("Yes", "No")


def test_two_circles_tangent_rational():
    # externally tangent at the rational point (1, 0)
    sc = S("set S = { x^2 + y^2 - 1 < 0, (x - 2)^2 + y^2 - 1 < 0 };")
    arr = build_arrangement(sc)
    v, e, r = counts(arr)
    # the tangency point coincides with both adjacent turning points
    assert (v, e, r) == (3, 4, 3)
    assert arr.euler_characteristic_sphere() == 2
    assert not member_regions(arr, sc)  # interiors only touch


def test_irrational_crossings():
    # circle and line y = x cross at +-(sqrt2/2, sqrt2/2)
    arr = build_arrangement(S("set S = { x^2 + y^2 - 1 < 0, y - x > 0 };"))
    v, e, r = counts(arr)
    assert v == 4  # two turning points, two crossings
    assert r == 4  # 2 half-disks + 2 outer pieces? (outer region splits by line only partially)
    assert arr.euler_characteristic_sphere() == 2


def test_irrational_turning_points():
    # vertical-tangent turnings at x = +-sqrt(2)
    arr = build_arrangement(S("set S = { x^2 - y^2 - 2 > 0 };"))
    v, e, r = counts(arr)
    assert v == 2 and e == 4 and r == 3  # each turning splits its branch
    assert arr.euler_characteristic_sphere() == 2


def test_membership_sampling_agreement():
    # every region's stored sign vector is the sign vector at any point it
    # holds, also on the wall x = 0; a point on a curve has no region
    sc = S("factor l = y; factor p = y - x^2; set S = { l > 0, p < 0 };")
    arr = build_arrangement(sc)
    rng = random.Random(11)
    seen = Counter()
    for _ in range(400):
        x = F(rng.randint(-40, 40), rng.randint(1, 9))
        y = F(rng.randint(-40, 40), rng.randint(1, 9))
        signs = sc.signs_at(x, y)
        if 0 in signs.values():
            seen["curve"] += 1
            with pytest.raises(InternalError, match="lies on a curve cell"):
                arr.region_of_point(x, y)
            continue
        seen["wall" if x == 0 else "slab"] += 1
        assert arr.regions[arr.region_of_point(x, y)].signs == signs
    assert min(seen.values()) > 0, seen
    assert [v.signs for v in arr.vertices if v.point() == (0, 0)] == [{"l": 0, "p": 0}]


def test_region_of_point_on_cells():
    # the vertex, a point of the vertical edge and one of the curve edge
    # raise; the four open quadrants are four regions
    sc = S("factor a = x; factor b = y; set S = { a > 0, b > 0 };")
    arr = build_arrangement(sc)
    for x, y in [(0, 0), (0, 5), (3, 0)]:
        with pytest.raises(InternalError, match=f"point \\({x}, {y}\\) lies on a curve cell"):
            arr.region_of_point(F(x), F(y))
    quadrants = [(3, 1), (-3, 1), (-3, -1), (3, -1)]
    rids = [arr.region_of_point(F(x), F(y)) for x, y in quadrants]
    assert len(set(rids)) == 4
    assert [arr.regions[r].signs for r in rids] == [sc.signs_at(F(x), F(y)) for x, y in quadrants]


def test_region_of_point_at_a_rational_wall_off_the_curves():
    # x = 1 is the wall of the circle's right turning point (1, 0); (1, 2)
    # and (1, -2) lie in the outer region, read from the wall's exposures
    arr = build_arrangement(S("factor c = x^2 + y^2 - 1; set S = { c < 0 };"))
    assert [w.exact_x() for w in arr.walls] == [-1, 1]
    outer, inner = arr.region_of_point(F(5), F(0)), arr.region_of_point(F(0), F(0))
    assert outer != inner
    assert arr.region_of_point(F(1), F(2)) == arr.region_of_point(F(1), F(-2)) == outer
    assert arr.region_of_point(F(-1), F(1, 2)) == outer


@pytest.mark.parametrize("x, y", [(1, 0), (2, 7), (0, 1)], ids=["wall-point", "vertical-line", "curve-edge"])
def test_region_of_point_on_a_curve_cell_is_an_internal_error(x, y):
    arr = build_arrangement(S("factor c = x^2 + y^2 - 1; factor v = x - 2; set S = { c < 0, v < 0 };"))
    with pytest.raises(InternalError, match="lies on a curve cell"):
        arr.region_of_point(F(x), F(y))


def test_region_of_point_at_the_ends_of_an_irrational_wall():
    # a point at either end of a wall's isolating interval around sqrt 2 is
    # on that side of the wall: its region has its sign vector
    sc = S("factor f = x^2 + y^2 - 2; factor g = y; set S = { f < 0, g > 0 };")
    arr = build_arrangement(sc)
    wall = arr.walls[-1]
    assert wall.exact_x() is None
    for x in (wall.x.lo, wall.x.hi):
        for y in (F(1, 2), F(-1, 2)):
            assert arr.regions[arr.region_of_point(x, y)].signs == sc.signs_at(x, y), (x, y)


def test_gap_sample_below_between_and_above():
    # on the roots of (y^2 - 2)(y - 3) and on the windows of the fibre
    # y^2 = sqrt 2 (roots -+2^(1/4)) over an irrational wall
    assert gap_sample([], 0) == 0
    locs = isolate_real_roots(UniPoly([-2, 0, 1]) * UniPoly([-3, 1]))
    samples = [gap_sample(locs, k) for k in range(4)]
    assert samples[0] < -1.415 and -1.414 < samples[1] < 1.414 and 1.415 < samples[2] < 3 < samples[3]
    sqrt2 = isolate_real_roots(UniPoly([-2, 0, 1]))[1]
    windows = _Fibre(_IrrationalAbscissa(sqrt2, []), "f", parse_poly("y^2 - x")).windows()
    assert len(windows) == 2 and all(isinstance(w, _Window) for w in windows)
    below, mid, above = (gap_sample(windows, k) for k in range(3))
    assert below < 0 < above and below**4 > 2 and mid**4 < 2 and above**4 > 2


def test_edge_sides_consistent():
    sc = S("factor l = y; set S = { l > 0 };")
    arr = build_arrangement(sc)
    e = arr.edges[0]
    above = arr.regions[e.side_above]
    below = arr.regions[e.side_below]
    assert above.sample[1] > 0 > below.sample[1]
    assert (above.signs, e.signs, below.signs) == ({"l": 1}, {"l": 0}, {"l": -1})


def test_isolated_point_vertex():
    arr = build_arrangement(S("factor o = x^2 + y^2; factor l = y - 1; set S = { l > 0, o != 0 };"))
    # the origin is an isolated real point of factor o
    vs = [v for v in arr.vertices if v.point() == (F(0), F(0))]
    assert len(vs) == 1
    assert arr.regions_at_vertex(vs[0].vid)  # sits inside the lower region
    # (x^2 - 2)^2 + y^2 has its isolated points at the irrational (+-sqrt2, 0)
    arr = build_arrangement(S("factor f = y^2 + x^4 - 4*x^2 + 4; set S = { f > 0 };"))
    assert (len(arr.vertices), len(arr.edges), len(arr.regions)) == (2, 0, 1)
    sqrt2 = isolate_real_roots(UniPoly([-2, 0, 1]))
    for v, x in zip(arr.vertices, sqrt2):
        assert roots_equal(v.x, x) and roots_equal(v.y, RootLocator.at(0))
        assert arr.regions_at_vertex(v.vid) == {0}


def test_elim_x_lets_internal_errors_through(monkeypatch):
    # the vertices at these irrational crossings are located through a
    # resultant in x; an engine fault there must not read as "no polynomial"
    real = arrangement.resultant

    def broken(f, g, var):
        if var == "x":
            raise InternalError("broken resultant")
        return real(f, g, var)

    monkeypatch.setattr(arrangement, "resultant", broken)
    with pytest.raises(InternalError, match="broken resultant"):
        build_arrangement(S("factor a = x^2 + y^2 - 3; factor b = x^2 - y^2 + x*y - 1; set S = { a < 0 };"))


def test_factor_vanishing_on_a_slab_sample_is_an_internal_error(monkeypatch):
    # f(s, y) == 0 at a slab sample needs a leading coefficient in y that
    # vanishes at s: a constant one never does, and any other is critical,
    # so its real roots are walls; only an engine fault can reach this
    real = BiPoly.int_fibre

    def broken(self, x):
        return [] if x == 0 else real(self, x)

    monkeypatch.setattr(BiPoly, "int_fibre", broken)
    with pytest.raises(InternalError, match="vanishes on the slab sample x = 0"):
        build_arrangement(S("factor a = y - x; set S = { a > 0 };"))


@pytest.mark.parametrize(
    "text, error",
    [
        ("factor a = y^2; set S = { a > 0 };", NotSquarefree),
        ("factor a = y^2 - x^2; factor b = y - x; set S = { a > 0, b > 0 };", SharedComponent),
    ],
    ids=["not-squarefree", "shared-component"],
)
def test_build_on_an_unvalidated_scene_raises_the_input_error(text, error):
    # a build handed no projection projects the scene itself, and projecting
    # decides the hypotheses that validation decides
    with pytest.raises(error):
        build_arrangement(S(text))


def test_region_of_point_on_a_curve_is_an_internal_error():
    # callers certify their points off the curves first
    arr = build_arrangement(S("factor f = y; set S = { f > 0 };"))
    with pytest.raises(InternalError, match="lies on a curve cell"):
        arr.region_of_point(F(0), F(0))


def _copy(loc):
    return RootLocator(loc.p, loc.lo, loc.hi, loc.exact)


def _assert_stack_signs_are_evaluated_signs(arr):
    # regions against exact evaluation at their samples, vertical edges at
    # theirs and rational vertices at themselves, curve edges and irrational
    # vertices against box refinement (on copies of their locators)
    for r in arr.regions:
        assert r.signs == {n: arr.factors[n].sign_at(*r.sample) for n in arr.order}, r.rid
    for e in arr.edges:
        if e.vertical:
            x, y = arr.vertical_edge_sample(e)
            want = {n: p.sign_at(x, y) for n, p in arr.factors.items()}
        else:
            s0, _i, loc = e.pieces[0]
            box = Box(RootLocator.at(arr.slab_samples[s0]), _copy(loc))
            want = {n: 0 if n == e.factor else bipoly_sign_on_box(p, box) for n, p in arr.factors.items()}
        assert e.signs == want, e.eid
    for v in arr.vertices:
        pt = v.point()
        if pt is not None:
            want = {n: p.sign_at(*pt) for n, p in arr.factors.items()}
        else:
            box = Box(_copy(v.x), _copy(v.y))
            want = {n: 0 if n in v.factors else bipoly_sign_on_box(p, box) for n, p in arr.factors.items()}
        assert v.signs == want, v.vid


@pytest.mark.parametrize("name", ["cubic", "half", "para", "quad", "saddle"])
def test_stack_signs_match_evaluation_on_fixtures(name):
    sc = load_fixture(name)
    for scene in (sc, invert_scene(sc)):
        _assert_stack_signs_are_evaluated_signs(build_arrangement(scene))


def test_stack_signs_match_evaluation_on_irrational_and_approached_walls(monkeypatch):
    differential = differential_module(monkeypatch)
    for text in {**differential.IRRATIONAL_WALLS, **differential.APPROACHED_WALLS}.values():
        _assert_stack_signs_are_evaluated_signs(build_arrangement(S(text)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_stack_signs_match_evaluation_on_random_scenes(seed):
    sc = Scene.from_text(random_scene_text(random.Random(seed)))
    try:
        validate_scene(sc)
        arr = build_arrangement(sc)
    except (SceneError, Unsupported):
        return
    _assert_stack_signs_are_evaluated_signs(arr)


def test_wall_approach_probes_no_root_for_rationality(monkeypatch):
    # `_match_side` reads only the isolating intervals of f(x_at, y); near a
    # wall x_at has a large denominator, and probing each root for
    # rationality there cost more than the whole approach
    differential = differential_module(monkeypatch)
    simplest_in, match_side = realroots.simplest_in, arrangement.Arrangement._match_side
    approaching: list[bool] = []
    probes = []
    matched = 0

    def counted_simplest_in(lo, hi):
        if approaching:
            probes.append((lo, hi))
        return simplest_in(lo, hi)

    def tracked_match_side(self, *args):
        nonlocal matched
        matched += 1
        approaching.append(True)
        try:
            return match_side(self, *args)
        finally:
            approaching.pop()

    monkeypatch.setattr(realroots, "simplest_in", counted_simplest_in)
    monkeypatch.setattr(arrangement.Arrangement, "_match_side", tracked_match_side)
    for text in differential.APPROACHED_WALLS.values():
        build_arrangement(S(text))
    assert matched >= 6
    assert probes == []


def test_each_level_is_specialised_once_per_arrangement(monkeypatch):
    # the matching rounds of a wall only shrink the span, and both sides of a
    # wall test the same levels, so each (factor, level) is specialised once;
    # the asymptotes x = +-1 of f are walls where its fates are not counted
    specialize_y, build = BiPoly.specialize_y, arrangement.Arrangement._build
    building: list[Counter] = []
    built: list[Counter] = []

    def counted_specialize_y(self, y0):
        if building:
            building[-1][(self, F(y0))] += 1
        return specialize_y(self, y0)

    def counted_build(self, elim):
        building.append(Counter())
        try:
            build(self, elim)
        finally:
            built.append(building.pop())

    monkeypatch.setattr(BiPoly, "specialize_y", counted_specialize_y)
    monkeypatch.setattr(arrangement.Arrangement, "_build", counted_build)
    sc = S("factor f = x^2*y - y - 1; factor g = y - x; set S = { f > 0, g > 0 };")
    for prop in ("basic_open", "principal_open"):
        run_check(CheckRequest(sc, prop))
    assert sum(sum(c.values()) for c in built) > 0
    assert max(max(c.values(), default=0) for c in built) == 1


# folds, a cusp, an acnode, a tangency, a vertical inflection, a node and
# folds beside a simple root of the same fibre on rational walls; all but the
# first cusp and inflection have a sqrt2 twin, whose events sit on the walls
# x = +-sqrt2 (x = +-2 sqrt2 for the last scene)
COUNTED_WALL_SCENES = [
    "factor f = x^2 + y^2 - 1;",
    "factor f = y^2 - x^3;",
    "factor f = y^2 - (x^2 - 1)^3;",
    "factor f = y^2 + x^4 - 2*x^2 + 1;",
    "factor f = x^2 + y^2 - 3*y + 1; factor g = y - x^2;",
    "factor f = y^3 - x;",
    "factor f = y^3 - x^2 + 1;",
    "factor f = y^2 - x^6 + x^4 + x^2 - 1;",
    "factor f = y^3 - 3*y - x^2 + 2;",
]


def _counted_wall_scenes():
    for text in COUNTED_WALL_SCENES:
        sc = S(text + " set S = { f > 0 };")
        yield sc
        try:
            yield sqrt2_twin(sc)
        except ValueError:
            pass
    rng = random.Random(21)
    for _ in range(20):
        yield S(random_scene_text(rng))


def test_counted_fates_agree_with_approaching_the_wall(monkeypatch):
    # every (wall, factor, side) whose fates were counted is matched again by
    # approaching the wall, as at a vanishing leading coefficient
    match_side = arrangement.Arrangement._match_side
    approached: set[tuple] = set()

    def recorded(self, factor, slab, side, wall, levels):
        approached.add((id(wall), side, factor))
        return match_side(self, factor, slab, side, wall, levels)

    monkeypatch.setattr(arrangement.Arrangement, "_match_side", recorded)
    compared = multiple = 0
    for sc in _counted_wall_scenes():
        try:
            arr = build_arrangement(sc)
        except (SceneError, Unsupported):
            continue
        for wi, wall in enumerate(arr.walls):
            ys = [p.y for p in wall.points]
            levels = [gap_sample(ys, k) for k in range(len(ys) + 1)]
            for side, slab in (("L", wi), ("R", wi + 1)):
                for n in arr.curvy:
                    ends = arr._branch_count(slab, n)
                    if ends == 0 or (id(wall), side, n) in approached:
                        continue
                    counted = [wall.fates[(side, n, i)] for i in range(ends)]
                    assert match_side(arr, n, slab, side, wall, levels) == counted, (sc.factors, wall.x)
                    compared += 1
                    multiple += counted != [k for k, p in enumerate(wall.points) if n in p.factors]
    assert compared >= 100 and multiple >= 10, (compared, multiple)


@pytest.mark.parametrize(
    "text, fates",
    [
        # two double roots, at y = +-2, on each of the walls x = +-1
        ("factor f = x^2 + (y^2 - 4)^2 - 1;", {(-1, "R"): [0, 0, 1, 1], (1, "L"): [0, 0, 1, 1]}),
        # an asymptote x = 0 over an empty fibre: two ends escape down on
        # the left and two up on the right, which parity cannot tell from none
        ("factor f = x^2*y^2 - 3*x*y + 2 + x;", {(0, "L"): [-1, -1], (0, "R"): [0, 0]}),
    ],
    ids=["two-multiple-roots", "two-escapes"],
)
def test_walls_counting_cannot_decide_are_approached(monkeypatch, text, fates):
    match_side = arrangement.Arrangement._match_side
    approached = {}

    def recorded(self, factor, slab, side, wall, levels):
        approached[(wall.x.exact, side)] = out = match_side(self, factor, slab, side, wall, levels)
        return out

    monkeypatch.setattr(arrangement.Arrangement, "_match_side", recorded)
    arr = build_arrangement(S(text + " set S = { f > 0 };"))
    assert approached == fates
    walls = {wall.x.exact: wall for wall in arr.walls}
    for (x, side), ends in fates.items():
        assert [walls[x].fates[(side, "f", i)] for i in range(len(ends))] == ends


def test_bench_workload_checks_never_approach_a_wall(monkeypatch):
    # on the benchmark's scenes every leading coefficient stays nonzero at
    # the walls and at most one root of a fibre is multiple
    def refused(*_args):
        raise AssertionError("branch ends matched by approaching a wall")

    monkeypatch.setattr(arrangement.Arrangement, "_match_side", refused)
    for name in ("fixtures", "blowup", "lines"):
        texts, checks = bench_workload(monkeypatch, name)
        for c in checks:
            run_check(CheckRequest(S(texts[c.scene]), c.prop))


def test_bench_workload_checks_locate_no_point(monkeypatch):
    # every half-arc that condition (b) classifies on the benchmark's scenes
    # enters regions whose sign vector is shared by no region with another
    # tag, so its tag is read from its signs
    def refused(*_args):
        raise AssertionError("a point located in the arrangement")

    monkeypatch.setattr(arrangement.Arrangement, "region_of_point", refused)
    for name in ("fixtures", "blowup", "lines"):
        texts, checks = bench_workload(monkeypatch, name)
        for c in checks:
            run_check(CheckRequest(S(texts[c.scene]), c.prop))


def test_a_forged_branch_count_is_an_internal_error(monkeypatch):
    # the walls of two crossing lines carry one simple point per line, so
    # one branch end more than wall points breaks the counting rule
    branch_count = arrangement.Arrangement._branch_count
    monkeypatch.setattr(arrangement.Arrangement, "_branch_count", lambda self, s, n: branch_count(self, s, n) + 1)
    with pytest.raises(InternalError, match="simple wall points"):
        build_arrangement(S("factor a = y - x; factor b = y + x; set S = { a > 0 };"))
    # every wall of f is an asymptote, which is approached: the branch count
    # at the approach abscissa differs from the forged one
    with pytest.raises(InternalError, match="another branch count"):
        build_arrangement(S("factor f = x^2*y - y - 1; set S = { f > 0 };"))
    # a multiple root can take no end, but the simple ones each need one
    with pytest.raises(InternalError, match="cannot reach"):
        arrangement._counted_fates([0, 1, 2], [1], 1)


def test_irrational_wall_fibre_parts_roots_2_to_the_minus_1100_apart():
    # y = x and y = x + 2^-1100 over the wall x = sqrt2: the windows are
    # bisected about 1,100 times, deeper than the interpreter's recursion limit
    eps = Fraction(1, 2**1100)
    alpha = isolate_real_roots(UniPoly([-2, 0, 1]))[1]
    at = _IrrationalAbscissa(alpha, [])
    f = parse_poly("y - x") * (parse_poly("y - x") - BiPoly.const(eps))
    low, high = _Fibre(at, "f", f).windows()
    assert low.hi <= high.lo
    assert low.lo**2 < 2 < low.hi**2
    assert (high.lo - eps) ** 2 < 2 < (high.hi - eps) ** 2


def test_arrangement_fibres_stay_on_integer_rows(monkeypatch):
    # every fibre x = c the arrangement isolates or counts is an integer list
    # from `BiPoly.int_fibre`: no `Fraction` fibre from `specialize_x`, and no
    # monic polynomial, is made while an arrangement is built or locates
    # points.  Only a level line y = c of `_level_clear` is specialised in y,
    # which swaps x and y and then calls `specialize_x`
    import sys

    from conftest import FIXTURE_DIR, bench_scene_texts

    from basix.scene import project_scene

    called = []

    def watched(real):
        def wrapper(self, *args):
            f = sys._getframe(1)
            while f and f.f_code.co_filename != arrangement.__file__:
                f = f.f_back
            if f:
                called.append((real.__name__, sys._getframe(1).f_code.co_name, f.f_code.co_name))
            return real(self, *args)

        return wrapper

    texts = list(bench_scene_texts(monkeypatch, "lines").values())
    texts += [p.read_text(encoding="utf-8") for p in sorted(FIXTURE_DIR.glob("*.bsx"))]
    scenes = [Scene.from_text(t) for t in texts]
    scenes += [invert_scene(sc) for sc in scenes]
    projections = [project_scene(sc) for sc in scenes]
    monkeypatch.setattr(BiPoly, "specialize_x", watched(BiPoly.specialize_x))
    monkeypatch.setattr(UniPoly, "monic", watched(UniPoly.monic))
    for sc, proj in zip(scenes, projections):
        arr = build_arrangement(sc, proj)
        for r in arr.regions:
            assert arr.region_of_point(*r.sample) == r.rid
    assert set(called) <= {("specialize_x", "specialize_y", "_level_clear")}, called
