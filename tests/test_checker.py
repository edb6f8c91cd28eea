import random
import re
import sys
import types
from collections import Counter
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from conftest import (
    METAMORPHIC_MAPS,
    bench_scene_texts,
    check,
    differential_module,
    load_fixture,
    map_scene,
    sqrt2_twin,
    swap_scene,
)
from test_sphere import random_scene_text

from basix import arrangement, bipoly, checker, cli
from basix.arrangement import build_arrangement
from basix.bipoly import BiPoly
from basix.checker import PROPERTIES, CheckRequest, run_check
from basix.errors import InternalError, SceneError, Unsupported
from basix.decompose import decompose_set
from basix.fans import (
    CurvePointOrdering,
    Fan,
    fan_count_in_S,
    fan_to_json,
    independent_count_check,
    verify_fan,
    witness_curve_fan,
)
from basix.report import verdict_to_text
from basix.scene import Scene, invert_scene, validate_scene

F = Fraction


def S(text):
    return Scene.from_text(text)


def test_half_yes_and_principal(fixture_scene):
    assert check(fixture_scene("half"), "basic_open").answer == "Yes"
    assert check(fixture_scene("half"), "principal_open").answer == "Yes"


def test_quad_basic_yes_principal_no(fixture_scene):
    v = check(fixture_scene("quad"), "basic_open")
    assert v.answer == "Yes"
    p = check(fixture_scene("quad"), "principal_open")
    assert p.answer == "No"
    assert p.witness is not None and p.witness_count == 1
    rep = verify_fan(p.witness, fixture_scene("quad"))
    assert rep.product_law_ok and rep.distinct


def test_saddle_principal_yes(fixture_scene):
    assert check(fixture_scene("saddle"), "principal_open").answer == "Yes"


def test_para_no_condition_a(fixture_scene):
    v = check(fixture_scene("para"), "basic_open")
    assert (v.answer, v.reason) == ("No", "condition-a")
    assert v.witness is not None and v.witness_count == 3
    assert v.witness.kind == "curve_centered"


def test_cubic_no_condition_b(fixture_scene):
    v = check(fixture_scene("cubic"), "basic_open")
    assert (v.answer, v.reason) == ("No", "condition-b")
    assert v.witness is not None and v.witness_count == 3
    assert v.witness.kind == "point_centered"
    # condition (a) recorded as passing
    table = v.diagnostics["condition_a_table"]
    assert table and all(verdict != "PositiveTypeChanging" for _f, _i, verdict in table)


def test_swapped_cubic_has_a_point_witness(fixture_scene):
    # the witness lift runs through y-chart blow-ups here
    sc = swap_scene(fixture_scene("cubic"))
    v = check(sc, "basic_open")
    assert (v.answer, v.reason) == ("No", "condition-b")
    fan = v.witness
    assert fan is not None and v.witness_count == 3
    assert fan.kind == "point_centered" and fan.family.swapped
    rep = verify_fan(fan, sc)
    assert rep.product_law_ok and rep.distinct
    assert independent_count_check(fan, sc) == 3


def test_fixtures_answer_as_their_xy_swaps(fixture_scene):
    # and as their images under the exact affine maps of METAMORPHIC_MAPS,
    # whose answers must agree unless either side is Unsupported
    for name in ("cubic", "half", "para", "quad", "saddle"):
        sc = fixture_scene(name)
        for prop in PROPERTIES:
            a = run_check(CheckRequest(sc, prop))
            b = run_check(CheckRequest(swap_scene(sc), prop))
            assert (a.answer, a.reason) == (b.answer, b.reason), (name, prop)
            for label, phi in METAMORPHIC_MAPS.items():
                b = run_check(CheckRequest(map_scene(sc, phi), prop))
                assert a.answer == b.answer or "Unsupported" in (a.answer, b.answer), (name, prop, label)


def _twin_factor(rng: random.Random) -> str:
    def q(lo: int, hi: int) -> Fraction:
        return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2)))

    kind = rng.randrange(5)
    if kind == 0:
        return f"y - ({q(-2, 2) or 1})*x^2 - ({q(-3, 3)})"
    if kind == 1:
        return f"({rng.choice((1, 2, 3))})*x^2 + ({rng.choice((1, 2, -1))})*y^2 + ({q(-2, 2)})*y - ({rng.randint(1, 6)})"
    if kind == 2:
        return f"y^2 + ({rng.choice((1, -1))})*x^4 + ({q(-4, 4)})*x^2 + ({q(-4, 4)})"
    if kind == 3:
        return f"({rng.choice((1, -1, 2))}*x^2 + ({q(-3, 3)}))*y + ({rng.choice((1, -1, 2, -2))})"
    return f"y - ({q(-3, 3)})"


def twin_scene_text(rng: random.Random) -> str:
    """Parabolas, conics, quartics y^2 + a x^4 + b x^2 + c, curves
    (a x^2 + b) y + c and horizontal lines under a random DNF: every factor
    is even in x, so `conftest.sqrt2_twin` is defined on the scene."""
    n = rng.randint(2, 3)
    text = "".join(f"factor f{i} = {_twin_factor(rng)};\n" for i in range(n))
    clauses = []
    for _ in range(rng.randint(1, 2)):
        atoms = [f"f{i} {rng.choice(('<', '>', '<=', '>='))} 0" for i in rng.sample(range(n), rng.randint(1, 2))]
        clauses.append("{ " + ", ".join(atoms) + " }")
    return text + "set S = " + " | ".join(clauses) + ";\n"


def _decided(scene: Scene, prop: str) -> tuple | None:
    try:
        v = run_check(CheckRequest(scene, prop))
    except Unsupported:
        return None
    return (v.answer, v.reason, v.witness_count) if v.answer in ("Yes", "No") else None


def test_sqrt2_twins_agree():
    # x -> sqrt2 x moves every wall a to sqrt2 a, so rational walls become
    # irrational ones, and a real linear map keeps the cells and the answers
    rng = random.Random(16)
    pairs = decided = 0
    for k in range(20):
        sc = S(twin_scene_text(rng))
        try:
            validate_scene(sc)
        except SceneError:
            continue
        twin = sqrt2_twin(sc)
        arrs = [arrangement.build_arrangement(s) for s in (sc, twin)]
        a, b = [(len(r.vertices), len(r.edges), len(r.regions), r.euler_characteristic_sphere()) for r in arrs]
        assert a == b, (k, a, b)
        prop = PROPERTIES[k % len(PROPERTIES)]
        a, b = _decided(sc, prop), _decided(twin, prop)
        if a is not None and b is not None:
            assert a == b, (k, prop)
            decided += 1
        pairs += 1
    assert pairs >= 18 and decided >= 15


def test_point_witness_is_counted_once(monkeypatch, fixture_scene):
    kinds = []
    real_count = Fan.count_in_set

    def counting(fan, scene):
        kinds.append(fan.kind)
        return real_count(fan, scene)

    monkeypatch.setattr(Fan, "count_in_set", counting)
    v = check(fixture_scene("cubic"), "basic_open")
    assert v.witness.kind == "point_centered" and v.witness_count == 3
    assert kinds == ["point_centered"]


@pytest.mark.parametrize("prop", ["basic_open", "basic_closed"])
def test_unsupported_witness_keeps_the_decided_no(fixture_scene, prop):
    # the inverted cubic, read as an affine scene, fails condition (b) at a
    # component whose transversal family has no normal form (its closed twin
    # fails the same way on its reduced scene): the "No" stands with the
    # witness on or off, and the missing witness is reported
    text = (Path(__file__).resolve().parent.parent / "fixtures" / "cubic.bsx").read_text(encoding="utf-8")
    if prop == "basic_closed":
        text = text.replace(">", ">=").replace("<", "<=")
    inv = invert_scene(S(text))
    sc = Scene(inv.factors, inv.order, inv.formula, "affine")
    off = run_check(CheckRequest(sc, prop, want_witness=False))
    on = run_check(CheckRequest(sc, prop, want_witness=True))
    assert (off.answer, off.reason) == (on.answer, on.reason) == ("No", "condition-b")
    assert on.witness is None and "witness_unsupported" not in off.diagnostics
    assert on.diagnostics["witness_unsupported"].startswith("A1FormUnsupported: ")
    assert verdict_to_text(on).count("witness  : unavailable (A1FormUnsupported: ") == 1
    if prop == "basic_open":
        assert {k: x for k, x in on.diagnostics.items() if k != "witness_unsupported"} == off.diagnostics


def test_basic_closed_examples():
    assert check(S("set S = { y >= 0 };"), "basic_closed").answer == "Yes"
    v = check(S("factor f = y; set S = { f > 0 };"), "basic_closed")
    assert (v.answer, v.reason) == ("No", "NotClosed")
    # f > 0 misses the acnodes (+-1, 0), and (+-sqrt2, 0) in the second scene
    for f in ("y^2 + x^4 - 2*x^2 + 1", "y^2 + x^4 - 4*x^2 + 4"):
        v = check(S(f"factor f = {f}; set S = {{ f > 0 }};"), "basic_closed")
        assert (v.answer, v.reason) == ("No", "NotClosed"), f
    # closure of the para fixture: relax strict atoms
    closed_para = S(
        "factor a = x; factor l = y; factor p = y - x^2;"
        "set S = { a <= 0, l >= 0 } | { a >= 0, l >= 0, p <= 0 };"
    )
    v = check(closed_para, "basic_closed")
    assert v.answer == "No"
    assert v.witness is not None and v.witness_count == 3


def test_basic_closed_with_line_component():
    v = check(S("factor f = y; factor g = x; set S = { f >= 0 } | { g == 0 };"), "basic_closed")
    assert v.answer == "Yes"


def test_generically_basic_examples(fixture_scene):
    assert check(fixture_scene("half"), "generically_basic").answer == "Yes"
    assert check(S("factor f = y; factor c = x^2 + y^2; set S = { f > 0, c != 0 };"), "generically_basic").answer == "Yes"
    assert check(fixture_scene("para"), "generically_basic").answer == "No"


def test_acnode_in_s_makes_plain_disk_basic():
    # the isolated real point of c belongs to S, so S is just the open disk
    sc = S(
        "factor c = y^2 - x^2*(x - 1);"
        "set S = { x^2 + y^2 - 1/4 < 0, c != 0 } | { c == 0, 2*x - 1 < 0, x^2 + y^2 - 1/4 < 0 };"
    )
    assert check(sc, "basic_open").answer == "Yes"


def test_generically_basic_tolerates_acnode_contact():
    # S = the loop interior of c plus a small disk around c's isolated real
    # point: S meets the Zariski boundary exactly at that point
    sc = S(
        "factor c = y^2 - x^2*(x - 1);"
        "set S = { c < 0 } | { 16*x^2 + 16*y^2 - 1 < 0 };"
    )
    bo = check(sc, "basic_open")
    assert (bo.answer, bo.reason) == ("No", "SetMeetsBoundary")
    gb = check(sc, "generically_basic")
    assert gb.answer == "Yes"
    assert gb.diagnostics.get("removed_points") == [["0", "0"]]


def test_principal_closed_examples():
    assert check(S("set S = { y >= 0 };"), "principal_closed").answer == "Yes"
    closed_quad = S("factor a = x; factor b = y; set S = { a >= 0, b >= 0 };")
    v = check(closed_quad, "principal_closed")
    assert v.answer == "No"
    assert v.witness is not None
    assert v.witness_count == 1


@pytest.mark.parametrize(
    "f",
    [
        "x^2 + y^2",  # the plane without the origin
        "y^2 + x^4 - 4*x^2 + 4",  # without the acnodes (+-sqrt2, 0)
    ],
)
def test_principal_closed_is_no_on_a_set_missing_isolated_points(f):
    # no boundary edge meets the complement, which is a set of isolated
    # points and so principal open; closedness is tested on S itself
    sc = S(f"factor f = {f}; set S = {{ f > 0 }};")
    for prop in ("basic_closed", "principal_closed"):
        v = check(sc, prop)
        assert (v.answer, v.reason) == ("No", "NotClosed"), prop


def test_principal_and_basic_answers_imply_each_other(monkeypatch):
    # principal open => basic open => generically basic, and principal
    # closed => basic closed, on the fixtures, their inversions and the
    # scenes with events over irrational walls
    differential = differential_module(monkeypatch)
    scenes = [S(text) for text in differential.IRRATIONAL_WALLS.values()]
    for path in sorted(differential.FIXTURE_DIR.glob("*.bsx")):
        sc = S(path.read_text(encoding="utf-8"))
        inv = invert_scene(sc)
        scenes += [sc, Scene(inv.factors, inv.order, inv.formula, "affine")]
    implications = [
        ("principal_open", "basic_open"),
        ("basic_open", "generically_basic"),
        ("principal_closed", "basic_closed"),
    ]
    held = 0
    for sc in scenes:
        answers = {p: run_check(CheckRequest(sc, p, want_witness=False)).answer for p in PROPERTIES}
        for strong, weak in implications:
            # an Unsupported weaker check decides nothing to compare
            if answers[strong] == "Yes" and answers[weak] != "Unsupported":
                assert answers[weak] == "Yes", (sc.factors, strong, weak)
                held += 1
    assert held >= 10


def wall_denominator_scene_text(a: str, k: int) -> str:
    """Curves a(x, y; k), y + x^2 and y: `a` is a line, or a pair of lines
    with irrational slopes, through (1/k, 0), so walls sit at abscissae with
    denominator k."""
    return f"factor a = {a.format(k=k)}; factor b = y + x^2; factor c = y; set S = {{ a > 0, b > 0 }} | {{ c < 0 }};"


@pytest.mark.parametrize("a", ["y - {k}*x + 1", "y^2 - 2*({k}*x - 1)^2"])
def test_large_wall_denominators_decide_as_small_ones(a):
    props = ("basic_open", "principal_open", "basic_closed")

    def answers(k):
        sc = S(wall_denominator_scene_text(a, k))
        return [(v.answer, v.reason) for v in (run_check(CheckRequest(sc, p)) for p in props)]

    expected = [("No", "SetMeetsBoundary"), ("No", "SetMeetsBoundary"), ("No", "NotClosed")]
    assert answers(3) == expected
    for k in (4099, 10007):
        assert answers(k) == expected, k


# f has double roots at (1/10007, +-1), so the fates at that wall are read
# by approaching it, through many refinement rounds
DOUBLE_ROOTS_10007 = "factor f = (y^2 - 1)^2 - 2*(10007*x - 1)^2; factor g = y + x^2; set S = { f > 0, g > 0 };"
# f has the asymptotes x = +-sqrt2 and y = 0
ASYMPTOTES_SQRT2 = "factor f = x^2*y - 2*y - 1; set S = { f > 0 };"


def test_a_quartic_with_two_double_roots_on_a_wall_of_denominator_10007_decides():
    # S is one clause of strict atoms, so it is basic open by definition
    sc = S(DOUBLE_ROOTS_10007)
    assert arrangement.build_arrangement(sc).euler_characteristic_sphere() == 2
    answers = {p: run_check(CheckRequest(sc, p)) for p in PROPERTIES}
    assert {p: (v.answer, v.reason.split(":")[0]) for p, v in answers.items()} == {
        "basic_open": ("Yes", ""),
        "basic_closed": ("No", "NotClosed"),
        "generically_basic": ("Yes", ""),
        "principal_open": ("No", "principal-complement-side"),
        "principal_closed": ("No", "BoundaryMeetsComplement"),
    }


@pytest.mark.parametrize("prop", ["basic_open", "generically_basic"])
def test_asymptotes_at_irrational_abscissae_are_basic_open(prop):
    # one strict atom: basic open by definition
    v = run_check(CheckRequest(S(ASYMPTOTES_SQRT2), prop))
    assert (v.answer, v.reason) == ("Yes", "")


# the node y^2 = x^3 + 2x^2, tangent to y = +-sqrt2 x at the origin, crossed
# there by the line f1: a single strict clause, and the set {f0*f1 < 0}
IRRATIONAL_TANGENTS = {
    "tangents-sqrt2": "factor f0 = y^2 - x^3 - 2*x^2; factor f1 = 1/2*x + y; set S = { f1 > 0, f0 < 0 };",
    "tangents-sqrt2-union": "factor f0 = y^2 - x^3 - 2*x^2; factor f1 = 1/2*x + y;"
    "set S = { f1 > 0, f0 < 0 } | { f0 > 0, f1 < 0 };",
}


@pytest.mark.parametrize("label", sorted(IRRATIONAL_TANGENTS))
@pytest.mark.parametrize("prop", ["basic_open", "generically_basic"])
def test_a_node_with_irrational_tangents_is_resolved(label, prop):
    # the normal-crossing tests read the node's tangent cone, two simple
    # real lines, so no branch with irrational coefficients is expanded
    v = run_check(CheckRequest(S(IRRATIONAL_TANGENTS[label]), prop))
    assert (v.answer, v.reason) == ("Yes", "")


# node-sqrt2 of the differential, y^2 - x^6 + 3x^4 - 4, under the shear
# (x, y) -> (x + y/2, y): the answer must not change under a plane
# automorphism.  Condition (b) locates points of the pole's D4, which back in
# the affine chart have coordinates near 3*10^105, next to a fibre root;
# counting the roots below them by bisection overflowed the recursion limit
NODE_SQRT2_SHEARED = (
    "factor f = -1/64*y^6 - 3/16*x*y^5 - 15/16*x^2*y^4 + 3/16*y^4 - 5/2*x^3*y^3 + 3/2*x*y^3"
    " - 15/4*x^4*y^2 + 9/2*x^2*y^2 + y^2 - 3*x^5*y + 6*x^3*y - x^6 + 3*x^4 - 4; set S = { f > 0 };"
)


@pytest.mark.parametrize("prop", ["basic_open", "generically_basic"])
def test_sheared_node_sqrt2_answers_as_node_sqrt2(prop):
    x, y = BiPoly.x(), BiPoly.y()
    sheared = y**2 - (x + y.scale(F(1, 2))) ** 6 + (x + y.scale(F(1, 2))) ** 4 * BiPoly.const(3) - BiPoly.const(4)
    scene = S(NODE_SQRT2_SHEARED)
    assert scene.factors["f"] == sheared
    original = S("factor f = y^2 - x^6 + 3*x^4 - 4; set S = { f > 0 };")
    assert run_check(CheckRequest(original, prop)).answer == "Yes"
    v = run_check(CheckRequest(scene, prop))
    assert (v.answer, v.reason) == ("Yes", "")


# rational singular points with large denominators, on fibres of degree 2 and
# above: a cusp at (0, 1/3^10), and two tangent curves whose blow-up meets
# the exceptional line at the slope 1/3^30
LARGE_DENOMINATOR_POINTS = {
    "cusp-59049": "factor f = (y - 1/59049)^2*(y - 1) - x^3; set S = { f > 0 };",
    "tangent-slope-3^30": "factor f = (y - 1/205891132094649*x)*(y - x) - x^3;"
    "factor g = y - 1/205891132094649*x - x^2; set S = { f > 0, g > 0 };",
}


@pytest.mark.parametrize(
    "label, prop, want",
    [
        ("cusp-59049", "basic_open", ("Yes", "", None)),
        ("cusp-59049", "generically_basic", ("Yes", "", None)),
        ("cusp-59049", "basic_closed", ("No", "NotClosed", None)),
        ("cusp-59049", "principal_open", ("Yes", "", None)),
        ("cusp-59049", "principal_closed", ("No", "BoundaryMeetsComplement", None)),
        ("tangent-slope-3^30", "basic_open", ("Yes", "", None)),
        ("tangent-slope-3^30", "generically_basic", ("Yes", "", None)),
        ("tangent-slope-3^30", "basic_closed", ("No", "NotClosed", None)),
        ("tangent-slope-3^30", "principal_open", ("No", "principal-complement-side", 1)),
        ("tangent-slope-3^30", "principal_closed", ("No", "BoundaryMeetsComplement", 1)),
    ],
)
def test_rational_points_with_large_denominators_are_blown_up(label, prop, want):
    # each set is one clause of strict atoms, so basic open by definition;
    # its singular point is rational, so resolution can blow it up
    v = run_check(CheckRequest(S(LARGE_DENOMINATOR_POINTS[label]), prop))
    assert (v.answer, v.reason, v.witness_count) == want


def test_neq_scene_basic():
    v = check(S("factor f = y; set S = { f != 0 };"), "basic_open")
    assert v.answer == "Yes"


def test_whole_plane_principal():
    # with a declared factor but a formula that accepts everything off it too
    v = check(S("factor f = y; set S = { f > 0 } | { f < 0 } | { f == 0 };"), "principal_open")
    assert v.answer == "Yes"


def test_run_check_dispatch(fixture_scene):
    req = CheckRequest(fixture_scene("half"), "basic_open")
    assert run_check(req).answer == "Yes"
    req = CheckRequest(fixture_scene("cubic"), "basic_open")
    assert run_check(req).answer == "No"


def test_monotone_consistency_on_fixtures(fixture_scene):
    for name in ("half", "quad", "saddle", "para", "cubic"):
        sc = fixture_scene(name)
        p = check(sc, "principal_open", want_witness=False)
        if p.answer == "Yes":
            assert check(sc, "basic_open", want_witness=False).answer == "Yes"


def test_chart_swap_invariance_bounded():
    # bounded-curve scenes: verdicts invariant under pre-applying the inversion
    from basix.scene import invert_scene

    texts = [
        "set S = { x^2 + y^2 - 1 < 0 };",
        "set S = { x^2 + y^2 - 1 > 0 };",
        "factor c = x^2 + y^2 - 1; factor d = (x - 4)^2 + y^2 - 1; set S = { c < 0 } | { d < 0 };",
    ]
    for t in texts:
        sc = S(t)
        inv = invert_scene(sc)
        inv2 = Scene(inv.factors, inv.order, inv.formula, chart="affine")
        for prop in ("basic_open", "principal_open"):
            a = check(sc, prop, want_witness=False).answer
            b = check(inv2, prop, want_witness=False).answer
            assert a == b, (t, prop, a, b)


# cubic basic_open's exceptional table: 3 exceptional components x 5 complement
# components, ending at the first positive type-changing row
CUBIC_EXCEPTIONAL_TABLE = [
    {"chart": "affine", "level": level, "sigma": i, "verdict": "PositiveTypeChanging" if (level, i) == (3, 4) else "Silent"}
    for level in (1, 2, 3)
    for i in range(5)
]


def test_a_check_projects_each_value_once(monkeypatch):
    # validation computes each factor's content in x, each discriminant and
    # each pair resultant once, and the arrangement reads them from the
    # projection it is handed
    real_resultant, real_content = bipoly.resultant, BiPoly.content_x
    inputs, contents = [], []

    def counted_resultant(f, g, eliminate="y"):
        inputs.append((f, g, eliminate))
        return real_resultant(f, g, eliminate)

    def counted_content(self):
        contents.append(id(self))
        return real_content(self)

    for name, mod in list(sys.modules.items()):
        if name.startswith("basix.") and getattr(mod, "resultant", None) is real_resultant:
            monkeypatch.setattr(mod, "resultant", counted_resultant)
    monkeypatch.setattr(BiPoly, "content_x", counted_content)
    computed = 0
    for workload in ("fixtures", "blowup", "lines"):
        for key, text in bench_scene_texts(monkeypatch, workload).items():
            sc = S(text)
            inputs.clear()
            contents.clear()
            run_check(CheckRequest(sc, "basic_open"))
            assert len(set(inputs)) == len(inputs), (workload, key)
            assert all(contents.count(id(sc.factors[n])) <= 1 for n in sc.order), (workload, key)
            computed += len(inputs)
    assert computed > 0


def test_timings_are_per_stage_durations(monkeypatch, fixture_scene):
    # the clock advances 1, 2, 3, ... ms between readings, so per-stage marks
    # read 1, 2, 3, ... where cumulative marks would read 1, 3, 6, ...
    readings = []

    def clock():
        n = len(readings)
        readings.append(n)
        return n * (n + 1) / 2000

    monkeypatch.setattr(checker, "time", types.SimpleNamespace(monotonic=clock))
    v = check(fixture_scene("cubic"), "basic_open")
    assert v.timings == {"validate": 1.0, "model": 2.0, "condition_a": 3.0, "condition_b": 4.0, "witness": 5.0}
    # an Unsupported verdict keeps the stages it finished: this build raises
    readings.clear()
    v = check(S("factor a = x^2 - 2; factor b = (x^2 - 2)*y + 1; set S = { a > 0, b > 0 };"), "basic_open")
    assert (v.answer, v.timings) == ("Unsupported", {"validate": 1.0})


def _record_charts(monkeypatch) -> list[str]:
    """Monkeypatch the arrangement constructor to log the chart of each build."""
    charts: list[str] = []
    init = arrangement.Arrangement.__init__

    def recording(self, scene, projection=None):
        charts.append(scene.chart)
        init(self, scene, projection)

    monkeypatch.setattr(arrangement.Arrangement, "__init__", recording)
    return charts


def _check_id(value):
    """``check_<property>`` for a property, pytest's own id otherwise."""
    return f"check_{value}" if value in PROPERTIES else None


@pytest.mark.parametrize(
    "prop",
    ["basic_open", "generically_basic", "principal_open", "basic_closed", "principal_closed"],
    ids=_check_id,
)
def test_affine_only_checks_build_no_infinity_chart(monkeypatch, prop, fixture_scene):
    # the cubic's open checks reach the blow-up criterion, which examines the
    # pole too; it reads the affine arrangement, the only one any check builds
    charts = _record_charts(monkeypatch)
    check(fixture_scene("cubic"), prop)
    assert charts == ["affine"]


@pytest.mark.parametrize(
    "prop, text, reason",
    [
        # both closed scenes pass their precheck, so the inner open check runs
        ("basic_closed", "factor a = x; factor b = y; set S = { a >= 0, b >= 0 };", ""),
        ("principal_closed", "factor f = y; set S = { f >= 0 };", ""),
    ],
    ids=_check_id,
)
def test_closed_checks_build_one_affine_arrangement(monkeypatch, prop, text, reason):
    built = _record_charts(monkeypatch)
    v = check(S(text), prop)
    assert (v.answer, v.reason) == ("Yes", reason)
    assert built == ["affine"]


def _closed_twin(text: str) -> str:
    """Strict atoms relaxed to non-strict ones, != atoms dropped."""
    return re.sub(r"([<>]) 0", r"\1= 0", re.sub(r", \w+ != 0", "", text))


def test_closed_checks_agree_with_the_open_check_on_their_derived_scene():
    # basic_closed answers as basic_open on S minus its Zariski boundary;
    # principal_closed as principal_open on the complement, whose witness
    # counts 4 - k orderings in S when it counts k in the complement
    texts = ["factor a = x; factor b = y; set S = { a <= 0 } | { b <= 0 };"]  # not principal
    for path in sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.bsx")):
        texts += [path.read_text(encoding="utf-8"), _closed_twin(path.read_text(encoding="utf-8"))]
    reached, witnesses = 0, 0
    for text in texts:
        sc = S(text)
        closed = check(sc, "basic_closed")
        if closed.reason != "NotClosed":
            reached += 1
            inner = check(sc.minus_factor_zeros(closed.diagnostics["zariski_boundary"]), "basic_open")
            assert _outcome(closed) == _outcome(inner), text
            witnesses += inner.witness is not None
        closed = check(sc, "principal_closed")
        if closed.reason != "BoundaryMeetsComplement":
            reached += 1
            inner = check(sc.complement(), "principal_open")
            assert _outcome(closed)[:3] == _outcome(inner)[:3], text
            if inner.witness is not None:
                witnesses += 1
                assert closed.witness_count == 4 - inner.witness_count
    assert reached >= 6 and witnesses >= 3


def _outcome(v):
    witness = fan_to_json(v.witness) if v.witness is not None else None
    return v.answer, v.reason, witness, v.witness_count


def test_cubic_basic_open_builds_each_part_once(monkeypatch, fixture_scene):
    charts = _record_charts(monkeypatch)
    classified = []
    classify = checker.classify_exceptional

    def counting(D, decomp):
        classified.append(D)
        return classify(D, decomp)

    monkeypatch.setattr(checker, "classify_exceptional", counting)
    v = check(fixture_scene("cubic"), "basic_open")
    assert charts == ["affine"]
    assert len(classified) == 3 == len({id(D) for D in classified})
    assert v.diagnostics["exceptional_table"] == CUBIC_EXCEPTIONAL_TABLE


def test_basix_max_depth_env_caps_resolution(monkeypatch, capsys):
    monkeypatch.setenv("BASIX_MAX_DEPTH", "1")
    cubic = Path(__file__).resolve().parent.parent / "fixtures" / "cubic.bsx"
    assert cli.main(["check", str(cubic), "--property", "basic-open"]) == cli.EXIT_UNSUPPORTED
    assert "DepthCap" in capsys.readouterr().out


def test_basix_max_depth_does_not_outlive_the_cli_call(monkeypatch, fixture_scene):
    monkeypatch.setenv("BASIX_MAX_DEPTH", "1")
    cubic = Path(__file__).resolve().parent.parent / "fixtures" / "cubic.bsx"
    assert cli.main(["check", str(cubic), "--property", "basic-open"]) == cli.EXIT_UNSUPPORTED
    monkeypatch.delenv("BASIX_MAX_DEPTH")
    v = run_check(CheckRequest(fixture_scene("cubic"), "basic_open"))
    assert (v.answer, v.reason) == ("No", "condition-b")


def test_depth_cap_is_read_from_the_request(fixture_scene):
    v = run_check(CheckRequest(fixture_scene("cubic"), "basic_open", depth_cap=1))
    assert v.answer == "Unsupported" and v.reason.startswith("DepthCap")


QUAD_CLOSED = "factor a = x;\nfactor b = y;\nset S = { a >= 0, b >= 0 };\n"


def test_principal_witness_search_reraises_internal_error(monkeypatch):
    # the boundary of the closed quadrant meets its complement, so
    # principal_closed answers No and searches for a curve-centered witness
    def broken(fan, scene):
        raise InternalError("broken invariant")

    monkeypatch.setattr(checker, "fan_count_in_S", broken)
    with pytest.raises(InternalError, match="broken invariant"):
        run_check(CheckRequest(S(QUAD_CLOSED), "principal_closed"))


def test_principal_witness_search_skips_failed_candidates(monkeypatch):
    def unsupported(fan, scene):
        raise Unsupported("NonRationalWitnessBase", "no candidate works")

    monkeypatch.setattr(checker, "fan_count_in_S", unsupported)
    v = run_check(CheckRequest(S(QUAD_CLOSED), "principal_closed"))
    assert (v.answer, v.reason, v.witness) == ("No", "BoundaryMeetsComplement", None)


def _sides_in_S(d, *edges) -> int:
    """How many of the regions beside the edges lie in S, counted per side."""
    return sum(r in d.s_regions for e in edges for r in e.sides())


def _search_candidates(d):
    """(factor, edge, edge) for each pair `_principal_witness_search` may try."""
    for factor in sorted(d.zariski_boundary):
        edges = d.arrangement.edges_of_factor(factor)
        pairs = ((a, b) for a in edges for b in edges if a is not b)
        for a, b in islice(pairs, checker._PAIRS_PER_FACTOR):
            yield factor, a, b


def _fixture_and_inversion_decompositions():
    """The decompositions of each fixture and its inversion, and of their
    complements."""
    for name in ("cubic", "half", "para", "quad", "saddle"):
        sc = load_fixture(name)
        for scene in (sc, invert_scene(sc)):
            arr = build_arrangement(scene)
            yield decompose_set(arr, scene)
            yield decompose_set(arr, scene.complement())


def test_side_tags_predict_the_count_of_every_candidate_curve_fan():
    decomps = list(_fixture_and_inversion_decompositions())
    rng = random.Random(11)
    for _ in range(20):
        sc = S(random_scene_text(rng))
        try:
            validate_scene(sc)
            arr = build_arrangement(sc)
        except (SceneError, Unsupported):
            continue
        decomps += [decompose_set(arr, sc), decompose_set(arr, sc.complement())]
    seen = Counter()
    for d in decomps:
        for factor, a, b in _search_candidates(d):
            try:
                fan = witness_curve_fan(d, factor, a.eid, b.eid)
                count = fan_count_in_S(fan, d.scene)
            except Unsupported:
                continue
            assert count == _sides_in_S(d, a, b), (d.scene.formula, factor, a.eid, b.eid)
            seen["odd" if count % 2 else "even"] += 1
            seen["vertical"] += a.vertical or b.vertical
            seen["irrational"] += any(isinstance(o, CurvePointOrdering) for o in fan.orderings)
    assert min(seen[k] for k in ("odd", "even", "vertical", "irrational")) >= 10, seen


def test_principal_witness_search_builds_only_fans_of_odd_count(monkeypatch):
    built = []
    build = checker.witness_curve_fan

    def recording(d, factor, e1, e2):
        built.append(_sides_in_S(d, d.arrangement.edges[e1], d.arrangement.edges[e2]))
        return build(d, factor, e1, e2)

    monkeypatch.setattr(checker, "witness_curve_fan", recording)
    found = [checker._principal_witness_search(d) for d in _fixture_and_inversion_decompositions()]
    assert sum(f is not None for f in found) >= 5
    assert built and all(n % 2 for n in built), built


@pytest.mark.parametrize("check", ["basic_open", "principal_open"])
def test_witness_errors_other_than_unsupported_propagate(monkeypatch, fixture_scene, check):
    # para fails condition (a) and its interior-of-closure test, so both
    # checks build a curve witness; only Unsupported may leave the "No" bare
    def broken(fan, scene):
        raise InternalError("broken invariant")

    monkeypatch.setattr(checker, "fan_count_in_S", broken)
    with pytest.raises(InternalError, match="broken invariant"):
        run_check(CheckRequest(fixture_scene("para"), check))
