"""The pole view against a full arrangement of the inverted scene.

No check builds the inverted arrangement; the pole is read through the affine
one.  Here the inverted arrangement is built as an independent reference, and
everything the checks used to read from it must agree with the pole view:
the Zariski boundary, the condition-a table and outcome, the analysis point
at the pole, and the region tags of points of the inverted chart.
"""

import random
from fractions import Fraction
from pathlib import Path

from basix.arrangement import build_arrangement
from basix.decompose import decompose_set
from basix.errors import SceneError, Unsupported
from basix.resolution import analysis_table, pole_analysis_point
from basix.scene import Scene, invert_scene, validate_scene
from basix.signdist import condition_a_check, condition_a_table
from basix.sphere import build_sphere_model, infinity_sigma_decomposition

F = Fraction
ORIGIN = (F(0), F(0))
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _coef(rng: random.Random) -> str:
    return f"({F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))})"


def _factor(rng: random.Random) -> str:
    c = lambda: _coef(rng)  # noqa: E731
    return rng.choice(
        (
            lambda: f"{c()}*x + y + {c()}",
            lambda: f"x + {c()}*y + {c()}",
            lambda: f"x^2 + {rng.randint(1, 3)}*y^2 + {c()}*x + {c()}*y - {rng.randint(1, 3)}",
            lambda: f"y - {c()}*x^2 - {c()}*x + {c()}",
            lambda: f"y - {c()}*x^3 - {c()}*x + {c()}",
            lambda: f"y^2 - {rng.randint(1, 3)}*x^3 + {c()}*x^2",
            lambda: f"x*y - {c()}*x + {c()}*y - {rng.randint(1, 2)}",
        )
    )()


def random_scene_text(rng: random.Random) -> str:
    """Lines, conics, parabolas, cubics, cusps and hyperbolas under a random DNF."""
    n = rng.randint(2, 3)
    text = "".join(f"factor f{i} = {_factor(rng)};\n" for i in range(n))
    clauses = []
    for _ in range(rng.randint(1, 2)):
        atoms = [f"f{i} {rng.choice(('<', '>', '<=', '>='))} 0" for i in rng.sample(range(n), rng.randint(1, 2))]
        clauses.append("{ " + ", ".join(atoms) + " }")
    return text + "set S = " + " | ".join(clauses) + ";\n"


def _region_point(arr, r) -> tuple[Fraction, Fraction]:
    """A rational point of the region other than the chart origin."""
    for pt in [r.sample] + [arr._gap_sample(s, g) for s, g in r.gaps]:
        if pt != ORIGIN:
            return pt
    for k in range(1, 40):
        for dy in (F(1, 2**k), -F(1, 2**k)):
            off_curves = all(p.eval(F(0), dy) for p in arr.factors.values())
            if off_curves and arr.region_of_point(F(0), dy) == r.rid:
                return F(0), dy
    raise AssertionError(f"no point of region {r.rid} off the origin")


def _compare(text: str, rng: random.Random) -> str | None:
    """Compare pole view and reference on one scene.  Returns how the pole
    was classified ("regular" when it is no analysis point), or None when the
    scene is invalid or unsupported."""
    sc = Scene.from_text(text)
    try:
        validate_scene(sc)
        model = build_sphere_model(sc)
        inv = invert_scene(sc)
        ref = decompose_set(build_arrangement(inv), inv)
    except (Unsupported, SceneError):
        return None
    aff, view = model.affine, infinity_sigma_decomposition(model)
    assert view.scene.order == ref.scene.order, text
    assert ref.zariski_boundary == aff.zariski_boundary, text

    def ref_tag(rid: int) -> tuple:
        if rid in ref.s_regions:
            return ("in_S",)
        return ("in_A", ref.a_of_region[rid])

    # reference components correspond one to one with affine components
    comp: dict[int, int] = {}
    for r in ref.arrangement.regions:
        want, got = ref_tag(r.rid), view.tag_at(*_region_point(ref.arrangement, r))
        assert want[0] == got[0], (text, r.rid)
        if want[0] == "in_A":
            assert comp.setdefault(want[1], got[1]) == got[1], text
    assert sorted(comp.values()) == list(range(len(aff.a_components))) == sorted(comp), text

    # condition a
    mapped = sorted((f, comp[i], verdict) for f, i, verdict in condition_a_table(ref))
    assert mapped == sorted(condition_a_table(aff)), text
    assert (condition_a_check(ref) is None) == (condition_a_check(aff) is None), text

    # the analysis point at the pole
    old = [(ap.factors, ap.exempt, ap.reason) for ap in analysis_table(ref) if ap.point == ORIGIN]
    ap = pole_analysis_point(view)
    assert old == ([] if ap is None else [(ap.factors, ap.exempt, ap.reason)]), text
    if ap is not None:
        assert (ap.vertex_id, ap.point, ap.rational) == (None, ORIGIN, True)

    # region tags of random points of the inverted chart off the curves
    polys = list(inv.factors.values())
    for _ in range(20):
        pt = (F(rng.randint(-40, 40), rng.randint(1, 8)), F(rng.randint(-40, 40), rng.randint(1, 8)))
        if pt == ORIGIN or any(p.eval(*pt) == 0 for p in polys):
            continue
        want = ref_tag(ref.arrangement.region_of_point(*pt))
        if want[0] == "in_A":
            want = ("in_A", comp[want[1]])
        assert view.tag_at(*pt) == want, (text, pt)
    return "regular" if ap is None else ap.reason


def test_pole_view_matches_the_inverted_arrangement_on_fixtures():
    rng = random.Random(5)
    for path in sorted(FIXTURES.glob("*.bsx")):
        assert _compare(path.read_text(encoding="utf-8"), rng), path.name


def test_pole_view_matches_the_inverted_arrangement_on_random_scenes():
    rng = random.Random(20261018)
    compared = sum(_compare(random_scene_text(rng), rng) is not None for _ in range(44))
    assert compared >= 40


POLE_SCENES = {
    # the inverted curve is smooth at the origin, or one singular arc crosses
    # x = 0 there (y = x^2 and y = x^3 invert to cusps): no vertex, no point
    "factor a = y - x - 1; set S = { a > 0 };": "regular",
    "factor a = y - x^2; set S = { a > 0 };": "regular",
    "factor a = y - x^3; set S = { a < 0 };": "regular",
    "factor a = x^2 + 2*y^2 - 1; set S = { a < 0 };": "isolated point",
    "factor a = x; factor b = y; set S = { a > 0, b > 0 };": "transversal crossing",
    "factor a = x*y - 1; set S = { a > 0 };": "ordinary node",
    "factor a = y - x; factor b = y - x - 1; set S = { a > 0, b < 0 };": "needs resolution",
    "factor a = y - x^2; factor b = y; set S = { a > 0, b > 0 };": "needs resolution",
    (
        "factor f0 = x^2 + 1/3*y^2 - x - 2; factor f1 = y - x^2 - x + 1;"
        " factor f2 = y^2 - 2*x^3 + 1/2*x^2; set S = { f1 < 0, f0 < 0 };"
    ): "needs resolution",
}


def test_pole_view_matches_the_inverted_arrangement_at_each_kind_of_pole():
    rng = random.Random(11)
    for text, kind in POLE_SCENES.items():
        assert _compare(text, rng) == kind, text
