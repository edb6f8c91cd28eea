import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import FIXTURE_DIR, bench_scene_texts
from hypothesis import assume, given, settings, strategies as st
from test_algebra import _ref_quotient, _sympy_expr

from basix.bipoly import BiPoly, are_coprime, is_squarefree
from basix.checker import check_basic_open, check_principal_closed
from basix.errors import NotSquarefree, ParseError, SceneError, SharedComponent
from basix.parser import parse_polynomial
from basix.scene import (
    Atom,
    Clause,
    Formula,
    OpenComplement,
    Scene,
    _linear_factor,
    invert_poly,
    invert_scene,
    project_scene,
    validate_scene,
)

F = Fraction


def S(text):
    return Scene.from_text(text)


def test_parse_half():
    sc = S("factor f = y; set S = { f > 0 };")
    assert sc.order == ["f"]
    assert sc.member(0, 1)
    assert not sc.member(0, -1)
    assert not sc.member(1, 0)


def test_parse_quad_auto_factors():
    sc = S("set S = { y > 0, x > 0 };")
    assert len(sc.order) == 2
    assert sc.member(1, 1)
    assert not sc.member(-1, 1)


def test_parse_error_dangling():
    with pytest.raises(ParseError):
        S("set S = { y > };")


def test_sign_normalisation_merges_negated_factors():
    sc = S("set S = { -x > 0, y > 0 } | { x > 0, y > 0 };")
    # -x and x must normalise to one declared factor
    assert len(sc.order) == 2
    assert sc.member(-1, 1) and sc.member(1, 1)
    assert not sc.member(1, -1)


def test_validate_ok():
    assert validate_scene(S("factor a = y; factor b = y - x^2; set S = { a > 0, b < 0 };")) == []


def test_validate_not_squarefree():
    with pytest.raises(NotSquarefree):
        validate_scene(S("factor a = y^2; set S = { a > 0 };"))


def test_validate_shared_component():
    with pytest.raises(SharedComponent):
        validate_scene(S("factor a = y^2 - x^2; factor b = y - x; set S = { a > 0, b > 0 };"))


def test_validate_reducible_warning():
    assert validate_scene(S("factor a = x*y; set S = { a > 0 };")) == ["factor 'a' looks reducible: content in x of degree 1"]


# scenes whose outcome validation decides from the projection, with the
# input error each raises (None: it validates); tests/differential.py runs
# them under every property
PROJECTION_PINS = {
    "square-content": ("factor a = (x - 1)^2*(y + 1); set S = { a > 0 };", NotSquarefree),
    "line-divides-content": (
        "factor a = x - 1; factor b = (x - 1)*(y + x); set S = { a > 0, b > 0 };",
        SharedComponent,
    ),
    "shared-content": (
        "factor a = (x - 1)*(y + 1); factor b = (x - 1)*(y - 1); set S = { a > 0, b < 0 };",
        SharedComponent,
    ),
    "square-x-only": ("factor a = (x^2 - 2)^2; set S = { a > 0 };", NotSquarefree),
    "x-only-quadratic": ("factor a = x^2 - 2; factor b = (x^2 - 2)*y + 1; set S = { a > 0, b > 0 };", None),
}


@pytest.mark.parametrize("label", sorted(PROJECTION_PINS))
def test_projection_pins(label):
    text, error = PROJECTION_PINS[label]
    sc = S(text)
    if error is not None:
        with pytest.raises(error):
            validate_scene(sc)
        return
    assert validate_scene(sc) == []
    v = check_basic_open(sc)
    assert (v.answer, v.reason) == ("Unsupported", "NonRationalShearNeeded: factor 'a' is an x-only polynomial of degree 2")


def test_undeclared_factor_error_names_the_first_in_formula_order():
    # the formula's factors are walked in formula order, not as a set whose
    # order follows the string hash seed
    code = (
        "from basix.parser import parse_polynomial\n"
        "from basix.scene import Atom, Clause, Formula, Scene, validate_scene\n"
        "f = Formula((Clause((Atom('q', '>'), Atom('r', '<'))),))\n"
        "try:\n"
        "    validate_scene(Scene({'a': parse_polynomial('y')}, ['a'], f))\n"
        "except Exception as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.stdout == "formula references undeclared factor 'q'\n", (seed, out.stderr)


def test_undeclared_factor_is_a_scene_error():
    f = Formula((Clause((Atom("a", ">"), Atom("r", "<"))),))
    with pytest.raises(SceneError, match="undeclared factor 'r'"):
        validate_scene(Scene({"a": parse_polynomial("y")}, ["a"], f))


@pytest.mark.parametrize(
    "text, warning",
    [
        ("(y - 2*x - 5)*(y - x^2 - 1)", "divisible by y - 2*x - 5"),
        ("(y - x/3 - 1/2)*(x^2 + y^2 - 4)", "divisible by y - 1/3*x - 1/2"),
        ("4*x^2 - 1", "divisible by x + 1/2"),
        # the first line in increasing (slope, intercept) order is named
        ("(y + 3*x - 4)*(y + x)", "divisible by y + 3*x - 4"),
        ("y^2 - 1", "divisible by y + 1"),
        ("x*y - 3*x + y/3 - 1", "content in x of degree 1"),
        ("(2*y - 3)*(y^2 + x)", "content in y"),
        ("x^2 + y^2 - 1", None),
        ("x^2 - 2", None),
    ],
)
def test_linear_factor_pins(text, warning):
    p = parse_polynomial(text)
    assert _linear_factor(p, p.content_x()) == warning


def _assert_warning_holds(p, warning):
    """The warning names a true factor: a dividing line or a real content."""
    if warning.startswith("divisible by "):
        assert p.quotient(parse_polynomial(warning.removeprefix("divisible by "))) is not None
    elif warning == "content in y":
        assert p.swap_xy().content_x().degree >= 1
    else:
        degree = p.content_x().degree
        assert degree >= 1 and warning == f"content in x of degree {degree}"


_ratio = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))
_rational_lines = st.one_of(
    st.builds(lambda m, c: BiPoly({(0, 1): 1, (1, 0): -m, (0, 0): -c}), _ratio, _ratio),
    st.builds(lambda a: BiPoly({(1, 0): 1, (0, 0): -a}), _ratio),
    st.builds(lambda c: BiPoly({(0, 1): 1, (0, 0): -c}), _ratio),
)
_cubics = st.dictionaries(
    st.sampled_from([(i, j) for i in range(4) for j in range(4 - i)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    min_size=1,
    max_size=6,
).map(BiPoly).filter(lambda q: q.total_degree >= 1)


@given(_rational_lines, _cubics)
@settings(max_examples=80, deadline=None)
def test_every_rational_line_factor_is_found(line, q):
    p = line * q
    warning = _linear_factor(p, p.content_x())
    assert warning is not None
    _assert_warning_holds(p, warning)


_small_factors = st.dictionaries(
    st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
    min_size=1,
    max_size=4,
).map(BiPoly).filter(lambda f: f.total_degree >= 1)


@given(st.lists(_small_factors, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_linear_factor_agrees_with_sympy(factors):
    sympy = pytest.importorskip("sympy")
    p = factors[0]
    for f in factors[1:]:
        p = p * f
    assume(p.total_degree >= 2)
    x, y = sympy.symbols("x y")
    found = sympy.factor_list(_sympy_expr(sympy, p, x, y))[1]
    if p.deg_x >= 1 and p.deg_y >= 1:
        want = any(sympy.Poly(fac, x, y).total_degree() == 1 or len(fac.free_symbols) == 1 for fac, _m in found)
    else:
        want = any(sympy.Poly(fac, x, y).total_degree() == 1 for fac, _m in found)
    warning = _linear_factor(p, p.content_x())
    assert (warning is not None) == want
    if warning is not None:
        _assert_warning_holds(p, warning)


_x_only_factors = st.dictionaries(
    st.sampled_from([(0, 0), (1, 0), (2, 0)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
    min_size=1,
    max_size=3,
).map(BiPoly).filter(lambda f: f.total_degree >= 1)


@given(_x_only_factors, st.lists(_small_factors, min_size=1, max_size=2), st.data())
@settings(max_examples=60, deadline=None)
def test_projection_agrees_with_sympy(x_only, others, data):
    # scene factors are products of pieces drawn with repetition from a small
    # pool, its x-only piece twice as often as the others, so that squares,
    # shared factors, contents in x and x-only factors all occur
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    pool = [x_only, *others]
    piece = st.sampled_from([0, *range(len(pool))])
    picks = data.draw(st.lists(st.lists(piece, min_size=1, max_size=3), min_size=1, max_size=3))
    polys = []
    for pick in picks:
        p = pool[pick[0]]
        for k in pick[1:]:
            p = p * pool[k]
        polys.append(p)
    names = [f"f{k}" for k in range(len(polys))]
    exprs = [_sympy_expr(sympy, p, x, y) for p in polys]
    squarefree = [all(m == 1 for _f, m in sympy.sqf_list(e, x, y)[1]) for e in exprs]
    coprime = {
        (i, j): sympy.Poly(sympy.gcd(exprs[i], exprs[j]), x, y).total_degree() == 0
        for i in range(len(polys))
        for j in range(i + 1, len(polys))
    }
    assert squarefree == [is_squarefree(p) for p in polys]
    assert coprime == {(i, j): are_coprime(polys[i], polys[j]) for i, j in coprime}
    if not all(squarefree):
        want = NotSquarefree(names[squarefree.index(False)])
    elif not all(coprime.values()):
        i, j = next(pair for pair, ok in coprime.items() if not ok)
        want = SharedComponent(names[i], names[j])
    else:
        want = None
    sc = Scene(dict(zip(names, polys)), names, Formula(()))
    try:
        project_scene(sc)
    except (NotSquarefree, SharedComponent) as exc:
        assert want is not None and (type(exc), str(exc)) == (type(want), str(want))
    else:
        assert want is None


def test_benchmark_scenes_raise_no_warning(monkeypatch):
    # the pinned benchmark digests assume that no scene warns
    for workload in ("fixtures", "blowup", "lines"):
        for key, text in bench_scene_texts(monkeypatch, workload).items():
            assert validate_scene(Scene.from_text(text)) == [], (workload, key)


# ----------------------------------------------------------- chart inversion


_Q = BiPoly({(2, 0): F(1), (0, 2): F(1)})


def _ref_inverted_numerator(h):
    """The Fraction inversion that the integer term map replaced: h(x/q, y/q)
    * q^d by BiPoly products, every factor q stripped by Fraction long
    division in y (``_ref_quotient``)."""
    d = h.total_degree
    acc = BiPoly.zero()
    for (i, j), v in h.t.items():
        acc = acc + (BiPoly({(i, j): v}) * _Q ** (d - i - j))
    while (divided := _ref_quotient(acc, _Q)) is not None:
        acc = divided
    return acc


def _ref_invert_poly(h):
    """``_ref_inverted_numerator`` scaled by a positive Fraction to its
    primitive integer form."""
    acc = _ref_inverted_numerator(h)
    rows, l = acc.int_y_rows()
    return acc.scale(F(l, math.gcd(*(v for r in rows for v in r))))


_quintics = st.dictionaries(
    st.sampled_from([(i, j) for i in range(6) for j in range(6 - i)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    min_size=1,
    max_size=8,
).map(BiPoly).filter(lambda q: q.total_degree >= 1)
_nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)


@given(
    st.one_of(
        _quintics,
        st.tuples(_quintics.filter(lambda q: q.total_degree <= 3), st.integers(1, 2)).map(lambda pk: pk[0] * _Q ** pk[1]),
        st.tuples(_nonzero, st.integers(1, 3)).map(lambda ck: (_Q ** ck[1]).scale(ck[0])),
    )
)
@settings(max_examples=150, deadline=None)
def test_invert_poly_matches_fraction_reference(h):
    assert invert_poly(h) == _ref_invert_poly(h)


@given(_nonzero, st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_definite_forms_invert_to_constants_of_their_sign(c, k):
    assert invert_poly((_Q**k).scale(c)) == BiPoly.const(1 if c > 0 else -1)


@given(_cubics)
@settings(max_examples=40, deadline=None)
def test_invert_poly_is_the_primitive_integer_form(p):
    # a positive multiple of the inverted numerator, with coprime integer terms
    raw, q = _ref_inverted_numerator(p), invert_poly(p)
    ratio = q.t[next(iter(raw.t))] / raw.t[next(iter(raw.t))]
    assert ratio > 0 and q == raw.scale(ratio)
    assert all(v.denominator == 1 for v in q.t.values())
    assert math.gcd(*(v.numerator for v in q.t.values())) == 1


def test_invert_line():
    assert invert_poly(parse_polynomial("y")) == parse_polynomial("y")


def test_invert_parabola():
    got = invert_poly(parse_polynomial("y - x^2"))
    assert got == parse_polynomial("y*(x^2 + y^2) - x^2")


def test_invert_circle_strips_q():
    got = invert_poly(parse_polynomial("x^2 + y^2 - 1"))
    assert got == parse_polynomial("1 - x^2 - y^2")


def test_invert_involution_up_to_positive_constant():
    rng = random.Random(7)
    for _ in range(12):
        terms = {}
        for _k in range(rng.randint(2, 5)):
            terms[(rng.randint(0, 2), rng.randint(0, 2))] = F(rng.randint(-4, 4))
        p = BiPoly(terms)
        if p.is_zero() or p.is_const():
            continue
        q = invert_poly(invert_poly(p))
        # q == c * p with c > 0
        for key in p.t:
            if key in q.t:
                c = q.t[key] / p.t[key]
                break
        assert c > 0
        assert q == p.scale(c)


def test_invert_scene_is_a_term_map_on_integer_rows(monkeypatch):
    # no BiPoly product, power or division in y on any fixture or bench scene
    scenes = [Scene.from_text(path.read_text(encoding="utf-8")) for path in sorted(FIXTURE_DIR.glob("*.bsx"))]
    for workload in ("fixtures", "blowup", "lines"):
        scenes += [Scene.from_text(text) for text in bench_scene_texts(monkeypatch, workload).values()]

    def refuse(*_args):
        raise AssertionError("invert_scene ran a Fraction kernel")

    for name in ("__mul__", "__pow__", "quotient"):
        monkeypatch.setattr(BiPoly, name, refuse)
    for sc in scenes:
        assert invert_scene(sc).chart == "infinity"


def test_invert_scene_membership_transport():
    sc = S("set S = { y > 0, y - x^2 != 0 };")
    inv = invert_scene(sc)
    rng = random.Random(3)
    for _ in range(60):
        x = F(rng.randint(-8, 8), rng.randint(1, 5))
        y = F(rng.randint(-8, 8), rng.randint(1, 5))
        if x == 0 and y == 0:
            continue
        q = x * x + y * y
        xi, yi = x / q, y / q
        assert sc.member(x, y) == inv.member(xi, yi)


def test_complement_formula():
    sc = S("set S = { y > 0, x > 0 };")
    comp = sc.complement()
    for pt in [(1, 1), (-1, 1), (1, -1), (-1, -1), (0, 1), (1, 0), (0, 0)]:
        assert comp.member(*pt) == (not sc.member(*pt))


_UNION_TAIL = (
    "{ a >= 0, b < 0, c < 0 }",
    "{ a >= 0, b < 0, c > 0 }",
    "{ a >= 0, b > 0, c > 0 }",
    "{ a >= 0, b < 0, c < 0 }",
    "{ a >= 0, b > 0, c < 0 }",
    "{ a >= 0, b > 0, c < 0 }",
    "{ a >= 0, b > 0, c < 0 }",
    "{ a >= 0, b < 0, c > 0 }",
    "{ a >= 0, b > 0, c > 0 }",
)


def union_scene_text(n_clauses: int) -> str:
    """A union of `{ a >= 0 }` and n_clauses - 1 three-atom clauses over
    three lines; the DNF of its negation has 3^(n_clauses - 1) clauses."""
    clauses = ("{ a >= 0 }",) + _UNION_TAIL[: n_clauses - 1]
    return "factor a = y; factor b = x - 1; factor c = x + y - 3; set S = " + " | ".join(clauses) + ";\n"


def test_complement_keeps_the_formula():
    sc = S(union_scene_text(10))
    comp = sc.complement()
    assert comp.formula == OpenComplement(sc.formula, frozenset())
    assert validate_scene(comp) == validate_scene(sc)
    for x in range(-1, 5):
        for y in range(-2, 4):
            assert comp.member(x, y) == (not sc.member(x, y))
    v = check_principal_closed(sc)
    assert (v.answer, v.reason, v.witness) == ("Yes", "", None)
    assert v.diagnostics == {
        "complement_check": {"complement_interior_closure_dim": "empty", "interior_closure_dim": "empty"}
    }


def test_minus_factor_zeros():
    sc = S("factor f = y; set S = { f >= 0 };")
    red = sc.minus_factor_zeros(["f"])
    assert red.member(0, 1)
    assert not red.member(0, 0)


def test_open_complement():
    # X minus (S union Z(g)) for S = {f >= 0, g > 0}, checked against its definition
    sc = S("factor f = y; factor g = x - 1; set S = { f >= 0, g > 0 };")
    oc = sc.open_complement(["g"])
    for x in range(-2, 3):
        for y in range(-2, 3):
            assert oc.member(x, y) == (not sc.member(x, y) and x != 1)
