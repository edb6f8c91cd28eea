import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from basix.bipoly import BiPoly
from basix.checker import check_principal_closed
from basix.errors import NotSquarefree, ParseError, SharedComponent
from basix.parser import parse_polynomial
from basix.scene import OpenComplement, Scene, _reducibility_probe, invert_poly, invert_scene, validate_scene

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


def _reducibility_probe_reference(p):
    """The probe dividing by every candidate line, with no zero screen."""
    if p.total_degree <= 1:
        return None
    if p.deg_y >= 1:
        cont = p.content_x()
        if cont.degree >= 1:
            return f"content in x of degree {cont.degree}"
    if p.deg_x >= 1:
        if p.swap_xy().content_x().degree >= 1:
            return "content in y"
    for mnum in range(-3, 4):
        for mden in (1, 2):
            for cnum in range(-3, 4):
                m, c = Fraction(mnum, mden), Fraction(cnum)
                line = BiPoly({(0, 1): Fraction(1), (1, 0): -m, (0, 0): -c})
                if line.divides(p) and p.deg_y >= 1:
                    return f"divisible by {line.to_text()}"
    for anum in range(-3, 4):
        vert = BiPoly({(1, 0): Fraction(1), (0, 0): -Fraction(anum)})
        if p.deg_x >= 1 and vert.divides(p):
            return f"divisible by {vert.to_text()}"
    return None


_coef = st.fractions(min_value=-3, max_value=3, max_denominator=2)
_conics = st.dictionaries(
    st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]), _coef, min_size=1, max_size=6
).map(BiPoly)
# the probed lines y - (m x + c) and x - a, plus lines the probe never tries
_lines = st.one_of(
    st.builds(
        lambda m, c: BiPoly({(0, 1): Fraction(1), (1, 0): -m, (0, 0): -c}),
        st.sampled_from([Fraction(n, d) for n in range(-3, 4) for d in (1, 2)]),
        st.integers(-4, 4).map(Fraction),
    ),
    st.integers(-4, 4).map(lambda a: BiPoly({(1, 0): Fraction(1), (0, 0): Fraction(-a)})),
    st.builds(lambda a, b: BiPoly({(1, 0): a, (0, 1): b, (0, 0): Fraction(1, 3)}), _coef, _coef),
)


@given(st.one_of(_conics, st.builds(lambda l, q: l * q, _lines, _conics)))
@settings(max_examples=80, deadline=None)
def test_reducibility_probe_screen_keeps_the_warning(p):
    assert _reducibility_probe(p) == _reducibility_probe_reference(p)


# ----------------------------------------------------------- chart inversion


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
