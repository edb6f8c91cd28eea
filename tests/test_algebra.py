import math
import random
from fractions import Fraction

import pytest
from conftest import int_primitive
from hypothesis import example, given, settings, strategies as st

from basix.bipoly import BiPoly, are_coprime, discriminant_y, is_squarefree, resultant
from basix.errors import DegreeZero, InternalError
from basix.parser import parse_polynomial
from basix import bipoly, realroots
from basix.realroots import (
    RootLocator,
    between,
    count_roots_below,
    isolate_real_roots,
    open_count,
    rational_roots,
    refine_disjoint,
    roots_equal,
    separate,
    simplest_in,
    vanishes_at,
)
from basix.resolution import _strict_transform
from basix.series import TSeries, compose_bipoly, series_div_unit
from basix.unipoly import (
    UniPoly,
    _ilist_gcd,
    _ilist_primitive,
    _ilist_pseudo_rem,
    _ilist_squarefree,
    homogeneous_horner,
)

F = Fraction


def P(*coeffs):
    return UniPoly(coeffs)


def _ref_divmod(p, d):
    """(quotient, remainder) of UniPolys by Fraction long division: the
    reference for the integer-list quotients."""
    q = [F(0)] * max(0, len(p.c) - len(d.c) + 1)
    r = list(p.c)
    while len(r) >= len(d.c) and r:
        k = len(r) - len(d.c)
        f = q[k] = r[-1] / d.c[-1]
        for i, v in enumerate(d.c):
            r[k + i] -= f * v
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return UniPoly(q), UniPoly(r)


def _ref_y_coeffs(p):
    """The coefficients of p in Q[x], indexed by the power of y, read from
    the terms."""
    return [UniPoly([p.t.get((i, j), 0) for i in range(p.deg_x + 1)]) for j in range(p.deg_y + 1)]


def _ref_derivative(p):
    return UniPoly([v * i for i, v in enumerate(p.c)][1:])


def _ref_gcd(a, b):
    """A gcd of two UniPolys by the Fraction Euclidean algorithm, up to a
    constant factor; 0 when both are 0."""
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return a


def _ref_squarefree_part(p):
    """The monic Fraction squarefree part p / gcd(p, p') that the integer
    one replaced."""
    q = _ref_divmod(p, _ref_gcd(p, _ref_derivative(p)))[0]
    return q.scale(1 / q.c[-1]) if q else q


# ---------------------------------------------------------------- gcd


def test_gcd_common_linear_factor():
    # gcd(x^2 - 1, (x - 1)(x + 2)) = x - 1
    a = P(-1, 0, 1)
    b = UniPoly.from_roots([1, -2])
    assert _ilist_gcd(int_primitive(a), int_primitive(b)) == [-1, 1]


def test_gcd_coprime():
    assert _ilist_gcd([1, 0, 1], [0, 1]) == [1]


def test_gcd_with_zero():
    a = P(0, -2, 0, 2)  # 2x^3 - 2x
    assert _ilist_gcd(int_primitive(a), []) == _ilist_gcd([], int_primitive(a)) == [0, -1, 0, 1]


def test_gcd_cubic_vs_quadratic():
    # gcd(x^3 - x, x^2 - 1) = x^2 - 1, verified by division oracle
    g = _ilist_gcd([0, -1, 0, 1], [-1, 0, 1])
    assert g == [-1, 0, 1]
    for p in (P(0, -1, 0, 1), P(-1, 0, 1)):
        q, r = _ref_divmod(p, UniPoly(g))
        assert r.is_zero()
        assert q * UniPoly(g) == p


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_gcd_divides_both(ca, cb):
    a, b = UniPoly(ca), UniPoly(cb)
    if a.is_zero() and b.is_zero():
        return
    g = _ilist_gcd(int_primitive(a), int_primitive(b))
    if not g:
        assert a.is_zero() and b.is_zero()
        return
    assert g[-1] > 0 and math.gcd(*g) == 1
    for p in (a, b):
        if not p.is_zero():
            assert _ref_divmod(p, UniPoly(g))[1].is_zero()


# ---------------------------------------------------------------- squarefree


def test_squarefree_part_examples():
    assert _ilist_squarefree([0, 0, 1]) == [0, 1]  # x^2 -> x
    p = UniPoly.from_roots([1, 1, -1])
    assert _ilist_squarefree(int_primitive(p)) == int_primitive(UniPoly.from_roots([1, -1]))
    q = [0, -1, 0, 1]  # x^3 - x, already squarefree
    assert _ilist_squarefree(q) == q


# ---------------------------------------------------------------- resultant


def X(i=1):
    return BiPoly({(i, 0): F(1)})


def Y(j=1):
    return BiPoly({(0, j): F(1)})


def _res_scale(f, g, eliminate="y"):
    """lf^n * lg^m: `resultant` gives Res(lf*f, lg*g), lf and lg the least
    common denominators of the coefficients of f and g, and n and m the
    degrees of g and f in the eliminated variable."""
    n, m = (g.deg_y, f.deg_y) if eliminate == "y" else (g.deg_x, f.deg_x)
    lf, lg = (math.lcm(*(v.denominator for v in h.t.values())) for h in (f, g))
    return lf**n * lg**m


def test_resultant_parabolas():
    # res_y(y - x^2, y - 2x^2) = -x^2 by the 2x2 Sylvester determinant
    f = Y() - X(2)
    g = Y() - X(2).scale(2)
    r = resultant(f, g, "y")
    assert r == [0, 0, -1]


def test_resultant_degree_zero_error():
    with pytest.raises(DegreeZero):
        resultant(Y(), X(), "y")


def test_resultant_lines():
    # res_y(y - x, y + x) = 2x
    r = resultant(Y() - X(), Y() + X(), "y")
    assert r == [0, 2]


def test_resultant_specialization_property():
    f = parse_polynomial("y^2 - x^3 + x*y/2 - 1")
    g = parse_polynomial("y^3 + 2*x*y - x^2/3 + 3")
    r = UniPoly(resultant(f, g, "y"))
    from basix.unipoly import sylvester_resultant

    assert _res_scale(f, g) == 2**3 * 3**2
    for x0 in (F(0), F(1), F(-2), F(3, 2)):
        fa, ga = (UniPoly([c.eval(x0) for c in _ref_y_coeffs(h)]) for h in (f, g))
        # leading coefficients are constants here, so specialisation commutes
        assert r.eval(x0) == _res_scale(f, g) * sylvester_resultant(fa, ga)


def test_resultant_common_root_projection():
    # (y - x)(y + x) meets y - 1 at (1, 1) and (-1, 1)
    r = resultant((Y() - X()) * (Y() + X()), Y() - BiPoly.const(1), "y")
    roots = isolate_real_roots(_ilist_primitive(r))
    vals = sorted(l.try_rational() for l in roots)
    assert vals == [F(-1), F(1)]


# ---------------------------------------------------------------- root isolation


def test_isolate_sqrt2():
    locs = isolate_real_roots([-2, 0, 1])
    assert len(locs) == 2
    assert locs[0].hi <= 0 <= locs[1].lo
    locs[1].refine_below(F(1, 1000))
    lo, hi = locs[1].lo, locs[1].hi
    assert lo * lo < 2 < hi * hi


def test_isolate_no_real_roots():
    assert isolate_real_roots([1, 0, 1]) == []


def test_isolate_three_rational_roots():
    locs = isolate_real_roots([0, -1, 0, 1])
    assert [l.try_rational() for l in locs] == [F(-1), F(0), F(1)]


def test_isolate_in_range():
    locs = isolate_real_roots([0, -1, 0, 1], F(-1, 2), F(10))
    assert [l.try_rational() for l in locs] == [F(0), F(1)]


def _sturm_count(p, lo=None, hi=None):
    """Reference: distinct real roots of p in (lo, hi] by a Sturm chain
    (the whole line by default)."""
    sf = _ref_squarefree_part(p)
    if sf.degree <= 0:
        return 0
    chain = [sf, _ref_derivative(sf)]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        chain.append(-_ref_divmod(chain[-2], chain[-1])[1])
    if chain[-1].is_zero():
        chain.pop()

    def variations(signs):
        signs = [v for v in signs if v != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def at(x):
        return variations([(v > 0) - (v < 0) for v in (q.eval(x) for q in chain)])

    def at_inf(positive):
        return variations([(1 if q.c[-1] > 0 else -1) * (1 if positive or q.degree % 2 == 0 else -1) for q in chain])

    va = at(lo) if lo is not None else at_inf(False)
    vb = at(hi) if hi is not None else at_inf(True)
    return va - vb


def test_isolation_counts_match_sturm():
    polys = [
        P(-2, 0, 1),
        P(0, -1, 0, 1),
        P(1, 0, 1),
        UniPoly.from_roots([0, 1, 2, 3]) * P(1, 0, 1),
        P(-1, 3, -3, 1),  # (x-1)^3
        P(2, -5, 1, 7, -3),
    ]
    for p in polys:
        locs = isolate_real_roots(int_primitive(p))
        assert len(locs) == _sturm_count(p)


def test_count_roots_below():
    p = [0, -1, 0, 1]  # roots -1, 0, 1
    assert count_roots_below(p, F(-2)) == 0
    assert count_roots_below(p, F(0)) == 1
    assert count_roots_below(p, F(1, 2)) == 2
    assert count_roots_below(p, F(5)) == 3
    # an open window: a root at its end is not below it
    assert count_roots_below([-3, 1], F(3)) == 0


def test_linear_roots_are_exact():
    # a denominator no fixed number of refinement rounds reaches
    (loc,) = isolate_real_roots([-1, 10007])
    assert repr(loc) == "Root(1/10007)" and loc.lo == loc.hi == F(1, 10007)
    # the window is open: a root at either end, or outside, is left out
    assert isolate_real_roots([-3, 1], F(3), F(5)) == []
    assert isolate_real_roots([-3, 1], F(1), F(3)) == []
    assert isolate_real_roots([-3, 1], F(4), F(5)) == []
    assert isolate_real_roots([-3, 1], None, F(2)) == []
    # a linear squarefree part of a square
    (loc,) = isolate_real_roots([9, -6, 1])
    assert loc.exact == loc.lo == loc.hi == 3 and loc.ints() == [-3, 1]


def test_roots_equal_and_compare():
    a = isolate_real_roots([-2, 0, 1])[1]  # sqrt 2
    c = isolate_real_roots(int_primitive(P(-2, 0, 1) * P(-3, 1)))[1]  # same number, bigger poly
    assert roots_equal(a, c)
    d = isolate_real_roots([-3, 0, 1])[1]  # sqrt 3
    assert not roots_equal(a, d)


def _ref_vanishes_at(u, r):
    """The rule `vanishes_at` replaced: isolate the roots of u and compare
    each with the locator."""
    if u.degree < 1:
        return u.is_zero()
    return any(roots_equal(r, loc) for loc in isolate_real_roots(int_primitive(u)))


_SQ2 = P(-2, 0, 1)
# each builds a fresh locator: the reference refines the ones it compares
_LOCATORS = {
    "sqrt2": lambda: isolate_real_roots([-2, 0, 1])[1],
    "-sqrt2": lambda: isolate_real_roots([-2, 0, 1])[0],
    "sqrt2-of-a-product": lambda: isolate_real_roots([10, -2, -5, 1])[1],
    "sqrt3": lambda: isolate_real_roots([-3, 0, 1])[1],
    "exact-5-of-a-product": lambda: isolate_real_roots([10, -2, -5, 1])[2],
    "exact-3/2": lambda: RootLocator.at(F(3, 2)),
    "exact-0": lambda: RootLocator.at(0),
}
_VANISH_POLYS = [_SQ2, P(-3, 0, 1), _SQ2 * P(-5, 1), P(-5, 1), P(-9, 0, 4), P(0, 1), P(7), P()]


@pytest.mark.parametrize("make", list(_LOCATORS.values()), ids=list(_LOCATORS))
def test_vanishes_at_matches_isolate_and_compare(make):
    for u in _VANISH_POLYS:
        assert vanishes_at(int_primitive(u), make()) == _ref_vanishes_at(u, make()), u


def test_vanishes_at_irrational_and_exact_marks():
    sqrt2 = _LOCATORS["sqrt2-of-a-product"]
    assert sqrt2().exact is None and _LOCATORS["exact-5-of-a-product"]().exact == 5
    vanishing = [vanishes_at(int_primitive(u), sqrt2()) for u in _VANISH_POLYS]
    assert vanishing == [True, False, True, False, False, False, False, True]
    assert vanishes_at([-9, 0, 4], RootLocator.at(F(3, 2))) and not vanishes_at([-2, 0, 1], RootLocator.at(F(3, 2)))


def test_simplest_in():
    assert simplest_in(F(1, 3), F(1, 2)) == F(2, 5)
    assert simplest_in(F(-1), F(1)) == 0
    assert simplest_in(F(5, 2), F(7, 2)) == 3
    v = simplest_in(F(141421, 100000), F(141422, 100000))
    assert F(141421, 100000) < v < F(141422, 100000)


# ---------------------------------------------------------------- bivariate helpers


def test_squarefree_bipoly():
    assert is_squarefree(parse_polynomial("y^2 - x^3"))
    assert not is_squarefree(parse_polynomial("y^2"))
    assert not is_squarefree(parse_polynomial("(x - 1)^2 * y"))
    assert is_squarefree(parse_polynomial("x*y"))


def test_coprime_bipoly():
    assert not are_coprime(parse_polynomial("y^2 - x^2"), parse_polynomial("y - x"))
    assert are_coprime(parse_polynomial("y - x^2"), parse_polynomial("y"))
    assert are_coprime(parse_polynomial("x"), parse_polynomial("y"))
    assert not are_coprime(parse_polynomial("x^2 - 1"), parse_polynomial("(x - 1)*(y + 1)"))
    assert are_coprime(parse_polynomial("x^2 - 1"), parse_polynomial("(x - 1)*y - 2"))


def test_parse_print_roundtrip():
    for s in ("y^2 - x^3", "x*y - 1", "3*x^2*y - 1/2*y + 7", "x^2 + y^2 - 1"):
        p = parse_polynomial(s)
        assert parse_polynomial(p.to_text()) == p


def test_parse_implicit_products():
    assert parse_polynomial("3x^2y") == parse_polynomial("3*x^2*y")
    assert parse_polynomial("-x") == -BiPoly.x()


def test_translate_and_eval():
    p = parse_polynomial("y - x^2")
    q = p.translate(1, 1)  # p(x+1, y+1) = y + 1 - (x+1)^2
    assert q.eval(0, 0) == 0
    assert q == parse_polynomial("y - x^2 - 2*x")


def test_discriminant_circle():
    d = discriminant_y(parse_polynomial("x^2 + y^2 - 1"))
    roots = sorted(l.try_rational() for l in isolate_real_roots(_ilist_primitive(d)))
    assert roots == [F(-1), F(1)]


# ------------------------------------- integer kernels against Fraction references
#
# The references below are the plain Fraction versions of the integer kernels
# in unipoly and realroots; the properties check that both give the same
# values and, for locators, end in the same (lo, hi, exact).


def _ref_eval(coeffs, x):
    acc = F(0)
    for v in reversed(coeffs):
        acc = acc * x + v
    return acc


def _ref_sign(p, x):
    v = _ref_eval(p.c, x)
    return (v > 0) - (v < 0)


def _ref_simplest_in(lo, hi):
    """Recursive continued-fraction descent on Fractions."""
    if lo >= hi:
        raise ValueError("empty interval")
    if lo < 0 < hi:
        return F(0)
    if hi <= 0:
        return -_ref_simplest_in(-hi, -lo)
    fl = lo.numerator // lo.denominator
    if fl + 1 < hi:
        return F(fl + 1)
    if lo == fl:
        inv = 1 / (hi - fl)
        return fl + F(1, inv.numerator // inv.denominator + 1)
    return fl + 1 / _ref_simplest_in(1 / (hi - fl), 1 / (lo - fl))


def _brute_simplest(lo, hi):
    """Smallest denominator, then smallest |numerator|, by direct search."""
    q = 1
    while True:
        p_lo = math.floor(lo * q) + 1  # smallest p with p/q > lo
        p_hi = math.ceil(hi * q) - 1  # largest p with p/q < hi
        if p_lo <= p_hi:
            p = 0 if p_lo <= 0 <= p_hi else (p_lo if p_lo > 0 else p_hi)
            return F(p, q)
        q += 1


def _ref_pseudo_rem(a, b):
    r = [F(v) for v in a]
    d = len(b) - 1
    while len(r) - 1 >= d:
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < d:
            break
        k = len(r) - 1 - d
        f = r[-1] / b[-1]
        for i, v in enumerate(b):
            r[k + i] -= f * v
        r.pop()
    return int_primitive(UniPoly(r))


class _RefLocator:
    """Bisection with a fresh sign at lo and a fresh candidate every round."""

    def __init__(self, loc):
        self.p, self.lo, self.hi, self.exact = UniPoly(loc.ints()), loc.lo, loc.hi, loc.exact

    def refine(self):
        if self.exact is not None:
            return
        m = (self.lo + self.hi) / 2
        sm = _ref_sign(self.p, m)
        if sm == 0:
            self.exact = m
            self.lo = self.hi = m
        elif sm == _ref_sign(self.p, self.lo):
            self.lo = m
        else:
            self.hi = m

    def try_rational(self):
        if self.exact is not None:
            return self.exact
        width = F(1, int_primitive(self.p)[-1] ** 2)
        while True:
            cand = _ref_simplest_in(self.lo, self.hi)
            if _ref_sign(self.p, cand) == 0:
                self.exact = cand
                self.lo = self.hi = cand
                return cand
            if self.hi - self.lo < width:
                return None
            self.refine()
            if self.exact is not None:
                return self.exact


def _state(loc):
    return (loc.lo, loc.hi, loc.exact)


small_fracs = st.fractions(min_value=-20, max_value=20, max_denominator=30)
int_coeffs = st.lists(st.integers(-9, 9), min_size=2, max_size=6).filter(lambda c: c[-1] != 0)


@given(small_fracs, small_fracs)
@settings(max_examples=300, deadline=None)
def test_simplest_in_is_smallest_denominator(a, b):
    if a == b:
        return
    lo, hi = min(a, b), max(a, b)
    s = simplest_in(lo, hi)
    assert type(s) is Fraction
    assert s == _brute_simplest(lo, hi) == _ref_simplest_in(lo, hi)


@given(small_fracs, small_fracs, st.fractions(0, 1), st.fractions(0, 1))
@settings(max_examples=200, deadline=None)
def test_simplest_in_nesting(a, b, u, v):
    # the simplest element of an interval is the simplest of every
    # subinterval that still contains it
    if a == b:
        return
    lo, hi = min(a, b), max(a, b)
    s = simplest_in(lo, hi)
    sub_lo = lo + (s - lo) * u
    sub_hi = s + (hi - s) * v
    if sub_lo < s < sub_hi:
        assert simplest_in(sub_lo, sub_hi) == s


def test_simplest_in_rejects_empty():
    for lo, hi in ((F(1), F(1)), (F(2), F(1, 2)), (F(-1, 3), F(-1, 2))):
        with pytest.raises(ValueError):
            simplest_in(lo, hi)


@given(
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=40), max_size=7),
    st.one_of(st.integers(-30, 30), st.fractions(min_value=-9, max_value=9, max_denominator=60)),
)
@settings(max_examples=150, deadline=None)
def test_unipoly_eval_matches_fraction_horner(coeffs, x):
    # the oracle's eval, and the engine's homogenised integer Horner on the
    # coefficients over their least common denominator
    p, x = UniPoly(coeffs), F(x)
    v = p.eval(x)
    assert type(v) is Fraction
    assert v == _ref_eval(p.c, x)
    if p.c:
        l = math.lcm(*(c.denominator for c in p.c))
        acc, dn = homogeneous_horner([c.numerator * (l // c.denominator) for c in p.c], x.numerator, x.denominator)
        assert F(acc, l * dn) == v


@given(int_coeffs, int_coeffs)
@settings(max_examples=200, deadline=None)
def test_pseudo_rem_and_gcd_match_fraction_reference(ca, cb):
    assert _ilist_pseudo_rem(ca, cb) == _ref_pseudo_rem(ca, cb)
    ia, ib = int_primitive(UniPoly(ca)), int_primitive(UniPoly(cb))
    got = _ilist_gcd(ia, ib)
    while ib:
        ia, ib = ib, _ref_pseudo_rem(ia, ib)
    assert got == ia


@given(int_coeffs, st.integers(1, 7), st.integers(-9, 9), st.integers(0, 30))
@settings(max_examples=120, deadline=None)
def test_locators_end_like_fraction_reference(coeffs, q, p0, steps):
    # a rational root p0/q next to the roots of a random integer polynomial
    poly = UniPoly(coeffs) * P(-p0, q)
    for loc in isolate_real_roots(int_primitive(poly), detect_rational=False):
        new, ref = RootLocator(loc.ints(), loc.lo, loc.hi, loc.exact), _RefLocator(loc)
        for _ in range(steps):
            new.refine()
            ref.refine()
        assert _state(new) == _state(ref)
        assert new.try_rational() == ref.try_rational()
        assert _state(new) == _state(ref)


@given(int_coeffs, st.integers(1, 3**30), st.integers(-(3**30), 3**30))
@example([-2, 0, 1], 3**10, 1)  # 1/3^10 next to +-sqrt2
@example([1, 0, -5, 0, 1], 3**30, -1)  # x^4 - 5x^2 + 1: four irrational roots
@settings(max_examples=60, deadline=None)
def test_isolated_roots_are_exact_iff_rational(coeffs, q, p0):
    # the root p0/q comes out exact whatever its denominator, and no inexact
    # locator holds a rational root
    sympy = pytest.importorskip("sympy")
    poly = UniPoly(coeffs) * P(-p0, q)
    x = sympy.Symbol("x")
    rational = {F(int(r.p), int(r.q)) for r in sympy.Poly(list(reversed(int_primitive(poly))), x, domain="QQ").ground_roots()}
    locs = isolate_real_roots(int_primitive(poly))
    assert F(p0, q) in {l.exact for l in locs}
    assert {l.exact for l in locs if l.exact is not None} == rational
    for l in locs:
        if l.exact is None:
            assert not any(l.lo < r < l.hi for r in rational)


@given(int_coeffs, small_fracs, small_fracs, st.booleans())
@settings(max_examples=100, deadline=None)
def test_open_count_matches_sturm_reference(coeffs, a, b, roots_at_ends):
    if a == b:
        return
    lo, hi = min(a, b), max(a, b)
    p = UniPoly(coeffs)
    if roots_at_ends:
        p = p * P(-lo, 1) * P(-hi, 1)
    # the reference counts (lo, hi]
    assert open_count(int_primitive(p), lo, hi) == _sturm_count(p, lo, hi) - (p.eval(hi) == 0)


@given(small_fracs)
@settings(max_examples=50, deadline=None)
def test_exact_locator(x):
    loc = RootLocator.at(x)
    assert loc.lo == loc.hi == loc.exact == x
    loc.refine()
    assert _state(loc) == (x, x, x)
    assert loc.sign() == (x > 0) - (x < 0)


@given(
    small_fracs.filter(bool),
    small_fracs,
    st.one_of(st.none(), small_fracs),
    st.one_of(st.none(), small_fracs),
)
@settings(max_examples=200, deadline=None)
def test_linear_isolation_matches_the_general_path(a, b, lo, hi):
    # (a*y + b)*(y^2 + 1) has the same real roots, found by the Descartes walk
    line = P(b, a)
    fast = isolate_real_roots(int_primitive(line), lo, hi)
    slow = isolate_real_roots(int_primitive(line * P(1, 0, 1)), lo, hi)
    assert len(fast) == len(slow)
    for r, s in zip(fast, slow):
        assert r.exact == -b / a and r.lo == r.hi == r.exact
        assert roots_equal(r, s)


@given(int_coeffs, st.lists(small_fracs, max_size=3))
@settings(max_examples=80, deadline=None)
def test_separate_between_and_sign(coeffs, rationals):
    poly = UniPoly(coeffs)
    locs = isolate_real_roots(coeffs)
    locs += [RootLocator.at(r) for r in set(rationals) if poly.eval(r) != 0]
    refine_disjoint(locs)
    separate(locs)
    for a, b in zip(locs, locs[1:]):
        assert a.hi < b.lo
    for a, b in zip(locs, locs[1:]):
        m = between(a, b)
        assert a.hi < m < b.lo
    for loc in locs:
        if loc.exact is not None:
            want = (loc.exact > 0) - (loc.exact < 0)
        elif loc.lo >= 0 or loc.hi <= 0:
            want = 1 if loc.lo >= 0 else -1
        else:
            # a root found inexact is not 0 (0 is the simplest rational of an
            # interval around it); it is positive iff p changes sign in (0, hi)
            s0, shi = (_ref_eval(loc.ints(), v) > 0 for v in (F(0), loc.hi))
            want = 1 if s0 != shi else -1
        assert loc.sign() == want


def test_try_rational_probes_a_candidate_once(monkeypatch):
    # sqrt2/243, the root of 59049x^2 - 2, in (0, 1): the interval halves 32
    # times to fall below 1/59049^2, but simplest_in runs only when the
    # previous candidate has left the interval
    candidates, intervals = [], []
    real_simplest, real_refine = realroots.simplest_in, RootLocator.refine

    def counting_simplest(lo, hi):
        candidates.append(real_simplest(lo, hi))
        return candidates[-1]

    def counting_refine(self):
        intervals.append((self.lo, self.hi))
        real_refine(self)

    monkeypatch.setattr(realroots, "simplest_in", counting_simplest)
    monkeypatch.setattr(RootLocator, "refine", counting_refine)
    loc = RootLocator([-2, 0, 59049], F(0), F(1))
    assert loc.try_rational() is None
    assert len(intervals) == 32
    assert loc.hi - loc.lo < F(1, 59049**2) <= intervals[-1][1] - intervals[-1][0]
    expected, cand = 0, None
    for lo, hi in intervals + [(loc.lo, loc.hi)]:
        if cand is None or not lo < cand < hi:
            expected += 1
            cand = _ref_simplest_in(lo, hi)
    assert len(candidates) == expected < 32


def test_int_y_rows_returns_fresh_lists():
    f = parse_polynomial("x^2*y - y^2 + 3*x")
    rows, l = f.int_y_rows()
    rows[1].append(7)
    rows.append([1])
    assert f.int_y_rows() == ([[0, 3], [0, 0, 1], [-1]], 1)
    assert f.eval(2, 1) == F(9)


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=7).filter(lambda c: any(c[1:])))
@settings(max_examples=60, deadline=None)
def test_isolation_agrees_with_sympy(coeffs):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    sp = sympy.Poly(list(reversed(coeffs)), x)
    rational = set()
    for fac, _mult in sp.factor_list()[1]:
        if fac.degree() == 1:
            a, b = fac.all_coeffs()
            rational.add(F(int(-b), int(a)))
    locs = isolate_real_roots(coeffs)
    assert len(locs) == len(sp.intervals())
    assert {l.exact for l in locs if l.exact is not None} == rational


def _sympy_rational_roots(sympy, p):
    """(sorted rational real roots, has an irrational real root) of p, from
    sympy's factorisation over Q."""
    x = sympy.Symbol("x")
    rational, irrational = set(), False
    for fac, _mult in sympy.Poly(list(reversed(int_primitive(p))), x).factor_list()[1]:
        if fac.degree() == 1:
            a, b = fac.all_coeffs()
            rational.add(F(int(-b), int(a)))
        elif fac.count_roots() > 0:
            irrational = True
    return sorted(rational), irrational


_rational_linear = st.builds(lambda n, d: UniPoly([F(-n, d), 1]), st.integers(-20, 20), st.integers(1, 20))


@given(
    st.lists(_rational_linear, max_size=3),
    st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(any),
)
@example([P(-7, 13), P(11, 17)], [-2, 0, 1])  # (13x - 7)(17x + 11)(x^2 - 2)
@example([], [6, 0, -5, 0, 1])  # (x^2 - 2)(x^2 - 3): irrational roots only
@example([], [1, 0, 1])  # no real root
@settings(max_examples=80, deadline=None)
def test_rational_roots_agree_with_sympy(lines, coeffs):
    sympy = pytest.importorskip("sympy")
    p = UniPoly(coeffs)
    for line in lines:
        p = p * line
    assert rational_roots(int_primitive(p)) == _sympy_rational_roots(sympy, p)


def test_rational_roots_pins():
    assert rational_roots(int_primitive(P(-7, 13) * P(11, 17) * P(-2, 0, 1))) == ([F(-11, 17), F(7, 13)], True)
    assert rational_roots([6, 0, -5, 0, 1]) == ([], True)
    assert rational_roots([1, 0, 1]) == ([], False)
    # a denominator past any fixed number of refinement rounds
    big = P(-(10**30 + 1), 10**30 + 7)
    assert rational_roots(int_primitive(big * P(-2, 0, 1))) == ([F(10**30 + 1, 10**30 + 7)], True)


# ---------------------------------------------------------------- resultant kernels


def _ref_resultant(f, g, eliminate="y"):
    """Sylvester resultant on Fractions: determinants at the nodes
    0, 1, -1, 2, -2, ... with row scaling, then Lagrange interpolation."""
    if eliminate == "x":
        return _ref_resultant(f.swap_xy(), g.swap_xy(), "y")
    m, n = f.deg_y, g.deg_y
    if m <= 0 or n <= 0:
        raise DegreeZero(f"resultant: y-degrees {m}, {n}")
    bound = f.deg_x * n + g.deg_x * m
    xs, vals, k = [], [], 0
    fc, gc = _ref_y_coeffs(f), _ref_y_coeffs(g)
    while len(xs) < bound + 1:
        x0 = F(k)
        k = -k if k > 0 else -k + 1
        fa = [p.eval(x0) for p in fc]
        ga = [p.eval(x0) for p in gc]
        vals.append(_ref_sylvester_det(fa, m, ga, n))
        xs.append(x0)
    return _ref_lagrange(xs, vals)


def _ref_sylvester_det(a, m, b, n):
    size = m + n
    ra = (list(a) + [F(0)] * (m + 1 - len(a)))[::-1]
    rb = (list(b) + [F(0)] * (n + 1 - len(b)))[::-1]

    def int_row(vals):
        l = 1
        for v in vals:
            l = l * v.denominator // math.gcd(l, v.denominator)
        return [int(v * l) for v in vals], l

    ia, la = int_row(ra)
    ib, lb = int_row(rb)
    rows = [[0] * i + ia + [0] * (size - m - 1 - i) for i in range(n)]
    rows += [[0] * i + ib + [0] * (size - n - 1 - i) for i in range(m)]
    denom = la**n * lb**m
    sign, prev = 1, 1
    for kk in range(size - 1):
        if rows[kk][kk] == 0:
            for j in range(kk + 1, size):
                if rows[j][kk] != 0:
                    rows[kk], rows[j] = rows[j], rows[kk]
                    sign = -sign
                    break
            else:
                return F(0)
        pk = rows[kk][kk]
        for i2 in range(kk + 1, size):
            ri, rk = rows[i2], rows[kk]
            lik = ri[kk]
            for j2 in range(kk + 1, size):
                ri[j2] = (ri[j2] * pk - lik * rk[j2]) // prev
            ri[kk] = 0
        prev = pk
    return F(sign * rows[size - 1][size - 1], denom)


def _ref_lagrange(xs, vals):
    n = len(xs)
    coeffs = list(vals)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - j])
    p = UniPoly()
    for i in range(n - 1, -1, -1):
        p = p * UniPoly([-xs[i], 1]) + UniPoly.const(coeffs[i])
    return p


_res_coeffs = st.one_of(st.integers(-6, 6).map(F), st.fractions(min_value=-4, max_value=4, max_denominator=6))
_res_nonzero = _res_coeffs.filter(lambda v: v != 0)


@st.composite
def _res_bipolys(draw, min_dy=1, max_dy=3):
    """y-degree min_dy..max_dy, x-degree 0..3; the leading y-coefficient is
    sometimes c*(x - k), which vanishes at the interpolation node k."""
    dy = draw(st.integers(min_dy, max_dy))
    rows = [draw(st.lists(_res_coeffs, min_size=1, max_size=4)) for _ in range(dy + 1)]
    if draw(st.booleans()):
        k, c = draw(st.integers(-2, 2)), draw(_res_nonzero)
        rows[dy] = [-k * c, c]
    else:
        rows[dy][-1] = draw(_res_nonzero)
    return BiPoly({(i, j): v for j, row in enumerate(rows) for i, v in enumerate(row)})


def _res_outcome(fn, f, g, eliminate):
    """The coefficients of `resultant`, or those of a Fraction reference
    times `_res_scale`; "DegreeZero" if fn raises it."""
    try:
        r = fn(f, g, eliminate)
    except DegreeZero:
        return "DegreeZero"
    return r if fn is resultant else [v * _res_scale(f, g, eliminate) for v in r.c]


@given(_res_bipolys(), _res_bipolys(), st.booleans(), st.sampled_from(["y", "x"]))
@settings(max_examples=150, deadline=None)
def test_resultant_matches_fraction_reference(f, g, common, eliminate):
    if common:
        # a shared factor y + a*x + b makes the resultant vanish identically
        h = BiPoly({(0, 1): F(1), (1, 0): f.t.get((0, 0), F(1)), (0, 0): g.t.get((0, 0), F(2))})
        f, g = f * h, g * h
    got = _res_outcome(resultant, f, g, eliminate)
    assert got == _res_outcome(_ref_resultant, f, g, eliminate)
    if common:
        assert got in ([], "DegreeZero")


def test_resultant_reference_cases():
    # leading y-coefficient x vanishes at the first node; a common factor
    f = parse_polynomial("x*y^2 - y + 3")
    g = parse_polynomial("y^3 - 2*x^2*y + 1/2")
    for eliminate in ("y", "x"):
        want = [v * _res_scale(f, g, eliminate) for v in _ref_resultant(f, g, eliminate).c]
        assert resultant(f, g, eliminate) == want != []
    h = parse_polynomial("y - x - 1")
    assert resultant(f * h, g * h, "y") == []

# The interpolation resultant that `bipoly.resultant` replaced, kept as an
# oracle: Sylvester determinants at N consecutive integer nodes (N one more
# than the x-degree bound), each by integer Bareiss, then forward
# differences and the Newton expansion over (N - 1)!.


def _interpolation_resultant(f, g, eliminate="y"):
    if eliminate == "x":
        return _interpolation_resultant(f.swap_xy(), g.swap_xy(), "y")
    m, n = f.deg_y, g.deg_y
    if m <= 0 or n <= 0:
        raise DegreeZero(f"resultant: y-degrees {m}, {n}")
    fr, lf = f.int_y_rows()
    gr, lg = g.int_y_rows()
    fr.reverse()
    gr.reverse()
    N = f.deg_x * n + g.deg_x * m + 1
    lo = -((N - 1) // 2)
    d = [_int_sylvester_det(_int_values(fr, x0), m, _int_values(gr, x0), n) for x0 in range(lo, lo + N)]
    for j in range(1, N):
        for i in range(N - 1, j - 1, -1):
            d[i] -= d[i - 1]
    acc = [d[N - 1]]
    w = 1
    for j in range(N - 2, -1, -1):
        w *= j + 1
        a = lo + j
        nxt = [0] * (len(acc) + 1)
        for k, c in enumerate(acc):
            nxt[k + 1] += c
            nxt[k] -= a * c
        nxt[0] += d[j] * w
        acc = nxt
    denom = w * lf**n * lg**m
    return UniPoly([F(c, denom) for c in acc])


def _int_values(rows, x0):
    return [homogeneous_horner(r, x0, 1)[0] if r else 0 for r in rows]


def _int_sylvester_det(ra, m, rb, n):
    size = m + n
    rows = [[0] * i + ra + [0] * (size - m - 1 - i) for i in range(n)]
    rows += [[0] * i + rb + [0] * (size - n - 1 - i) for i in range(m)]
    sign, prev = 1, 1
    for kk in range(size - 1):
        if rows[kk][kk] == 0:
            for j in range(kk + 1, size):
                if rows[j][kk] != 0:
                    rows[kk], rows[j] = rows[j], rows[kk]
                    sign = -sign
                    break
            else:
                return 0
        pk = rows[kk][kk]
        for i2 in range(kk + 1, size):
            ri, rk = rows[i2], rows[kk]
            lik = ri[kk]
            for j2 in range(kk + 1, size):
                ri[j2] = (ri[j2] * pk - lik * rk[j2]) // prev
            ri[kk] = 0
        prev = pk
    return sign * rows[size - 1][size - 1]


_wide_coeffs = st.one_of(st.integers(-99, 99).map(F), st.fractions(min_value=-9, max_value=9, max_denominator=12))


@st.composite
def _wide_bipolys(draw):
    """y-degree 1..4 and x-degree 0..4; the leading y-coefficient is at
    times c*(x - k)^e, which vanishes at x = k, or a bare power of x."""
    dy = draw(st.integers(1, 4))
    rows = [draw(st.lists(_wide_coeffs, min_size=1, max_size=5)) for _ in range(dy + 1)]
    lead = draw(st.sampled_from(("any", "vanishing", "power of x")))
    c = draw(_wide_coeffs.filter(bool))
    if lead == "vanishing":
        k, e = draw(st.integers(-3, 3)), draw(st.integers(1, 2))
        rows[dy] = (UniPoly([-k, 1]) ** e).scale(c).c
    elif lead == "power of x":
        rows[dy] = [F(0)] * draw(st.integers(1, 4)) + [c]
    else:
        rows[dy][-1] = c
    return BiPoly({(i, j): v for j, row in enumerate(rows) for i, v in enumerate(row)})


@given(_wide_bipolys(), _wide_bipolys(), st.booleans(), st.sampled_from(["y", "x"]))
@settings(max_examples=200, deadline=None)
def test_bareiss_resultant_matches_the_interpolation_oracle(f, g, common, eliminate):
    # the Bareiss elimination over Z[x] gives the interpolated polynomial
    # exactly, through vanishing leading coefficients, a shared factor (a
    # zero resultant), elimination of x and the discriminant
    if common:
        h = BiPoly({(0, 1): F(1), (1, 0): f.t.get((0, 0), F(1)), (0, 0): g.t.get((0, 0), F(2))})
        f, g = f * h, g * h
    got = _res_outcome(resultant, f, g, eliminate)
    assert got == _res_outcome(_interpolation_resultant, f, g, eliminate)
    if common:
        assert got in ([], "DegreeZero")
    if f.deg_y >= 2:
        fy = f.partial_y()
        assert discriminant_y(f) == [v * _res_scale(f, fy) for v in _interpolation_resultant(f, fy).c]


def _sympy_expr(sympy, p, x, y):
    return sum(sympy.Rational(v.numerator, v.denominator) * x**i * y**j for (i, j), v in p.t.items())


def _sympy_coeffs(sympy, expr, x, scale=1):
    """The coefficients in x of a sympy expression, low degree first, each
    times scale."""
    expr = sympy.expand(expr)
    if expr == 0:
        return []
    return [F(int(c.p), int(c.q)) * scale for c in reversed(sympy.Poly(expr, x).all_coeffs())]


@given(_res_bipolys(), _res_bipolys())
@settings(max_examples=60, deadline=None)
def test_resultant_agrees_with_sympy(f, g):
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    fe, ge = _sympy_expr(sympy, f, x, y), _sympy_expr(sympy, g, x, y)
    # sympy 1.14 agrees with the Sylvester determinant (f-rows first) only when
    # deg_y f >= deg_y g: it gives 1 for Res_y(y + 1, y^3), whose determinant is -1
    if f.deg_y >= g.deg_y:
        want = sympy.resultant(fe, ge, y)
    else:
        want = (-1) ** (f.deg_y * g.deg_y) * sympy.resultant(ge, fe, y)
    assert resultant(f, g, "y") == _sympy_coeffs(sympy, want, x, _res_scale(f, g))


@given(_res_bipolys(min_dy=2))
@settings(max_examples=60, deadline=None)
def test_discriminant_form_agrees_with_sympy(f):
    # discriminant_y returns Res_y(f, df/dy), which sympy.discriminant normalises differently
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    fe = _sympy_expr(sympy, f, x, y)
    want = _sympy_coeffs(sympy, sympy.resultant(fe, sympy.diff(fe, y), y), x, _res_scale(f, f.partial_y()))
    assert resultant(f, f.partial_y(), "y") == want
    assert discriminant_y(f) == want


def test_divides_reads_the_x_content():
    def divides(d, p):
        return parse_polynomial(p).quotient(parse_polynomial(d)) is not None

    assert not divides("x*y", "y")
    assert not divides("x + 1", "x*y + 1")
    assert divides("y", "x*y") and divides("x + 1", "x*y + y")
    assert divides("2", "x") and divides("x", "0")
    for p in ("x", "0"):
        with pytest.raises(ZeroDivisionError):
            parse_polynomial(p).quotient(BiPoly())


def test_content_x_stops_at_a_constant_coefficient(monkeypatch):
    def refuse(*_args):
        raise AssertionError("content_x took a gcd")

    monkeypatch.setattr(bipoly, "_ilist_gcd", refuse)
    # the constant coefficient is the last row: every row before it is nonconstant
    assert parse_polynomial("(x^2 - 1)*y^2 + (x - 1)*y + 3").content_x() == [1]
    assert parse_polynomial("x*y - 2").content_x() == [1]


def test_content_x_of_one_coefficient_takes_no_gcd(monkeypatch):
    def refuse(*_args):
        raise AssertionError("content_x took a gcd")

    monkeypatch.setattr(bipoly, "_ilist_gcd", refuse)
    # the one nonzero y-coefficient, made primitive, is the content
    assert parse_polynomial("x").content_x() == [0, 1]
    assert parse_polynomial("x^2 + 1").content_x() == [1, 0, 1]
    assert parse_polynomial("-2*x^2*y^3 - 4*y^3").content_x() == [2, 0, 1]
    assert parse_polynomial("(1 - x/2)*y").content_x() == [-2, 1]


_x_factors = st.lists(_res_coeffs, min_size=1, max_size=3).map(lambda cs: BiPoly({(i, 0): v for i, v in enumerate(cs)}))


@given(_res_bipolys(min_dy=0, max_dy=3), _x_factors)
@settings(max_examples=80, deadline=None)
def test_content_x_is_the_gcd_of_the_rows(p, c):
    # c(x) a content that the rows may or may not carry
    if not c.is_zero():
        p = p * c
    g = []
    for row in _ref_y_coeffs(p):
        g = _ilist_gcd(g, int_primitive(row))
    assert p.content_x() == (g or [1])


@given(_res_bipolys(min_dy=0, max_dy=2), _res_bipolys(min_dy=0, max_dy=2), _x_factors, st.booleans())
@settings(max_examples=120, deadline=None)
def test_divides_agrees_with_sympy(d0, q, c, with_content):
    # d = d0 * c(x): a content in x that the quotient q may or may not carry
    sympy = pytest.importorskip("sympy")
    if c.is_zero():
        c = BiPoly.const(1)
    d = d0 * c
    a = d0 * q * (c if with_content else BiPoly.const(1))
    x, y = sympy.symbols("x y")
    pa, pd = (sympy.Poly(_sympy_expr(sympy, p, x, y), x, y, domain="QQ") for p in (a, d))
    want = pa.rem(pd).is_zero
    quo = a.quotient(d)
    assert (quo is not None) == want
    if want:
        assert quo * d == a


def _ref_content_x(p):
    """The primitive gcd of the y-coefficients of p by the Fraction
    Euclidean algorithm; [1] for p = 0."""
    g = UniPoly()
    for row in _ref_y_coeffs(p):
        g = _ref_gcd(g, row)
    return int_primitive(g) or [1]


def _ref_quotient(p, d):
    """p / d by long division in y over Q(x) with every coefficient division
    in Q[x] by Fraction long division, or None when one is inexact or the
    remainder is not zero."""
    dc = _ref_y_coeffs(d)
    quo, rem = BiPoly.zero(), p
    while not rem.is_zero() and rem.deg_y >= d.deg_y:
        q, r = _ref_divmod(_ref_y_coeffs(rem)[-1], dc[-1])
        if not r.is_zero():
            return None
        qterm = BiPoly({(i, rem.deg_y - d.deg_y): v for i, v in enumerate(q.c)})
        quo, rem = quo + qterm, rem - qterm * d
    return quo if rem.is_zero() else None


def _random_bipoly(rng, max_dx, max_dy, terms):
    coeff = lambda: F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 7)))  # noqa: E731
    return BiPoly({(rng.randint(0, max_dx), rng.randint(0, max_dy)): coeff() for _ in range(terms)})


def test_content_and_quotient_match_the_fraction_reference():
    # rational coefficients; divisors with a content in x, a negative leading
    # coefficient or no y at all; products, products plus a perturbation
    # (mostly non-divisors) and the zero polynomial as dividends
    rng = random.Random(20261021)
    for _ in range(300):
        d = _random_bipoly(rng, 2, rng.choice((0, 1, 2)), rng.randint(1, 4))
        if d.is_zero():
            continue
        if rng.random() < 0.4:
            d = d * _random_bipoly(rng, 2, 0, 2)
        if rng.random() < 0.4:
            d = -d
        q = _random_bipoly(rng, 2, 2, rng.randint(0, 4))
        p = q * d
        if rng.random() < 0.4:
            p = p + _random_bipoly(rng, 3, 3, 1)
        for f in (p, d, p.swap_xy(), d.swap_xy()):
            assert f.content_x() == _ref_content_x(f), f
        if d.is_zero():
            continue
        got, want = p.quotient(d), _ref_quotient(p, d)
        assert got == want, (p, d)
        assert want is not None or not (p - q * d).is_zero()


def test_refine_disjoint_rejects_coincident_roots():
    # x - 1 and x^2 - 1 share the root 1; callers pass distinct roots only
    locs = isolate_real_roots([-1, 1]) + isolate_real_roots([-1, 0, 1])
    with pytest.raises(InternalError, match="coincident roots"):
        refine_disjoint(locs)


# ------------------------------------ composition and squarefree on integer rows


class _RefSeries:
    """The Fraction-coefficient series that the integer rows of `TSeries`
    replaced: a UniPoly in z per exponent of t, with the same truncation
    rules, as the oracle for those rows."""

    def __init__(self, coeff=None, trunc=None):
        coeff = coeff or {}
        self.coeff = tuple((e, coeff[e]) for e in sorted(coeff) if coeff[e] and (trunc is None or e < trunc))
        self.trunc = trunc

    @staticmethod
    def const(v):
        return _RefSeries({0: UniPoly.const(v)})

    def rows(self):
        """The terms as (exponent, Fraction z-coefficients), and the truncation."""
        return [(e, list(v.c)) for e, v in self.coeff], self.trunc

    def ord(self):
        return self.coeff[0][0] if self.coeff else None

    def __add__(self, o):
        t = o.trunc if self.trunc is None else self.trunc if o.trunc is None else min(self.trunc, o.trunc)
        d = dict(self.coeff)
        for e, v in o.coeff:
            d[e] = d.get(e, UniPoly()) + v
        return _RefSeries(d, t)

    def __neg__(self):
        return _RefSeries({e: -v for e, v in self.coeff}, self.trunc)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        # error terms of a product start at min(trunc_a + ord_b, trunc_b + ord_a)
        cands = []
        if self.trunc is not None:
            cands.append(self.trunc + (o.ord() or 0))
        if o.trunc is not None:
            cands.append(o.trunc + (self.ord() or 0))
        t = min(cands) if cands else None
        d = {}
        for e1, v1 in self.coeff:
            for e2, v2 in o.coeff:
                if t is None or e1 + e2 < t:
                    d[e1 + e2] = d.get(e1 + e2, UniPoly()) + v1 * v2
        return _RefSeries(d, t)

    def negate_t(self):
        return _RefSeries({e: -v if e % 2 else v for e, v in self.coeff}, self.trunc)

    def eval_z(self, z0):
        return _RefSeries({e: UniPoly.const(v.eval(z0)) for e, v in self.coeff}, self.trunc)

    def eval_t(self, t0):
        acc = UniPoly()
        for e, v in self.coeff:
            acc = acc + v.scale(t0**e)
        return acc

    def sign_small_pos_t(self):
        if self.coeff:
            return next(1 if v > 0 else -1 for v in self.coeff[0][1].c if v)
        return 0 if self.trunc is None else None


def _ref_div_unit(num, den, upto):
    """num / den up to t^upto by Fraction long division."""
    e0, c0 = den.coeff[0]
    lead = c0.c[0]
    cur = dict(num.coeff)
    out = {}
    for e in range(0, upto):
        q = cur.get(e + e0, UniPoly()).scale(F(1) / lead)
        if q:
            out[e] = q
            for de, dv in den.coeff:
                cur[e + de] = cur.get(e + de, UniPoly()) - q * dv
    t = upto
    if num.trunc is not None:
        t = min(t, num.trunc - e0)
    if den.trunc is not None:
        t = min(t, den.trunc - e0)
    return _RefSeries(out, t)


def _rows(s):
    """The terms of a `TSeries` as the oracle's Fraction rows, and its
    truncation; the rows must be canonical: trimmed, nonzero, over a
    positive denominator that has gcd 1 with every entry."""
    assert s.den > 0 and math.gcd(s.den, *(v for _e, r in s.terms for v in r)) == 1, s
    assert all(r and r[-1] for _e, r in s.terms) and [e for e, _r in s.terms] == sorted({e for e, _r in s.terms})
    assert isinstance(s.terms, tuple) and (s.terms or s.den == 1), s
    return [(e, [F(v, s.den) for v in r]) for e, r in s.terms], s.trunc


def _ref_compose(p, xs, ys):
    """The Fraction Horner that compose_bipoly replaced: series operators of
    the oracle throughout, in y then x."""
    acc = _RefSeries()
    for ypoly in reversed(_ref_y_coeffs(p)):
        cx = _RefSeries()
        for v in reversed(ypoly.c):
            cx = cx * xs + _RefSeries.const(v)
        acc = acc * ys + cx
    return acc


def _ref_subst(p, xp, yp):
    """p(xp(u, v), yp(u, v)) by Fraction Horner over BiPoly products, in y
    then x: the general substitution that the term maps and the integer
    Taylor shift of BiPoly replaced."""
    acc = BiPoly.zero()
    for row in reversed(_ref_y_coeffs(p)):
        cx = BiPoly.zero()
        for v in reversed(row.c):
            cx = cx * xp + BiPoly.const(v)
        acc = acc * yp + cx
    return acc


# z-coefficients of degree up to 3, often z-free, sometimes zero or with
# trailing zeros
_zpoly = st.lists(st.one_of(_res_coeffs, st.just(F(0))), min_size=0, max_size=4)


@st.composite
def _tseries(draw):
    """A `TSeries` and its oracle twin from the same rational rows."""
    rows = draw(st.dictionaries(st.integers(0, 6), _zpoly, max_size=4))
    trunc = draw(st.one_of(st.none(), st.integers(0, 9)))
    return TSeries.make(rows, trunc), _RefSeries({e: UniPoly(r) for e, r in rows.items()}, trunc)


_small = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@given(_tseries(), _tseries(), st.sampled_from(["free", "same", "neg"]), _small, _small)
@settings(max_examples=300, deadline=None)
def test_integer_series_arithmetic_matches_the_fraction_oracle(a, b, tie, z0, t0):
    (sa, ra), (sb, rb) = a, b
    if tie == "same":
        sb, rb = sa, ra  # products of equal series
    elif tie == "neg":
        sb, rb = -sa, -ra  # sums that cancel term by term
    for got, want in (
        (sa, ra),
        (sa + sb, ra + rb),
        (sa - sb, ra - rb),
        (sa * sb, ra * rb),
        (-sa, -ra),
        (sa.negate_t(), ra.negate_t()),
        (sa.eval_z(z0), ra.eval_z(z0)),
        (sb.eval_z(z0), rb.eval_z(z0)),
    ):
        assert _rows(got) == want.rows()
        assert got.sign_small_pos_t() == want.sign_small_pos_t()
    want_t = ra.eval_z(z0).eval_t(t0)
    assert sa.eval_z(z0).eval_t(t0) == (want_t.c[0] if want_t.c else 0)
    # canonical rows make == value equality
    assert (sa + sa) * TSeries.const(F(1, 2)) == sa * TSeries.const(1) == sa
    assert (sa == sb) == (ra.rows() == rb.rows())


@given(_tseries(), _res_coeffs.filter(bool), _tseries(), st.integers(0, 3), st.integers(-2, 10))
@settings(max_examples=300, deadline=None)
def test_series_div_unit_matches_the_fraction_oracle(num, lead, tail, e0, upto):
    # den = lead*t^e0 + t^(e0+1)*tail and num = t^e0*num: a z-free unit
    # times t^e0 over a series of order at least e0, the quotient's domain
    (sn, rn), (st_, rt) = num, tail
    shift = TSeries.make({e0: [1]})
    sd = TSeries.make({e0: [lead]}) + shift * TSeries.make({1: [1]}) * st_
    rd = _RefSeries({e0: UniPoly.const(lead)}) + _RefSeries({e0 + 1: UniPoly.const(1)}) * rt
    sn, rn = shift * sn, _RefSeries({e0: UniPoly.const(1)}) * rn
    assert _rows(sd) == rd.rows() and _rows(sn) == rn.rows()
    assert _rows(series_div_unit(sn, sd, upto)) == _ref_div_unit(rn, rd, upto).rows()


def test_series_div_unit_rejects_what_is_no_power_series():
    t = TSeries.make({1: [1]})
    with pytest.raises(ZeroDivisionError):
        series_div_unit(t, TSeries.zero(None), 3)
    with pytest.raises(ValueError, match="z-free"):
        series_div_unit(t, TSeries.make({1: [1, 1]}), 3)
    with pytest.raises(ValueError, match="pole"):
        series_div_unit(t, TSeries.make({2: [1]}), 3)
    # (1/2) / (3 + 6t) = 1/6 - t/3 + 2t^2/3 - ...: the rows stay reduced
    q = series_div_unit(TSeries.const(F(1, 2)), TSeries.make({0: [3], 1: [6]}), 3)
    assert (q.terms, q.den, q.trunc) == (((0, [1]), (1, [-2]), (2, [4])), 6, 3)


@given(
    st.one_of(_res_bipolys(min_dy=0), st.just(BiPoly())),
    _tseries(),
    _tseries(),
    st.sampled_from(["free", "same", "neg"]),
)
@settings(max_examples=300, deadline=None)
def test_compose_bipoly_matches_fraction_reference(p, xs, ys, tie):
    (sx, rx), (sy, ry) = xs, ys
    if tie == "same":
        sy, ry = sx, rx  # products of equal series: cancelling cross terms
    elif tie == "neg":
        p = p * BiPoly({(1, 0): F(1), (0, 1): F(1)})  # a factor x + y
        sy, ry = -sx, -rx  # ... that vanishes along the arc: every term cancels
    assert _rows(compose_bipoly(p, sx, sy)) == _ref_compose(p, rx, ry).rows()  # terms and trunc


def test_compose_bipoly_reference_cases():
    # y - x^2 along its own branch, exact and truncated, and along a z-arc
    p = parse_polynomial("y - x^2")
    t, rt = TSeries.make({1: [1]}), _RefSeries({1: UniPoly.const(1)})
    for trunc in (None, 3):
        ys, ry = TSeries.make({2: [1]}, trunc), _RefSeries({2: UniPoly.const(1)}, trunc)
        assert compose_bipoly(p, t, ys) == TSeries.zero(trunc)
        assert _ref_compose(p, rt, ry).rows() == ([], trunc)
    ys = TSeries.make({2: [1], 3: [F(1, 3), -1]}, 7)
    got = compose_bipoly(p, t, ys)
    assert (got.terms, got.den, got.trunc) == (((3, [1, -3]),), 3, 7)  # (1/3 - z) t^3
    assert compose_bipoly(BiPoly(), t, ys) == TSeries.zero(None)


def test_sign_small_pos_t_reads_the_lowest_z_term_of_the_leading_term():
    def lead(c, trunc=None):
        return TSeries.make({3: c, 5: [-9]}, trunc).sign_small_pos_t()

    assert lead([0, -1]) == -1  # -z t^3: the constant term is zero
    assert lead([0, 0, 3]) == 1  # 3z^2 t^3
    assert lead([0, 2, -5], 4) == 1  # 2z dominates -5z^2 for small z
    assert lead([-1, 8]) == -1
    assert TSeries.zero(None).sign_small_pos_t() == 0  # the exact zero series
    assert TSeries.zero(3).sign_small_pos_t() is None  # no certain term
    assert TSeries.make({4: [1]}, 2).sign_small_pos_t() is None


_sqf_factors = st.lists(st.integers(-6, 6).map(F) | st.fractions(-3, 3, max_denominator=5), min_size=1, max_size=3)


@given(
    st.lists(st.tuples(_sqf_factors, st.integers(1, 3)), min_size=1, max_size=3),
    st.fractions(-5, 5, max_denominator=7).filter(lambda c: c != 0),
)
@settings(max_examples=200, deadline=None)
def test_squarefree_part_matches_fraction_reference(parts, c):
    p = UniPoly.const(c)
    for coeffs, k in parts:
        if UniPoly(coeffs).is_zero():
            continue
        p = p * UniPoly(coeffs) ** k
    got = _ilist_squarefree(int_primitive(p))
    if p.degree == 0:
        assert got == [1]
        return
    assert got == int_primitive(_ref_squarefree_part(p))


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=7).filter(lambda c: any(c[1:])))
@settings(max_examples=60, deadline=None)
def test_squarefree_part_agrees_with_sympy(coeffs):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    p = UniPoly(coeffs) ** 2 * UniPoly([coeffs[0], 1])  # a square and a linear factor
    want = sympy.Poly(sympy.sqf_part(sympy.Poly(list(reversed(p.c)), x, domain="QQ").as_expr()), x, domain="QQ")
    want = UniPoly([F(int(v.p), int(v.q)) for v in reversed(want.all_coeffs())])
    assert _ilist_squarefree(int_primitive(p)) == int_primitive(want)


# ------------------------------------ term maps and integer rows against subst


def _ref_bieval(p, x, y):
    """p(x, y) as a Fraction sum over the terms."""
    x, y = F(x), F(y)
    return sum((v * x**i * y**j for (i, j), v in p.t.items()), F(0))


@st.composite
def _sparse_bipolys(draw):
    """The zero polynomial, constants, polynomials whose middle y-rows are
    zero (terms at y^0, y^2 and y^4 only) and dense ones."""
    kind = draw(st.sampled_from(["zero", "const", "gappy", "dense"]))
    if kind == "zero":
        return BiPoly()
    if kind == "const":
        return BiPoly.const(draw(_res_nonzero))
    if kind == "gappy":
        keys = st.tuples(st.integers(0, 4), st.sampled_from([0, 2, 4]))
        return BiPoly(draw(st.dictionaries(keys, _res_nonzero, min_size=1, max_size=5)))
    return draw(_res_bipolys(min_dy=0))


_points = st.one_of(st.integers(-5, 5), st.fractions(min_value=-4, max_value=4, max_denominator=7))


@given(_sparse_bipolys(), _points, _points)
@settings(max_examples=300, deadline=None)
def test_eval_and_sign_at_match_fraction_reference(p, x, y):
    want = _ref_bieval(p, x, y)
    got = p.eval(x, y)
    assert type(got) is F and got == want
    assert p.sign_at(x, y) == (want > 0) - (want < 0)


@given(_sparse_bipolys(), _points, _points)
@settings(max_examples=200, deadline=None)
def test_translate_matches_subst(p, a, b):
    got = p.translate(a, b)
    assert got == _ref_subst(p, BiPoly({(1, 0): F(1), (0, 0): F(a)}), BiPoly({(0, 1): F(1), (0, 0): F(b)}))
    # the shifted polynomial's own integer rows agree with its terms
    assert got.eval(-a, -b) == p.eval(0, 0)


@given(_sparse_bipolys())
@settings(max_examples=200, deadline=None)
def test_term_maps_match_subst(p):
    x, y = BiPoly.x(), BiPoly.y()
    assert p.monomial_subst((1, 0), (0, 1), -1) == _ref_subst(p, -x, y)
    for kind, (xp, yp) in (("x", (x, x * y)), ("y", (x * y, x))):
        total = _ref_subst(p, xp, yp)
        m = min((i for i, _j in total.t), default=0)
        assert _strict_transform(p, kind) == BiPoly({(i - m, j): v for (i, j), v in total.t.items()})


@given(_sparse_bipolys(), st.integers(2, 9), _points)
@settings(max_examples=200, deadline=None)
def test_equal_polynomials_hash_equal(p, k, x0):
    # the hash is taken once from the cached integer rows, so every route
    # to the same polynomial hashes alike, and reading the rows does not
    # move it
    routes = [
        BiPoly({key: F(v.numerator * k, v.denominator * k) for key, v in p.t.items()}),
        BiPoly({key: int(v) if v.denominator == 1 else str(v) for key, v in p.t.items()}),
        BiPoly._of(dict(p.t)),
        BiPoly._of(dict(reversed(p.t.items()))),
        p.swap_xy().swap_xy(),
        p.translate(0, 0),
        p.monomial_subst((1, 0), (0, 1)),
        p.quotient(BiPoly.const(1)),
        p.quotient(BiPoly.const(F(1, k))).scale(F(1, k)),
    ]
    h = hash(p)
    for q in routes:
        assert q == p and hash(q) == h
    fresh = BiPoly._of(dict(p.t))
    rows, _l = fresh.int_y_rows()
    if rows:
        rows[-1].append(k)
    fresh.int_fibre(x0)
    assert hash(fresh) == h
    fresh.int_y_rows()
    fresh.int_fibre(x0)
    assert hash(fresh) == h and {fresh: 1}[p] == 1


@given(_sparse_bipolys(), st.integers(1, 3), st.integers(1, 4), _res_coeffs)
@settings(max_examples=200, deadline=None)
def test_edge_substitution_matches_subst(f, q, p, c):
    # the Newton-edge substitution Fp(x^q, x^p (c + y)) along an edge of slope
    # p/q: a term map with exponents above 1, then a translation
    got = f.monomial_subst((q, 0), (p, 1)).translate(0, c)
    assert got == _ref_subst(f, BiPoly({(q, 0): F(1)}), BiPoly({(p, 0): c, (p, 1): F(1)}))


def test_monomial_subst_needs_an_injective_exponent_map():
    with pytest.raises(InternalError, match="not injective"):
        parse_polynomial("x + y").monomial_subst((1, 1), (2, 2))


def test_classification_composes_nothing(monkeypatch):
    # classify_exceptional reads every factor's sign on both sides of each
    # arc from its total transform in the component's chart, so it composes
    # no factor with an arc: not on a contact of order 2, nor on any check
    # of the benchmark's blowup workload, nor where a half-line's sign
    # vector has no single tag and a point of it is located, which the node
    # with tangent slopes +-sqrt2 and the tangent of slope 1/3^30 reach in
    # the affine chart and at the pole
    from conftest import bench_workload
    from test_checker import IRRATIONAL_TANGENTS, LARGE_DENOMINATOR_POINTS

    from basix import checker, puiseux, resolution
    from basix.scene import Scene
    from basix.sphere import PoleView

    composed = []
    classified = [0]
    inside = [False]
    located = {"affine": 0, "pole": 0}
    compose, classify, locate = puiseux.compose_bipoly, checker.classify_exceptional, resolution._located_tag

    def counted_compose(g, xs, ys):
        if inside[0]:
            composed.append((g, xs, ys))
        return compose(g, xs, ys)

    def counted_classify(*args, **kwargs):
        inside[0] = True
        classified[0] += 1
        try:
            return classify(*args, **kwargs)
        finally:
            inside[0] = False

    def counted_locate(D, decomp, *args):
        located["pole" if isinstance(decomp, PoleView) else "affine"] += 1
        return locate(D, decomp, *args)

    monkeypatch.setattr(puiseux, "compose_bipoly", counted_compose)
    monkeypatch.setattr(checker, "classify_exceptional", counted_classify)
    monkeypatch.setattr(resolution, "_located_tag", counted_locate)
    text = "factor f = y - x^2;\nfactor g = y - x^2 - x^2;\nset S = { f > 0, g < 0 } | { f < 0, g > 0 };\n"
    v = checker.run_check(checker.CheckRequest(Scene.from_text(text), "basic_open"))
    assert v.answer == "Yes"
    texts, checks = bench_workload(monkeypatch, "blowup")
    assert "contact2" in texts
    for c in checks:
        checker.run_check(checker.CheckRequest(Scene.from_text(texts[c.scene]), c.prop))
    assert located == {"affine": 0, "pole": 0}
    for text in (IRRATIONAL_TANGENTS["tangents-sqrt2"], LARGE_DENOMINATOR_POINTS["tangent-slope-3^30"]):
        before = dict(located)
        v = checker.run_check(checker.CheckRequest(Scene.from_text(text), "basic_open"))
        assert v.answer == "Yes"
        assert all(located[chart] > before[chart] for chart in located), (before, located)
    assert classified[0] >= 10 and composed == []


def test_condition_b_reads_the_cached_integer_rows(monkeypatch):
    # resolve_point tests which curves pass through a site by their signs,
    # so it evaluates no polynomial, and _factor_rows reads the rows of
    # each total transform by the power of u off its cached integer rows at
    # the centre every component keeps, so it swaps no polynomial and pushes
    # no point down a chart word: on every basic_open check of the
    # benchmark's blowup workload and on the scenes with irrational tangents
    # and with large denominators
    from conftest import bench_workload
    from test_checker import IRRATIONAL_TANGENTS, LARGE_DENOMINATOR_POINTS

    from basix import checker, resolution
    from basix.scene import Scene

    calls = {"resolve_point": 0, "_factor_rows": 0}
    inside: list[str] = []
    seen = []

    def entered(name, fn):
        def run(*args, **kwargs):
            inside.append(name)
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()

        return run

    def watch(cls, attr, within):
        fn = getattr(cls, attr)

        def counted(*args, **kwargs):
            if within in inside:
                seen.append((within, attr))
            return fn(*args, **kwargs)

        monkeypatch.setattr(cls, attr, counted)

    monkeypatch.setattr(checker, "resolve_point", entered("resolve_point", checker.resolve_point))
    monkeypatch.setattr(resolution, "_factor_rows", entered("_factor_rows", resolution._factor_rows))
    watch(BiPoly, "eval", "resolve_point")
    watch(BiPoly, "swap_xy", "_factor_rows")
    watch(resolution.BlowupChart, "down_point", "_factor_rows")
    texts, checks = bench_workload(monkeypatch, "blowup")
    runs = [texts[c.scene] for c in checks if c.prop == "basic_open"]
    runs += [*IRRATIONAL_TANGENTS.values(), *LARGE_DENOMINATOR_POINTS.values()]
    for text in runs:
        checker.run_check(checker.CheckRequest(Scene.from_text(text), "basic_open"))
    assert calls["resolve_point"] >= 10 and calls["_factor_rows"] >= 10, calls
    assert sorted(set(seen)) == []


# ---------------------------------------------------------------- integer fibres


def _fraction_mapped_variations(q, a, b):
    """Sign variations of (1 + x)^n q((a + b x)/(1 + x)), built on `Fraction`s."""
    n = q.degree
    mapped = UniPoly()
    for i, c in enumerate(q.c):
        mapped = mapped + (P(a, b) ** i * P(1, 1) ** (n - i)).scale(c)
    signs = [v for v in mapped.c if v]
    return sum(1 for u, v in zip(signs, signs[1:]) if (u > 0) != (v > 0))


def _fraction_isolate(p, lo=None, hi=None, detect_rational=True):
    """Root isolation on `Fraction` polynomials, as it ran before it moved to
    integer lists: the monic squarefree part, a `Fraction` root bound, roots
    at the window's ends and at midpoints divided out by Fraction long
    division, a recursive Descartes walk; an oracle for `isolate_real_roots`.
    Its locators refine on the primitive integer form of their polynomial."""
    sf = _ref_squarefree_part(p)
    if sf.degree <= 0:
        return []
    if sf.degree == 1:
        x = -sf.c[0]
        inside = (lo is None or lo < x) and (hi is None or x < hi)
        return [RootLocator(int_primitive(sf), x, x, exact=x)] if inside else []
    bound, B = 1 + max(abs(v) for v in sf.c[:-1]) / abs(sf.c[-1]), F(1)
    while B < bound:
        B *= 2
    a, b = (lo if lo is not None else -B), (hi if hi is not None else B)
    if a >= b:
        return []
    out = []

    def walk(a, b, q):
        var = _fraction_mapped_variations(q, a, b)
        if var == 0:
            return
        if var == 1 and q.eval(a) != 0 and q.eval(b) != 0:
            out.append(RootLocator(int_primitive(q), a, b))
            return
        m = (a + b) / 2
        if q.eval(m) == 0:
            q = _ref_divmod(q, P(-m, 1))[0]
            out.append(RootLocator(int_primitive(sf), m, m, exact=m))
        walk(a, m, q)
        walk(m, b, q)

    q = sf
    for e in (a, b):
        while q.eval(e) == 0:
            q = _ref_divmod(q, P(-e, 1))[0]
    if q.degree > 0:
        walk(a, b, q)
    out.sort(key=lambda r: r.lo)
    for r1, r2 in zip(out, out[1:]):
        while r1.hi > r2.lo:
            r1.refine()
            r2.refine()
    if detect_rational:
        for r in out:
            if r.exact is None:
                r.try_rational()
    return out


@given(
    int_coeffs,
    st.integers(1, 7),
    st.integers(-9, 9),
    st.integers(1, 3),
    st.one_of(st.none(), small_fracs),
    st.one_of(st.none(), small_fracs),
    st.booleans(),
)
@example([-2, 0, 1], 3, 1, 2, F(1, 3), None, True)  # a double root at the window's end
@example([0, -1, 0, 1], 1, 0, 1, None, None, False)  # a root at the first midpoint
@settings(max_examples=200, deadline=None)
def test_integer_isolation_matches_the_fraction_oracle(coeffs, q, p0, k, lo, hi, detect_rational):
    # the same intervals, the same exact roots, the same polynomial behind
    # every locator (up to a positive factor), in the same order
    p = UniPoly(coeffs) * P(-p0, q) ** k
    new = isolate_real_roots(int_primitive(p), lo, hi, detect_rational)
    old = _fraction_isolate(p, lo, hi, detect_rational)
    assert [(r.lo, r.hi, r.exact, r.ints()) for r in new] == [(r.lo, r.hi, r.exact, r.ints()) for r in old]
    # a list that is not primitive is taken by its primitive form
    scaled = [-3 * v for v in int_primitive(p)]
    assert [_state(r) for r in isolate_real_roots(scaled, lo, hi, detect_rational)] == [_state(r) for r in new]


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        max_size=8,
    ),
    st.one_of(st.integers(-9, 9), st.fractions(min_value=-5, max_value=5, max_denominator=40)),
)
@example({(0, 2): F(-1, 3), (1, 0): F(1, 2)}, F(-2, 7))  # a negative leading coefficient in y
@settings(max_examples=200, deadline=None)
def test_int_fibre_is_the_fraction_fibre_times_a_positive_denominator(terms, x0):
    f, x0 = BiPoly(terms), F(x0)
    ref = [sum((v * x0**i for (i, j), v in f.t.items() if j == k), F(0)) for k in range(f.deg_y + 1)]
    while ref and ref[-1] == 0:
        ref.pop()
    c = f.int_fibre(x0)
    den = f.int_y_rows()[1] * x0.denominator ** max(f.deg_x, 0)
    assert all(type(v) is int for v in c)
    assert c == [v * den for v in ref]
    assert not ref or (c[-1] > 0) == (ref[-1] > 0)


_SQRT2_1000 = F(math.isqrt(2 * 4**1000), 2**1000)  # sqrt2 to 1,000 bits, just below it


@given(
    int_coeffs,
    st.one_of(
        small_fracs,
        st.builds(F, st.integers(-(2**1000), 2**1000), st.integers(1, 2**1000)),
        st.builds(lambda k: _SQRT2_1000 + F(k, 2**1001), st.integers(-3, 3)),
    ),
    st.booleans(),
)
@example([-2, 0, 1], _SQRT2_1000, False)
@example([-2, 0, 1], _SQRT2_1000, True)
@example([0, -1, 0, 1], F(0), False)
@settings(max_examples=150, deadline=None)
def test_sturm_count_below_matches_the_isolation_count(coeffs, y, root_at_y):
    # at roots and off them, at points of up to 1,000 bits and next to sqrt2
    p = UniPoly(coeffs)
    if root_at_y:
        p = p * P(-y.numerator, y.denominator)
    want = len(isolate_real_roots(int_primitive(p), None, y, detect_rational=False))
    assert count_roots_below(int_primitive(p), y) == want
    assert count_roots_below([-3 * v for v in int_primitive(p)], y) == want


def test_isolation_parts_roots_2_to_the_minus_1100_apart():
    # the walk bisects about 1,100 times to part 1/3 from 1/3 + 2^-1100, deeper
    # than the interpreter's recursion limit
    r = F(1, 3) + F(1, 2**1100)
    p = P(-1, 3) * P(-r.numerator, r.denominator)
    assert [loc.exact for loc in isolate_real_roots(int_primitive(p))] == [F(1, 3), r]
    counted = isolate_real_roots(int_primitive(p), detect_rational=False)
    assert len(counted) == 2 and counted[0].hi <= counted[1].lo
    assert [count_roots_below(int_primitive(p), y) for y in (F(1, 3), (F(1, 3) + r) / 2, r, r + 1)] == [0, 1, 1, 2]
