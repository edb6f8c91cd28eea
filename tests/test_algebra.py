import math
from collections import Counter
from fractions import Fraction

import pytest
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
from basix.series import TSeries, compose_bipoly
from basix.unipoly import UniPoly, _ilist_pseudo_rem, poly_gcd, squarefree_part

F = Fraction


def P(*coeffs):
    return UniPoly(coeffs)


# ---------------------------------------------------------------- poly_gcd


def test_gcd_common_linear_factor():
    # gcd(x^2 - 1, (x - 1)(x + 2)) = x - 1
    a = P(-1, 0, 1)
    b = UniPoly.from_roots([1, -2])
    assert poly_gcd(a, b) == P(-1, 1)


def test_gcd_coprime():
    assert poly_gcd(P(1, 0, 1), P(0, 1)) == UniPoly.one()


def test_gcd_with_zero():
    a = P(0, -2, 0, 2)  # 2x^3 - 2x
    assert poly_gcd(a, UniPoly.zero()) == a.monic()


def test_gcd_cubic_vs_quadratic():
    # gcd(x^3 - x, x^2 - 1) = x^2 - 1, verified by division oracle
    g = poly_gcd(P(0, -1, 0, 1), P(-1, 0, 1))
    assert g == P(-1, 0, 1)
    for p in (P(0, -1, 0, 1), P(-1, 0, 1)):
        q, r = p.divmod(g)
        assert r.is_zero()
        assert q * g == p


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_gcd_divides_both(ca, cb):
    a, b = UniPoly(ca), UniPoly(cb)
    if a.is_zero() and b.is_zero():
        return
    g = poly_gcd(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    for p in (a, b):
        if not p.is_zero():
            assert p.divmod(g)[1].is_zero()


# ---------------------------------------------------------------- squarefree


def test_squarefree_part_examples():
    assert squarefree_part(P(0, 0, 1)) == P(0, 1)  # x^2 -> x
    p = UniPoly.from_roots([1, 1, -1])
    assert squarefree_part(p) == UniPoly.from_roots([1, -1]).monic()
    q = P(0, -1, 0, 1)  # x^3 - x, already squarefree
    assert squarefree_part(q) == q.monic()


# ---------------------------------------------------------------- resultant


def X(i=1):
    return BiPoly({(i, 0): F(1)})


def Y(j=1):
    return BiPoly({(0, j): F(1)})


def test_resultant_parabolas():
    # res_y(y - x^2, y - 2x^2) = -x^2 by the 2x2 Sylvester determinant
    f = Y() - X(2)
    g = Y() - X(2).scale(2)
    r = resultant(f, g, "y")
    assert r == UniPoly([0, 0, -1])


def test_resultant_degree_zero_error():
    with pytest.raises(DegreeZero):
        resultant(Y(), X(), "y")


def test_resultant_lines():
    # res_y(y - x, y + x) = 2x
    r = resultant(Y() - X(), Y() + X(), "y")
    assert r == UniPoly([0, 2])


def test_resultant_specialization_property():
    f = parse_polynomial("y^2 - x^3 + x*y - 1")
    g = parse_polynomial("y^3 + 2*x*y - x^2 + 3")
    r = resultant(f, g, "y")
    from basix.unipoly import sylvester_resultant

    for x0 in (F(0), F(1), F(-2), F(3, 2)):
        fa, ga = f.specialize_x(x0), g.specialize_x(x0)
        # leading coefficients are constants here, so specialisation commutes
        assert r.eval(x0) == sylvester_resultant(fa, ga)


def test_resultant_common_root_projection():
    # (y - x)(y + x) meets y - 1 at (1, 1) and (-1, 1)
    r = resultant((Y() - X()) * (Y() + X()), Y() - BiPoly.const(1), "y")
    roots = isolate_real_roots(r)
    vals = sorted(l.try_rational() for l in roots)
    assert vals == [F(-1), F(1)]


# ---------------------------------------------------------------- root isolation


def test_isolate_sqrt2():
    locs = isolate_real_roots(P(-2, 0, 1))
    assert len(locs) == 2
    assert locs[0].hi <= 0 <= locs[1].lo
    locs[1].refine_below(F(1, 1000))
    lo, hi = locs[1].lo, locs[1].hi
    assert lo * lo < 2 < hi * hi


def test_isolate_no_real_roots():
    assert isolate_real_roots(P(1, 0, 1)) == []


def test_isolate_three_rational_roots():
    locs = isolate_real_roots(P(0, -1, 0, 1))
    assert [l.try_rational() for l in locs] == [F(-1), F(0), F(1)]


def test_isolate_in_range():
    locs = isolate_real_roots(P(0, -1, 0, 1), F(-1, 2), F(10))
    assert [l.try_rational() for l in locs] == [F(0), F(1)]


def _sturm_count(p, lo=None, hi=None):
    """Reference: distinct real roots of p in (lo, hi] by a Sturm chain
    (the whole line by default)."""
    sf = squarefree_part(p)
    if sf.degree <= 0:
        return 0
    chain = [sf, sf.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        chain.append(-(chain[-2] % chain[-1]))
    if chain[-1].is_zero():
        chain.pop()

    def variations(signs):
        signs = [v for v in signs if v != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def at(x):
        return variations([(v > 0) - (v < 0) for v in (q.eval(x) for q in chain)])

    def at_inf(positive):
        return variations([(1 if q.lc() > 0 else -1) * (1 if positive or q.degree % 2 == 0 else -1) for q in chain])

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
        locs = isolate_real_roots(p)
        assert len(locs) == _sturm_count(p)


def test_count_roots_below():
    p = P(0, -1, 0, 1)  # roots -1, 0, 1
    assert count_roots_below(p, F(-2)) == 0
    assert count_roots_below(p, F(0)) == 1
    assert count_roots_below(p, F(1, 2)) == 2
    assert count_roots_below(p, F(5)) == 3
    # an open window: a root at its end is not below it
    assert count_roots_below(P(-3, 1), F(3)) == 0


def test_linear_roots_are_exact():
    # a denominator no fixed number of refinement rounds reaches
    (loc,) = isolate_real_roots(P(-1, 10007))
    assert repr(loc) == "Root(1/10007)" and loc.lo == loc.hi == F(1, 10007)
    # the window is open: a root at either end, or outside, is left out
    assert isolate_real_roots(P(-3, 1), F(3), F(5)) == []
    assert isolate_real_roots(P(-3, 1), F(1), F(3)) == []
    assert isolate_real_roots(P(-3, 1), F(4), F(5)) == []
    assert isolate_real_roots(P(-3, 1), None, F(2)) == []
    # a linear squarefree part of a square
    (loc,) = isolate_real_roots(P(-3, 1) ** 2)
    assert loc.exact == loc.lo == loc.hi == 3 and loc.p == P(-3, 1)


def test_roots_equal_and_compare():
    a = isolate_real_roots(P(-2, 0, 1))[1]  # sqrt 2
    c = isolate_real_roots(P(-2, 0, 1) * P(-3, 1))[1]  # same number, bigger poly
    assert roots_equal(a, c)
    d = isolate_real_roots(P(-3, 0, 1))[1]  # sqrt 3
    assert not roots_equal(a, d)


def _ref_vanishes_at(u, r):
    """The rule `vanishes_at` replaced: isolate the roots of u and compare
    each with the locator."""
    if u.degree < 1:
        return u.is_zero()
    return any(roots_equal(r, loc) for loc in isolate_real_roots(u))


_SQ2 = P(-2, 0, 1)
# each builds a fresh locator: the reference refines the ones it compares
_LOCATORS = {
    "sqrt2": lambda: isolate_real_roots(_SQ2)[1],
    "-sqrt2": lambda: isolate_real_roots(_SQ2)[0],
    "sqrt2-of-a-product": lambda: isolate_real_roots(_SQ2 * P(-5, 1))[1],
    "sqrt3": lambda: isolate_real_roots(P(-3, 0, 1))[1],
    "exact-5-of-a-product": lambda: isolate_real_roots(_SQ2 * P(-5, 1))[2],
    "exact-3/2": lambda: RootLocator.at(F(3, 2)),
    "exact-0": lambda: RootLocator.at(0),
}
_VANISH_POLYS = [_SQ2, P(-3, 0, 1), _SQ2 * P(-5, 1), P(-5, 1), P(-9, 0, 4), P(0, 1), P(7), P()]


@pytest.mark.parametrize("make", list(_LOCATORS.values()), ids=list(_LOCATORS))
def test_vanishes_at_matches_isolate_and_compare(make):
    for u in _VANISH_POLYS:
        assert vanishes_at(u, make()) == _ref_vanishes_at(u, make()), u


def test_vanishes_at_irrational_and_exact_marks():
    sqrt2 = _LOCATORS["sqrt2-of-a-product"]
    assert sqrt2().exact is None and _LOCATORS["exact-5-of-a-product"]().exact == 5
    assert [vanishes_at(u, sqrt2()) for u in _VANISH_POLYS] == [True, False, True, False, False, False, False, True]
    assert vanishes_at(P(-9, 0, 4), RootLocator.at(F(3, 2))) and not vanishes_at(_SQ2, RootLocator.at(F(3, 2)))


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
    roots = sorted(l.try_rational() for l in isolate_real_roots(d))
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


def _ref_primitive(fracs):
    r = list(fracs)
    while r and r[-1] == 0:
        r.pop()
    if not r:
        return []
    l = math.lcm(*(v.denominator for v in r))
    ints = [int(v * l) for v in r]
    g = math.gcd(*ints)
    return [v // g if ints[-1] > 0 else -v // g for v in ints]


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
    return _ref_primitive(r)


class _RefLocator:
    """Bisection with a fresh sign at lo and a fresh candidate every round."""

    def __init__(self, loc):
        self.p, self.lo, self.hi, self.exact = loc.p, loc.lo, loc.hi, loc.exact

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
        width = F(1, _ref_primitive(self.p.c)[-1] ** 2)
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
    p = UniPoly(coeffs)
    v = p.eval(x)
    assert type(v) is Fraction
    assert v == _ref_eval(p.c, F(x))
    assert p.eval(x) == v  # second call reads the cached integer form


@given(int_coeffs, int_coeffs)
@settings(max_examples=200, deadline=None)
def test_pseudo_rem_and_gcd_match_fraction_reference(ca, cb):
    assert _ilist_pseudo_rem(ca, cb) == _ref_pseudo_rem(ca, cb)
    ia, ib = _ref_primitive([F(v) for v in ca]), _ref_primitive([F(v) for v in cb])
    while ib:
        ia, ib = ib, _ref_pseudo_rem(ia, ib)
    assert poly_gcd(UniPoly(ca), UniPoly(cb)) == UniPoly(ia).monic()


@given(int_coeffs, st.integers(1, 7), st.integers(-9, 9), st.integers(0, 30))
@settings(max_examples=120, deadline=None)
def test_locators_end_like_fraction_reference(coeffs, q, p0, steps):
    # a rational root p0/q next to the roots of a random integer polynomial
    poly = UniPoly(coeffs) * P(-p0, q)
    for loc in isolate_real_roots(poly, detect_rational=False):
        new, ref = RootLocator(loc.p, loc.lo, loc.hi, loc.exact), _RefLocator(loc)
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
    rational = {F(int(r.p), int(r.q)) for r in sympy.Poly(list(reversed(poly.int_primitive())), x, domain="QQ").ground_roots()}
    locs = isolate_real_roots(poly)
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
    assert open_count(p, lo, hi) == _sturm_count(p, lo, hi) - (p.eval(hi) == 0)


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
    fast = isolate_real_roots(line, lo, hi)
    slow = isolate_real_roots(line * P(1, 0, 1), lo, hi)
    assert len(fast) == len(slow)
    for r, s in zip(fast, slow):
        assert r.exact == -b / a and r.lo == r.hi == r.exact
        assert roots_equal(r, s)


@given(int_coeffs, st.lists(small_fracs, max_size=3))
@settings(max_examples=80, deadline=None)
def test_separate_between_and_sign(coeffs, rationals):
    poly = UniPoly(coeffs)
    locs = isolate_real_roots(poly)
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
            s0, shi = (loc.p.eval(v) > 0 for v in (F(0), loc.hi))
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
    loc = RootLocator(P(-2, 0, 59049), F(0), F(1))
    assert loc.try_rational() is None
    assert len(intervals) == 32
    assert loc.hi - loc.lo < F(1, 59049**2) <= intervals[-1][1] - intervals[-1][0]
    expected, cand = 0, None
    for lo, hi in intervals + [(loc.lo, loc.hi)]:
        if cand is None or not lo < cand < hi:
            expected += 1
            cand = _ref_simplest_in(lo, hi)
    assert len(candidates) == expected < 32


def test_specialize_y_swaps_once(monkeypatch):
    f = parse_polynomial("x^3*y^2 - 2*x*y + y^3 - 1/3")
    swaps = []
    real_swap = BiPoly.swap_xy

    def counting_swap(self):
        swaps.append(self)
        return real_swap(self)

    monkeypatch.setattr(BiPoly, "swap_xy", counting_swap)
    for y0 in (F(0), F(1), F(-2, 3), F(5)):
        g = f.specialize_y(y0)
        for x0 in (F(-1), F(1, 2), F(3)):
            assert g.eval(x0) == f.eval(x0, y0)
    assert len(swaps) == 1


def test_y_coeffs_returns_a_fresh_list():
    f = parse_polynomial("x^2*y - y^2 + 3*x")
    rows = f.y_coeffs()
    rows.append(UniPoly.one())
    rows[0] = UniPoly.zero()
    assert f.y_coeffs() == [P(0, 3), P(0, 0, 1), P(-1)]
    assert f.y_coeffs() is not f.y_coeffs()
    # the cached integer rows are handed out as fresh lists too
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
    locs = isolate_real_roots(UniPoly(coeffs))
    assert len(locs) == len(sp.intervals())
    assert {l.exact for l in locs if l.exact is not None} == rational


def _sympy_rational_roots(sympy, p):
    """(sorted rational real roots, has an irrational real root) of p, from
    sympy's factorisation over Q."""
    x = sympy.Symbol("x")
    rational, irrational = set(), False
    for fac, _mult in sympy.Poly(list(reversed(p.int_primitive())), x).factor_list()[1]:
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
    assert rational_roots(p) == _sympy_rational_roots(sympy, p)


def test_rational_roots_pins():
    assert rational_roots(P(-7, 13) * P(11, 17) * P(-2, 0, 1)) == ([F(-11, 17), F(7, 13)], True)
    assert rational_roots(P(6, 0, -5, 0, 1)) == ([], True)
    assert rational_roots(P(1, 0, 1)) == ([], False)
    # a denominator past any fixed number of refinement rounds
    big = P(-(10**30 + 1), 10**30 + 7)
    assert rational_roots(big * P(-2, 0, 1)) == ([F(10**30 + 1, 10**30 + 7)], True)


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
    fc, gc = f.y_coeffs(), g.y_coeffs()
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
    p = UniPoly.zero()
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
    try:
        return fn(f, g, eliminate).c
    except DegreeZero:
        return "DegreeZero"


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
        assert got in ((), "DegreeZero")


def test_resultant_reference_cases():
    # leading y-coefficient x vanishes at the first node; a common factor
    f = parse_polynomial("x*y^2 - y + 3")
    g = parse_polynomial("y^3 - 2*x^2*y + 1/2")
    assert resultant(f, g, "y").c == _ref_resultant(f, g, "y").c != ()
    assert resultant(f, g, "x").c == _ref_resultant(f, g, "x").c
    h = parse_polynomial("y - x - 1")
    assert resultant(f * h, g * h, "y").is_zero()


def _sympy_expr(sympy, p, x, y):
    return sum(sympy.Rational(v.numerator, v.denominator) * x**i * y**j for (i, j), v in p.t.items())


def _sympy_coeffs(sympy, expr, x):
    expr = sympy.expand(expr)
    if expr == 0:
        return ()
    return tuple(F(int(c.p), int(c.q)) for c in reversed(sympy.Poly(expr, x).all_coeffs()))


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
    assert resultant(f, g, "y").c == _sympy_coeffs(sympy, want, x)


@given(_res_bipolys(min_dy=2))
@settings(max_examples=60, deadline=None)
def test_discriminant_form_agrees_with_sympy(f):
    # discriminant_y returns Res_y(f, df/dy), which sympy.discriminant normalises differently
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    fe = _sympy_expr(sympy, f, x, y)
    want = _sympy_coeffs(sympy, sympy.resultant(fe, sympy.diff(fe, y), y), x)
    assert resultant(f, f.partial_y(), "y").c == want
    assert discriminant_y(f).c == want


def test_divides_reads_the_x_content():
    Q = parse_polynomial
    assert not Q("x*y").divides(Q("y"))
    assert not Q("x + 1").divides(Q("x*y + 1"))
    assert Q("y").divides(Q("x*y")) and Q("x + 1").divides(Q("x*y + y"))
    assert Q("2").divides(Q("x")) and Q("x").divides(Q("0"))
    assert not Q("0").divides(Q("x")) and Q("0").divides(Q("0"))


def test_content_x_stops_at_a_constant_coefficient(monkeypatch):
    def refuse(*_args):
        raise AssertionError("content_x took a gcd")

    monkeypatch.setattr(bipoly, "poly_gcd", refuse)
    # the constant coefficient is the last row: every row before it is nonconstant
    assert parse_polynomial("(x^2 - 1)*y^2 + (x - 1)*y + 3").content_x() == UniPoly.one()
    assert parse_polynomial("x*y - 2").content_x() == UniPoly.one()


def test_content_x_of_one_coefficient_takes_no_gcd(monkeypatch):
    def refuse(*_args):
        raise AssertionError("content_x took a gcd")

    monkeypatch.setattr(bipoly, "poly_gcd", refuse)
    # the one nonzero y-coefficient, made monic, is the content
    assert parse_polynomial("x").content_x() == UniPoly([0, 1])
    assert parse_polynomial("x^2 + 1").content_x() == UniPoly([1, 0, 1])
    assert parse_polynomial("-2*x^2*y^3 - 4*y^3").content_x() == UniPoly([2, 0, 1])


_x_factors = st.lists(_res_coeffs, min_size=1, max_size=3).map(lambda cs: BiPoly({(i, 0): v for i, v in enumerate(cs)}))


@given(_res_bipolys(min_dy=0, max_dy=3), _x_factors)
@settings(max_examples=80, deadline=None)
def test_content_x_is_the_gcd_of_the_rows(p, c):
    # c(x) a content that the rows may or may not carry
    if not c.is_zero():
        p = p * c
    g = UniPoly.zero()
    for row in p.y_coeffs():
        g = poly_gcd(g, row)
    assert p.content_x() == (g if not g.is_zero() else UniPoly.one())


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
    assert d.divides(a) == want
    if want:
        assert a.exact_div(d) * d == a


def test_refine_disjoint_rejects_coincident_roots():
    # x - 1 and x^2 - 1 share the root 1; callers pass distinct roots only
    locs = isolate_real_roots(UniPoly([-1, 1])) + isolate_real_roots(UniPoly([-1, 0, 1]))
    with pytest.raises(InternalError, match="coincident roots"):
        refine_disjoint(locs)


# ------------------------------------ composition and squarefree on integer rows


def _ref_compose(p, xs, ys):
    """The Fraction Horner that compose_bipoly replaced: TSeries operators
    throughout, in y then x."""
    acc = TSeries.zero(None)
    for ypoly in reversed(p.y_coeffs()):
        cx = TSeries.zero(None)
        for v in reversed(ypoly.c):
            cx = cx * xs + TSeries.const(v)
        acc = acc * ys + cx
    return acc


def _ref_subst(p, xp, yp):
    """p(xp(u, v), yp(u, v)) by Fraction Horner over BiPoly products, in y
    then x: the general substitution that the term maps and the integer
    Taylor shift of BiPoly replaced."""
    acc = BiPoly.zero()
    for row in reversed(p.y_coeffs()):
        cx = BiPoly.zero()
        for v in reversed(row.c):
            cx = cx * xp + BiPoly.const(v)
        acc = acc * yp + cx
    return acc


def _ref_squarefree_part(p):
    """The Fraction squarefree part that the integer one replaced."""
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return p.monic()
    return p.exact_div(g).monic()


# z-linear coefficients a + b*z, often z-free, sometimes zero
_zlin = st.tuples(_res_coeffs, st.sampled_from([F(0), F(0), F(1), F(-1), F(1, 2), F(3)])).map(
    lambda ab: UniPoly(list(ab))
)


@st.composite
def _tseries(draw):
    terms = draw(st.dictionaries(st.integers(0, 6), _zlin, max_size=4))
    trunc = draw(st.one_of(st.none(), st.integers(0, 9)))
    return TSeries.make(terms, trunc)


@given(
    st.one_of(_res_bipolys(min_dy=0), st.just(BiPoly())),
    _tseries(),
    _tseries(),
    st.sampled_from(["free", "same", "neg"]),
)
@settings(max_examples=300, deadline=None)
def test_compose_bipoly_matches_fraction_reference(p, xs, ys, tie):
    if tie == "same":
        ys = xs  # products of equal series: cancelling cross terms
    elif tie == "neg":
        p = p * BiPoly({(1, 0): F(1), (0, 1): F(1)})  # a factor x + y
        ys = -xs  # ... that vanishes along the arc: every term cancels
    assert compose_bipoly(p, xs, ys) == _ref_compose(p, xs, ys)  # terms and trunc


def test_compose_bipoly_reference_cases():
    # y - x^2 along its own branch, exact and truncated, and along a z-arc
    p = parse_polynomial("y - x^2")
    t = TSeries.make({1: UniPoly.const(1)})
    for trunc in (None, 3):
        xs, ys = t, TSeries.make({2: UniPoly.const(1)}, trunc)
        assert compose_bipoly(p, xs, ys) == _ref_compose(p, xs, ys) == TSeries.zero(trunc)
    ys = TSeries.make({2: UniPoly.const(1), 3: UniPoly([F(1, 3), -1])}, 7)
    got = compose_bipoly(p, t, ys)
    assert got == _ref_compose(p, t, ys) and got.leading() == (3, UniPoly([F(1, 3), -1]))
    assert compose_bipoly(BiPoly(), t, ys) == TSeries.zero(None)


def test_sign_small_pos_t_reads_the_lowest_z_term_of_the_leading_term():
    def lead(c, trunc=None):
        return TSeries.make({3: c, 5: UniPoly.const(-9)}, trunc).sign_small_pos_t()

    assert lead(UniPoly([0, -1])) == -1  # -z t^3: the constant term is zero
    assert lead(UniPoly([0, 0, 3])) == 1  # 3z^2 t^3
    assert lead(UniPoly([0, 2, -5]), 4) == 1  # 2z dominates -5z^2 for small z
    assert lead(UniPoly([-1, 8])) == -1
    assert TSeries.zero(None).sign_small_pos_t() == 0  # the exact zero series
    assert TSeries.zero(3).sign_small_pos_t() is None  # no certain term
    assert TSeries.make({4: UniPoly.const(1)}, 2).sign_small_pos_t() is None


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
    got = squarefree_part(p)
    if p.degree == 0:
        assert got == UniPoly.one()
        return
    assert got == _ref_squarefree_part(p)
    # the cached integer form is the one a fresh polynomial computes
    assert got._int_form() == UniPoly(got.c)._int_form()


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=7).filter(lambda c: any(c[1:])))
@settings(max_examples=60, deadline=None)
def test_squarefree_part_agrees_with_sympy(coeffs):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    p = UniPoly(coeffs) ** 2 * UniPoly([coeffs[0], 1])  # a square and a linear factor
    want = sympy.Poly(sympy.sqf_part(sympy.Poly(list(reversed(p.c)), x, domain="QQ").as_expr()), x, domain="QQ")
    want = want.monic()
    assert squarefree_part(p).c == tuple(F(int(v.p), int(v.q)) for v in reversed(want.all_coeffs()))


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
    at the window's ends and at midpoints divided out by `UniPoly.exact_div`,
    a recursive Descartes walk; an oracle for `isolate_real_roots`."""
    sf = p.monic() if p.degree == 1 else squarefree_part(p)
    if sf.degree <= 0:
        return []
    if sf.degree == 1:
        x = -sf.c[0]
        inside = (lo is None or lo < x) and (hi is None or x < hi)
        return [RootLocator(sf, x, x, exact=x)] if inside else []
    bound, B = 1 + max(abs(v) for v in sf.c[:-1]) / abs(sf.lc()), F(1)
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
            out.append(RootLocator(q, a, b))
            return
        m = (a + b) / 2
        if q.eval(m) == 0:
            q = q.exact_div(P(-m, 1))
            out.append(RootLocator(sf, m, m, exact=m))
        walk(a, m, q)
        walk(m, b, q)

    q = sf
    for e in (a, b):
        while q.eval(e) == 0:
            q = q.exact_div(P(-e, 1))
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
    new = isolate_real_roots(p.int_primitive(), lo, hi, detect_rational)
    old = _fraction_isolate(p, lo, hi, detect_rational)
    assert [(r.lo, r.hi, r.exact, r.ints()) for r in new] == [(r.lo, r.hi, r.exact, r.p.int_primitive()) for r in old]
    # a UniPoly is taken by its primitive integer form
    assert [_state(r) for r in isolate_real_roots(p, lo, hi, detect_rational)] == [_state(r) for r in new]


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
    assert f.specialize_x(x0) == UniPoly(ref)


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
    want = len(isolate_real_roots(p, None, y, detect_rational=False))
    assert count_roots_below(p, y) == want
    assert count_roots_below([-3 * v for v in p.int_primitive()], y) == want


def test_isolation_parts_roots_2_to_the_minus_1100_apart():
    # the walk bisects about 1,100 times to part 1/3 from 1/3 + 2^-1100, deeper
    # than the interpreter's recursion limit
    r = F(1, 3) + F(1, 2**1100)
    p = P(-1, 3) * P(-r.numerator, r.denominator)
    assert [loc.exact for loc in isolate_real_roots(p)] == [F(1, 3), r]
    counted = isolate_real_roots(p.int_primitive(), detect_rational=False)
    assert len(counted) == 2 and counted[0].hi <= counted[1].lo
    assert [count_roots_below(p, y) for y in (F(1, 3), (F(1, 3) + r) / 2, r, r + 1)] == [0, 1, 1, 2]
