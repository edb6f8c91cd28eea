"""Real root isolation and refinable root locators.

Input is integer: a polynomial enters as its integer coefficient list, and
the squarefree part, the root bound, the stripping of roots at a window's
ends and every exact division by a found root run on integer lists.

Isolation is bisection driven by Descartes' rule on the interval-mapped
polynomial (Collins & Akritas 1976; Rouillier & Zimmermann 2004), walked on
an explicit stack so that no depth reaches the interpreter's recursion
limit, and roots in a window are counted the same way: ``open_count`` is
the number of isolating intervals in it.  All interval endpoints are
rational, and every locator can be refined on demand to arbitrary width.  A
squarefree part of degree 1 is solved directly: its root is an exact
locator, with no walk and no search.  ``count_roots_below`` is a Sturm count
instead, with no bisection at all, since a point far out or close to a root
would need an unbounded walk.

A locator from `isolate_real_roots` (with its default rational detection)
is exact exactly when its root is rational, and `try_rational` is the one
rule that makes it so: probe the simplest rational of the interval until the
interval is narrower than 1/lc^2.  A rational root a/b of p in lowest terms
has b | lc, the leading coefficient of p's primitive integer form.  Distinct
fractions with denominators at most lc differ by at least 1/lc^2, so an
isolating interval narrower than that holds at most one of them; its
simplest rational has a denominator at most b, so it is the root if the root
is rational, and one exact test decides.

`RootLocator` is the one type for a located real number: a rational enters
as the exact locator ``RootLocator.at(x)``.  A locator keeps the primitive
integer form of its polynomial, ``ints()``.  An exact locator keeps
``lo == hi == exact``, so bounds are always read from ``lo`` and ``hi``, and
refining an exact locator does nothing.  `separate`, `between` and
`RootLocator.sign` are the refinement loops the geometry runs on locators,
and `gap_sample` picks a rational in each gap of ordered located numbers.

The hot kernels run on integers: signs at a rational ``num/den`` come from
homogenised Horner on the primitive integer coefficients, ``simplest_in``
descends the continued fraction on integer numerators and denominators, and
a bisection step builds its midpoint as one ``Fraction`` from integers.

``try_rational`` probes each candidate once.  The simplest rational of an
open interval (smallest denominator, then smallest absolute numerator) is
unique, so if it lies in a subinterval it is that subinterval's simplest
too.  Refinement only shrinks the interval, so while the last candidate
stays inside, the simplest rational is the same number and already known
not to be a root; it is recomputed and probed only once it has left.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InternalError, Unsupported, ZeroPolynomial
from .unipoly import (
    _ilist_derivative,
    _ilist_exact_div,
    _ilist_gcd,
    _ilist_primitive,
    _ilist_rem,
    _ilist_squarefree,
    homogeneous_horner,
)

Frac = Fraction


_SEPARATION_ROUNDS = 512


# -- integer polynomial helpers ------------------------------------------------


def sign_variations(c: list) -> int:
    signs = [v for v in c if v != 0]
    var = 0
    for a, b in zip(signs, signs[1:]):
        if (a > 0) != (b > 0):
            var += 1
    return var


def _int_sign_at(c: list[int], x: Fraction) -> int:
    """Sign of the integer polynomial at a rational point, all-integer
    (den^n p(num/den) has the sign of p(num/den))."""
    if not c:
        return 0
    acc = homogeneous_horner(c, x.numerator, x.denominator)[0]
    return (acc > 0) - (acc < 0)


def _mapped_int(c: list[int], a: Fraction, b: Fraction) -> list[int]:
    """Integer coefficients proportional to (1+x)^n * p((a + b x)/(1+x));
    the sign variation bounds the number of roots of p in (a, b)."""
    n = len(c) - 1
    ad, bd = a.denominator, b.denominator
    d = ad * bd // gcd(ad, bd)
    A = a.numerator * (d // ad)
    B = b.numerator * (d // bd)
    acc = [c[n]]
    pw = [1]  # (d(1+x))^(n-i), grown one step per iteration
    for i in range(n - 1, -1, -1):
        new = [0] * (len(acc) + 1)
        for k, v in enumerate(acc):
            if v:
                new[k] += v * A
                new[k + 1] += v * B
        nxt = [0] * (len(pw) + 1)
        for k, v in enumerate(pw):
            nxt[k] += v * d
            nxt[k + 1] += v * d
        pw = nxt
        ci = c[i]
        if ci:
            for k, v in enumerate(pw):
                new[k] += ci * v
        acc = new
    return acc


def root_bound(c: list[int]) -> Fraction:
    """Cauchy bound of a trimmed nonzero integer list, rounded up to a power
    of two for dyadic-friendly endpoints: all real roots lie in (-B, B)."""
    if len(c) <= 1:
        return Fraction(1)
    lc = abs(c[-1])
    m = max(abs(v) for v in c[:-1])
    # the least power of two bb with bb >= 1 + m / lc
    bb = 1
    while bb * lc < lc + m:
        bb *= 2
    return Fraction(bb)


class RootLocator:
    """One real root of a squarefree polynomial, isolated in (lo, hi).

    ``exact`` is set when the root is a known rational, and then
    ``lo == hi == exact``; otherwise p changes sign across (lo, hi) and the
    interval can be halved indefinitely.  p is given as its primitive
    integer coefficient list (positive leading coefficient).
    """

    def __init__(self, p: list[int], lo: Fraction, hi: Fraction, exact: Fraction | None = None):
        if exact is None and not (lo < hi):
            raise ValueError("empty isolating interval")
        self._ip = p
        self.lo, self.hi, self.exact = lo, hi, exact
        # sign of p at lo, valid while lo is the object _slo_at: refine moves
        # lo only to a point of the same sign
        self._slo_at: Fraction | None = None
        self._slo = 0

    @classmethod
    def at(cls, x: Fraction | int) -> "RootLocator":
        """The exact locator of a rational number."""
        x = Fraction(x)
        return cls([-x.numerator, x.denominator], x, x, x)

    def ints(self) -> list[int]:
        """The primitive integer form of p; shared, so not to be mutated."""
        return self._ip

    def _sign(self, x: Fraction) -> int:
        return _int_sign_at(self.ints(), x)

    def refine(self) -> None:
        if self.exact is not None:
            return
        lo = self.lo
        m = _midpoint(lo, self.hi)
        sm = self._sign(m)
        if sm == 0:
            self.exact = m
            self.lo = self.hi = m
            return
        if self._slo_at is not lo:
            self._slo = self._sign(lo)
            self._slo_at = lo
        if sm == self._slo:
            self.lo = self._slo_at = m
        else:
            self.hi = m

    def refine_below(self, width: Fraction) -> None:
        while self.exact is None and self.hi - self.lo >= width:
            self.refine()

    def sign(self) -> int:
        """The sign of the located number; an irrational one is never 0."""
        while True:
            if self.lo == self.hi:
                return (self.lo > 0) - (self.lo < 0)
            if self.lo >= 0:
                return 1
            if self.hi <= 0:
                return -1
            self.refine()

    def contains(self, x: Fraction) -> bool:
        if self.exact is not None:
            return x == self.exact
        return self.lo < x < self.hi

    def try_rational(self) -> Fraction | None:
        """The root if it is rational, else None: probe the simplest rational
        of the interval, refine, and repeat until the interval is narrower
        than 1/lc^2, where a miss proves the root irrational (see the module
        docstring)."""
        if self.exact is not None:
            return self.exact
        lc = self.ints()[-1]
        width = Fraction(1, lc * lc)
        cand = None
        while True:
            # a candidate still inside (lo, hi) is still the simplest there
            # and already known not to be a root (see the module docstring)
            if cand is None or not _inside(cand, self.lo, self.hi):
                cand = simplest_in(self.lo, self.hi)
                if self._sign(cand) == 0:
                    self.exact = cand
                    self.lo = self.hi = cand
                    return cand
            if self.hi - self.lo < width:
                return None
            self.refine()
            if self.exact is not None:
                return self.exact

    def __repr__(self) -> str:
        if self.exact is not None:
            return f"Root({self.exact})"
        return f"Root({self.lo}..{self.hi})"


def _inside(x: Fraction, lo: Fraction, hi: Fraction) -> bool:
    """lo < x < hi, on integer cross products."""
    xn, xd = x.numerator, x.denominator
    return lo.numerator * xd < xn * lo.denominator and xn * hi.denominator < hi.numerator * xd


def _midpoint(lo: Fraction, hi: Fraction) -> Fraction:
    ld, hd = lo.denominator, hi.denominator
    if ld == hd:
        return Fraction(lo.numerator + hi.numerator, 2 * ld)
    return Fraction(lo.numerator * hd + hi.numerator * ld, 2 * ld * hd)


def simplest_in(lo: Fraction, hi: Fraction) -> Fraction:
    """The simplest rational strictly inside (lo, hi): smallest denominator,
    then smallest absolute numerator (this element is unique).

    Continued-fraction descent on integers: while (a/b, c/d) lies in
    (t, t + 1] with t = floor(a/b) < a/b, the next term is t and the
    interval becomes (d/(c - t d), b/(a - t b)); the descent stops at the
    first interval that holds an integer or has an integer left end.
    """
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    if a * d >= c * b:
        raise ValueError("empty interval")
    if a < 0 < c:
        return Fraction(0)
    neg = c <= 0
    if neg:
        a, b, c, d = -c, d, -a, b
    terms = []
    while True:
        t, r = divmod(a, b)
        if (t + 1) * d < c:
            terms.append(t + 1)
            break
        if r == 0:
            # (t, c/d) with c/d <= t + 1: t + 1/m for the smallest valid m
            terms.append(t)
            terms.append(d // (c - t * d) + 1)
            break
        terms.append(t)
        a, b, c, d = d, c - t * d, b, r
    num, den = terms.pop(), 1
    while terms:
        num, den = terms.pop() * num + den, num
    return Fraction(-num if neg else num, den)


def isolate_real_roots(
    p: list[int],
    lo: Fraction | None = None,
    hi: Fraction | None = None,
    detect_rational: bool = True,
) -> list[RootLocator]:
    """Disjoint isolating intervals for the distinct real roots of p in (lo, hi).

    p is an integer coefficient list, trailing zeros allowed, and is made
    primitive and squarefree internally; results are ordered increasingly.
    With ``detect_rational`` a locator is exact exactly when its root is
    rational; without it, only roots met on the way are exact, which is
    enough for counting.
    """
    c = _ilist_primitive(p)
    if not c:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if len(c) <= 1:
        return []
    sf = _ilist_squarefree(c) if len(c) > 2 else c
    if len(sf) == 2:
        x = Fraction(-sf[0], sf[1])
        if (lo is None or lo < x) and (hi is None or x < hi):
            return [RootLocator(sf, x, x, exact=x)]
        return []
    B = root_bound(sf)
    a = lo if lo is not None else -B
    b = hi if hi is not None else B
    if a >= b:
        return []
    out: list[RootLocator] = []
    q = sf
    # strip roots at the window endpoints so Descartes sees open intervals
    for e in (a, b):
        while len(q) > 1 and _int_sign_at(q, e) == 0:
            q = _ilist_exact_div(q, [-e.numerator, e.denominator])
    # Descartes bisection on an explicit stack, left half on top, so roots
    # come out in the order of a left-first recursive walk whatever the depth;
    # each entry carries the polynomial with the roots found so far removed
    todo = [(a, b, q)] if len(q) > 1 else []
    while todo:
        a, b, q = todo.pop()
        var = sign_variations(_mapped_int(q, a, b))
        if var == 0:
            continue
        if var == 1 and _int_sign_at(q, a) != 0 and _int_sign_at(q, b) != 0:
            # carry the root-stripped polynomial: its endpoint signs are the
            # refinement certificate (sf itself may vanish at an endpoint)
            out.append(RootLocator(q, a, b))
            continue
        m = _midpoint(a, b)
        if _int_sign_at(q, m) == 0:
            q = _ilist_exact_div(q, [-m.numerator, m.denominator])
            out.append(RootLocator(sf, m, m, exact=m))
        todo.append((m, b, q))
        todo.append((a, m, q))
    out.sort(key=lambda r: r.lo)
    # ensure pairwise disjoint (Descartes bisection already guarantees it,
    # but exact roots found mid-walk may touch interval endpoints)
    for r1, r2 in zip(out, out[1:]):
        while r1.hi > r2.lo:
            r1.refine()
            r2.refine()
    if detect_rational:
        for r in out:
            if r.exact is None:
                r.try_rational()
    return out


def rational_roots(p: list[int]) -> tuple[list[Fraction], bool]:
    """The rational real roots of p, sorted, and whether p also has an
    irrational real root: the exact and inexact locators of
    `isolate_real_roots`.  Complete; never Unsupported."""
    locs = isolate_real_roots(p)
    return [r.exact for r in locs if r.exact is not None], any(r.exact is None for r in locs)


# -- counting and comparison ----------------------------------------------------


def open_count(p: list[int], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of p in the open interval (a, b)."""
    c = _ilist_primitive(p)
    # a nonzero constant has no roots, and neither has a polynomial whose
    # Descartes bound on (a, b) is zero
    if len(c) == 1 or (c and sign_variations(_mapped_int(c, a, b)) == 0):
        return 0
    return len(isolate_real_roots(c, a, b, detect_rational=False))


def clear_of_roots(c: list[int], a: Fraction, b: Fraction) -> bool:
    """Whether the nonzero integer polynomial c has no real root in the closed
    interval [a, b], a < b.  A sign change, or a zero at an end, is a root;
    with equal end signs a constant or linear c has none, and otherwise the
    Descartes bound decides unless it is inconclusive."""
    sa = _int_sign_at(c, a)
    if sa == 0 or _int_sign_at(c, b) != sa:
        return False
    if len(c) <= 2 or sign_variations(_mapped_int(c, a, b)) == 0:
        return True
    return not isolate_real_roots(c, a, b, detect_rational=False)


def count_roots_below(p: list[int], y: Fraction) -> int:
    """Number of distinct real roots of p in (-inf, y): Sturm's theorem on
    the primitive squarefree part s of p.  With s_0 = s, s_1 = s' and
    s_(k+1) a negative multiple of the remainder of s_(k-1) by s_k, V(-inf) -
    V(y) counts the roots in (-inf, y], V the sign variations along the
    sequence; less 1 when y is a root.  No bisection, so no depth: the cost
    does not grow with y's height or its distance to a root."""
    c = _ilist_primitive(p)
    if not c:
        raise ZeroPolynomial("squarefree_part(0)")
    if len(c) <= 1:
        return 0
    seq = [_ilist_squarefree(c)]
    r = _ilist_primitive(_ilist_derivative(seq[0]))
    while r:
        seq.append(r)
        r = _ilist_rem(seq[-2], r)
        if r:
            g = gcd(*r)
            r = [-v // g for v in r]
    at_y = [_int_sign_at(s, y) for s in seq]
    # at -inf each member has the sign of its leading term at -inf
    at_minus_inf = [s[-1] if len(s) % 2 else -s[-1] for s in seq]
    return sign_variations(at_minus_inf) - sign_variations(at_y) - (at_y[0] == 0)


def roots_equal(r1: RootLocator, r2: RootLocator) -> bool:
    """Decide exactly whether two locators (of possibly different squarefree
    polynomials) denote the same real algebraic number."""
    if r1.exact is not None and r2.exact is not None:
        return r1.exact == r2.exact
    if r1.exact is not None:
        return r2.contains(r1.exact) and r2._sign(r1.exact) == 0
    if r2.exact is not None:
        return r1.contains(r2.exact) and r1._sign(r2.exact) == 0
    g = _ilist_gcd(r1.ints(), r2.ints())
    if len(g) <= 1:
        return False
    lo = max(r1.lo, r2.lo)
    hi = min(r1.hi, r2.hi)
    if lo >= hi:
        # disjoint now, but roots may still coincide only if intervals touch;
        # separate locators of the same number always keep overlapping.
        return False
    # avoid g-roots at the window endpoints
    while _int_sign_at(g, lo) == 0 or _int_sign_at(g, hi) == 0:
        r1.refine()
        r2.refine()
        lo = max(r1.lo, r2.lo)
        hi = min(r1.hi, r2.hi)
        if lo >= hi or r1.exact is not None or r2.exact is not None:
            return roots_equal(r1, r2)
    return open_count(g, lo, hi) > 0


def vanishes_at(u: list[int], r: RootLocator) -> bool:
    """Decide exactly whether the integer polynomial u vanishes at the
    located number: at an exact one by evaluation; otherwise r's polynomial
    p has exactly one root in (lo, hi) and none at the ends, so u vanishes
    there iff gcd(u, p) has a root in (lo, hi)."""
    c = _ilist_primitive(u)
    if r.exact is not None:
        return _int_sign_at(c, r.exact) == 0
    return open_count(_ilist_gcd(c, r.ints()), r.lo, r.hi) > 0


def refine_disjoint(locs: list[RootLocator]) -> None:
    """Refine a list of locators of pairwise-distinct roots until the
    isolating intervals are pairwise disjoint and sorted."""
    changed = True
    while changed:
        changed = False
        locs.sort(key=lambda r: r.lo)
        for a, b in zip(locs, locs[1:]):
            if a.exact is not None and b.exact is not None:
                if a.exact == b.exact:
                    raise InternalError("coincident roots passed to refine_disjoint")
            elif a.hi > b.lo:
                a.refine()
                b.refine()
                changed = True


def separate(locs: list[RootLocator]) -> None:
    """Refine the ordered locators until each interval ends strictly below
    the next one begins."""
    for _ in range(_SEPARATION_ROUNDS):
        ok = True
        for a, b in zip(locs, locs[1:]):
            if a.hi >= b.lo:
                a.refine()
                b.refine()
                ok = False
        if ok:
            return
    raise Unsupported("SeparationCap", "could not strictly separate located points")


def between(a: RootLocator, b: RootLocator) -> Fraction:
    """The simplest rational strictly between the located numbers a < b,
    refining both until their intervals part."""
    while a.hi >= b.lo:
        a.refine()
        b.refine()
    return simplest_in(a.hi, b.lo)


def gap_sample(locs: list[RootLocator], k: int) -> Fraction:
    """A rational in gap k of the ordered located numbers: below the first
    for k = 0, between numbers k - 1 and k, above the last for k =
    len(locs); 0 when there are none."""
    if not locs:
        return Frac(0)
    if k == 0:
        return locs[0].lo - 1
    if k == len(locs):
        return locs[-1].hi + 1
    return between(locs[k - 1], locs[k])
