"""Real root isolation and refinable root locators.

Isolation is bisection driven by Descartes' rule on the interval-mapped
polynomial (Collins & Akritas 1976), and roots are counted the same way:
``open_count`` is the number of isolating intervals in a window.  All
interval endpoints are rational, and every locator can be refined on demand
to arbitrary width.  A squarefree part of degree 1 is solved directly: its
root is an exact locator, with no walk and no search.

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
as the exact locator ``RootLocator.at(x)``.  An exact locator keeps
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

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalError, Unsupported, ZeroPolynomial
from .unipoly import UniPoly, homogeneous_horner, poly_gcd, squarefree_part

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
    from math import gcd as _g

    n = len(c) - 1
    d = a.denominator * b.denominator // _g(a.denominator, b.denominator)
    A = int(a * d)
    B = int(b * d)
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


def root_bound(p: UniPoly) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    if p.degree <= 0:
        return Fraction(1)
    lc = abs(p.lc())
    m = max(abs(v) for v in p.c[:-1]) if p.degree > 0 else Fraction(0)
    b = 1 + m / lc
    # round up to a power of two for dyadic-friendly endpoints
    bb = Fraction(1)
    while bb < b:
        bb *= 2
    return bb


@dataclass
class RootLocator:
    """One real root of a squarefree polynomial, isolated in (lo, hi).

    ``exact`` is set when the root is a known rational, and then
    ``lo == hi == exact``; otherwise p changes sign across (lo, hi) and the
    interval can be halved indefinitely.
    """

    p: UniPoly
    lo: Fraction
    hi: Fraction
    exact: Fraction | None = None

    def __post_init__(self):
        if self.exact is None and not (self.lo < self.hi):
            raise ValueError("empty isolating interval")
        self._ip: list[int] | None = None
        # sign of p at lo, valid while lo is the object _slo_at: refine moves
        # lo only to a point of the same sign
        self._slo_at: Fraction | None = None
        self._slo = 0

    @classmethod
    def at(cls, x: Fraction | int) -> "RootLocator":
        """The exact locator of a rational number."""
        x = Fraction(x)
        return cls(UniPoly([-x, 1]), x, x, x)

    def _ints(self) -> list[int]:
        if self._ip is None:
            self._ip = self.p.int_primitive()
        return self._ip

    def _sign(self, x: Fraction) -> int:
        return _int_sign_at(self._ints(), x)

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
        lc = self._ints()[-1]
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
    p: UniPoly,
    lo: Fraction | None = None,
    hi: Fraction | None = None,
    detect_rational: bool = True,
) -> list[RootLocator]:
    """Disjoint isolating intervals for the distinct real roots of p in (lo, hi).

    p is made squarefree internally; results are ordered increasingly.  With
    ``detect_rational`` a locator is exact exactly when its root is rational;
    without it, only roots met on the way are exact, which is enough for
    counting.
    """
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    sf = p.monic() if p.degree == 1 else squarefree_part(p)
    if sf.degree <= 0:
        return []
    if sf.degree == 1:
        x = -sf.c[0]
        if (lo is None or lo < x) and (hi is None or x < hi):
            return [RootLocator(sf, x, x, exact=x)]
        return []
    B = root_bound(sf)
    a = lo if lo is not None else -B
    b = hi if hi is not None else B
    if a >= b:
        return []
    out: list[RootLocator] = []

    def emit_exact(x: Fraction):
        out.append(RootLocator(sf, x, x, exact=x))

    def walk(a: Fraction, b: Fraction, q: UniPoly, ic: list[int]):
        var = sign_variations(_mapped_int(ic, a, b))
        if var == 0:
            return
        if var == 1 and _int_sign_at(ic, a) != 0 and _int_sign_at(ic, b) != 0:
            # carry the root-stripped polynomial: its endpoint signs are the
            # refinement certificate (sf itself may vanish at an endpoint)
            out.append(RootLocator(q, a, b))
            return
        m = _midpoint(a, b)
        if _int_sign_at(ic, m) == 0:
            q2 = q.exact_div(UniPoly([-m, 1]))
            ic2 = q2.int_primitive()
            emit_exact(m)
            walk(a, m, q2, ic2)
            walk(m, b, q2, ic2)
            return
        walk(a, m, q, ic)
        walk(m, b, q, ic)

    q = sf
    # strip roots at the window endpoints so Descartes sees open intervals
    for e in (a, b):
        while not q.is_zero() and q.eval(e) == 0:
            q = q.exact_div(UniPoly([-e, 1]))
    if q.degree > 0:
        walk(a, b, q, q.int_primitive())
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


def rational_roots(p: UniPoly) -> tuple[list[Fraction], bool]:
    """The rational real roots of p, sorted, and whether p also has an
    irrational real root: the exact and inexact locators of
    `isolate_real_roots`.  Complete; never Unsupported."""
    locs = isolate_real_roots(p)
    return [r.exact for r in locs if r.exact is not None], any(r.exact is None for r in locs)


# -- counting and comparison ----------------------------------------------------


def open_count(p: UniPoly, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of p in the open interval (a, b)."""
    if definitely_no_roots(p, a, b):
        return 0
    return len(isolate_real_roots(p, a, b, detect_rational=False))


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
    return not isolate_real_roots(UniPoly(c), a, b, detect_rational=False)


def count_roots_below(p: UniPoly, x: Fraction) -> int:
    """Number of distinct real roots of p in (-inf, x)."""
    if p.is_zero():
        raise ZeroPolynomial("squarefree_part(0)")
    return len(isolate_real_roots(p, None, x, detect_rational=False))


def definitely_no_roots(p: UniPoly, a: Fraction, b: Fraction) -> bool:
    """Fast certificate that p has no real roots in (a, b) (Descartes bound
    zero on the mapped polynomial); False is inconclusive."""
    if p.degree <= 0:
        return not p.is_zero()
    return sign_variations(_mapped_int(p.int_primitive(), a, b)) == 0


def roots_equal(r1: RootLocator, r2: RootLocator) -> bool:
    """Decide exactly whether two locators (of possibly different squarefree
    polynomials) denote the same real algebraic number."""
    if r1.exact is not None and r2.exact is not None:
        return r1.exact == r2.exact
    if r1.exact is not None:
        return r2.contains(r1.exact) and r2.p.eval(r1.exact) == 0
    if r2.exact is not None:
        return r1.contains(r2.exact) and r1.p.eval(r2.exact) == 0
    g = poly_gcd(r1.p, r2.p)
    if g.degree <= 0:
        return False
    lo = max(r1.lo, r2.lo)
    hi = min(r1.hi, r2.hi)
    if lo >= hi:
        # disjoint now, but roots may still coincide only if intervals touch;
        # separate locators of the same number always keep overlapping.
        return False
    # avoid g-roots at the window endpoints
    while g.eval(lo) == 0 or g.eval(hi) == 0:
        r1.refine()
        r2.refine()
        lo = max(r1.lo, r2.lo)
        hi = min(r1.hi, r2.hi)
        if lo >= hi or r1.exact is not None or r2.exact is not None:
            return roots_equal(r1, r2)
    return open_count(g, lo, hi) > 0


def vanishes_at(u: UniPoly, r: RootLocator) -> bool:
    """Decide exactly whether u vanishes at the located number: at an exact
    one by evaluation; otherwise r.p has exactly one root in (lo, hi) and
    none at the ends, so u vanishes there iff gcd(u, r.p) has a root in
    (lo, hi)."""
    if r.exact is not None:
        return u.eval(r.exact) == 0
    return open_count(poly_gcd(u, r.p), r.lo, r.hi) > 0


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
