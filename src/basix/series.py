"""Truncated power series in t with polynomial-in-z coefficients.

The infinitesimal z models the free parameter of arc families: signs are
evaluated for arbitrarily small z > 0, i.e. by the lowest-degree nonzero
z-term of a coefficient.  t is the running parameter of an arc and dominates
z in the ordering (z is a small but fixed constant while t tends to 0), so a
series sign is decided by its lowest nonzero t-coefficient.

A `TSeries` holds integer z-rows over one positive denominator: each term
pairs an exponent e with the integer coefficients of a polynomial R_e(z)
(low degree first, no trailing zeros, never all zero), and the series is
sum(R_e(z) * t^e) / den.  It is canonical: den > 0 and the gcd of den and
every entry is 1 (den is 1 for a zero series), so two series are equal
exactly when their values and truncations are.  `make` is the one way in
from rational coefficients.  All arithmetic runs on the rows: `_mul_terms`
and `_add_terms` are `*` and `+` over one scale, `_collect` drops what the
truncation and the cancellations leave, and `TSeries._of` divides out the
gcd.  `compose_bipoly` runs homogenised Horner on the rows with those two,
and `series_div_unit` divides as `puiseux._hensel` does, by powers of the
divisor's leading integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _igcd, lcm
from typing import Sequence

from .unipoly import homogeneous_horner

F = Fraction

# sorted by exponent; each row trimmed and nonzero
Terms = tuple[tuple[int, list[int]], ...]


@dataclass(frozen=True)
class TSeries:
    """sum(R_e(z) * t^e) / den known exactly for exponents < trunc.

    trunc is None for exact polynomials (no truncation error at all).
    """

    terms: Terms
    den: int = 1
    trunc: int | None = None

    @staticmethod
    def _of(terms, den: int, trunc: int | None) -> "TSeries":
        """The canonical series of integer rows over den != 0: the sign of
        den and the gcd of den and every entry divided out."""
        if not terms:
            return TSeries((), 1, trunc)
        g = den
        for _e, r in terms:
            g = _igcd(g, *r)
            if g == 1:
                break
        if den < 0:
            g = -g
        if g != 1:
            terms = [(e, [v // g for v in r]) for e, r in terms]
            den //= g
        return TSeries(tuple(terms), den, trunc)

    @staticmethod
    def make(terms: dict[int, Sequence[Fraction | int]], trunc: int | None = None) -> "TSeries":
        """The series with the rational z-coefficients ``terms[e]`` (low
        degree first) at t^e, exponents at or above trunc dropped."""
        d = lcm(*(v.denominator for zc in terms.values() for v in zc))
        rows = {e: [v.numerator * (d // v.denominator) for v in zc] for e, zc in terms.items()}
        return TSeries._of(_collect(rows, trunc), d, trunc)

    @staticmethod
    def zero(trunc: int | None = None) -> "TSeries":
        return TSeries((), 1, trunc)

    @staticmethod
    def const(v: Fraction | int, trunc: int | None = None) -> "TSeries":
        return TSeries.make({0: [v]}, trunc)

    def ord(self) -> int | None:
        """Order of the lowest certain term (None when no term is known)."""
        return self.terms[0][0] if self.terms else None

    def __add__(self, o: "TSeries") -> "TSeries":
        a, b, den = self.terms, o.terms, self.den
        if den != o.den:
            g = _igcd(den, o.den)
            a, b = _scaled(a, o.den // g), _scaled(b, den // g)
            den = den // g * o.den
        terms, t = _add_terms(a, self.trunc, b, o.trunc)
        return TSeries._of(terms, den, t)

    def __neg__(self) -> "TSeries":
        return TSeries(tuple(_scaled(self.terms, -1)), self.den, self.trunc)

    def __sub__(self, o: "TSeries") -> "TSeries":
        return self + (-o)

    def __mul__(self, o: "TSeries") -> "TSeries":
        terms, t = _mul_terms(self.terms, self.trunc, o.terms, o.trunc)
        return TSeries._of(terms, self.den * o.den, t)

    def negate_t(self) -> "TSeries":
        """Substitute t -> -t."""
        terms = tuple((e, [-v for v in r] if e & 1 else r) for e, r in self.terms)
        return TSeries(terms, self.den, self.trunc)

    def eval_z(self, z0: Fraction) -> "TSeries":
        """The series at z = z0: every row a constant."""
        a, b = z0.numerator, z0.denominator
        n = max((len(r) for _e, r in self.terms), default=1) - 1
        terms = []
        for e, r in self.terms:
            v = homogeneous_horner(r, a, b)[0]
            if v:
                terms.append((e, [v * b ** (n - len(r) + 1)]))
        return TSeries._of(terms, self.den * b**n, self.trunc)

    def eval_t(self, t0: Fraction) -> Fraction:
        """The value at t = t0 of a series free of z."""
        if not self.terms:
            return F(0)
        dense = [0] * (self.terms[-1][0] + 1)
        for e, r in self.terms:
            if len(r) > 1:
                raise ValueError("eval_t: the series depends on z")
            dense[e] = r[0]
        v, bd = homogeneous_horner(dense, t0.numerator, t0.denominator)
        return F(v, self.den * bd)

    def sign_small_pos_t(self) -> int | None:
        """Sign for small t > 0, then small z > 0: the lowest nonzero
        z-coefficient of the lowest certain term decides.  None when the
        series has no certain term but is truncated (unresolved); 0 when it
        is exactly the zero polynomial."""
        if self.terms:
            return next(1 if v > 0 else -1 for v in self.terms[0][1] if v)
        return 0 if self.trunc is None else None

    def max_exp(self) -> int:
        return self.terms[-1][0] if self.terms else 0


def _scaled(terms, k: int) -> list[tuple[int, list[int]]]:
    return [(e, [k * v for v in r]) for e, r in terms]


def compose_bipoly(p, xs: TSeries, ys: TSeries) -> TSeries:
    """p(xs(t), ys(t)) for a BiPoly p, by Horner in y then x.

    The steps are those of ``acc = acc * ys + (... (cx * xs + v) ...)`` on
    `TSeries`, run on the integer rows: with ``xs = X / dx``, ``ys = Y / dy``
    and ``L * p`` integral, every intermediate is a nonzero integer multiple
    of the rational one, so orders, truncations and the zero pattern agree,
    and the result is the final rows over ``L * dx^n * dy^m``.
    """
    rows, l = p.int_y_rows()
    if not rows:
        return TSeries.zero(None)
    X, dx, tx = xs.terms, xs.den, xs.trunc
    Y, dy, ty = ys.terms, ys.den, ys.trunc
    m = len(rows) - 1
    n = max(len(r) for r in rows) - 1
    dxp = [dx**k for k in range(n + 1)]
    acc: list[tuple[int, list[int]]] = []
    at: int | None = None
    for j in range(m, -1, -1):
        row = rows[j]
        cx: list[tuple[int, list[int]]] = []
        ct: int | None = None
        ky = dy ** (m - j)
        for i in range(len(row) - 1, -1, -1):
            cx, ct = _mul_terms(cx, ct, X, tx)
            if row[i]:
                cx, ct = _add_terms(cx, ct, [(0, [row[i] * ky * dxp[n - i]])], None)
        acc, at = _mul_terms(acc, at, Y, ty)
        acc, at = _add_terms(acc, at, cx, ct)
    return TSeries._of(acc, l * dxp[n] * dy**m, at)


def _mul_terms(a, ta, b, tb):
    """Integer-row `TSeries.__mul__`: the product of (a, ta) and (b, tb).
    Error terms of a product start at the smaller of trunc_a + ord_b and
    trunc_b + ord_a."""
    t: int | None = None
    if ta is not None:
        t = ta + (b[0][0] if b else 0)
    if tb is not None:
        u = tb + (a[0][0] if a else 0)
        if t is None or u < t:
            t = u
    d: dict[int, list[int]] = {}
    for e1, v1 in a:
        for e2, v2 in b:
            e = e1 + e2
            if t is not None and e >= t:
                break  # b is sorted by exponent
            acc = d.get(e)
            if acc is None:
                d[e] = acc = [0] * (len(v1) + len(v2) - 1)
            elif len(acc) < len(v1) + len(v2) - 1:
                acc.extend([0] * (len(v1) + len(v2) - 1 - len(acc)))
            for i, u in enumerate(v1):
                for k, w in enumerate(v2):
                    acc[i + k] += u * w
    return _collect(d, t), t


def _add_terms(a, ta, b, tb):
    """Integer-row `TSeries.__add__` of two series over the same scale."""
    t = tb if ta is None else ta if tb is None else min(ta, tb)
    d = dict(a)
    for e, v in b:
        w = d.get(e)
        if w is None:
            d[e] = v
        else:
            if len(w) < len(v):
                w, v = v, w
            w = list(w)
            for i, x in enumerate(v):
                w[i] += x
            d[e] = w
    return _collect(d, t), t


def _collect(d: dict[int, list[int]], t: int | None) -> list[tuple[int, list[int]]]:
    """Sorted nonzero terms below t, each z-row trimmed.  Rows shared with
    an operand are trimmed already, so only rows built here are shortened."""
    out = []
    for e in sorted(d):
        if t is not None and e >= t:
            break
        v = d[e]
        while v and not v[-1]:
            v.pop()
        if v:
            out.append((e, v))
    return out


def series_div_unit(num: TSeries, den: TSeries, upto: int) -> TSeries:
    """num / den as a power series up to t^upto.

    den's leading coefficient must be z-free (a rational unit after shifting)
    and num's order must not be below den's, so the quotient is a genuine
    power series.  With num = N / a, den = M / b and c the integer leading
    coefficient of M at t^e0, the quotient's coefficient at t^e is
    (b / a) * Q_e / c^(e+1) for the integer rows
    Q_e = c^e * N_(e+e0) - sum_(k>=1) M_(e0+k) * Q_(e-k) * c^(k-1).
    """
    if not den.terms:
        raise ZeroDivisionError("series division by zero")
    e0, c0 = den.terms[0]
    if len(c0) != 1:
        raise ValueError("series_div_unit: leading coefficient must be z-free")
    if num.terms and num.terms[0][0] < e0:
        raise ValueError("series_div_unit: quotient would have a pole")
    t = upto
    if num.trunc is not None:
        t = min(t, num.trunc - e0)
    if den.trunc is not None:
        t = min(t, den.trunc - e0)
    c = c0[0]
    n = max(t, 0)
    cpow = [c**k for k in range(n + 1)]
    N = dict(num.terms)
    tail = [(e - e0, r) for e, r in den.terms[1:]]
    Q: list[list[int]] = []
    for e in range(n):
        acc = [v * cpow[e] for v in N.get(e + e0, ())]
        for k, r in tail:
            if k > e:
                break
            q = Q[e - k]
            if q:
                if len(acc) < len(r) + len(q) - 1:
                    acc.extend([0] * (len(r) + len(q) - 1 - len(acc)))
                s = cpow[k - 1]
                for i, u in enumerate(r):
                    for j, w in enumerate(q):
                        acc[i + j] -= s * u * w
        while acc and not acc[-1]:
            acc.pop()
        Q.append(acc)
    terms = [(e, [v * den.den * cpow[n - 1 - e] for v in q]) for e, q in enumerate(Q) if q]
    return TSeries._of(terms, num.den * cpow[n], t)
