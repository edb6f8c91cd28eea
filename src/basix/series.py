"""Truncated power series in t with polynomial-in-z coefficients.

The infinitesimal z models the free parameter of arc families: signs are
evaluated for arbitrarily small z > 0, i.e. by the lowest-degree nonzero
z-term of a coefficient.  t is the running parameter of an arc and dominates
z in the ordering (z is a small but fixed constant while t tends to 0), so a
series sign is decided by its lowest nonzero t-coefficient.

Each coefficient of a `TSeries` is a `UniPoly` in z.  The hot kernel,
`compose_bipoly`, does not run on them: it takes each series once to integer
rows (per t-exponent, the integer z-coefficients) over the series' least
common denominator, runs homogenised Horner on those rows with the
truncation rules of `TSeries.__mul__` and `TSeries.__add__`, and builds one
`Fraction` per output coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _igcd

from .unipoly import UniPoly

F = Fraction

_ZZERO = UniPoly()


@dataclass(frozen=True)
class TSeries:
    """sum(coeff[e] * t^e) known exactly for exponents < trunc.

    trunc is None for exact polynomials (no truncation error at all).
    """

    coeff: tuple[tuple[int, UniPoly], ...]  # sorted by exponent, nonzero
    trunc: int | None = None

    @staticmethod
    def make(terms: dict[int, UniPoly], trunc: int | None = None) -> "TSeries":
        items = []
        for e in sorted(terms):
            v = terms[e]
            if v and (trunc is None or e < trunc):
                items.append((e, v))
        return TSeries(tuple(items), trunc)

    @staticmethod
    def zero(trunc: int | None = None) -> "TSeries":
        return TSeries((), trunc)

    @staticmethod
    def const(v: Fraction | int, trunc: int | None = None) -> "TSeries":
        return TSeries.make({0: UniPoly.const(v)}, trunc)

    def is_zero(self) -> bool:
        return not self.coeff

    def ord(self) -> int | None:
        """Order of the lowest certain term (None when no term is known)."""
        return self.coeff[0][0] if self.coeff else None

    def leading(self) -> tuple[int, UniPoly] | None:
        return self.coeff[0] if self.coeff else None

    def _trunc_of(self, other: "TSeries") -> int | None:
        if self.trunc is None:
            return other.trunc
        if other.trunc is None:
            return self.trunc
        return min(self.trunc, other.trunc)

    def __add__(self, o: "TSeries") -> "TSeries":
        t = self._trunc_of(o)
        d = dict(self.coeff)
        for e, v in o.coeff:
            d[e] = d.get(e, _ZZERO) + v
        return TSeries.make(d, t)

    def __neg__(self) -> "TSeries":
        return TSeries(tuple((e, -v) for e, v in self.coeff), self.trunc)

    def __sub__(self, o: "TSeries") -> "TSeries":
        return self + (-o)

    def __mul__(self, o: "TSeries") -> "TSeries":
        # truncation of a product: error terms start at the smallest
        # (trunc_a + ord_b, trunc_b + ord_a)
        t: int | None = None
        cands = []
        if self.trunc is not None:
            cands.append(self.trunc + (o.ord() or 0))
        if o.trunc is not None:
            cands.append(o.trunc + (self.ord() or 0))
        if cands:
            t = min(cands)
        d: dict[int, UniPoly] = {}
        for e1, v1 in self.coeff:
            for e2, v2 in o.coeff:
                e = e1 + e2
                if t is not None and e >= t:
                    continue
                d[e] = d.get(e, _ZZERO) + v1 * v2
        return TSeries.make(d, t)

    def negate_t(self) -> "TSeries":
        """Substitute t -> -t."""
        return TSeries(
            tuple((e, v if e % 2 == 0 else -v) for e, v in self.coeff), self.trunc
        )

    def eval_z(self, z0: Fraction) -> "TSeries":
        d = {e: UniPoly.const(v.eval(z0)) for e, v in self.coeff}
        return TSeries.make(d, self.trunc)

    def eval_t(self, t0: Fraction) -> UniPoly:
        acc = _ZZERO
        for e, v in self.coeff:
            acc = acc + v.scale(t0**e)
        return acc

    def sign_small_pos_t(self) -> int | None:
        """Sign for small t > 0, then small z > 0: the lowest nonzero
        z-coefficient of the lowest certain term decides.  None when the
        series has no certain term but is truncated (unresolved); 0 when it
        is exactly the zero polynomial."""
        if self.coeff:
            return next(1 if v > 0 else -1 for v in self.coeff[0][1].c if v)
        return 0 if self.trunc is None else None

    def max_exp(self) -> int:
        return self.coeff[-1][0] if self.coeff else 0


def compose_bipoly(p, xs: TSeries, ys: TSeries) -> TSeries:
    """p(xs(t), ys(t)) for a BiPoly p, by Horner in y then x.

    The steps are those of ``acc = acc * ys + (... (cx * xs + v) ...)`` on
    `TSeries`, run on integer rows: with ``xs = X / dx``, ``ys = Y / dy`` and
    ``L * p`` integral, every intermediate is a nonzero integer multiple of
    the rational one, so orders, truncations and the zero pattern agree, and
    the result is the final rows over ``L * dx^n * dy^m``.
    """
    rows, l = p.int_y_rows()
    if not rows:
        return TSeries.zero(None)
    X, dx = _int_terms(xs)
    Y, dy = _int_terms(ys)
    tx, ty = xs.trunc, ys.trunc
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
    den = l * dxp[n] * dy**m
    return TSeries(tuple((e, UniPoly([F(v, den) for v in zr])) for e, zr in acc), at)


def _int_terms(s: TSeries) -> tuple[list[tuple[int, list[int]]], int]:
    """(terms, d): s = terms / d, each term an exponent and the integer
    z-coefficients of its coefficient, d the least common denominator."""
    d = 1
    for _e, v in s.coeff:
        for c in v.c:
            d = d * c.denominator // _igcd(d, c.denominator)
    return [(e, [c.numerator * (d // c.denominator) for c in v.c]) for e, v in s.coeff], d


def _mul_terms(a, ta, b, tb):
    """Integer-row `TSeries.__mul__`: the product of (a, ta) and (b, tb)."""
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
    power series.
    """
    l = den.leading()
    if l is None:
        raise ZeroDivisionError("series division by zero")
    e0, c0 = l
    if len(c0.c) != 1:
        raise ValueError("series_div_unit: leading coefficient must be z-free")
    if not num.is_zero() and num.ord() < e0:  # type: ignore[operator]
        raise ValueError("series_div_unit: quotient would have a pole")
    lead = c0.c[0]
    cur = dict(num.coeff)
    den_terms = dict(den.coeff)
    out: dict[int, UniPoly] = {}
    for e in range(0, upto):
        c = cur.get(e + e0, _ZZERO)
        q = c.scale(F(1) / lead)
        if q:
            out[e] = q
            for de, dv in den_terms.items():
                tgt = e + de
                cur[tgt] = cur.get(tgt, _ZZERO) - q * dv
    t = upto
    if num.trunc is not None:
        t = min(t, num.trunc - e0)
    if den.trunc is not None:
        t = min(t, den.trunc - e0)
    return TSeries.make(out, t)
