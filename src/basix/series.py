"""Truncated power series in t with polynomial-in-z coefficients.

The infinitesimal z models the free parameter of arc families: signs are
evaluated for arbitrarily small z > 0, i.e. by the lowest-degree nonzero
z-term of a coefficient.  t is the running parameter of an arc and dominates
z in the ordering (z is a small but fixed constant while t tends to 0), so a
series sign is decided by its lowest nonzero t-coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

F = Fraction


class ZPoly:
    """Polynomial in z over Q (dense, trimmed)."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [v if type(v) is F else F(v) for v in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.c = tuple(cs)

    @staticmethod
    def const(v: Fraction | int) -> "ZPoly":
        return ZPoly([F(v)])

    @staticmethod
    def linear(a: Fraction | int, eta: int) -> "ZPoly":
        """a + eta*z."""
        return ZPoly([F(a), F(eta)])

    def is_zero(self) -> bool:
        return not self.c

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        return isinstance(other, ZPoly) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __add__(self, o: "ZPoly") -> "ZPoly":
        a, b = self.c, o.c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return ZPoly(out)

    def __neg__(self) -> "ZPoly":
        return ZPoly([-v for v in self.c])

    def __sub__(self, o: "ZPoly") -> "ZPoly":
        return self + (-o)

    def __mul__(self, o: "ZPoly") -> "ZPoly":
        if not self.c or not o.c:
            return ZPoly()
        out = [F(0)] * (len(self.c) + len(o.c) - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(o.c):
                    if b:
                        out[i + j] += a * b
        return ZPoly(out)

    def scale(self, k: Fraction | int) -> "ZPoly":
        k = F(k)
        return ZPoly([v * k for v in self.c])

    def sign_small_pos(self) -> int:
        """Sign for all sufficiently small z > 0 (lowest nonzero term)."""
        for v in self.c:
            if v != 0:
                return 1 if v > 0 else -1
        return 0

    def eval(self, z0: Fraction) -> Fraction:
        acc = F(0)
        for v in reversed(self.c):
            acc = acc * z0 + v
        return acc

    def __repr__(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for i, v in enumerate(self.c):
            if v == 0:
                continue
            if i == 0:
                parts.append(str(v))
            else:
                zs = "z" if i == 1 else f"z^{i}"
                parts.append(zs if v == 1 else f"-{zs}" if v == -1 else f"{v}*{zs}")
        return " + ".join(parts).replace("+ -", "- ")


_ZZERO = ZPoly()


@dataclass(frozen=True)
class TSeries:
    """sum(coeff[e] * t^e) known exactly for exponents < trunc.

    trunc is None for exact polynomials (no truncation error at all).
    """

    coeff: tuple[tuple[int, ZPoly], ...]  # sorted by exponent, nonzero
    trunc: int | None = None

    @staticmethod
    def make(terms: dict[int, ZPoly], trunc: int | None = None) -> "TSeries":
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
        return TSeries.make({0: ZPoly.const(v)}, trunc)

    def is_zero(self) -> bool:
        return not self.coeff

    def ord(self) -> int | None:
        """Order of the lowest certain term (None when no term is known)."""
        return self.coeff[0][0] if self.coeff else None

    def leading(self) -> tuple[int, ZPoly] | None:
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
        d: dict[int, ZPoly] = {}
        for e1, v1 in self.coeff:
            for e2, v2 in o.coeff:
                e = e1 + e2
                if t is not None and e >= t:
                    continue
                d[e] = d.get(e, _ZZERO) + v1 * v2
        return TSeries.make(d, t)

    def scale(self, k: Fraction | int) -> "TSeries":
        return TSeries(tuple((e, v.scale(k)) for e, v in self.coeff), self.trunc)

    def __pow__(self, n: int) -> "TSeries":
        r = TSeries.const(1, None)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def negate_t(self) -> "TSeries":
        """Substitute t -> -t."""
        return TSeries(
            tuple((e, v if e % 2 == 0 else -v) for e, v in self.coeff), self.trunc
        )

    def eval_z(self, z0: Fraction) -> "TSeries":
        d = {e: ZPoly.const(v.eval(z0)) for e, v in self.coeff}
        return TSeries.make(d, self.trunc)

    def eval_t(self, t0: Fraction) -> ZPoly:
        acc = _ZZERO
        for e, v in self.coeff:
            acc = acc + v.scale(t0**e)
        return acc

    def sign_small_pos_t(self) -> int | None:
        """Sign for small t > 0 (then small z > 0): lowest certain term decides.
        None when the series has no certain term but is truncated (unresolved);
        0 when it is exactly the zero polynomial."""
        if self.coeff:
            return self.coeff[0][1].sign_small_pos()
        return 0 if self.trunc is None else None

    def max_exp(self) -> int:
        return self.coeff[-1][0] if self.coeff else 0

    def __repr__(self) -> str:
        if not self.coeff:
            body = "0"
        else:
            parts = []
            for e, v in self.coeff:
                vs = repr(v)
                if "+" in vs or "-" in vs[1:]:
                    vs = f"({vs})"
                parts.append(vs if e == 0 else f"{vs}*t^{e}")
            body = " + ".join(parts)
        tail = "" if self.trunc is None else f" + O(t^{self.trunc})"
        return f"TSeries({body}{tail})"


def compose_bipoly(p, xs: TSeries, ys: TSeries) -> TSeries:
    """p(xs(t), ys(t)) for a BiPoly p, by Horner in y then x."""
    acc = TSeries.zero(None)
    for ypoly in reversed(p.y_coeffs()):
        # evaluate the UniPoly-in-x coefficient at xs
        cx = TSeries.zero(None)
        for v in reversed(ypoly.c):
            cx = cx * xs + TSeries.const(v)
        acc = acc * ys + cx
    return acc


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
    out: dict[int, ZPoly] = {}
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
