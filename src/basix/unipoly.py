"""Dense univariate polynomials over the rationals.

Coefficients are `fractions.Fraction`; arithmetic is exact everywhere.  The
gcd / squarefree machinery runs on primitive integer coefficient lists: the
pseudo-remainder, the gcd and the exact quotient of `squarefree_part` are
pure integer, which keeps intermediate growth under control, and the monic
rational result is built once at the end.

A `UniPoly` is never mutated after construction, so its integer form, the
coefficients times their common denominator, is computed once on first use
and cached.  Evaluation at a rational ``num/den`` runs homogenised integer
Horner on that form and builds a single `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd
from typing import Iterable, Sequence

from .errors import InternalError, ZeroPolynomial

Frac = Fraction


class UniPoly:
    """p(x) = sum(c[i] * x**i); c has no trailing zeros."""

    __slots__ = ("c", "_ic")

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [v if type(v) is Fraction else Fraction(v) for v in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.c: tuple[Fraction, ...] = tuple(cs)
        self._ic: tuple[list[int], int] | None = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly()

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly([1])

    @staticmethod
    def x() -> "UniPoly":
        return UniPoly([0, 1])

    @staticmethod
    def const(v: Fraction | int) -> "UniPoly":
        return UniPoly([Fraction(v)])

    @staticmethod
    def from_roots(roots: Sequence[Fraction | int]) -> "UniPoly":
        p = UniPoly.one()
        for r in roots:
            p = p * UniPoly([-Fraction(r), 1])
        return p

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.c) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.c

    def lc(self) -> Fraction:
        if not self.c:
            raise ZeroPolynomial("leading coefficient of 0")
        return self.c[-1]

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UniPoly) and self.c == other.c

    def __hash__(self) -> int:
        return hash(self.c)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return UniPoly(out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-v for v in self.c])

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not self.c or not other.c:
            return UniPoly()
        out = [Fraction(0)] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    if b:
                        out[i + j] += a * b
        return UniPoly(out)

    def scale(self, k: Fraction | int) -> "UniPoly":
        k = Fraction(k)
        return UniPoly([v * k for v in self.c])

    def __pow__(self, n: int) -> "UniPoly":
        r = UniPoly.one()
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def divmod(self, d: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, len(self.c) - len(d.c) + 1)
        r = list(self.c)
        dlc = d.lc()
        dd = d.degree
        while len(r) - 1 >= dd and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < dd:
                break
            k = len(r) - 1 - dd
            f = r[-1] / dlc
            q[k] = f
            for i, v in enumerate(d.c):
                r[k + i] -= f * v
            r.pop()
        return UniPoly(q), UniPoly(r)

    def __floordiv__(self, d: "UniPoly") -> "UniPoly":
        return self.divmod(d)[0]

    def __mod__(self, d: "UniPoly") -> "UniPoly":
        return self.divmod(d)[1]

    def exact_div(self, d: "UniPoly") -> "UniPoly":
        q, r = self.divmod(d)
        if not r.is_zero():
            raise ValueError("exact_div: division not exact")
        return q

    def derivative(self) -> "UniPoly":
        return UniPoly([self.c[i] * i for i in range(1, len(self.c))])

    def _int_form(self) -> tuple[list[int], int]:
        """(ints, l) with p = sum(ints[i] x**i) / l, l the least common
        denominator of the coefficients; cached."""
        if self._ic is None:
            l = 1
            for v in self.c:
                l = l * v.denominator // _igcd(l, v.denominator)
            self._ic = ([v.numerator * (l // v.denominator) for v in self.c], l)
        return self._ic

    def eval(self, x: Fraction | int) -> Fraction:
        if not self.c:
            return Fraction(0)
        ints, l = self._int_form()
        acc, dn = homogeneous_horner(ints, x.numerator, x.denominator)
        return Fraction(acc, l * dn)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(1 / self.lc())

    # -- integer normal form --------------------------------------------------

    def int_primitive(self) -> list[int]:
        """Primitive integer coefficient list (positive leading coefficient)."""
        # a new list even when the content is 1: the cached form must not be aliased
        return _ilist_primitive(self._int_form()[0])

    # -- display --------------------------------------------------------------

    def __repr__(self) -> str:
        if not self.c:
            return "UniPoly(0)"
        parts = []
        for i in range(len(self.c) - 1, -1, -1):
            v = self.c[i]
            if v == 0:
                continue
            if i == 0:
                parts.append(str(v))
            elif i == 1:
                parts.append(f"{v}*x" if abs(v) != 1 else ("x" if v > 0 else "-x"))
            else:
                parts.append(f"{v}*x^{i}" if abs(v) != 1 else (f"x^{i}" if v > 0 else f"-x^{i}"))
        s = " + ".join(parts).replace("+ -", "- ")
        return f"UniPoly({s})"


# -- integer-list helpers (fast paths) ----------------------------------------


def homogeneous_horner(c: list[int], num: int, den: int) -> tuple[int, int]:
    """(sum c_i num^i den^(n-i), den^n) for a nonempty integer coefficient
    list c of degree n; the first value over the second is p(num/den)."""
    acc = c[-1]
    dn = 1
    for i in range(len(c) - 2, -1, -1):
        dn *= den
        acc = acc * num + c[i] * dn
    return acc, dn


def _ilist_rem(a: list[int], b: list[int]) -> list[int]:
    """A positive integer multiple of the remainder of a by b over Q, for
    trimmed integer coefficient lists (trimmed, not made primitive).

    Each step cancels the leading term of r with a multiple of b, scaling r
    by ``blc / gcd(blc, lead)`` instead of blc; a negative scale flips the
    sign, which is undone at the end, so Sturm sequences can be built on it.
    """
    r = list(a)
    d = len(b) - 1
    blc = b[-1]
    neg = False
    while len(r) - 1 >= d:
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < d:
            break
        k = len(r) - 1 - d
        g = _igcd(blc, r[-1])
        s, f = blc // g, r[-1] // g
        if s != 1:
            r = [v * s for v in r]
            neg ^= s < 0
        for i, v in enumerate(b):
            r[k + i] -= f * v
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return [-v for v in r] if neg else r


def _ilist_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Primitive remainder of a by b, integer coefficient lists: `_ilist_rem`
    normalised like ``UniPoly.int_primitive`` (content 1, positive leading
    coefficient)."""
    return _ilist_primitive(_ilist_rem(a, b))


def _ilist_primitive(r: list[int]) -> list[int]:
    """r without its trailing zeros, over its content, with a positive
    leading coefficient."""
    if r and not r[-1]:
        n = len(r) - 1
        while n and not r[n - 1]:
            n -= 1
        r = r[:n]
    if not r:
        return []
    g = 0
    for v in r:
        g = _igcd(g, v)
    if r[-1] < 0:
        g = -g
    return [v // g for v in r]


def _ilist_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two primitive integer lists; [] when both are 0."""
    while b:
        a, b = b, _ilist_pseudo_rem(a, b)
    return a


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic greatest common divisor; poly_gcd(a, 0) = monic(a)."""
    g = _ilist_gcd(a.int_primitive(), b.int_primitive())
    return UniPoly(g).monic() if g else UniPoly.zero()


def _ilist_derivative(a: list[int]) -> list[int]:
    return [i * v for i, v in enumerate(a)][1:]


def _ilist_squarefree(a: list[int]) -> list[int]:
    """The squarefree part of a nonempty primitive integer list a, as a
    primitive list with a's leading sign: ``a / gcd(a, a')``, an integer
    list by Gauss's lemma (the gcd is primitive)."""
    g = _ilist_gcd(a, _ilist_primitive(_ilist_derivative(a)))
    return _ilist_exact_div(a, g) if len(g) > 1 else a


def squarefree_part(p: UniPoly) -> UniPoly:
    """Monic product of the distinct irreducible factors of p: the primitive
    `_ilist_squarefree` of p's integer form, with a positive leading
    coefficient ``lc``, over ``lc``; that list is its integer form."""
    if p.is_zero():
        raise ZeroPolynomial("squarefree_part(0)")
    if p.degree == 0:
        return UniPoly.one()
    q = _ilist_squarefree(p.int_primitive())
    lc = q[-1]
    out = UniPoly([Fraction(v, lc) for v in q])
    out._ic = (q, lc)
    return out


def _ilist_exact_div(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer lists where b divides a in Z[x]."""
    r = list(a)
    blc = b[-1]
    d = len(b) - 1
    q = [0] * (len(a) - d)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + d], blc)
        if rem:
            raise InternalError("inexact integer polynomial division")
        q[k] = c
        if c:
            for i, v in enumerate(b):
                r[k + i] -= c * v
    if any(r[:d]):
        raise InternalError("inexact integer polynomial division")
    return q


def sylvester_resultant(a: UniPoly, b: UniPoly) -> Fraction:
    """Resultant of two univariate polynomials via Bareiss elimination."""
    m, n = a.degree, b.degree
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0:
        return a.c[0] ** n
    if n == 0:
        return b.c[0] ** m
    size = m + n
    rows: list[list[Fraction]] = []
    ra = list(reversed(a.c))
    rb = list(reversed(b.c))
    for i in range(n):
        rows.append([Fraction(0)] * i + ra + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + rb + [Fraction(0)] * (size - n - 1 - i))
    # fraction-free Gaussian elimination
    sign = 1
    prev = Fraction(1)
    for k in range(size - 1):
        if rows[k][k] == 0:
            for j in range(k + 1, size):
                if rows[j][k] != 0:
                    rows[k], rows[j] = rows[j], rows[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) / prev
            rows[i][k] = Fraction(0)
        prev = rows[k][k]
    return sign * rows[size - 1][size - 1]
