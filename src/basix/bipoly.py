"""Sparse bivariate polynomials over the rationals.

The canonical text form uses variables x and y, ``^`` for powers and ``*`` for
products, e.g. ``y^2 - x^3``.  Resultants are Sylvester determinants over
Z[x], taken by one fraction-free Bareiss elimination: both polynomials are
scaled once to integer y-coefficient rows, and each entry, an integer
polynomial in x, is held as its value at x = 2^B, with 2^(B-1) above the
product of the rows' coefficient sums.  That product bounds the coefficient
sum of every minor, so the packing is injective on every entry the
elimination meets and commutes with its products and exact divisions; the
determinant's balanced base-2^B digits are the coefficients of the
resultant of the scaled polynomials.  No value is interpolated, and no
leading coefficient needs to stay nonzero.  `resultant` and
`discriminant_y` return those integer lists as they are: a positive
multiple of the resultant over Q, so its sign convention holds, and the
projection takes their primitive forms.

A `BiPoly` is never mutated after construction.  Its integer rows (the
coefficients times their least common denominator, built straight from the
terms) are the one coefficient format the algebra reads, so they are
computed once, on first use, and cached on the instance; ``int_y_rows``
hands out fresh lists so that no caller can alias the cache.  The hash is
cached next to them: it is taken once, from the rows and their common
denominator, which equal polynomials share.  ``eval`` and
``sign_at`` run one homogenised integer Horner over the integer rows:
``eval`` builds a single `Fraction` and ``sign_at`` none.  ``int_fibre``
specialises x the same way, one Horner per row, to an integer list in y.
``content_x`` is the primitive gcd of the rows, and ``quotient`` is long
division in y over Z[x] by the divisor's primitive rows.  ``translate`` is
a binomial Taylor shift on the integer rows, first in x and then in y, with
one `Fraction` per output coefficient.

Substitutions that only move terms are term maps, with no arithmetic on the
coefficients but a sign: ``monomial_subst`` takes x^i y^j to a monomial whose
exponents are an injective linear map of (i, j), as in the reflection
x -> -x and the blow-up charts (x, xy) and (xy, x), and ``swap_xy`` exchanges
the exponents.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd

from .errors import DegreeZero, InternalError
from .unipoly import _ilist_gcd, _ilist_primitive, _ilist_quotient, _ilist_squarefree

Term = tuple[int, int]  # (i, j) exponents of x^i y^j


class BiPoly:
    """Finite map (i, j) -> nonzero rational coefficient of x^i y^j."""

    __slots__ = ("t", "_ir", "_h")

    def __init__(self, terms: dict[Term, Fraction] | None = None):
        self.t: dict[Term, Fraction] = {}
        self._ir: tuple[list[list[int]], int, int] | None = None
        self._h: int | None = None
        if terms:
            for k, v in terms.items():
                v = Fraction(v)
                if v != 0:
                    self.t[k] = v

    @classmethod
    def _of(cls, t: dict[Term, Fraction]) -> "BiPoly":
        """The polynomial with the term map t, taken as it is: every value
        must already be a nonzero `Fraction`."""
        p = cls()
        p.t = t
        return p

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly()

    @staticmethod
    def const(v: Fraction | int) -> "BiPoly":
        return BiPoly({(0, 0): Fraction(v)})

    @staticmethod
    def x() -> "BiPoly":
        return BiPoly({(1, 0): Fraction(1)})

    @staticmethod
    def y() -> "BiPoly":
        return BiPoly({(0, 1): Fraction(1)})

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.t

    def __bool__(self) -> bool:
        return bool(self.t)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BiPoly) and self.t == other.t

    def __hash__(self) -> int:
        if self._h is None:
            rows, l, _n = self._int_rows()
            self._h = hash((l, *map(tuple, rows)))
        return self._h

    @property
    def total_degree(self) -> int:
        return max((i + j for i, j in self.t), default=-1)

    @property
    def deg_x(self) -> int:
        return max((i for i, _ in self.t), default=-1)

    @property
    def deg_y(self) -> int:
        return max((j for _, j in self.t), default=-1)

    def is_const(self) -> bool:
        return all(k == (0, 0) for k in self.t)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "BiPoly") -> "BiPoly":
        t = dict(self.t)
        for k, v in other.t.items():
            t[k] = t.get(k, Fraction(0)) + v
        return BiPoly(t)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        t = dict(self.t)
        for k, v in other.t.items():
            t[k] = t.get(k, Fraction(0)) - v
        return BiPoly(t)

    def __neg__(self) -> "BiPoly":
        return BiPoly({k: -v for k, v in self.t.items()})

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        t: dict[Term, Fraction] = {}
        for (i1, j1), v1 in self.t.items():
            for (i2, j2), v2 in other.t.items():
                k = (i1 + i2, j1 + j2)
                t[k] = t.get(k, Fraction(0)) + v1 * v2
        return BiPoly(t)

    def scale(self, k: Fraction | int) -> "BiPoly":
        k = Fraction(k)
        return BiPoly({key: v * k for key, v in self.t.items()})

    def __pow__(self, n: int) -> "BiPoly":
        r = BiPoly.const(1)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def partial_x(self) -> "BiPoly":
        return BiPoly._of({(i - 1, j): v * i for (i, j), v in self.t.items() if i > 0})

    def partial_y(self) -> "BiPoly":
        return BiPoly._of({(i, j - 1): v * j for (i, j), v in self.t.items() if j > 0})

    # -- evaluation / specialisation ------------------------------------------------

    def eval(self, x: Fraction | int, y: Fraction | int) -> Fraction:
        if not self.t:
            return Fraction(0)
        num, den = self._hom_eval(x, y)
        return Fraction(num, den)

    def sign_at(self, x: Fraction | int, y: Fraction | int) -> int:
        if not self.t:
            return 0
        num = self._hom_eval(x, y)[0]
        return (num > 0) - (num < 0)

    def _hom_eval(self, x: Fraction | int, y: Fraction | int) -> tuple[int, int]:
        """(num, den) with p(x, y) = num / den and den > 0, for p nonzero.

        With x = a/b, y = c/d and ``l * p`` integral, row j of the integer
        rows gives ``R_j = sum_i r_ji a^i b^(n-i)`` (n the x-degree) by Horner,
        and ``num = sum_j R_j c^j d^(m-j)`` by Horner over the rows, so
        ``den = l * b^n * d^m``."""
        rows, l, n = self._int_rows()
        a, b = x.numerator, x.denominator
        c, d = y.numerator, y.denominator
        bp = _powers(b, n)
        acc = 0
        dk = 1  # d^(m-j) at row j
        for r in reversed(rows):
            v = 0
            if b == 1:
                for ci in reversed(r):
                    v = v * a + ci
            else:
                for i in range(len(r) - 1, -1, -1):
                    v = v * a + r[i] * bp[n - i]
            acc = acc * c + v * dk
            dk *= d
        return acc, l * bp[n] * (dk // d)

    def int_y_rows(self) -> tuple[list[list[int]], int]:
        """(rows, l): rows[j] holds the integer coefficients in x of y^j in
        l * self, l the least common denominator of all coefficients."""
        rows, l, _n = self._int_rows()
        return [list(r) for r in rows], l

    def _int_rows(self) -> tuple[list[list[int]], int, int]:
        """The cached (rows, l) of ``int_y_rows`` and the x-degree; row j has
        no trailing zeros (an empty list for a zero row)."""
        if self._ir is None:
            l, n, m = 1, -1, -1
            for (i, j), v in self.t.items():
                dv = v.denominator
                if dv != 1:
                    l = l * dv // _igcd(l, dv)
                if i > n:
                    n = i
                if j > m:
                    m = j
            rows: list[list[int]] = [[] for _ in range(m + 1)]
            for (i, j), v in self.t.items():
                r = rows[j]
                if len(r) <= i:
                    r.extend([0] * (i + 1 - len(r)))
                r[i] = v.numerator * (l // v.denominator)
            self._ir = (rows, l, n)
        return self._ir

    def int_fibre(self, x0: Fraction | int) -> list[int]:
        """l * b^n * p(a/b, y) for x0 = a/b, as a trimmed integer coefficient
        list in y (l and n as in ``_int_rows``): one homogenised Horner per
        integer row.  l * b^n is positive, so every coefficient, the leading
        one included, has the sign of the coefficient of p(x0, y)."""
        rows, _l, n = self._int_rows()
        a, b = x0.numerator, x0.denominator
        out = []
        if b == 1:
            for r in rows:
                v = 0
                for c in reversed(r):
                    v = v * a + c
                out.append(v)
        else:
            bp = _powers(b, n)
            for r in rows:
                v = 0
                for i in range(len(r) - 1, -1, -1):
                    v = v * a + r[i] * bp[n - i]
                out.append(v)
        while out and out[-1] == 0:
            out.pop()
        return out

    def swap_xy(self) -> "BiPoly":
        return BiPoly._of({(j, i): v for (i, j), v in self.t.items()})

    def translate(self, a: Fraction | int, b: Fraction | int) -> "BiPoly":
        """p(x + a, y + b): a binomial Taylor shift (`_taylor_shift`) of each
        integer row in x and then of each column in y, with one `Fraction`
        per output coefficient, over ``l * ad^(n-u) * bd^(m-w)`` for the
        coefficient of x^u y^w (a = an/ad, b = bn/bd, n and m the x- and
        y-degrees)."""
        an, ad = a.numerator, a.denominator
        bn, bd = b.numerator, b.denominator
        if not self.t or (an == 0 and bn == 0):
            return self
        rows, l, n = self._int_rows()
        m = len(rows) - 1
        adp, bdp = _powers(ad, n), _powers(bd, m)
        if an:
            rows = [_taylor_shift(r, an, adp) for r in rows]
        cols = [[r[u] if u < len(r) else 0 for r in rows] for u in range(n + 1)]
        if bn:
            cols = [_taylor_shift(c, bn, bdp) for c in cols]
        return BiPoly._of(
            {(u, w): Fraction(v, l * adp[n - u] * bdp[m - w]) for u, c in enumerate(cols) for w, v in enumerate(c) if v}
        )

    def monomial_subst(self, x_to: Term, y_to: Term, x_sign: int = 1) -> "BiPoly":
        """p(s * x^a y^b, x^c y^d) for x_to = (a, b), y_to = (c, d) and
        s = x_sign (+1 or -1): x^i y^j goes to s^i x^(a*i + c*j) y^(b*i + d*j).
        The exponent map must be injective (a*d != b*c), so that no two terms
        meet and this only moves terms."""
        (xa, xb), (yc, yd) = x_to, y_to
        if xa * yd == xb * yc:
            raise InternalError("monomial_subst: the exponent map is not injective")
        flip = x_sign < 0
        return BiPoly._of(
            {(xa * i + yc * j, xb * i + yd * j): -v if flip and i & 1 else v for (i, j), v in self.t.items()}
        )

    def interval_eval(
        self, xlo: Fraction, xhi: Fraction, ylo: Fraction, yhi: Fraction
    ) -> tuple[Fraction, Fraction]:
        """Sound enclosure of p over the box [xlo,xhi]x[ylo,yhi]."""
        lo = hi = Fraction(0)
        for (i, j), v in self.t.items():
            mlo, mhi = _pow_range(xlo, xhi, i)
            nlo, nhi = _pow_range(ylo, yhi, j)
            cands = [mlo * nlo, mlo * nhi, mhi * nlo, mhi * nhi]
            tlo, thi = min(cands), max(cands)
            if v > 0:
                lo += v * tlo
                hi += v * thi
            else:
                lo += v * thi
                hi += v * tlo
        return lo, hi

    # -- content / divisibility -------------------------------------------------------

    def content_x(self) -> list[int]:
        """The gcd in Q[x] of the coefficients of the powers of y, as the
        primitive gcd of the integer rows (positive leading coefficient);
        [1] when it is constant.  A nonzero constant row makes it [1] at
        once, with no gcd taken, and a single nonzero row takes none
        either."""
        rows = self._int_rows()[0]
        if any(len(r) == 1 for r in rows):
            return [1]
        g: list[int] = []
        for r in rows:
            if r:
                g = _ilist_gcd(g, _ilist_primitive(r)) if g else _ilist_primitive(r)
                if len(g) == 1:
                    return [1]
        return g or [1]

    def quotient(self, d: "BiPoly") -> "BiPoly | None":
        """self / d when d divides self in Q[x, y], else None.

        Long division in y over Z[x] of the integer rows P of self by the
        primitive integer rows D of d (their coefficients over their gcd).
        By Gauss's lemma a quotient P / D in Q[x, y] lies in Z[x, y], so d
        divides self exactly when every step divides a leading row by D's
        in Z[x] and the remainder is zero."""
        if not d.t:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self.t:
            return BiPoly()
        rows, l, _n = self._int_rows()
        drows, ld, _dn = d._int_rows()
        c = 0
        for r in drows:
            for v in r:
                c = _igcd(c, v)
        drows = [[v // c for v in r] for r in drows]
        m = len(drows) - 1
        rem = [list(r) for r in rows]
        quo: list[list[int]] = [[] for _ in range(len(rows) - m)]
        for k in range(len(quo) - 1, -1, -1):
            lead = rem[k + m]
            if not lead:
                continue
            q = _ilist_quotient(lead, drows[m])
            if q is None:
                return None
            quo[k] = q
            for j, dr in enumerate(drows):
                rem[k + j] = _sub_product(rem[k + j], q, dr)
        if any(rem[:m]):
            return None
        return BiPoly._of(
            {(i, j): Fraction(v * ld, l * c) for j, r in enumerate(quo) for i, v in enumerate(r) if v}
        )

    # -- display ---------------------------------------------------------------------

    def to_text(self) -> str:
        if not self.t:
            return "0"
        keys = sorted(self.t, key=lambda k: (-(k[1]), -(k[0])))
        parts: list[str] = []
        for idx, (i, j) in enumerate(keys):
            v = self.t[(i, j)]
            mono = []
            if i == 1:
                mono.append("x")
            elif i > 1:
                mono.append(f"x^{i}")
            if j == 1:
                mono.append("y")
            elif j > 1:
                mono.append(f"y^{j}")
            coeff = abs(v)
            if not mono:
                body = str(coeff)
            elif coeff == 1:
                body = "*".join(mono)
            else:
                body = "*".join([str(coeff)] + mono)
            if idx == 0:
                parts.append(body if v > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if v > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"BiPoly({self.to_text()})"


def _sub_product(a: list[int], q: list[int], b: list[int]) -> list[int]:
    """a - q * b for integer lists, trimmed."""
    out = a + [0] * (len(q) + len(b) - 1 - len(a))
    for i, u in enumerate(q):
        if u:
            for j, v in enumerate(b):
                out[i + j] -= u * v
    while out and not out[-1]:
        out.pop()
    return out


def _powers(b: int, n: int) -> list[int]:
    """[1, b, b^2, ..., b^n]."""
    out = [1] * (n + 1)
    for k in range(1, n + 1):
        out[k] = out[k - 1] * b
    return out


def _taylor_shift(c: list[int], s: int, dp: list[int]) -> list[int]:
    """The integer list g with ``sum_u g_u (d x)^u = d^n c(x + s/d)``, for
    an integer coefficient list c of length at most n + 1 and
    dp = [1, d, ..., d^n]: the coefficient of x^u in c(x + s/d) is
    ``g_u / d^(n-u)``.  With ``e_i = c_i d^(n-i)`` the left side is
    ``sum_i e_i (d x + s)^i``, and the synthetic shift of e by the integer s
    gives g."""
    n = len(dp) - 1
    g = [v * dp[n - i] for i, v in enumerate(c)]
    for i in range(len(g) - 1):
        for k in range(len(g) - 2, i - 1, -1):
            g[k] += s * g[k + 1]
    return g


def _pow_range(lo: Fraction, hi: Fraction, n: int) -> tuple[Fraction, Fraction]:
    if n == 0:
        return Fraction(1), Fraction(1)
    a, b = lo**n, hi**n
    if n % 2 == 0 and lo < 0 < hi:
        return Fraction(0), max(a, b)
    return min(a, b), max(a, b)


# -- resultants -------------------------------------------------------------------


def resultant(f: BiPoly, g: BiPoly, eliminate: str = "y") -> list[int]:
    """Sylvester resultant eliminating the given variable, as the integer
    list of Res(F, G) = lf^n * lg^m * Res(f, g): F = lf * f and G = lg * g
    have integer rows, lf and lg the positive least common denominators,
    and n, m the degrees of g and f in that variable.  The sign convention
    is the Sylvester determinant with f-rows first; [] when f and g share
    a factor that is not constant in that variable.  Raises DegreeZero if
    either argument is constant in that variable.
    """
    if eliminate == "x":
        return resultant(f.swap_xy(), g.swap_xy(), "y")
    m, n = f.deg_y, g.deg_y
    if m <= 0 or n <= 0:
        raise DegreeZero(f"resultant: y-degrees {m}, {n}")
    # the Sylvester matrix of F and G has n rows of F and m rows of G
    fr = f.int_y_rows()[0]
    gr = g.int_y_rows()[0]
    fr.reverse()
    gr.reverse()
    # p -> p(2^B) is injective on the polynomials with absolute coefficient
    # sums under 2^(B-1); every minor of the Sylvester matrix, each Bareiss
    # entry and the determinant included, has at most |F|_1^n * |G|_1^m
    nf, ng = (sum(abs(v) for r in rows for v in r) for rows in (fr, gr))
    B = (nf**n * ng**m).bit_length() + 1
    pf, pg = [_pack(r, B) for r in fr], [_pack(r, B) for r in gr]
    size = m + n
    rows = [[0] * i + pf + [0] * (size - m - 1 - i) for i in range(n)]
    rows += [[0] * i + pg + [0] * (size - n - 1 - i) for i in range(m)]
    return _unpack(_bareiss_det(rows), B)


def _pack(c: list[int], B: int) -> int:
    """The integer list c as the value of its polynomial at x = 2^B."""
    acc = 0
    for v in reversed(c):
        acc = (acc << B) + v
    return acc


def _unpack(v: int, B: int) -> list[int]:
    """The trimmed integer list whose value at 2^B is v, each coefficient
    taken as the balanced base-2^B digit, in [-2^(B-1), 2^(B-1))."""
    out = []
    half, mask = 1 << (B - 1), (1 << B) - 1
    while v:
        r = v & mask
        if r >= half:
            r -= 1 << B
        out.append(r)
        v = (v - r) >> B
    return out


def _bareiss_det(rows: list[list[int]]) -> int:
    """The determinant of a square integer matrix by fraction-free Bareiss
    elimination: after step k an entry below and right of the pivot is a
    minor of order k + 2 (Sylvester's identity), so ``a_ij a_kk - a_ik
    a_kj`` divides exactly by the previous pivot.  A zero pivot swaps in a
    lower row with a nonzero entry and flips the sign."""
    size = len(rows)
    sign, prev = 1, 1
    for k in range(size - 1):
        if not rows[k][k]:
            j = next((j for j in range(k + 1, size) if rows[j][k]), None)
            if j is None:
                return 0
            rows[k], rows[j] = rows[j], rows[k]
            sign = -sign
        rk = rows[k]
        pk = rk[k]
        for i in range(k + 1, size):
            ri = rows[i]
            lik = ri[k]
            for j in range(k + 1, size):
                q, r = divmod(ri[j] * pk - lik * rk[j], prev)
                if r:
                    raise InternalError("inexact Bareiss division")
                ri[j] = q
        prev = pk
    return sign * rows[-1][-1]


def discriminant_y(f: BiPoly) -> list[int]:
    """Res_y(f, df/dy) as `resultant` gives it, a positive multiple, or [1]
    when f is linear in y; vanishes at abscissae of vertical tangents,
    singular points and multiple y-roots (leading-coefficient zeros may
    appear too)."""
    fy = f.partial_y()
    if f.deg_y <= 0 or fy.deg_y < 0:
        raise DegreeZero("discriminant_y needs positive y-degree")
    if fy.deg_y == 0:
        # f linear in y: no y-critical structure
        return [1]
    return resultant(f, fy, "y")


# -- squarefree / coprime tests ---------------------------------------------------


def is_squarefree(f: BiPoly) -> bool:
    """Squarefree over Q[x, y]: the content in x (an x-only f's is f) is
    squarefree and, for y-degree 2 or more, discriminant_y(f) is nonzero."""
    c = f.content_x()
    return not f.is_zero() and len(_ilist_squarefree(c)) == len(c) and (f.deg_y < 2 or bool(discriminant_y(f)))


def are_coprime(f: BiPoly, g: BiPoly) -> bool:
    """No common nonconstant factor over Q[x, y]: the contents in x are
    coprime and, if both depend on y, the y-resultant is nonzero."""
    if f.is_zero() or g.is_zero() or len(_ilist_gcd(f.content_x(), g.content_x())) > 1:
        return False
    return f.deg_y < 1 or g.deg_y < 1 or bool(resultant(f, g, "y"))
