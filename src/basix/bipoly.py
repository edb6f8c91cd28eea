"""Sparse bivariate polynomials over the rationals.

The canonical text form uses variables x and y, ``^`` for powers and ``*`` for
products, e.g. ``y^2 - x^3``.  Resultants are Sylvester determinants, computed
entirely on integers: both polynomials are scaled once to integer
y-coefficient rows, the rows are specialised by integer Horner at the
consecutive integer abscissae ``lo .. lo + N - 1`` (N one more than the
x-degree bound), each specialised determinant is taken by fraction-free
Bareiss elimination, and the polynomial is recovered from the values by
forward differences in the binomial basis, accumulated over the common
factor ``(N - 1)!``.  Rationals are built only for the final coefficients.
Determinants commute with specialisation, so no leading-coefficient caveats
apply.

A `BiPoly` is never mutated after construction.  Its coefficient rows in y
(``y_coeffs``), its integer rows (the coefficients times their least common
denominator, built straight from the terms) and its x/y-swapped polynomial
(read by ``specialize_y``) are therefore computed once, on first use, and
cached on the instance; ``y_coeffs`` and ``int_y_rows`` hand out fresh lists
so that no caller can alias the cache.  ``eval`` and ``sign_at`` run one
homogenised integer Horner over the integer rows: ``eval`` builds a single
`Fraction` and ``sign_at`` none.  ``int_fibre`` specialises x the same way,
one Horner per row, to an integer list in y; ``specialize_x`` is that list
over its positive denominator.  ``translate`` is a binomial Taylor shift
on the integer rows, first in x and then in y, with one `Fraction` per output
coefficient.

Substitutions that only move terms are term maps, with no arithmetic on the
coefficients but a sign: ``monomial_subst`` takes x^i y^j to a monomial whose
exponents are an injective linear map of (i, j), as in the reflection
x -> -x and the blow-up charts (x, xy) and (xy, x), and ``swap_xy`` exchanges
the exponents.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd
from typing import Iterable, Iterator

from .errors import DegreeZero, InternalError, ZeroPolynomial
from .unipoly import UniPoly, homogeneous_horner, poly_gcd, squarefree_part

Frac = Fraction
Term = tuple[int, int]  # (i, j) exponents of x^i y^j


class BiPoly:
    """Finite map (i, j) -> nonzero rational coefficient of x^i y^j."""

    __slots__ = ("t", "_yc", "_ir", "_sw")

    def __init__(self, terms: dict[Term, Fraction] | None = None):
        self.t: dict[Term, Fraction] = {}
        self._yc: tuple[UniPoly, ...] | None = None
        self._ir: tuple[list[list[int]], int, int] | None = None
        self._sw: BiPoly | None = None
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

    @staticmethod
    def from_y_coeffs(coeffs: list[UniPoly]) -> "BiPoly":
        """coeffs[j] is the UniPoly-in-x coefficient of y^j."""
        t: dict[Term, Fraction] = {}
        for j, p in enumerate(coeffs):
            for i, v in enumerate(p.c):
                if v:
                    t[(i, j)] = v
        return BiPoly(t)

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.t

    def __bool__(self) -> bool:
        return bool(self.t)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BiPoly) and self.t == other.t

    def __hash__(self) -> int:
        return hash(frozenset(self.t.items()))

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
        return BiPoly({(i - 1, j): v * i for (i, j), v in self.t.items() if i > 0})

    def partial_y(self) -> "BiPoly":
        return BiPoly({(i, j - 1): v * j for (i, j), v in self.t.items() if j > 0})

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

    def y_coeffs(self) -> list[UniPoly]:
        """Coefficients as polynomials in x, indexed by y-power."""
        return list(self._y_rows())

    def int_y_rows(self) -> tuple[list[list[int]], int]:
        """(rows, l): rows[j] holds the integer coefficients in x of y^j in
        l * self, l the least common denominator of all coefficients."""
        rows, l, _n = self._int_rows()
        return [list(r) for r in rows], l

    def _int_rows(self) -> tuple[list[list[int]], int, int]:
        """The cached (rows, l) of ``int_y_rows`` and the x-degree; row j has
        no trailing zeros (an empty list for a zero row)."""
        if self._ir is None:
            l = 1
            for v in self.t.values():
                dv = v.denominator
                if dv != 1:
                    l = l * dv // _igcd(l, dv)
            rows: list[list[int]] = [[] for _ in range(self.deg_y + 1)]
            for (i, j), v in self.t.items():
                r = rows[j]
                if len(r) <= i:
                    r.extend([0] * (i + 1 - len(r)))
                r[i] = v.numerator * (l // v.denominator)
            self._ir = (rows, l, self.deg_x)
        return self._ir

    def _y_rows(self) -> tuple[UniPoly, ...]:
        if self._yc is None:
            self._yc = self._build_y_rows()
        return self._yc

    def _build_y_rows(self) -> tuple[UniPoly, ...]:
        if not self.t:
            return ()
        dy = self.deg_y
        rows: list[dict[int, Fraction]] = [dict() for _ in range(dy + 1)]
        for (i, j), v in self.t.items():
            rows[j][i] = v
        out = []
        for row in rows:
            if row:
                n = max(row)
                out.append(UniPoly([row.get(i, Fraction(0)) for i in range(n + 1)]))
            else:
                out.append(UniPoly.zero())
        return tuple(out)

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

    def specialize_x(self, x0: Fraction | int) -> UniPoly:
        """p(x0, y) as a univariate polynomial in y: `int_fibre` over l * b^n."""
        c = self.int_fibre(x0)
        if not c:
            return UniPoly()
        _rows, l, n = self._int_rows()
        den = l * x0.denominator**n
        return UniPoly([Fraction(v, den) for v in c])

    def specialize_y(self, y0: Fraction | int) -> UniPoly:
        """p(x, y0) as a univariate polynomial in x."""
        if self._sw is None:
            self._sw = self.swap_xy()
        return self._sw.specialize_x(y0)

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

    def content_x(self) -> UniPoly:
        """gcd over j of the UniPoly-in-x coefficients (monic).  A nonzero
        constant coefficient makes it 1 at once, with no gcd taken; the gcd
        starts from the first nonzero coefficient made monic, so a single
        one takes none either."""
        rows = self._y_rows()
        if any(p.degree == 0 for p in rows):
            return UniPoly.one()
        nonzero = [p for p in rows if p]
        if not nonzero:
            return UniPoly.one()
        g = nonzero[0].monic()
        for p in nonzero[1:]:
            g = poly_gcd(g, p)
            if g.degree == 0:
                return UniPoly.one()
        return g

    def divmod_y(self, d: "BiPoly") -> tuple["BiPoly", "BiPoly"] | None:
        """Division by d as polynomials in y over Q(x); returns None unless every
        coefficient division is exact in Q[x] (sufficient for our callers)."""
        dc = d.y_coeffs()
        if not dc:
            raise ZeroDivisionError
        rem = self
        quo = BiPoly.zero()
        dlc = dc[-1]
        ddeg = d.deg_y
        while not rem.is_zero() and rem.deg_y >= ddeg:
            rc = rem.y_coeffs()
            lead = rc[-1]
            q, r = lead.divmod(dlc)
            if not r.is_zero():
                return None
            shift = rem.deg_y - ddeg
            qterm = BiPoly({(i, shift): v for i, v in enumerate(q.c) if v})
            quo = quo + qterm
            rem = rem - qterm * d
            if not (rem.is_zero() or rem.deg_y < ddeg + shift):
                raise InternalError("divmod_y failed to reduce the y-degree")
        return quo, rem

    def divides(self, other: "BiPoly") -> bool:
        """Exact divisibility self | other over Q[x, y]: the division in y
        over Q(x) stays in Q[x][y] and leaves no remainder."""
        if self.is_zero():
            return other.is_zero()
        out = other.divmod_y(self)
        return out is not None and out[1].is_zero()

    def exact_div(self, d: "BiPoly") -> "BiPoly":
        if d.deg_y == 0:
            p = d.y_coeffs()[0]
            return BiPoly.from_y_coeffs([c.exact_div(p) for c in self.y_coeffs()])
        out = self.divmod_y(d)
        if out is None or not out[1].is_zero():
            raise ValueError("exact_div: not divisible")
        return out[0]

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


def resultant(f: BiPoly, g: BiPoly, eliminate: str = "y") -> UniPoly:
    """Sylvester resultant eliminating the given variable.

    Raises DegreeZero if either argument is constant in that variable.  The
    sign convention is the Sylvester determinant with f-rows first.
    """
    if eliminate == "x":
        return resultant(f.swap_xy(), g.swap_xy(), "y")
    m, n = f.deg_y, g.deg_y
    if m <= 0 or n <= 0:
        raise DegreeZero(f"resultant: y-degrees {m}, {n}")
    # F = lf*f and G = lg*g have integer rows; their Sylvester matrix has n
    # rows of F and m rows of G, so Res(f, g) = Res(F, G) / (lf^n * lg^m)
    fr, lf = f.int_y_rows()
    gr, lg = g.int_y_rows()
    fr.reverse()
    gr.reverse()
    # N = bound + 1 values determine Res_y in x; the first N nodes of
    # 0, 1, -1, 2, -2, ... are the consecutive integers lo .. lo + N - 1
    N = f.deg_x * n + g.deg_x * m + 1
    lo = -((N - 1) // 2)
    d = [_sylvester_det_fixed(_int_values(fr, x0), m, _int_values(gr, x0), n) for x0 in range(lo, lo + N)]
    # forward differences: d[j] becomes the j-th difference at lo
    for j in range(1, N):
        for i in range(N - 1, j - 1, -1):
            d[i] -= d[i - 1]
    # (N-1)! * P(x) = sum_j d[j] * (N-1)!/j! * prod_{i<j} (x - lo - i),
    # expanded by Horner from the top term; w runs through (N-1)!/j!
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
    return UniPoly([Fraction(c, denom) for c in acc])


def _int_values(rows: list[list[int]], x0: int) -> list[int]:
    """Each integer row evaluated at the integer x0."""
    return [homogeneous_horner(r, x0, 1)[0] if r else 0 for r in rows]


def _sylvester_det_fixed(ra: list[int], m: int, rb: list[int], n: int) -> int:
    """Determinant of the Sylvester matrix of shapes (m, n) with the integer
    coefficients ra (m + 1 of them) and rb (n + 1), leading first; vanished
    leading coefficients keep their zero entries.  Eliminated with the
    fraction-free Bareiss scheme."""
    size = m + n
    rows: list[list[int]] = []
    for i in range(n):
        rows.append([0] * i + ra + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + rb + [0] * (size - n - 1 - i))
    sign = 1
    prev = 1
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


def discriminant_y(f: BiPoly) -> UniPoly:
    """Res_y(f, df/dy); vanishes at abscissae of vertical tangents, singular
    points and multiple y-roots (leading-coefficient zeros may appear too)."""
    fy = f.partial_y()
    if f.deg_y <= 0 or fy.deg_y < 0:
        raise DegreeZero("discriminant_y needs positive y-degree")
    if fy.deg_y == 0:
        # f linear in y: no y-critical structure
        return UniPoly.one()
    return resultant(f, fy, "y")


# -- squarefree / coprime tests ---------------------------------------------------


def is_squarefree(f: BiPoly) -> bool:
    """Squarefree over Q[x, y]: the content in x (an x-only f's is f) is
    squarefree and, for y-degree 2 or more, discriminant_y(f) is nonzero."""
    c = f.content_x()
    return not f.is_zero() and squarefree_part(c).degree == c.degree and (f.deg_y < 2 or not discriminant_y(f).is_zero())


def are_coprime(f: BiPoly, g: BiPoly) -> bool:
    """No common nonconstant factor over Q[x, y]: the contents in x are
    coprime and, if both depend on y, the y-resultant is nonzero."""
    if f.is_zero() or g.is_zero() or poly_gcd(f.content_x(), g.content_x()).degree >= 1:
        return False
    return f.deg_y < 1 or g.deg_y < 1 or not resultant(f, g, "y").is_zero()


# -- parsing ------------------------------------------------------------------------


def parse_poly(text: str) -> BiPoly:
    """Parse the canonical text form (integer/rational coefficients, x, y, ^, *)."""
    from .parser import parse_polynomial  # local import to avoid a cycle

    return parse_polynomial(text)
