"""Fractional-power-series arcs through points of real curves.

At a point where f_y != 0 the curve has one branch, the graph of a power
series y(x), and `smooth_branch` reads it with one Hensel lift.
Every arc is a parametrization x = cx + delta*t^N, y = cy + sum(c_i t^n_i)
(or the same with the roles of x and y swapped for vertical tangents),
optionally carrying a symbolic tail (eta*z + a)*t^m whose sign semantics are
"for all sufficiently small z > 0".  These arcs are the orderings of fan
witnesses; condition (b) reads its half-lines from total transforms in a
component's chart (`resolution.classify_exceptional`) and builds none.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction
from math import gcd as _igcd

from .bipoly import BiPoly, _powers, _taylor_shift
from .errors import BasixError, Unsupported
from .series import TSeries, compose_bipoly, series_div_unit
from .unipoly import UniPoly

F = Fraction


@dataclass(frozen=True)
class Slot:
    """The symbolic tail (eta*z + a)*t^m of an arc."""

    m: int
    eta: int  # +1 / -1, multiplies z
    a: Fraction


@dataclass(frozen=True)
class PuiseuxArc:
    """Truncated parametrization of an analytic half-branch pair.

    For swapped arcs the series describe x as a function of y; xy_series()
    always returns (x(t), y(t)).  ``g∘arc`` is computed once per polynomial
    and kept on the arc instance (side +1; side -1 is its ``negate_t``).
    """

    center: tuple[Fraction, Fraction]
    delta: int
    N: int
    terms: tuple[tuple[int, Fraction], ...]  # strictly increasing exponents
    truncation: int | None  # exact modulo t^truncation; None = exact polynomial
    slot: Slot | None = None
    swapped: bool = False
    _comp: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def body_series(self) -> TSeries:
        d: dict[int, UniPoly] = {e: UniPoly.const(c) for e, c in self.terms}
        if self.slot is not None:
            s = self.slot
            d[s.m] = d.get(s.m, UniPoly()) + UniPoly([s.a, s.eta])
        return TSeries.make(d, self.truncation)

    def xy_series(self) -> tuple[TSeries, TSeries]:
        return self._xy

    @cached_property
    def _xy(self) -> tuple[TSeries, TSeries]:
        cx, cy = self.center
        param = TSeries.make({self.N: UniPoly.const(self.delta)}, None)
        body = self.body_series()
        if not self.swapped:
            xs = TSeries.const(cx, None) + param
            ys = TSeries.const(cy, None) + body
        else:
            xs = TSeries.const(cx, None) + body
            ys = TSeries.const(cy, None) + param
        return xs, ys

    def composed(self, g: BiPoly) -> TSeries:
        comp = self._comp.get(g)
        if comp is None:
            xs, ys = self.xy_series()
            comp = self._comp[g] = compose_bipoly(g, xs, ys)
        return comp

    @cached_property
    def t0_line(self) -> tuple[Fraction, Fraction, int, bool]:
        """(u, v, eta, swapped): the t^0 terms of x(t) and y(t) are x = u and
        y = v + eta*z (x and y exchanged on a swapped arc), the centre moved
        by a slot at t^0 (eta 0 without one), as every exponent of `terms`
        is at least 1; they are certain, as the truncation is at least 1."""
        cx, cy = self.center
        u, v = (cy, cx) if self.swapped else (cx, cy)
        s = self.slot
        if s is None or s.m:
            return u, v, 0, self.swapped
        return u, v + s.a, s.eta, self.swapped

    def with_slot(self, m: int, eta: int, a: Fraction) -> "PuiseuxArc":
        return replace(self, slot=Slot(m, eta, F(a)))


class NotOnCurve(BasixError):
    pass


# ------------------------------------------------------------------ smooth branches


def _divide_x_power(p: BiPoly) -> tuple[BiPoly, int]:
    if p.is_zero():
        return p, 0
    m = min(i for i, _j in p.t)
    if m == 0:
        return p, 0
    return BiPoly({(i - m, j): v for (i, j), v in p.t.items()}), m


def _hensel(Fp: BiPoly, K: int) -> dict[int, Fraction]:
    """The unique series root y(x) with y(0) = 0 of a y-regular polynomial,
    exact below t^K.

    Newton's step ``y <- y - Fp(t, y) / Fy(t, y)`` doubles the exact order
    ``p``.  The lift is exact on dense z-free lists: ``x = t`` exactly, so
    ``Fp(t, y)`` below ``t^p`` is Horner in ``y`` over the coefficient rows
    of ``Fp`` (each a polynomial in t), every product truncated at ``t^p``,
    and ``Fy`` is the same over the derivative rows.  ``Fy(0, 0) != 0``
    makes the denominator a unit series, so the quotient below ``t^p`` reads
    no term of either at or above ``t^p``.  The root is unique, so these
    coefficients are exactly those of any other exact lift.  All of it runs
    on integers: the rows are taken over their common denominator, which
    cancels in the quotient, and ``y`` is ``Y / D`` with ``Y`` an integer
    list and ``D > 0``, reduced to lowest terms after each step.
    """
    rows = Fp.int_y_rows()[0]
    m = len(rows) - 1
    Y: list[int] = []
    D = 1
    p = 1
    while p < K:
        p = min(2 * p, K)
        Y.extend([0] * (p - len(Y)))
        Dpow = [D**k for k in range(m + 1)]
        # num = D^m * Fp(t, y) and den = D^(m-1) * Fy(t, y), homogenised Horner
        num, den = [0] * p, [0] * p
        _add_scaled(num, rows[m], 1)
        _add_scaled(den, rows[m], m)
        for j in range(m - 1, -1, -1):
            num = _mul_trunc(num, Y, p)
            _add_scaled(num, rows[j], Dpow[m - j])
            if j:
                den = _mul_trunc(den, Y, p)
                _add_scaled(den, rows[j], j * Dpow[m - j])
        # s = num / den below t^p as S[e] = s_e * c^(e+1), c = den[0] != 0;
        # then y - num / (D * den) = (Y - s) / D
        cpow = [den[0] ** k for k in range(p + 1)]
        S: list[int] = []
        for e in range(p):
            acc = num[e] * cpow[e]
            for k in range(1, e + 1):
                if den[k]:
                    acc -= den[k] * S[e - k] * cpow[k - 1]
            S.append(acc)
        Y = [Y[e] * cpow[p] - S[e] * cpow[p - 1 - e] for e in range(p)]
        D *= cpow[p]
        g = _igcd(D, *Y)
        if D < 0:
            g = -g
        Y = [v // g for v in Y]
        D //= g
    return {e: F(v, D) for e, v in enumerate(Y) if v}


def _add_scaled(acc: list[int], row: list[int], k: int) -> None:
    """acc += k * row below t^len(acc), in place."""
    for i, v in enumerate(row[: len(acc)]):
        acc[i] += k * v


def _mul_trunc(a: list[int], b: list[int], p: int) -> list[int]:
    """a * b truncated at t^p."""
    out = [0] * p
    for i, u in enumerate(a):
        if u:
            for j in range(min(len(b), p - i)):
                v = b[j]
                if v:
                    out[i + j] += u * v
    return out


def smooth_branch(f: BiPoly, center: tuple[Fraction, Fraction], K: int) -> PuiseuxArc:
    """The one branch of f through a point where f_y != 0, as the graph
    x = cx + t, y = y(t), exact below t^K; f composed with it is checked to
    vanish below its truncation.

    f translated to the point has a y term and no constant, so the branch
    is the series root of one Hensel lift.  Where y divides the translated
    polynomial, f is the line y = cy times a unit at the point, and the arc
    is the axis branch: no terms and no truncation."""
    cx, cy = center
    T = f.translate(cx, cy)
    if (0, 0) in T.t:
        raise NotOnCurve(f"({cx}, {cy}) is not on the curve")
    if (0, 1) not in T.t:
        raise BasixError(f"f_y vanishes at ({cx}, {cy}), no smooth graph branch")
    if all(j for _i, j in T.t):
        arc = PuiseuxArc((cx, cy), 1, 1, (), None)
    else:
        arc = PuiseuxArc((cx, cy), 1, 1, tuple(sorted(_hensel(T, K).items())), K)
    r = residual_order(f, arc)
    if r is not None:
        raise BasixError(f"branch residual of order {r} below truncation")
    return arc


def residual_order(f: BiPoly, arc: PuiseuxArc) -> int | None:
    """Order of the first certain nonzero term of f composed with the arc,
    None if all certain terms vanish (the residual invariant holds)."""
    lead = arc.composed(f).leading()
    return None if lead is None else lead[0]


# ------------------------------------------------------------------ signs


def arc_sign(g: BiPoly, arc: PuiseuxArc, side: int) -> int | None:
    """Sign of g along the arc for small t on the given side, then for small
    z > 0: the sign of the first certain term of g∘arc.  0 when g vanishes
    identically on the arc; None when no term is certain at the arc's
    truncation (only a hand-written arc can leave a nonzero g so).

    The t^0 term of g∘arc, the same on both sides, is h(z) = g at the
    arc's `t0_line`, and certain, as composing keeps every truncation at or
    above the arc's, at least 1.  A nonzero h decides with nothing
    composed: on a slot at t^0, h(z) = g(u, v + eta*z) is the integer fibre
    of g at x = u (y = u on a swapped arc) Taylor-shifted to v, and its
    first nonzero coefficient c_k gives sign(c_k) * eta^k.  Only a g that
    vanishes at the centre of an arc with no slot at t^0, or on the whole
    t^0 line, is composed with the arc; a point fan's arcs are exact."""
    u, v, eta, swapped = arc.t0_line
    if not eta:
        s = g.sign_at(v, u) if swapped else g.sign_at(u, v)
    else:
        h = (g.swap_xy() if swapped else g).int_fibre(u)
        c = _taylor_shift(h, v.numerator, _powers(v.denominator, len(h) - 1)) if h else [0]
        k = next((k for k, ck in enumerate(c) if ck), 0)
        s = ((c[k] > 0) - (c[k] < 0)) * eta**k
    if s:
        return s
    comp = arc.composed(g)
    return (comp.negate_t() if side < 0 else comp).sign_small_pos_t()


# ------------------------------------------------------------------ blow-up simulation


@dataclass(frozen=True)
class ArcFamily:
    """One-parameter family x = cx + delta*t^N, y = cy + kept + (eta*z + a)*t^m
    (or the axes swapped); its instances meet one exceptional component
    transversally at distinct points."""

    center: tuple[Fraction, Fraction]
    delta: int
    N: int
    kept: tuple[tuple[int, Fraction], ...]
    m: int
    swapped: bool = False
    # the instance with line slope a' has slot coefficient zscale * a', so the
    # exceptional-curve crossing position and the slot parameter differ by
    # this exact factor
    zscale: Fraction = F(1)

    def make_at(self, eta: int, v_target: Fraction) -> PuiseuxArc:
        """The instance whose lift crosses the exceptional curve at v_target,
        perturbed by eta*z in the slope parameter; exact (the scale factor is
        folded into both the rational part and the z-coefficient)."""
        a = self.zscale * v_target
        eff = eta if self.zscale > 0 else -eta
        return PuiseuxArc(
            self.center,
            self.delta,
            self.N,
            self.kept,
            None,
            slot=Slot(self.m, eff, F(a)),
            swapped=self.swapped,
        )


def simulate_branch_blowups(arc: PuiseuxArc, levels: int) -> list[tuple[str, Fraction]]:
    """The chart word of the first `levels` blow-ups along the branch:
    a list of (chart kind, centre coordinate subtracted after the step)."""
    xs, ys = arc.xy_series()
    cx, cy = arc.center
    xs = xs - TSeries.const(cx, None)
    ys = ys - TSeries.const(cy, None)
    word: list[tuple[str, Fraction]] = []
    upto = arc.truncation if arc.truncation is not None else (
        xs.max_exp() + ys.max_exp() + levels + 4
    )
    for _ in range(levels):
        ox = xs.ord()
        oy = ys.ord()
        if ox is None and oy is None:
            raise Unsupported("TruncationCap", "branch exhausted during blow-up simulation")
        if oy is None or (ox is not None and oy >= ox):
            # x-chart: v = y / x
            v = series_div_unit(ys, xs, upto)
            c = v.coeff[0][1].c[0] if v.coeff and v.coeff[0][0] == 0 else F(0)
            word.append(("x", c))
            ys = v - TSeries.const(c, None)
        else:
            u = series_div_unit(xs, ys, upto)
            c = u.coeff[0][1].c[0] if u.coeff and u.coeff[0][0] == 0 else F(0)
            word.append(("y", c))
            # the y-chart's coordinates are (y, x/y), as in `BlowupChart.down`
            xs, ys = ys, u - TSeries.const(c, None)
        if (xs.trunc is not None and xs.trunc <= 0) or (ys.trunc is not None and ys.trunc <= 0):
            raise Unsupported("TruncationCap", "branch exhausted during blow-up simulation")
    return word


def family_normal_form(center: tuple[Fraction, Fraction], xs: TSeries, ys: TSeries) -> ArcFamily:
    """The family x = xs(t), y = ys(t) through the centre, whose coefficients
    are linear in the family parameter z, in the normal form of `ArcFamily`."""
    cx, cy = center
    xs = xs - TSeries.const(cx, None)
    ys = ys - TSeries.const(cy, None)
    swapped = False
    if not _is_clean_param(xs):
        if _is_clean_param(ys):
            xs, ys = ys, xs
            swapped = True
        else:
            raise Unsupported(
                "A1FormUnsupported",
                "transversal family is not rationally parametrizable in normal form",
            )
    (nx, cxz) = xs.coeff[0]
    delta = 1 if cxz.c[0] > 0 else -1
    kept: list[tuple[int, Fraction]] = []
    mslot: int | None = None
    zscale = F(1)
    for e, zc in ys.coeff:
        const = zc.c[0] if zc.c else F(0)
        zlin = zc.c[1] if len(zc.c) > 1 else F(0)
        if len(zc.c) > 2:
            raise Unsupported("A1FormUnsupported", "family parameter appears nonlinearly")
        if zlin != 0:
            if mslot is not None:
                raise Unsupported("A1FormUnsupported", "family parameter spread over terms")
            mslot = e
            zscale = zlin
            if const != 0:
                raise Unsupported("A1FormUnsupported", "slot term carries a fixed part")
        elif const != 0:
            kept.append((e, const))
    if mslot is None:
        raise Unsupported("A1FormUnsupported", "family parameter vanished in the push-down")
    return ArcFamily((cx, cy), delta, nx, tuple(kept), mslot, swapped, zscale)


def _is_clean_param(s: TSeries) -> bool:
    if len(s.coeff) != 1:
        return False
    e, zc = s.coeff[0]
    return len(zc.c) == 1 and abs(zc.c[0]) == 1


# ------------------------------------------------------------------ membership


def certified_point(arc: PuiseuxArc, side: int, polys: list[BiPoly], z0: Fraction | None) -> tuple[Fraction, Fraction]:
    """A rational point on the (z-instantiated) arc close enough to the centre
    that every polynomial keeps its small-t sign on the whole sub-arc.

    Each g∘arc, its first term b*t^e and the sum T of the absolute values of
    its later known coefficients give r = min(1, |b| / (1 + T)); for
    0 < |t| < r the later known terms together are smaller than b*t^e, as
    |t|^(e+1) * T < |b| * |t|^e, so on an exact arc no polynomial changes
    sign between the centre and the point at t0 = side*r/2.  Without
    z0 (an arc with no slot) the compositions are the arc's memo.  With z0
    (every slotted arc carries z) z is instantiated before composing: a
    coefficient vanishing at z0 can lower a truncation order, so composing
    first and instantiating after would give another point."""
    xs, ys = arc.xy_series()
    use_memo = z0 is None
    if not use_memo:
        xs, ys = xs.eval_z(z0), ys.eval_z(z0)
    r = F(1)
    for g in polys:
        comp = arc.composed(g) if use_memo else compose_bipoly(g, xs, ys)
        if side < 0:
            comp = comp.negate_t()
        lead = comp.leading()
        if lead is None:
            continue  # identically zero along the arc
        _e, zc = lead
        b = abs(zc.c[0])
        tail = sum(abs(v.c[0]) for _ee, v in comp.coeff[1:])
        r = min(r, b / (1 + tail))
    t0 = r / 2 if side > 0 else -r / 2
    xv = xs.eval_t(t0)
    yv = ys.eval_t(t0)
    return (xv.c[0] if xv.c else F(0), yv.c[0] if yv.c else F(0))

