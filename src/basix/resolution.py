"""Blow-up resolution at a point and exceptional-component classification.

A point is blown up by the two standard quadratic substitutions; sites are
processed until the total transform (strict transforms of the given curves
plus all exceptional lines) has only smooth transversal crossings with at
most two branches per point.  Every chart is rational: an irrational centre
that would need resolution aborts with Unsupported.

The normal-crossing tests read the tangent cone of each local curve at a
site, its lowest form h of degree d.  Its real lines are y = m*x for the
real roots m of h(1, m), and x = 0 with multiplicity d - deg h(1, m).
Blowing up the origin, the strict transform meets the exceptional line at
the point of each line of the cone, with the line's multiplicity.  At a
simple real line it is therefore smooth and transversal there, so it
carries exactly one branch (real, since its conjugate passes there too),
which is smooth and tangent to the line downstairs; a non-real line carries
no real branch.  No slope needs to be rational.  A multiple real line may
carry several branches, a singular one or none at all (an isolated real
point).  A curve with one is no normal crossing, and its point is blown up
without asking which.

That leaves the verdict as it is.  Condition (b) may be read on the real
prime divisors of any resolution by point blow-ups that ends in normal
crossings (Lemmas 3.5-3.6).  A blow-up the real branches alone would not
ask for is made where the real branches through the point, exceptional
lines included, are none, one, or two smooth transversal ones.  The two
sides of the new exceptional circle at a direction are the two opposite
rays of that direction.  With no real branch or one, every arc of the
circle therefore has the same pair of regions on its two sides, so it is
never type changing.  With two, its two arcs face the two pairs of
opposite sectors.  If one arc changes sign and the other has the same
nonzero sign on both sides, each of the two branches is type changing for
the same distribution.  Such a branch is a curve, which fails condition (a)
first, or an earlier exceptional component, which is classified first.
Every later blow-up on the new circle is of the same kind, so only the
exceptional table gains rows.

One ``resolve_point`` call reads each distinct local polynomial's cone once
and keeps it in a dict that it passes down its sites; the dict is dropped
when the call returns, so nothing is cached between resolutions.

Marked points on an exceptional component are `RootLocator`s, exact ones
for rational positions, as every located coordinate of the arrangement is.
Each mark carries the tags of the strict transforms through it, found once
when their roots on the component are clustered; the normal-crossing test
of a mark reads those tags and decides one vanishing (`vanishes_at`).

`BlowupChart.down` is the one chart map, and it serves two rings:
`Fraction` for points (`down_point`) and `BiPoly` for the map itself
(`down_map`).  A component's transversal family is read off the map: the
line u = t, v = z of its chart goes down to x = X(t, z), y = Y(t, z)
(`component_family`).

The region verdicts on both sides of each arc of an exceptional component
are read from its transversal family: the line u = t, v = v_mid crossing
the component at a sample of the arc in its chart, pushed down the chart
word.  Along it a scene factor g is its total transform in that chart,
G(u, v) = g(down(u, v)), restricted to v = v_mid.  G is built once per
chart word and factor, one step at a time: a translation to the step's
centre, then the step's term map (`_CHART_TERM_MAPS`, the map of
`_strict_transform` without its division).  Transforms are kept by
chart-word prefix in a dict of the resolution tree, which its components
share, so a deeper component extends its parent's transform and nothing
outlives the tree.  Taken as integer rows by the power of u (the columns of
G's cached integer rows, which run by the power of v), G(t, v_mid) has the
sign of its first row k nonzero at v_mid on the side t > 0, and
(-1)^k times that on t < 0; every row zero puts the arc on the factor's
curve.  This is exact: the pushed-down line is an exact polynomial arc, so
composing g with it gives exactly G(t, v_mid), whose first nonzero term is
row k's, and t -> -t multiplies that term by (-1)^k.  Row 0 is g at the
tree's centre, the image of u = 0 under every chart word, which each
component keeps, so a factor off the centre has that one sign on both sides
and no transform is built.
Each half of the arc enters one 2-cell for small t, and its signs are that
cell's sign vector, so the verdict is the tag shared by every region with
that vector (`SetDecomposition.tag_of_signs`; at the pole the `PoleView`
reads the same table for the inverted scene's factors).  Only when regions
with that vector carry different tags is a point of the half-line located
in the arrangement (`_located_tag`): with c_k the first nonzero coefficient
of a factor's G(t, v_mid) and r the least |c_k| / (|c_k| + sum_{j>k} |c_j|)
over all factors, no factor changes sign on the half-line for |t| < r, so
the point at t = r/2 on that side lies in the region it enters.  No arc is
built and nothing is composed.  This happens once per component;
classifying it against each lifted sign distribution then only reads those
verdicts, through the same type-changing rule that classifies the curves
(`signdist.classify_sides`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arrangement import Box, bipoly_sign_on_box
from .bipoly import BiPoly
from .decompose import SetDecomposition
from .errors import BasixError, InternalError, Unsupported
from .puiseux import ArcFamily, family_normal_form
from .realroots import RootLocator, gap_sample, isolate_real_roots, roots_equal, separate, simplest_in, vanishes_at
from .signdist import Classification, classify_sides
from .sphere import PoleView
from .unipoly import _ilist_derivative, _ilist_primitive, homogeneous_horner

F = Fraction

DEFAULT_DEPTH_CAP = 24
# alternate sample positions tried on one arc
_ALT_CAP = 12


@dataclass(frozen=True)
class Step:
    """One blow-up of a chart word.  The hash is taken once, so the
    transform memo, keyed by words, hashes no `Fraction` on a lookup."""

    kind: str  # 'x' | 'y'
    tx: Fraction
    ty: Fraction
    _h: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_h", hash((self.kind, self.tx, self.ty)))

    def __hash__(self) -> int:
        return self._h


@dataclass
class BlowupChart:
    """A chart word: the blow-ups, outermost first, leading to a component."""

    steps: tuple[Step, ...]

    def down(self, u, v, const):
        """The composite of the steps' chart maps applied to (u, v).

        This is the one place the chart convention is written: the x-chart
        of a step centred at (tx, ty) maps (u, v) to (tx + u, ty + u*v), the
        y-chart to (tx + u*v, ty + u).  ``u`` and ``v`` may lie in any ring
        with ``+`` and ``*`` (``Fraction`` for points, ``BiPoly`` for the
        map itself); ``const`` lifts a centre coordinate into it."""
        for s in reversed(self.steps):
            if s.kind == "x":
                u, v = const(s.tx) + u, const(s.ty) + u * v
            else:
                u, v = const(s.tx) + u * v, const(s.ty) + u
        return u, v

    def down_point(self, u: Fraction, v: Fraction) -> tuple[Fraction, Fraction]:
        return self.down(u, v, F)

    def down_map(self) -> tuple[BiPoly, BiPoly]:
        """The composite as a pair of polynomials in the chart coordinates."""
        return self.down(BiPoly.x(), BiPoly.y(), BiPoly.const)


# The total transforms of factors through a tree's centre: per factor, by
# chart-word prefix (`_total_transform`).
Transforms = dict[BiPoly, dict[tuple[Step, ...], BiPoly]]


@dataclass
class MarkedPoint:
    v: RootLocator
    tags: list  # curve tags crossing here


@dataclass
class ExceptionalComponent:
    level: int
    chart: BlowupChart
    curves: list[tuple[object, BiPoly]]  # strict transforms in this chart
    center: tuple[Fraction, Fraction]  # the tree's, where u = 0 maps
    marked: list[MarkedPoint] = field(default_factory=list)
    inf_tags: list = field(default_factory=list)
    # the tree's transforms, shared by all its components
    transforms: Transforms = field(default_factory=dict, repr=False, compare=False)

    def arcs(self) -> list[tuple[Fraction | None, Fraction | None, Fraction]]:
        """(vlo, vhi, sample v) per open arc; None bounds mean the arc runs to
        the point at infinity of the component (always marked)."""
        vs = [m.v for m in self.marked]
        separate(vs)
        out = []
        for k in range(len(vs) + 1):
            mid = gap_sample(vs, k)  # before the bounds: it may refine them
            out.append((vs[k - 1].hi if k else None, vs[k].lo if k < len(vs) else None, mid))
        return out


@dataclass
class ResolutionTree:
    center: tuple[Fraction, Fraction]
    components: list[ExceptionalComponent] = field(default_factory=list)
    trace: list[str] = field(default_factory=list)
    certificate: list[str] = field(default_factory=list)
    transforms: Transforms = field(default_factory=dict, repr=False)


# ----------------------------------------------------------------- NC testing

# The real lines of the tangent cone at the origin, as slopes (None for the
# vertical line x = 0), and whether one of them is multiple.
Cone = tuple[list[RootLocator | None], bool]
# The cone of each local polynomial, computed once per resolve_point.
Cones = dict[BiPoly, Cone]


def _cone_lines(p: BiPoly) -> Cone:
    """The real lines of the lowest form h of p at the origin, as slopes
    (None for x = 0), and whether one of them is multiple.  The finite lines
    are the real roots m of h(1, m); x = 0 is a line of multiplicity
    deg h - deg h(1, m)."""
    d = min(i + j for i, j in p.t)
    hi = _ilist_primitive([r[d - j] if d - j < len(r) else 0 for j, r in enumerate(p._int_rows()[0][: d + 1])])
    vertical = d - (len(hi) - 1)
    lines: list[RootLocator | None] = [None] if vertical else []
    multiple = vertical > 1
    if len(hi) > 1:
        roots = isolate_real_roots(hi)
        lines += roots
        multiple = multiple or any(vanishes_at(_ilist_derivative(hi), r) for r in roots)
    return lines, multiple


def _cone(p: BiPoly, cones: Cones) -> Cone:
    out = cones.get(p)
    if out is None:
        out = cones[p] = _cone_lines(p)
    return out


def _same_line(a: RootLocator | None, b: RootLocator | None) -> bool:
    return a is None and b is None or a is not None and b is not None and roots_equal(a, b)


def is_normal_crossing(curves: list[tuple[object, BiPoly]], cones: Cones) -> bool:
    """Total-transform normal crossing at the origin of the given local
    curves: no cone has a multiple real line, so each real line is one
    smooth branch, and there are at most two lines, distinct."""
    found: list[RootLocator | None] = []
    for _tag, p in curves:
        lines, multiple = _cone(p, cones)
        if multiple:
            return False
        found.extend(lines)
        if len(found) > 2:
            return False
    return not (len(found) == 2 and _same_line(found[0], found[1]))


# The total transform at the origin of each chart, as a term map: p(x, x*y)
# in the x-chart takes x^i y^j to x^(i+j) y^j, and p(x*y, x) in the y-chart
# takes it to x^(i+j) y^i; these are the chart maps of `BlowupChart.down`
# at a step centred at the origin.
_CHART_TERM_MAPS = {"x": ((1, 0), (1, 1)), "y": ((1, 1), (1, 0))}


def _strict_transform(p: BiPoly, kind: str) -> BiPoly:
    """The strict transform of p at the origin in the chart ``kind``: the
    total transform divided by the largest power of the exceptional line
    x = 0, which is x^d for d the order of p at the origin.  One term map:
    x^i y^j goes to x^(i+j-d) y^j in the x-chart and to x^(i+j-d) y^i in
    the y-chart."""
    d = min((i + j for i, j in p.t), default=0)
    if kind == "x":
        return BiPoly._of({(i + j - d, j): v for (i, j), v in p.t.items()})
    return BiPoly._of({(i + j - d, i): v for (i, j), v in p.t.items()})


def _has_vertical_branch(curves: list[tuple[object, BiPoly]], cones: Cones) -> bool:
    """Whether some cone contains the line x = 0, simple or multiple: then
    something meets the point at infinity of the exceptional line."""
    return any(m is None for _tag, p in curves for m in _cone(p, cones)[0])


# ----------------------------------------------------------------- resolution


def resolve_point(
    curves: dict[str, BiPoly],
    p: tuple[Fraction, Fraction],
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> ResolutionTree:
    """Standard resolution of the given curve set at a rational point, with
    at most ``depth_cap`` blow-ups along any chart word."""
    px, py = F(p[0]), F(p[1])
    through = [(n, poly.translate(px, py)) for n, poly in curves.items() if poly.sign_at(px, py) == 0]
    if not through:
        raise BasixError(f"({px}, {py}) lies on none of the given curves")
    tree = ResolutionTree((px, py))
    _resolve_site(tree, tuple(), (px, py), [(n, q) for n, q in through], depth_cap, {})
    return tree


def _resolve_site(
    tree: ResolutionTree,
    word: tuple[Step, ...],
    trans: tuple[Fraction, Fraction],
    curves: list[tuple[object, BiPoly]],
    depth_cap: int,
    cones: Cones,
) -> None:
    """Blow up (translated) local curves at the origin until normal crossing."""
    if is_normal_crossing(curves, cones):
        tree.certificate.append(f"site depth {len(word)}: normal crossing, no blow-up")
        return
    if len(word) >= depth_cap:
        raise Unsupported("DepthCap", f"resolution exceeded depth {depth_cap}")

    level = len(tree.components) + 1
    has_vert = _has_vertical_branch(curves, cones)

    # x-chart: covers every direction except the vertical one
    step = Step("x", trans[0], trans[1])
    xword = word + (step,)
    stricts: list[tuple[object, BiPoly]] = []
    for tag, c in curves:
        sc = _strict_transform(c, "x")
        if not sc.is_const():
            stricts.append((tag, sc))
    D = ExceptionalComponent(
        level=level, chart=BlowupChart(xword), curves=stricts, center=tree.center, transforms=tree.transforms
    )
    tree.components.append(D)
    tree.trace.append(
        f"blow-up {level}: centre ({trans[0]}, {trans[1]}) at depth {len(word)}, chart x"
    )

    # marked points: real roots of the strict transforms on u = 0, each
    # tagged with every strict transform through it
    marks: list[MarkedPoint] = []
    restrictions: dict[object, list[int]] = {}
    for tag, sc in stricts:
        u0 = restrictions[tag] = sc.int_fibre(0)
        if not u0:
            raise Unsupported("DegenerateStrictTransform", str(tag))
        if len(u0) < 2:
            continue
        for loc in isolate_real_roots(u0):
            placed = False
            for mp in marks:
                if roots_equal(mp.v, loc):
                    mp.tags.append(tag)
                    placed = True
                    break
            if not placed:
                marks.append(MarkedPoint(v=loc, tags=[tag]))
    marks.sort(key=lambda m: m.v.lo)
    D.marked = marks

    # recurse into non-normal-crossing marked points: a mark is a normal
    # crossing iff one strict transform passes and its restriction to u = 0
    # has a simple root there (then the branch is unique, smooth, and
    # transversal to the exceptional line)
    for mp in marks:
        if len(mp.tags) == 1 and not vanishes_at(_ilist_derivative(restrictions[mp.tags[0]]), mp.v):
            tree.certificate.append(f"D{level} at v={_vstr(mp.v)}: transversal simple crossing")
            continue
        vex = mp.v.exact
        if vex is None:
            raise Unsupported(
                "NonRationalSingularPoint",
                f"D{level} carries a non-transversal crossing at an irrational point",
            )
        translated = [(tag, sc.translate(F(0), vex)) for tag, sc in stricts if sc.sign_at(0, vex) == 0]
        translated.append((("exc", level), BiPoly.x()))
        _resolve_site(tree, xword, (F(0), vex), translated, depth_cap, cones)

    # the point of D at infinity: handled in the y-chart when something meets it
    if has_vert:
        ytag_curves: list[tuple[object, BiPoly]] = []
        for tag, c in curves:
            sc = _strict_transform(c, "y")
            if not sc.is_const() and sc.sign_at(0, 0) == 0:
                ytag_curves.append((tag, sc))
        D.inf_tags = [tag for tag, _sc in ytag_curves]
        ytag_curves.append((("exc", level), BiPoly.x()))
        yword = word + (Step("y", trans[0], trans[1]),)
        if not is_normal_crossing(ytag_curves, cones):
            _resolve_site(tree, yword, (F(0), F(0)), ytag_curves, depth_cap, cones)
        else:
            tree.certificate.append(f"D{level} at v=inf: normal crossing")
    return


def _vstr(v: RootLocator) -> str:
    return str(v.lo) if v.lo == v.hi else f"({v.lo}..{v.hi})"


# ----------------------------------------------------------------- classification


@dataclass
class ArcSides:
    """Certified region verdicts on both sides of D along one open arc."""

    vlo: Fraction | None
    vhi: Fraction | None
    v_mid: Fraction
    verdict_pos: tuple
    verdict_neg: tuple


@dataclass
class ExcArcs:
    """The sigma-independent part of classifying one exceptional component:
    its arc-side verdicts, sampled once."""

    arcs: list[ArcSides] = field(default_factory=list)

    def against(self, minus_component: int) -> Classification:
        """Classify against sigma = (+1 on S, -1 on the given complement component)."""
        return classify_sides(
            (a, _verdict_sign(a.verdict_pos, minus_component), _verdict_sign(a.verdict_neg, minus_component))
            for a in self.arcs
        )


def _verdict_sign(verdict: tuple, minus_component: int) -> int:
    if verdict[0] == "in_S":
        return 1
    if verdict[0] == "in_A" and verdict[1] == minus_component:
        return -1
    return 0


def component_family(D: ExceptionalComponent) -> ArcFamily:
    """The transversal-arc family of D in normal form: the line u = t,
    v = z of D's chart pushed down, x = X(t, z) and y = Y(t, z) for the
    polynomial down map (X, Y), with the family parameter z."""
    return family_normal_form(D.center, *D.chart.down_map())


def _arc_sample_candidates(vlo: Fraction | None, vhi: Fraction | None, first: Fraction):
    """Sample positions inside the open arc, starting from the default one.
    Region verdicts are constant along the arc, but a sample may accidentally
    sit on a curve that is not part of the resolved set; alternates avoid it."""
    yield first
    if vlo is None and vhi is None:
        k = F(1)
        while True:
            yield first + k
            yield first - k
            k += 1
    elif vlo is None:
        k = F(1)
        while True:
            yield vhi - 1 - k  # type: ignore[operator]
            k += 1
    elif vhi is None:
        k = F(1)
        while True:
            yield vlo + 1 + k
            k += 1
    else:
        lo, hi = vlo, first
        while True:
            m = simplest_in(lo, hi)
            yield m
            hi = m


def _total_transform(g: BiPoly, word: tuple[Step, ...], memo: dict[tuple[Step, ...], BiPoly]) -> BiPoly:
    """g(down(u, v)) for the chart word ``word``: the transform at the word
    without its last step, translated to that step's centre and taken
    through its term map.  ``memo`` holds g's transforms by word prefix."""
    if not word:
        return g
    G = memo.get(word)
    if G is None:
        s = word[-1]
        G = _total_transform(g, word[:-1], memo).translate(s.tx, s.ty)
        G = memo[word] = G.monomial_subst(*_CHART_TERM_MAPS[s.kind])
    return G


# Per scene factor of one component: its name, its sign at the tree's
# centre, and for a factor through the centre (sign 0) the integer rows of
# its total transform in the component's chart by the power of u, each row
# the coefficients in v.
FactorRows = list[tuple[str, int, list[list[int]]]]


def _factor_rows(D: ExceptionalComponent, decomp: SetDecomposition | PoleView) -> FactorRows:
    factors = decomp.scene.factors
    out: FactorRows = []
    for n in decomp.scene.order:
        g = factors[n]
        s = g.sign_at(*D.center)
        rows: list[list[int]] = []
        if not s:
            # the rows by the power of u are the columns of G's rows by v
            vrows, _l, deg_u = _total_transform(g, D.chart.steps, D.transforms.setdefault(g, {}))._int_rows()
            for k in range(deg_u + 1):
                r = [vr[k] if k < len(vr) else 0 for vr in vrows]
                while r and not r[-1]:
                    r.pop()
                rows.append(r)
        out.append((n, s, rows))
    return out


def _line_signs(table: FactorRows, v: Fraction) -> tuple[dict[str, int], dict[str, int]]:
    """Every factor's sign along the line u = t, v = v of the component's
    chart, for small t > 0 and for small t < 0: the sign of the first row
    nonzero at v, times (-1)^k on t < 0 for row k; 0 when every row is."""
    a, b = v.numerator, v.denominator
    pos: dict[str, int] = {}
    neg: dict[str, int] = {}
    for n, s, rows in table:
        k = 0
        if not s:
            for k, r in enumerate(rows):
                val = homogeneous_horner(r, a, b)[0] if r else 0
                if val:
                    s = 1 if val > 0 else -1
                    break
        pos[n] = s
        neg[n] = -s if k & 1 else s
    return pos, neg


def classify_exceptional(D: ExceptionalComponent, decomp: SetDecomposition | PoleView) -> ExcArcs:
    """Region verdicts on both sides of every arc of D, read at the first
    sample v of the arc whose line u = t, v = v in D's chart lies on no
    scene curve.  Each factor's sign on either half of that line is read
    from its total transform in D's chart (`_line_signs`): this is the sign
    of the factor along the line pushed down to the base chart, and exact,
    because along it the factor is the polynomial G(t, v).  A half-line's
    verdict is the tag of its sign vector.  Only when that vector has no
    single tag is a point of the half-line located (`_located_tag`), at
    t = side*r/2 with r <= |c_k| / (|c_k| + sum_{j>k} |c_j|) for each
    factor's coefficients c_j of G(t, v), below which no factor changes
    sign.  The verdicts do not depend on the lifted distribution;
    ``ExcArcs.against`` classifies them for one."""
    table = _factor_rows(D, decomp)
    out = ExcArcs()
    for vlo, vhi, v_default in D.arcs():
        alternates = _arc_sample_candidates(vlo, vhi, v_default)
        for _alt in range(_ALT_CAP):
            v_mid = next(alternates)
            # G(t, v_mid) is one polynomial in t, so a factor vanishes on
            # both halves of the line or on neither
            pos, neg = _line_signs(table, v_mid)
            if all(pos.values()):
                break
        else:
            raise Unsupported("SampleTooCoarse", f"no certified sample near D{D.level}")
        verdicts = []
        for side, signs in ((1, pos), (-1, neg)):
            tag = decomp.tag_of_signs(signs)
            verdicts.append(tag if tag is not None else _located_tag(D, decomp, v_mid, side, signs))
        out.arcs.append(ArcSides(vlo, vhi, v_mid, *verdicts))
    return out


def _located_tag(
    D: ExceptionalComponent, decomp: SetDecomposition | PoleView, v: Fraction, side: int, signs: dict[str, int]
) -> tuple:
    """The tag of the region that the half-line u = side*t, v = v of D's
    chart enters, found by locating one of its points in the arrangement;
    ``signs`` are the half-line's factor signs, every one nonzero.

    Along the line every scene factor g is G(t, v) = sum c_j t^j, G its
    total transform in D's chart.  With c_k its first nonzero coefficient,
    r = min(1, |c_k| / (|c_k| + sum_{j>k} |c_j|)) over all factors, and
    0 < |t| < r <= 1, the tail has |sum_{j>k} c_j t^j| <=
    |t|^(k+1) * sum_{j>k} |c_j| < |c_k| * |t|^k, so no factor changes sign
    between D and the point at t = side*r/2, and the segment lies in the
    region the half-line enters.  The bound does not change when G is
    scaled."""
    factors = decomp.scene.factors
    r = F(1)
    for n in decomp.scene.order:
        g = factors[n]
        G = _total_transform(g, D.chart.steps, D.transforms.setdefault(g, {}))
        cs = [abs(c) for c in G.swap_xy().int_fibre(v)]
        k = next(j for j, c in enumerate(cs) if c)
        r = min(r, F(cs[k], sum(cs[k:])))
    pt = D.chart.down_point(side * r / 2, v)
    if any(factors[n].sign_at(*pt) != signs[n] for n in decomp.scene.order):
        raise InternalError(f"the located point of D{D.level} at v={v} leaves the half-line's sign vector")
    return decomp.located_tag(*pt)


# ----------------------------------------------------------------- analysis points


@dataclass
class AnalysisPoint:
    vertex_id: int | None  # None for the pole
    point: tuple[Fraction, Fraction] | None  # None when irrational
    factors: list[str]
    rational: bool
    exempt: bool  # certified normal crossing (or vacuous) without resolution
    reason: str = ""


def local_analysis_points(decomp: SetDecomposition) -> list[AnalysisPoint]:
    """Points of the Zariski boundary that require blow-up analysis (certified
    normal crossings and harmless isolated points are filtered out)."""
    return [ap for ap in analysis_table(decomp) if not ap.exempt]


def analysis_table(decomp: SetDecomposition) -> list[AnalysisPoint]:
    """Every vertex on the Zariski boundary except regular curve points, with
    its exemption.  A boundary factor's branch ends at a vertex are the ends
    of its edges there; `_classify_point` applies the rules."""
    arr = decomp.arrangement
    out: list[AnalysisPoint] = []
    for v in arr.vertices:
        bfs = sorted(v.factors & decomp.zariski_boundary)
        if not bfs:
            continue
        ends = dict.fromkeys(bfs, 0)
        for eid in arr.edges_at_vertex(v.vid):
            e = arr.edges[eid]
            if e.factor in ends:
                ends[e.factor] += e.ends.count(("vertex", v.vid))
        ap = _classify_point(v.vid, v.box(), bfs, ends, arr.factors)
        if ap is not None:
            out.append(ap)
    return out


def pole_analysis_point(view: PoleView) -> AnalysisPoint | None:
    """The pole, as the origin of the inverted chart, classified by the same
    rules as a vertex.  Its boundary factors are those whose inverted
    polynomial vanishes at the origin; a factor's branch ends there are the
    ends of its affine edges that run to the pole.  A single curve arc that
    crosses x = 0 at the origin makes no vertex there (as in the affine
    chart), so it is no analysis point either."""
    factors = view.scene.factors
    through = [n for n in view.scene.order if factors[n].sign_at(0, 0) == 0]
    bfs = sorted(n for n in through if n in view.affine.zariski_boundary)
    if not bfs:
        return None
    arr = view.affine.arrangement
    sides: dict[str, list[int]] = {n: [] for n in bfs}
    for e in arr.edges:
        if e.factor in sides:
            sides[e.factor] += arr.pole_end_sides(e)
    if len(through) == 1 and sorted(sides[bfs[0]]) == [-1, 1]:
        return None
    ends = {n: len(s) for n, s in sides.items()}
    return _classify_point(None, Box(RootLocator.at(0), RootLocator.at(0)), bfs, ends, factors)


def _classify_point(
    vid: int | None, box: Box, bfs: list[str], ends: dict[str, int], factors: dict[str, BiPoly]
) -> AnalysisPoint | None:
    """Exemption rules at a point of the boundary factors ``bfs``, given the
    branch ends of each there; None for a regular curve point."""
    pt = box.exact_point()
    rational = pt is not None
    if sum(ends.values()) == 0:
        # isolated real point of the boundary: blowing it up yields an
        # exceptional circle with no sign change, so it never obstructs
        return AnalysisPoint(vid, pt, bfs, rational, True, "isolated point")
    if len(bfs) == 1 and ends[bfs[0]] == 2 and _smooth_at(factors[bfs[0]], box):
        return None  # regular curve point
    if len(bfs) == 2 and all(c == 2 for c in ends.values()) and _transversal_pair(factors, bfs, box):
        return AnalysisPoint(vid, pt, bfs, rational, True, "transversal crossing")
    if len(bfs) == 1 and ends[bfs[0]] == 4 and _certified_node(factors[bfs[0]], box):
        return AnalysisPoint(vid, pt, bfs, rational, True, "ordinary node")
    if not rational:
        return AnalysisPoint(vid, None, bfs, False, False, "irrational centre")
    return AnalysisPoint(vid, pt, bfs, True, False, "needs resolution")


def _smooth_at(p: BiPoly, box: Box) -> bool:
    pt = box.exact_point()
    if pt is not None:
        return p.partial_x().sign_at(*pt) != 0 or p.partial_y().sign_at(*pt) != 0
    for g in (p.partial_x(), p.partial_y()):
        try:
            if bipoly_sign_on_box(g, box, cap=48) != 0:
                return True
        except Unsupported:
            continue
    return False


def _transversal_pair(factors: dict[str, BiPoly], bfs: list[str], box: Box) -> bool:
    f, g = factors[bfs[0]], factors[bfs[1]]
    pt = box.exact_point()
    if pt is not None:
        # a nonzero Jacobian needs both gradients nonzero
        fx, fy, gx, gy = (h.eval(*pt) for h in (f.partial_x(), f.partial_y(), g.partial_x(), g.partial_y()))
        return fx * gy != fy * gx
    if not (_smooth_at(f, box) and _smooth_at(g, box)):
        return False
    jac = f.partial_x() * g.partial_y() - f.partial_y() * g.partial_x()
    try:
        return bipoly_sign_on_box(jac, box, cap=48) != 0
    except Unsupported:
        return False


def _certified_node(p: BiPoly, box: Box) -> bool:
    """Hessian-determinant certificate for an ordinary double point."""
    hxx = p.partial_x().partial_x()
    hyy = p.partial_y().partial_y()
    hxy = p.partial_x().partial_y()
    det = hxx * hyy - hxy * hxy
    pt = box.exact_point()
    if pt is not None:
        return det.sign_at(*pt) < 0
    try:
        return bipoly_sign_on_box(det, box, cap=48) < 0
    except Unsupported:
        return False
