"""Decomposition of the plane by the declared curves.

The construction is cylindrical: critical abscissae (discriminants, pairwise
resultants, leading-coefficient zeros, vertical lines) cut the x-axis into
slabs; the discriminants and resultants are read from the scene's
`Projection`, which validation computes (a build handed none projects the
scene itself).  Curve branches are isolated over rational sample abscissae;
walls at critical abscissae are analysed exactly to decide which branch
ends meet at which points.  Cells are then merged across transparent walls, so regions are
true connected components of the complement of the curves and edges are
maximal smooth curve pieces between vertices.

The arrangement depends on the factors only.  Each region, edge and vertex
stores its factor sign vector; which cells a formula selects is decided on
top of it, by `decompose.decompose_set`, so sets with the same curves share
one arrangement.

Fibres over rational abscissae are integer lists: `BiPoly.int_fibre` gives
l b^n f(a/b, y), a positive multiple of f(a/b, y), at the slab samples, the
rational walls, the abscissae where `_match_side` isolates and the points
`region_of_point` locates, and `realroots` isolates and counts on that list
as it is.  The critical polynomials and their squarefree parts are integer
lists too.  The walls are the real roots of those parts, each part
isolated on its own (a linear one is solved exactly) and locators of one
number merged; each wall keeps the parts that vanish there.

Wall points are exact.  Over a rational wall c a factor's fibre is isolated
from f(c, y).  Over an irrational wall alpha it is counted by Sturm's
theorem on the signed remainder sequence of f and f_y in y, its coefficients
in x reduced mod alpha's locator polynomial p.  A coefficient vanishes at
alpha exactly when its gcd with p changes sign across alpha's interval;
otherwise a refined copy of the interval signs it.  Leading coefficients
that vanish at alpha are dropped and each pseudo-remainder is taken times
-sign(lc^k) at alpha, so each member is a positive multiple of the true one
for f(alpha, y), and the count of distinct real roots in (a, b), ends not
roots, is exact.  Bisection gives a window per root; two factors share one
when their product has one root in a hull holding one of each.

Branch ends are matched to wall points by counting.  Take a factor f, a wall
alpha where lc_y f(alpha) != 0, and one side of it with L branch ends of f.
Every end converges to a root of f(alpha, y), since the roots of f(x, y)
stay bounded near alpha; the branches of f are disjoint within the slab, so
their limits keep the stack order; and a simple root receives exactly one
end from each side, by the implicit function theorem.  So with at most one
multiple root, at position j among f's P wall points, the fates are forced:
the simple roots below it take one end each, in order, it takes the
L - (P - 1) ends left over (none at an acnode), and the simple roots above
take the rest.  Where f has no own event at alpha (a root of no critical
polynomial of f alone) every root is simple and L = P.

Only at a vanishing leading coefficient, at an irrational wall with an own
event of f, or at two multiple roots does `_match_side` approach the wall.
Counting cannot replace it there: two double roots may take two ends each,
and at an asymptote parity cannot tell no ends escaping up from two.  It
moves an abscissa x_at towards the wall, refining the wall, until every level
is clear of f between x_at and the wall, so each branch stays in one level
gap on its way to alpha.  It then isolates f(x_at, y) once and refines each
root until no level lies in its interval; a root count other than the
slab's is an internal error.  Both loops end: a level lies strictly between
wall points, so f(alpha, level) != 0 and the level is clear once x_at and
the wall's interval, which both converge to alpha, are close enough; and a
level is no root at x_at.

Region and curve-edge signs are read off the slab stacks by parity.  At a
slab sample x_s no wall lies, so the leading coefficient lc_y f does not
vanish there and, for deg_y f >= 2, neither does discriminant_y f: f(x_s, y)
keeps its full degree and has only simple real roots, and the stack holds
every one of them in order.  Each simple root flips the sign of f(x_s, y),
so at a point of the slab above the first k stack entries f has the sign
of lc_y f(x_s) times (-1) to the number of f's entries above position k;
an x-only factor has its sign at x_s.  A vertex or a vertical edge takes the
signs of an adjacent region, with 0 on the factors through it: a factor
that is nonzero at a point keeps its sign nearby.

Gaps of ordered located numbers are read one way: `gap_sample` takes a
rational below, between or above them.  It gives the slab samples between
walls, the levels between the points of a wall and the region samples
between the entries of a stack.  A branch end's fate at a wall is the index
of the level gap that holds it, less one: wall point k, or -1 and
len(points) for an end that leaves down or up.  The fates of the entries
around a stack gap bound the wall segment the gap is exposed to, and one
lookup finds the gap that covers a segment, for vertical edges, isolated
vertices and points on a wall.  Point location answers regions only: the
decision asks only which region holds a rational point off the curves.

Everything is exact.  Every located coordinate (a wall abscissa, a branch
or vertex ordinate) is a `RootLocator`, refinable on demand; a rational one
is an exact locator with ``lo == hi``.  The build refines without caps;
`bipoly_sign_on_box`, which the blow-up and fan layers use, has one and
raises Unsupported rather than guess.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .bipoly import BiPoly, resultant
from .errors import InternalError, Unsupported
from .realroots import (
    RootLocator,
    clear_of_roots,
    count_roots_below,
    gap_sample,
    isolate_real_roots,
    refine_disjoint,
    roots_equal,
    separate,
    sign_variations,
    vanishes_at,
)
from .scene import Projection, Scene, project_scene
from .unipoly import (
    UniPoly,
    _ilist_derivative,
    _ilist_exact_div,
    _ilist_gcd,
    _ilist_primitive,
    _ilist_squarefree,
    homogeneous_horner,
)

F = Fraction

_SIGN_ROUNDS = 160

# --------------------------------------------------------------------------- helpers


class UnionFind:
    """Disjoint sets over hashable items.  `union(a, b)` hangs a's root under
    b's, so the root a class ends with depends only on the order of unions."""

    def __init__(self, items):
        self.parent = {a: a for a in items}

    def __contains__(self, a) -> bool:
        return a in self.parent

    def find(self, a):
        parent = self.parent
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def classes(self) -> dict:
        """root -> members, both in the order the items were given."""
        out: dict = {}
        for a in self.parent:
            out.setdefault(self.find(a), []).append(a)
        return out


class Box:
    """Refinable rectangle around a point with algebraic coordinates."""

    def __init__(self, x: RootLocator, y: RootLocator):
        self.x = x
        self.y = y

    def bounds(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return self.x.lo, self.x.hi, self.y.lo, self.y.hi

    def refine(self) -> None:
        self.x.refine()
        self.y.refine()

    def exact_point(self) -> tuple[Fraction, Fraction] | None:
        if self.x.exact is None or self.y.exact is None:
            return None
        return self.x.exact, self.y.exact


def bipoly_sign_on_box(g: BiPoly, box: Box, cap: int = _SIGN_ROUNDS) -> int:
    """Exact sign of g at the point enclosed by a refinable box; the enclosed
    point must not be a zero of g (otherwise the cap trips)."""
    for _ in range(cap):
        xlo, xhi, ylo, yhi = box.bounds()
        lo, hi = g.interval_eval(xlo, xhi, ylo, yhi)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        box.refine()
    raise Unsupported("SignRefinementCap", f"sign of {g.to_text()} undecided")


def _counted_fates(mine: list[int], multiple: list[int], ends: int) -> list[int]:
    """The fates of a factor's `ends` branch ends on one side of a wall
    where its leading coefficient does not vanish, from its wall points
    `mine` (indices into the wall's points) and the positions among them of
    its multiple roots, at most one: the counting rule of the module
    docstring."""
    if not multiple:
        if ends != len(mine):
            raise InternalError(f"{ends} branch ends meet {len(mine)} simple wall points")
        return list(mine)
    (j,) = multiple
    extra = ends - (len(mine) - 1)
    if extra < 0:
        raise InternalError(f"{ends} branch ends cannot reach {len(mine) - 1} simple wall points")
    return mine[:j] + [mine[j]] * extra + mine[j + 1 :]


# --------------------------------------------------------------------------- cells


@dataclass
class Vertex:
    vid: int
    x: RootLocator
    y: RootLocator
    factors: set[str]
    wall_index: int
    item_index: int
    signs: dict[str, int] = field(default_factory=dict)

    def box(self) -> Box:
        return Box(self.x, self.y)

    def point(self) -> tuple[Fraction, Fraction] | None:
        return self.box().exact_point()


@dataclass
class Edge:
    """A maximal smooth curve piece between vertices (or pole attachments).

    Curve edges carry (slab, factor-branch index, sample locator) pieces;
    vertical edges carry a wall index and an item segment.
    """

    eid: int
    factor: str
    vertical: bool
    pieces: list[tuple[int, int, RootLocator]] = field(default_factory=list)
    wall_index: int | None = None
    seg: tuple[int, int] | None = None
    side_above: int = -1  # region above (curve) / left (vertical)
    side_below: int = -1  # region below (curve) / right (vertical)
    ends: tuple[tuple, tuple] = ((), ())
    signs: dict[str, int] = field(default_factory=dict)
    unbounded: bool = False

    def sides(self) -> tuple[int, int]:
        return self.side_above, self.side_below


@dataclass
class Region:
    rid: int
    gaps: list[tuple[int, int]]
    sample: tuple[Fraction, Fraction]
    signs: dict[str, int] = field(default_factory=dict)
    unbounded: bool = False


@dataclass
class WallPoint:
    y: RootLocator | _Window  # a window at a pass point of an irrational wall
    factors: set[str]
    left: list[tuple[str, int]]
    right: list[tuple[str, int]]
    is_pass: bool


@dataclass
class Wall:
    x: RootLocator
    line_factor: str | None
    # the squarefree critical polynomials of stage 1 that vanish at the
    # wall, keyed as in `_build`, in stage-1 order
    critical: list[tuple[tuple[str, ...], list[int]]] = field(default_factory=list)
    points: list[WallPoint] = field(default_factory=list)
    fates: dict[tuple[str, str, int], int] = field(default_factory=dict)
    expo_left: list[tuple[int, int]] = field(default_factory=list)
    expo_right: list[tuple[int, int]] = field(default_factory=list)

    def exact_x(self) -> Fraction | None:
        return self.x.exact


# --------------------------------------------------------------------------- build


class Arrangement:
    """Vertices, edges and regions of the curve arrangement, with adjacency
    and sign vectors; only the scene's factors, order and chart are kept."""

    def __init__(self, scene: Scene, projection: Projection | None = None):
        self.factors = dict(scene.factors)
        self.order = list(scene.order)
        self.chart = scene.chart
        self.walls: list[Wall] = []
        self.slab_samples: list[Fraction] = []
        # per slab: bottom-up list of (factor, per-factor branch index, locator)
        self.stacks: list[list[tuple[str, int, RootLocator]]] = []
        # per slab: the sign of each factor above the top of the stack
        self.top_signs: list[dict[str, int]] = []
        self.vertices: list[Vertex] = []
        self.edges: list[Edge] = []
        self.regions: list[Region] = []
        self.region_of_gap: dict[tuple[int, int], int] = {}
        self.curvy: dict[str, BiPoly] = {}
        self.vlines: dict[str, Fraction] = {}
        self.pole_touched = False
        self._edges_at_vertex: dict[int, list[int]] = {}
        self._elim_cache: dict[tuple, list[int]] = {}
        # (factor, level) -> primitive integer form of factor(x, level)
        self._level_forms: dict[tuple[str, Fraction], list[int]] = {}
        proj = project_scene(scene) if projection is None else projection
        self._contents = proj.contents
        self._build(proj.elim)

    # ---------------------------------------------------------------- stage 1

    def _build(self, elim: dict[tuple[str, ...], UniPoly]) -> None:
        for name in self.order:
            p = self.factors[name]
            if p.deg_y >= 1:
                self.curvy[name] = p
            else:
                u = p.int_y_rows()[0][0]
                if len(u) != 2:
                    raise Unsupported(
                        "NonRationalShearNeeded",
                        f"factor {name!r} is an x-only polynomial of degree {len(u) - 1}",
                    )
                self.vlines[name] = F(-u[0], u[1])

        # primitive integer lists, each keyed by the factor, or the pair of
        # factors, it belongs to (a constant leading coefficient has no
        # squarefree part below)
        crit_polys: list[tuple[tuple[str, ...], list[int]]] = []
        for n, f in self.curvy.items():
            if (n,) in elim:
                crit_polys.append(((n,), elim[(n,)].int_primitive()))
            crit_polys.append(((n,), _ilist_primitive(f.int_y_rows()[0][-1])))
        crit_polys += [(key, r.int_primitive()) for key, r in elim.items() if len(key) == 2]
        crit_polys += [((n,), [-v.numerator, v.denominator]) for n, v in self.vlines.items()]

        critical = [(key, sf) for key, p in crit_polys if len(sf := _ilist_squarefree(p)) >= 2]
        for loc, found in critical_walls([c for _key, c in critical]):
            lf = None
            for n, v in self.vlines.items():
                if loc.exact == v:
                    lf = n
            self.walls.append(Wall(loc, lf, critical=[critical[i] for i in found]))
        locs = [w.x for w in self.walls]

        # ------------------------------------------------------------ stage 2

        samples = [gap_sample(locs, k) for k in range(len(locs) + 1)]
        self.slab_samples = samples

        for s in samples:
            per_factor: list[tuple[str, int, RootLocator]] = []
            top: dict[str, int] = {}
            for n in self.order:
                if n not in self.curvy:
                    top[n] = self.factors[n].sign_at(s, 0)
                    continue
                u = self.curvy[n].int_fibre(s)
                if not u:
                    raise InternalError(
                        f"factor {n!r} vanishes on the slab sample x = {s}, but its leading coefficient "
                        "in y is a nonzero constant or a critical polynomial, whose real roots are walls"
                    )
                top[n] = 1 if u[-1] > 0 else -1
                if len(u) < 2:
                    continue
                for i, loc in enumerate(isolate_real_roots(u)):
                    per_factor.append((n, i, loc))
            refine_disjoint([t[2] for t in per_factor])
            per_factor.sort(key=lambda t: t[2].lo)
            self.stacks.append(per_factor)
            self.top_signs.append(top)

        # ------------------------------------------------------------ stage 3

        for wi, wall in enumerate(self.walls):
            self._analyse_wall(wi, wall)

        # ------------------------------------------------------------ stage 4

        self._assemble()

    # ------------------------------------------------------------- wall analysis

    def _branch_count(self, slab: int, factor: str) -> int:
        return sum(1 for (n, _i, _l) in self.stacks[slab] if n == factor)

    def _analyse_wall(self, wi: int, wall: Wall) -> None:
        """The wall points of a wall and the fate of every branch end at it;
        the fibre and counting rules are in the module docstring."""
        cx = wall.exact_x()
        events = {key for key, _c in wall.critical}
        fibres: dict[str, list] = {}
        # per factor, the positions in its fibre of its multiple roots, or
        # None where counting does not force the fates
        multiple: dict[str, list[int] | None] = {}
        if cx is not None:
            for n, f in self.curvy.items():
                u = f.int_fibre(cx)
                if not u:
                    raise Unsupported("VerticalComponent", f"factor {n!r} contains x = {cx}")
                fibres[n] = locs = isolate_real_roots(u) if len(u) >= 2 else []
                if (n,) not in events:
                    multiple[n] = []
                elif len(u) - 1 < f.deg_y:
                    multiple[n] = None
                else:
                    du = _ilist_derivative(u)
                    mult = [j for j, loc in enumerate(locs) if vanishes_at(du, loc)]
                    multiple[n] = mult if len(mult) <= 1 else None
            same = roots_equal
        else:
            if wall.line_factor is not None:
                raise InternalError("irrational wall analysis on a vertical-line wall")
            at = _IrrationalAbscissa(wall.x, wall.critical)
            for n, f in self.curvy.items():
                fibres[n] = _Fibre(at, n, f).windows()
                multiple[n] = None if (n,) in events else []
            same = at.same_root

        clusters: list[tuple] = []
        for n, locs in fibres.items():
            for loc in locs:
                for rep, fs in clusters:
                    if n not in fs and same(rep, loc):
                        fs.add(n)
                        break
                else:
                    clusters.append((loc, {n}))
        refine_disjoint([c[0] for c in clusters])
        clusters.sort(key=lambda c: c[0].lo)
        separate([c[0] for c in clusters])

        points = [WallPoint(y=rep, factors=set(fs), left=[], right=[], is_pass=False) for rep, fs in clusters]

        levels: list[Fraction] = []
        for side, slab in (("L", wi), ("R", wi + 1)):
            for n in self.curvy:
                ends = self._branch_count(slab, n)
                if ends == 0:
                    continue
                if multiple[n] is not None:
                    mine = [k for k, p in enumerate(points) if n in p.factors]
                    fates = _counted_fates(mine, multiple[n], ends)
                else:
                    if not levels:
                        ys = [p.y for p in points]
                        levels = [gap_sample(ys, k) for k in range(len(ys) + 1)]
                    fates = self._match_side(n, slab, side, wall, levels)
                for idx, k in enumerate(fates):
                    if 0 <= k < len(points):
                        if n not in points[k].factors:
                            raise InternalError("branch matched to a foreign wall point")
                        (points[k].left if side == "L" else points[k].right).append((n, idx))
                    wall.fates[(side, n, idx)] = k

        for p in points:
            p.is_pass = wall.line_factor is None and len(p.factors) == len(p.left) == len(p.right) == 1
            if cx is None and not p.is_pass:
                p.y = self._vertex_y_locator(p.factors, p.y)
        wall.points = points

    def _match_side(self, factor: str, slab: int, side: str, wall: Wall, levels: list[Fraction]) -> list[int]:
        """Fate of each branch of `factor` in `slab` approaching `wall`: the
        approach of the module docstring, then the level gap that holds each
        branch position, less one."""
        x_at = self.slab_samples[slab]
        while True:
            wlo, whi = wall.x.lo, wall.x.hi
            span = (x_at, whi) if side == "L" else (wlo, x_at)
            if all(self._level_clear(factor, lv, *span) for lv in levels):
                break
            # the near end of the wall's interval stays on this side of the wall
            x_at = (x_at + (wlo if side == "L" else whi)) / 2
            wall.x.refine()
        u = self.curvy[factor].int_fibre(x_at)
        # only the intervals are read, so no root needs to be found exact
        positions = isolate_real_roots(u, detect_rational=False) if len(u) >= 2 else []
        if len(positions) != self._branch_count(slab, factor):
            raise InternalError(f"{factor} has another branch count at x = {x_at} than in its slab")
        fates = []
        for pos in positions:
            # no level is a root at x_at, so the refinement ends
            while (j := bisect_left(levels, pos.lo)) < len(levels) and levels[j] <= pos.hi:
                pos.refine()
            fates.append(j - 1)
        return fates

    def _level_clear(self, factor: str, lv: Fraction, a: Fraction, b: Fraction) -> bool:
        """Whether the line y = lv misses the factor's curve over [a, b];
        read only where `_match_side` approaches a wall whose fates are not
        counted.  Each (factor, level) is specialised once per arrangement:
        the walls' matching rounds only shrink the span, and both sides of a
        wall test the same levels."""
        key = (factor, lv)
        c = self._level_forms.get(key)
        if c is None:
            c = self._level_forms[key] = _ilist_primitive(self.curvy[factor].swap_xy().int_fibre(lv))
        return bool(c) and clear_of_roots(c, a, b)

    def _vertex_y_locator(self, factors: set[str], window: "_Window") -> RootLocator:
        """The ordinate of a vertex at an irrational wall: the one root of the
        elimination polynomial of its first two factors (of f and f_y for one
        factor f without its content in x) left in its wall point's window
        once that window is small enough."""
        fs = tuple(sorted(factors))
        r = self._elim_cache.get(fs)
        if r is None:
            f = self.curvy[fs[0]]
            if len(fs) == 1 and self._contents[fs[0]].degree >= 1:
                c = self._contents[fs[0]].int_primitive()
                rows = [_ilist_exact_div(r, c) for r in f.int_y_rows()[0]]
                f = BiPoly({(i, j): v for j, r in enumerate(rows) for i, v in enumerate(r) if v})
            g = f.partial_y() if len(fs) == 1 else self.curvy[fs[1]]
            h = f if f.deg_x == 0 else g if g.deg_x == 0 else None
            r = self._elim_cache[fs] = h.int_fibre(0) if h else resultant(f, g, "x").int_primitive()
        while True:
            cands = isolate_real_roots(r, window.lo, window.hi, detect_rational=False)
            if len(cands) == 1:
                return cands[0]
            if not cands:
                raise InternalError(f"no root of the elimination polynomial of {fs} at a wall point")
            window.refine()

    # ----------------------------------------------------------------- assembly

    def _gap_exposure(self, wall: Wall, side: str, slab: int, gap: int) -> tuple[int, int]:
        st = self.stacks[slab]
        lo = -1 if gap == 0 else wall.fates[(side, st[gap - 1][0], st[gap - 1][1])]
        hi = len(wall.points) if gap == len(st) else wall.fates[(side, st[gap][0], st[gap][1])]
        return lo, hi

    @staticmethod
    def _exposed_gap(expo: list[tuple[int, int]], a: int, b: int) -> int:
        """The first gap whose exposure (lo, hi) at a wall covers the wall
        segment from point a to point b."""
        for g, (lo, hi) in enumerate(expo):
            if lo <= a and b <= hi:
                return g
        raise InternalError("wall segment not covered by any gap exposure")

    def _assemble(self) -> None:
        n_slabs = len(self.slab_samples)
        gap_counts = [len(st) + 1 for st in self.stacks]

        gaps = UnionFind((s, g) for s in range(n_slabs) for g in range(gap_counts[s]))
        pieces = UnionFind((s, n, i) for s, st in enumerate(self.stacks) for n, i, _l in st)

        vertical_edges: list[tuple[int, int, int]] = []
        for wi, wall in enumerate(self.walls):
            wall.expo_left = [self._gap_exposure(wall, "L", wi, g) for g in range(gap_counts[wi])]
            wall.expo_right = [self._gap_exposure(wall, "R", wi + 1, g) for g in range(gap_counts[wi + 1])]
            if wall.line_factor is None:
                for gl, (a, b) in enumerate(wall.expo_left):
                    for gr, (c, d) in enumerate(wall.expo_right):
                        if max(a, c) < min(b, d):
                            gaps.union((wi, gl), (wi + 1, gr))
            else:
                for seg in range(-1, len(wall.points)):
                    vertical_edges.append((wi, seg, seg + 1))
            for p in wall.points:
                if p.is_pass:
                    nf, il = p.left[0]
                    _, ir = p.right[0]
                    pieces.union((wi, nf, il), (wi + 1, nf, ir))

        # regions
        self.regions = []
        for _root, members in sorted(gaps.classes().items()):
            members.sort()
            rid = len(self.regions)
            unbounded = any(
                s == 0 or s == n_slabs - 1 or g == 0 or g == gap_counts[s] - 1 for s, g in members
            )
            r = Region(rid, members, self._gap_sample(*members[0]), self._stack_signs(*members[0]), unbounded)
            self.regions.append(r)
            for sg in members:
                self.region_of_gap[sg] = rid

        # vertices
        self.vertices = []
        vid_of: dict[tuple[int, int], int] = {}
        for wi, wall in enumerate(self.walls):
            for k, p in enumerate(wall.points):
                if p.is_pass:
                    continue
                factors = set(p.factors)
                if wall.line_factor is not None:
                    factors.add(wall.line_factor)
                v = Vertex(len(self.vertices), wall.x, p.y, factors, wi, k)
                vid_of[(wi, k)] = v.vid
                self.vertices.append(v)

        # curve edges
        self.edges = []
        for _root, chain in sorted(pieces.classes().items()):
            chain.sort()
            factor = chain[0][1]
            e = Edge(eid=len(self.edges), factor=factor, vertical=False)
            for s, n, i in chain:
                loc = next(l for (nn, ii, l) in self.stacks[s] if nn == n and ii == i)
                e.pieces.append((s, i, loc))
            s0, n0, i0 = chain[0]
            stack_pos = next(k for k, (nn, ii, _l) in enumerate(self.stacks[s0]) if nn == n0 and ii == i0)
            e.side_below = self.region_of_gap[(s0, stack_pos)]
            e.side_above = self.region_of_gap[(s0, stack_pos + 1)]
            e.signs = self._stack_signs(s0, stack_pos + 1, factor)
            e.ends = (
                self._chain_end(chain[0], "L", vid_of),
                self._chain_end(chain[-1], "R", vid_of),
            )
            e.unbounded = ("pole",) in e.ends
            self.edges.append(e)

        # vertical edges
        for wi, a, b in vertical_edges:
            wall = self.walls[wi]
            gl = self._exposed_gap(wall.expo_left, a, b)
            gr = self._exposed_gap(wall.expo_right, a, b)
            e = Edge(eid=len(self.edges), factor=wall.line_factor or "?", vertical=True)
            e.wall_index = wi
            e.seg = (a, b)
            e.side_above = self.region_of_gap[(wi, gl)]
            e.side_below = self.region_of_gap[(wi + 1, gr)]
            lo_end = ("pole",) if a == -1 else ("vertex", vid_of[(wi, a)])
            hi_end = ("pole",) if b == len(wall.points) else ("vertex", vid_of[(wi, b)])
            e.ends = (lo_end, hi_end)
            e.unbounded = ("pole",) in e.ends
            e.signs = {**self.regions[e.side_above].signs, e.factor: 0}
            self.edges.append(e)

        self.pole_touched = any(e.unbounded for e in self.edges)

        self._edges_at_vertex = {v.vid: [] for v in self.vertices}
        for e in self.edges:
            for end in e.ends:
                if end and end[0] == "vertex":
                    self._edges_at_vertex[end[1]].append(e.eid)

        for v in self.vertices:
            v.signs = {**self.regions[min(self.regions_at_vertex(v.vid))].signs, **dict.fromkeys(v.factors, 0)}

    def _chain_end(self, piece: tuple[int, str, int], side: str, vid_of) -> tuple:
        s, n, i = piece
        if side == "L":
            if s == 0:
                return ("pole",)
            wi, k = s - 1, self.walls[s - 1].fates[("R", n, i)]
        else:
            if s == len(self.slab_samples) - 1:
                return ("pole",)
            wi, k = s, self.walls[s].fates[("L", n, i)]
        if not 0 <= k < len(self.walls[wi].points):
            return ("pole",)
        if self.walls[wi].points[k].is_pass:
            raise InternalError("chain end at a pass point")
        return ("vertex", vid_of[(wi, k)])

    def _gap_sample(self, s: int, g: int) -> tuple[Fraction, Fraction]:
        return self.slab_samples[s], gap_sample([l for _n, _i, l in self.stacks[s]], g)

    # -------------------------------------------------------------- cell queries

    def _stack_signs(self, s: int, k: int, on: str | None = None) -> dict[str, int]:
        """Sign vector at a point of slab s above the first k entries of its
        stack and below the others (gap k), or, with `on` naming the factor of
        entry k - 1, on that entry.  Parity rule: see the module docstring."""
        signs = dict(self.top_signs[s])
        for n, _i, _l in self.stacks[s][k:]:
            signs[n] = -signs[n]
        if on is not None:
            signs[on] = 0
        return signs

    def vertical_edge_sample(self, e: Edge) -> tuple[Fraction, Fraction]:
        wall = self.walls[e.wall_index]  # type: ignore[index]
        cx = wall.exact_x()
        if cx is None or e.seg is None:
            raise InternalError("vertical edge sample off an exact wall segment")
        return cx, gap_sample([p.y for p in wall.points], e.seg[1])

    def edge_sample(self, e: Edge) -> tuple[Fraction, Fraction | RootLocator]:
        if e.vertical:
            return self.vertical_edge_sample(e)
        s0, _i, loc = e.pieces[0]
        return self.slab_samples[s0], loc

    def pole_end_sides(self, e: Edge) -> list[int]:
        """The sign of x along each end of the edge that runs to the pole: -1
        or +1, and 0 on the line x = 0.  Inversion keeps the sign of x, so
        this is the side from which the end reaches the inverted origin."""
        if e.vertical:
            return [self.walls[e.wall_index].x.sign()] * e.ends.count(("pole",))
        out = []
        first, last = e.pieces[0][0], e.pieces[-1][0]
        if e.ends[0] == ("pole",):
            # out of the leftmost slab, or up or down a wall from its right
            out.append(-1 if first == 0 or self.walls[first - 1].x.sign() < 0 else 1)
        if e.ends[1] == ("pole",):
            out.append(1 if last == len(self.walls) or self.walls[last].x.sign() > 0 else -1)
        return out

    def edges_of_factor(self, factor: str) -> list[Edge]:
        return [e for e in self.edges if e.factor == factor]

    def edges_at_vertex(self, vid: int) -> list[int]:
        return list(self._edges_at_vertex.get(vid, []))

    def regions_at_vertex(self, vid: int) -> set[int]:
        eids = self.edges_at_vertex(vid)
        rids: set[int] = set()
        for eid in eids:
            e = self.edges[eid]
            rids.update(e.sides())
        if not eids:
            # isolated point: the enclosing region via its wall exposures
            v = self.vertices[vid]
            k = v.item_index
            g = self._exposed_gap(self.walls[v.wall_index].expo_left, k - 1, k + 1)
            rids.add(self.region_of_gap[(v.wall_index, g)])
        return rids

    def euler_characteristic_sphere(self) -> int:
        return len(self.vertices) + (1 if self.pole_touched else 0) - len(self.edges) + len(self.regions)

    # ------------------------------------------------------------ point location

    def region_of_point(self, x: Fraction, y: Fraction) -> int:
        """The region holding a rational point off the curves."""
        x, y = F(x), F(y)
        if any(p.eval(x, y) == 0 for p in self.factors.values()):
            raise InternalError(f"point ({x}, {y}) lies on a curve cell")
        for wi, wall in enumerate(self.walls):
            cx = wall.exact_x()
            if cx is None:
                while wall.x.lo < x < wall.x.hi:
                    wall.x.refine()
            elif x == cx:
                # off the curves, so no wall point is at y
                for p in wall.points:
                    while p.y.lo <= y <= p.y.hi:
                        p.y.refine()
                below = sum(1 for p in wall.points if p.y.hi < y)
                return self.region_of_gap[(wi, self._exposed_gap(wall.expo_left, below - 1, below))]
        # x is at no wall here, and an irrational wall's hi is no root
        slab = sum(1 for wall in self.walls if x >= wall.x.hi)
        below = 0
        for f in self.curvy.values():
            u = f.int_fibre(x)
            if len(u) >= 2:
                below += count_roots_below(u, y)
        return self.region_of_gap[(slab, below)]


# --------------------------------------------------------------- irrational walls


class _IrrationalAbscissa:
    """Exact signs at an irrational wall abscissa alpha, the one root of p
    in the interval of a private copy of the wall's locator.  `critical` are
    the critical polynomials that vanish at alpha, the wall's provenance
    from stage 1; p is the gcd of the locator's polynomial and all of them,
    and their keys (as in `Arrangement._build`) are the `events`."""

    def __init__(self, x: RootLocator, critical: list[tuple[tuple[str, ...], list[int]]]):
        p = x.ints()
        for _key, c in critical:
            p = _ilist_gcd(c, p)
        self.events: set[tuple[str, ...]] = {key for key, _c in critical}
        self.ip = p
        self.x = RootLocator(p, x.lo, x.hi)

    def sign(self, c: list[int]) -> int:
        """The sign at alpha of an integer polynomial in x."""
        if not any(c):
            return 0
        x = self.x
        if not clear_of_roots(c, x.lo, x.hi):
            g = _ilist_gcd(_ilist_primitive(c), self.ip)
            if len(g) >= 2 and not clear_of_roots(g, x.lo, x.hi):
                return 0
            while not clear_of_roots(c, x.lo, x.hi):
                x.refine()
        return 1 if homogeneous_horner(c, x.lo.numerator, x.lo.denominator)[0] > 0 else -1

    def same_root(self, w1: "_Window", w2: "_Window") -> bool:
        """Whether the windows of two factors hold the same root; only a pair
        whose resultant vanishes at alpha can share one."""
        f1, f2 = w1.fibre, w2.fibre
        if (f1.name, f2.name) not in self.events and (f2.name, f1.name) not in self.events:
            return False
        while w1.lo < w2.hi and w2.lo < w1.hi:
            a, b = min(w1.lo, w2.lo), max(w1.hi, w2.hi)
            if not any(f.is_root(t) for f in (f1, f2) for t in (a, b)) and f1.count(a, b) == 1 == f2.count(a, b):
                return _Fibre(self, "", f1.f * f2.f).count(a, b) == 1
            w1.refine()
            w2.refine()
        return False


class _Fibre:
    """f(alpha, y) over an irrational wall alpha, with ``seq`` its Sturm
    sequence (see the module docstring): per member its integer rows in x,
    reduced mod p, and the sign at alpha of the top row."""

    def __init__(self, at: _IrrationalAbscissa, name: str, f: BiPoly):
        self.at, self.name, self.f = at, name, f
        self._signs: dict[Fraction, list[int]] = {}
        self.seq: list[tuple[list[list[int]], int]] = []
        a = self._member(f.int_y_rows()[0])
        if a is None:
            raise Unsupported("VerticalComponent", f"factor {name!r} vanishes on the wall x in {(at.x.lo, at.x.hi)}")
        b = self._member([[j * v for v in c] for j, c in enumerate(a[0])][1:])
        while b:
            self.seq.append(a)
            a, b = b, self._member(_prem_rows(a[0], b[0], at.ip), -(b[1] ** (len(a[0]) - len(b[0]) + 1)))
        self.seq.append(a)

    def _member(self, rows: list[list[int]], scale: int = 1) -> tuple[list[list[int]], int] | None:
        """scale times the rows, reduced mod p, without the top rows that
        vanish at alpha."""
        rows = _rows_mod([[scale * v for v in r] for r in rows], self.at.ip)
        s = 0
        while rows and (s := self.at.sign(rows[-1])) == 0:
            rows.pop()
        return (rows, s) if rows else None

    def signs(self, m: Fraction) -> list[int]:
        """Signs of the sequence at (alpha, m); the first is 0 at a root."""
        out = self._signs.get(m)
        if out is None:
            out = self._signs[m] = [self.at.sign(_rows_at(c, m)) for c, _s in self.seq]
        return out

    def is_root(self, m: Fraction) -> bool:
        return self.signs(m)[0] == 0

    def count(self, a: Fraction, b: Fraction) -> int:
        """The number of distinct real roots in (a, b); a and b are none."""
        return sign_variations(self.signs(a)) - sign_variations(self.signs(b))

    def split(self, lo: Fraction, hi: Fraction) -> Fraction:
        """The midpoint of (lo, hi), moved towards lo while it is a root."""
        m = (lo + hi) / 2
        while self.is_root(m):
            m = (lo + m) / 2
        return m

    def windows(self) -> list["_Window"]:
        """One window per distinct real root, in order, bisected from (-b, b)
        with b the first power of two beyond every root."""
        at_minus_infinity = [s * (-1) ** (len(c) - 1) for c, s in self.seq]
        n = sign_variations(at_minus_infinity) - sign_variations([s for _c, s in self.seq])
        b = F(1)
        while n and (self.is_root(b) or self.is_root(-b) or self.count(-b, b) < n):
            b *= 2
        return self._isolate(-b, b, n)

    def _isolate(self, lo: Fraction, hi: Fraction, k: int) -> list["_Window"]:
        """Windows for the k roots in (lo, hi), bisected on an explicit
        stack, left half on top, so they come out in order at any depth."""
        out: list[_Window] = []
        todo = [(lo, hi, k)]
        while todo:
            lo, hi, k = todo.pop()
            if k == 1:
                out.append(_Window(self, lo, hi))
            elif k > 1:
                m = self.split(lo, hi)
                left = self.count(lo, m)
                todo.append((m, hi, k - left))
                todo.append((lo, m, left))
        return out


class _Window:
    """An open rational window around one distinct real root of
    f(alpha, y), refined like a `RootLocator`; its ends are never roots."""

    exact = None

    def __init__(self, fibre: _Fibre, lo: Fraction, hi: Fraction):
        self.fibre, self.lo, self.hi = fibre, lo, hi

    def refine(self) -> None:
        m = self.fibre.split(self.lo, self.hi)
        if self.fibre.count(self.lo, m):
            self.hi = m
        else:
            self.lo = m


def _iaxpy(k: int, a: list[int], b: list[int]) -> list[int]:
    """k a + b for integer coefficient lists."""
    out = [k * v for v in a] + [0] * (len(b) - len(a))
    for i, v in enumerate(b):
        out[i] += v
    return out


def critical_walls(pieces: list[list[int]]) -> list[tuple[RootLocator, list[int]]]:
    """The distinct real roots of the squarefree integer polynomials
    `pieces`, in increasing order with strictly separated intervals, each
    with the indices of the pieces that vanish there.  Each piece is
    isolated on its own, so a linear one is exact with no walk.  Two
    locators of one number always overlap, so only overlapping neighbours in
    the order of their lower ends are compared: equal ones are merged,
    keeping the lower-degree polynomial, and distinct ones are refined until
    they part."""
    found = [(loc, [i]) for i, c in enumerate(pieces) for loc in isolate_real_roots(c)]
    distinct: set[tuple[int, int]] = set()
    clash = True
    while clash:
        clash = False
        found.sort(key=lambda t: t[0].lo)
        merged: list[tuple[RootLocator, list[int]]] = []
        for loc, src in found:
            if merged and not merged[-1][0].hi < loc.lo:
                last, lsrc = merged[-1]
                pair = (id(last), id(loc))
                if pair not in distinct and roots_equal(last, loc):
                    keep = loc if len(loc.ints()) < len(last.ints()) else last
                    merged[-1] = (keep, sorted(lsrc + src))
                    continue
                distinct.add(pair)
                last.refine()
                loc.refine()
                clash = True
            merged.append((loc, src))
        found = merged
    return found


def _imul(a: list[int], b: list[int]) -> list[int]:
    """a b for integer coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, v in enumerate(a):
        if v:
            for j, w in enumerate(b):
                out[i + j] += v * w
    return out


def _rows_mod(rows: list[list[int]], ip: list[int]) -> list[list[int]]:
    """A positive multiple of the integer rows reduced mod ip: while a row
    reaches deg ip, every row is multiplied by the leading coefficient of ip
    (positive), and the top term of each such row is cancelled."""
    d, lead = len(ip) - 1, ip[-1]
    while any(len(r) > d for r in rows):
        rows = [_iaxpy(lead, r[:-1], [0] * (len(r) - 1 - d) + [-r[-1] * v for v in ip[:-1]])
                if len(r) > d else [lead * v for v in r] for r in rows]
    g = gcd(*(v for r in rows for v in r))
    return [[v // g for v in r] for r in rows] if g > 1 else rows


def _prem_rows(a: list[list[int]], b: list[list[int]], ip: list[int]) -> list[list[int]]:
    """A positive multiple of lc(b)^k a mod b as polynomials in y, k =
    deg a - deg b + 1, with integer rows in x reduced mod ip."""
    r, lb = a, b[-1]
    for s in range(len(a) - len(b), -1, -1):
        lead = r[-1]
        r = [_imul(c, lb) for c in r[:-1]]
        for i, v in enumerate(b[:-1]):
            r[s + i] = _iaxpy(-1, _imul(lead, v), r[s + i])
        r = _rows_mod(r, ip)
    return r


def _rows_at(rows: list[list[int]], m: Fraction) -> list[int]:
    """den^d times the polynomial in x that the rows take at y = num/den."""
    acc, dn = rows[-1], 1
    for c in reversed(rows[:-1]):
        dn *= m.denominator
        acc = _iaxpy(m.numerator, acc, [dn * v for v in c])
    return acc


def build_arrangement(scene: Scene, projection: Projection | None = None) -> Arrangement:
    return Arrangement(scene, projection)
