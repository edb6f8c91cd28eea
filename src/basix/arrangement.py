"""Decomposition of the plane by the declared curves.

The construction is cylindrical: critical abscissae (discriminants, pairwise
resultants, leading-coefficient zeros, vertical lines) cut the x-axis into
slabs; curve branches are isolated over rational sample abscissae; walls at
critical abscissae are analysed exactly to decide which branch ends meet at
which points.  Cells are then merged across transparent walls, so regions are
true connected components of the complement of the curves and edges are
maximal smooth curve pieces between vertices.

The arrangement depends on the factors only.  Each region, edge and vertex
stores its factor sign vector; which cells a formula selects is decided on
top of it, by `decompose.decompose_set`, so sets with the same curves share
one arrangement.

Region and curve-edge signs are read off the slab stacks by parity.  At a
slab sample x_s no wall lies, so the leading coefficient lc_y f does not
vanish there and, for deg_y f >= 2, neither does discriminant_y f: f(x_s, y)
keeps its full degree and has only simple real roots, and the stack holds
every one of them in order.  Each simple root flips the sign of f(x_s, y),
so at a point of the slab above the first k stack entries f has the sign
of lc_y f(x_s) times (-1) to the number of f's entries above position k;
an x-only factor has its sign at x_s.  Only vertices, whose coordinates may
be irrational, and vertical edges are signed by evaluation.

Everything is exact.  Every located coordinate (a wall abscissa, a branch
or wall-point ordinate, a vertex) is a `RootLocator`, refinable on demand;
a rational one is an exact locator with ``lo == hi``.  Any configuration
that cannot be certified within the refinement caps raises Unsupported
instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .bipoly import BiPoly, discriminant_y, resultant
from .errors import InternalError, Unsupported
from .realroots import (
    RootLocator,
    between,
    clear_of_roots,
    count_roots_below,
    isolate_real_roots,
    refine_disjoint,
    roots_equal,
    separate,
    simplest_in,
)
from .scene import Scene
from .unipoly import UniPoly, squarefree_part

F = Fraction

_MATCH_ROUNDS = 64
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
    y: RootLocator
    factors: set[str]
    left: list[tuple[str, int]]
    right: list[tuple[str, int]]
    is_pass: bool


@dataclass
class Wall:
    x: RootLocator
    line_factor: str | None
    points: list[WallPoint] = field(default_factory=list)
    fates: dict[tuple[str, str, int], tuple] = field(default_factory=dict)
    expo_left: list[tuple[int, int]] = field(default_factory=list)
    expo_right: list[tuple[int, int]] = field(default_factory=list)

    def exact_x(self) -> Fraction | None:
        return self.x.exact


# --------------------------------------------------------------------------- build


class Arrangement:
    """Vertices, edges and regions of the curve arrangement, with adjacency
    and sign vectors; only the scene's factors, order and chart are kept."""

    def __init__(self, scene: Scene):
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
        self.edge_of_piece: dict[tuple[int, str, int], int] = {}
        self.curvy: dict[str, BiPoly] = {}
        self.vlines: dict[str, Fraction] = {}
        self.pole_touched = False
        self._edges_at_vertex: dict[int, list[int]] = {}
        self._elim_cache: dict[tuple, UniPoly] = {}
        # (factor, level) -> primitive integer form of factor(x, level)
        self._level_forms: dict[tuple[str, Fraction], list[int]] = {}
        self._build()

    # ---------------------------------------------------------------- stage 1

    def _build(self) -> None:
        for name in self.order:
            p = self.factors[name]
            if p.deg_y >= 1:
                self.curvy[name] = p
            else:
                u = p.y_coeffs()[0]
                if u.degree != 1:
                    raise Unsupported(
                        "NonRationalShearNeeded",
                        f"factor {name!r} is an x-only polynomial of degree {u.degree}",
                    )
                self.vlines[name] = -u.c[0] / u.c[1]

        crit_polys: list[UniPoly] = []
        names = list(self.curvy)
        for n in names:
            f = self.curvy[n]
            if f.deg_y >= 2:
                d = discriminant_y(f)
                if d.is_zero():
                    raise InternalError(f"factor {n!r} is not squarefree, ruled out by validate_scene")
                crit_polys.append(d)
            lc = f.y_coeffs()[-1]
            if lc.degree >= 1:
                crit_polys.append(lc)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                r = resultant(self.curvy[names[i]], self.curvy[names[j]], "y")
                if r.is_zero():
                    raise InternalError(f"factors {names[i]!r}, {names[j]!r} share a component, ruled out by validate_scene")
                crit_polys.append(r)
        for v in self.vlines.values():
            crit_polys.append(UniPoly([-v, 1]))

        prod = UniPoly.one()
        for p in crit_polys:
            sf = squarefree_part(p)
            if sf.degree >= 1:
                prod = prod * sf
        locs = isolate_real_roots(prod) if prod.degree >= 1 else []
        refine_disjoint(locs)
        separate(locs)

        for loc in locs:
            lf = None
            for n, v in self.vlines.items():
                if loc.exact == v or (loc.exact is None and loc.contains(v) and loc.p.eval(v) == 0):
                    lf = n
                    loc.exact = v
                    loc.lo = loc.hi = v
            self.walls.append(Wall(x=loc, line_factor=lf))

        # ------------------------------------------------------------ stage 2

        samples: list[Fraction] = []
        if not self.walls:
            samples.append(F(0))
        else:
            samples.append(locs[0].lo - 1)
            samples += [between(a, b) for a, b in zip(locs, locs[1:])]
            samples.append(locs[-1].hi + 1)
        self.slab_samples = samples

        for s in samples:
            per_factor: list[tuple[str, int, RootLocator]] = []
            top: dict[str, int] = {}
            for n in self.order:
                if n not in self.curvy:
                    top[n] = self.factors[n].sign_at(s, 0)
                    continue
                u = self.curvy[n].specialize_x(s)
                if u.is_zero():
                    raise Unsupported("VerticalComponent", f"factor {n!r} vanishes on x = {s}")
                top[n] = 1 if u.lc() > 0 else -1
                if u.degree < 1:
                    continue
                for i, loc in enumerate(isolate_real_roots(u)):
                    per_factor.append((n, i, loc))
            refine_disjoint([t[2] for t in per_factor])
            per_factor.sort(key=lambda t: t[2].lo)
            self.stacks.append(per_factor)
            self.top_signs.append(top)

        # ------------------------------------------------------------ stage 3

        for wi, wall in enumerate(self.walls):
            if wall.exact_x() is not None:
                self._analyse_exact_wall(wi, wall)
            else:
                self._analyse_irrational_wall(wi, wall)

        # ------------------------------------------------------------ stage 4

        self._assemble()

    # ------------------------------------------------------------- wall analysis

    def _branch_count(self, slab: int, factor: str) -> int:
        return sum(1 for (n, _i, _l) in self.stacks[slab] if n == factor)

    def _branch_positions(self, slab: int, factor: str, x_at: Fraction) -> list[RootLocator]:
        if x_at == self.slab_samples[slab]:
            # stage 2 isolated these roots already; copies keep the stack's
            # intervals, which the gap samples read, as they are
            return [RootLocator(l.p, l.lo, l.hi, l.exact) for (n, _i, l) in self.stacks[slab] if n == factor]
        u = self.curvy[factor].specialize_x(x_at)
        locs = isolate_real_roots(u) if u.degree >= 1 else []
        if len(locs) != self._branch_count(slab, factor):
            raise Unsupported("BranchCountDrift", f"{factor} at x={x_at}")
        return locs

    def _analyse_exact_wall(self, wi: int, wall: Wall, cx: Fraction | None = None) -> None:
        cx = wall.exact_x() if cx is None else cx
        if cx is None:
            raise InternalError("exact wall analysis on a wall with no rational abscissa")
        roots_by_factor: dict[str, list[RootLocator]] = {}
        for n, f in self.curvy.items():
            u = f.specialize_x(cx)
            if u.is_zero():
                raise Unsupported("VerticalComponent", f"factor {n!r} contains x = {cx}")
            roots_by_factor[n] = isolate_real_roots(u) if u.degree >= 1 else []

        clusters: list[tuple[RootLocator, set[str]]] = []
        for n, locs in roots_by_factor.items():
            for loc in locs:
                for k, (rep, fs) in enumerate(clusters):
                    if n not in fs and roots_equal(rep, loc):
                        fs.add(n)
                        break
                else:
                    clusters.append((loc, {n}))
        refine_disjoint([c[0] for c in clusters])
        clusters.sort(key=lambda c: c[0].lo)
        separate([c[0] for c in clusters])

        points = [WallPoint(y=rep, factors=set(fs), left=[], right=[], is_pass=False) for rep, fs in clusters]

        levels = self._levels_between(points)
        for side, slab in (("L", wi), ("R", wi + 1)):
            for n in self.curvy:
                if self._branch_count(slab, n) == 0:
                    continue
                fates = self._match_side(n, slab, side, wall, levels)
                for idx, fate in enumerate(fates):
                    if fate[0] == "point":
                        k = fate[1]
                        if n not in points[k].factors:
                            raise InternalError("branch matched to a foreign wall point")
                        (points[k].left if side == "L" else points[k].right).append((n, idx))
                    wall.fates[(side, n, idx)] = fate

        for p in points:
            p.is_pass = (
                wall.line_factor is None
                and len(p.factors) == 1
                and len(p.left) == 1
                and len(p.right) == 1
            )
        wall.points = points

    @staticmethod
    def _levels_between(points: list[WallPoint]) -> list[Fraction]:
        """Rational levels strictly separating consecutive wall points, plus
        sentinels beyond the extremes; levels avoid every curve at the wall."""
        if not points:
            return [F(0)]
        out = [points[0].y.lo - 1]
        out += [between(a.y, b.y) for a, b in zip(points, points[1:])]
        out.append(points[-1].y.hi + 1)
        return out

    def _match_side(
        self,
        factor: str,
        slab: int,
        side: str,
        wall: Wall,
        levels: list[Fraction],
    ) -> list[tuple]:
        """Fate of each branch of `factor` in `slab` approaching `wall`:
        ('point', k) for convergence into the k-th level gap (= wall point k),
        ('up',) / ('down',) for escapes beyond the outermost levels."""
        x_at = self.slab_samples[slab]
        n_br = self._branch_count(slab, factor)

        for _round in range(_MATCH_ROUNDS):
            wlo, whi = wall.x.lo, wall.x.hi
            span = (x_at, whi) if side == "L" else (wlo, x_at)
            if all(self._level_clear(factor, lv, *span) for lv in levels):
                positions = self._branch_positions(slab, factor, x_at)
                fates: list[tuple | None] = [None] * n_br
                done = True
                for i, pos in enumerate(positions):
                    plo, phi = pos.lo, pos.hi
                    fate: tuple | None = None
                    if plo > levels[-1]:
                        fate = ("up",)
                    elif phi < levels[0]:
                        fate = ("down",)
                    else:
                        for k in range(len(levels) - 1):
                            if levels[k] < plo and phi < levels[k + 1]:
                                fate = ("point", k)
                                break
                    if fate is None:
                        done = False
                        break
                    fates[i] = fate
                if done:
                    return fates  # type: ignore[return-value]
            x_at = (x_at + (whi if side == "L" else wlo)) / 2
            wall.x.refine()
        raise Unsupported("WallMatchCap", f"{factor} near wall x in {(wall.x.lo, wall.x.hi)}")

    # .......................................................... irrational walls

    def _analyse_irrational_wall(self, wi: int, wall: Wall) -> None:
        if wall.line_factor is not None:
            raise InternalError("irrational wall analysis on a vertical-line wall")
        xl, xr = self.slab_samples[wi], self.slab_samples[wi + 1]

        for _round in range(_MATCH_ROUNDS):
            wlo, whi = wall.x.lo, wall.x.hi
            width = xr - xl
            items: list[tuple[str, str, int, RootLocator]] = []
            for n in self.curvy:
                for i, l in enumerate(self._branch_positions(wi, n, xl)):
                    items.append(("L", n, i, l))
                for i, l in enumerate(self._branch_positions(wi + 1, n, xr)):
                    items.append(("R", n, i, l))
            for t in items:
                t[3].refine_below(width / 16)
            items.sort(key=lambda t: t[3].lo)

            # clusters = maximal groups of branch ends not separable by a level
            # line that is certifiably clear of their curves over the span
            clusters = self._split_cluster(items, xl, xr) if items else []

            if self._legalize_clusters(wi, wall, clusters, xl, xr):
                return
            xl = (xl + wlo) / 2
            xr = (xr + whi) / 2
            wall.x.refine()
        raise Unsupported("IrrationalTangency", f"wall x in {(wall.x.lo, wall.x.hi)} unresolved")

    def _level_clear(self, factor: str, lv: Fraction, a: Fraction, b: Fraction) -> bool:
        """Whether the line y = lv misses the factor's curve over [a, b].
        Each (factor, level) is specialised once per arrangement: the walls'
        matching rounds only shrink the span, and both sides of a wall, and
        the clusters of an irrational one, test the same levels."""
        key = (factor, lv)
        c = self._level_forms.get(key)
        if c is None:
            c = self._level_forms[key] = self.curvy[factor].specialize_y(lv).int_primitive()
        return bool(c) and clear_of_roots(c, a, b)

    def _split_cluster(self, cl: list, xl: Fraction, xr: Fraction) -> list[list]:
        if len(cl) <= 1:
            return [cl]
        for cut in range(1, len(cl)):
            lo = max(t[3].hi for t in cl[:cut])
            hi = min(t[3].lo for t in cl[cut:])
            if lo >= hi:
                continue
            m = simplest_in(lo, hi)
            if all(self._level_clear(n, m, xl, xr) for n in {t[1] for t in cl}):
                return self._split_cluster(cl[:cut], xl, xr) + self._split_cluster(cl[cut:], xl, xr)
        return [cl]

    def _elim_x(self, f: BiPoly, g: BiPoly) -> UniPoly:
        """Polynomial in y whose roots contain the y-coordinates of common
        zeros of f and g."""
        if f.deg_x == 0:
            return _as_y_poly(f)
        if g.deg_x == 0:
            return _as_y_poly(g)
        return resultant(f, g, "x")

    def _vertex_y_locator(
        self, factors: set[str], lo: Fraction, hi: Fraction, wall: Wall
    ) -> RootLocator | None:
        """A refinable locator for a vertex ordinate inside the trapping window
        (lo, hi): among the roots of the elimination polynomial there, foreign
        ones (ordinates of critical or crossing points elsewhere on the curves)
        are excluded by interval evaluation of the defining system over the
        wall box; the unique survivor is the vertex.  None if undecided yet."""
        fs = sorted(factors)
        key = tuple(fs)
        if key in self._elim_cache:
            r = self._elim_cache[key]
        else:
            if len(fs) == 1:
                f = self.curvy[fs[0]]
                r = self._elim_x(f, f.partial_y())
            else:
                r = self._elim_x(self.curvy[fs[0]], self.curvy[fs[1]])
            self._elim_cache[key] = r
        if r.is_zero() or r.degree < 1:
            return None
        cands = list(isolate_real_roots(r, lo, hi))
        if not cands:
            return None
        if len(fs) == 1:
            f = self.curvy[fs[0]]
            system = (f, f.partial_y())
        else:
            system = (self.curvy[fs[0]], self.curvy[fs[1]])
        for _ in range(24):
            if len(cands) == 1:
                return cands[0]
            kept = []
            for c in cands:
                excluded = False
                for g in system:
                    glo, ghi = g.interval_eval(wall.x.lo, wall.x.hi, c.lo, c.hi)
                    if glo > 0 or ghi < 0:
                        excluded = True
                        break
                if not excluded:
                    kept.append(c)
            if not kept:
                return None
            cands = kept
            for c in cands:
                c.refine()
            wall.x.refine()
        return None

    def _legalize_clusters(self, wi: int, wall: Wall, clusters: list[list], xl: Fraction, xr: Fraction) -> bool:
        if not clusters:
            wall.points = []
            wall.fates = {}
            return True
        hulls = [
            (min(t[3].lo for t in cl), max(t[3].hi for t in cl))
            for cl in clusters
        ]
        # trapping levels must sit in the gaps BETWEEN clusters (distinct limit
        # points guarantee the gaps persist; hull-hugging levels would be
        # crossed by the branch bulge near the wall forever)
        for (a, b), (c, d) in zip(hulls, hulls[1:]):
            if b >= c:
                return False
        levels = [hulls[0][0] - 1]
        for (_a, b), (c, _d) in zip(hulls, hulls[1:]):
            levels.append(simplest_in(b, c))
        levels.append(hulls[-1][1] + 1)

        points: list[WallPoint] = []
        fates: dict[tuple[str, str, int], tuple] = {}
        escapes: list[tuple[str, str, int, str]] = []

        for ci, cl in enumerate(clusters):
            sidesL = [t for t in cl if t[0] == "L"]
            sidesR = [t for t in cl if t[0] == "R"]
            factors = {t[1] for t in cl}
            lo, hi = levels[ci], levels[ci + 1]
            if not all(self._level_clear(n, lv, xl, xr) for n in factors for lv in (lo, hi)):
                return False
            nL, nR = len(sidesL), len(sidesR)

            if nL + nR == 1:
                # a lone branch end: its partner cannot sit in another cluster
                # (separated clusters have distinct limits), so it escapes;
                # it must already be the extreme cluster, else keep refining
                t = cl[0]
                if ci == len(clusters) - 1:
                    escapes.append((t[0], t[1], t[2], "up"))
                    continue
                if ci == 0:
                    escapes.append((t[0], t[1], t[2], "down"))
                    continue
                return False
            if nL == 1 and nR == 1 and len(factors) == 1:
                n = cl[0][1]
                points.append(
                    WallPoint(y=sidesL[0][3], factors={n}, left=[(n, sidesL[0][2])], right=[(n, sidesR[0][2])], is_pass=True)
                )
                continue
            if len(factors) == 1 and nL + nR == 2 and (nL == 2 or nR == 2):
                n = next(iter(factors))
                yloc = self._vertex_y_locator({n}, lo, hi, wall)
                if yloc is None:
                    return False
                points.append(
                    WallPoint(
                        y=yloc,
                        factors={n},
                        left=[(n, t[2]) for t in sidesL],
                        right=[(n, t[2]) for t in sidesR],
                        is_pass=False,
                    )
                )
                continue
            if (
                len(factors) == 2
                and nL == 2
                and nR == 2
                and all(sum(1 for t in side if t[1] == n) == 1 for side in (sidesL, sidesR) for n in factors)
            ):
                orderL = [t[1] for t in sorted(sidesL, key=lambda t: t[3].lo)]
                orderR = [t[1] for t in sorted(sidesR, key=lambda t: t[3].lo)]
                if orderL == orderR:
                    return False
                yloc = self._vertex_y_locator(factors, lo, hi, wall)
                if yloc is None:
                    return False
                points.append(
                    WallPoint(
                        y=yloc,
                        factors=set(factors),
                        left=[(t[1], t[2]) for t in sidesL],
                        right=[(t[1], t[2]) for t in sidesR],
                        is_pass=False,
                    )
                )
                continue
            return False

        for k, p in enumerate(points):
            for n, i in p.left:
                fates[("L", n, i)] = ("point", k)
            for n, i in p.right:
                fates[("R", n, i)] = ("point", k)
        for side, n, i, direction in escapes:
            fates[(side, n, i)] = (direction,)
        for side, slab in (("L", wi), ("R", wi + 1)):
            for n in self.curvy:
                for i in range(self._branch_count(slab, n)):
                    if (side, n, i) not in fates:
                        return False
        wall.points = points
        wall.fates = fates
        return True

    # ----------------------------------------------------------------- assembly

    def _fatepos(self, wall: Wall, side: str, factor: str, idx: int) -> int:
        fate = wall.fates[(side, factor, idx)]
        if fate[0] == "point":
            return fate[1]
        return len(wall.points) if fate[0] == "up" else -1

    def _gap_exposure(self, wall: Wall, side: str, slab: int, gap: int) -> tuple[int, int]:
        st = self.stacks[slab]
        lo = -1 if gap == 0 else self._fatepos(wall, side, st[gap - 1][0], st[gap - 1][1])
        hi = len(wall.points) if gap == len(st) else self._fatepos(wall, side, st[gap][0], st[gap][1])
        return lo, hi

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
                self.edge_of_piece[(s, n, i)] = e.eid
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
            gl = next(g for g, (lo, hi) in enumerate(wall.expo_left) if lo <= a and b <= hi)
            gr = next(g for g, (lo, hi) in enumerate(wall.expo_right) if lo <= a and b <= hi)
            e = Edge(eid=len(self.edges), factor=wall.line_factor or "?", vertical=True)
            e.wall_index = wi
            e.seg = (a, b)
            e.side_above = self.region_of_gap[(wi, gl)]
            e.side_below = self.region_of_gap[(wi + 1, gr)]
            lo_end = ("pole",) if a == -1 else ("vertex", vid_of[(wi, a)])
            hi_end = ("pole",) if b == len(wall.points) else ("vertex", vid_of[(wi, b)])
            e.ends = (lo_end, hi_end)
            e.unbounded = ("pole",) in e.ends
            e.signs = self._vertical_edge_signs(e)
            self.edges.append(e)

        self.pole_touched = any(e.unbounded for e in self.edges)

        self._edges_at_vertex = {v.vid: [] for v in self.vertices}
        for e in self.edges:
            for end in e.ends:
                if end and end[0] == "vertex":
                    self._edges_at_vertex[end[1]].append(e.eid)

        for v in self.vertices:
            v.signs = self._vertex_signs(v)

    def _chain_end(self, piece: tuple[int, str, int], side: str, vid_of) -> tuple:
        s, n, i = piece
        if side == "L":
            if s == 0:
                return ("pole",)
            wall = self.walls[s - 1]
            fate = wall.fates[("R", n, i)]
        else:
            if s == len(self.slab_samples) - 1:
                return ("pole",)
            wall = self.walls[s]
            fate = wall.fates[("L", n, i)]
        if fate[0] != "point":
            return ("pole",)
        wi = s - 1 if side == "L" else s
        if wall.points[fate[1]].is_pass:
            raise InternalError("chain end at a pass point")
        return ("vertex", vid_of[(wi, fate[1])])

    def _gap_sample(self, s: int, g: int) -> tuple[Fraction, Fraction]:
        st = self.stacks[s]
        x = self.slab_samples[s]
        if not st:
            return x, F(0)
        if g == 0:
            return x, st[0][2].lo - 1
        if g == len(st):
            return x, st[-1][2].hi + 1
        return x, between(st[g - 1][2], st[g][2])

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

    def _vertical_edge_signs(self, e: Edge) -> dict[str, int]:
        signs: dict[str, int] = {e.factor: 0}
        x, y = self.vertical_edge_sample(e)
        for n, p in self.factors.items():
            if n == e.factor:
                continue
            s = p.sign_at(x, y)
            if s == 0:
                raise Unsupported("EdgeSampleOnCurve", f"{n} vanishes on a vertical edge sample")
            signs[n] = s
        return signs

    def vertical_edge_sample(self, e: Edge) -> tuple[Fraction, Fraction]:
        wall = self.walls[e.wall_index]  # type: ignore[index]
        cx = wall.exact_x()
        if cx is None or e.seg is None:
            raise InternalError("vertical edge sample off an exact wall segment")
        a, b = e.seg
        if a == -1 and b == len(wall.points):
            return cx, F(0)
        if a == -1:
            return cx, wall.points[b].y.lo - 1
        if b == len(wall.points):
            return cx, wall.points[a].y.hi + 1
        return cx, between(wall.points[a].y, wall.points[b].y)

    def edge_sample(self, e: Edge) -> tuple[Fraction, Fraction | RootLocator]:
        if e.vertical:
            return self.vertical_edge_sample(e)
        s0, _i, loc = e.pieces[0]
        return self.slab_samples[s0], loc

    def _vertex_signs(self, v: Vertex) -> dict[str, int]:
        signs: dict[str, int] = {}
        pt = v.point()
        for n, p in self.factors.items():
            if n in v.factors:
                signs[n] = 0
            elif pt is not None:
                signs[n] = p.sign_at(*pt)
            else:
                signs[n] = bipoly_sign_on_box(p, v.box())
        return signs

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
            wall = self.walls[v.wall_index]
            k = v.item_index
            for g, (lo, hi) in enumerate(wall.expo_left):
                if lo < k < hi or (lo <= k - 1 and k + 1 <= hi):
                    rids.add(self.region_of_gap[(v.wall_index, g)])
                    break
        return rids

    def euler_characteristic_sphere(self) -> int:
        return len(self.vertices) + (1 if self.pole_touched else 0) - len(self.edges) + len(self.regions)

    # ------------------------------------------------------------ point location

    def locate(self, x: Fraction, y: Fraction) -> tuple[str, int]:
        """('region'|'edge'|'vertex', id) of the cell containing a rational point."""
        x, y = F(x), F(y)
        for wi, wall in enumerate(self.walls):
            cx = wall.exact_x()
            if cx is not None:
                if x == cx:
                    return self._locate_on_wall(wi, wall, y)
            else:
                while wall.x.lo < x < wall.x.hi:
                    wall.x.refine()
        slab = 0
        for wall in self.walls:
            if x > wall.x.hi:
                slab += 1
            else:
                break
        for n, f in self.curvy.items():
            if f.eval(x, y) == 0:
                idx = count_roots_below(f.specialize_x(x), y)
                return ("edge", self.edge_of_piece[(slab, n, idx)])
        below = 0
        for n, f in self.curvy.items():
            u = f.specialize_x(x)
            if u.degree >= 1:
                below += count_roots_below(u, y)
        return ("region", self.region_of_gap[(slab, below)])

    def _locate_on_wall(self, wi: int, wall: Wall, y: Fraction) -> tuple[str, int]:
        cx = wall.exact_x()
        if cx is None:
            raise InternalError("point location on a wall with no rational abscissa")
        for k, p in enumerate(wall.points):
            loc = p.y
            if loc.exact is not None:
                if y == loc.exact:
                    return self._wall_point_cell(wi, k, p)
                continue
            if loc.contains(y):
                if loc.p.eval(y) == 0:
                    return self._wall_point_cell(wi, k, p)
                while loc.exact is None and loc.contains(y):
                    loc.refine()
                if loc.exact is not None and loc.exact == y:
                    return self._wall_point_cell(wi, k, p)
        below = 0
        for p in wall.points:
            while p.y.lo <= y <= p.y.hi:
                p.y.refine()
            if p.y.hi < y:
                below += 1
        if wall.line_factor is not None:
            seg = (below - 1, below)
            for e in self.edges:
                if e.vertical and e.wall_index == wi and e.seg == seg:
                    return ("edge", e.eid)
            raise InternalError("vertical edge segment not found")
        for g, (lo, hi) in enumerate(wall.expo_left):
            if lo <= below - 1 and below <= hi:
                return ("region", self.region_of_gap[(wi, g)])
        raise InternalError("wall segment not covered by any gap exposure")

    def _wall_point_cell(self, wi: int, k: int, p: WallPoint) -> tuple[str, int]:
        if p.is_pass:
            n, i = p.left[0]
            return ("edge", self.edge_of_piece[(wi, n, i)])
        for v in self.vertices:
            if v.wall_index == wi and v.item_index == k:
                return ("vertex", v.vid)
        raise InternalError("wall point without a vertex")

    def region_of_point(self, x: Fraction, y: Fraction) -> int:
        kind, idx = self.locate(x, y)
        if kind != "region":
            raise InternalError(f"point ({x}, {y}) lies on a curve cell")
        return idx


def _as_y_poly(p: BiPoly) -> UniPoly:
    """A bivariate polynomial with deg_x = 0 as a univariate in y."""
    if p.deg_x != 0:
        raise InternalError("_as_y_poly on a polynomial that depends on x")
    return p.swap_xy().y_coeffs()[0] if p.deg_y == 0 else UniPoly(
        [p.t.get((0, j), F(0)) for j in range(p.deg_y + 1)]
    )


def build_arrangement(scene: Scene) -> Arrangement:
    return Arrangement(scene)
