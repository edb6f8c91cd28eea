"""Input model: declared curve factors plus a sign-condition formula.

A Scene is a list of named bivariate factors (declared irreducible over the
reals by the user) and a formula in disjunctive normal form whose atoms
constrain factor signs.  Validation computes the scene's projection once
per check (`project_scene`: contents in x, discriminants, pair resultants),
decides squarefreeness and pairwise coprimality from it, and warns on every
factor with a rational linear factor (a factor of degree 2 or more is not
looked for); the arrangement reads the projection.  The chart-at-infinity
transform realises the second stereographic chart of the sphere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Iterable

from .bipoly import BiPoly, discriminant_y, parse_poly, resultant
from .errors import NotSquarefree, SceneError, SharedComponent
from .realroots import rational_roots
from .unipoly import UniPoly, poly_gcd, squarefree_part

RELS = (">", "<", ">=", "<=", "==", "!=")

_REL_FLIP = {">": "<", "<": ">", ">=": "<=", "<=": ">=", "==": "==", "!=": "!="}


def rel_holds(rel: str, sign: int) -> bool:
    if rel == ">":
        return sign > 0
    if rel == "<":
        return sign < 0
    if rel == ">=":
        return sign >= 0
    if rel == "<=":
        return sign <= 0
    if rel == "==":
        return sign == 0
    if rel == "!=":
        return sign != 0
    raise ValueError(f"unknown relation {rel!r}")


@dataclass(frozen=True)
class Atom:
    factor: str
    rel: str


@dataclass(frozen=True)
class Clause:
    atoms: tuple[Atom, ...]


@dataclass(frozen=True)
class Formula:
    clauses: tuple[Clause, ...]

    def holds(self, signs: dict[str, int]) -> bool:
        return any(
            all(rel_holds(a.rel, signs[a.factor]) for a in c.atoms) for c in self.clauses
        )

    def factors_used(self) -> list[str]:
        """Each factor the formula names, once, in the order it first appears."""
        return list(dict.fromkeys(a.factor for c in self.clauses for a in c.atoms))

    def with_extra_atoms(self, extra: Iterable[Atom]) -> "Formula":
        extra = tuple(extra)
        return Formula(tuple(Clause(c.atoms + extra) for c in self.clauses))


@dataclass(frozen=True)
class OpenComplement:
    """Sign condition of X minus (S union the zero sets of `zeros`): the
    formula fails and none of those factors vanishes.  It is evaluated as is,
    never expanded to a DNF, whose size can grow exponentially."""

    formula: "Formula | OpenComplement"
    zeros: frozenset[str]

    def holds(self, signs: dict[str, int]) -> bool:
        return not self.formula.holds(signs) and all(signs[n] != 0 for n in self.zeros)

    def factors_used(self) -> list[str]:
        return list(dict.fromkeys([*self.formula.factors_used(), *sorted(self.zeros)]))


def _canonical_sign(p: BiPoly) -> int:
    """+1 if the canonical-order leading coefficient is positive else -1."""
    keys = sorted(p.t, key=lambda k: (-(k[1]), -(k[0])))
    return 1 if p.t[keys[0]] > 0 else -1


@dataclass
class Scene:
    """Declared factors (name -> BiPoly) and the defining formula."""

    factors: dict[str, BiPoly]
    order: list[str]
    formula: Formula | OpenComplement
    chart: str = "affine"  # or "infinity"

    # -- construction -----------------------------------------------------------

    @staticmethod
    def build(
        declared: dict[str, BiPoly],
        order: list[str],
        clauses: list[list[tuple[str | BiPoly, str]]],
        chart: str = "affine",
    ) -> "Scene":
        """Assemble a scene from parsed data; inline polynomials are
        sign-normalised, deduplicated and auto-registered."""
        factors = dict(declared)
        names = list(order)
        by_poly: dict[frozenset, str] = {}
        for nm in names:
            p = factors[nm]
            if p.is_zero() or p.is_const():
                raise SceneError(f"factor {nm!r} is constant")
            by_poly[frozenset(p.t.items())] = nm
        out_clauses: list[Clause] = []
        counter = 0
        for clause in clauses:
            atoms: list[Atom] = []
            for subject, rel in clause:
                if isinstance(subject, str):
                    atoms.append(Atom(subject, rel))
                    continue
                p = subject
                if p.is_zero() or p.is_const():
                    raise SceneError("atom polynomial is constant")
                if _canonical_sign(p) < 0:
                    p = -p
                    rel = _REL_FLIP[rel]
                key = frozenset(p.t.items())
                if key in by_poly:
                    nm = by_poly[key]
                else:
                    counter += 1
                    nm = f"_f{counter}"
                    while nm in factors:
                        counter += 1
                        nm = f"_f{counter}"
                    factors[nm] = p
                    names.append(nm)
                    by_poly[key] = nm
                atoms.append(Atom(nm, rel))
            out_clauses.append(Clause(tuple(atoms)))
        return Scene(factors, names, Formula(tuple(out_clauses)), chart)

    @staticmethod
    def from_text(src: str) -> "Scene":
        from .parser import parse_scene_text

        return parse_scene_text(src)

    # -- queries -----------------------------------------------------------------

    def signs_at(self, x: Fraction | int, y: Fraction | int) -> dict[str, int]:
        return {n: self.factors[n].sign_at(x, y) for n in self.order}

    def member(self, x: Fraction | int, y: Fraction | int) -> bool:
        return self.formula.holds(self.signs_at(x, y))

    # -- complement ----------------------------------------------------------------

    def complement(self) -> "Scene":
        """Scene of X minus S, as a predicate on the formula."""
        return self.open_complement(())

    def minus_factor_zeros(self, names: Iterable[str]) -> "Scene":
        """Scene of S minus the zero sets of the given factors."""
        extra = tuple(Atom(n, "!=") for n in names)
        return Scene(dict(self.factors), list(self.order), self.formula.with_extra_atoms(extra), self.chart)

    def open_complement(self, zeros: Iterable[str]) -> "Scene":
        """Scene of X minus (S union the zero sets of the given factors)."""
        return Scene(dict(self.factors), list(self.order), OpenComplement(self.formula, frozenset(zeros)), self.chart)


# -- validation ---------------------------------------------------------------------


@dataclass(frozen=True)
class Projection:
    """Each factor's monic content in x (an x-only factor's is itself);
    `discriminant_y` of each factor of y-degree >= 2 keyed ``(n,)``, then the
    y-resultant of each pair of y-degree >= 1 keyed ``(a, b)``, a before b."""

    contents: dict[str, UniPoly]
    elim: dict[tuple[str, ...], UniPoly]


def project_scene(scene: Scene) -> Projection:
    """The scene's projection.  Raises `NotSquarefree` for the first factor
    whose content is not squarefree or whose discriminant vanishes (a content
    c multiplies it by a power of c only), then `SharedComponent` for the
    first pair whose contents share a factor (a gcd is taken only when both
    are nonconstant) or whose resultant vanishes."""
    contents: dict[str, UniPoly] = {}
    elim: dict[tuple[str, ...], UniPoly] = {}
    for n in scene.order:
        f = scene.factors[n]
        c = contents[n] = f.content_x()
        if f.is_zero() or squarefree_part(c).degree < c.degree:
            raise NotSquarefree(n)
        if f.deg_y >= 2:
            d = elim[(n,)] = discriminant_y(f)
            if d.is_zero():
                raise NotSquarefree(n)
    for i, a in enumerate(scene.order):
        for b in scene.order[i + 1 :]:
            f, g = scene.factors[a], scene.factors[b]
            ca, cb = contents[a], contents[b]  # a constant content shares no factor
            if ca.degree >= 1 and cb.degree >= 1 and poly_gcd(ca, cb).degree >= 1:
                raise SharedComponent(a, b)
            if f.deg_y >= 1 and g.deg_y >= 1:
                r = elim[(a, b)] = resultant(f, g, "y")
                if r.is_zero():
                    raise SharedComponent(a, b)
    return Projection(contents, elim)


def validated_projection(scene: Scene) -> tuple[Projection, list[str]]:
    """The scene's projection and its warnings.  Hard checks: the formula
    names declared factors only (the first one missing is reported), and
    `project_scene`.  A factor with a content or a rational line is warned."""
    for n in scene.formula.factors_used():
        if n not in scene.factors:
            raise SceneError(f"formula references undeclared factor {n!r}")
    proj = project_scene(scene)
    warnings = [(n, _linear_factor(scene.factors[n], proj.contents[n])) for n in scene.order]
    return proj, [f"factor {n!r} looks reducible: {w}" for n, w in warnings if w]


def validate_scene(scene: Scene) -> list[str]:
    """The warnings of `validated_projection`; raises its input errors."""
    return validated_projection(scene)[1]


def _linear_factor(p: BiPoly, cont: UniPoly) -> str | None:
    """A content in x (``cont``) or in y, or a rational line dividing p.

    Complete for lines.  A content catches every vertical line x = a when p
    depends on y, and every horizontal line when p depends on x; an x-only p
    is divisible by x - a exactly at its rational roots a.  Any other line
    y = m*x + c dividing p has m a root of the top form p_d(1, m) and c a
    root of p(0, y), which is nonzero once no content in x was found; each
    (m, c) pair of rational roots is tested by exact division.
    """
    if p.total_degree <= 1:
        return None
    if p.deg_y >= 1 and cont.degree >= 1:
        return f"content in x of degree {cont.degree}"
    if p.deg_x >= 1 and p.swap_xy().content_x().degree >= 1:
        return "content in y"
    if p.deg_y == 0:
        roots, _ = rational_roots(p.int_y_rows()[0][0])
        return f"divisible by {BiPoly({(1, 0): 1, (0, 0): -roots[0]}).to_text()}" if roots else None
    d = p.total_degree
    slopes, _ = rational_roots([r[d - j] if d - j < len(r) else 0 for j, r in enumerate(p.int_y_rows()[0])])
    if not slopes:
        return None
    intercepts, _ = rational_roots(p.int_fibre(0))
    for m in slopes:
        for c in intercepts:
            line = BiPoly({(0, 1): 1, (1, 0): -m, (0, 0): -c})
            if p.quotient(line) is not None:
                return f"divisible by {line.to_text()}"
    return None


# -- chart at infinity -----------------------------------------------------------------


def invert_poly(h: BiPoly) -> BiPoly:
    """h in the chart at infinity: the numerator P of h(x/q, y/q) * q^d, with
    q = x^2 + y^2 and d the total degree of h, with every factor q stripped,
    in its primitive integer form.

    P is a term map on h's integer rows: with k = d - i - j, the term
    c x^i y^j goes to c x^i y^j q^k = sum_r c C(k, r) x^(i+2r) y^(j+2(k-r)).
    Every term with k >= 1 vanishes modulo q, so P = h_d (mod q), h_d the top
    form of h: q divides P only when it divides h_d, and for most factors the
    first division leaves a remainder.  Each factor q is stripped by one exact
    long division on the integer rows, which stays in Z[x][y] because q is
    monic in y; the loop stops at the first nonzero remainder.  The result is
    divided by the gcd of its coefficients, a positive constant: the sign is
    never flipped, so atom relations are preserved, and a definite top form
    +-c q^k with nothing below it becomes a constant of its sign.
    """
    if h.is_zero() or h.is_const():
        raise SceneError("cannot invert a constant factor")
    rows = h.int_y_rows()[0]
    d = h.total_degree
    # p[b][a] is the coefficient of x^a y^b; every term has a + b <= 2d
    p = [[0] * (2 * d + 1) for _ in range(2 * d + 1)]
    for j, row in enumerate(rows):
        for i, c in enumerate(row):
            if c:
                k = d - i - j
                for r in range(k + 1):
                    p[j + 2 * (k - r)][i + 2 * r] += c * comb(k, r)
    while (quotient := _divide_by_q(p)) is not None:
        p = quotient
    g = gcd(*(v for row in p for v in row))
    return BiPoly._of({(a, b): Fraction(v // g) for b, row in enumerate(p) for a, v in enumerate(row) if v})


def _divide_by_q(p: list[list[int]]) -> list[list[int]] | None:
    """p / (x^2 + y^2) on integer rows p[b][a] (the coefficient of x^a y^b),
    each at least len(p) long, whose terms have a + b < len(p); None if the
    division leaves a remainder."""
    if len(p) < 3:
        return None
    rem = [row[:] for row in p]
    for b in range(len(rem) - 1, 1, -1):
        lower = rem[b - 2]
        for a, v in enumerate(rem[b]):
            if v:
                lower[a + 2] -= v
    if any(rem[0]) or any(rem[1]):
        return None
    return rem[2:]


def invert_scene(scene: Scene) -> Scene:
    """Image of the scene in the opposite stereographic chart.

    Factors transform by the inversion substitution; atoms keep their
    relations (the substitution multiplier q^deg is positive off the pole).
    A factor whose zero set is the origin alone (a positive-definite form)
    inverts to a positive constant: its atoms are decided and folded away.
    The origin of the new chart represents the pole.
    """
    if scene.chart != "affine":
        raise SceneError("invert_scene expects the affine chart")
    factors: dict[str, BiPoly] = {}
    const_sign: dict[str, int] = {}
    order: list[str] = []
    for n in scene.order:
        q = invert_poly(scene.factors[n])
        if q.is_const():
            const_sign[n] = 1 if q.t.get((0, 0), Fraction(0)) > 0 else -1
        else:
            factors[n] = q
            order.append(n)
    clauses: list[Clause] = []
    for c in scene.formula.clauses:
        atoms: list[Atom] = []
        dead = False
        for a in c.atoms:
            if a.factor in const_sign:
                if not rel_holds(a.rel, const_sign[a.factor]):
                    dead = True
                    break
            else:
                atoms.append(a)
        if not dead:
            clauses.append(Clause(tuple(atoms)))
    return Scene(factors, order, Formula(tuple(clauses)), chart="infinity")
