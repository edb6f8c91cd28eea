"""SVG rendering of a set decomposition: curves, shaded member regions, labels.

Coordinates are rendered at fixed decimal precision; the numbers here are for
display only and never feed back into any decision logic.
"""

from __future__ import annotations

from fractions import Fraction

from .arrangement import Arrangement
from .decompose import SetDecomposition
from .realroots import RootLocator, isolate_real_roots

F = Fraction

_PREC = 4  # decimal digits in rendered coordinates


def _px(v: Fraction, scale: float, off: float) -> float:
    return round(float(v) * scale + off, _PREC)


def _mid(loc: RootLocator) -> Fraction:
    """The located number, to the drawing's precision."""
    loc.refine_below(F(1, 10**_PREC))
    return (loc.lo + loc.hi) / 2


def render_svg(d: SetDecomposition, width: int = 480, window: float = 4.0) -> str:
    """A window [-w, w]^2 view: member-region shading by point grid, curve
    polylines traced from the stacks, component labels at region samples."""
    arr, scene = d.arrangement, d.scene
    scale = width / (2 * window)
    off = width / 2

    def X(v):
        return _px(v, scale, off)

    def Y(v):
        return _px(-v, scale, off)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{width}" '
        f'viewBox="0 0 {width} {width}">',
        f'<rect width="{width}" height="{width}" fill="white"/>',
    ]

    # shading: a coarse rational grid, exact membership per cell
    n = 60
    step = F(2 * int(window * 100), 100) / n
    cell = width / n
    x0 = -F(int(window * 100), 100)
    for i in range(n):
        for j in range(n):
            px = x0 + step * i + step / 2
            py = x0 + step * j + step / 2
            if scene.member(px, py):
                out.append(
                    f'<rect x="{round(i * cell, 2)}" y="{round(width - (j + 1) * cell, 2)}" '
                    f'width="{round(cell, 2)}" height="{round(cell, 2)}" fill="#9ecae1" fill-opacity="0.55"/>'
                )

    # curves: joined samples along each slab branch
    for eid, e in enumerate(arr.edges):
        if e.vertical:
            wall = arr.walls[e.wall_index]
            cx = wall.exact_x()
            pts = [(X(cx), 0.0), (X(cx), float(width))]
            out.append(
                f'<polyline fill="none" stroke="#333" stroke-width="1.2" '
                f'points="{pts[0][0]},{pts[0][1]} {pts[1][0]},{pts[1][1]}"/>'
            )
            continue
        poly = arr.factors[e.factor]
        pts2 = []
        for (s, i, loc) in e.pieces:
            xs = arr.slab_samples[s]
            pts2.append((X(xs), Y(_mid(loc))))
            # refine with intermediate samples across the slab
            span = _slab_span(arr, s, window)
            for k in range(1, 8):
                xq = span[0] + (span[1] - span[0]) * F(k, 8)
                u = poly.specialize_x(xq)
                if u.degree < 1:
                    continue
                roots = isolate_real_roots(u)
                if i < len(roots):
                    pts2.append((X(xq), Y(_mid(roots[i]))))
        pts2.sort()
        body = " ".join(f"{a},{b}" for a, b in pts2)
        out.append(f'<polyline fill="none" stroke="#d62728" stroke-width="1.4" points="{body}"/>')

    # labels for complement components
    for i, comp in enumerate(d.a_components):
        rid = min(comp)
        sx, sy = arr.regions[rid].sample
        if abs(sx) <= window and abs(sy) <= window:
            out.append(
                f'<text x="{X(sx)}" y="{Y(sy)}" font-size="12" fill="#555">A{i}</text>'
            )
    out.append("</svg>")
    return "\n".join(out)


def _slab_span(arr: Arrangement, s: int, window: float) -> tuple[Fraction, Fraction]:
    lo = -F(int(window * 100), 100)
    hi = F(int(window * 100), 100)
    if s > 0:
        lo = max(lo, arr.walls[s - 1].x.hi)
    if s < len(arr.walls):
        hi = min(hi, arr.walls[s].x.lo)
    if lo >= hi:
        return lo, lo + F(1, 100)
    return lo, hi
