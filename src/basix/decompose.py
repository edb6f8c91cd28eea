"""Set-level structure on top of an arrangement.

An arrangement stores a sign vector per cell; `decompose_set` flags the cells
whose vectors satisfy a scene's formula.  Every set with the same curves (S,
its reduction S minus Z, the complement of S union Z) is decomposed over the
same arrangement this way.  On top of the flags it computes the Zariski
boundary Z (factors carrying boundary edges), the connected components of the
complement of S union Z, and the cell-wise openness, closedness and
interior-of-closure tests used by the dimension prechecks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arrangement import Arrangement, Edge, UnionFind
from .errors import InternalError
from .scene import Scene

F = Fraction


@dataclass
class SetDecomposition:
    arrangement: Arrangement
    scene: Scene  # the formula the cells were flagged with
    # membership flags by cell
    s_regions: set[int] = field(default_factory=set)
    s_edges: set[int] = field(default_factory=set)
    s_vertices: set[int] = field(default_factory=set)
    # derived structure
    boundary_edges: set[int] = field(default_factory=set)
    zariski_boundary: set[str] = field(default_factory=set)
    a_components: list[set[int]] = field(default_factory=list)  # region ids per component
    a_of_region: dict[int, int] = field(default_factory=dict)
    s_meets_boundary: str = "empty"  # 'empty' | 'finite' | 'one_dimensional'
    # region sign vector -> the tag all regions with it share, or None
    _sign_tags: dict[tuple[int, ...], tuple | None] | None = field(default=None, repr=False, compare=False)

    # ---------------------------------------------------------------- queries

    def _region_tag(self, rid: int) -> tuple:
        if rid in self.s_regions:
            return ("in_S",)
        i = self.a_of_region.get(rid)
        if i is not None:
            return ("in_A", i)
        return ("unsigned", rid)

    def tag_of_signs(self, signs: dict[str, int]) -> tuple | None:
        """The tag shared by every region with this sign vector, or None when
        regions with it carry different tags or no region has it.

        Exact wherever a place is known to lie in one region with these
        signs (a point off the curves, or a half-arc near its centre): that
        region is one of those the tag was read from.  The table is built
        from the regions' stored sign vectors on the first lookup."""
        if self._sign_tags is None:
            self._sign_tags = {}
            for r in self.arrangement.regions:
                key = tuple(r.signs[n] for n in self.scene.order)
                tag = self._region_tag(r.rid)
                self._sign_tags[key] = tag if self._sign_tags.get(key, tag) == tag else None
        return self._sign_tags.get(tuple(signs[n] for n in self.scene.order))

    def tag_at(self, x: Fraction, y: Fraction) -> tuple:
        """('in_S',) | ('in_A', component) | ('unsigned', region) for the
        region holding a rational point off the curves.  The point's sign
        vector decides it when every region with that vector has one tag
        (`tag_of_signs`); only otherwise is the point located in the
        arrangement, which also rejects a point on a curve."""
        tag = self.tag_of_signs(self.scene.signs_at(x, y))
        return tag if tag is not None else self.located_tag(x, y)

    def located_tag(self, x: Fraction, y: Fraction) -> tuple:
        """`tag_at`, always by locating the point in the arrangement
        (`Arrangement.region_of_point`)."""
        return self._region_tag(self.arrangement.region_of_point(x, y))

    def edge_in_closure(self, e: Edge) -> bool:
        return e.eid in self.s_edges or e.side_above in self.s_regions or e.side_below in self.s_regions

    def edge_in_interior(self, e: Edge) -> bool:
        return e.eid in self.s_edges and e.side_above in self.s_regions and e.side_below in self.s_regions


def decompose_set(arr: Arrangement, scene: Scene) -> SetDecomposition:
    """Flag the cells whose sign vectors satisfy the scene's formula and derive
    the set-level structure.  The scene must have the arrangement's factors."""
    if scene.order != arr.order or scene.chart != arr.chart:
        raise InternalError("scene and arrangement have different factors")
    holds = scene.formula.holds
    d = SetDecomposition(arr, scene)
    d.s_regions = {r.rid for r in arr.regions if holds(r.signs)}
    d.s_edges = {e.eid for e in arr.edges if holds(e.signs)}
    d.s_vertices = {v.vid for v in arr.vertices if holds(v.signs)}

    # boundary edges: in the closure of S but not in its interior
    for e in arr.edges:
        closure = d.edge_in_closure(e)
        interior = d.edge_in_interior(e)
        if closure and not interior:
            d.boundary_edges.add(e.eid)
    d.zariski_boundary = {arr.edges[eid].factor for eid in d.boundary_edges}

    # S meets its Zariski boundary: cells of S on boundary factors
    one_dim = any(arr.edges[eid].factor in d.zariski_boundary for eid in d.s_edges)
    finite = any(
        bool(arr.vertices[vid].factors & d.zariski_boundary) for vid in d.s_vertices
    )
    d.s_meets_boundary = "one_dimensional" if one_dim else ("finite" if finite else "empty")

    # components of X minus (S union zariski boundary): merge complement
    # regions across edges neither in S nor on a boundary factor
    complement = UnionFind(r.rid for r in arr.regions if r.rid not in d.s_regions)
    for e in arr.edges:
        if e.eid in d.s_edges or e.factor in d.zariski_boundary:
            continue
        a, b = e.side_above, e.side_below
        if a in complement and b in complement:
            complement.union(a, b)
    comps = [set(members) for members in complement.classes().values()]
    d.a_components = sorted(comps, key=min)
    for i, comp in enumerate(d.a_components):
        for rid in comp:
            d.a_of_region[rid] = i
    return d


def is_open_cellwise(d: SetDecomposition) -> bool:
    """S is open iff every member cell has its full neighbourhood in S."""
    arr = d.arrangement
    for eid in d.s_edges:
        e = arr.edges[eid]
        if e.side_above not in d.s_regions or e.side_below not in d.s_regions:
            return False
    for vid in d.s_vertices:
        if any(eid not in d.s_edges for eid in arr.edges_at_vertex(vid)):
            return False
        if any(r not in d.s_regions for r in arr.regions_at_vertex(vid)):
            return False
    return True


def is_closed_cellwise(d: SetDecomposition) -> bool:
    """S is closed (in the affine chart) iff it contains the boundary cells of
    all its cells.  The pole is deliberately not considered."""
    arr = d.arrangement
    for e in arr.edges:
        if e.eid in d.s_edges:
            if any(end and end[0] == "vertex" and end[1] not in d.s_vertices for end in e.ends):
                return False
        elif e.side_above in d.s_regions or e.side_below in d.s_regions:
            return False
    return all(
        v.vid in d.s_vertices or not (arr.regions_at_vertex(v.vid) & d.s_regions) for v in arr.vertices
    )


def s_star_flags(d: SetDecomposition) -> tuple[set[int], set[int], set[int]]:
    """Cell flags of Int(closure(S)): member regions, edges with both sides in
    S, vertices with every incident cell in the closure's interior."""
    arr = d.arrangement
    regs = set(d.s_regions)
    edges = {
        e.eid
        for e in arr.edges
        if e.side_above in d.s_regions and e.side_below in d.s_regions
    }
    verts = set()
    for v in arr.vertices:
        if all(r in regs for r in arr.regions_at_vertex(v.vid)) and all(
            eid in edges for eid in arr.edges_at_vertex(v.vid)
        ) and arr.regions_at_vertex(v.vid):
            verts.add(v.vid)
    return regs, edges, verts


def s_star_boundary_dim(d: SetDecomposition) -> str:
    """Dimension class of Int(closure(S)) intersected with its own Zariski
    boundary: 'empty', 'finite' or 'one_dimensional'."""
    arr = d.arrangement
    regs, edges, verts = s_star_flags(d)

    # Zariski boundary of S*: factors owning an edge in closure(S*) \ S*
    zb: set[str] = set()
    for e in arr.edges:
        in_closure = e.eid in edges or e.side_above in regs or e.side_below in regs
        if in_closure and e.eid not in edges:
            zb.add(e.factor)
    if any(arr.edges[eid].factor in zb for eid in edges):
        return "one_dimensional"
    for vid in verts:
        if arr.vertices[vid].factors & zb:
            return "finite"
    return "empty"
