"""Two-chart sphere model: the affine scene plus its inverted image.

The sphere is the affine plane compactified by a single pole; the opposite
stereographic chart is realised by the inversion substitution.  Complement
components are computed in the affine chart (they are sphere components, since
the compactification adds one point) and transported to the other chart by
sample-point inversion.

Each chart is a `SetDecomposition`: an arrangement of the factors plus the
cells the scene's formula selects.  Only the affine chart is built up front.
The infinity chart and the transport map are built on first access, so checks
that never look past the affine chart never invert the scene.  A scene with
the same factors (a reduction or a complement) is decomposed over the affine
arrangement already built, by `SphereModel.for_scene`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arrangement import build_arrangement
from .decompose import SetDecomposition, decompose_set
from .scene import Scene, invert_scene

F = Fraction


@dataclass
class SphereModel:
    affine: SetDecomposition

    @cached_property
    def infinity(self) -> SetDecomposition:
        """The opposite chart, built from the inverted scene on first access."""
        inverted = invert_scene(self.affine.scene)
        return decompose_set(build_arrangement(inverted), inverted)

    @cached_property
    def transport(self) -> dict[int, tuple]:
        """Region id in the infinity chart -> ('S',) | ('A', affine component) | ('none',)."""
        dec = self.affine
        arr, arr_i = dec.arrangement, self.infinity.arrangement
        out: dict[int, tuple] = {}
        for r in arr_i.regions:
            x, y = r.sample
            if x == 0 and y == 0:
                x, y = _nonpole_sample(arr_i, r)
            q = x * x + y * y
            px, py = x / q, y / q
            rid = arr.region_of_point(px, py)
            if rid in dec.s_regions:
                out[r.rid] = ("S",)
            elif rid in dec.a_of_region:
                out[r.rid] = ("A", dec.a_of_region[rid])
            else:
                out[r.rid] = ("none",)
        return out

    def for_scene(self, scene: Scene) -> "SphereModel":
        """The model of a scene with the same factors, over the same affine
        arrangement; its infinity chart is built on first access."""
        return SphereModel(decompose_set(self.affine.arrangement, scene))


def build_sphere_model(scene: Scene) -> SphereModel:
    return SphereModel(decompose_set(build_arrangement(scene), scene))


def _nonpole_sample(arr, region) -> tuple[Fraction, Fraction]:
    """A rational point of the region different from the chart origin."""
    from .arrangement import loc_bounds
    from .realroots import simplest_in

    for s, g in region.gaps:
        x, y = arr._gap_sample(s, g)
        if (x, y) != (F(0), F(0)):
            return x, y
    # single gap sampled exactly at the origin: 0 is interior, nudge upward
    s, g = region.gaps[0]
    x = arr.slab_samples[s]
    st = arr.stacks[s]
    hi = loc_bounds(st[g][2])[0] if g < len(st) else None
    y = simplest_in(F(0), hi) if hi is not None else F(1)
    return x, y


def infinity_sigma_decomposition(model: SphereModel) -> SetDecomposition:
    """A decomposition-like view of the infinity chart whose component indices
    agree with the affine complement components (for lifted distributions)."""
    dec_i = model.infinity
    # remap a_of_region to affine component ids
    remap: dict[int, int] = {}
    for rid, tag in model.transport.items():
        if tag[0] == "A":
            remap[rid] = tag[1]
    view = SetDecomposition(dec_i.arrangement, dec_i.scene)
    view.s_regions = {rid for rid, tag in model.transport.items() if tag[0] == "S"}
    view.s_edges = dec_i.s_edges
    view.s_vertices = dec_i.s_vertices
    view.boundary_edges = dec_i.boundary_edges
    view.zariski_boundary = dec_i.zariski_boundary
    n_aff = len(model.affine.a_components)
    comps: list[set[int]] = [set() for _ in range(n_aff)]
    for rid, i in remap.items():
        comps[i].add(rid)
    view.a_components = comps
    view.a_of_region = dict(remap)
    view.s_meets_boundary = dec_i.s_meets_boundary
    return view
