"""The sphere: the affine plane compactified by a single pole.

Every check reads one cylindrical arrangement, built in the affine chart.  A
scene with the same factors (a reduction or a complement) is decomposed over
that arrangement by `SphereModel.for_scene`.

The opposite stereographic chart, realised by the inversion substitution, is
needed only at the pole, where the blow-up analysis works in the coordinates
of `invert_scene(scene)`.  Away from the pole both charts see the same curve
arcs and the same regions, so no second arrangement is built: `PoleView`
answers lookups with the affine decomposition, and its complement component
indices are the affine ones.  A sign vector over the inverted scene's factors
is read in the affine table of region sign vectors.  Each inverted factor is
its affine one times a positive power of x^2 + y^2 off the pole, so the signs
agree; a factor the inversion drops is c*(x^2 + y^2)^k, of one sign on every
region, so its sign is that of any region.  A point is located only when the
vector is shared by regions with different tags: it is inverted,
(x, y) -> (x, y) / (x^2 + y^2), and located in the affine arrangement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arrangement import build_arrangement
from .decompose import SetDecomposition, decompose_set
from .scene import Projection, Scene, invert_scene


@dataclass
class SphereModel:
    affine: SetDecomposition

    def for_scene(self, scene: Scene) -> "SphereModel":
        """The model of a scene with the same factors, over the same affine
        arrangement."""
        return SphereModel(decompose_set(self.affine.arrangement, scene))


def build_sphere_model(scene: Scene, projection: Projection | None = None) -> SphereModel:
    return SphereModel(decompose_set(build_arrangement(scene, projection), scene))


@dataclass
class PoleView:
    """The chart at the pole: factors, order and formula of the inverted scene
    (which drops factors whose zero set is the affine origin alone), with
    region lookups answered by the affine decomposition.  A sign vector over
    this chart's factors reads the affine table (`tag_of_signs`); a point is
    located only when that table has no single tag for the vector."""

    scene: Scene
    affine: SetDecomposition

    def tag_of_signs(self, signs: dict[str, int]) -> tuple | None:
        """The affine tag shared by every region with these signs over this
        chart's factors, or None.  A factor this chart drops has one sign on
        every region, which any region supplies."""
        return self.affine.tag_of_signs({**self.affine.arrangement.regions[0].signs, **signs})

    def tag_at(self, x: Fraction, y: Fraction) -> tuple:
        """The affine tag of a point of this chart other than its origin."""
        return self.affine.tag_at(*_affine_point(x, y))

    def located_tag(self, x: Fraction, y: Fraction) -> tuple:
        """`tag_at`, always by locating the point in the affine arrangement."""
        return self.affine.located_tag(*_affine_point(x, y))


def _affine_point(x: Fraction, y: Fraction) -> tuple[Fraction, Fraction]:
    q = x * x + y * y
    return x / q, y / q


def infinity_sigma_decomposition(model: SphereModel) -> PoleView:
    """The pole view of the model's scene."""
    return PoleView(invert_scene(model.affine.scene), model.affine)
