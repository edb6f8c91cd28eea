"""The sphere: the affine plane compactified by a single pole.

Every check reads one cylindrical arrangement, built in the affine chart.  A
scene with the same factors (a reduction or a complement) is decomposed over
that arrangement by `SphereModel.for_scene`.

The opposite stereographic chart, realised by the inversion substitution, is
needed only at the pole, where the blow-up analysis works in the coordinates
of `invert_scene(scene)`.  Away from the pole both charts see the same curve
arcs and the same regions, so no second arrangement is built: `PoleView`
answers a lookup at a point of the inverted chart by inverting the point,
(x, y) -> (x, y) / (x^2 + y^2), and tagging it in the affine decomposition.
Its complement component indices are therefore the affine ones.
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
    region lookups answered by the affine decomposition."""

    scene: Scene
    affine: SetDecomposition

    def tag_at(self, x: Fraction, y: Fraction) -> tuple:
        """The affine tag of a point of this chart other than its origin."""
        q = x * x + y * y
        return self.affine.tag_at(x / q, y / q)


def infinity_sigma_decomposition(model: SphereModel) -> PoleView:
    """The pole view of the model's scene."""
    return PoleView(invert_scene(model.affine.scene), model.affine)
