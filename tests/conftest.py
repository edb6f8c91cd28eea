from pathlib import Path

import pytest

from basix.scene import Scene

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str) -> Scene:
    """The shipped scene ``fixtures/<name>.bsx``."""
    return Scene.from_text((FIXTURE_DIR / f"{name}.bsx").read_text(encoding="utf-8"))


def swap_scene(scene: Scene) -> Scene:
    """The scene with x and y exchanged in every factor."""
    return Scene({n: p.swap_xy() for n, p in scene.factors.items()}, scene.order, scene.formula, scene.chart)


@pytest.fixture
def fixture_scene():
    return load_fixture
