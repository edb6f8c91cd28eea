from pathlib import Path

import pytest

from basix.scene import Scene

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str) -> Scene:
    """The shipped scene ``fixtures/<name>.bsx``."""
    return Scene.from_text((FIXTURE_DIR / f"{name}.bsx").read_text(encoding="utf-8"))


@pytest.fixture
def fixture_scene():
    return load_fixture
