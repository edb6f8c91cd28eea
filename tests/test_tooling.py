import ast
from pathlib import Path

from basix.scene import Scene, validate_scene

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "basix"


def test_no_bare_asserts_in_src():
    # python -O strips assert statements; invariants raise AssertionError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_shipped_fixtures_parse_and_validate():
    paths = sorted((ROOT / "fixtures").glob("*.bsx"))
    for path in paths:
        validate_scene(Scene.from_text(path.read_text(encoding="utf-8")))
    # the fixtures that tests load by name through conftest.load_fixture
    assert {"half", "quad", "saddle", "para", "cubic"} <= {p.stem for p in paths}
