import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "basix"


def test_no_bare_asserts_in_src():
    # python -O strips assert statements; invariants raise AssertionError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
