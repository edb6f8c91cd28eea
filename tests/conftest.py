import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from basix.bipoly import BiPoly
from basix.scene import Scene

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def load_fixture(name: str) -> Scene:
    """The shipped scene ``fixtures/<name>.bsx``."""
    return Scene.from_text((FIXTURE_DIR / f"{name}.bsx").read_text(encoding="utf-8"))


def bench_workload(monkeypatch, name: str) -> tuple[dict[str, str], list]:
    """Scene texts by key and the checks (each naming a scene key and a
    property) of the benchmark workload `name`, from the benchmark's
    generator."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_DIR / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads.workload(name)


def bench_scene_texts(monkeypatch, name: str) -> dict[str, str]:
    """Scene texts by key of the benchmark workload `name`."""
    return bench_workload(monkeypatch, name)[0]


def differential_module(monkeypatch):
    """`tests/differential.py` as a module; the script prepends its src/ and
    tests/ to sys.path, which is restored after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("differential", Path(__file__).resolve().parent / "differential.py")
    differential = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(differential)
    return differential


def _shear(p: BiPoly) -> BiPoly:
    """p(x + y/2, y) by BiPoly products."""
    x, y = BiPoly.x() + BiPoly.y().scale(Fraction(1, 2)), BiPoly.y()
    return sum(((x**i * y**j).scale(v) for (i, j), v in p.t.items()), BiPoly())


# exact affine automorphisms of the plane, as maps P -> P o phi of the
# factors: the scene with the mapped factors describes phi^-1(S), which has
# every property S has
METAMORPHIC_MAPS = {
    "translate": lambda p: p.translate(Fraction(1, 3), Fraction(-2, 5)),
    "reflect": lambda p: p.monomial_subst((1, 0), (0, 1), -1),
    "scale": lambda p: BiPoly({(i, j): v * Fraction(3**i, 2**j) for (i, j), v in p.t.items()}),
    "shear": _shear,
}


def map_scene(scene: Scene, phi) -> Scene:
    """The scene with the map phi applied to every factor."""
    return Scene({n: phi(p) for n, p in scene.factors.items()}, scene.order, scene.formula, scene.chart)


def swap_scene(scene: Scene) -> Scene:
    """The scene with x and y exchanged in every factor."""
    return map_scene(scene, BiPoly.swap_xy)


def sqrt2_twin(scene: Scene) -> Scene:
    """The scene under (x, y) -> (sqrt2 x, y): each factor P becomes
    2^(d/2) P(x/sqrt2, y), d its x-degree, which multiplies the coefficient
    of x^i y^j by 2^((d - i)/2) and has P's sign at the image of each point.
    It is rational when P's x-exponents all share d's parity; otherwise
    ValueError."""
    factors = {}
    for n, p in scene.factors.items():
        d = p.deg_x
        if any((d - i) % 2 for i, _j in p.t):
            raise ValueError(f"factor {n!r} mixes odd and even powers of x")
        factors[n] = BiPoly({(i, j): v * 2 ** ((d - i) // 2) for (i, j), v in p.t.items()})
    return Scene(factors, scene.order, scene.formula, scene.chart)


@pytest.fixture
def fixture_scene():
    return load_fixture
