"""Differential output of the checker over a fixed set of scenes.

Prints one line per (scene, property): the verdict as `verdict_to_dict`
gives it, without its wall-clock `timings`, or the class and message of the
error the check raised.  Two trees decide the same way exactly when their
runs print the same text, so a change is compared with its parent by

    python3 tests/differential.py > new.txt
    # the same command in a checkout of the parent, into old.txt
    diff old.txt new.txt

The script imports `basix` from the ``src/`` of its own checkout and exits
if it finds it elsewhere, so each run reads the tree it belongs to whatever
``PYTHONPATH`` says.

The scenes are the shipped fixtures, each fixture's inversion read back as
an affine scene, each fixture with x and y exchanged (so that chart words
with y-steps reach the diff), the scene on which chart-point sampling, no
longer part of exceptional classification, disagreed with the transversal
family (`test_cli.DIVERGENT`), unions of 3, 5, 7 and 9 clauses whose complement
would be a large DNF (`test_scene.union_scene_text`), the scenes of
`IRRATIONAL_WALLS`, the scenes of `LARGE_DENOMINATORS` (a wall at
x = 1/10007, found exactly only as the root of a linear squarefree part),
the scenes of `APPROACHED_WALLS` (walls where branch ends are matched by
approaching the wall, because counting roots does not decide their fates),
the scenes of `test_checker.IRRATIONAL_TANGENTS` (a node with tangent slopes
+-sqrt2 crossed by a line at a rational point, which resolution reads from
its tangent cone), the scenes of `test_checker.LARGE_DENOMINATOR_POINTS`
(singular points at rationals with denominators 3^10 and 3^30, on fibres of
degree 2 and above, which resolution blows up), six scenes of
`test_checker.twin_scene_text` each
followed by its `conftest.sqrt2_twin` (x -> sqrt2 x turns their rational
walls into irrational ones and must keep every answer), the scenes of
`test_scene.PROJECTION_PINS` (squares and shared factors in the contents in
x, so that the order of validation errors reaches the diff), and ``--random``
scenes drawn by `test_sphere.random_scene_text` from ``--seed``.
`random_scene_text` draws y-leading coefficients that are constants or
x + c and singular points only at the origin, so it reaches no isolated
point, vertical asymptote, node or tangency over an irrational abscissa;
the fixed scenes do.

Each witness is verified again before its line is printed: `verify_fan` in
the scene in which the checker counted it, and its count of points in S
against the verdict's.  A witness that fails gets ``WITNESS FAILS`` and the
reasons appended to its line, so two runs that print the same text also
vouch for the same witnesses.  The file name has no ``test_`` prefix, so
pytest does not collect it.

With ``--metamorphic N`` the script compares instead of printing: it runs
every property on the fixed scenes and N random scenes and on their images
under each exact affine map of `conftest.METAMORPHIC_MAPS` (a translation,
a reflection, a scaling and a shear), and prints one failing line per
(scene, map, property) whose answers flip between Yes and No or where a
check raises.  An Unsupported answer on either side passes, and so does the
same input error on both sides (the maps keep factors squarefree and
coprime).  It exits 1 if any line failed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
SRC_DIR = TESTS_DIR.parent / "src"
sys.path[:0] = [str(SRC_DIR), str(TESTS_DIR)]

import basix  # noqa: E402
from basix.checker import PROPERTIES, CheckRequest, Verdict, run_check  # noqa: E402
from basix.errors import SceneError  # noqa: E402
from basix.fans import fan_count_in_S, verify_fan  # noqa: E402
from basix.report import verdict_to_dict  # noqa: E402
from basix.scene import Scene, invert_scene  # noqa: E402

if Path(basix.__file__).resolve().parent != SRC_DIR / "basix":
    raise SystemExit(f"imported basix from {basix.__file__}, not from this checkout's src/")

from conftest import METAMORPHIC_MAPS, map_scene, sqrt2_twin, swap_scene  # noqa: E402
from test_checker import (  # noqa: E402
    ASYMPTOTES_SQRT2,
    DOUBLE_ROOTS_10007,
    IRRATIONAL_TANGENTS,
    LARGE_DENOMINATOR_POINTS,
    twin_scene_text,
    wall_denominator_scene_text,
)
from test_cli import DIVERGENT  # noqa: E402
from test_scene import PROJECTION_PINS, union_scene_text  # noqa: E402
from test_sphere import random_scene_text  # noqa: E402

FIXTURE_DIR = TESTS_DIR.parent / "fixtures"

# events over irrational walls: the isolated points (+-sqrt2, 0), the
# asymptotes x = +-sqrt2, nodes at (+-sqrt2, 0), and a circle and a parabola
# touching at (+-3 sqrt3/2, -3/2)
IRRATIONAL_WALLS = {
    "acnode-sqrt2": "factor f = y^2 + x^4 - 4*x^2 + 4; set S = { f > 0 };",
    "asymptotes-sqrt2": ASYMPTOTES_SQRT2,
    "node-sqrt2": "factor f = y^2 - x^6 + 3*x^4 - 4; set S = { f > 0 };",
    "tangency-sqrt3": "factor f = x^2 + y^2 + 2*y - 6; factor g = y - x^2 + 33/4; factor l = y + 5/2*x - 5/4;"
    "set S = { f < 0, g > 0 } | { l > 0, f > 0 };",
}

# a line, and a line pair with slopes +-10007 sqrt2, through (1/10007, 0)
LARGE_DENOMINATORS = {
    "line-10007": wall_denominator_scene_text("y - {k}*x + 1", 10007),
    "line-pair-10007": wall_denominator_scene_text("y^2 - 2*({k}*x - 1)^2", 10007),
}

# two double roots on each of the walls x = +-1; two branch ends escaping on
# each side of the asymptote x = 0, down on the left and up on the right;
# two double roots on the wall x = 1/10007
APPROACHED_WALLS = {
    "double-roots-pm1": "factor f = x^2 + (y^2 - 4)^2 - 1; set S = { f > 0 };",
    "escapes-0": "factor f = x^2*y^2 - 3*x*y + 2 + x; set S = { f > 0 };",
    "double-roots-10007": DOUBLE_ROOTS_10007,
}


def scenes(n_random: int, seed: int):
    """(label, scene or the error raised building it), in a fixed order."""
    for path in sorted(FIXTURE_DIR.glob("*.bsx")):
        sc = Scene.from_text(path.read_text(encoding="utf-8"))
        yield path.stem, sc
        inv = invert_scene(sc)
        yield f"{path.stem}-inverted", Scene(inv.factors, inv.order, inv.formula, "affine")
        yield f"{path.stem}-swapped", swap_scene(sc)
    yield "divergent", Scene.from_text(DIVERGENT)
    for n in (3, 5, 7, 9):
        yield f"union{n}", Scene.from_text(union_scene_text(n))
    for group in (IRRATIONAL_WALLS, LARGE_DENOMINATORS, APPROACHED_WALLS, IRRATIONAL_TANGENTS, LARGE_DENOMINATOR_POINTS):
        for label, text in group.items():
            yield label, Scene.from_text(text)
    twins = random.Random(3)
    for k in range(6):
        sc = Scene.from_text(twin_scene_text(twins))
        yield f"twin{k}", sc
        yield f"twin{k}-sqrt2", sqrt2_twin(sc)
    for label, (text, _error) in PROJECTION_PINS.items():
        yield label, Scene.from_text(text)
    rng = random.Random(seed)
    for k in range(n_random):
        text = random_scene_text(rng)
        try:
            yield f"random{k}", Scene.from_text(text)
        except Exception as exc:  # noqa: BLE001 - recorded, not judged
            yield f"random{k}", exc


def witness_failures(scene: Scene, prop: str, v: Verdict) -> list[str]:
    """Why the verdict's witness does not re-verify; empty when it does.  The
    scene is put in the witness's chart as `bench/run.py`'s `witness_scene`
    does."""
    if prop == "basic_closed":
        scene = scene.minus_factor_zeros(v.diagnostics["zariski_boundary"])
    if v.witness.chart == "infinity":
        scene = invert_scene(scene)
    try:
        rep = verify_fan(v.witness, scene)
        count = fan_count_in_S(v.witness, scene)
    except Exception as exc:  # noqa: BLE001 - a failure like any other
        return [f"{type(exc).__name__}: {exc}"]
    failures = [] if rep.product_law_ok and rep.distinct else [f"verify_fan: {rep.failures}"]
    if count != v.witness_count:
        failures.append(f"counts {count} points in S, the verdict {v.witness_count}")
    return failures


def outcome(scene: Scene, prop: str) -> str:
    try:
        v = run_check(CheckRequest(scene, prop))
        d = verdict_to_dict(v)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return f"{type(exc).__name__}: {exc}"
    d.pop("timings", None)
    line = json.dumps(d, sort_keys=True, separators=(",", ":"))
    failures = witness_failures(scene, prop, v) if v.witness is not None else []
    return f"{line}\tWITNESS FAILS: {'; '.join(failures)}" if failures else line


def answer(scene: Scene, prop: str) -> str | Exception:
    try:
        return run_check(CheckRequest(scene, prop)).answer
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return exc


def metamorphic_failure(want: str | Exception, got: str | Exception) -> bool:
    """Whether the answers on a scene and on its image disagree: a Yes/No
    flip, or an exception other than one input error class on both sides."""
    if isinstance(want, Exception) or isinstance(got, Exception):
        return not (isinstance(want, SceneError) and type(want) is type(got))
    return want != got and "Unsupported" not in (want, got)


def metamorphic(n_random: int, seed: int) -> int:
    """Print the failing lines of the metamorphic comparison; their number."""
    failed = 0
    for label, sc in scenes(n_random, seed):
        if isinstance(sc, Exception):
            continue
        for prop in PROPERTIES:
            want = answer(sc, prop)
            for name, phi in METAMORPHIC_MAPS.items():
                got = answer(map_scene(sc, phi), prop)
                if metamorphic_failure(want, got):
                    failed += 1
                    print(f"{label}\t{name}\t{prop}\tFAILS: {want!r} -> {got!r}", flush=True)
    return failed


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--random", type=int, default=120, help="number of random scenes")
    ap.add_argument("--seed", type=int, default=20261018)
    ap.add_argument(
        "--metamorphic", type=int, metavar="N", help="compare answers under exact affine maps on N random scenes"
    )
    args = ap.parse_args(argv)
    if args.metamorphic is not None:
        raise SystemExit(1 if metamorphic(args.metamorphic, args.seed) else 0)
    for label, sc in scenes(args.random, args.seed):
        for prop in PROPERTIES:
            line = f"{type(sc).__name__}: {sc}" if isinstance(sc, Exception) else outcome(sc, prop)
            print(f"{label}\t{prop}\t{line}", flush=True)


if __name__ == "__main__":
    main()
