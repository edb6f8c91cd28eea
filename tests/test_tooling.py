import ast
import hashlib
import importlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import differential_module

from basix.checker import PROPERTIES, CheckRequest, run_check
from basix.errors import BasixError, InternalError, NotSquarefree, ParseError, SceneError, SharedComponent, Unsupported
from basix.report import verdict_to_dict
from basix.scene import Scene, validate_scene, validated_projection

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "basix"


def _raises_assertion_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_bare_asserts_in_src():
    # python -O strips assert statements, and an AssertionError would leave
    # the CLI as a traceback with exit code 1 (a "No"); invariants raise
    # InternalError, which exits 4
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert found == []


def _src_trees() -> list[tuple[str, ast.Module]]:
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))]


def test_no_unused_imports_in_src():
    # a name that a module-level import binds and the module never reads;
    # nothing in src/ re-exports an import, so each one is read where it is
    found = []
    for name, tree in _src_trees():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = ((alias.asname or alias.name).split(".")[0] for alias in node.names)
                found += [f"{name}:{node.lineno} {b}" for b in bound if b not in read]
    assert found == []


def _read_names(tree: ast.AST) -> Counter:
    """How often each name is read in tree, as a bare name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_private_function_in_src_is_called():
    # a module-level function whose name starts with "_" is internal to
    # src/, so one that src/ never names outside its own body is dead code
    # that only tests would keep alive
    trees = _src_trees()
    read = sum((_read_names(tree) for _name, tree in trees), Counter())
    unused = [
        f"{name}:{fn.lineno} {fn.name}"
        for name, tree in trees
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_") and read[fn.name] == _read_names(fn)[fn.name]
    ]
    assert unused == []


def test_no_engine_module_names_unipoly():
    # the engine runs on integer lists and integer series rows; UniPoly, the
    # Fraction polynomial, is the tests' oracle, so no module but its own
    # names it, not even in a docstring or a comment
    naming = [path.name for path in sorted(SRC.glob("*.py")) if re.search(r"\bUniPoly\b", path.read_text(encoding="utf-8"))]
    assert naming == ["unipoly.py"]


def test_unsupported_reason_codes_in_its_docstring_are_raised():
    # a code the docstring names must still be raised somewhere in src/, as
    # the first argument of an Unsupported(...) call, so it cannot go stale
    named = set(re.findall(r"``(\w+)``", Unsupported.__doc__))
    raised = {
        node.args[0].value
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Unsupported"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }
    named.discard("reason")
    assert named and named <= raised, sorted(named - raised)


def test_shipped_fixtures_parse_and_validate():
    paths = sorted((ROOT / "fixtures").glob("*.bsx"))
    for path in paths:
        validate_scene(Scene.from_text(path.read_text(encoding="utf-8")))
    # the fixtures that tests load by name through conftest.load_fixture
    assert {"half", "quad", "saddle", "para", "cubic"} <= {p.stem for p in paths}


_TOKEN = re.compile(r"\d+|[A-Za-z_]\w*|>=|<=|==|!=|\S|\s+")
# what an edit inserts or puts in place of a token: the language's tokens
# and a few short fragments of it
_FRAGMENTS = (
    "0", "1", "2", "x", "y", "+", "-", "*", "/", "^", "(", ")", "/0", "^0", "^2", "*x", "*y", "1/2",
    ";", ",", "{", "}", "|", ">", "<", "=", ">=", "!=", "==", "factor", "set",
)


def _mutated(text: str, rng: random.Random) -> str:
    """text after one or two token edits: a deletion, an insertion of a
    fragment or a token replaced by one."""
    toks = _TOKEN.findall(text)
    for _ in range(rng.choice((1, 2))):
        i = rng.randrange(len(toks) + 1)
        op = rng.choice(("delete", "insert", "replace")) if i < len(toks) else "insert"
        if op == "delete":
            del toks[i]
        elif op == "insert":
            toks.insert(i, rng.choice(_FRAGMENTS))
        else:
            toks[i] = rng.choice(_FRAGMENTS)
    return "".join(toks)


def test_mutated_fixtures_end_in_a_scene_or_an_input_error():
    # the input layer, parser and validation, turns every near-miss of a
    # fixture into a scene or a BasixError (an input error, exit 3), never
    # another exception; this seed's 300 mutations include y/0 and x/0,
    # which once raised ZeroDivisionError
    rng = random.Random(2)
    texts = [(ROOT / "fixtures" / f"{n}.bsx").read_text(encoding="utf-8") for n in ("cubic", "half", "para", "quad", "saddle")]
    outcomes = {"scene": 0, "input error": 0}
    for k in range(300):
        text = _mutated(texts[k % 5], rng)
        try:
            validated_projection(Scene.from_text(text))
            outcomes["scene"] += 1
        except BasixError:
            outcomes["input error"] += 1
    assert outcomes["scene"] >= 10 and outcomes["input error"] >= 10, outcomes


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # bench/tracer.py wraps engine functions by name; a rename in src/ must
    # fail here, in tier-1, and not only in the benchmark's own tests
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for modname, attr, _by_chart, _info in tracer.TARGETS:
        assert modname.startswith("basix.")
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{modname}.{attr}"
    # the sphere model's builds are traced through the name it imported
    from basix import arrangement, sphere

    assert sphere.build_arrangement is arrangement.build_arrangement


def test_benchmark_checks_give_their_pinned_outcomes(monkeypatch):
    # every check of the three benchmark workloads, run once and compared
    # with bench/expected.json as the benchmark compares it, so that an
    # output change fails in tier-1 too; nothing under bench/ is written
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    expected = json.loads((ROOT / "bench" / "expected.json").read_text(encoding="utf-8"))
    for name in workloads.WORKLOADS:
        texts, checks = workloads.workload(name)
        scenes = {k: Scene.from_text(t) for k, t in texts.items()}
        assert sorted(c.cid for c in checks) == sorted(expected[name]), name
        for c in checks:
            v = run_check(CheckRequest(scenes[c.scene], c.prop))
            report = verdict_to_dict(v)
            report.pop("timings", None)
            got = {
                "scene_sha256": hashlib.sha256(texts[c.scene].encode()).hexdigest(),
                "answer": v.answer,
                "reason": v.reason,
                "witness_count": v.witness_count,
                "digest": hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest(),
            }
            assert got == expected[name][c.cid], c.cid


def test_differential_imports_basix_from_its_own_checkout(tmp_path):
    # tests/differential.py puts its checkout's src/ first on sys.path, so a
    # parent-vs-change diff compares the trees it was run from; with no
    # PYTHONPATH at all it must still import basix
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "differential.py"), "--help"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: differential.py")


def test_differential_fixed_scenes_end_in_a_verdict(monkeypatch):
    # the fixtures, their inversions and swaps, the divergent scene, the
    # unions, the irrational-wall, large-denominator, approached-wall,
    # irrational-tangent and large-denominator-point scenes, the twin pairs
    # and the projection pins, under every property: a verdict, Unsupported
    # or an input error, never an internal error
    differential = differential_module(monkeypatch)
    checked = 0
    for label, sc in differential.scenes(0, 0):
        assert isinstance(sc, Scene), label
        for prop in PROPERTIES:
            try:
                v = run_check(CheckRequest(sc, prop))
            except (Unsupported, SceneError, ParseError):
                pass
            else:
                assert v.answer in ("Yes", "No", "Unsupported"), (label, prop)
            checked += 1
    assert checked == 250


@pytest.mark.parametrize("prop", ["basic_open", "principal_open", "principal_closed"])
def test_differential_marks_a_witness_that_does_not_reverify(monkeypatch, fixture_scene, prop):
    # cubic.bsx's witnesses re-verify, so their lines carry no mark; one
    # whose count disagrees with the verdict's is reported
    differential = differential_module(monkeypatch)
    sc = fixture_scene("cubic")
    v = run_check(CheckRequest(sc, prop))
    assert v.witness is not None
    assert differential.witness_failures(sc, prop, v) == []
    assert "WITNESS FAILS" not in differential.outcome(sc, prop)
    v.witness_count += 1
    assert differential.witness_failures(sc, prop, v) == [
        f"counts {v.witness_count - 1} points in S, the verdict {v.witness_count}"
    ]


def test_differential_metamorphic_prints_flips_and_errors(monkeypatch, capsys, fixture_scene):
    # the affine maps keep every answer on half.bsx; a map that squares the
    # factors makes the image an input error on one side only, which fails
    differential = differential_module(monkeypatch)
    monkeypatch.setattr(differential, "scenes", lambda _n, _seed: iter([("half", fixture_scene("half"))]))
    assert differential.metamorphic(0, 0) == 0 and capsys.readouterr().out == ""
    monkeypatch.setitem(differential.METAMORPHIC_MAPS, "square", lambda p: p * p)
    assert differential.metamorphic(0, 0) == len(PROPERTIES)
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("half\tsquare\t") and "NotSquarefree" in line for line in lines), lines
    fails = differential.metamorphic_failure
    assert fails("Yes", "No") and fails("No", "Yes") and not fails("Yes", "Yes")
    assert not fails("Yes", "Unsupported") and not fails("Unsupported", "No")
    assert not fails(NotSquarefree("f"), NotSquarefree("g")) and fails(NotSquarefree("f"), SharedComponent("f", "g"))
    assert fails(InternalError("x"), InternalError("x")) and fails("Yes", ValueError("x"))
