import hashlib
import json
import re
from pathlib import Path

import pytest

from basix import checker, cli
from basix.arrangement import Wall, build_arrangement
from basix.decompose import decompose_set
from basix.errors import BasixError, CountMismatch, InternalError
from basix.realroots import isolate_real_roots, refine_disjoint
from basix.scene import Scene
from basix.svgplot import render_svg
from basix.unipoly import UniPoly

# chart-point sampling certified its segment against the boundary factors
# only, so on D2 at v=0 it crossed f0's oval and disagreed with the
# transversal family; read from the family alone, the set is basic open
DIVERGENT = (
    "factor f0 = x^2 + 1/3*y^2 - x - 2; factor f1 = y - x^2 - x + 1; "
    "factor f2 = y^2 - 2*x^3 + 1/2*x^2; set S = { f1 < 0, f0 < 0 };\n"
)
# the principal_closed witness is a fan on a curve with no rational point basis
UNSERIALIZABLE = (
    "factor f0 = 1*x - 2*y; factor f1 = y - x^2 - 2; "
    "factor f2 = x^2 - 2*y^2 + x*y + x - 2*y + 3; set S = { f0 < 0, f2 < 0 };\n"
)
# random34 of the default differential: its principal_open fan has base
# points on f0 at x = -27705691/8388608, where f0's fibre is linear in y
LINEAR_FIBRE_WITNESS = (
    "factor f0 = y - (2/3)*x^3 - (3/2)*x + (-1/2); factor f1 = x^2 + 2*y^2 + (0)*x + (-1)*y - 3; "
    "factor f2 = x^2 + 1*y^2 + (1)*x + (-2)*y - 2; set S = { f2 < 0, f0 < 0 };\n"
)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _scene(tmp_path, text):
    path = tmp_path / "scene.bsx"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_internal_errors_stay_basix_errors():
    assert issubclass(InternalError, BasixError)
    assert issubclass(CountMismatch, InternalError)


def test_internal_error_exits_4(monkeypatch, capsys):
    def broken(D, decomp):
        raise InternalError(f"broken classification on D{D.level}")

    monkeypatch.setattr(checker, "classify_exceptional", broken)
    code = cli.main(["check", str(FIXTURES / "cubic.bsx"), "--property", "basic-open"])
    assert code == cli.EXIT_INTERNAL == 4
    assert capsys.readouterr().err.startswith("internal error: broken classification on D1")


def test_divergent_scene_is_basic_open(tmp_path, capsys):
    code = cli.main(["check", _scene(tmp_path, DIVERGENT), "--property", "basic-open"])
    assert code == cli.EXIT_YES == 0
    assert "answer   : Yes" in capsys.readouterr().out


def test_unserializable_witness_keeps_the_no(tmp_path, capsys):
    path = _scene(tmp_path, UNSERIALIZABLE)
    args = ["check", path, "--witness", "--property", "principal-closed"]
    assert cli.main(args + ["--format", "json"]) == cli.EXIT_NO
    d = json.loads(capsys.readouterr().out)
    assert d["answer"] == "No"
    assert "witness" not in d
    assert d["witness_unserializable"] == "NonRationalWitnessBase: this fan has no rational serialization"
    assert d["witness_count"] == 1
    assert cli.main(args) == cli.EXIT_NO
    assert "answer   : No" in capsys.readouterr().out


def test_witness_on_a_linear_fibre_is_serialised(tmp_path, capsys):
    path = _scene(tmp_path, LINEAR_FIBRE_WITNESS)
    report = tmp_path / "report.json"
    code, _out = _check(capsys, path, "principal-open", "--witness", "--format", "json", "--out", str(report))
    assert code == cli.EXIT_NO
    d = json.loads(report.read_text(encoding="utf-8"))
    assert "witness_unserializable" not in d
    assert d["witness"]["orderings"][2]["center"][0] == "-27705691/8388608"
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps(d["witness"]), encoding="utf-8")
    assert cli.main(["verify-fan", str(fan), path]) == cli.EXIT_YES


def _check(capsys, path, prop, *extra):
    code = cli.main(["check", str(path), "--property", prop, *extra])
    return code, capsys.readouterr()


def test_exit_codes_yes_unsupported_and_input_error(tmp_path, capsys):
    assert _check(capsys, FIXTURES / "half.bsx", "basic-open")[0] == cli.EXIT_YES == 0
    code, out = _check(capsys, _scene(tmp_path, "factor a = x^2 - 2; set S = { a > 0 };"), "basic-open")
    assert code == cli.EXIT_UNSUPPORTED == 2
    assert "reason   : NonRationalShearNeeded" in out.out
    for text in ("set S = { y > };", "factor a = y^2; set S = { a > 0 };"):
        code, out = _check(capsys, _scene(tmp_path, text), "basic-open")
        assert code == cli.EXIT_INPUT == 3
        assert out.err.startswith("error: ")
    assert _check(capsys, tmp_path / "missing.bsx", "basic-open")[0] == cli.EXIT_INPUT


def test_json_report_keys(capsys):
    code, out = _check(capsys, FIXTURES / "half.bsx", "basic-open", "--format", "json")
    assert code == cli.EXIT_YES
    assert set(json.loads(out.out)) == {"property", "answer", "reason", "diagnostics", "timings"}
    code, out = _check(capsys, FIXTURES / "para.bsx", "basic-open", "--format", "json", "--witness")
    assert code == cli.EXIT_NO
    d = json.loads(out.out)
    assert set(d) == {"property", "answer", "reason", "diagnostics", "timings", "witness", "witness_count"}
    assert set(d["witness"]) == {"kind", "form_tag", "chart", "factor", "orderings", "pair_structure"}


def test_validation_warnings_reach_json_and_text(tmp_path, capsys):
    path = _scene(tmp_path, "factor a = x*y; set S = { a > 0 };")
    warning = "factor 'a' looks reducible: content in x of degree 1"
    code, out = _check(capsys, path, "basic-open", "--format", "json")
    assert json.loads(out.out)["diagnostics"]["validation_warnings"] == [warning]
    code, out = _check(capsys, path, "basic-open")
    assert f"warning  : {warning}" in out.out.splitlines()
    # a scene that validates cleanly carries no warning key
    code, out = _check(capsys, FIXTURES / "half.bsx", "basic-open", "--format", "json")
    assert "validation_warnings" not in json.loads(out.out)["diagnostics"]


@pytest.mark.parametrize("name, prop, count", [("para", "basic-open", 3), ("quad", "principal-open", 1)])
def test_verify_fan_round_trip(tmp_path, capsys, name, prop, count):
    report = tmp_path / "report.json"
    code, _out = _check(capsys, FIXTURES / f"{name}.bsx", prop, "--witness", "--format", "json", "--out", str(report))
    assert code == cli.EXIT_NO
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps(json.loads(report.read_text(encoding="utf-8"))["witness"]), encoding="utf-8")
    assert cli.main(["verify-fan", str(fan), str(FIXTURES / f"{name}.bsx")]) == cli.EXIT_YES
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"membership count: {count}"
    assert lines[1].startswith("product law: pass") and lines[2] == "distinctness: pass"


@pytest.mark.parametrize("w_form", ["-z+a", "1/z"])
def test_verify_fan_rejects_a_w_form_its_eta_does_not_name(tmp_path, capsys, w_form):
    report = tmp_path / "report.json"
    _check(capsys, FIXTURES / "para.bsx", "basic-open", "--witness", "--format", "json", "--out", str(report))
    fan = json.loads(report.read_text(encoding="utf-8"))["witness"]
    assert fan["orderings"][0]["eta"] == 1
    fan["orderings"][0]["w_form"] = w_form
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fan), encoding="utf-8")
    assert cli.main(["verify-fan", str(path), str(FIXTURES / "para.bsx")]) == cli.EXIT_INPUT
    assert "w_form" in capsys.readouterr().err


POINT_FAN = {
    "kind": "point_centered", "form_tag": "4.1-2", "center": ["0", "0"], "delta": 1, "N": 1,
    "terms": [], "m": 1, "a1": "1/2", "a2": "3/2", "eta": 1, "eta_prime": -1,
}


@pytest.mark.parametrize("case", ["missing kind", "a list", "a zero denominator", "an unknown kind"])
def test_verify_fan_reports_a_malformed_fan_as_an_input_error(tmp_path, capsys, case):
    # a fan file that is no fan is an input error, not a failed fan (exit 1)
    # and not a traceback
    if case == "an unknown kind":
        report = tmp_path / "report.json"
        _check(capsys, FIXTURES / "para.bsx", "basic-open", "--witness", "--format", "json", "--out", str(report))
        fan = json.loads(report.read_text(encoding="utf-8"))["witness"]
        assert fan["kind"] == "curve_centered"
        fan["kind"] = "ray_centered"
    elif case == "a zero denominator":
        fan = {**POINT_FAN, "a1": "1/0"}
    else:
        fan = {"missing kind": {"chart": "affine"}, "a list": [1, 2]}[case]
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fan), encoding="utf-8")
    assert cli.main(["verify-fan", str(path), str(FIXTURES / "para.bsx")]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    # the well-formed point fan (the lines y = x/2 + z*x and y = 3x/2 - z*x
    # through the origin, both half-lines of each) is read and verified
    path.write_text(json.dumps(POINT_FAN), encoding="utf-8")
    assert cli.main(["verify-fan", str(path), str(FIXTURES / "para.bsx")]) == cli.EXIT_YES
    assert capsys.readouterr().out.splitlines()[0] == "membership count: 0"


@pytest.mark.parametrize(
    "field, value",
    [("N", 0), ("m", 0), ("delta", 0), ("eta", 5), ("eta_prime", 2), ("side", 0)],
)
def test_verify_fan_refuses_out_of_range_values_as_input_errors(tmp_path, capsys, field, value):
    # a degenerate arc (N or delta 0), a family through no centre (m 0) or a
    # sign that is no sign is no fan: refused, not judged as one
    if field == "side":
        report = tmp_path / "report.json"
        _check(capsys, FIXTURES / "para.bsx", "basic-open", "--witness", "--format", "json", "--out", str(report))
        fan = json.loads(report.read_text(encoding="utf-8"))["witness"]
        fan["orderings"][0]["side"] = value
    else:
        fan = {**POINT_FAN, field: value}
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fan), encoding="utf-8")
    assert cli.main(["verify-fan", str(path), str(FIXTURES / "para.bsx")]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed fan: {field} is {value}"), err


@pytest.mark.parametrize("kind", ["a directory", "binary data"])
def test_an_unreadable_scene_file_is_an_input_error(tmp_path, capsys, kind):
    # file errors are the input's fault, not the engine's: exit 3, not 4
    if kind == "a directory":
        path = tmp_path
    else:
        path = tmp_path / "scene.bsx"
        path.write_bytes(b"\xff\xfe\x00factor")
    code, out = _check(capsys, path, "basic-open")
    assert code == cli.EXIT_INPUT
    assert out.err.startswith("error: ")


@pytest.mark.parametrize("exc", [RecursionError("maximum recursion depth exceeded"), ZeroDivisionError("division by zero")])
def test_an_engine_exception_exits_4_not_no(monkeypatch, capsys, exc):
    # any exception that is no BasixError is an engine fault: exit 4, never
    # the exit 1 of a "No" that an uncaught exception would give
    def broken(req):
        raise exc

    monkeypatch.setattr(cli, "run_check", broken)
    code, out = _check(capsys, FIXTURES / "half.bsx", "basic-open")
    assert code == cli.EXIT_INTERNAL
    assert out.err.startswith(f"internal error: {type(exc).__name__}: {exc}")
    assert "Traceback" not in out.err


# sha256 of `basix plot fixtures/<name>.bsx` with the default window and width
PLOT_SHA256 = {
    "half": "67cd989d5360c9e6cfd373c600f9590fac2cfce3507f9fb2da087d34df3ba6bc",
    "cubic": "8b076bfe14edc11f60c6113aa215c6c8750c5591807e75bd4a3e138dfaefe4a2",
}


@pytest.mark.parametrize("name", sorted(PLOT_SHA256))
def test_plot_svg_is_stable(tmp_path, capsys, name):
    out = tmp_path / f"{name}.svg"
    assert cli.main(["plot", str(FIXTURES / f"{name}.bsx"), "--out", str(out)]) == cli.EXIT_YES
    svg = out.read_bytes()
    assert svg.startswith(b"<svg") and svg.rstrip().endswith(b"</svg>")
    assert hashlib.sha256(svg).hexdigest() == PLOT_SHA256[name]


def test_plot_samples_each_piece_on_its_own_branch():
    # the edge through the cubic's middle slab on its upper branch (index
    # 2) and on into the right slab (index 0) gets 8 points per piece
    sc = Scene.from_text("factor f = y^3 - 3*y - x; set S = { f > 0 };")
    arr = build_arrangement(sc)
    svg = render_svg(decompose_set(arr, sc))
    lines = re.findall(r'stroke="#d62728" stroke-width="1.4" points="([^"]*)"', svg)
    assert len(lines) == len(arr.edges)
    polylines = [[tuple(float(v) for v in pt.split(",")) for pt in body.split()] for body in lines]
    # the default window [-4, 4]^2 at width 480: 60 pixels per unit
    for pts in polylines:
        for px, py in pts:
            x, y = (px - 240) / 60, (240 - py) / 60
            assert abs(y**3 - 3 * y - x) < 1e-3, (x, y)
    (e,) = [e for e in arr.edges if [(s, i) for s, i, _l in e.pieces] == [(1, 2), (2, 0)]]
    assert len(polylines[e.eid]) == 16


def _locate_on_a_curve(req):
    build_arrangement(req.scene).region_of_point(0, 0)


def _coincident_roots(req):
    refine_disjoint(isolate_real_roots(UniPoly([-1, 1])) + isolate_real_roots(UniPoly([-1, 1])))


@pytest.mark.parametrize("broken", [_locate_on_a_curve, _coincident_roots])
def test_broken_invariants_exit_4(monkeypatch, capsys, broken):
    monkeypatch.setattr(cli, "run_check", broken)
    code, out = _check(capsys, FIXTURES / "half.bsx", "basic-open")
    assert code == cli.EXIT_INTERNAL
    assert out.err.startswith("internal error: ")


def test_broken_arrangement_invariant_exits_4(monkeypatch, capsys):
    # every wall reads as irrational, so the vertical line x = 0 of quad.bsx
    # reaches the irrational-wall analysis, whose invariant refuses it
    monkeypatch.setattr(Wall, "exact_x", lambda self: None)
    code, out = _check(capsys, FIXTURES / "quad.bsx", "basic-open")
    assert code == cli.EXIT_INTERNAL
    assert out.err.startswith("internal error: irrational wall analysis on a vertical-line wall")


def test_malformed_max_depth_is_an_input_error(monkeypatch, capsys):
    monkeypatch.setenv("BASIX_MAX_DEPTH", "abc")
    code, out = _check(capsys, FIXTURES / "half.bsx", "basic-open")
    assert code == cli.EXIT_INPUT
    assert out.err == "error: BASIX_MAX_DEPTH must be an integer, got 'abc'\n"
    assert out.out == ""


def test_resolve_prints_validation_warnings_on_stderr(tmp_path, capsys):
    path = _scene(tmp_path, "factor a = x*y; set S = { a > 0 };")
    assert cli.main(["resolve", path, "--point", "0,0"]) == cli.EXIT_YES
    out = capsys.readouterr()
    assert out.err == "warning: factor 'a' looks reducible: content in x of degree 1\n"
    # stdout is the report alone, as for a scene without warnings
    assert out.out.startswith("resolution at (0, 0): ")
    assert "warning" not in out.out
