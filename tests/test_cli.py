import json

from basix import cli
from basix.errors import BasixError, CountMismatch, InternalError

# classify_exceptional's two paths disagree on D2 at v=0 here (an open defect);
# the failure must be reported as internal, not as bad input
DIVERGENT = (
    "factor f0 = x^2 + 1/3*y^2 - x - 2; factor f1 = y - x^2 - x + 1; "
    "factor f2 = y^2 - 2*x^3 + 1/2*x^2; set S = { f1 < 0, f0 < 0 };\n"
)
# the principal_closed witness is a fan on a curve with no rational point basis
UNSERIALIZABLE = (
    "factor f0 = 1*x - 2*y; factor f1 = y - x^2 - 2; "
    "factor f2 = x^2 - 2*y^2 + x*y + x - 2*y + 3; set S = { f0 < 0, f2 < 0 };\n"
)


def _scene(tmp_path, text):
    path = tmp_path / "scene.bsx"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_internal_errors_stay_basix_errors():
    assert issubclass(InternalError, BasixError)
    assert issubclass(CountMismatch, InternalError)


def test_internal_error_exits_4(tmp_path, capsys):
    code = cli.main(["check", _scene(tmp_path, DIVERGENT), "--property", "basic-open"])
    assert code == cli.EXIT_INTERNAL == 4
    assert capsys.readouterr().err.startswith("internal error: dual-path divergence")


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
