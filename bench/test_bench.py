"""Self-tests of the benchmark: python3 -m pytest bench -q"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import tracer as tracing
import workloads
from basix import checker, resolution, sphere
from basix.scene import Scene

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
CHEAP = ("half", "quad", "para")


def test_generators_are_deterministic():
    for name in workloads.WORKLOADS:
        assert workloads.workload(name) == workloads.workload(name)
    assert workloads.lines_scenes(5, 11) == workloads.lines_scenes(5, 11)
    assert workloads.lines_scenes(5, 11) != workloads.lines_scenes(5, 12)
    _texts, checks = workloads.workload("fixtures")
    assert workloads.pass_order(checks, 3, 0) == workloads.pass_order(checks, 3, 0)
    assert sorted(c.cid for c in workloads.pass_order(checks, 3, 1)) == sorted(c.cid for c in checks)


def test_pencil3_is_the_cubic_fixture():
    assert workloads.pencil(3) == workloads.fixture_text("cubic")


def test_closed_twin_relaxes_and_drops_neq():
    twin = workloads.closed_twin(workloads.fixture_text("para"))
    assert twin.endswith("set S = { a <= 0, l >= 0 } | { a >= 0, l >= 0, p <= 0 };\n")


@pytest.mark.parametrize("seed", range(6))
def test_lines_in_general_position(seed):
    ls = workloads.random_lines(6, seed)
    for i, (a, b, _c) in enumerate(ls):
        for a2, b2, _c2 in ls[:i]:
            assert a * b2 - b * a2 != 0
    for i in range(len(ls)):
        for j in range(i):
            x, y = workloads._meet(ls[i], ls[j])
            assert [k for k, (a, b, c) in enumerate(ls) if a * x + b * y + c == 0] == [j, i]


def test_every_check_is_pinned():
    pinned = json.loads(run.EXPECTED_PATH.read_text())
    for name in workloads.WORKLOADS:
        texts, checks = workloads.workload(name)
        assert sorted(pinned[name]) == sorted(c.cid for c in checks)


def test_benchmark_json_names_every_metric():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = {k: u for k, (u, _kind) in tracing.LAYER_METRICS.items()} | {"trace.overhead_s": "s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_wrappers_rebind_by_name_and_restore():
    orig = resolution.classify_exceptional
    tr = tracing.Tracer()
    tr.install()
    try:
        assert checker.classify_exceptional is resolution.classify_exceptional is not orig
        assert sphere.build_arrangement.__wrapped__ is not None
    finally:
        tr.uninstall()
    assert checker.classify_exceptional is resolution.classify_exceptional is orig
    assert not hasattr(sphere.build_arrangement, "__wrapped__")


def test_wrapper_reraises_unchanged():
    err = ValueError("boom")

    def fails():
        raise err

    tr = tracing.Tracer()
    wrapped = tr._wrap("x.fails", fails, False, None)
    with pytest.raises(ValueError) as info:
        with tr.root("check", "c/p"):
            wrapped()
    assert info.value is err
    assert [s[tracing.OK] for s in tr.spans] == [False, False]


def _outcomes(tr: tracing.Tracer | None) -> dict[str, dict]:
    out = {}
    for name in CHEAP:
        text = workloads.fixture_text(name)
        scene = Scene.from_text(text)
        for prop in workloads.PROPERTIES:
            req = checker.CheckRequest(scene, prop)
            if tr is None:
                v = checker.run_check(req)
            else:
                with tr.root("check", f"{name}/{prop}"):
                    v = checker.run_check(req)
            out[f"{name}/{prop}"] = run.outcome(text, v)
    return out


@pytest.fixture(scope="module")
def traced():
    plain = _outcomes(None)
    tr = tracing.Tracer()
    tr.install()
    try:
        outcomes = _outcomes(tr)
    finally:
        tr.uninstall()
    return plain, outcomes, tr.spans


def test_traced_digests_equal_untraced_and_pinned(traced):
    plain, outcomes, _spans = traced
    assert outcomes == plain
    pinned = json.loads(run.EXPECTED_PATH.read_text())["fixtures"]
    assert {k: pinned[k] for k in outcomes} == outcomes


def test_self_times_add_up_to_the_check_span(traced):
    _plain, _outcomes, spans = traced
    selfs = tracing.self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[tracing.PARENT] < 0 and s[tracing.NAME] == "check"]
    assert len(roots) == len(CHEAP) * len(workloads.PROPERTIES)
    assert len(spans) > len(roots)
    for r in roots:
        total = sum(t for i, t in enumerate(selfs) if spans[i][tracing.ROOT] == r)
        duration = spans[r][tracing.END] - spans[r][tracing.START]
        assert total == pytest.approx(duration, rel=1e-9, abs=1e-12)
        assert all(t >= 0 for i, t in enumerate(selfs) if spans[i][tracing.ROOT] == r)


def test_layer_metrics_cover_every_name(traced):
    _plain, _outcomes, spans = traced
    m = tracing.layer_metrics(spans)
    assert set(m) == set(tracing.LAYER_METRICS)
    assert m["sphere.build_sphere_model.calls_per_check"] >= 1
    assert m["arrangement.build_arrangement.affine.calls"] == m["arrangement.build_arrangement.infinity.calls"]
    assert m["checker.basic_open.total_s"] > 0
