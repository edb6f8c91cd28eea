"""Decision procedures for basic / generically basic / principal sets.

`run_check` validates the scene and builds one sphere model per check from
the scene's projection; every check reads its one affine arrangement.  The
closed checks decompose their reduced scene (S minus its Zariski boundary)
or complement scene over that arrangement, since these scenes have the same
factors.  The open pipeline runs openness and set-meets-boundary prechecks,
the curve-level sign criterion, then blow-up analysis of every
non-normal-crossing boundary point with the lifted distributions.  The pole
is analysed in the inverted chart through the model's pole view, whose
lookups go to the affine decomposition; no check builds a second
arrangement.  Each exceptional component is sampled once and then
classified against every lifted distribution.  Negative verdicts carry an
independently verifiable fan witness whenever one exists (set-theoretic
prechecks carry none).  Validation warnings ride on the verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from .decompose import (
    SetDecomposition,
    decompose_set,
    is_closed_cellwise,
    is_open_cellwise,
    s_star_boundary_dim,
)
from .errors import BasixError, CountMismatch, InternalError, Unsupported
from .fans import Fan, fan_count_in_S, witness_curve_fan, witness_point_fan
from .resolution import (
    DEFAULT_DEPTH_CAP,
    AnalysisPoint,
    classify_exceptional,
    local_analysis_points,
    pole_analysis_point,
    resolve_point,
)
from .scene import Scene, validated_projection
from .signdist import ConditionAFailure, condition_a, condition_a_check
from .sphere import PoleView, SphereModel, build_sphere_model, infinity_sigma_decomposition

F = Fraction

# ordered edge pairs per boundary factor that the principal witness search tries
_PAIRS_PER_FACTOR = 31

PROPERTIES = (
    "basic_open",
    "basic_closed",
    "generically_basic",
    "principal_open",
    "principal_closed",
)


@dataclass
class CheckRequest:
    scene: Scene
    property: str
    want_witness: bool = True
    depth_cap: int = DEFAULT_DEPTH_CAP  # blow-ups per chart word in resolution


@dataclass
class Verdict:
    property: str
    answer: str  # 'Yes' | 'No' | 'Unsupported'
    reason: str = ""
    witness: Fan | None = None
    witness_count: int | None = None
    diagnostics: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    trace: list[str] = field(default_factory=list)


def _timer():
    """Per-stage durations: each mark records the ms since the previous one."""
    last = [time.monotonic()]
    marks = {}

    def mark(name: str):
        now = time.monotonic()
        marks[name] = round((now - last[0]) * 1000, 2)
        last[0] = now

    return marks, mark


def run_check(req: CheckRequest) -> Verdict:
    """Validate the scene, build its sphere model and decide the property.
    An `Unsupported` raised on the way becomes an Unsupported verdict."""
    decide = {
        "basic_open": _basic_open,
        "basic_closed": _basic_closed,
        "generically_basic": _generically_basic,
        "principal_open": _principal_open,
        "principal_closed": _principal_closed,
    }[req.property]
    marks, mark = _timer()
    warnings: list[str] = []
    try:
        projection, warnings = validated_projection(req.scene)
        mark("validate")
        model = build_sphere_model(req.scene, projection)
        mark("model")
        v = decide(model, req, mark)
    except Unsupported as exc:
        v = Verdict(req.property, "Unsupported", reason=f"{exc.reason}: {exc.detail}")
    v.timings = marks
    if warnings:
        v.diagnostics["validation_warnings"] = warnings
    return v


# ----------------------------------------------------------------- basic open


def _basic_open(model: SphereModel, req: CheckRequest, mark, allow_finite_meet: bool = False) -> Verdict:
    prop = "generically_basic" if allow_finite_meet else "basic_open"
    d = model.affine
    v = Verdict(prop, "Yes")
    v.diagnostics["s_meets_boundary"] = d.s_meets_boundary
    v.diagnostics["zariski_boundary"] = sorted(d.zariski_boundary)
    v.diagnostics["components"] = len(d.a_components)

    if not is_open_cellwise(d):
        v.answer, v.reason = "No", "NotOpen"
        return v

    if d.s_meets_boundary == "one_dimensional":
        v.answer, v.reason = "No", "SetMeetsBoundary"
        v.diagnostics["note"] = (
            "the set meets its Zariski boundary in dimension one; even removing"
            " finitely many points cannot make it basic open"
        )
        return v
    if d.s_meets_boundary == "finite" and not allow_finite_meet:
        v.answer, v.reason = "No", "SetMeetsBoundary"
        v.diagnostics["note"] = "finite boundary contact; the set is at best generically basic"
        v.diagnostics["meet_points"] = _meet_points(d)
        return v
    if d.s_meets_boundary == "finite":
        v.diagnostics["removed_points"] = _meet_points(d)

    # curve-level criterion
    v.diagnostics["condition_a_table"], fail = condition_a(d)
    if fail is None:
        # the pole adds no curve arc, and each arc of the inverted chart has
        # the same regions on its two sides as in the affine chart, so the
        # opposite chart's table is the affine one (kept as a report key)
        v.diagnostics["condition_a_table_infinity"] = v.diagnostics["condition_a_table"]
    mark("condition_a")
    if fail is not None:
        v.answer, v.reason = "No", "condition-a"
        v.diagnostics["failing_factor"] = fail.factor
        v.diagnostics["failing_sigma"] = fail.sigma_index
        if req.want_witness:
            _attach_witness(v, "curve", d.scene, 3, lambda: _curve_fan(d, fail))
        mark("witness")
        return v

    # blow-up criterion at every non-normal-crossing boundary point, both charts
    failure = _condition_b(model, v, req.depth_cap)
    mark("condition_b")
    if failure is not None:
        dec, D, cls = failure
        v.answer, v.reason = "No", "condition-b"
        v.diagnostics["failing_component_level"] = D.level
        v.diagnostics["failing_chart"] = dec.scene.chart
        if req.want_witness:
            o2, o1 = cls.omega2_plus[0], cls.omega1[0]
            _attach_witness(v, "point", dec.scene, 3, lambda: witness_point_fan(D, o2.v_mid, o1.v_mid, dec))
        mark("witness")
        return v
    return v


def _attach_witness(v: Verdict, kind: str, scene: Scene, expected: int, build) -> None:
    """Attach the fan ``build()`` returns, whose membership count in the scene
    must be ``expected``.  A fan that cannot be built or counted leaves the
    decided answer standing and is reported as ``witness_unsupported``; an
    engine invariant failure still propagates."""
    try:
        fan = build()
        count = fan_count_in_S(fan, scene)
    except Unsupported as exc:
        v.diagnostics["witness_unsupported"] = f"{exc.reason}: {exc.detail}"
        return
    if count != expected:
        raise CountMismatch(f"{kind} witness count {count} != {expected}")
    v.witness, v.witness_count = fan, count


def _curve_fan(d: SetDecomposition, fail: ConditionAFailure) -> Fan:
    """The curve witness of a condition-a failure: on its first sign-change
    edge and its first edge with S on both sides."""
    cc = fail.classification
    return witness_curve_fan(d, fail.factor, cc.omega1[0], cc.omega2_plus[0])


def _meet_points(d: SetDecomposition) -> list[list[str]]:
    arr = d.arrangement
    out = []
    for vid in sorted(d.s_vertices):
        vx = arr.vertices[vid]
        if vx.factors & d.zariski_boundary:
            pt = vx.point()
            out.append([str(pt[0]), str(pt[1])] if pt else ["algebraic", "algebraic"])
    return out


def _analysis_points_both_charts(model: SphereModel) -> list[tuple[SetDecomposition | PoleView, AnalysisPoint]]:
    """The affine points needing blow-up analysis, then the pole if it does;
    each with the decomposition or view its chart reads."""
    aff = local_analysis_points(model.affine)
    aff.sort(key=lambda ap: (ap.point is None, ap.point or (F(0), F(0))))
    pts: list[tuple[SetDecomposition | PoleView, AnalysisPoint]] = [(model.affine, ap) for ap in aff]
    pole = infinity_sigma_decomposition(model)
    ap = pole_analysis_point(pole)
    if ap is not None and not ap.exempt:
        pts.append((pole, ap))
    return pts


def _condition_b(model: SphereModel, v: Verdict, depth_cap: int):
    exc_table: list = []
    v.diagnostics["resolution_points"] = []
    v.diagnostics["exceptional_table"] = exc_table
    n_comps = len(model.affine.a_components)  # the pole view's are the affine ones
    for dec, ap in _analysis_points_both_charts(model):
        if not ap.rational:
            raise Unsupported(
                "NonRationalSingularPoint",
                f"boundary point with factors {ap.factors} has irrational coordinates",
            )
        chart_name = dec.scene.chart
        v.diagnostics["resolution_points"].append(
            {"chart": chart_name, "point": [str(ap.point[0]), str(ap.point[1])], "factors": ap.factors}
        )
        factors = dec.scene.factors
        boundary_polys = {
            n: factors[n]
            for n in dec.scene.order
            if n in model.affine.zariski_boundary and factors[n].sign_at(*ap.point) == 0
        }
        if not boundary_polys:
            continue
        tree = resolve_point(boundary_polys, ap.point, depth_cap)
        v.trace.extend(tree.trace)
        if not n_comps:
            continue
        # every component is sampled before any row is read, so that an
        # Unsupported raised for a later component wins over an earlier failure
        sides = [classify_exceptional(D, dec) for D in tree.components]
        for D, arcs in zip(tree.components, sides):
            for i in range(n_comps):
                cls = arcs.against(i)
                exc_table.append(
                    {"chart": chart_name, "level": D.level, "sigma": i, "verdict": cls.verdict}
                )
                if cls.verdict == "PositiveTypeChanging":
                    return dec, D, cls
    return None


# ----------------------------------------------------------------- variants


def _generically_basic(model: SphereModel, req: CheckRequest, mark) -> Verdict:
    return _basic_open(model, req, mark, allow_finite_meet=True)


def _basic_closed(model: SphereModel, req: CheckRequest, mark) -> Verdict:
    d = model.affine
    if not is_closed_cellwise(d):
        return Verdict("basic_closed", "No", reason="NotClosed")
    reduced = d.scene.minus_factor_zeros(d.zariski_boundary)
    inner = _basic_open(model.for_scene(reduced), req, mark)
    v = Verdict("basic_closed", inner.answer, reason=inner.reason, witness=inner.witness)
    v.witness_count = inner.witness_count
    v.diagnostics = {"reduced_check": inner.diagnostics, "zariski_boundary": sorted(d.zariski_boundary)}
    _lift_witness_note(v, inner)
    return v


def _principal_open(model: SphereModel, req: CheckRequest, mark) -> Verdict:
    d = model.affine
    v = Verdict("principal_open", "Yes")
    if d.s_meets_boundary != "empty":
        v.answer, v.reason = "No", "SetMeetsBoundary"
        return v
    dim_s = s_star_boundary_dim(d)
    dc = decompose_set(d.arrangement, d.scene.open_complement(d.zariski_boundary))
    dim_c = s_star_boundary_dim(dc)
    mark("dim_tests")
    v.diagnostics["interior_closure_dim"] = dim_s
    v.diagnostics["complement_interior_closure_dim"] = dim_c
    if dim_s != "one_dimensional" and dim_c != "one_dimensional":
        return v
    v.answer = "No"
    if dim_s == "one_dimensional":
        v.reason = "principal-set-side"
        fail = condition_a_check(d)
        if fail is None:
            raise InternalError("dimension test and sign criterion disagree")
        expected = 3
        dd = d
    else:
        v.reason = "principal-complement-side"
        fail = condition_a_check(dc)
        if fail is None:
            raise InternalError("dimension test and sign criterion disagree")
        expected = 1
        dd = dc
    if req.want_witness:
        _attach_witness(v, "principal", d.scene, expected, lambda: _curve_fan(dd, fail))
    mark("witness")
    return v


def _principal_witness_search(d: SetDecomposition) -> tuple[Fan, int] | None:
    """Best-effort curve-centered fan with membership count 1 or 3, used when a
    set-theoretic precheck already settles the verdict.

    The candidates are the first `_PAIRS_PER_FACTOR` ordered pairs of each
    boundary factor's edges, and a pair's count is read from side tags
    before its fan is built.  Each ordering is an edge sample moved by
    eta*z: in y on a curve edge, in x on a vertical one.  No other factor
    vanishes at the sample, which is no vertex, and the edge's own factor f
    takes the sign of eta times its derivative along the move, nonzero (f_y
    in an open slab, f_x on a vertical line) and the sign of f on side eta.
    So the orderings have the sign vectors of the four regions beside the
    two edges, and the count is how many of those lie in S.  Only pairs of
    odd count are built; a factor with no edge that has exactly one side in
    S has none.  A candidate that fails with an engine error is skipped; an
    `InternalError` propagates, as does a count other than the predicted
    one."""
    arr = d.arrangement
    for factor in sorted(d.zariski_boundary):
        edges = arr.edges_of_factor(factor)
        sides = [(e.side_above in d.s_regions) + (e.side_below in d.s_regions) for e in edges]
        if 1 not in sides:
            continue
        pairs = ((i, j) for i in range(len(edges)) for j in range(len(edges)) if i != j)
        for i, j in islice(pairs, _PAIRS_PER_FACTOR):
            predicted = sides[i] + sides[j]
            if predicted % 2 == 0:
                continue
            try:
                fan = witness_curve_fan(d, factor, edges[i].eid, edges[j].eid)
                count = fan_count_in_S(fan, d.scene)
            except InternalError:
                raise  # a broken invariant, not a failed candidate
            except BasixError:
                continue
            if count != predicted:
                raise InternalError(f"curve fan counts {count} orderings in S, the sides of its edges {predicted}")
            return fan, count
    return None


def _principal_closed(model: SphereModel, req: CheckRequest, mark) -> Verdict:
    d = model.affine
    # the Zariski boundary must avoid the complement
    meets = any(
        e.factor in d.zariski_boundary and e.eid not in d.s_edges for e in d.arrangement.edges
    ) or any(
        (vx.factors & d.zariski_boundary) and vx.vid not in d.s_vertices
        for vx in d.arrangement.vertices
    )
    if meets:
        v = Verdict("principal_closed", "No", reason="BoundaryMeetsComplement")
        if req.want_witness:
            found = _principal_witness_search(d)
            if found is not None:
                v.witness, v.witness_count = found
        return v
    # points missing from S on no boundary edge (an isolated zero) escape the
    # test above, and the complement of S is then principal open
    if not is_closed_cellwise(d):
        return Verdict("principal_closed", "No", reason="NotClosed")
    inner = _principal_open(model.for_scene(d.scene.complement()), req, mark)
    v = Verdict("principal_closed", inner.answer, reason=inner.reason, witness=inner.witness)
    v.diagnostics = {"complement_check": inner.diagnostics}
    _lift_witness_note(v, inner)
    if inner.witness is not None:
        v.witness_count = fan_count_in_S(inner.witness, d.scene)
    return v


def _lift_witness_note(v: Verdict, inner: Verdict) -> None:
    """A closed check reports why its derived check has no witness."""
    if "witness_unsupported" in inner.diagnostics:
        v.diagnostics["witness_unsupported"] = inner.diagnostics["witness_unsupported"]
