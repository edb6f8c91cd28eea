"""Outside-in span tracer for the benchmark's traced run.

``Tracer.install`` wraps each engine function named in ``TARGETS`` in its
defining module and in every ``basix.*`` module that imported it by name
(``checker`` holds its own ``classify_exceptional``, ``sphere`` its own
``build_arrangement``, ...).  Methods are wrapped on their class.  Wrappers
return results and re-raise exceptions unchanged.  The engine itself is not
edited: spans are recorded only around calls that cross these boundaries.

A span is ``[name, start, end, parent, root, ok, info]``: times from
``time.perf_counter``, ``parent`` and ``root`` are indices into the span
list (``parent`` is -1 for a root), ``ok`` says the call returned, and
``info`` holds a per-target count (cells of an arrangement, components of a
resolution tree) or object (the exceptional component classified).  Roots
are opened by the benchmark around each check (``check``), each output
verification (``verify``) and the scene parse (``parse``); every root
carries its check id in ``info``.  Engine-layer metrics read only spans
under ``check`` roots; ``fans.verify_fan.total_s`` and
``report.verdict_to_dict.total_s`` read the ``verify`` roots, because a
check never calls those two functions.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import statistics
import sys
import time
from contextlib import contextmanager

from workloads import PROPERTIES

NAME, START, END, PARENT, ROOT, OK, INFO = range(7)


def _cells(_args, arr) -> int:
    return len(arr.vertices) + len(arr.edges) + len(arr.regions)


def _components(_args, tree) -> int:
    return len(tree.components)


def _component(args, _cls):
    # the object itself, so that its id() stays unique while the span lives
    return args[0]


# (module, attribute, split the span name by the scene's chart, (args, result) -> info)
TARGETS = [
    ("basix.parser", "parse_scene_text", False, None),
    ("basix.scene", "validate_scene", False, None),
    ("basix.scene", "invert_scene", False, None),
    ("basix.sphere", "build_sphere_model", False, None),
    ("basix.sphere", "infinity_sigma_decomposition", False, None),
    ("basix.arrangement", "build_arrangement", True, _cells),
    ("basix.realroots", "isolate_real_roots", False, None),
    ("basix.realroots", "RootLocator.refine", False, None),
    ("basix.bipoly", "resultant", False, None),
    ("basix.bipoly", "discriminant_y", False, None),
    ("basix.bipoly", "is_squarefree", False, None),
    ("basix.bipoly", "are_coprime", False, None),
    ("basix.decompose", "decompose_set", False, None),
    ("basix.signdist", "condition_a_check", False, None),
    ("basix.signdist", "condition_a_table", False, None),
    ("basix.resolution", "local_analysis_points", False, None),
    ("basix.resolution", "resolve_point", False, _components),
    ("basix.resolution", "classify_exceptional", False, _component),
    ("basix.fans", "witness_curve_fan", False, None),
    ("basix.fans", "witness_point_fan", False, None),
    ("basix.fans", "fan_count_in_S", False, None),
    ("basix.fans", "verify_fan", False, None),
    ("basix.report", "verdict_to_dict", False, None),
]

# Per-layer metrics: name -> (unit, root kind whose spans feed it).  Engine
# layers count only spans inside check roots, so the benchmark's own output
# verification (which calls fan_count_in_S and friends) does not inflate them.
# The two "verify" metrics are the exception: run_check never calls
# verify_fan or verdict_to_dict, so these time the benchmark's own
# re-verification of each verdict, not work done by a check.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    **{f"arrangement.build_arrangement.{c}.{s}": (u, "check") for c in ("affine", "infinity")
       for s, u in (("calls", "count"), ("self_s", "s"), ("total_s", "s"))},
    "arrangement.cells.affine": ("count", "check"),
    "arrangement.cells.infinity": ("count", "check"),
    "realroots.isolate_real_roots.calls": ("count", "check"),
    "realroots.isolate_real_roots.total_s": ("s", "check"),
    "realroots.RootLocator.refine.calls": ("count", "check"),
    "bipoly.resultant.calls": ("count", "check"),
    "bipoly.resultant.total_s": ("s", "check"),
    "bipoly.discriminant_y.total_s": ("s", "check"),
    "bipoly.is_squarefree.total_s": ("s", "check"),
    "bipoly.are_coprime.total_s": ("s", "check"),
    "resolution.resolve_point.calls": ("count", "check"),
    "resolution.resolve_point.total_s": ("s", "check"),
    "resolution.blowups": ("count", "check"),
    "resolution.local_analysis_points.total_s": ("s", "check"),
    "resolution.classify_exceptional.calls": ("count", "check"),
    "resolution.classify_exceptional.total_s": ("s", "check"),
    "resolution.classify_exceptional.distinct_ratio": ("ratio", "check"),
    "sphere.build_sphere_model.calls_per_check": ("count", "check"),
    "sphere.build_sphere_model.self_s": ("s", "check"),
    "sphere.infinity_sigma_decomposition.calls": ("count", "check"),
    "scene.validate_scene.calls": ("count", "check"),
    "scene.validate_scene.self_s": ("s", "check"),
    "scene.invert_scene.total_s": ("s", "check"),
    "parser.parse_scene_text.total_s": ("s", "parse"),
    "decompose.decompose_set.calls": ("count", "check"),
    "decompose.decompose_set.total_s": ("s", "check"),
    "signdist.condition_a_check.total_s": ("s", "check"),
    "signdist.condition_a_table.total_s": ("s", "check"),
    "fans.witness_curve_fan.calls": ("count", "check"),
    "fans.witness_curve_fan.total_s": ("s", "check"),
    "fans.witness_curve_fan.ok_ratio": ("ratio", "check"),
    "fans.witness_point_fan.total_s": ("s", "check"),
    "fans.fan_count_in_S.calls": ("count", "check"),
    "fans.fan_count_in_S.total_s": ("s", "check"),
    "fans.verify_fan.total_s": ("s", "verify"),
    "report.verdict_to_dict.total_s": ("s", "verify"),
    **{f"checker.{p}.total_s": ("s", "check") for p in PROPERTIES},
}


class Tracer:
    """Records spans in memory; ``install`` rebinds, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- recording

    @contextmanager
    def root(self, kind: str, check_id: str):
        """A root span; spans opened inside it until it closes are its descendants."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        idx = len(self.spans)
        span = [kind, time.perf_counter(), 0.0, -1, idx, False, check_id]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield
            span[OK] = True
        finally:
            self._stack.pop()
            span[END] = time.perf_counter()

    def _wrap(self, name: str, fn, by_chart: bool, info_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [
                f"{name}.{args[0].chart}" if by_chart else name,
                clock(),
                0.0,
                stack[-1] if stack else -1,
                stack[0] if stack else idx,
                False,
                None,
            ]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            span[OK] = True
            if info_of is not None:
                span[INFO] = info_of(args, result)
            return result

        return wrapper

    # -------------------------------------------------------------- rebinding

    def install(self) -> None:
        import basix

        for mod in pkgutil.iter_modules(basix.__path__):
            importlib.import_module(f"basix.{mod.name}")
        engine = [m for n, m in sys.modules.items() if n == "basix" or n.startswith("basix.")]
        for modname, attr, by_chart, info_of in TARGETS:
            mod = importlib.import_module(modname)
            name = f"{modname.removeprefix('basix.')}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._rebind(cls, meth, orig, self._wrap(name, orig, by_chart, info_of))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig, by_chart, info_of)
            for m in engine:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._rebind(m, key, orig, wrapper)

    def _rebind(self, owner, key: str, orig, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()


# ------------------------------------------------------------------ analysis


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _outermost(spans: list[list]) -> list[bool]:
    """False for a span nested inside another span of the same name."""
    out = []
    for s in spans:
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        out.append(p < 0)
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Every metric of ``LAYER_METRICS`` over one pass's spans.

    ``total_s`` counts only the outermost span of a name, so recursion is not
    counted twice; ``self_s`` sums self times; ``calls`` counts spans."""
    selfs = self_times(spans)
    outer = _outermost(spans)
    calls: dict[tuple[str, str], int] = {}
    ok: dict[tuple[str, str], int] = {}
    total: dict[tuple[str, str], float] = {}
    self_s: dict[tuple[str, str], float] = {}
    info: dict[tuple[str, str], list] = {}
    for i, s in enumerate(spans):
        kind = spans[s[ROOT]][NAME]
        name = s[NAME]
        if s[PARENT] < 0:
            if kind != "check":
                continue
            name = f"checker.{s[INFO].rsplit('/', 1)[1]}"
        key = (kind, name)
        calls[key] = calls.get(key, 0) + 1
        ok[key] = ok.get(key, 0) + (1 if s[OK] else 0)
        self_s[key] = self_s.get(key, 0.0) + selfs[i]
        if outer[i]:
            total[key] = total.get(key, 0.0) + (s[END] - s[START])
        if s[INFO] is not None and s[PARENT] >= 0:
            info.setdefault(key, []).append(s[INFO])
    checks = sum(1 for s in spans if s[PARENT] < 0 and s[NAME] == "check")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for metric, (_unit, kind) in LAYER_METRICS.items():
        base, _, stat = metric.rpartition(".")
        key = (kind, base)
        if metric.startswith("arrangement.cells."):
            val = float(sum(info.get((kind, f"arrangement.build_arrangement.{stat}"), [])))
        elif metric == "resolution.blowups":
            val = float(sum(info.get((kind, "resolution.resolve_point"), [])))
        elif stat == "distinct_ratio":
            val = ratio(len({id(obj) for obj in info.get(key, [])}), calls.get(key, 0))
        elif stat == "ok_ratio":
            val = ratio(ok.get(key, 0), calls.get(key, 0))
        elif stat == "calls_per_check":
            val = ratio(calls.get(key, 0), checks)
        elif stat == "calls":
            val = float(calls.get(key, 0))
        elif stat == "self_s":
            val = self_s.get(key, 0.0)
        elif stat == "total_s":
            val = total.get(key, 0.0)
        else:
            raise ValueError(f"unknown statistic in {metric!r}")
        out[metric] = val
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
