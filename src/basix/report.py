"""Verdict serialization: stable JSON and human-readable text.

Rationals are embedded as exact "p/q" strings, never decimals; ordering of
keys and table rows is canonical so golden outputs diff cleanly.
"""

from __future__ import annotations

import json

from .checker import Verdict
from .errors import Unsupported
from .fans import fan_to_json


def verdict_to_dict(v: Verdict) -> dict:
    d: dict = {
        "property": v.property,
        "answer": v.answer,
        "reason": v.reason,
        "diagnostics": _stable(v.diagnostics),
        "timings": v.timings,
    }
    if v.witness is not None:
        try:
            d["witness"] = json.loads(fan_to_json(v.witness))
        except Unsupported as exc:
            # the verdict stands; only the witness lacks a rational JSON form
            d["witness_unserializable"] = str(exc)
        d["witness_count"] = v.witness_count
    return d


def verdict_to_json(v: Verdict) -> str:
    return json.dumps(verdict_to_dict(v), indent=2, sort_keys=True)


def verdict_to_text(v: Verdict) -> str:
    lines = [f"property : {v.property}", f"answer   : {v.answer}"]
    if v.reason:
        lines.append(f"reason   : {v.reason}")
    for w in v.diagnostics.get("validation_warnings", []):
        lines.append(f"warning  : {w}")
    if v.witness is not None:
        lines.append(f"witness  : {v.witness.kind} fan ({v.witness.form_tag}), membership count {v.witness_count}")
        if v.witness.factor:
            lines.append(f"           centred on factor {v.witness.factor}")
        if v.witness.center:
            lines.append(f"           centred at ({v.witness.center[0]}, {v.witness.center[1]}) [{v.witness.chart} chart]")
    elif "witness_unsupported" in v.diagnostics:
        lines.append(f"witness  : unavailable ({v.diagnostics['witness_unsupported']})")
    table = v.diagnostics.get("condition_a_table")
    if table:
        lines.append("curve-criterion table (factor, component, verdict):")
        for f, i, verdict in table:
            lines.append(f"  {f:>10s}  A_{i}  {verdict}")
    pts = v.diagnostics.get("resolution_points")
    if pts:
        lines.append("blow-up analysis points:")
        for p in pts:
            lines.append(f"  {p['chart']}: ({p['point'][0]}, {p['point'][1]}) on {','.join(p['factors'])}")
    exc = v.diagnostics.get("exceptional_table")
    if exc:
        lines.append("exceptional components (chart, level, component, verdict):")
        for row in exc:
            lines.append(f"  {row['chart']:>8s}  D{row['level']}  A_{row['sigma']}  {row['verdict']}")
    if v.diagnostics.get("removed_points"):
        pts2 = ", ".join(f"({a}, {b})" for a, b in v.diagnostics["removed_points"])
        lines.append(f"finite exceptional set: {pts2}")
    if v.timings:
        lines.append("timings (ms): " + ", ".join(f"{k}={t}" for k, t in v.timings.items()))
    return "\n".join(lines)


def _stable(obj):
    if isinstance(obj, dict):
        return {k: _stable(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_stable(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_stable(x) for x in obj)
    return obj
