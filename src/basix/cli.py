"""Command-line front end.

Commands: check, plot, resolve, verify-fan.  Exit codes for `check`:
0 = Yes, 1 = No, 2 = Unsupported, 3 = input error, 4 = internal error (an
engine invariant failed, or any exception other than a `BasixError` was
raised; the input is not at fault).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .checker import CheckRequest, run_check
from .errors import BasixError, InternalError, ParseError, SceneError, Unsupported
from .fans import fan_count_in_S, fan_from_json, fan_to_json, verify_fan
from .report import verdict_to_json, verdict_to_text
from .scene import Scene, validate_scene, validated_projection

F = Fraction

_PROPS = {
    "basic-open": "basic_open",
    "basic-closed": "basic_closed",
    "generically-basic": "generically_basic",
    "principal-open": "principal_open",
    "principal-closed": "principal_closed",
}

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNSUPPORTED = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


def _load_scene(path: str) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        return Scene.from_text(fh.read())


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="basix", description="Decide basicness and principality of planar semialgebraic sets")
    sub = ap.add_subparsers(dest="command", required=True)

    chk = sub.add_parser("check", help="decide a property of the scene's set")
    chk.add_argument("scene", help="path to a .bsx scene file")
    chk.add_argument("--property", required=True, choices=sorted(_PROPS))
    chk.add_argument("--witness", action="store_true", help="construct a fan witness on negative verdicts")
    chk.add_argument("--format", choices=("text", "json"), default="text")
    chk.add_argument("--trace", action="store_true", help="stream blow-up traces")
    chk.add_argument("--out", help="write the report here instead of stdout")

    plot = sub.add_parser("plot", help="emit an SVG drawing of the arrangement")
    plot.add_argument("scene")
    plot.add_argument("--out", required=True)
    plot.add_argument("--window", type=float, default=4.0)
    plot.add_argument("--width", type=int, default=480)

    res = sub.add_parser("resolve", help="blow-up resolution trace at a point")
    res.add_argument("scene")
    res.add_argument("--point", required=True, help="x,y with rational coordinates")
    res.add_argument("--trace", action="store_true")

    vf = sub.add_parser("verify-fan", help="re-verify a fan witness against a scene")
    vf.add_argument("fan", help="path to a fan JSON file")
    vf.add_argument("scene", help="path to a .bsx scene file")

    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, SceneError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        # a file that cannot be read, or is no text, is the input's fault
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BasixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # an engine fault, never a verdict: exit 1 would read as "No"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _dispatch(args) -> int:
    if args.command == "check":
        scene = _load_scene(args.scene)
        req = CheckRequest(scene, _PROPS[args.property], want_witness=args.witness)
        depth = os.environ.get("BASIX_MAX_DEPTH")
        if depth:
            try:
                req.depth_cap = int(depth)
            except ValueError:
                print(f"error: BASIX_MAX_DEPTH must be an integer, got {depth!r}", file=sys.stderr)
                return EXIT_INPUT
        verdict = run_check(req)
        body = verdict_to_json(verdict) if args.format == "json" else verdict_to_text(verdict)
        if args.trace and verdict.trace:
            body += "\n" + "\n".join(verdict.trace)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(body + "\n")
        else:
            print(body)
        return {"Yes": EXIT_YES, "No": EXIT_NO, "Unsupported": EXIT_UNSUPPORTED}[verdict.answer]

    if args.command == "plot":
        from .arrangement import build_arrangement
        from .decompose import decompose_set
        from .svgplot import render_svg

        scene = _load_scene(args.scene)
        projection, warnings = validated_projection(scene)
        _warn(warnings)
        svg = render_svg(decompose_set(build_arrangement(scene, projection), scene), width=args.width, window=args.window)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg + "\n")
        print(f"wrote {args.out}")
        return EXIT_YES

    if args.command == "resolve":
        from .resolution import resolve_point

        scene = _load_scene(args.scene)
        _warn(validate_scene(scene))
        try:
            xs, ys = args.point.split(",")
            p = (F(xs), F(ys))
        except ValueError:
            print("error: --point expects x,y with rational coordinates", file=sys.stderr)
            return EXIT_INPUT
        through = {n: q for n, q in scene.factors.items() if q.eval(*p) == 0}
        if not through:
            print(f"error: ({p[0]}, {p[1]}) lies on no declared factor", file=sys.stderr)
            return EXIT_INPUT
        try:
            tree = resolve_point(through, p)
        except Unsupported as exc:
            print(f"unsupported: {exc}", file=sys.stderr)
            return EXIT_UNSUPPORTED
        print(f"resolution at ({p[0]}, {p[1]}): {len(tree.components)} blow-up(s)")
        for D in tree.components:
            marks = ", ".join(
                f"v={_fmt_loc(m.v)} [{'+'.join(_tag(t) for t in m.tags)}]" for m in D.marked
            )
            word = " . ".join(f"{s.kind}@({s.tx},{s.ty})" for s in D.chart.steps)
            print(f"  D{D.level}: chart word {word}")
            print(f"      marked: {marks if marks else '(none)'}")
            if D.inf_tags:
                print(f"      at infinity: {'+'.join(_tag(t) for t in D.inf_tags)}")
        if args.trace:
            for line in tree.trace + tree.certificate:
                print(f"  # {line}")
        return EXIT_YES

    if args.command == "verify-fan":
        with open(args.fan, "r", encoding="utf-8") as fh:
            fan_text = fh.read()
        scene = _load_scene(args.scene)
        _warn(validate_scene(scene))
        fan = fan_from_json(fan_text, scene)
        rep = verify_fan(fan, scene)
        count = fan_count_in_S(fan, scene)
        print(f"membership count: {count}")
        print(f"product law: {'pass' if rep.product_law_ok else 'FAIL'} ({rep.checked} polynomials)")
        print(f"distinctness: {'pass' if rep.distinct else 'FAIL'}")
        for pair, sep in sorted(rep.separators.items()):
            print(f"  alpha_{pair.replace(',', ' / alpha_')} separated by {sep}")
        for msg in rep.failures:
            print(f"  problem: {msg}")
        return EXIT_YES if rep.product_law_ok and rep.distinct else EXIT_NO

    raise InternalError(f"unknown command {args.command!r}")


def _warn(warnings: list[str]) -> None:
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)


def _fmt_loc(v) -> str:
    return str(v.lo) if v.lo == v.hi else f"~{float((v.lo + v.hi) / 2):.4f}"


def _tag(t) -> str:
    if isinstance(t, tuple) and t and t[0] == "exc":
        return f"D{t[1]}"
    return str(t)


if __name__ == "__main__":
    sys.exit(main())
