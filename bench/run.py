"""Time-to-verdict benchmark for basix.

    python3 bench/run.py --workload fixtures --seed 1 --seconds 40 --trace 0

Drives the engine only through its public API, ``Scene.from_text`` then
``checker.run_check(CheckRequest(scene, property))``, one closed-loop check
at a time from a single thread.  A run repeats passes over the workload's
check list (in a seed-chosen order per pass) until ``--seconds`` is used up,
and after each pass verifies every verdict outside the timed interval: its
answer, reason, witness count and report digest against ``expected.json``,
any answer known without the engine, the fan witness of every "No" with
``verify_fan`` and ``fan_count_in_S``, and principal_open => basic_open.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:

- ``setup_s``: median over fresh interpreters of start-up, ``import basix``
  and generating and parsing the workload's scenes;
- ``wall_s``: median over passes of the time one pass spends in checks;
- ``verdict_ms_p50``: median time from parsed scene to ``Verdict`` over all
  checks of the run;
- ``peak_rss_mb``: peak resident set size of the run.

Every time is scaled to the reference speed (see ``reference_seconds``):
each check and each setup is timed right after a run of a fixed reference
kernel, and its time is multiplied by ``REF_S`` over the kernel's time.  The
unscaled medians are in the detail line.

``--trace 1`` spends half the time on untraced passes and half on traced
ones, prints the per-layer metrics of ``tracer.LAYER_METRICS`` (median over
traced passes; span times are not scaled) plus ``trace.overhead_s`` (scaled
traced minus untraced pass time), and writes the spans of the first traced
pass to ``bench/out``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a ``{"detail": ...}`` object with sample counts, ``verdict_ms_p90`` (when
a run holds at least 100 verdicts), the unscaled medians,
``check_fail_frac`` and the sha256 of the workload's scene texts.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC_DIR))

import basix  # noqa: E402
from basix import checker, fans, report  # noqa: E402
from basix.scene import Scene, invert_scene  # noqa: E402

if Path(basix.__file__).resolve().parent != SRC_DIR / "basix":
    raise SystemExit(f"imported basix from {basix.__file__}, not from this checkout's src/")

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

EXPECTED_PATH = BENCH_DIR / "expected.json"
OUT_DIR = BENCH_DIR / "out"
SETUP_RUNS = 11
P90_MIN_SAMPLES = 100

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "verdict_ms_p50": "ms", "peak_rss_mb": "MB"}

# Nominal duration of the reference kernel: times are reported as they would
# read on a machine where ``reference_seconds()`` returns this.
REF_S = 0.005


def _kernel() -> float:
    t0 = time.perf_counter()
    a = [Fraction(i * 7 % 13 - 6, i % 5 + 1) for i in range(24)]
    b = [Fraction(i * 5 % 11 - 5, i % 3 + 2) for i in range(24)]
    prod = [Fraction(0)] * 47
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(1, 16):
        x, v = Fraction(k, k + 3), Fraction(0)
        for c in reversed(prod):
            v = v * x + c
    d: dict[int, int] = {}
    for i in range(3000):
        d[i * 31 % 1021] = d.get(i * 31 % 1021, 0) + i
    sorted(d.items(), key=lambda kv: kv[1])
    return time.perf_counter() - t0


def reference_seconds() -> float:
    """Fastest of three runs of a fixed kernel of exact rational arithmetic,
    dict and sort work that does not touch basix.

    The benchmark takes it right before each timed check and setup and scales
    that measurement by ``REF_S / reference_seconds()``.  On shared hosts the
    speed of pure-Python code drifts by tens of percent over tens of seconds;
    the kernel drifts with it, while a change to basix cannot move it.  The
    fastest of three runs ignores an interruption of a single run.
    """
    return min(_kernel() for _ in range(3))


# ------------------------------------------------------------------ outcomes


def verdict_digest(v: checker.Verdict) -> str:
    """sha256 of the verdict report without its wall-clock ``timings``."""
    d = report.verdict_to_dict(v)
    d.pop("timings", None)
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()


def outcome(scene_text: str, v: checker.Verdict) -> dict:
    return {
        "scene_sha256": hashlib.sha256(scene_text.encode()).hexdigest(),
        "answer": v.answer,
        "reason": v.reason,
        "witness_count": v.witness_count,
        "digest": verdict_digest(v),
    }


def witness_scene(check: workloads.Check, scene: Scene, v: checker.Verdict) -> Scene:
    """The scene, in the witness's chart, in which the checker counted it."""
    if check.prop == "basic_closed":
        scene = scene.minus_factor_zeros(v.diagnostics["zariski_boundary"])
    return invert_scene(scene) if v.witness.chart == "infinity" else scene


def verify(check, scene_text: str, scene: Scene, v, expected: dict | None) -> list[str]:
    """Problems with one verdict; empty when it is correct.  ``expected`` is
    the pinned outcome, or None to check only what needs no pinning."""
    problems = []
    got = outcome(scene_text, v)
    if expected is not None:
        problems += [f"{k}: got {got[k]!r}, expected {expected[k]!r}" for k in expected if got[k] != expected[k]]
    if check.known_answer is not None and v.answer != check.known_answer:
        problems.append(f"answer {v.answer} contradicts the known answer {check.known_answer}")
    if check.known_count is not None and v.witness_count != check.known_count:
        problems.append(f"witness count {v.witness_count} contradicts the known count {check.known_count}")
    if v.witness is not None:
        ws = witness_scene(check, scene, v)
        rep = fans.verify_fan(v.witness, ws)
        if not (rep.product_law_ok and rep.distinct):
            problems.append(f"witness does not re-verify: {rep.failures}")
        count = _fan_count_in_S(v.witness, ws)
        if count != v.witness_count:
            problems.append(f"witness counts {count} points in S, verdict says {v.witness_count}")
    return problems


# the benchmark's own recount; bound before tracing so it is never traced
_fan_count_in_S = fans.fan_count_in_S


def implication_problems(answers: dict[str, str]) -> list[str]:
    """principal_open => basic_open, over the checks of one pass."""
    out = []
    for cid, ans in answers.items():
        key, _, prop = cid.rpartition("/")
        if prop == "principal_open" and ans == "Yes" and answers.get(f"{key}/basic_open", "Yes") != "Yes":
            out.append(f"{key}: principal_open is Yes but basic_open is not")
    return out


# ---------------------------------------------------------------------- passes


class Run:
    def __init__(self, name: str, seed: int, expected: dict):
        self.name, self.seed = name, seed
        self.texts, self.checks = workloads.workload(name)
        self.scenes = {k: Scene.from_text(t) for k, t in self.texts.items()}
        self.expected = expected
        self.passes = 0
        # per check and per pass, raw and scaled to the reference speed
        self.verdict_ms: list[float] = []
        self.scaled_ms: list[float] = []
        self.pass_walls: list[float] = []
        self.scaled_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self, tracer: tracing.Tracer | None = None) -> float:
        """Run and verify one pass; returns its scaled wall time (checks only)."""
        order = workloads.pass_order(self.checks, self.seed, self.passes)
        self.passes += 1
        results = []
        gc.collect()
        raw = scaled = 0.0
        for c in order:
            req = checker.CheckRequest(self.scenes[c.scene], c.prop)
            ref = reference_seconds()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    v = checker.run_check(req)
                else:
                    with tracer.root("check", c.cid):
                        v = checker.run_check(req)
            except Exception as exc:  # any raise other than Unsupported is a failed check
                v = exc
            took = time.perf_counter() - t0
            raw += took
            scaled += took * REF_S / ref
            self.verdict_ms.append(took * 1000.0)
            self.scaled_ms.append(took * 1000.0 * REF_S / ref)
            results.append((c, v))
        self.pass_walls.append(raw)
        self.scaled_walls.append(scaled)

        answers = {}
        for c, v in results:
            self.attempted += 1
            if isinstance(v, Exception):
                problems = [f"raised {type(v).__name__}: {v}"]
            else:
                answers[c.cid] = v.answer
                expected = self.expected.get(c.cid)
                args = (c, self.texts[c.scene], self.scenes[c.scene], v, expected)
                if tracer is None:
                    problems = verify(*args)
                else:
                    with tracer.root("verify", c.cid):
                        problems = verify(*args)
                if expected is None:
                    problems.append("no expected outcome pinned")
            if problems:
                self.failed += 1
                self.problems += [f"{c.cid}: {p}" for p in problems]
        bad = implication_problems(answers)
        self.failed += len(bad)
        self.problems += bad
        return scaled

    def until(self, deadline: float, tracer: tracing.Tracer | None = None, on_pass=None) -> list[float]:
        """Passes until the next one would end after ``deadline``; at least one."""
        walls = []
        while True:
            t0 = time.perf_counter()
            walls.append(self.one_pass(tracer))
            if on_pass is not None:
                on_pass()
            took = time.perf_counter() - t0
            if time.perf_counter() + took > deadline:
                return walls


def measure_setup(name: str, seed: int, runs: int) -> tuple[list[float], list[float]]:
    """Raw and scaled wall times of fresh interpreters that import basix and
    build the workload's scenes.

    One unmeasured run first, so the measured ones find compiled bytecode."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name, "--seed", str(seed)]
    raw, scaled = [], []
    for i in range(runs + 1):
        ref = reference_seconds()
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        took = time.perf_counter() - t0
        if done.returncode != 0:
            raise RuntimeError(f"setup run failed: {done.stderr.strip()}")
        if i:
            raw.append(took)
            scaled.append(took * REF_S / ref)
    return raw, scaled


def load_expected(name: str) -> dict:
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8")).get(name, {})


def write_spans(path: Path, spans: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = spans[0][tracing.START] if spans else 0.0
    with path.open("w", encoding="utf-8") as fh:
        for s in spans:
            root = spans[s[tracing.ROOT]]
            fh.write(
                json.dumps(
                    {
                        "name": s[tracing.NAME],
                        "start": s[tracing.START] - t0,
                        "end": s[tracing.END] - t0,
                        "parent": s[tracing.PARENT],
                        "check": root[tracing.INFO],
                        "ok": s[tracing.OK],
                    }
                )
                + "\n"
            )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result object, detail object) of one benchmark run."""
    detail: dict = {"workload": name, "seed": seed, "trace": int(trace)}
    metrics: dict[str, dict] = {}
    setup_raw, setup = ([], []) if trace else measure_setup(name, seed, SETUP_RUNS)
    start = time.perf_counter()
    run = Run(name, seed, load_expected(name))
    detail["scenes_sha256"] = workloads.scenes_digest(run.texts)
    detail["checks_per_pass"] = len(run.checks)
    if not trace:
        run.until(start + seconds)
        metrics["setup_s"] = statistics.median(setup)
        metrics["wall_s"] = statistics.median(run.scaled_walls)
        metrics["verdict_ms_p50"] = statistics.median(run.scaled_ms)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        detail["samples"] = {
            "setup_s": len(setup),
            "wall_s": len(run.scaled_walls),
            "verdict_ms_p50": len(run.scaled_ms),
            "peak_rss_mb": 1,
        }
        if len(run.scaled_ms) >= P90_MIN_SAMPLES:
            detail["verdict_ms_p90"] = statistics.quantiles(run.scaled_ms, n=10)[-1]
        detail["unscaled"] = {
            "setup_s": statistics.median(setup_raw),
            "wall_s": statistics.median(run.pass_walls),
            "verdict_ms_p50": statistics.median(run.verdict_ms),
        }
    else:
        untraced = run.until(start + seconds / 2)
        tr = tracing.Tracer()
        tr.install()
        per_pass: list[dict[str, float]] = []
        kept: list[list] = []
        try:
            for key, text in run.texts.items():
                with tr.root("parse", key):
                    run.scenes[key] = Scene.from_text(text)
            parsed = tracing.layer_metrics(tr.spans)
            tr.spans.clear()

            def collect():
                m = tracing.layer_metrics(tr.spans)
                m.update((k, parsed[k]) for k, (_u, kind) in tracing.LAYER_METRICS.items() if kind == "parse")
                per_pass.append(m)
                if not kept:
                    kept.extend(tr.spans)
                tr.spans.clear()

            traced = run.until(start + seconds, tr, collect)
        finally:
            tr.uninstall()
        layer = tracing.median_metrics(per_pass)
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        units = {k: u for k, (u, _kind) in tracing.LAYER_METRICS.items()} | {"trace.overhead_s": "s"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        detail["samples"] = {"untraced_passes": len(untraced), "traced_passes": len(traced)}
        detail["untraced_wall_s"] = statistics.median(untraced)
        detail["traced_wall_s"] = statistics.median(traced)
        span_file = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        write_spans(span_file, kept)
        detail["span_file"] = str(span_file.relative_to(BENCH_DIR.parent))
        detail["spans_per_pass"] = len(kept)
    detail["passes"] = run.passes
    detail["check_fail_frac"] = run.failed / run.attempted
    detail["problems"] = run.problems[:20]
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    return result, detail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="import, build the scenes and exit")
    args = ap.parse_args(argv)
    if args.setup_only:
        texts, _checks = workloads.workload(args.workload)
        for text in texts.values():
            Scene.from_text(text)
        return 0
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
