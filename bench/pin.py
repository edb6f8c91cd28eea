"""Pin the expected outcome of every benchmark check in bench/expected.json.

    python3 bench/pin.py

Runs each check of each workload once and records its answer, reason,
witness count, the sha256 of its report without timings, and the sha256 of
its scene text.  Nothing is written unless every outcome passes the checks
that need no pinning: answers known without the engine, re-verification of
every fan witness, and principal_open => basic_open.
"""

from __future__ import annotations

import json
import sys

import run  # puts the repository's src/ on sys.path
import workloads


def pin() -> dict:
    pinned: dict[str, dict] = {}
    problems: list[str] = []
    for name in workloads.WORKLOADS:
        texts, checks = workloads.workload(name)
        answers = {}
        out = pinned[name] = {}
        for c in checks:
            scene = run.Scene.from_text(texts[c.scene])
            v = run.checker.run_check(run.checker.CheckRequest(scene, c.prop))
            problems += [f"{name}/{c.cid}: {p}" for p in run.verify(c, texts[c.scene], scene, v, None)]
            answers[c.cid] = v.answer
            out[c.cid] = run.outcome(texts[c.scene], v)
            print(f"{name:9s} {c.cid:34s} {v.answer:11s} {v.reason or '-':26s} {v.witness_count}", flush=True)
        problems += [f"{name}: {p}" for p in run.implication_problems(answers)]
    if problems:
        raise SystemExit("not pinned:\n" + "\n".join(problems))
    return pinned


if __name__ == "__main__":
    pinned = pin()
    run.EXPECTED_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {run.EXPECTED_PATH.relative_to(run.BENCH_DIR.parent)}", file=sys.stderr)
