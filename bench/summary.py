"""Print every benchmark metric, one row per workload.

    python3 bench/summary.py --seed 1 --seconds 40

Runs ``bench/run.py`` on each workload twice, untraced for the end-to-end
metrics and traced for the per-layer ones, and prints each metric as
``name=value unit (n=samples)``; ``unscaled.*`` are the end-to-end times
before scaling to the reference speed.  Exits 1 when any check failed
(``check_fail_frac`` > 0) or any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd + ["--trace", str(trace)], capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def cell(name: str, value, unit: str, n) -> str:
    shown = f"{value:.6g}" if isinstance(value, (int, float)) else value
    return f"{name}={shown} {unit} (n={n})"


def e2e_row(detail: dict, result: dict) -> list[str]:
    n = detail["samples"]
    cells = [cell(k, m["value"], m["unit"], n[k]) for k, m in result["metrics"].items()]
    p90 = detail.get("verdict_ms_p90")
    verdicts = n["verdict_ms_p50"]
    cells.append(cell("verdict_ms_p90", p90 if p90 is not None else "n/a(<100 verdicts)", "ms", verdicts))
    cells.append(cell("check_fail_frac", detail["check_fail_frac"], "1", result["attempted"]))
    units = {k: m["unit"] for k, m in result["metrics"].items()}
    cells += [cell(f"unscaled.{k}", v, units[k], n[k]) for k, v in detail["unscaled"].items()]
    return cells


def layer_row(detail: dict, result: dict) -> list[str]:
    n = detail["samples"]["traced_passes"]
    m = result["metrics"]
    cells = []
    for k, v in m.items():
        value = v["value"]
        if k.endswith("_ratio") and m[k.rsplit(".", 1)[0] + ".calls"]["value"] == 0:
            value = "n/a(no calls)"
        cells.append(cell(k, value, v["unit"], n))
    return cells


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    args = ap.parse_args(argv)
    ok = True
    rows = []
    for w in workloads.WORKLOADS:
        for trace, row in ((0, e2e_row), (1, layer_row)):
            detail, result = bench(w, args.seed, args.seconds, trace)
            ok = ok and result["correct"] and result["failed"] == 0
            kind = "per-layer" if trace else "end-to-end"
            rows.append(f"{w:9s} {kind:10s} scenes={detail['scenes_sha256'][:12]}  " + "  ".join(row(detail, result)))
            rows += [f"{w:9s} problem: {p}" for p in detail["problems"]]
    print("\n".join(rows))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
