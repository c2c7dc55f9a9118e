#!/usr/bin/env python3
"""Run every workload untraced and traced, and print all metrics by name.

    python3 bench/report.py [--seed 1] [--seconds 25]

For each workload this prints the result's correctness and failure counts,
every end-to-end metric with its unit (from the untraced run), and every
per-layer metric of the traced run; a time is also given as a share of the
traced run's pass time. The tracing overhead is the traced minus the
untraced ``run_s``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = ap.parse_args()
    for name in (w["name"] for w in SPEC["workloads"]):
        detail, plain = run(name, args.seed, args.seconds, 0)
        _, traced = run(name, args.seed, args.seconds, 1)
        print(f"== {name} (seed {args.seed}): correct={plain['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']} "
              f"passes={detail['passes']} items={detail['items']} "
              f"tail percentile={detail['item_s_tail_percentile']}")
        for m in SPEC["end_to_end"]:
            rec = plain["metrics"][m["name"]]
            print(f"  {m['name']:<34}{rec['value']:>14.6g} {rec['unit']}")
        for key in ("budget_err_max", "qi_err_median_other", "qi_err_p90",
                    "ftan_err_p90", "fail_frac"):
            if key in detail:
                print(f"  ({key:<32}{detail[key]:>14.6g})")
        run_s = traced["metrics"]["trace.run_s"]["value"]
        overhead = run_s - plain["metrics"]["run_s"]["value"]
        print(f"  traced per-layer (tracing overhead {overhead:+.4f} s per pass):")
        for m in SPEC["per_layer"]:
            rec = traced["metrics"][m["name"]]
            share = (f"  {100 * rec['value'] / run_s:5.1f}% of run_s"
                     if rec["unit"] == "s" and m["name"] != "trace.run_s" else "")
            print(f"  {m['name']:<34}{rec['value']:>14.6g} {rec['unit']}{share}")


if __name__ == "__main__":
    main()
