#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload blind_arith --seeds 1-10 [--out runs.json]

Runs `run.py --trace 0` once per seed and workload, one after another, and
prints for each metric the median, the quartiles (statistics.quantiles with
n=4) and the interquartile distance as a share of the median, next to the
metric's bound from BENCHMARK.json.  The spread should stay below the bound,
and below a third of it for a steady benchmark.  --out also records the
machine, Python and numpy versions and the git commit; BASELINE.json holds
such a record for the commit it names, plus one traced run per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import run_child

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def environment():
    """Where the runs were made: the machine, the interpreter and the commit."""
    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                         cwd=HERE.parent)
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git.stdout.strip() if git.returncode == 0 else None}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    runs, summary = {}, {}
    status = 0
    for workload in args.workload:
        lines = []
        for seed in args.seeds:
            _, line = run_child(workload, seed, args.seconds, 0)
            if line is None:
                raise SystemExit(f"{workload} seed {seed} failed")
            lines.append(line)
        runs[workload] = lines
        print(f"{workload}: {len(lines)} runs, all correct: "
              f"{all(line['correct'] for line in lines)}")
        for name, bound in bounds.items():
            values = [line["metrics"][name]["value"] for line in lines]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            flag = "steady" if share < bound / 3 else "ok" if share <= bound else "WIDE"
            if share > bound:
                status = 1
            summary.setdefault(workload, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": share}
            print(f"  {name:16s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {share:7.4f}  bound {bound}  {flag}")
    if args.out:
        args.out.write_text(json.dumps(
            {"environment": environment(), "run_seconds": args.seconds,
             "seeds": list(args.seeds), "summary": summary, "runs": runs}, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
