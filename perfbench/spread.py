"""Run-to-run spread of the benchmark: one run per seed, then quartiles.

    python3 perfbench/spread.py --workload cold-http --seeds 1 2 3 4 5 \\
        --seconds 30 [--trace 0] [--out perfbench/results/spread-cold-http.json]

Runs ``perfbench/run.py`` once per seed, one after another, and prints for
every metric the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread: the distance between the quartiles as a share of the median,
beside the metric's bound from BENCHMARK.json.
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict = {}
    units: dict = {}
    runs = []
    for seed in args.seeds:
        command = [
            sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True)
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
        result = json.loads(last)
        if done.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed (exit {done.returncode})\n{done.stderr}",
                  file=sys.stderr)
            return 1
        runs.append({"seed": seed, "attempted": result["attempted"],
                     "failed": result["failed"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "unit": units[name], "bound": bounds.get(name)}
        bound = bounds.get(name)
        flag = "" if bound is None else (
            "  ok" if spread <= bound / 3 else ("  within bound" if spread <= bound
                                               else "  OVER BOUND"))
        print(f"{name:36s} median {median:12.4f} {units[name]:6s} "
              f"q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:7.2%}"
              + ("" if bound is None else f" (bound {bound:.0%}){flag}"))
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seeds": args.seeds, "seconds": seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "summary": summary, "runs": runs,
        }, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
