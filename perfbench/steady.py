"""Steadiness mode: run a workload k times and report per-metric spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload dense --runs 5 --seconds 10
    python3 perfbench/steady.py --workload dense fleet churn --runs 10 --seed0 100

Each run is a fresh ``perfbench/run.py`` process with its own seed
(``seed0``, ``seed0 + 1``, ...).  For every metric the table shows the
median, the interquartile range as a share of the median (the figure
the bounds in ``BENCHMARK.json`` are set against), and max/min.  Raw
(un-normalised) period and set-up times are shown beside the
normalised ones, so the drift the normalisation divides out is visible.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from kernel import quartiles  # noqa: E402


def one_run(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"run failed (exit {proc.returncode}): {' '.join(cmd)}\n{proc.stderr[-2000:]}"
        )
    return {"result": json.loads(lines[-1]), **json.loads(lines[-2])}


def summarise(runs: List[Dict]) -> List[str]:
    series: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            series.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        diag = run["diagnostics"]
        series.setdefault("raw.period_p50_ms", []).append(diag["untraced"]["raw_p50_ms"])
        series.setdefault("raw.period_p90_ms", []).append(diag["untraced"]["raw_p90_ms"])
        series.setdefault("raw.setup_s", []).append(statistics.median(diag["setup_s_raw"]))
        series.setdefault("env.r_median_ms", []).append(run["env"]["r_median_s"] * 1e3)
        units.update({"raw.period_p50_ms": "ms", "raw.period_p90_ms": "ms",
                      "raw.setup_s": "s", "env.r_median_ms": "ms"})
    out = [f"{'metric':34s} {'median':>12s} {'IQR/med':>8s} {'max/min':>8s} unit"]
    for name, values in series.items():
        q1, med, q3 = quartiles(values)
        iqr = (q3 - q1) / med if med else 0.0
        lo, hi = min(values), max(values)
        ratio = hi / lo if lo else float("inf")
        out.append(f"{name:34s} {med:12.6g} {iqr:8.4f} {ratio:8.4f} {units[name]}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for workload in args.workload:
        runs = []
        for k in range(args.runs):
            run = one_run(workload, args.seed0 + k, args.seconds, args.trace)
            if not run["result"]["correct"]:
                print(f"{workload} seed {args.seed0 + k}: output checks FAILED")
                return 1
            runs.append(run)
        print(f"## {workload}: {args.runs} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1}, "
              f"{args.seconds:g} s each, trace={args.trace}")
        print("\n".join(summarise(runs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
