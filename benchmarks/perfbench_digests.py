"""Print one bit-identity line per perfbench workload.

Runs ``perfbench/run.py --seed 5 --seconds 1 --trace 0`` for ``dense``,
``fleet`` and ``churn`` and prints, per workload, the timed run's
allocation digest and its ``guarantee_miss_ratio``.  A change that
claims to leave the simulation bit-identical must print the same lines
as its parent commit, so the claim is a ``diff`` of two outputs::

    make perfbench-digests > after.txt   # in each checkout
    diff before.txt after.txt

Exits non-zero if any run fails its own output checks.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("dense", "fleet", "churn")


def main() -> int:
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{workload} FAILED (exit {proc.returncode})")
            status = 1
            continue
        digest = json.loads(lines[-2])["diagnostics"]["digest"]["timed"]
        miss = json.loads(lines[-1])["metrics"]["guarantee_miss_ratio"]["value"]
        print(f"{workload} digest={digest} guarantee_miss_ratio={miss!r}")
    return status


if __name__ == "__main__":
    sys.exit(main())
