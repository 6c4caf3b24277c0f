"""Print one bit-identity line per perfbench workload.

Runs ``perfbench/run.py --seed 5 --seconds 1 --trace 1`` for ``dense``,
``fleet`` and ``churn`` and prints, per workload, the timed run's
allocation digest and its ``guarantee_miss_ratio``, then the traced
run's kernel-surface work counters ``core.fs_ops_per_vcpu``,
``core.cap_writes_skipped_ratio`` and ``core.topology_rescans``, which
are exact per seed.  A change that claims to leave the simulation
bit-identical, and the controller's kernel I/O unchanged, must print
the same lines as its parent commit, so the claim is a ``diff`` of two
outputs::

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
#: Traced-run counters printed after the digest, exact per seed.
COUNTERS = ("core.fs_ops_per_vcpu", "core.cap_writes_skipped_ratio", "core.topology_rescans")


def main() -> int:
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{workload} FAILED (exit {proc.returncode})")
            status = 1
            continue
        diag = json.loads(lines[-2])["diagnostics"]
        digest = diag["digest"]["timed"]
        metrics = json.loads(lines[-1])["metrics"]
        # A traced run reports per-layer metrics; the miss ratio is
        # computed from its SLA counts exactly as perfbench's own.
        sla = diag["sla"]
        miss = sla["sla_violations"] / max(sla["sla_checks"], 1.0)
        counts = " ".join(f"{name}={metrics[name]['value']!r}" for name in COUNTERS)
        print(f"{workload} digest={digest} guarantee_miss_ratio={miss!r} {counts}")
    return status


if __name__ == "__main__":
    sys.exit(main())
