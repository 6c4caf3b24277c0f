"""Control-period benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dense --seed 1 --seconds 10 --trace 0

Prints a metric table, a JSON line with the ``env`` block and raw
diagnostics, and — as the last line of standard output — one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  The
exit code is 0 only when every output check passed.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _fixed_hash_seed() -> None:
    """Re-exec under ``PYTHONHASHSEED=0`` unless already there.

    String hashing is salted per process, so dict and set layouts — and
    with them the cost of every path-keyed lookup in the program — would
    differ between two runs of the same seed.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def _prepare() -> None:
    """Import paths and a scratch dir inside the checkout."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.stderr.write(
            f"perfbench: no program sources at {src}/repro; "
            "run from a full checkout of the repository\n"
        )
        sys.exit(2)
    sys.path[:0] = [src, HERE]
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp


def _join_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker, if one started.

    ``ShardedNodeManager`` launches it and it would otherwise outlive
    this process by a moment; every segment is unlinked by then.
    """
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("dense", "fleet", "churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _prepare()
    _fixed_hash_seed()

    import bench

    try:
        payload = bench.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            root=ROOT,
        )
    finally:
        _join_resource_tracker()
    print(bench.format_table(payload))
    print(json.dumps({"env": payload["env"], "diagnostics": payload["diagnostics"]},
                     sort_keys=True))
    print(json.dumps(payload["result"]), flush=True)
    if not payload["result"]["correct"]:
        sys.stderr.write(
            "perfbench: output checks FAILED: "
            + json.dumps(payload["diagnostics"]["errors"]) + "\n"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
