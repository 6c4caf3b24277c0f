"""Fail if a gated timing got slower than its committed baseline.

Compares each fresh ``BENCH_*.json`` written by the benches — under
``benchmarks/smoke-results/`` when ``BENCH_SMOKE=1`` is set (the CI
smoke targets), else under ``benchmarks/results/`` — against the matching repo-root ``BENCH_*.json`` baseline that
ships with the tree — ``BENCH_controller.json`` for the engine benches
(``bench_bulk.py``, ``bench_cluster_scale.py``'s node curve), ``BENCH_rebalance.json`` for the rebalance control plane
(``bench_rebalance.py``, ``bench_cluster_scale.py``'s chaos1000),
``BENCH_slo.json`` for the SLO plane's cluster scrape
(``bench_slo_overhead.py``).  A pair is only
checked when both files exist, so each smoke target gates just its own
bench; at least one pair must be comparable.  For every section present
in both files of a pair, every gated "lower is better" timing leaf —
per-tick engine costs, the rebalance planner's per-round cost — may not
exceed the baseline by more than the tolerance (default 25%, override
with the ``PERF_TOLERANCE`` env var, e.g. ``PERF_TOLERANCE=0.40``)
plus a small absolute slack for timer noise on sub-millisecond leaves.
Scalar-engine numbers are reference points, not gates.  Four sections
carry hard budgets on top of the relative gates — they must fit inside
one control period regardless of baseline: the 10k-VM tick's worst
tick (``tick10k``), the 1000-node control loop's snapshot+plan p50
(``chaos1000``), the sharded/shared-memory cluster tick at the node
curve's largest point (``node_curve``), and the SLO plane's
ingest+evaluate scrape p50 (``slo1000`` / ``slo_smoke``).

A section may carry an ``env`` block (cores, Python and NumPy versions,
commit, ticks); when the fresh one differs from the baseline's, both are
printed next to the comparison, which still runs unchanged.

Absolute timings wobble across machines; the committed baselines are
refreshed together with any intentional perf change (see
docs/performance.md), so the diff only has to catch order-of-magnitude
slips like an accidental fall back to the scalar path.
"""

import json
import os
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Where the benches just wrote (see ``benchmarks/conftest.results_path``).
RESULTS = REPO_ROOT / "benchmarks" / (
    "smoke-results" if os.environ.get("BENCH_SMOKE") else "results"
)

#: (committed baseline, fresh results) pairs; checked when both exist
PAIRS = [
    (REPO_ROOT / "BENCH_controller.json", RESULTS / "BENCH_controller.json"),
    (REPO_ROOT / "BENCH_rebalance.json", RESULTS / "BENCH_rebalance.json"),
    (REPO_ROOT / "BENCH_slo.json", RESULTS / "BENCH_slo.json"),
]

#: gated leaves are "lower is better" timings
GATED_SUFFIXES = ("_seconds_per_tick", "_seconds_per_round")

#: never gated relatively: scalar numbers are a reference point, and the
#: worst-case tick is inherently spiky — it has its own hard budget below
UNGATED_KEYS = {"scalar", "max_tick_seconds"}

#: absolute slack added on top of the relative limit (seconds) — smoke
#: sections carry sub-millisecond leaves where timer and scheduler noise
#: swamps any real 25% regression; override with ``PERF_ABS_SLACK``
ABS_SLACK_S = float(os.environ.get("PERF_ABS_SLACK", "0.002"))


def _flatten(section, prefix=""):
    """All gated timing leaves of a section as ``dotted.path -> value``."""
    out = {}
    for key, value in section.items():
        if key in UNGATED_KEYS:
            continue
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, prefix=path + "."))
        elif isinstance(value, (int, float)) and path.endswith(GATED_SUFFIXES):
            out[path] = float(value)
    return out


def _check_pair(baseline_path, fresh_path, tolerance, failures):
    """Compare one baseline/fresh file pair; returns metrics compared."""
    baseline = json.loads(baseline_path.read_text())
    fresh = json.loads(fresh_path.read_text())

    shared = sorted(set(baseline) & set(fresh))
    compared = 0
    for section in shared:
        base_env = baseline[section].get("env")
        fresh_env = fresh[section].get("env")
        if base_env != fresh_env:
            # Not a gate: numbers from other conditions are still
            # compared, but the reader sees which conditions differ.
            print(f"{section:>12} env differs from the baseline's:")
            print(f"{'':>12}   baseline {json.dumps(base_env, sort_keys=True)}")
            print(f"{'':>12}   now      {json.dumps(fresh_env, sort_keys=True)}")
        base_flat = _flatten(baseline[section])
        fresh_flat = _flatten(fresh[section])
        for metric in sorted(set(base_flat) & set(fresh_flat)):
            base = base_flat[metric]
            now = fresh_flat[metric]
            limit = base * (1.0 + tolerance) + ABS_SLACK_S
            verdict = "ok" if now <= limit else "REGRESSED"
            compared += 1
            print(
                f"{section:>12} {metric:<42} baseline {base * 1e3:9.3f} ms  "
                f"now {now * 1e3:9.3f} ms  limit {limit * 1e3:9.3f} ms  "
                f"{verdict}"
            )
            if now > limit:
                failures.append((section, metric, base, now))

        # hard budgets: these fit one control period, full stop
        budget_leaves = []
        if section.startswith("tick10k"):
            budget_leaves.append("max_tick_seconds")
        if section.startswith("chaos1000"):
            budget_leaves.append("view_plan_p50_seconds_per_round")
        if section.startswith("node_curve"):
            budget_leaves.append("sharded_shm_max_tick_seconds")
        if section.startswith("slo"):
            budget_leaves.append("observe_p50_seconds_per_tick")
        for leaf in budget_leaves:
            budget = float(fresh[section].get("control_period_s", 1.0))
            worst = float(fresh[section][leaf])
            verdict = "ok" if worst < budget else "OVER BUDGET"
            print(
                f"{section:>12} {leaf + ' (hard budget)':<42} "
                f"budget {budget * 1e3:9.3f} ms  "
                f"now {worst * 1e3:9.3f} ms  {verdict}"
            )
            if worst >= budget:
                failures.append((section, leaf, budget, worst))
    return compared


def main() -> int:
    tolerance = float(os.environ.get("PERF_TOLERANCE", "0.25"))
    failures = []
    compared = 0
    checked = 0
    for baseline_path, fresh_path in PAIRS:
        if not fresh_path.exists():
            continue  # this bench didn't run; its gate doesn't apply
        if not baseline_path.exists():
            print(
                f"perf check: fresh results at {fresh_path} but no committed "
                f"baseline at {baseline_path}",
                file=sys.stderr,
            )
            return 1
        checked += 1
        compared += _check_pair(baseline_path, fresh_path, tolerance, failures)

    if checked == 0:
        print(
            f"perf check: no fresh results under {RESULTS} "
            "(run a bench first)",
            file=sys.stderr,
        )
        return 1
    if compared == 0:
        print("perf check: no shared timing metric to compare", file=sys.stderr)
        return 1
    if failures:
        print(
            f"\nperf check FAILED: {len(failures)} metric(s) above "
            f"baseline x{1.0 + tolerance:.2f} "
            "(refresh the committed BENCH_*.json baseline if the slowdown "
            "is intentional)",
            file=sys.stderr,
        )
        return 1
    print(f"\nperf check passed ({compared} metrics, tolerance {tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
