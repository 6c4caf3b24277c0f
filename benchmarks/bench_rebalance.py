"""Headline rebalancer benchmark: chaos+churn, static vs rebalanced.

The claim under test (ISSUE 7): on a 200-node / 10 000-VM cluster with
Poisson VM churn and capacity-degradation chaos events, the
frequency-guarantee-aware rebalancer keeps cumulative guarantee-
violation time (VM-seconds above Eq. 7 capacity, plus the downtime the
migrations themselves inflict) materially below static placement.

Both runs share one fully-seeded scenario (identical arrival, lifetime
and chaos streams — the only difference is whether the
:class:`~repro.rebalance.loop.RebalanceLoop` is attached), so the
comparison isolates the control plane.  Results land in
``benchmarks/results/BENCH_rebalance.json``: the full 200-node section
as ``chaos200``, the 8-node CI smoke section as ``chaos_smoke``
(``BENCH_SMOKE=1``, the ``make bench-rebalance-smoke`` gate, written to
``benchmarks/smoke-results/BENCH_rebalance.json`` instead).  The
``planner_seconds_per_round`` leaf is gated by
``check_perf_regression.py`` against the committed repo-root
``BENCH_rebalance.json`` baseline.
"""

import json
import os

from repro.sim.report import render_table
from repro.sim.scenario import chaos_churn, chaos_churn_small

from conftest import emit, results_path

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: The rebalancer must cut total bad VM-seconds at least this much.
MIN_IMPROVEMENT = 1.25


def _scenario(rebalance: bool):
    if SMOKE:
        return chaos_churn_small(rebalance=rebalance)
    return chaos_churn(rebalance=rebalance)


def _run_pair():
    static = _scenario(rebalance=False).run()
    scenario = _scenario(rebalance=True)
    cluster, loop = scenario.build()
    try:
        rebalanced = cluster.run(loop)
    finally:
        loop.close()
    return static, rebalanced, loop


def test_rebalancer_vs_static_placement(benchmark):
    static, rebalanced, loop = benchmark.pedantic(
        _run_pair, rounds=1, iterations=1
    )

    assert rebalanced.migrations > 0, "rebalancer never acted"
    improvement = static.total_bad_vm_seconds / max(
        rebalanced.total_bad_vm_seconds, 1e-9
    )
    rounds = loop.round_durations
    planner_seconds = sum(rounds) / len(rounds) if rounds else 0.0
    worst_round = max(rounds) if rounds else 0.0

    section = {
        "nodes": static.nodes,
        "duration_s": static.duration_s,
        "static": static.to_dict(),
        "rebalanced": rebalanced.to_dict(),
        "improvement_factor": improvement,
        "planner_seconds_per_round": planner_seconds,
        "max_round_seconds": worst_round,
        "migrations_by_reason": dict(sorted(loop.migrations_total.items())),
        "migrations_rejected": loop.migrations_rejected,
    }
    out_path = results_path("BENCH_rebalance.json")
    existing = {}
    if out_path.exists():
        existing = json.loads(out_path.read_text())
    existing["chaos_smoke" if SMOKE else "chaos200"] = section
    out_path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")

    emit(
        render_table(
            ["run", "violation VM-s", "downtime VM-s", "total VM-s",
             "migrations"],
            [
                ["static", f"{static.violation_vm_seconds:.0f}",
                 f"{static.downtime_vm_seconds:.1f}",
                 f"{static.total_bad_vm_seconds:.0f}", "0"],
                ["rebalanced", f"{rebalanced.violation_vm_seconds:.0f}",
                 f"{rebalanced.downtime_vm_seconds:.1f}",
                 f"{rebalanced.total_bad_vm_seconds:.0f}",
                 str(rebalanced.migrations)],
                ["improvement", f"{improvement:.2f}x", "",
                 f"planner {planner_seconds * 1e3:.1f} ms/round", ""],
            ],
            title=(
                f"chaos+churn {static.nodes} nodes "
                f"({'smoke' if SMOKE else 'full'}), "
                f"{static.duration_s:g} s, {loop.rounds_total} rounds"
            ),
        )
    )

    assert improvement >= MIN_IMPROVEMENT, (
        f"rebalancer improvement {improvement:.2f}x below the "
        f"{MIN_IMPROVEMENT}x floor vs static placement"
    )
