"""Self-tests of the control-period benchmark, at tiny scale.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bench  # noqa: E402
import kernel  # noqa: E402
from inputs import CYCLE, ChurnInputs, make_inputs  # noqa: E402

WORKLOADS = bench.WORKLOADS


def _run(workload: str, seed: int = 3, trace: bool = False):
    return bench.run(workload, seed, 1.0, trace, root=ROOT, tiny=True)


@pytest.fixture(scope="module")
def untraced():
    return {w: _run(w) for w in WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {w: _run(w, trace=True) for w in WORKLOADS}


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_emitted_with_unit(untraced, workload):
    result = untraced[workload]["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    end_to_end, _ = _declared()
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == end_to_end
    for name, m in result["metrics"].items():
        assert m["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_emitted_with_unit(traced, workload):
    result = traced[workload]["result"]
    assert result["correct"]
    _, per_layer = _declared()
    assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer


def _fingerprint(inputs):
    """Everything the program is fed, as comparable values."""
    if isinstance(inputs, ChurnInputs):
        demand = [
            [inputs.workloads[e.name].demand(0, float(t)) for t in range(0, CYCLE, 3)]
            for e in inputs.requests
        ]
        return inputs.requests, demand
    return inputs.hosts, inputs.rows


def test_inputs_repeat_exactly_for_a_seed():
    for workload in WORKLOADS:
        a = _fingerprint(make_inputs(workload, 7, tiny=True))
        b = _fingerprint(make_inputs(workload, 7, tiny=True))
        assert a == b
        assert _fingerprint(make_inputs(workload, 8, tiny=True)) != a


def test_miss_ratio_and_digest_repeat_exactly_for_a_seed(untraced):
    for workload in ("dense", "churn"):
        again = _run(workload)
        first = untraced[workload]
        assert (
            again["result"]["metrics"]["guarantee_miss_ratio"]["value"]
            == first["result"]["metrics"]["guarantee_miss_ratio"]["value"]
        )
        assert again["diagnostics"]["digest"] == first["diagnostics"]["digest"]


def test_digests_of_timed_checked_and_traced_runs_agree(untraced, traced):
    for workload in WORKLOADS:
        assert set(untraced[workload]["diagnostics"]["digest"]) == {"timed", "checked"}
        digest = traced[workload]["diagnostics"]["digest"]
        assert set(digest) == {"timed", "checked", "traced"}
        assert len(set(digest.values())) == 1
        assert digest["timed"] == untraced[workload]["diagnostics"]["digest"]["timed"]


def test_normalisation_arithmetic():
    r0 = kernel.R0_S
    # A host running at nominal speed reports wall time unchanged.
    assert kernel.normalise(0.2, r0, r0) == pytest.approx(0.2)
    # Twice as slow: the kernel and the interval both double.
    assert kernel.normalise(0.4, 2 * r0, 2 * r0) == pytest.approx(0.2)
    # R is the mean of the bracketing readings.
    assert kernel.normalise(1.0, 1.0, 3.0) == pytest.approx(r0 / 2.0)
    with pytest.raises(ValueError):
        kernel.normalise(1.0, 0.0, 0.0)
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, med, q3 = kernel.quartiles(values)
    assert (q1, med, q3) == tuple(statistics.quantiles(values, n=4))
    assert med == statistics.median(values)
    assert kernel.spread(values) == pytest.approx((q3 - q1) / med)
    assert kernel.percentile(list(range(1, 101)), 90) == pytest.approx(
        statistics.quantiles(range(1, 101), n=100)[89]
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_plus_unaccounted_sum_to_the_period(traced, workload):
    payload = traced[workload]
    metrics = {k: v["value"] for k, v in payload["result"]["metrics"].items()}
    leaves = sum(metrics[f"{name}_ms"] for name in bench.LEAVES)
    period = leaves + metrics["unaccounted_ms"]
    mean_period = payload["diagnostics"]["traced"]["mean_ms"]
    assert period == pytest.approx(mean_period, rel=1e-9)
    # The layers account for nearly all of the period.
    assert -0.02 * period < metrics["unaccounted_ms"] < 0.25 * period
    for name in bench.LEAVES:
        assert metrics[f"{name}_ms"] >= -0.02 * period, name
    assert metrics["sim.tick_ms"] > 0 and metrics["core.monitor_ms"] > 0


def test_workloads_exercise_their_layers(traced):
    dense = {k: v["value"] for k, v in traced["dense"]["result"]["metrics"].items()}
    fleet = {k: v["value"] for k, v in traced["fleet"]["result"]["metrics"].items()}
    churn = {k: v["value"] for k, v in traced["churn"]["result"]["metrics"].items()}
    assert dense["core.market_sold"] > 0 and dense["obs.hub_ms"] > 0
    assert fleet["obs.slo_cluster_ms"] > 0 and fleet["obs.hub_ms"] == 0
    assert churn["placement.admit_ms"] > 0 and churn["rebalance.plan_ms"] > 0
    assert churn["virt.provision_ms"] > 0 and churn["operator.sla_check_ms"] > 0


def test_exits_nonzero_without_program_sources():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dense",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
