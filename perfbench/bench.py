"""One benchmark run: set-up, timed periods, checked twin, traced run.

``trace=0`` (end-to-end metrics):

1. build the cluster ``setups`` times from scratch (each build ends
   after ``warmup`` untimed periods) and report the median normalised
   build time as ``setup_s``; keep the last build;
2. time ``seconds * PERIODS_PER_SECOND`` control periods (at least
   ``min_periods``), each bracketed by the reference kernel.  The count
   depends on ``seconds`` only, never on how fast the host happens to
   be, so every run of a workload measures the same schedule of work
   (a period costs 35-60 ms at the nominal kernel speed and 55-90 ms
   of wall time on a 2-vCPU cloud VM, so the run lasts about
   ``seconds``);
3. build a checked twin and run its first ``check_periods`` periods:
   paper-equation oracle on every node-period, auction and ledger
   counts, and an allocation digest that must equal the timed run's.

The guarantee checks behind ``guarantee_miss_ratio`` cover the timed
schedule's periods: on ``dense`` and ``churn`` they are taken between
the timed periods (``churn`` reads the operator's own counts), on
``fleet`` — whose workers would have to count inside the timed tick —
the checked twin runs the whole schedule and its workers count.

``trace=1`` (per-layer metrics) adds a traced run of the same period
count as the timed one, built with the same controller settings; its
layers are reported as host-normalised ms per period, and its digest
must equal the timed run's too.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

import clusters
from clusters import FLEET_SHARDS, Tally
from inputs import make_inputs
from kernel import R0_S, HostClock, normalise, percentile

perf = time.perf_counter

WORKLOADS = ("dense", "fleet", "churn")


@dataclass(frozen=True)
class Profile:
    warmup: int
    setups: int
    min_periods: int
    check_periods: int


FULL = Profile(warmup=8, setups=4, min_periods=100, check_periods=50)
TINY = Profile(warmup=6, setups=2, min_periods=12, check_periods=6)
#: Timed periods per ``--seconds``.
PERIODS_PER_SECOND = 15
#: Kernel runs (median) on each side of a set-up interval.
SETUP_KERNELS = 7

#: Leaf layers: disjoint, so they plus ``unaccounted`` sum to the period.
LEAVES = (
    "hw.demand_apply", "hw.step",
    "core.monitor", "core.estimate", "core.credits",
    "core.auction", "core.distribute", "core.enforce",
    "obs.hub", "billing.meter", "obs.slo", "obs.slo_cluster",
    "sim.dispatch_wait", "sim.shm_read",
    "rebalance.snapshot", "rebalance.plan", "rebalance.oracle_execute",
    "placement.admit", "virt.provision", "operator.sla_check",
)
#: Container layers, reported but not summed (they enclose leaves).
CONTAINERS = ("sim.tick",)

END_TO_END = {
    "period_p50_ms": "ms",
    "period_p90_ms": "ms",
    "vcpu_periods_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "guarantee_miss_ratio": "ratio",
}
COUNTS = {
    "core.fs_ops_per_vcpu": "ops/vcpu",
    "core.cap_writes_skipped_ratio": "ratio",
    "core.topology_rescans": "count",
    "core.market_sold": "cycles",
    "obs.ledger_records": "count",
    "obs.spans": "count",
    "sim.seqlock_retries": "count",
    "rebalance.moves": "count",
    "rebalance.rejected": "count",
}
PER_LAYER = dict(
    [(f"{name}_ms", "ms") for name in LEAVES + CONTAINERS]
    + list(COUNTS.items())
    + [("unaccounted_ms", "ms"), ("trace_overhead_ratio", "ratio")]
)


@dataclass
class Timed:
    """What one timed sequence of periods measured."""

    raw_s: List[float]
    norm_s: List[float]
    vcpus: List[int]
    layers: Dict[str, float]
    window: Dict[str, float]

    @property
    def p50_ms(self) -> float:
        return statistics.median(self.norm_s) * 1e3

    def summary(self) -> Dict[str, float]:
        return {
            "periods": len(self.norm_s),
            "p50_ms": self.p50_ms,
            "p90_ms": percentile(self.norm_s, 90) * 1e3,
            "mean_ms": statistics.fmean(self.norm_s) * 1e3,
            "raw_p50_ms": statistics.median(self.raw_s) * 1e3,
            "raw_p90_ms": percentile(self.raw_s, 90) * 1e3,
        }


def setup(workload, inputs, clock: HostClock, profile: Profile, seed: int, *,
          traced: bool, checked: bool, window_periods: int = 0
          ) -> Tuple[object, Tally, float, float]:
    """Build + warm one cluster; returns it with its normalised and raw time.

    ``window_periods``: how many periods after the warm-up a checked
    ``fleet`` build counts in its workers.
    """
    first = profile.warmup + 1
    window = (float(first), float(first + window_periods - 1))
    gc.collect()  # earlier builds' garbage is not this build's cost
    r_before = clock.kernel(SETUP_KERNELS)
    start = perf()
    cluster = clusters.build(
        workload, inputs, traced=traced, checked=checked, seed=seed, window=window
    )
    tally = Tally()
    for t in range(1, profile.warmup + 1):
        cluster.period(t)
        cluster.after_period(tally, in_window=False)
    raw = perf() - start
    r_after = clock.kernel(SETUP_KERNELS)
    return cluster, tally, normalise(raw, r_before, r_after), raw


def run_periods(cluster, tally: Tally, clock: HostClock, profile: Profile,
                periods: int) -> Timed:
    """Time ``periods`` control periods, each bracketed by the kernel."""
    first = profile.warmup + 1
    raw_s: List[float] = []
    norm_s: List[float] = []
    vcpus: List[int] = []
    sums: Dict[str, float] = {}
    window: Dict[str, float] = {}
    before = _counters(cluster)
    sla_sample = getattr(cluster, "sla_sample", None)  # in-process clusters
    if sla_sample is not None:
        sla_sample()  # drop the warm-up periods' counts
    r_prev = clock.kernel()
    t = first
    while True:
        start = perf()
        cluster.period(t)
        wall = perf() - start
        r_next = clock.kernel()
        factor = R0_S / (0.5 * (r_prev + r_next))
        in_window = t - first < profile.check_periods
        layers = cluster.after_period(tally, in_window=in_window)
        if sla_sample is not None:
            tally.sla(*sla_sample())
        for name, seconds_raw in layers.items():
            sums[name] = sums.get(name, 0.0) + seconds_raw * factor
        raw_s.append(wall)
        norm_s.append(wall * factor)
        vcpus.append(cluster.n_vcpus)
        n = len(raw_s)
        if n == profile.check_periods:
            window = _window_counts(cluster, tally, before, _counters(cluster), vcpus)
        t += 1
        if n >= periods:
            break
        r_prev = clock.kernel()
    layers = {name: total / len(norm_s) for name, total in sums.items()}
    return Timed(raw_s, norm_s, vcpus, layers, window)


def _counters(cluster) -> Dict[str, float]:
    stats = cluster.backend_stats()
    out = {
        "ops": float(stats.total_ops),
        "writes": float(stats.fs_writes),
        "skipped": float(stats.cap_writes_skipped),
        "rescans": float(stats.topology_rescans),
    }
    if isinstance(cluster, clusters.ChurnCluster):
        loop = cluster.loop
        out["moves"] = float(sum(loop.migrations_total.values()))
        out["rejected"] = float(loop.migrations_rejected)
    if not isinstance(cluster, clusters.FleetCluster):
        out["spans"] = float(cluster.spans_emitted())
    return out


def _window_counts(cluster, tally: Tally, before, after, vcpus) -> Dict[str, float]:
    """Work counts over the fixed check window (deterministic per seed)."""
    d = {k: after[k] - before.get(k, 0.0) for k in after}
    periods = len(vcpus)
    writes = d["writes"] + d["skipped"]
    out = {
        "core.fs_ops_per_vcpu": d["ops"] / sum(vcpus),
        "core.cap_writes_skipped_ratio": d["skipped"] / writes if writes else 0.0,
        "core.topology_rescans": d["rescans"] / periods,
        "obs.spans": d.get("spans", 0.0) / periods,
        "rebalance.moves": d.get("moves", 0.0),
        "rebalance.rejected": d.get("rejected", 0.0),
        "sim.seqlock_retries": 0.0,
    }
    if isinstance(cluster, clusters.FleetCluster):
        out["sim.seqlock_retries"] = float(cluster.seqlock_retries())
    return out


def _finish_checked(cluster, tally: Tally, periods: int) -> Dict[str, float]:
    """Oracle totals, work counts and (fleet) guarantee checks of a checked run."""
    if isinstance(cluster, clusters.FleetCluster):
        cluster.checked_counts(tally)
    return {
        "sla_checks": float(tally.sla_checks),
        "sla_violations": float(tally.sla_violations),
        "market_sold": tally.market_sold / periods,
        "ledger_records": tally.ledger_records / periods,
        "oracle_checks": float(tally.oracle_checks),
        "violations": float(tally.violations),
    }


def git_sha(root: str) -> str:
    """HEAD of the checkout when it is a git work tree, else ``unknown``."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        root: str, tiny: bool = False) -> Dict:
    """One benchmark invocation; returns result, env and diagnostics."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
    profile = TINY if tiny else FULL
    periods = max(profile.min_periods, round(seconds * PERIODS_PER_SECOND))
    inputs = make_inputs(workload, seed, tiny=tiny)
    clock = HostClock(cores=FLEET_SHARDS if workload == "fleet" else 1)
    try:
        return _run(workload, seed, periods, trace, inputs, clock, profile, root, seconds)
    finally:
        clock.close()


def _run(workload, seed, periods, trace, inputs, clock, profile, root, seconds) -> Dict:
    clock.kernel(5)  # warm the kernel's own code paths
    marks = [perf()]
    setups_norm: List[float] = []
    setups_raw: List[float] = []

    # -- the untraced timed run ---------------------------------------------
    n_setups = 1 if trace else profile.setups
    cluster = None
    for _ in range(n_setups):
        if cluster is not None:
            cluster.close()
        cluster, tally, norm, raw = setup(
            workload, inputs, clock, profile, seed, traced=False, checked=False
        )
        setups_norm.append(norm)
        setups_raw.append(raw)
    marks.append(perf())
    plain = run_periods(cluster, tally, clock, profile, periods)
    peak_rss_mb = cluster.peak_rss_kb() / 1024.0
    cluster.close()
    attempted, failed = tally.node_periods, tally.failed
    errors = list(tally.errors)
    digests = {"timed": tally.digest.hexdigest()}
    sla = {"sla_checks": float(tally.sla_checks),
           "sla_violations": float(tally.sla_violations)}
    marks.append(perf())

    # -- the traced run (per-layer metrics only) -----------------------------
    # Next to the timed run, so trace_overhead_ratio compares neighbours.
    traced = None
    if trace:
        cluster, tally, _, _ = setup(
            workload, inputs, clock, profile, seed, traced=True, checked=False
        )
        traced = run_periods(cluster, tally, clock, profile, periods)
        cluster.close()
        attempted += tally.node_periods
        failed += tally.failed
        errors += tally.errors
        digests["traced"] = tally.digest.hexdigest()
        marks.append(perf())

    # -- the checked twin ----------------------------------------------------
    fleet = workload == "fleet"
    window_periods = periods if fleet else profile.check_periods
    cluster, tally, _, _ = setup(
        workload, inputs, clock, profile, seed, traced=False, checked=True,
        window_periods=window_periods,
    )
    # One period past the window: fleet counts a tick's auction in the next.
    run_periods(cluster, tally, clock, profile, window_periods + 1)
    checked = _finish_checked(cluster, tally, window_periods)
    if fleet:
        sla = {k: checked[k] for k in sla}
    cluster.close()
    attempted += tally.node_periods
    failed += tally.failed
    errors += tally.errors
    digests["checked"] = tally.digest.hexdigest()
    marks.append(perf())

    checks_ok = checked["oracle_checks"] > 0 and checked["violations"] == 0
    digest_ok = len(set(digests.values())) == 1
    if not digest_ok:
        errors.append(f"allocation digests differ: {digests}")
    correct = failed == 0 and checks_ok and digest_ok and sla["sla_checks"] > 0

    if trace:
        metrics = per_layer_metrics(traced, plain, checked)
        units = PER_LAYER
    else:
        metrics = {
            "period_p50_ms": plain.p50_ms,
            "period_p90_ms": percentile(plain.norm_s, 90) * 1e3,
            "vcpu_periods_per_s": sum(plain.vcpus) / sum(plain.norm_s),
            "setup_s": statistics.median(setups_norm),
            "peak_rss_mb": peak_rss_mb,
            "guarantee_miss_ratio": sla["sla_violations"] / max(sla["sla_checks"], 1.0),
        }
        units = END_TO_END
    diag = dict(
        untraced=plain.summary(),
        traced=traced.summary() if traced else None,
        setup_s_normalised=setups_norm,
        setup_s_raw=setups_raw,
        digest=digests,
        checked=checked,
        sla=sla,
        errors=errors[:10],
        phase_wall_s=dict(zip(
            ["setups", "timed"] + (["traced"] if trace else []) + ["checked"],
            np.diff(marks).tolist(),
        )),
    )
    env = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(root),
        "run_seconds": seconds,
        "timed_periods": len(plain.norm_s) + (len(traced.norm_s) if trace else 0),
        "shards": FLEET_SHARDS if workload == "fleet" else 0,
        "kernel_cores": FLEET_SHARDS if workload == "fleet" else 1,
        "r0_s": R0_S,
        **clock.summary(),
    }
    return {
        "result": {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        },
        "env": env,
        "diagnostics": diag,
    }


def per_layer_metrics(traced: Timed, plain: Timed, checked: Dict[str, float]) -> Dict[str, float]:
    """Mean host-normalised ms per traced period, plus window counts."""
    out: Dict[str, float] = {}
    for name in LEAVES + CONTAINERS:
        out[f"{name}_ms"] = traced.layers.get(name, 0.0) * 1e3
    period_ms = statistics.fmean(traced.norm_s) * 1e3
    out["unaccounted_ms"] = period_ms - sum(out[f"{name}_ms"] for name in LEAVES)
    out["trace_overhead_ratio"] = traced.p50_ms / plain.p50_ms
    out.update(traced.window)
    out["core.market_sold"] = checked["market_sold"]
    out["obs.ledger_records"] = checked["ledger_records"]
    return out


def format_table(payload: Dict) -> str:
    """Human-readable metric table (every metric by name and unit)."""
    lines = []
    env = payload["env"]
    lines.append(
        f"# {env['workload']} seed={env['seed']} trace={env['trace']} "
        f"cores={env['cores']} R0={env['r0_s'] * 1e3:.2f}ms "
        f"R median={env['r_median_s'] * 1e3:.3f}ms IQR={env['r_iqr_ratio']:.3f}"
    )
    for name, m in payload["result"]["metrics"].items():
        lines.append(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    diag = payload["diagnostics"]
    raw = diag["untraced"]
    lines.append(
        f"# raw (not normalised): p50 {raw['raw_p50_ms']:.3f} ms, "
        f"p90 {raw['raw_p90_ms']:.3f} ms over {raw['periods']} periods; "
        f"setup {['%.3f' % s for s in diag['setup_s_raw']]} s"
    )
    return "\n".join(lines)
