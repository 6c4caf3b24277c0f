"""SLO-plane overhead at the 1000-node cluster plane.

The plane's cluster scrape path — seqlock snapshot of the shared-memory
shard blocks, vectorized column ingest into the time-series ladder, and
the full burn-rate + anomaly evaluation pass — must be a negligible
slice of the paper's 1 s control period even at the node-curve's
largest point.  This bench publishes 1000 synthetic node rows per tick
through a real :class:`ShardTelemetryWriter`/``Reader`` pair and times
``SLOPlane.observe_cluster`` alone (the writer side is covered by
``bench_cluster_scale.py``).

Results land in ``benchmarks/results/BENCH_slo.json``: the full
1000-node section as ``slo1000``, the 64-node CI smoke section as
``slo_smoke`` (``BENCH_SMOKE=1``, the ``make bench-slo-smoke`` gate,
written to ``benchmarks/smoke-results/BENCH_slo.json`` instead).
The ``observe_p50_seconds_per_tick`` leaf is gated relatively by
``check_perf_regression.py`` against the committed repo-root
``BENCH_slo.json`` baseline AND carries a hard budget: the p50 scrape
must fit inside one control period outright.
"""

import json
import os
import random
import time

from repro.core.backend import BackendStats
from repro.obs.slo import SLOConfig, SLOPlane
from repro.sim.report import render_table
from repro.sim.shard_telemetry import (
    ShardTelemetryReader,
    ShardTelemetryWriter,
)

from conftest import emit, results_path

SMOKE = bool(os.environ.get("BENCH_SMOKE"))
NODES = 64 if SMOKE else 1000
VMS_PER_NODE = 4 if SMOKE else 10
TICKS = 12 if SMOKE else 40
CONTROL_PERIOD_S = 1.0


class _StubTimings:
    __slots__ = ("monitor", "estimate", "credits", "auction",
                 "distribute", "enforce")

    def __init__(self, rng):
        for stage in self.__slots__:
            setattr(self, stage, rng.uniform(0.0001, 0.002))


class _StubSample:
    __slots__ = ("vm_name", "cgroup_path")

    def __init__(self, vm_name):
        self.vm_name = vm_name
        self.cgroup_path = f"/vfreq/{vm_name}"


class _StubReport:
    __slots__ = ("timings", "samples", "allocations")

    def __init__(self, rng, vm_names):
        self.timings = _StubTimings(rng)
        self.samples = [_StubSample(name) for name in vm_names]
        self.allocations = {
            f"/vfreq/{name}": rng.uniform(100.0, 1200.0)
            for name in vm_names
        }


class _StubController:
    __slots__ = ("_vm_vfreq", "num_cpus", "fmax_mhz", "invariant_checker")

    def __init__(self, vm_names):
        self._vm_vfreq = {name: 600.0 for name in vm_names}
        self.num_cpus = 8
        self.fmax_mhz = 2400.0
        self.invariant_checker = None


class _StubManager:
    """Just enough surface for the writer's publish + the plane's
    reader-dialect ``observe_cluster`` (a sharded manager stand-in)."""

    def __init__(self, nodes, vms_per_node):
        self.controllers = {}
        self.last_reports = {}
        self.last_errors = {}
        self.readers = {}
        self._vm_names = {}
        for n in range(nodes):
            node_id = f"node-{n:04d}"
            vm_names = [f"{node_id}-vm-{j}" for j in range(vms_per_node)]
            self.controllers[node_id] = _StubController(vm_names)
            self._vm_names[node_id] = vm_names

    def step(self, rng):
        for node_id, vm_names in self._vm_names.items():
            self.last_reports[node_id] = _StubReport(rng, vm_names)

    def backend_stats(self):
        return BackendStats()

    def invariant_totals(self):
        return (0, 0)


def _run():
    rng = random.Random(20260807)
    manager = _StubManager(NODES, VMS_PER_NODE)
    writer = ShardTelemetryWriter()
    reader = ShardTelemetryReader()
    manager.readers["shard-0"] = reader
    plane = SLOPlane(SLOConfig(period_s=CONTROL_PERIOD_S))
    observe = []
    transitions = 0
    try:
        for tick in range(1, TICKS + 1):
            manager.step(rng)
            reader.update(*writer.publish(manager, float(tick)))
            start = time.perf_counter()
            transitions += len(
                plane.observe_cluster(manager, tick, t=float(tick))
            )
            observe.append(time.perf_counter() - start)
        # The plane really ingested the full fleet, objectlessly: one
        # deadline check per node per tick.
        checks = plane.store.get("tick_deadline_checks_total")
        assert checks.last == NODES * TICKS
        assert checks.increase(2) == NODES
        assert reader.snapshot_retries == 0  # no writer contention here
    finally:
        plane.close()
        reader.close()
        writer.close(unlink=True)
    observe.sort()
    return {
        "nodes": NODES,
        "vms": NODES * VMS_PER_NODE,
        "ticks": TICKS,
        "series": len(plane.store),
        "alert_transitions": transitions,
        "control_period_s": CONTROL_PERIOD_S,
        "observe_p50_seconds_per_tick": observe[len(observe) // 2],
        "observe_p90_seconds_per_tick": observe[int(len(observe) * 0.9)],
        "max_tick_seconds": observe[-1],
    }


def test_slo_plane_scrape_fits_control_period(once):
    section = once(_run)

    out_path = results_path("BENCH_slo.json")
    existing = {}
    if out_path.exists():
        existing = json.loads(out_path.read_text())
    existing["slo_smoke" if SMOKE else "slo1000"] = section
    out_path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")

    emit(render_table(
        ["nodes", "VMs", "series", "p50 ms", "p90 ms", "max ms",
         "budget ms"],
        [[
            str(section["nodes"]), str(section["vms"]),
            str(section["series"]),
            f"{section['observe_p50_seconds_per_tick'] * 1e3:.3f}",
            f"{section['observe_p90_seconds_per_tick'] * 1e3:.3f}",
            f"{section['max_tick_seconds'] * 1e3:.3f}",
            f"{CONTROL_PERIOD_S * 1e3:.0f}",
        ]],
        title="SLO plane observe_cluster cost "
              f"({'smoke' if SMOKE else 'full'})",
    ))

    # Hard claim, independent of any baseline: the whole scrape +
    # evaluate pass fits one control period with room to spare.
    assert section["max_tick_seconds"] < CONTROL_PERIOD_S
