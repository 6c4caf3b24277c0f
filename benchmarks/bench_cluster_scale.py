"""Cluster-plane scale benches: 1000 nodes end to end (ISSUE 8).

Two measurements back the shared-memory shard telemetry, the SoA
rebalance views and the vectorized planner fast path:

1. ``chaos1000`` — the 1000-node / 50k-VM chaos+churn scenario, static
   vs rebalanced, with the rebalance loop on the array snapshot.  The
   headline budget: the per-round control-loop cost the cluster
   actually blocks on — snapshot (view build) + plan — must fit inside
   one 1 s control period at p50.  A one-round scalar-vs-vectorized
   cross-check asserts the fast path changes latency, never plans.
   Lands in ``benchmarks/results/BENCH_rebalance.json``.

2. ``node_curve`` — seconds per full cluster tick as the node count
   grows (64 / 256 / 1000), for the threaded ``NodeManager`` and the
   process-sharded, shared-memory ``ShardedNodeManager`` (whose workers
   run their node groups through the batched serial path).  Each point
   is the median of 10 ticks after a warm one, with its quartiles, and
   the section carries an ``env`` block (cores, Python and NumPy
   versions, commit, ticks).  The sharded tick at the largest point
   carries the same 1 s hard budget.  The threaded vs sharded crossover
   is asserted only on multi-core machines — shards cannot beat a
   thread pool on one core.  Lands in
   ``benchmarks/results/BENCH_controller.json``.

Both sections (and their ``*_smoke`` twins under ``BENCH_SMOKE=1``, the
``make bench-cluster-smoke`` gate, which land in the same file names
under ``benchmarks/smoke-results/``) are compared against the committed
repo-root baselines by ``check_perf_regression.py``; every
``*_seconds_per_tick`` / ``*_seconds_per_round`` leaf is gated.
"""

import functools
import json
import os
import time
from statistics import median

from repro.core.config import ControllerConfig
from repro.core.controller import VirtualFrequencyController
from repro.hw.node import Node
from repro.hw.nodespecs import NodeSpec
from repro.sim.node_manager import NodeManager, Shard, ShardedNodeManager
from repro.sim.report import render_table
from repro.sim.scenario import ClusterScenario, chaos_churn_xl
from repro.virt.hypervisor import Hypervisor
from repro.virt.template import VMTemplate

from conftest import bench_env, emit, results_path, spread

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: one control period — the end-to-end budget at every scale
CONTROL_PERIOD_S = 1.0


def _suffix():
    return "_smoke" if SMOKE else ""


def _merge(filename, name, section):
    out_path = results_path(filename)
    existing = {}
    if out_path.exists():
        existing = json.loads(out_path.read_text())
    existing[name + _suffix()] = section
    out_path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")


# -- 1. chaos1000: the 1000-node control loop ------------------------------------


def _chaos_scenario(rebalance):
    if SMOKE:
        # Same shape, 1/16 the cluster: the smoke gate watches the same
        # leaves without the 50k-VM construction cost.
        return ClusterScenario(
            name="chaos-churn-64",
            nodes=64,
            vms=3_200,
            duration=30.0,
            seed=7,
            degrade_rate_per_s=0.1,
            rebalance=rebalance,
        )
    return chaos_churn_xl(rebalance=rebalance, duration=60.0)


def test_chaos1000_control_loop_budget(once):
    """Static vs rebalanced at the 1000-node scale point; the loop's
    snapshot+plan p50 must fit one control period."""

    def run():
        static = _chaos_scenario(rebalance=False).run()
        scenario = _chaos_scenario(rebalance=True)
        cluster, loop = scenario.build()
        try:
            rebalanced = cluster.run(loop)
        finally:
            loop.close()

        # One extra round, same seed: the vectorized planner fast path
        # must produce the identical plan to the scalar reference.
        arrays = cluster.rebalance_arrays()
        scalar_plan = loop.planner.plan(arrays.to_view(), seed=1234)
        soa_plan = loop.planner.plan(arrays, seed=1234)
        assert soa_plan.moves == scalar_plan.moves, "planner paths diverged"
        assert soa_plan.skipped == scalar_plan.skipped
        return static, rebalanced, loop

    static, rebalanced, loop = once(run)

    assert loop.rounds_total > 0
    snap = sorted(loop.snapshot_durations)
    plans = sorted(loop.plan_durations)
    both = sorted(
        s + p for s, p in zip(loop.snapshot_durations, loop.plan_durations)
    )
    view_plan_p50 = median(both)
    improvement = static.total_bad_vm_seconds / max(
        rebalanced.total_bad_vm_seconds, 1e-9
    )

    section = {
        "nodes": static.nodes,
        "vms": rebalanced.final_vms,
        "duration_s": static.duration_s,
        "cpu_count": os.cpu_count(),
        "dialect": "arrays",
        "control_period_s": CONTROL_PERIOD_S,
        "static": static.to_dict(),
        "rebalanced": rebalanced.to_dict(),
        "improvement_factor": improvement,
        "snapshot_seconds_per_round": median(snap),
        "plan_seconds_per_round": median(plans),
        "view_plan_p50_seconds_per_round": view_plan_p50,
        "max_round_seconds": max(loop.round_durations),
    }
    _merge("BENCH_rebalance.json", "chaos1000", section)

    emit(
        render_table(
            ["metric", "value"],
            [
                ["nodes / VMs", f"{static.nodes} / {rebalanced.final_vms}"],
                ["rounds", str(loop.rounds_total)],
                ["snapshot p50", f"{median(snap) * 1e3:.1f} ms"],
                ["plan p50", f"{median(plans) * 1e3:.1f} ms"],
                ["snapshot+plan p50", f"{view_plan_p50 * 1e3:.1f} ms"],
                ["budget", f"{CONTROL_PERIOD_S * 1e3:.0f} ms"],
                ["migrations", str(rebalanced.migrations)],
                ["improvement", f"{improvement:.2f}x"],
            ],
            title=(
                f"chaos{static.nodes} control loop "
                f"({'smoke' if SMOKE else 'full'})"
            ),
        )
    )

    assert view_plan_p50 < CONTROL_PERIOD_S, (
        f"snapshot+plan p50 {view_plan_p50:.3f}s blows the "
        f"{CONTROL_PERIOD_S}s control period"
    )


# -- 2. node_curve: threaded vs sharded full cluster tick ------------------------

NODE_COUNTS = (8,) if SMOKE else (64, 256, 1000)
VMS_PER_NODE = 2
#: measured ticks per point (after one warm tick); enough for a p50
#: and its quartiles
CLUSTER_TICKS = 10

#: deliberately small host: the curve scales the *node count*, so each
#: node carries just enough controller work to make the plane visible
_CURVE_SPEC = NodeSpec(
    name="curvenode",
    cpu_model="bench",
    sockets=1,
    cores_per_socket=4,
    threads_per_core=1,
    fmax_mhz=2400.0,
    fmin_mhz=1200.0,
    memory_mb=32 * 1024,
    freq_jitter_mhz=0.0,
)

_TENANT = VMTemplate("tenant1", vcpus=1, vfreq_mhz=500.0)


def _curve_node(seed):
    node = Node(_CURVE_SPEC, seed=seed)
    hv = Hypervisor(node, enforce_admission=False)
    ctrl = VirtualFrequencyController(
        node.fs, node.procfs, node.sysfs,
        num_cpus=_CURVE_SPEC.logical_cpus, fmax_mhz=_CURVE_SPEC.fmax_mhz,
        config=ControllerConfig.paper_evaluation(engine="bulk"),
    )
    ctrl.keep_reports = False
    for k in range(VMS_PER_NODE):
        vm = hv.provision(_TENANT, f"vm-{k}")
        ctrl.register_vm(vm.name, _TENANT.vfreq_mhz)
        vm.set_uniform_demand(0.4 + 0.05 * (k % 8))
    return node, ctrl


def _build_group(node_ids):
    nodes, controllers = [], {}
    for nid in node_ids:
        node, ctrl = _curve_node(100 + int(nid.split("-")[1]))
        nodes.append(node)
        controllers[nid] = ctrl
    return nodes, controllers


def _shard_factory(node_ids):
    nodes, controllers = _build_group(node_ids)

    def pre_tick(t):
        for node in nodes:
            node.step(1.0)

    return Shard(controllers, pre_tick=pre_tick)


def _shard_map(num_nodes):
    node_ids = [f"node-{i}" for i in range(num_nodes)]
    num_shards = min(num_nodes, 8)
    groups = [node_ids[i::num_shards] for i in range(num_shards)]
    return {
        f"shard-{i}": functools.partial(_shard_factory, tuple(group))
        for i, group in enumerate(groups)
    }


def _measure_threaded(num_nodes):
    node_ids = [f"node-{i}" for i in range(num_nodes)]
    nodes, controllers = _build_group(node_ids)
    manager = NodeManager(controllers, parallel=True)

    def one_tick(t):
        for node in nodes:
            node.step(1.0)
        return manager.tick(t)

    one_tick(1.0)  # warm
    walls = []
    for k in range(CLUSTER_TICKS):
        t0 = time.perf_counter()
        one_tick(float(k + 2))
        walls.append(time.perf_counter() - t0)
    stats = manager.backend_stats()
    manager.close()
    return walls, stats


def _measure_sharded(num_nodes):
    with ShardedNodeManager(_shard_map(num_nodes)) as manager:
        manager.tick(1.0)  # warm (workers built by __enter__)
        walls = []
        for k in range(CLUSTER_TICKS):
            t0 = time.perf_counter()
            manager.tick(float(k + 2))
            walls.append(time.perf_counter() - t0)
        stats = manager.backend_stats()
        # The compact telemetry must still serve full reports on demand.
        report = manager.fetch_report("node-0")
        assert report is not None and report.allocations
    return walls, stats


def test_node_scaling_curve(once):
    """Threaded vs sharded (shared-memory telemetry) full cluster tick
    at growing node counts; the sharded tick at the largest point must
    fit one control period."""

    def run():
        curve = {}
        shm_worst_at_max = None
        for n in NODE_COUNTS:
            threaded, threaded_stats = _measure_threaded(n)
            shm, shm_stats = _measure_sharded(n)
            # Both planes drove identical clusters: the backend
            # counters they aggregate must match exactly.
            assert threaded_stats == shm_stats, f"{n} nodes: planes diverged"
            curve[str(n)] = {
                "num_shards": min(n, 8),
                "threaded_seconds_per_tick": median(threaded),
                "sharded_shm_seconds_per_tick": median(shm),
                "threaded_spread": spread(threaded),
                "sharded_shm_spread": spread(shm),
            }
            shm_worst_at_max = max(shm)
        return curve, shm_worst_at_max

    curve, shm_worst_at_max = once(run)
    max_nodes = str(max(NODE_COUNTS))

    section = {
        "vms_per_node": VMS_PER_NODE,
        "ticks": CLUSTER_TICKS,
        "cpu_count": os.cpu_count(),
        "env": bench_env(CLUSTER_TICKS),
        "control_period_s": CONTROL_PERIOD_S,
        "max_nodes": int(max_nodes),
        "sharded_shm_max_tick_seconds": shm_worst_at_max,
        "nodes": curve,
    }
    _merge("BENCH_controller.json", "node_curve", section)

    emit(
        render_table(
            ["nodes", "shards", "threaded", "sharded (shm)"],
            [
                [
                    n,
                    row["num_shards"],
                    f"{row['threaded_seconds_per_tick'] * 1e3:.1f} ms",
                    f"{row['sharded_shm_seconds_per_tick'] * 1e3:.1f} ms",
                ]
                for n, row in curve.items()
            ],
            title=(
                f"cluster tick vs node count "
                f"({VMS_PER_NODE} VMs/node, {os.cpu_count()} cores)"
            ),
        )
    )

    assert shm_worst_at_max < CONTROL_PERIOD_S, (
        f"sharded/shm tick at {max_nodes} nodes: worst "
        f"{shm_worst_at_max:.3f}s blows the {CONTROL_PERIOD_S}s period"
    )
    cores = os.cpu_count() or 1
    if cores >= 2 and not SMOKE:
        # With real parallelism the process shards must win at scale —
        # the crossover the curve exists to show.  One core cannot.
        top = curve[max_nodes]
        assert (
            top["sharded_shm_seconds_per_tick"]
            < top["threaded_seconds_per_tick"]
        ), f"no crossover at {max_nodes} nodes on {cores} cores"
