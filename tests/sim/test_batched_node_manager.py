"""Differential test: a serial NodeManager's batched stages against one-by-one ticks.

A serial :class:`NodeManager` runs its bulk-engine controllers of equal
config as one :class:`~repro.core.bulk.BulkExecutor` group over a shared
slot arena.  The reference is the same hosts (same seeds, same demand,
same VM churn) ticked one by one through ``controller.tick()``.  The
cluster mixes three batched config groups (different history lengths,
so two arenas), a scalar-engine host, a host whose backend crashes at
stage 1 or stage 6 under a ``FaultPlan``, and a group of hosts with a
``ResiliencePolicy``: one clean, one whose ``FaultPlan`` fails cap
writes (retries) and hides a vCPU (carry-forward, degraded fallback).
Every tick, every node's report fields, cap files, backend and
resilience counters must be identical (``==`` on floats), and a
failing node must fail the same way, dump its flight recorder the same
way, and leave the others untouched.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ControllerConfig
from repro.core.controller import VirtualFrequencyController
from repro.core.resilience import ResiliencePolicy
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import FaultSpec
from repro.hw.node import Node
from repro.obs.config import ObsConfig
from repro.obs.hub import Observability
from repro.sim.node_manager import NodeManager
from repro.virt.hypervisor import Hypervisor
from repro.virt.template import LARGE, SMALL
from tests.conftest import TINY

GROUP_A = ControllerConfig.paper_evaluation()
GROUP_B = GROUP_A.with_overrides(
    history_len=4, reserve_guarantee=True, auction_priority="frequency"
)
SCALAR = GROUP_A.with_overrides(engine="scalar")
RESILIENT = GROUP_A.with_overrides(resilience=ResiliencePolicy())


def _signature(report):
    """Everything one iteration decided, minus wall-clock timings."""
    return (
        report.t,
        tuple(report.samples),
        dict(report.decisions),
        dict(report.allocations),
        report.market_initial,
        report.auction,
        report.freely_distributed,
        dict(report.wallets),
        dict(report.free_shares),
        dict(report.degraded),
    )


def _outcome(value):
    if isinstance(value, BaseException):
        return ("raised", type(value).__name__, str(value))
    return _signature(value)


class _Cluster:
    """One copy of the mixed cluster; built twice, identically."""

    def __init__(self, kinds, seed, crash_ticks, out_dir):
        self.hosts = {}
        for k, kind in enumerate(kinds):
            node_id = f"n{k}-{kind}"
            node = Node(TINY, seed=seed + k)
            hv = Hypervisor(node, enforce_admission=False)
            backend = None
            if kind == "fault":
                monitor_tick, enforce_tick = crash_ticks
                plan = FaultPlan([
                    FaultSpec("crash", target="stage:monitor",
                              start_tick=monitor_tick,
                              end_tick=monitor_tick + 1),
                    FaultSpec("crash", target="stage:enforce",
                              start_tick=enforce_tick,
                              end_tick=enforce_tick + 1),
                ])
                backend = FaultInjector(plan, node.fs, node.procfs, node.sysfs)
            elif kind == "rcrash":
                # Every cap write fails at tick 0, and the crash draw
                # misses the first write batch and hits the first retry
                # (plan seed 15: draws 0.965, then 0.012).
                plan = FaultPlan([
                    FaultSpec("write_error", target="*/cpu.max",
                              start_tick=0, end_tick=1, error="EBUSY"),
                    FaultSpec("crash", target="stage:enforce",
                              start_tick=0, end_tick=1, probability=0.5),
                ], seed=15)
                backend = FaultInjector(plan, node.fs, node.procfs, node.sysfs)
            elif kind == "rfault":
                plan = FaultPlan([
                    FaultSpec("write_error", target="*/cpu.max",
                              probability=0.5, error="EBUSY"),
                    FaultSpec("read_error", target="*/vm0/vcpu0/cpu.stat",
                              start_tick=1, end_tick=6),
                ], seed=seed)
                backend = FaultInjector(plan, node.fs, node.procfs, node.sysfs)
            config = {
                "a": GROUP_A, "b": GROUP_B, "fault": GROUP_A,
                "scalar": SCALAR, "resilient": RESILIENT, "rfault": RESILIENT,
                "rcrash": RESILIENT,
            }[kind]
            ctrl = VirtualFrequencyController(
                node.fs, node.procfs, node.sysfs,
                num_cpus=TINY.logical_cpus, fmax_mhz=TINY.fmax_mhz,
                config=config, backend=backend,
            )
            if kind == "fault":
                Observability.attach(ctrl, ObsConfig(
                    flight_recorder_ticks=4,
                    out_dir=os.path.join(out_dir, node_id),
                ))
            self.hosts[node_id] = (node, hv, ctrl)
        self.serial = {}

    def controllers(self):
        return {nid: ctrl for nid, (_, _, ctrl) in self.hosts.items()}

    def add_vm(self, host, large, demand):
        node_id = list(self.hosts)[host % len(self.hosts)]
        _, hv, ctrl = self.hosts[node_id]
        template = LARGE if large else SMALL
        # Names repeat across hosts: VM ids must stay per-table.
        serial = self.serial[node_id] = self.serial.get(node_id, -1) + 1
        vm = hv.provision(template, f"vm{serial}")
        ctrl.register_vm(vm.name, template.vfreq_mhz)
        vm.set_uniform_demand(demand)

    def remove_vm(self, host):
        node_id = list(self.hosts)[host % len(self.hosts)]
        _, hv, ctrl = self.hosts[node_id]
        if hv.vms:
            name = hv.vms[0].name
            ctrl.unregister_vm(name)
            hv.destroy(name)

    def step(self, levels, k):
        """Move every VM's demand along ``levels``, then run 1 s."""
        j = 0
        for node, hv, _ in self.hosts.values():
            for vm in hv.vms:
                vm.set_uniform_demand(levels[(k + j) % len(levels)])
                j += 1
            node.step(1.0)

    def caps(self):
        """Every vCPU cgroup's cpu.max, per node."""
        out = {}
        for node_id, (node, hv, _) in self.hosts.items():
            for vm in hv.vms:
                for vcpu in vm.vcpus:
                    out[(node_id, vcpu.cgroup_path)] = node.fs.read(
                        f"{vcpu.cgroup_path}/cpu.max"
                    )
        return out

    def stats(self):
        """Backend, resilience and fault counters, per node."""
        return {
            node_id: (
                ctrl.backend.stats,
                ctrl.resilience_stats,
                getattr(ctrl.backend, "injected", None),
            )
            for node_id, (_, _, ctrl) in self.hosts.items()
        }

    def dumps(self):
        out = {}
        for node_id, (_, _, ctrl) in self.hosts.items():
            if ctrl.obs is not None:
                recorder = ctrl.obs.recorder
                out[node_id] = (
                    recorder.dumps_written,
                    os.path.basename(recorder._last_dump_path or ""),
                )
        return out


def _apply(cluster, event):
    kind, host, large, demand = event
    if kind == "add":
        cluster.add_vm(host, large, demand)
    else:
        cluster.remove_vm(host)


events = st.tuples(
    st.sampled_from(["add", "remove"]),
    st.integers(0, 7),
    st.booleans(),
    st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0),
)


def _run_lockstep(kinds, seed, ticks, crash_ticks, initial, churn, levels,
                  out_dir):
    """Tick one cluster one by one and its twin through a NodeManager,
    asserting every tick that the two agree; returns the batched twin,
    its manager and the count of failed node ticks."""
    ref = _Cluster(kinds, seed, crash_ticks, os.path.join(out_dir, "ref"))
    bat = _Cluster(kinds, seed, crash_ticks, os.path.join(out_dir, "bat"))
    for cluster in (ref, bat):
        # Every host starts with one VM, then the drawn extras.
        for host in range(len(kinds)):
            cluster.add_vm(host, False, 0.5)
        for event in initial:
            _apply(cluster, event)
    manager = NodeManager(bat.controllers())
    failures = 0
    for k in range(ticks):
        t = float(k + 1)
        for event in churn.get(k, ()):
            _apply(ref, event)
            _apply(bat, event)
        ref.step(levels, k)
        bat.step(levels, k)
        expected = {}
        for node_id, ctrl in ref.controllers().items():
            try:
                expected[node_id] = ctrl.tick(t)
            except Exception as exc:
                expected[node_id] = exc
        result = manager.tick(t)
        for node_id, want in expected.items():
            got = result.errors.get(node_id, result.get(node_id))
            assert _outcome(got) == _outcome(want), (node_id, k)
        failures += len(result.errors)
        assert bat.caps() == ref.caps()
        assert bat.stats() == ref.stats()
        assert bat.dumps() == ref.dumps()
    return bat, manager, failures


class TestBatchedEqualsOneByOne:
    @given(
        n_a=st.integers(1, 3),
        n_b=st.integers(1, 2),
        order=st.randoms(use_true_random=False),
        seed=st.integers(0, 2**16),
        ticks=st.integers(5, 8),
        crash_ticks=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        initial=st.lists(events.filter(lambda e: e[0] == "add"),
                         min_size=3, max_size=10),
        churn=st.dictionaries(st.integers(1, 8), st.lists(events, max_size=3),
                              max_size=4),
        levels=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_reports_caps_and_counters_identical(
        self, n_a, n_b, order, seed, ticks, crash_ticks, initial, churn,
        levels,
    ):
        kinds = ["a"] * n_a + ["b"] * n_b + [
            "scalar", "resilient", "rfault", "fault",
        ]
        order.shuffle(kinds)
        with tempfile.TemporaryDirectory() as tmp:
            bat, manager, failures = _run_lockstep(
                kinds, seed, ticks, crash_ticks, initial, churn, levels, tmp
            )
            # The batched path really ran: one arena per history length,
            # resilient hosts included.
            arenas = {
                kind: {
                    id(ctrl._table.arena)
                    for nid, ctrl in bat.controllers().items()
                    if nid.endswith(suffixes)
                }
                for kind, suffixes in (
                    ("a", ("-a", "-fault", "-resilient", "-rfault")),
                    ("b", ("-b",)),
                )
            }
            assert len(arenas["a"]) == len(arenas["b"]) == 1
            assert arenas["a"] != arenas["b"]
            # The fault host crashed at stage 1 and at stage 6.
            assert failures == len(set(crash_ticks))
            fault_id = next(n for n in bat.hosts if n.endswith("-fault"))
            written, name = bat.dumps()[fault_id]
            assert written >= 1 and name.startswith("flight_tick_error_")
        manager.close()


class TestResilientGroup:
    """Hosts with a ResiliencePolicy tick as one executor group."""

    def test_retries_and_fallbacks_run_in_the_group(self, tmp_path):
        bat, manager, failures = _run_lockstep(
            ["resilient", "rfault", "rfault"], 1, 8, (100, 100),
            [("add", 1, False, 0.9), ("add", 2, True, 0.4)], {},
            [0.9, 0.4], str(tmp_path),
        )
        assert failures == 0
        assert list(manager._executors) == ["n0-resilient"]
        for node_id in ("n1-rfault", "n2-rfault"):
            stats = bat.hosts[node_id][2].resilience_stats
            assert stats.write_retries > 0
            assert stats.stale_samples_used > 0
            assert stats.degraded_transitions == 1
        manager.close()

    def test_crash_on_a_write_retry_stays_in_its_host(self, tmp_path):
        """An injected ``stage:enforce`` crash drawn on the retry batch
        fails that host's tick only; the host commits nothing, as its
        own ``tick()`` would, and its group peer finishes the tick."""
        bat, manager, failures = _run_lockstep(
            ["rcrash", "rfault"], 2, 4, (100, 100), [], {}, [0.8, 0.6],
            str(tmp_path),
        )
        assert failures == 1
        assert list(manager._executors) == ["n0-rcrash"]
        crashed = bat.hosts["n0-rcrash"][2]
        assert crashed.backend.injected["crash"] == 1
        assert crashed.resilience_stats.write_retries > 0
        assert manager.error_counts == {"n0-rcrash": 1}
        manager.close()


class TestArenaLifecycle:
    def test_removed_controller_leaves_the_shared_arena(self):
        cluster = _Cluster(["a", "a"], 3, (100, 100), "")
        for host in range(2):
            cluster.add_vm(host, False, 0.7)
        manager = NodeManager(cluster.controllers())
        cluster.step([0.7], 0)
        manager.tick(1.0)
        first, second = cluster.controllers().values()
        assert first._table.arena is second._table.arena
        history = first.histories()
        removed = manager.remove_node("n0-a")
        assert removed._table.arena is not second._table.arena
        assert removed.histories() == history
        cluster.step([0.7], 1)
        assert removed.tick(2.0).allocations

    def test_close_releases_the_shared_arena(self):
        cluster = _Cluster(["a", "a"], 5, (100, 100), "")
        for host in range(2):
            cluster.add_vm(host, True, 0.9)
        manager = NodeManager(cluster.controllers())
        cluster.step([0.9], 0)
        manager.tick(1.0)
        first, second = cluster.controllers().values()
        history = first.histories()
        manager.close()
        assert first._table.arena is not second._table.arena
        assert first.histories() == history
        cluster.step([0.9], 1)
        assert first.tick(2.0).allocations
