"""Tests for the multi-node control plane."""

import pytest

from repro.core.api import Controller
from repro.core.backend import BackendStats
from repro.core.timings import STAGES
from repro.hw.cluster import Cluster
from repro.hw.nodespecs import CHETEMI
from repro.sim.cluster_engine import ClusterSimulation
from repro.sim.node_manager import NodeManager
from repro.virt.template import SMALL
from tests.conftest import make_host


def _two_node_setup(seed_offset=0):
    """Two independent hosts with distinct VM populations."""
    hosts = {}
    for k, node_id in enumerate(("node-a", "node-b")):
        node, hv, ctrl = make_host(seed=7 + seed_offset + k)
        for j in range(k + 1):  # node-a hosts 1 VM, node-b hosts 2
            vm = hv.provision(SMALL, f"{node_id}-vm-{j}")
            ctrl.register_vm(vm.name, SMALL.vfreq_mhz)
            vm.set_uniform_demand(0.8)
        hosts[node_id] = (node, hv, ctrl)
    return hosts


def _drive(hosts, manager, ticks=4):
    reports = {}
    for k in range(ticks):
        for node, _, _ in hosts.values():
            node.step(1.0)
        reports = manager.tick(float(k + 1))
    return reports


class TestRegistry:
    def test_add_remove(self):
        hosts = _two_node_setup()
        manager = NodeManager()
        for nid, (_, _, ctrl) in hosts.items():
            manager.add_node(nid, ctrl)
        assert manager.num_nodes == 2
        with pytest.raises(ValueError):
            manager.add_node("node-a", hosts["node-a"][2])
        removed = manager.remove_node("node-b")
        assert removed is hosts["node-b"][2]
        assert manager.num_nodes == 1

    def test_vm_routing(self):
        hosts = _two_node_setup()
        manager = NodeManager(
            {nid: ctrl for nid, (_, _, ctrl) in hosts.items()}
        )
        node, hv, ctrl = hosts["node-a"]
        vm = hv.provision(SMALL, "routed")
        manager.register_vm("node-a", "routed", SMALL.vfreq_mhz)
        reports = _drive(hosts, manager, ticks=1)
        assert "routed" in {s.vm_name for s in reports["node-a"].samples}
        manager.unregister_vm("node-a", "routed")
        hv.destroy("routed")
        reports = _drive(hosts, manager, ticks=1)
        assert "routed" not in {s.vm_name for s in reports["node-a"].samples}

    def test_controllers_satisfy_protocol(self):
        hosts = _two_node_setup()
        for _, _, ctrl in hosts.values():
            assert isinstance(ctrl, Controller)

    def test_parallel_rejected(self):
        assert NodeManager(parallel=False).num_nodes == 0
        with pytest.raises(ValueError, match="parallel"):
            NodeManager(parallel=True)
        cluster = Cluster.from_counts({CHETEMI: 1})
        sim = ClusterSimulation(cluster, parallel=False)
        assert sim.node_manager.num_nodes == 1
        with pytest.raises(ValueError, match="parallel"):
            ClusterSimulation(cluster, parallel=True)


class TestAggregates:
    def test_timings_and_stats_summed(self):
        hosts = _two_node_setup()
        manager = NodeManager(
            {nid: ctrl for nid, (_, _, ctrl) in hosts.items()}
        )
        _drive(hosts, manager, ticks=2)
        agg = manager.aggregate_timings()
        per_node = [r.timings for r in manager.last_reports.values()]
        for stage in STAGES:  # summed per stage, in report order
            assert getattr(agg, stage) == sum(
                getattr(t, stage) for t in per_node
            )
        assert agg.total == pytest.approx(sum(t.total for t in per_node))
        stats = manager.backend_stats()
        assert isinstance(stats, BackendStats)
        expected = BackendStats()
        for _, _, ctrl in hosts.values():
            expected = expected + ctrl.backend.stats
        assert stats == expected
        assert stats.fs_reads > 0

    def test_tick_subset(self):
        hosts = _two_node_setup()
        manager = NodeManager(
            {nid: ctrl for nid, (_, _, ctrl) in hosts.items()}
        )
        reports = manager.tick(1.0, node_ids=["node-a"])
        assert set(reports) == {"node-a"}
        assert set(manager.last_reports) == {"node-a"}


class TestFaultIsolation:
    """A failing node must never abort the control-plane barrier."""

    class _Crashy:
        """Minimal Controller whose tick dies on selected calls."""

        period_s = 1.0

        def __init__(self, fail_ticks=()):
            self.fail_ticks = set(fail_ticks)
            self.calls = 0

        def register_vm(self, vm_name, vfreq_mhz):
            pass

        def unregister_vm(self, vm_name):
            pass

        def tick(self, t):
            self.calls += 1
            if self.calls in self.fail_ticks:
                raise RuntimeError(f"injected death at call {self.calls}")
            from repro.core.controller import ControllerReport

            return ControllerReport(t=t)

    def test_one_dead_node_does_not_stop_the_others(self):
        hosts = _two_node_setup()
        manager = NodeManager(
            {nid: ctrl for nid, (_, _, ctrl) in hosts.items()}
        )
        manager.add_node("node-bad", self._Crashy(fail_ticks={2}))
        for k in range(4):
            for node, _, _ in hosts.values():
                node.step(1.0)
            result = manager.tick(float(k + 1))
            # both healthy nodes reported every single tick
            assert {"node-a", "node-b"} <= set(result)
            if k == 1:
                assert set(result.errors) == {"node-bad"}
                assert "injected death" in str(result.errors["node-bad"])
                assert "node-bad" not in result
            else:
                assert result.errors == {}
        assert manager.error_counts == {"node-bad": 1}
        assert manager.last_errors == {}

    def test_tick_result_is_a_dict(self):
        """Existing callers treat the return as Dict[str, report]."""
        hosts = _two_node_setup()
        manager = NodeManager(
            {nid: ctrl for nid, (_, _, ctrl) in hosts.items()}
        )
        result = _drive(hosts, manager, ticks=1)
        assert isinstance(result, dict)
        assert set(result) == {"node-a", "node-b"}
        assert result.errors == {}

    def test_replace_node_after_crash(self):
        manager = NodeManager(
            {"node-x": self._Crashy(fail_ticks={1, 2, 3, 4})}
        )
        manager.tick(1.0)
        assert manager.error_counts["node-x"] == 1
        fresh = self._Crashy()
        old = manager.replace_node("node-x", fresh)
        assert old.calls == 1
        result = manager.tick(2.0)
        assert result.errors == {}
        assert "node-x" in result
        with pytest.raises(KeyError):
            manager.replace_node("ghost", fresh)

    def test_errors_surface_in_prometheus_export(self):
        from repro.core.metrics_export import render_node_manager

        manager = NodeManager({"node-x": self._Crashy(fail_ticks={1})})
        manager.tick(1.0)
        text = render_node_manager(manager)
        assert 'vfreq_node_tick_errors_total{node="node-x"} 1' in text
        assert "vfreq_nodes_failed_last_tick 1" in text
