"""NodeView, the reference ClusterStateView's derived signals, and the
ClusterSimulation snapshot.

``ClusterSimulation.rebalance_arrays()`` is the full-fidelity port's
one snapshot (the churn benchmark plans on it); the reference view of
it is ``planner_reference.to_view(arrays)``.
"""

import pytest

from repro.hw.cluster import Cluster, ClusterNode
from repro.placement.evaluator import Placement
from repro.placement.request import PlacementRequest
from repro.rebalance.arrays import ClusterStateArrays
from repro.rebalance.view import InFlightView, NodeView
from repro.sim.cluster_engine import ClusterSimulation
from repro.virt.template import VMTemplate
from repro.workloads.synthetic import ConstantWorkload
from tests.conftest import TINY
from tests.rebalance.conftest import make_reference_view, vm
from tests.rebalance.planner_reference import to_view


class TestNodeView:
    def test_pressure_is_eq7_deficit(self):
        node = NodeView(
            node_id="n", capacity_mhz=3600.0, fmax_mhz=2400.0,
            memory_mb=1024, committed_mhz=6000.0, committed_memory_mb=512,
        )
        assert node.pressure_mhz == pytest.approx(2400.0)
        assert node.headroom_mhz == 0.0

    def test_headroom_when_under_committed(self):
        node = NodeView(
            node_id="n", capacity_mhz=9600.0, fmax_mhz=2400.0,
            memory_mb=1024, committed_mhz=2400.0, committed_memory_mb=0,
        )
        assert node.pressure_mhz == 0.0
        assert node.headroom_mhz == pytest.approx(7200.0)
        assert node.utilisation == pytest.approx(0.25)

    def test_zero_capacity_utilisation(self):
        node = NodeView(
            node_id="n", capacity_mhz=0.0, fmax_mhz=2400.0,
            memory_mb=1024, committed_mhz=100.0, committed_memory_mb=0,
        )
        assert node.utilisation == float("inf")


class TestDerivedSignals:
    def test_pressured_nodes_sorted_worst_first(self):
        view = make_reference_view(
            {
                "n0": [vm("a", 2, 1800.0)],  # committed 3600
                "n1": [vm("b", 4, 1800.0)],  # committed 7200
                "n2": [vm("c")],
            },
            capacities={"n0": 2400.0, "n1": 2400.0},
        )
        ids = [n.node_id for n in view.pressured_nodes()]
        assert ids == ["n1", "n0"]
        assert view.total_pressure_mhz() == pytest.approx(1200.0 + 4800.0)

    def test_pinned_and_migrating_from_in_flight(self):
        view = make_reference_view(
            {"n0": [vm("a")], "n1": [], "n2": []},
            in_flight=[InFlightView("a", "n0", "n1", arrives_at=5.0)],
        )
        assert view.pinned_nodes() == frozenset({"n0", "n1"})
        assert view.migrating_vms() == frozenset({"a"})

    def test_fragmentation_zero_when_headroom_usable(self):
        view = make_reference_view({"n0": [vm("a")], "n1": []})
        # both nodes keep >= 1200 MHz free: nothing stranded
        assert view.fragmentation_score() == 0.0

    def test_fragmentation_counts_slivers(self):
        # n0 keeps 600 MHz free — less than the smallest VM (1200 MHz),
        # so that headroom is stranded; n1 keeps 9600 usable.
        view = make_reference_view(
            {"n0": [vm("a", 1, 1200.0)], "n1": []},
            capacities={"n0": 1800.0},
        )
        assert view.fragmentation_score() == pytest.approx(600.0 / 10200.0)

    def test_fragmentation_empty_cluster_is_zero(self):
        view = make_reference_view({"n0": [], "n1": []})
        assert view.fragmentation_score() == 0.0


class TestFromClusterSim:
    """``ClusterSimulation.rebalance_arrays()`` — the snapshot the
    full-fidelity cluster (and the churn benchmark) plans on."""

    T = VMTemplate("t", vcpus=1, vfreq_mhz=1200.0, memory_mb=512)

    def _sim(self):
        cluster = Cluster([ClusterNode(f"n{i}", TINY) for i in range(2)])
        sim = ClusterSimulation(cluster, dt=0.5)
        placement = Placement(cluster=cluster)
        placement.assign("n0", PlacementRequest("a", self.T))
        placement.assign("n0", PlacementRequest("b", self.T))
        sim.deploy(
            placement,
            lambda r: ConstantWorkload(r.template.vcpus, level=1.0),
        )
        return sim

    def test_snapshot_matches_hypervisor_accounting(self):
        arrays = self._sim().rebalance_arrays()
        assert isinstance(arrays, ClusterStateArrays)
        assert arrays.node_ids == ("n0", "n1")
        assert set(arrays.vm_names) == {"a", "b"}
        n0 = arrays.node_index["n0"]
        assert arrays.node_committed_mhz[n0] == pytest.approx(2 * 1200.0)
        assert arrays.node_committed_memory_mb[n0] == 1024
        assert arrays.nodes["n0"].vm_names == ("a", "b")
        assert arrays.vms["a"].demand_mhz == pytest.approx(1200.0)
        assert arrays.node_committed_mhz[arrays.node_index["n1"]] == 0.0

    def test_in_flight_migrations_surface(self):
        sim = self._sim()
        sim.start_migration("a", "n1")
        arrays = sim.rebalance_arrays()
        assert arrays.migrating_vms() == frozenset({"a"})
        assert arrays.pinned_nodes() == frozenset({"n0", "n1"})
        assert to_view(arrays).pinned_nodes() == frozenset({"n0", "n1"})

    def test_snapshot_is_frozen(self):
        view = to_view(self._sim().rebalance_arrays())
        with pytest.raises(AttributeError):
            view.t = 99.0
        with pytest.raises(AttributeError):
            view.nodes["n0"].committed_mhz = 0.0
