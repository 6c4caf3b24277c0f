"""ClusterStateArrays / SimulatedArrays against the scalar reference.

The production planner plans on arrays only, so its output is checked
against the per-node reference spelling in
``tests/rebalance/planner_reference.py``: identical derived signals,
identical what-if queries, identical plans bit for bit, and the
independent plan oracle accepts every arrays plan.  These tests fuzz
that equivalence on seeded random clusters, including a 200-node shape.
"""

import random

import pytest

from repro.checking.invariants import check_plan_admissible
from repro.rebalance.arrays import ClusterStateArrays, SimulatedArrays
from repro.rebalance.planner import MigrationPlanner, PlannerConfig
from repro.rebalance.view import InFlightView, NodeView, VmView
from tests.rebalance.conftest import make_reference_view, make_view, vm
from tests.rebalance.planner_reference import (
    ClusterStateView,
    ReferencePlanner,
    SimulatedState,
    from_view,
    to_view,
)


def random_view(
    seed: int,
    *,
    n_nodes: int = 40,
    n_vms: int = 400,
    pressure_frac: float = 0.15,
    idle_frac: float = 0.1,
    n_in_flight: int = 2,
) -> ClusterStateView:
    """Seeded random cluster with pressure, idle nodes and in-flight
    migrations — every planner goal has work to do.

    Nodes are inserted in sorted-id order (zero-padded ids), matching
    every production builder; the arrays dialect requires it for its
    slot == sorted-id invariant.
    """
    rng = random.Random(seed)
    width = len(str(n_nodes - 1))
    node_ids = [f"n{i:0{width}d}" for i in range(n_nodes)]
    fmax = 2400.0
    templates = [(1, 800.0, 512), (2, 1200.0, 1024), (4, 1800.0, 4096)]

    committed = {node_id: 0.0 for node_id in node_ids}
    committed_mb = {node_id: 0 for node_id in node_ids}
    hosted = {node_id: [] for node_id in node_ids}
    vms = {}
    # A slice of nodes stays empty so consolidation has somewhere to
    # put things and drains of empty nodes stay representable.
    idle = set(rng.sample(node_ids, max(1, int(n_nodes * idle_frac))))
    busy = [node_id for node_id in node_ids if node_id not in idle]
    for i in range(n_vms):
        name = f"vm-{i:05d}"
        vcpus, vfreq, mb = rng.choice(templates)
        node_id = rng.choice(busy)
        vms[name] = VmView(
            name=name, node_id=node_id, vcpus=vcpus,
            vfreq_mhz=vfreq, memory_mb=mb,
        )
        hosted[node_id].append(name)
        committed[node_id] += vcpus * vfreq
        committed_mb[node_id] += mb

    nodes = {}
    pressured = set(rng.sample(busy, max(1, int(n_nodes * pressure_frac))))
    for node_id in node_ids:
        # Degrade pressured nodes below their committed load (a chaos
        # event in view terms); everyone else gets generous capacity.
        if node_id in pressured and committed[node_id] > 0:
            capacity = committed[node_id] * rng.uniform(0.5, 0.9)
        else:
            capacity = 96000.0
        nodes[node_id] = NodeView(
            node_id=node_id,
            capacity_mhz=capacity,
            fmax_mhz=fmax,
            memory_mb=262144,
            committed_mhz=committed[node_id],
            committed_memory_mb=committed_mb[node_id],
            demand_mhz=committed[node_id],
            violations=rng.randrange(3),
            powered_on=rng.random() > 0.02 or bool(hosted[node_id]),
            vm_names=tuple(sorted(hosted[node_id])),
        )

    in_flight = []
    movable = [name for name, v in vms.items() if hosted[v.node_id]]
    for name in rng.sample(movable, min(n_in_flight, len(movable))):
        source = vms[name].node_id
        target = rng.choice([n for n in node_ids if n != source])
        in_flight.append(
            InFlightView(
                vm_name=name, source=source, target=target,
                arrives_at=rng.uniform(1.0, 30.0),
            )
        )
    return ClusterStateView(
        t=float(seed), nodes=nodes, vms=vms, in_flight=tuple(in_flight),
        invariant_totals=(rng.randrange(1000), rng.randrange(10)),
    )


class TestSignalEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_derived_signals_bit_identical(self, seed):
        view = random_view(seed)
        arrays = from_view(view)
        assert arrays.total_pressure_mhz() == view.total_pressure_mhz()
        assert arrays.fragmentation_score() == view.fragmentation_score()
        assert arrays.pinned_nodes() == view.pinned_nodes()
        assert arrays.migrating_vms() == view.migrating_vms()
        assert arrays.pressure_by_slot().tolist() == [
            view.nodes[node_id].pressure_mhz for node_id in arrays.node_ids
        ]
        assert view.pressured_nodes(), "fuzz shape should have pressure"
        for want in view.pressured_nodes():
            got = arrays.node_view(arrays.node_index[want.node_id])
            assert got == want
            assert got.pressure_mhz == want.pressure_mhz
            assert got.headroom_mhz == want.headroom_mhz

    @pytest.mark.parametrize("seed", [0, 3])
    def test_lazy_mappings_match_view(self, seed):
        view = random_view(seed)
        arrays = from_view(view)
        assert set(arrays.nodes) == set(view.nodes)
        assert set(arrays.vms) == set(view.vms)
        for node_id, node in view.nodes.items():
            assert arrays.nodes[node_id] == node
        for name, vm_view in view.vms.items():
            assert arrays.vms[name] == vm_view
        assert "nope" not in arrays.nodes
        assert arrays.vms.get("nope") is None

    def test_to_view_round_trip(self):
        view = random_view(1)
        assert to_view(from_view(view)) == view

    def test_empty_cluster(self):
        arrays = make_view({"n0": [], "n1": []})
        assert arrays.fragmentation_score() == 0.0
        assert arrays.total_pressure_mhz() == 0.0
        assert not arrays.pressure_by_slot().any()

    def test_unsorted_slots_rejected(self):
        import numpy as np

        with pytest.raises(ValueError, match="sorted"):
            ClusterStateArrays(
                t=0.0,
                node_ids=["n1", "n0"],
                node_capacity_mhz=np.ones(2),
                node_fmax_mhz=np.ones(2),
                node_memory_mb=np.ones(2),
                node_committed_mhz=np.zeros(2),
                node_committed_memory_mb=np.zeros(2),
            )


class TestSimulatedArraysContract:
    def test_matches_simulated_state_queries(self):
        view = random_view(2)
        scalar = SimulatedState(view, allocation_ratio=1.2)
        soa = SimulatedArrays(from_view(view), allocation_ratio=1.2)
        assert soa.pinned == scalar.pinned
        assert soa.immovable == scalar.immovable
        for slot, node_id in enumerate(soa.node_ids):
            node = scalar.nodes[node_id]
            assert soa.capacity_mhz[slot] == node.capacity_mhz
            assert soa.committed_mhz[slot] == node.committed_mhz
            assert soa.committed_memory_mb[slot] == node.committed_memory_mb
            assert soa.vm_count[slot] == node.num_vms
            assert soa.movable_vms_on(node_id) == scalar.movable_vms_on(node_id)
        for name in view.vms:
            assert soa.host_of(name) == scalar.host_of(name)
            for node_id in view.nodes:
                assert soa.can_accept(name, node_id) == (
                    scalar.can_accept(name, node_id)
                ), (name, node_id)
            # The vectorized target scan keeps exactly the nodes the
            # reference would consider, with the same best-fit keys.
            candidates, fit = soa.admissible_fit(name)
            want = {
                node_id: scalar.fit_after_mhz(name, node_id)
                for node_id in sorted(view.nodes)
                if scalar.can_accept(name, node_id)
                and scalar.nodes[node_id].pressure_mhz == 0
            }
            got = {
                soa.node_ids[slot]: key
                for slot, key in zip(candidates.tolist(), fit.tolist())
            }
            assert got == want, name

    def test_apply_move_and_clone_isolation(self):
        soa = SimulatedArrays(
            make_view({"n0": [vm("a", 2, 1800.0)], "n1": [], "n2": []})
        )
        trial = soa.clone()
        trial.apply_move("a", "n1")
        assert trial.host_of("a") == "n1"
        assert soa.host_of("a") == "n0"
        assert soa.vm_count[soa.node_index["n1"]] == 0
        soa.apply_move("a", "n2")
        assert soa.committed_mhz[soa.node_index["n2"]] == 3600.0
        assert soa.committed_mhz[soa.node_index["n0"]] == 0.0
        with pytest.raises(ValueError):
            soa.apply_move("a", "n2")  # already there

    def test_apply_move_rejects_immovable(self):
        view = make_view(
            {"n0": [vm("a")], "n1": [], "n2": []},
            in_flight=[InFlightView("a", "n0", "n1", arrives_at=5.0)],
        )
        soa = SimulatedArrays(view)
        with pytest.raises(ValueError, match="in-flight"):
            soa.apply_move("a", "n2")


class TestPlannerIdentity:
    """The headline guarantee: the arrays planner and the scalar
    reference produce equal plans."""

    @staticmethod
    def assert_plans_identical(view, *, drain=(), seed=0, config=None):
        planner = MigrationPlanner(config=config)
        arrays = from_view(view)
        scalar_plan = ReferencePlanner(config=config).plan(
            view, drain=drain, seed=seed
        )
        soa_plan = planner.plan(arrays, drain=drain, seed=seed)
        assert soa_plan.moves == scalar_plan.moves
        assert soa_plan.skipped == scalar_plan.skipped
        assert soa_plan.considered == scalar_plan.considered
        assert soa_plan.pressure_before_mhz == scalar_plan.pressure_before_mhz
        assert soa_plan.pressure_after_mhz == scalar_plan.pressure_after_mhz
        assert soa_plan.fragmentation_before == scalar_plan.fragmentation_before
        # And the independent oracle accepts the SoA dialect unchanged.
        assert not check_plan_admissible(
            arrays, soa_plan,
            allocation_ratio=planner.config.allocation_ratio,
        )
        return soa_plan

    @pytest.mark.parametrize("seed", range(12))
    def test_fuzzed_plans_bit_identical(self, seed):
        view = random_view(seed, n_nodes=30, n_vms=300)
        drain = sorted(random.Random(seed ^ 0xD5A1).sample(
            sorted(view.nodes), 2
        ))
        self.assert_plans_identical(
            view, drain=drain, seed=seed,
            config=PlannerConfig(max_moves_per_round=16),
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzzed_200_node_cluster(self, seed):
        view = random_view(
            seed + 100, n_nodes=200, n_vms=2000, pressure_frac=0.1
        )
        plan = self.assert_plans_identical(
            view, seed=seed, config=PlannerConfig(max_moves_per_round=16)
        )
        assert plan.moves, "fuzz shape should always produce moves"

    def test_allocation_ratio_respected(self):
        view = random_view(5)
        self.assert_plans_identical(
            view, seed=5,
            config=PlannerConfig(
                max_moves_per_round=12, allocation_ratio=1.3
            ),
        )

    def test_consolidation_identical(self):
        # Low-utilisation nodes trigger the consolidate goal's trial
        # clone machinery on both paths.
        view = make_reference_view(
            {
                "n0": [vm("a", 1, 900.0)],
                "n1": [vm("b", 1, 900.0), vm("c", 1, 600.0)],
                "n2": [vm("d", 4, 1800.0), vm("e", 4, 1800.0)],
                "n3": [],
            },
            capacity_mhz=19200.0,
        )
        plan = self.assert_plans_identical(view, seed=3)
        assert "consolidate" in plan.moves_by_reason()
