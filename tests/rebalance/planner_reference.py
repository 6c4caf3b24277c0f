"""Scalar reference for the rebalancer's planning path.

The production planner (:class:`repro.rebalance.planner.MigrationPlanner`)
plans on the structure-of-arrays snapshot
(:class:`~repro.rebalance.arrays.ClusterStateArrays`) through
:class:`~repro.rebalance.arrays.SimulatedArrays`.  This module keeps the
readable per-node spelling of the same job, so the parity tests have an
independent path to compare it against:

* :class:`ClusterStateView` — the snapshot as frozen dataclasses, with
  its derived signals computed node by node;
* :func:`to_view` / :func:`from_view` — conversions between the two
  snapshot spellings;
* :class:`SimulatedNode` / :class:`SimulatedState` — the what-if state
  as mutable per-node objects (the ``SimulatedState`` idiom of
  openstack_balancer's planner);
* :class:`ReferencePlanner` — the same three goal passes, with a Python
  best-fit loop over every node in sorted-id order.

Same snapshot + same seed must give the identical plan, bit for bit, on
both paths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.placement.migration import MigrationModel
from repro.rebalance.arrays import EPS_MHZ, ClusterStateArrays
from repro.rebalance.planner import MigrationPlan, PlannedMove, PlannerConfig
from repro.rebalance.view import InFlightView, NodeView, VmView


@dataclass(frozen=True)
class ClusterStateView:
    """Frozen cluster snapshot one planner round works on."""

    t: float
    nodes: Dict[str, NodeView]
    vms: Dict[str, VmView]
    in_flight: Tuple[InFlightView, ...] = ()
    #: Cluster-wide (checks, violations) from the control plane.
    invariant_totals: Tuple[int, int] = (0, 0)

    # -- derived signals ------------------------------------------------------

    def pressured_nodes(self) -> List[NodeView]:
        """Nodes with an Eq. 7 deficit, worst first (ties by id)."""
        out = [n for n in self.nodes.values() if n.pressure_mhz > 0]
        out.sort(key=lambda n: (-n.pressure_mhz, n.node_id))
        return out

    def total_pressure_mhz(self) -> float:
        return sum(n.pressure_mhz for n in self.nodes.values())

    def pinned_nodes(self) -> frozenset:
        """Nodes blacked out by an in-flight migration (source+target)."""
        pinned = set()
        for mig in self.in_flight:
            pinned.add(mig.source)
            pinned.add(mig.target)
        return frozenset(pinned)

    def migrating_vms(self) -> frozenset:
        return frozenset(m.vm_name for m in self.in_flight)

    def fragmentation_score(self) -> float:
        """Stranded-headroom fraction in [0, 1]: headroom slivers smaller
        than the smallest hosted VM's demand, over powered-on nodes."""
        demands = [v.demand_mhz for v in self.vms.values()]
        if not demands:
            return 0.0
        quantum = min(demands)
        total = stranded = 0.0
        for node in self.nodes.values():
            if not node.powered_on:
                continue
            h = node.headroom_mhz
            total += h
            if h < quantum:
                stranded += h
        return stranded / total if total > 0 else 0.0


# -- snapshot conversions -----------------------------------------------------


def to_view(arrays: ClusterStateArrays) -> ClusterStateView:
    """Materialise the frozen-dataclass spelling of an arrays snapshot."""
    nodes = {
        node_id: arrays.node_view(slot)
        for slot, node_id in enumerate(arrays.node_ids)
    }
    vms = {
        name: arrays.vm_view(slot) for slot, name in enumerate(arrays.vm_names)
    }
    return ClusterStateView(
        t=arrays.t,
        nodes=nodes,
        vms=vms,
        in_flight=arrays.in_flight,
        invariant_totals=arrays.invariant_totals,
    )


def from_view(view: ClusterStateView) -> ClusterStateArrays:
    """Array spelling of an existing view (sorted node slots)."""
    node_ids = sorted(view.nodes)
    index = {node_id: i for i, node_id in enumerate(node_ids)}
    nodes = [view.nodes[node_id] for node_id in node_ids]
    vm_names = list(view.vms)
    vms = [view.vms[name] for name in vm_names]
    return ClusterStateArrays(
        t=view.t,
        node_ids=node_ids,
        node_capacity_mhz=np.array([n.capacity_mhz for n in nodes], dtype=float),
        node_fmax_mhz=np.array([n.fmax_mhz for n in nodes], dtype=float),
        node_memory_mb=np.array([n.memory_mb for n in nodes], dtype=np.int64),
        node_committed_mhz=np.array(
            [n.committed_mhz for n in nodes], dtype=float
        ),
        node_committed_memory_mb=np.array(
            [n.committed_memory_mb for n in nodes], dtype=np.int64
        ),
        node_demand_mhz=np.array([n.demand_mhz for n in nodes], dtype=float),
        node_violations=np.array([n.violations for n in nodes], dtype=np.int64),
        node_powered_on=np.array([n.powered_on for n in nodes], dtype=bool),
        vm_names=vm_names,
        vm_node=np.array([index[v.node_id] for v in vms], dtype=np.int64),
        vm_vcpus=np.array([v.vcpus for v in vms], dtype=np.int64),
        vm_vfreq_mhz=np.array([v.vfreq_mhz for v in vms], dtype=float),
        vm_memory_mb=np.array([v.memory_mb for v in vms], dtype=np.int64),
        in_flight=view.in_flight,
        invariant_totals=view.invariant_totals,
    )


# -- the what-if state --------------------------------------------------------


@dataclass
class SimulatedNode:
    """One node's running account inside the what-if state."""

    node_id: str
    capacity_mhz: float
    fmax_mhz: float
    memory_mb: int
    committed_mhz: float
    committed_memory_mb: int
    powered_on: bool = True
    vm_names: Set[str] = field(default_factory=set)
    planned_in: Set[str] = field(default_factory=set)
    planned_out: Set[str] = field(default_factory=set)

    @property
    def pressure_mhz(self) -> float:
        return max(0.0, self.committed_mhz - self.capacity_mhz)

    @property
    def headroom_mhz(self) -> float:
        return self.capacity_mhz - self.committed_mhz

    @property
    def utilisation(self) -> float:
        if self.capacity_mhz <= 0:
            return float("inf") if self.committed_mhz > 0 else 0.0
        return self.committed_mhz / self.capacity_mhz

    @property
    def num_vms(self) -> int:
        return len(self.vm_names)


class SimulatedState:
    """Mutable planning copy of one cluster snapshot."""

    def __init__(
        self,
        view: ClusterStateView,
        *,
        allocation_ratio: float = 1.0,
        pinned: Iterable[str] = (),
    ) -> None:
        if allocation_ratio <= 0:
            raise ValueError("allocation_ratio must be positive")
        self.allocation_ratio = allocation_ratio
        self.pinned: Set[str] = set(pinned) | set(view.pinned_nodes())
        self.immovable: Set[str] = set(view.migrating_vms())
        self.vms: Dict[str, VmView] = dict(view.vms)
        self._host: Dict[str, str] = {
            vm.name: vm.node_id for vm in view.vms.values()
        }
        self.nodes: Dict[str, SimulatedNode] = {}
        for node_id, node in view.nodes.items():
            self.nodes[node_id] = SimulatedNode(
                node_id=node_id,
                capacity_mhz=node.capacity_mhz * allocation_ratio,
                fmax_mhz=node.fmax_mhz,
                memory_mb=node.memory_mb,
                committed_mhz=node.committed_mhz,
                committed_memory_mb=node.committed_memory_mb,
                powered_on=node.powered_on,
                vm_names=set(node.vm_names),
            )

    def clone(self) -> "SimulatedState":
        """Independent copy for trial placements (consolidation probes)."""
        out = object.__new__(SimulatedState)
        out.allocation_ratio = self.allocation_ratio
        out.pinned = set(self.pinned)
        out.immovable = set(self.immovable)
        out.vms = dict(self.vms)
        out._host = dict(self._host)
        out.nodes = {
            node_id: SimulatedNode(
                node_id=n.node_id,
                capacity_mhz=n.capacity_mhz,
                fmax_mhz=n.fmax_mhz,
                memory_mb=n.memory_mb,
                committed_mhz=n.committed_mhz,
                committed_memory_mb=n.committed_memory_mb,
                powered_on=n.powered_on,
                vm_names=set(n.vm_names),
                planned_in=set(n.planned_in),
                planned_out=set(n.planned_out),
            )
            for node_id, n in self.nodes.items()
        }
        return out

    # -- queries --------------------------------------------------------------

    def host_of(self, vm_name: str) -> str:
        return self._host[vm_name]

    def movable_vms_on(self, node_id: str) -> List[VmView]:
        """Hosted VMs eligible to leave, largest demand first (ties by
        name)."""
        out = [
            self.vms[name]
            for name in self.nodes[node_id].vm_names
            if name not in self.immovable
        ]
        out.sort(key=lambda v: (-v.demand_mhz, v.name))
        return out

    def can_accept(self, vm_name: str, node_id: str) -> bool:
        """Would Eq. 7 (x allocation_ratio) and memory still hold?"""
        vm = self.vms.get(vm_name)
        node = self.nodes.get(node_id)
        if vm is None or node is None:
            return False
        if not node.powered_on or node_id in self.pinned:
            return False
        if node_id == self._host[vm_name]:
            return False
        if vm.vfreq_mhz > node.fmax_mhz:
            return False  # a guarantee above F_MAX is unsatisfiable (Eq. 2)
        freq_ok = (
            node.committed_mhz + vm.demand_mhz <= node.capacity_mhz + EPS_MHZ
        )
        mem_ok = node.committed_memory_mb + vm.memory_mb <= node.memory_mb
        return freq_ok and mem_ok

    def fit_after_mhz(self, vm_name: str, node_id: str) -> float:
        """Headroom the target would keep — the best-fit sort key."""
        return (
            self.nodes[node_id].headroom_mhz - self.vms[vm_name].demand_mhz
        )

    # -- mutation -------------------------------------------------------------

    def apply_move(self, vm_name: str, target_id: str) -> None:
        """Commit one tentative move inside the what-if state."""
        if vm_name in self.immovable:
            raise ValueError(f"{vm_name} is pinned by an in-flight migration")
        if not self.can_accept(vm_name, target_id):
            raise ValueError(
                f"{vm_name} does not fit on {target_id} "
                "(Eq. 7, memory, power or pinning)"
            )
        vm = self.vms[vm_name]
        source = self.nodes[self._host[vm_name]]
        target = self.nodes[target_id]
        source.vm_names.discard(vm_name)
        source.planned_out.add(vm_name)
        source.committed_mhz -= vm.demand_mhz
        source.committed_memory_mb -= vm.memory_mb
        target.vm_names.add(vm_name)
        target.planned_in.add(vm_name)
        target.committed_mhz += vm.demand_mhz
        target.committed_memory_mb += vm.memory_mb
        self._host[vm_name] = target_id


# -- the planner --------------------------------------------------------------


class ReferencePlanner:
    """The production planner's three goal passes, spelled per node.

    Takes a :class:`ClusterStateView` and plans through
    :class:`SimulatedState`; the best-fit target scan is a Python loop
    keeping the lexicographic minimum of ``(fit, rank, node_id)`` over
    sorted ids.
    """

    def __init__(
        self,
        model: Optional[MigrationModel] = None,
        config: Optional[PlannerConfig] = None,
    ) -> None:
        self.model = model or MigrationModel()
        self.config = config or PlannerConfig()

    def plan(
        self,
        view: ClusterStateView,
        *,
        drain: Sequence[str] = (),
        seed: int = 0,
    ) -> MigrationPlan:
        for node_id in drain:
            if node_id not in view.nodes:
                raise KeyError(f"unknown drain node: {node_id}")
        state = SimulatedState(
            view, allocation_ratio=self.config.allocation_ratio
        )
        plan = MigrationPlan(
            t=view.t,
            seed=seed,
            pressure_before_mhz=view.total_pressure_mhz(),
            fragmentation_before=view.fragmentation_score(),
        )
        rng = random.Random(seed)
        self._rank = {node_id: rng.random() for node_id in sorted(state.nodes)}
        self._node_moves: Dict[str, int] = {}
        drain_set = set(drain)

        self._plan_pressure(state, plan, drain_set)
        self._plan_drain(state, plan, drain_set)
        if self.config.consolidate:
            self._plan_consolidate(state, plan, drain_set)

        plan.pressure_after_mhz = sum(
            n.pressure_mhz for n in state.nodes.values()
        )
        return plan

    # -- goal passes ----------------------------------------------------------

    def _plan_pressure(
        self, state: SimulatedState, plan: MigrationPlan, drain: set
    ) -> None:
        pressured = sorted(
            (n for n in state.nodes.values() if n.pressure_mhz > 0),
            key=lambda n: (-n.pressure_mhz, n.node_id),
        )
        for node in pressured:
            if node.node_id in state.pinned:
                plan._skip("source_pinned")
                continue
            while node.pressure_mhz > 0 and not self._exhausted(plan):
                victim = self._pick_pressure_victim(state, node.node_id)
                if victim is None:
                    plan._skip("no_victim")
                    break
                relief = min(victim.demand_mhz, node.pressure_mhz)
                if not self._move(
                    state, plan, victim, reason="pressure",
                    relief_mhz=relief, drain=drain,
                ):
                    break

    def _plan_drain(
        self, state: SimulatedState, plan: MigrationPlan, drain: set
    ) -> None:
        for node_id in sorted(drain):
            if node_id in state.pinned:
                plan._skip("source_pinned")
                continue
            for vm in state.movable_vms_on(node_id):
                if self._exhausted(plan):
                    plan._skip("round_budget")
                    return
                self._move(
                    state, plan, vm, reason="drain",
                    relief_mhz=vm.demand_mhz, drain=drain,
                    ignore_source_cap=True,
                )

    def _plan_consolidate(
        self, state: SimulatedState, plan: MigrationPlan, drain: set
    ) -> None:
        candidates = sorted(
            (
                n
                for n in state.nodes.values()
                if n.powered_on
                and n.num_vms > 0
                and n.node_id not in state.pinned
                and n.node_id not in drain
                and 0.0 < n.utilisation <= self.config.consolidate_below
            ),
            key=lambda n: (n.committed_mhz, n.node_id),
        )
        emptied: set = set()
        for node in candidates:
            if self._exhausted(plan):
                return
            vms = state.movable_vms_on(node.node_id)
            if not vms or len(vms) != node.num_vms:
                plan._skip("consolidate_pinned_vm")
                continue
            trial = state.clone()
            routes: List[Tuple[VmView, str]] = []
            ok = True
            budget = self.config.max_moves_per_round - len(plan.moves)
            for vm in vms:
                if len(routes) >= budget:
                    ok = False
                    break
                target = self._pick_target(
                    trial, vm,
                    exclude=emptied | {node.node_id},
                    used_only=True,
                )
                if target is None:
                    ok = False
                    break
                trial.apply_move(vm.name, target)
                routes.append((vm, target))
            if not ok:
                plan._skip("consolidate_unplaceable")
                continue
            for vm, target in routes:
                state.apply_move(vm.name, target)
                self._record(
                    plan, vm, source=node.node_id, target=target,
                    reason="consolidate", relief_mhz=vm.demand_mhz,
                    headroom_after=state.nodes[target].headroom_mhz,
                )
            emptied.add(node.node_id)

    # -- shared mechanics -----------------------------------------------------

    def _pick_pressure_victim(
        self, state: SimulatedState, node_id: str
    ) -> Optional[VmView]:
        node = state.nodes[node_id]
        vms = state.movable_vms_on(node_id)
        if not vms:
            return None
        covering = [v for v in vms if v.demand_mhz >= node.pressure_mhz]
        if covering:
            return min(covering, key=lambda v: (v.demand_mhz, v.name))
        return max(vms, key=lambda v: (v.demand_mhz, v.name))

    def _pick_target(
        self,
        state: SimulatedState,
        vm: VmView,
        *,
        exclude: set = frozenset(),
        used_only: bool = False,
    ) -> Optional[str]:
        best: Optional[Tuple[float, float, str]] = None
        for node_id in sorted(state.nodes):
            node = state.nodes[node_id]
            if node_id in exclude:
                continue
            if used_only and not node.vm_names:
                continue
            if self._node_moves.get(node_id, 0) >= self.config.max_moves_per_node:
                continue
            if node.pressure_mhz > 0:
                continue  # never add load to a node already in deficit
            if not state.can_accept(vm.name, node_id):
                continue
            key = (
                state.fit_after_mhz(vm.name, node_id),
                self._rank[node_id],
                node_id,
            )
            if best is None or key < best:
                best = key
        return best[2] if best is not None else None

    def _move(
        self,
        state: SimulatedState,
        plan: MigrationPlan,
        vm: VmView,
        *,
        reason: str,
        relief_mhz: float,
        drain: set,
        ignore_source_cap: bool = False,
    ) -> bool:
        source = state.host_of(vm.name)
        if not ignore_source_cap and (
            self._node_moves.get(source, 0) >= self.config.max_moves_per_node
        ):
            plan._skip("source_budget")
            return False
        target = self._pick_target(state, vm, exclude=drain | {source})
        if target is None:
            plan._skip("no_target")
            return False
        state.apply_move(vm.name, target)
        self._record(
            plan, vm, source=source, target=target,
            reason=reason, relief_mhz=relief_mhz,
            headroom_after=state.nodes[target].headroom_mhz,
        )
        return True

    def _record(
        self,
        plan: MigrationPlan,
        vm: VmView,
        *,
        source: str,
        target: str,
        reason: str,
        relief_mhz: float,
        headroom_after: float,
    ) -> None:
        transfer = self.model.transfer_seconds(vm.memory_mb)
        cost = self.model.total_seconds(vm.memory_mb)
        plan.moves.append(
            PlannedMove(
                vm_name=vm.name,
                source=source,
                target=target,
                reason=reason,
                demand_mhz=vm.demand_mhz,
                memory_mb=vm.memory_mb,
                transfer_s=transfer,
                downtime_s=self.model.downtime_s,
                cost_s=cost,
                relief_mhz=relief_mhz,
                score=relief_mhz / cost if cost > 0 else float("inf"),
                target_headroom_after_mhz=headroom_after,
            )
        )
        plan.considered += 1
        self._node_moves[source] = self._node_moves.get(source, 0) + 1
        self._node_moves[target] = self._node_moves.get(target, 0) + 1

    def _exhausted(self, plan: MigrationPlan) -> bool:
        return len(plan.moves) >= self.config.max_moves_per_round
