"""The rebalancer's cluster snapshot, as structure of arrays.

:class:`ClusterStateArrays` is the one snapshot every cluster port
emits (``rebalance_arrays()`` on
:class:`~repro.sim.cluster_engine.ClusterSimulation` and
:class:`~repro.rebalance.chaos.ChurnChaosCluster`): parallel NumPy
arrays over stable node/VM slots, so a 1000-node / 50k-VM round never
materialises 50k per-VM objects before the planner does any work.
:class:`SimulatedArrays` is the what-if planning state that mutates
those arrays instead of per-node objects.

The snapshot also answers the derived signals the planner, loop and
oracle read (``total_pressure_mhz`` / ``fragmentation_score`` /
``pinned_nodes`` / ``migrating_vms``) and exposes lazy ``.nodes`` /
``.vms`` mappings that build frozen :class:`~repro.rebalance.view.NodeView` /
:class:`~repro.rebalance.view.VmView` objects on demand, for readers
that want one node or VM at a time: the independent plan oracle
:func:`repro.checking.invariants.check_plan_admissible`,
:meth:`~repro.rebalance.loop.RebalanceLoop.drained_nodes` and
``repro rebalance drain``.

Node slots are always in sorted ``node_id`` order, so every tie-break
by node id is a tie-break by lowest slot.  VM slots carry no ordering
contract (churned clusters reuse slots); all VM tie-breaks go through
names.  ``tests/rebalance/planner_reference.py`` keeps a per-node
reference spelling of snapshot, what-if state and planner; the tests
fuzz it against this module for bit-identical signals and plans.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.rebalance.view import InFlightView, NodeView, VmView

#: Float slack of the Eq. 7 admissibility comparisons.
EPS_MHZ = 1e-6


def _seq_sum(values: Iterable[float]) -> float:
    """Order-preserving sequential sum.

    ``np.sum`` is pairwise; a per-node Python ``sum`` accumulates left
    to right.  Signals that feed bit-identity comparisons must round the
    same way, so they sum Python-side in slot order.
    """
    total = 0.0
    for v in values:
        total += v
    return total


class _LazyNodeMap(Mapping):
    """``view.nodes``-compatible mapping building NodeView on demand."""

    def __init__(self, arrays: "ClusterStateArrays") -> None:
        self._a = arrays

    def __getitem__(self, node_id: str) -> NodeView:
        slot = self._a.node_index[node_id]
        return self._a.node_view(slot)

    def __iter__(self):
        return iter(self._a.node_ids)

    def __len__(self) -> int:
        return len(self._a.node_ids)

    def __contains__(self, node_id) -> bool:
        return node_id in self._a.node_index


class _LazyVmMap(Mapping):
    """``view.vms``-compatible mapping building VmView on demand."""

    def __init__(self, arrays: "ClusterStateArrays") -> None:
        self._a = arrays

    def __getitem__(self, vm_name: str) -> VmView:
        slot = self._a.vm_index[vm_name]
        return self._a.vm_view(slot)

    def __iter__(self):
        return iter(self._a.vm_names)

    def __len__(self) -> int:
        return len(self._a.vm_names)

    def __contains__(self, vm_name) -> bool:
        return vm_name in self._a.vm_index


class ClusterStateArrays:
    """Frozen SoA cluster snapshot — the fleet-scale planner input.

    All node arrays are indexed by node slot (sorted ``node_id``
    order), all VM arrays by VM slot.  The snapshot is read-only by
    convention: the planner mutates a :class:`SimulatedArrays` copy,
    never this object.
    """

    __slots__ = (
        "t",
        "node_ids",
        "node_index",
        "node_capacity_mhz",
        "node_fmax_mhz",
        "node_memory_mb",
        "node_committed_mhz",
        "node_committed_memory_mb",
        "node_demand_mhz",
        "node_violations",
        "node_powered_on",
        "vm_names",
        "vm_index",
        "vm_node",
        "vm_vcpus",
        "vm_vfreq_mhz",
        "vm_memory_mb",
        "vm_demand_mhz",
        "in_flight",
        "invariant_totals",
        "_nodes_map",
        "_vms_map",
        "_names_cache",
    )

    def __init__(
        self,
        *,
        t: float,
        node_ids: Sequence[str],
        node_capacity_mhz: np.ndarray,
        node_fmax_mhz: np.ndarray,
        node_memory_mb: np.ndarray,
        node_committed_mhz: np.ndarray,
        node_committed_memory_mb: np.ndarray,
        node_demand_mhz: Optional[np.ndarray] = None,
        node_violations: Optional[np.ndarray] = None,
        node_powered_on: Optional[np.ndarray] = None,
        vm_names: Sequence[str] = (),
        vm_node: Optional[np.ndarray] = None,
        vm_vcpus: Optional[np.ndarray] = None,
        vm_vfreq_mhz: Optional[np.ndarray] = None,
        vm_memory_mb: Optional[np.ndarray] = None,
        in_flight: Tuple[InFlightView, ...] = (),
        invariant_totals: Tuple[int, int] = (0, 0),
    ) -> None:
        ids = tuple(node_ids)
        if list(ids) != sorted(ids):
            raise ValueError("node slots must be in sorted node_id order")
        n = len(ids)
        self.t = t
        self.node_ids = ids
        self.node_index = {node_id: i for i, node_id in enumerate(ids)}
        self.node_capacity_mhz = np.asarray(node_capacity_mhz, dtype=np.float64)
        self.node_fmax_mhz = np.asarray(node_fmax_mhz, dtype=np.float64)
        self.node_memory_mb = np.asarray(node_memory_mb, dtype=np.int64)
        self.node_committed_mhz = np.asarray(
            node_committed_mhz, dtype=np.float64
        )
        self.node_committed_memory_mb = np.asarray(
            node_committed_memory_mb, dtype=np.int64
        )
        self.node_demand_mhz = (
            np.zeros(n)
            if node_demand_mhz is None
            else np.asarray(node_demand_mhz, dtype=np.float64)
        )
        self.node_violations = (
            np.zeros(n, dtype=np.int64)
            if node_violations is None
            else np.asarray(node_violations, dtype=np.int64)
        )
        self.node_powered_on = (
            np.ones(n, dtype=bool)
            if node_powered_on is None
            else np.asarray(node_powered_on, dtype=bool)
        )
        v = len(vm_names)
        self.vm_names = tuple(vm_names)
        self.vm_index = {name: i for i, name in enumerate(self.vm_names)}
        self.vm_node = (
            np.zeros(v, dtype=np.int64)
            if vm_node is None
            else np.asarray(vm_node, dtype=np.int64)
        )
        self.vm_vcpus = (
            np.zeros(v, dtype=np.int64)
            if vm_vcpus is None
            else np.asarray(vm_vcpus, dtype=np.int64)
        )
        self.vm_vfreq_mhz = (
            np.zeros(v)
            if vm_vfreq_mhz is None
            else np.asarray(vm_vfreq_mhz, dtype=np.float64)
        )
        self.vm_memory_mb = (
            np.zeros(v, dtype=np.int64)
            if vm_memory_mb is None
            else np.asarray(vm_memory_mb, dtype=np.int64)
        )
        # Same product as VmView.demand_mhz computes per VM.
        self.vm_demand_mhz = self.vm_vcpus * self.vm_vfreq_mhz
        self.in_flight = tuple(in_flight)
        self.invariant_totals = invariant_totals
        self._nodes_map = _LazyNodeMap(self)
        self._vms_map = _LazyVmMap(self)
        self._names_cache: Optional[List[Tuple[str, ...]]] = None

    # -- view-compatible surface ----------------------------------------------

    @property
    def nodes(self) -> Mapping:
        """Lazy ``{node_id: NodeView}`` mapping (oracle compatibility)."""
        return self._nodes_map

    @property
    def vms(self) -> Mapping:
        """Lazy ``{vm_name: VmView}`` mapping (oracle compatibility)."""
        return self._vms_map

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_vms(self) -> int:
        return len(self.vm_names)

    def _names_by_slot(self) -> List[Tuple[str, ...]]:
        """Per-slot sorted VM-name tuples, built once per snapshot.

        A lone ``node_view`` call could grep ``vm_node`` directly, but
        the plan oracle iterates ``nodes.values()`` — one grouping pass
        here keeps that O(VMs + nodes) instead of O(nodes x VMs).
        """
        if self._names_cache is None:
            grouped: List[List[str]] = [[] for _ in self.node_ids]
            for i, slot in enumerate(self.vm_node.tolist()):
                grouped[slot].append(self.vm_names[i])
            self._names_cache = [tuple(sorted(g)) for g in grouped]
        return self._names_cache

    def node_view(self, slot: int) -> NodeView:
        """One node's frozen view, materialised on demand."""
        return NodeView(
            node_id=self.node_ids[slot],
            capacity_mhz=float(self.node_capacity_mhz[slot]),
            fmax_mhz=float(self.node_fmax_mhz[slot]),
            memory_mb=int(self.node_memory_mb[slot]),
            committed_mhz=float(self.node_committed_mhz[slot]),
            committed_memory_mb=int(self.node_committed_memory_mb[slot]),
            demand_mhz=float(self.node_demand_mhz[slot]),
            violations=int(self.node_violations[slot]),
            powered_on=bool(self.node_powered_on[slot]),
            vm_names=self._names_by_slot()[slot],
        )

    def vm_view(self, slot: int) -> VmView:
        return VmView(
            name=self.vm_names[slot],
            node_id=self.node_ids[int(self.vm_node[slot])],
            vcpus=int(self.vm_vcpus[slot]),
            vfreq_mhz=float(self.vm_vfreq_mhz[slot]),
            memory_mb=int(self.vm_memory_mb[slot]),
        )

    # -- derived signals ------------------------------------------------------

    def pressure_by_slot(self) -> np.ndarray:
        """Eq. 7 deficit per node slot (0 where capacity covers)."""
        return np.maximum(0.0, self.node_committed_mhz - self.node_capacity_mhz)

    def total_pressure_mhz(self) -> float:
        return _seq_sum(self.pressure_by_slot().tolist())

    def pinned_nodes(self) -> frozenset:
        pinned = set()
        for mig in self.in_flight:
            pinned.add(mig.source)
            pinned.add(mig.target)
        return frozenset(pinned)

    def migrating_vms(self) -> frozenset:
        return frozenset(m.vm_name for m in self.in_flight)

    def fragmentation_score(self) -> float:
        """Stranded-headroom fraction in [0, 1].

        Headroom slivers smaller than the smallest hosted VM's demand
        cannot host anything currently running, so they are *stranded*:
        ``score = stranded_headroom / total_headroom`` over powered-on
        nodes.  0 means every free MHz is usable; 1 means the free
        capacity is scattered in unusably small pieces — the signal the
        consolidation goal acts on.
        """
        if not self.vm_names:
            return 0.0
        quantum = float(self.vm_demand_mhz.min())
        total = stranded = 0.0
        headroom = np.maximum(
            0.0, self.node_capacity_mhz - self.node_committed_mhz
        )
        for slot, h in enumerate(headroom.tolist()):
            if not self.node_powered_on[slot]:
                continue
            total += h
            if h < quantum:
                stranded += h
        return stranded / total if total > 0 else 0.0

    @classmethod
    def from_cluster_sim(cls, sim) -> "ClusterStateArrays":
        """Snapshot a live :class:`~repro.sim.cluster_engine.
        ClusterSimulation` straight into arrays (duck-typed: anything
        with ``runtimes`` / ``node_manager`` / ``_in_flight``).

        Per-node guarantee accounting comes from each hypervisor's
        Eq. 7 terms; violation counts and cluster invariant totals from
        the :class:`~repro.sim.node_manager.NodeManager` when present.
        """
        manager = getattr(sim, "node_manager", None)
        violations_by_node: Dict[str, int] = {}
        totals = (0, 0)
        if manager is not None:
            by_node = getattr(manager, "invariant_violations_by_node", None)
            if by_node is not None:
                violations_by_node = by_node()
            totals = manager.invariant_totals()
        node_ids = sorted(sim.runtimes)
        index = {node_id: i for i, node_id in enumerate(node_ids)}
        n = len(node_ids)
        capacity = np.empty(n)
        fmax = np.empty(n)
        memory = np.empty(n, dtype=np.int64)
        committed = np.empty(n)
        committed_mb = np.empty(n, dtype=np.int64)
        demand = np.empty(n)
        violations = np.empty(n, dtype=np.int64)
        powered = np.empty(n, dtype=bool)
        vm_names: List[str] = []
        vm_node: List[int] = []
        vcpus: List[int] = []
        vfreq: List[float] = []
        vm_mem: List[int] = []
        for i, node_id in enumerate(node_ids):
            runtime = sim.runtimes[node_id]
            spec = runtime.node.spec
            hypervisor = runtime.hypervisor
            node_demand = 0.0
            for vm in hypervisor.vms:
                node_demand += (
                    sum(min(v.demand, 1.0) for v in vm.vcpus) * spec.fmax_mhz
                )
                vm_names.append(vm.name)
                vm_node.append(i)
                vcpus.append(vm.template.vcpus)
                vfreq.append(vm.template.vfreq_mhz)
                vm_mem.append(vm.template.memory_mb)
            capacity[i] = spec.capacity_mhz
            fmax[i] = spec.fmax_mhz
            memory[i] = spec.memory_mb
            committed[i] = hypervisor.committed_mhz()
            committed_mb[i] = hypervisor.committed_memory_mb()
            demand[i] = node_demand
            violations[i] = violations_by_node.get(node_id, 0)
            powered[i] = runtime.powered_on
        in_flight = tuple(
            InFlightView(
                vm_name=m.vm_name,
                source=m.source,
                target=m.target,
                arrives_at=m.arrives_at,
            )
            for m in getattr(sim, "_in_flight", ())
        )
        return cls(
            t=sim.t,
            node_ids=node_ids,
            node_capacity_mhz=capacity,
            node_fmax_mhz=fmax,
            node_memory_mb=memory,
            node_committed_mhz=committed,
            node_committed_memory_mb=committed_mb,
            node_demand_mhz=demand,
            node_violations=violations,
            node_powered_on=powered,
            vm_names=vm_names,
            vm_node=np.asarray(vm_node, dtype=np.int64),
            vm_vcpus=np.asarray(vcpus, dtype=np.int64),
            vm_vfreq_mhz=np.asarray(vfreq, dtype=np.float64),
            vm_memory_mb=np.asarray(vm_mem, dtype=np.int64),
            in_flight=in_flight,
            invariant_totals=totals,
        )


class SimulatedArrays:
    """What-if planning state: a mutable copy of one snapshot's
    columns that the planner applies candidate moves to.

    ``allocation_ratio`` is the conventional overcommit knob: it scales
    every node's frequency capacity, exactly like the consolidation
    factor of :class:`~repro.placement.constraints.
    CoreSplittingConstraint`.  At the default 1.0 the planner only
    produces strictly Eq. 7-admissible placements.  A clone is a
    handful of ``ndarray.copy()`` calls, and the best-fit target scan
    (:meth:`admissible_fit`) is one masked NumPy reduction.
    """

    def __init__(
        self,
        arrays: ClusterStateArrays,
        *,
        allocation_ratio: float = 1.0,
        pinned: Iterable[str] = (),
    ) -> None:
        if allocation_ratio <= 0:
            raise ValueError("allocation_ratio must be positive")
        self.allocation_ratio = allocation_ratio
        self.pinned: Set[str] = set(pinned) | set(arrays.pinned_nodes())
        self.immovable: Set[str] = set(arrays.migrating_vms())
        self.node_ids = arrays.node_ids
        self.node_index = arrays.node_index
        self.capacity_mhz = arrays.node_capacity_mhz * allocation_ratio
        self.fmax_mhz = arrays.node_fmax_mhz
        self.memory_mb = arrays.node_memory_mb
        self.committed_mhz = arrays.node_committed_mhz.copy()
        self.committed_memory_mb = arrays.node_committed_memory_mb.copy()
        self.powered_on = arrays.node_powered_on
        self.vm_names = arrays.vm_names
        self.vm_index = arrays.vm_index
        self.vm_node = arrays.vm_node.copy()
        self.vm_vcpus = arrays.vm_vcpus
        self.vm_vfreq_mhz = arrays.vm_vfreq_mhz
        self.vm_memory_mb = arrays.vm_memory_mb
        self.vm_demand_mhz = arrays.vm_demand_mhz
        self.vm_count = np.bincount(
            self.vm_node, minlength=len(self.node_ids)
        ).astype(np.int64)
        self.pinned_mask = np.zeros(len(self.node_ids), dtype=bool)
        for node_id in self.pinned:
            slot = self.node_index.get(node_id)
            if slot is not None:
                self.pinned_mask[slot] = True

    def clone(self) -> "SimulatedArrays":
        """Independent copy for trial placements — array copies only."""
        out = object.__new__(SimulatedArrays)
        out.allocation_ratio = self.allocation_ratio
        out.pinned = set(self.pinned)
        out.immovable = set(self.immovable)
        out.node_ids = self.node_ids
        out.node_index = self.node_index
        out.capacity_mhz = self.capacity_mhz
        out.fmax_mhz = self.fmax_mhz
        out.memory_mb = self.memory_mb
        out.committed_mhz = self.committed_mhz.copy()
        out.committed_memory_mb = self.committed_memory_mb.copy()
        out.powered_on = self.powered_on
        out.vm_names = self.vm_names
        out.vm_index = self.vm_index
        out.vm_node = self.vm_node.copy()
        out.vm_vcpus = self.vm_vcpus
        out.vm_vfreq_mhz = self.vm_vfreq_mhz
        out.vm_memory_mb = self.vm_memory_mb
        out.vm_demand_mhz = self.vm_demand_mhz
        out.vm_count = self.vm_count.copy()
        out.pinned_mask = self.pinned_mask
        return out

    # -- queries --------------------------------------------------------------

    def host_of(self, vm_name: str) -> str:
        return self.node_ids[int(self.vm_node[self.vm_index[vm_name]])]

    def movable_vms_on(self, node_id: str) -> List[VmView]:
        """Hosted VMs eligible to leave, largest demand first (ties by
        name) — the order bin-packing heuristics want."""
        slot = self.node_index[node_id]
        out = []
        for i in np.flatnonzero(self.vm_node == slot):
            name = self.vm_names[i]
            if name in self.immovable:
                continue
            out.append(
                VmView(
                    name=name,
                    node_id=node_id,
                    vcpus=int(self.vm_vcpus[i]),
                    vfreq_mhz=float(self.vm_vfreq_mhz[i]),
                    memory_mb=int(self.vm_memory_mb[i]),
                )
            )
        out.sort(key=lambda v: (-v.demand_mhz, v.name))
        return out

    def can_accept(self, vm_name: str, node_id: str) -> bool:
        """Would Eq. 7 (x allocation_ratio) and memory still hold?"""
        vslot = self.vm_index.get(vm_name)
        nslot = self.node_index.get(node_id)
        if vslot is None or nslot is None:
            return False
        if not self.powered_on[nslot] or node_id in self.pinned:
            return False
        if nslot == self.vm_node[vslot]:
            return False
        if self.vm_vfreq_mhz[vslot] > self.fmax_mhz[nslot]:
            return False  # guarantee above F_MAX is unsatisfiable (Eq. 2)
        demand = float(self.vm_demand_mhz[vslot])
        freq_ok = (
            float(self.committed_mhz[nslot]) + demand
            <= float(self.capacity_mhz[nslot]) + EPS_MHZ
        )
        mem_ok = (
            int(self.committed_memory_mb[nslot]) + int(self.vm_memory_mb[vslot])
            <= int(self.memory_mb[nslot])
        )
        return freq_ok and mem_ok

    # -- the vectorized best-fit target scan ----------------------------------

    def admissible_fit(
        self,
        vm_name: str,
        *,
        exclude: Iterable[str] = (),
        used_only: bool = False,
        node_moves: Optional[np.ndarray] = None,
        max_moves_per_node: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(candidate slots, best-fit keys) for one VM, one NumPy pass.

        The mask keeps nodes that are powered on, not pinned, under the
        per-node move budget, used (if ``used_only``), without an Eq. 7
        deficit, with an ``F_MAX`` that covers the VM's guarantee
        (Eq. 2), within Eq. 7 × allocation ratio (``EPS_MHZ`` slack) and
        memory once the VM lands, and not its current host — the :meth:`can_accept` rules
        plus the planner's own filters.  The fit key is
        ``(capacity - committed) - demand``: the headroom the target
        keeps after the move.
        """
        vslot = self.vm_index[vm_name]
        demand = float(self.vm_demand_mhz[vslot])
        mask = self.powered_on & ~self.pinned_mask
        if node_moves is not None and max_moves_per_node is not None:
            mask &= node_moves < max_moves_per_node
        if used_only:
            mask &= self.vm_count > 0
        # pressure_mhz > 0 <=> committed > capacity
        mask &= self.committed_mhz <= self.capacity_mhz
        mask &= self.vm_vfreq_mhz[vslot] <= self.fmax_mhz
        mask &= self.committed_mhz + demand <= self.capacity_mhz + EPS_MHZ
        mask &= (
            self.committed_memory_mb + int(self.vm_memory_mb[vslot])
            <= self.memory_mb
        )
        mask[int(self.vm_node[vslot])] = False
        for node_id in exclude:
            slot = self.node_index.get(node_id)
            if slot is not None:
                mask[slot] = False
        candidates = np.flatnonzero(mask)
        if candidates.size == 0:
            return candidates, np.empty(0)
        fit = (
            self.capacity_mhz[candidates] - self.committed_mhz[candidates]
        ) - demand
        return candidates, fit

    # -- mutation -------------------------------------------------------------

    def apply_move(self, vm_name: str, target_id: str) -> None:
        """Commit one tentative move inside the what-if arrays."""
        if vm_name in self.immovable:
            raise ValueError(f"{vm_name} is pinned by an in-flight migration")
        if not self.can_accept(vm_name, target_id):
            raise ValueError(
                f"{vm_name} does not fit on {target_id} "
                "(Eq. 7, memory, power or pinning)"
            )
        vslot = self.vm_index[vm_name]
        source = int(self.vm_node[vslot])
        target = self.node_index[target_id]
        demand = float(self.vm_demand_mhz[vslot])
        memory = int(self.vm_memory_mb[vslot])
        self.committed_mhz[source] -= demand
        self.committed_memory_mb[source] -= memory
        self.vm_count[source] -= 1
        self.committed_mhz[target] += demand
        self.committed_memory_mb[target] += memory
        self.vm_count[target] += 1
        self.vm_node[vslot] = target
