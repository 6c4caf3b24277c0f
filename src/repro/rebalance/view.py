"""Read-only cluster state for one rebalance round.

The rebalancer never touches live controllers: each round starts by
snapshotting the cluster — per-node guaranteed vs. available frequency
(Eq. 7 terms), observed demand pressure, guarantee-violation counts
from the invariant plumbing, and the in-flight migration set — and
everything downstream (the what-if state, the
:mod:`~repro.rebalance.planner`) works only on that frozen copy.

Cluster ports emit the snapshot as a
:class:`~repro.rebalance.arrays.ClusterStateArrays`.
:class:`ClusterStateView` is its readable frozen-dataclass spelling,
reached through ``arrays.to_view()``: explain tooling prints it, and
the scalar planner reference (:class:`~repro.rebalance.simstate.
SimulatedState`) plans on it so the bit-identity tests have an
independent path to compare the array planner against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class VmView:
    """One hosted VM as the planner sees it."""

    name: str
    node_id: str
    vcpus: int
    vfreq_mhz: float
    memory_mb: int

    @property
    def demand_mhz(self) -> float:
        """Guaranteed demand ``k_v^vCPU * F_v`` (Eq. 7 LHS term)."""
        return self.vcpus * self.vfreq_mhz


@dataclass(frozen=True)
class InFlightView:
    """One migration already under way (blackout source + target)."""

    vm_name: str
    source: str
    target: str
    arrives_at: float


@dataclass(frozen=True)
class NodeView:
    """One node's Eq. 7 account at snapshot time.

    ``capacity_mhz`` is the *effective* capacity — a degraded node
    (thermal throttling, a failed socket, a chaos event) reports less
    than ``logical_cpus * F_MAX``, which is exactly what creates
    guarantee pressure on an otherwise admissible placement.
    """

    node_id: str
    capacity_mhz: float
    fmax_mhz: float
    memory_mb: int
    committed_mhz: float
    committed_memory_mb: int
    demand_mhz: float = 0.0
    #: Cumulative guarantee-violation count (invariant/ledger plumbing).
    violations: int = 0
    powered_on: bool = True
    vm_names: Tuple[str, ...] = ()

    @property
    def pressure_mhz(self) -> float:
        """Guaranteed MHz the node cannot deliver (Eq. 7 deficit)."""
        return max(0.0, self.committed_mhz - self.capacity_mhz)

    @property
    def headroom_mhz(self) -> float:
        return max(0.0, self.capacity_mhz - self.committed_mhz)

    @property
    def utilisation(self) -> float:
        if self.capacity_mhz <= 0:
            return float("inf") if self.committed_mhz > 0 else 0.0
        return self.committed_mhz / self.capacity_mhz


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
        """Stranded-headroom fraction in [0, 1].

        Headroom slivers smaller than the smallest hosted VM's demand
        cannot host anything currently running, so they are *stranded*:
        ``score = stranded_headroom / total_headroom`` over powered-on
        nodes.  0 means every free MHz is usable; 1 means the free
        capacity is scattered in unusably small pieces — the signal the
        consolidation goal acts on.
        """
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
