"""Read-only cluster state for one rebalance round.

The rebalancer never touches live controllers: each round starts by
snapshotting the cluster — per-node guaranteed vs. available frequency
(Eq. 7 terms), observed demand pressure, guarantee-violation counts
from the invariant plumbing, and the in-flight migration set — and
everything downstream (the what-if state, the
:mod:`~repro.rebalance.planner`) works only on that frozen copy.

Cluster ports emit the snapshot as a
:class:`~repro.rebalance.arrays.ClusterStateArrays`.  The frozen
records here are what its lazy ``nodes`` / ``vms`` maps hand out one
at a time, what :attr:`ClusterStateArrays.in_flight` holds, and what
the planner records each planned move's VM as.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


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
