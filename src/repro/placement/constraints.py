"""Admission constraints for placement.

The paper replaces the classic "number of vCPUs <= number of CPU cores"
rule with the core-splitting constraint (Eq. 7):

    sum_i (k_i^vCPU * F_i)  <=  k_n^CPU * F_n^MAX

Both support a *consolidation factor* multiplying the node capacity —
the conventional overcommitment knob the paper compares against (a
x1.8 factor makes vCPU-count BestFit reach the same node count, §IV-C,
at the price of losing the frequency guarantee).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List

from repro.hw.nodespecs import NodeSpec
from repro.placement.request import PlacementRequest


@dataclass
class NodeUsage:
    """Running totals of what is already placed on one node."""

    vcpus: int = 0
    demand_mhz: float = 0.0
    vms: List[PlacementRequest] = field(default_factory=list)

    def add(self, request: PlacementRequest) -> None:
        self.vcpus += request.vcpus
        self.demand_mhz += request.demand_mhz
        self.vms.append(request)


class Constraint(abc.ABC):
    """Decides whether a request still fits on a node."""

    @abc.abstractmethod
    def fits(self, spec: NodeSpec, usage: NodeUsage, request: PlacementRequest) -> bool:
        """True when the request can be added without violating the rule."""

    @abc.abstractmethod
    def headroom(self, spec: NodeSpec, usage: NodeUsage) -> float:
        """Remaining capacity in this constraint's own units (for BestFit)."""


@dataclass(frozen=True)
class VcpuCountConstraint(Constraint):
    """Classic rule: vCPUs <= logical CPUs (x consolidation factor)."""

    consolidation_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.consolidation_factor <= 0:
            raise ValueError("consolidation_factor must be positive")

    def capacity(self, spec: NodeSpec) -> float:
        return spec.logical_cpus * self.consolidation_factor

    def fits(self, spec: NodeSpec, usage: NodeUsage, request: PlacementRequest) -> bool:
        return usage.vcpus + request.vcpus <= self.capacity(spec) + 1e-9

    def headroom(self, spec: NodeSpec, usage: NodeUsage) -> float:
        return self.capacity(spec) - usage.vcpus


@dataclass(frozen=True)
class CoreSplittingConstraint(Constraint):
    """The paper's Eq. 7: guaranteed MHz demand <= node MHz capacity."""

    consolidation_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.consolidation_factor <= 0:
            raise ValueError("consolidation_factor must be positive")

    def capacity(self, spec: NodeSpec) -> float:
        return spec.capacity_mhz * self.consolidation_factor

    def fits(self, spec: NodeSpec, usage: NodeUsage, request: PlacementRequest) -> bool:
        if request.template.vfreq_mhz > spec.fmax_mhz:
            return False  # a guarantee above F_MAX is unsatisfiable (Eq. 2)
        return usage.demand_mhz + request.demand_mhz <= self.capacity(spec) + 1e-6

    def headroom(self, spec: NodeSpec, usage: NodeUsage) -> float:
        return self.capacity(spec) - usage.demand_mhz
