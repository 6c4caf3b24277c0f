"""VM placement algorithms (paper §III-C, evaluated in §IV-C).

Classic bin-packing heuristics (FirstFit, BestFit) under two admission
constraints:

* **vCPU-count** — the state-of-the-art rule: the number of vCPUs placed
  on a node cannot exceed its logical CPUs (optionally scaled by a
  consolidation factor);
* **core-splitting (Eq. 7)** — the paper's rule: the sum of the VMs'
  guaranteed frequency demand cannot exceed the node's frequency
  capacity, enabled by the virtual frequency controller.
"""

from repro.placement.request import PlacementRequest, expand_requests
from repro.placement.constraints import (
    Constraint,
    CoreSplittingConstraint,
    VcpuCountConstraint,
)
from repro.placement.firstfit import FirstFit
from repro.placement.bestfit import BestFit
from repro.placement.evaluator import Placement, PlacementStats, evaluate
from repro.placement.migration import (
    MigrationEvent,
    MigrationModel,
    ThresholdMigrationPolicy,
)

__all__ = [
    "PlacementRequest",
    "expand_requests",
    "Constraint",
    "CoreSplittingConstraint",
    "VcpuCountConstraint",
    "FirstFit",
    "BestFit",
    "Placement",
    "PlacementStats",
    "evaluate",
    "MigrationEvent",
    "MigrationModel",
    "ThresholdMigrationPolicy",
]
