"""repro — reproduction of *Enabling Dynamic Virtual Frequency Scaling
for Virtual Machines in the Cloud* (Cadorel & Rouvoy, IEEE CLUSTER 2022).

Public API tour:

>>> from repro import (
...     VirtualFrequencyController, ControllerConfig,   # the contribution
...     Controller, HostBackend,                        # protocol + kernel seam
...     Node, CHETEMI, Hypervisor, SMALL, LARGE,        # simulated host
...     Simulation, Scenario, eval1_chetemi,            # experiments
...     NodeManager, ShardedNodeManager,                # multi-node control plane
...     Observability,                                  # spans/ledger/recorder
... )

This list *is* the supported surface: everything here is re-exported
deliberately, snapshot-tested (``tests/test_public_api.py``) and only
changed with a CHANGES.md entry.  Anything reached by a deeper import
path is internal and may move without notice; deprecated names get one
release with a ``DeprecationWarning`` before removal.

The package layers (bottom-up): ``repro.cgroups`` (simulated cgroupfs),
``repro.sched`` (CFS-like scheduler), ``repro.hw`` (nodes/DVFS/energy),
``repro.virt`` (KVM-like hypervisor), ``repro.workloads`` (Phoronix-like
benchmarks), ``repro.core`` (the paper's virtual frequency controller),
``repro.placement`` (BestFit/FirstFit with the Eq. 7 constraint),
``repro.sim`` (engine + the paper's scenarios) and ``repro.analysis``
(terminal charts for the CLI).
"""

from repro.cgroups import CgroupFS, CgroupVersion
from repro.core import (
    Controller,
    ControllerConfig,
    ControllerReport,
    HostBackend,
    SampleBatch,
    VirtualFrequencyController,
)
from repro.hw import CHETEMI, CHICLET, Cluster, Node, NodeSpec
from repro.obs import Observability, ObsConfig
from repro.placement import BestFit, CoreSplittingConstraint, FirstFit, VcpuCountConstraint
from repro.sim import (
    NodeManager,
    Scenario,
    ShardedNodeManager,
    Simulation,
    TickResult,
    eval1_chetemi,
    eval1_chiclet,
    eval2_chetemi,
)
from repro.virt import Hypervisor, LARGE, MEDIUM, SMALL, VMTemplate
from repro.workloads import Compress7Zip, OpenSSLSpeed

__version__ = "1.0.0"

__all__ = [
    "CgroupFS",
    "CgroupVersion",
    "Controller",
    "ControllerConfig",
    "ControllerReport",
    "HostBackend",
    "SampleBatch",
    "VirtualFrequencyController",
    "CHETEMI",
    "CHICLET",
    "Cluster",
    "Node",
    "NodeSpec",
    "Observability",
    "ObsConfig",
    "BestFit",
    "FirstFit",
    "CoreSplittingConstraint",
    "VcpuCountConstraint",
    "NodeManager",
    "ShardedNodeManager",
    "TickResult",
    "Scenario",
    "Simulation",
    "eval1_chetemi",
    "eval1_chiclet",
    "eval2_chetemi",
    "Hypervisor",
    "SMALL",
    "MEDIUM",
    "LARGE",
    "VMTemplate",
    "Compress7Zip",
    "OpenSSLSpeed",
    "__version__",
]
