"""Scenario builders reproducing the paper's experimental protocols.

* :func:`eval1_chetemi` — Table II: 20 small + 10 large on chetemi,
  compress-7zip, large instances start at t = 200 s (Figs. 6, 7, 10).
* :func:`eval1_chiclet` — Table III: 32 small + 16 large on chiclet
  (Figs. 8, 9, 11).
* :func:`eval2_chetemi` — Table V: 14 small (7zip) + 8 medium (openssl,
  t = 100 s) + 6 large (7zip, t = 200 s) on chetemi (Figs. 12-14).

Each scenario runs in configuration **A** (monitoring only — the paper's
baseline where the stock scheduler splits time per VM cgroup) or **B**
(controller enabled).  ``time_scale`` compresses the whole timeline
(start times, dip periods and work sizes alike) for fast tests while
preserving every shape the figures show.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.cgroups.fs import CgroupVersion
from repro.core.config import ControllerConfig
from repro.core.controller import VirtualFrequencyController
from repro.hw.node import Node
from repro.hw.nodespecs import CHETEMI, CHICLET, NodeSpec
from repro.sim.engine import Simulation
from repro.sim.metrics import MetricsRecorder, TimeSeries
from repro.virt.hypervisor import Hypervisor
from repro.virt.template import LARGE, MEDIUM, SMALL, VMTemplate
from repro.virt.vm import VMInstance
from repro.workloads.base import Workload, attach
from repro.workloads.compress7zip import Compress7Zip
from repro.workloads.openssl_ import OpenSSLSpeed

WorkloadFactory = Callable[[VMTemplate, float], Workload]


@dataclass
class VMGroup:
    """A homogeneous set of VM instances sharing template and workload."""

    template: VMTemplate
    count: int
    workload_factory: Optional[WorkloadFactory]
    start_time: float = 0.0
    label: Optional[str] = None
    #: Billing owner of this group's instances; ``None`` inherits the
    #: template's tenant.
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("count must be positive")
        if self.start_time < 0:
            raise ValueError("start_time must be >= 0")
        if self.label is None:
            self.label = self.template.name
        if self.tenant is None:
            self.tenant = self.template.tenant


@dataclass
class ScenarioResult:
    """Everything a figure/table needs from one scenario run."""

    scenario_name: str
    configuration: str  # "A" or "B"
    metrics: MetricsRecorder
    vm_names_by_group: Dict[str, List[str]]
    scores_by_group: Dict[str, np.ndarray] = field(default_factory=dict)
    mean_core_freq_std_mhz: float = 0.0
    controller_overhead_s: float = 0.0
    monitor_overhead_s: float = 0.0
    #: Per-tenant invoices, populated only when the scenario ran with
    #: ``billing=True`` (a ``repro.billing.Invoice`` list).
    invoices: Optional[List] = None

    def group_freq_series(self, label: str, *, estimated: bool = True) -> TimeSeries:
        """Average vCPU frequency of a VM class over time (Figs. 6-9, 12-13)."""
        store = self.metrics.vfreq_estimated if estimated else self.metrics.vfreq_actual
        return self.metrics.group_mean_series(store, self.vm_names_by_group[label])

    def plateau_mhz(self, label: str, t0: float, t1: Optional[float] = None) -> float:
        """Mean estimated frequency of a class within a window."""
        return self.metrics.steady_state_mean(
            self.metrics.vfreq_estimated, self.vm_names_by_group[label], t0, t1
        )


@dataclass
class Scenario:
    """A node + VM groups + runtime parameters, ready to run."""

    name: str
    node_spec: NodeSpec
    groups: List[VMGroup]
    duration: float
    dt: float = 0.5
    seed: int = 7
    cgroup_version: CgroupVersion = CgroupVersion.V2
    controller_config: ControllerConfig = field(
        default_factory=ControllerConfig.paper_evaluation
    )
    run_to_completion: bool = False
    #: LLC contention strength (repro.hw.cache); 0 disables the model.
    cache_alpha: float = 0.0
    #: Attach a billing engine (Lučanin-style performance-based
    #: pricing) and surface invoices on the result.  Off by default —
    #: and proven transparent: report/ledger streams are bit-identical
    #: either way (``tests/billing/test_transparency.py``).
    billing: bool = False
    #: Price book for the billing engine; ``None`` uses the default.
    price_book: Optional[object] = None

    def build(self, *, controlled: bool) -> Simulation:
        """Instantiate node, VMs, workloads and controller."""
        cache = None
        if self.cache_alpha > 0:
            from repro.hw.cache import CacheContentionModel

            cache = CacheContentionModel(
                physical_cores=self.node_spec.physical_cores, alpha=self.cache_alpha
            )
        node = Node(
            self.node_spec,
            cgroup_version=self.cgroup_version,
            seed=self.seed,
            cache=cache,
        )
        hypervisor = Hypervisor(node)
        config = (
            self.controller_config
            if controlled
            else self.controller_config.monitoring_only()
        )
        controller = VirtualFrequencyController(
            node.fs,
            node.procfs,
            node.sysfs,
            num_cpus=node.spec.logical_cpus,
            fmax_mhz=node.spec.fmax_mhz,
            config=config,
        )
        if self.billing:
            from repro.billing.meter import BillingEngine

            BillingEngine.attach(
                controller, self.price_book, node_id=self.node_spec.name
            )
        for group in self.groups:
            for k in range(group.count):
                vm = hypervisor.provision(group.template, f"{group.label}-{k}")
                controller.register_vm(
                    vm.name, group.template.vfreq_mhz, tenant=group.tenant
                )
                if group.workload_factory is not None:
                    attach(vm, group.workload_factory(group.template, group.start_time))
        return Simulation(
            node, hypervisor, controller=controller, dt=self.dt
        )

    def run(self, *, controlled: bool) -> ScenarioResult:
        """Run one configuration (A = monitoring only, B = controlled)."""
        sim = self.build(controlled=controlled)
        until = sim.all_workloads_finished if self.run_to_completion else None
        sim.run(self.duration, until=until)
        names = {
            g.label: [f"{g.label}-{k}" for k in range(g.count)] for g in self.groups
        }
        result = ScenarioResult(
            scenario_name=self.name,
            configuration="B" if controlled else "A",
            metrics=sim.metrics,
            vm_names_by_group=names,
        )
        result.scores_by_group = {
            label: mean_scores_by_iteration(
                [sim.vms()[n] for n in vm_names]
            )
            for label, vm_names in names.items()
        }
        result.mean_core_freq_std_mhz = (
            sim.metrics.core_freq_std.mean() if len(sim.metrics.core_freq_std) else 0.0
        )
        ctrl = sim.controller
        if ctrl is not None and ctrl.reports:
            result.controller_overhead_s = ctrl.mean_iteration_seconds()
            result.monitor_overhead_s = float(
                np.mean([r.timings.monitor for r in ctrl.reports])
            )
        billing = getattr(ctrl, "billing", None)
        if billing is not None:
            result.invoices = billing.invoices()
        obs = getattr(ctrl, "obs", None)
        if obs is not None:
            # Flush span/ledger sinks and write the Chrome trace export;
            # the controller (and hub) die with this run.
            obs.close()
        return result


def mean_scores_by_iteration(vms: Sequence[VMInstance]) -> np.ndarray:
    """Average benchmark score per iteration index across instances.

    This is the aggregation behind Figs. 10/11/14 ("the results are the
    average of the results of each VM instances").  Instances that did
    not reach iteration ``k`` simply do not contribute to bucket ``k``.
    """
    buckets: Dict[int, List[float]] = {}
    for vm in vms:
        workload = vm.workload
        if workload is None:
            continue
        for score in workload.scores:
            buckets.setdefault(score.iteration, []).append(score.score)
    if not buckets:
        return np.zeros(0)
    max_iter = max(buckets)
    return np.asarray(
        [float(np.mean(buckets[i])) if i in buckets else np.nan for i in range(max_iter + 1)]
    )


# --------------------------------------------------------------------------
# Paper scenarios
# --------------------------------------------------------------------------

#: Per-iteration work of the compress benchmark: ~65 s per iteration for a
#: small instance at full chetemi speed (2 vCPU x 2400 MHz), so about three
#: iterations complete before the large instances start at t = 200 s —
#: matching Fig. 10's "first 3 iterations of the benchmark" remark.
COMPRESS_WORK_MHZ_S = 312_000.0

#: Medium instances' openssl run: finishes mid-experiment (Fig. 13).
OPENSSL_WORK_MHZ_S = 240_000.0


def _compress_factory(
    work: float, *, iterations: int = 15, time_scale: float = 1.0
) -> WorkloadFactory:
    # Synchronisation dips are a property of the benchmark, not of the
    # experimental timeline, so ``time_scale`` does NOT compress them —
    # a compressed dip cycle would be faster than the controller's own
    # convergence (several 1 s iterations) and the capping would never
    # settle, which no real workload exhibits.
    def make(template: VMTemplate, start_time: float) -> Workload:
        return Compress7Zip(
            template.vcpus,
            iterations=iterations,
            work_per_iteration_mhz_s=work * time_scale,
            start_time=start_time,
            dip_period=25.0,
            dip_duration=3.0,
        )

    return make


def _openssl_factory(
    work: float, *, iterations: int = 6, time_scale: float = 1.0
) -> WorkloadFactory:
    def make(template: VMTemplate, start_time: float) -> Workload:
        return OpenSSLSpeed(
            template.vcpus,
            iterations=iterations,
            work_per_iteration_mhz_s=work * time_scale,
            start_time=start_time,
        )

    return make


def eval1_chetemi(
    *,
    duration: float = 900.0,
    time_scale: float = 1.0,
    iterations: int = 15,
    dt: float = 0.5,
    run_to_completion: bool = False,
    seed: int = 7,
    cgroup_version: CgroupVersion = CgroupVersion.V2,
) -> Scenario:
    """Table II — first evaluation on chetemi."""
    _check_scale(time_scale)
    compress = _compress_factory(
        COMPRESS_WORK_MHZ_S, iterations=iterations, time_scale=time_scale
    )
    return Scenario(
        name="eval1-chetemi",
        node_spec=CHETEMI,
        duration=duration * time_scale,
        dt=dt,
        seed=seed,
        cgroup_version=cgroup_version,
        run_to_completion=run_to_completion,
        groups=[
            VMGroup(SMALL, 20, compress, start_time=0.0),
            VMGroup(LARGE, 10, compress, start_time=200.0 * time_scale),
        ],
    )


def eval1_chiclet(
    *,
    duration: float = 900.0,
    time_scale: float = 1.0,
    iterations: int = 15,
    dt: float = 0.5,
    run_to_completion: bool = False,
    seed: int = 11,
    cgroup_version: CgroupVersion = CgroupVersion.V2,
) -> Scenario:
    """Table III — first evaluation on chiclet."""
    _check_scale(time_scale)
    compress = _compress_factory(
        COMPRESS_WORK_MHZ_S, iterations=iterations, time_scale=time_scale
    )
    return Scenario(
        name="eval1-chiclet",
        node_spec=CHICLET,
        duration=duration * time_scale,
        dt=dt,
        seed=seed,
        cgroup_version=cgroup_version,
        run_to_completion=run_to_completion,
        groups=[
            VMGroup(SMALL, 32, compress, start_time=0.0),
            VMGroup(LARGE, 16, compress, start_time=200.0 * time_scale),
        ],
    )


def eval2_chetemi(
    *,
    duration: float = 900.0,
    time_scale: float = 1.0,
    iterations: int = 15,
    dt: float = 0.5,
    run_to_completion: bool = False,
    seed: int = 13,
    cgroup_version: CgroupVersion = CgroupVersion.V2,
) -> Scenario:
    """Table V — second evaluation (heterogeneous workloads) on chetemi."""
    _check_scale(time_scale)
    compress = _compress_factory(
        COMPRESS_WORK_MHZ_S, iterations=iterations, time_scale=time_scale
    )
    openssl = _openssl_factory(OPENSSL_WORK_MHZ_S, time_scale=time_scale)
    return Scenario(
        name="eval2-chetemi",
        node_spec=CHETEMI,
        duration=duration * time_scale,
        dt=dt,
        seed=seed,
        cgroup_version=cgroup_version,
        run_to_completion=run_to_completion,
        groups=[
            VMGroup(SMALL, 14, compress, start_time=0.0),
            VMGroup(MEDIUM, 8, openssl, start_time=100.0 * time_scale),
            VMGroup(LARGE, 6, compress, start_time=200.0 * time_scale),
        ],
    )


def _check_scale(time_scale: float) -> None:
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")


# --------------------------------------------------------------------------
# Cluster-scale chaos+churn scenarios (the rebalancer's proving ground)
# --------------------------------------------------------------------------


@dataclass
class ClusterScenario:
    """A seeded chaos+churn cluster, with or without the rebalancer.

    Wraps :class:`repro.rebalance.ChurnChaosCluster` the way
    :class:`Scenario` wraps the single-node engine: all knobs in one
    dataclass, ``build()`` for the pieces, ``run()`` for the headline
    :class:`repro.rebalance.ChaosResult`.  With ``rebalance=False`` the
    same seeded scenario runs static-placement — the baseline every
    rebalancer result is compared against.
    """

    name: str
    nodes: int = 200
    vms: int = 10_000
    duration: float = 300.0
    dt: float = 1.0
    seed: int = 7
    degrade_rate_per_s: float = 0.02
    degrade_factor: float = 0.6
    degrade_duration_s: float = 60.0
    mean_lifetime_s: float = 1800.0
    rebalance: bool = True
    rebalance_every: int = 5
    max_moves_per_round: int = 16
    max_moves_per_node: int = 4
    ledger_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.nodes <= 0 or self.vms < 0:
            raise ValueError("nodes must be positive and vms >= 0")
        if self.duration <= 0 or self.dt <= 0:
            raise ValueError("duration and dt must be positive")
        if self.rebalance_every < 1:
            raise ValueError("rebalance_every must be >= 1")

    def chaos_config(self):
        from repro.rebalance import ChaosConfig

        return ChaosConfig(
            nodes=self.nodes,
            duration_s=self.duration,
            dt_s=self.dt,
            seed=self.seed,
            initial_vms=self.vms,
            mean_lifetime_s=self.mean_lifetime_s,
            degrade_rate_per_s=self.degrade_rate_per_s,
            degrade_factor=self.degrade_factor,
            degrade_duration_s=self.degrade_duration_s,
        )

    def build(self):
        """(cluster, loop-or-None), ready for ``cluster.run(loop)``."""
        from repro.placement.migration import MigrationModel
        from repro.rebalance import (
            ChurnChaosCluster,
            MigrationPlanner,
            PlannerConfig,
            RebalanceLedger,
            RebalanceLoop,
        )

        cluster = ChurnChaosCluster(self.chaos_config())
        loop = None
        if self.rebalance:
            loop = RebalanceLoop(
                MigrationPlanner(
                    MigrationModel(),
                    PlannerConfig(
                        max_moves_per_round=self.max_moves_per_round,
                        max_moves_per_node=self.max_moves_per_node,
                    ),
                ),
                every=self.rebalance_every,
                seed=self.seed,
                ledger=RebalanceLedger(path=self.ledger_path),
            )
        return cluster, loop

    def run(self):
        """One full run; the loop (if any) is closed, flushing JSONL."""
        cluster, loop = self.build()
        try:
            return cluster.run(loop)
        finally:
            if loop is not None:
                loop.close()


def chaos_churn(
    *,
    rebalance: bool = True,
    seed: int = 7,
    duration: float = 300.0,
    ledger_path: Optional[str] = None,
) -> ClusterScenario:
    """The headline 200-node / 10k-VM chaos+churn scenario."""
    return ClusterScenario(
        name="chaos-churn-200",
        nodes=200,
        vms=10_000,
        duration=duration,
        seed=seed,
        rebalance=rebalance,
        ledger_path=ledger_path,
    )


def chaos_churn_xl(
    *,
    rebalance: bool = True,
    seed: int = 7,
    duration: float = 60.0,
    ledger_path: Optional[str] = None,
) -> ClusterScenario:
    """The 1000-node / 50k-VM scale point (`chaos1000` benchmark).

    Five times PR 7's headline shape; one control-loop round (snapshot
    + plan) must fit inside the 1 s control period, which is what the
    array snapshot and planner exist for.
    """
    return ClusterScenario(
        name="chaos-churn-1000",
        nodes=1000,
        vms=50_000,
        duration=duration,
        seed=seed,
        rebalance=rebalance,
        ledger_path=ledger_path,
    )


def chaos_churn_small(
    *,
    rebalance: bool = True,
    seed: int = 7,
    duration: float = 120.0,
    ledger_path: Optional[str] = None,
) -> ClusterScenario:
    """8-node smoke version for CI (`make bench-rebalance-smoke`)."""
    return ClusterScenario(
        name="chaos-churn-8",
        nodes=8,
        vms=300,
        duration=duration,
        seed=seed,
        degrade_rate_per_s=0.05,
        rebalance=rebalance,
        rebalance_every=2,
        ledger_path=ledger_path,
    )
