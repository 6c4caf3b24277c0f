"""Open-loop cloud-operator study: VM arrivals, lifetimes, admission.

The paper's premise (§I) is that providers "can assign too much or too
few resources to a VM" because vCPU speed is uncontrolled.  This module
stages that premise as an operator experiment the paper leaves to future
work: a stream of VM requests (Poisson arrivals, exponential lifetimes,
a template mix) hits a cluster; an admission rule decides placement; the
controller (or its absence) decides what the accepted VMs actually get.

Outputs per policy: acceptance rate, and the SLA outcome of accepted
VMs (via :mod:`repro.analysis.sla`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.placement.constraints import Constraint, NodeUsage
from repro.placement.request import PlacementRequest
from repro.sim.cluster_engine import ClusterSimulation, NodeRuntime
from repro.virt.template import VMTemplate
from repro.workloads.base import Workload


@dataclass(frozen=True)
class ArrivalEvent:
    """One VM request: arrives at ``t``, lives for ``lifetime_s``."""

    t: float
    name: str
    template: VMTemplate
    lifetime_s: float


def generate_arrivals(
    *,
    rate_per_s: float,
    template_mix: Sequence[Tuple[VMTemplate, float]],
    mean_lifetime_s: float,
    horizon_s: float,
    seed: int = 0,
) -> List[ArrivalEvent]:
    """Poisson arrivals with exponential lifetimes and a weighted mix."""
    if rate_per_s <= 0 or mean_lifetime_s <= 0 or horizon_s <= 0:
        raise ValueError("rate, lifetime and horizon must be positive")
    templates = [t for t, _ in template_mix]
    weights = np.asarray([w for _, w in template_mix], dtype=np.float64)
    if len(templates) == 0 or np.any(weights < 0) or weights.sum() == 0:
        raise ValueError("template_mix must have non-negative weights summing > 0")
    weights = weights / weights.sum()
    rng = np.random.default_rng(seed)
    events: List[ArrivalEvent] = []
    t = 0.0
    k = 0
    while True:
        t += float(rng.exponential(1.0 / rate_per_s))
        if t >= horizon_s:
            break
        template = templates[int(rng.choice(len(templates), p=weights))]
        events.append(
            ArrivalEvent(
                t=t,
                name=f"{template.name}-{k}",
                template=template,
                lifetime_s=float(rng.exponential(mean_lifetime_s)),
            )
        )
        k += 1
    return events


@dataclass
class OperatorOutcome:
    """What happened over one operator run.

    SLA here is *ground truth*, sampled from the scheduler itself once
    per controller period: a VM-period is checked when some vCPU demands
    at least its guaranteed share of a core, and violated when the
    scheduler delivered less than 98 % of that share — this catches
    starvation that quota files alone cannot show (an overcommitted node
    writes generous ``cpu.max`` values it cannot honour).
    """

    accepted: int = 0
    rejected: int = 0
    departed: int = 0
    sla_checks: int = 0
    sla_violations: int = 0
    vms_violated: set = field(default_factory=set)
    checks_by_vm: Dict[str, int] = field(default_factory=dict)
    violations_by_vm: Dict[str, int] = field(default_factory=dict)

    @property
    def acceptance_rate(self) -> float:
        total = self.accepted + self.rejected
        return self.accepted / total if total else 0.0

    @property
    def violation_rate(self) -> float:
        return self.sla_violations / self.sla_checks if self.sla_checks else 0.0


class CloudOperator:
    """Admits arrivals under a pluggable constraint and runs the cluster."""

    def __init__(
        self,
        sim: ClusterSimulation,
        constraint: Constraint,
        workload_factory: Callable[[ArrivalEvent], Optional[Workload]],
    ) -> None:
        self.sim = sim
        self.constraint = constraint
        self.workload_factory = workload_factory
        self.outcome = OperatorOutcome()
        self._departures: List[Tuple[float, str]] = []

    # -- admission -------------------------------------------------------------

    def _usage_of(self, runtime: NodeRuntime) -> NodeUsage:
        usage = NodeUsage()
        for vm in runtime.hypervisor.vms:
            usage.add(PlacementRequest(vm.name, vm.template))
        return usage

    def _admit(self, event: ArrivalEvent) -> Optional[str]:
        """BestFit against *current* usage; None when nothing fits."""
        best: Tuple[float, Optional[str]] = (float("inf"), None)
        for runtime in self.sim.runtimes.values():
            if not runtime.powered_on:
                continue
            usage = self._usage_of(runtime)
            request = PlacementRequest(event.name, event.template)
            if not self.constraint.fits(runtime.cluster_node.spec, usage, request):
                continue
            headroom = self.constraint.headroom(runtime.cluster_node.spec, usage)
            if headroom < best[0]:
                best = (headroom, runtime.node_id)
        return best[1]

    def _provision(self, event: ArrivalEvent, node_id: str) -> None:
        runtime = self.sim.runtimes[node_id]
        vm = runtime.hypervisor.provision(event.template, event.name)
        runtime.controller.register_vm(event.name, event.template.vfreq_mhz)
        workload = self.workload_factory(event)
        if workload is not None:
            vm.workload = workload
        self._departures.append((event.t + event.lifetime_s, event.name))

    def _retire_due(self) -> None:
        due = [d for d in self._departures if d[0] <= self.sim.t]
        self._departures = [d for d in self._departures if d[0] > self.sim.t]
        for _, name in due:
            runtime = self.sim._runtime_hosting(name)
            if runtime is None:
                continue
            self.sim.cancel_migration(name)
            runtime.hypervisor.destroy(name)
            runtime.controller.unregister_vm(name)
            self.outcome.departed += 1

    # -- the run -----------------------------------------------------------------

    def run(self, events: Sequence[ArrivalEvent], horizon_s: float) -> OperatorOutcome:
        """Process arrivals/departures while the cluster simulates."""
        period = self.sim.controller_config.period_s
        pending = sorted(events, key=lambda e: e.t)
        idx = 0
        warmup: Dict[str, float] = {}
        while self.sim.t < horizon_s - 1e-9:
            # admit everything due before the next period boundary
            while idx < len(pending) and pending[idx].t <= self.sim.t + period:
                event = pending[idx]
                idx += 1
                node_id = self._admit(event)
                if node_id is None:
                    self.outcome.rejected += 1
                    continue
                self._provision(event, node_id)
                self.outcome.accepted += 1
                warmup[event.name] = self.sim.t + 5 * period
            self._retire_due()
            self.sim.run(period)
            # SLA after a short per-VM warm-up (capping convergence)
            self._check_sla_warm(warmup)
        return self.outcome

    def _check_sla_warm(self, warmup: Dict[str, float]) -> None:
        dt = self.sim.dt
        for runtime in self.sim.runtimes.values():
            fmax = runtime.node.spec.fmax_mhz
            for vm in runtime.hypervisor.vms:
                if warmup.get(vm.name, 0.0) > self.sim.t:
                    continue
                guarantee_share = vm.template.vfreq_mhz / fmax
                wanting = False
                starved = False
                for vcpu in vm.vcpus:
                    if vcpu.entity.demand + 1e-9 < guarantee_share:
                        continue
                    wanting = True
                    delivered = vcpu.entity.allocated / dt
                    if delivered < 0.98 * guarantee_share:
                        starved = True
                if wanting:
                    self.outcome.sla_checks += 1
                    self.outcome.checks_by_vm[vm.name] = (
                        self.outcome.checks_by_vm.get(vm.name, 0) + 1
                    )
                    if starved:
                        self.outcome.sla_violations += 1
                        self.outcome.vms_violated.add(vm.name)
                        self.outcome.violations_by_vm[vm.name] = (
                            self.outcome.violations_by_vm.get(vm.name, 0) + 1
                        )
