"""Cluster-scale simulation: many nodes, placement, live migration.

Extends the single-node engine to the paper's §IV-C setting so the two
management styles can be compared end to end:

* **frequency capping** (the paper): every node runs the virtual
  frequency controller; placement uses Eq. 7; no migrations are needed
  because guarantees hold by construction;
* **classic management**: no capping, vCPU-count placement with
  overcommitment, and a reactive migration policy that moves VMs off
  overloaded nodes (the state of the art the paper's introduction
  describes).

Workloads migrate *with* their VM: the work pool keeps its progress and
the VM pauses only for the stop-and-copy downtime of the migration
model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cgroups.fs import CgroupVersion
from repro.core.config import ControllerConfig
from repro.core.controller import VirtualFrequencyController
from repro.hw.cluster import Cluster, ClusterNode
from repro.hw.node import Node
from repro.placement.evaluator import Placement
from repro.placement.migration import (
    MigrationEvent,
    MigrationModel,
    ThresholdMigrationPolicy,
)
from repro.placement.request import PlacementRequest
from repro.sim.node_manager import NodeManager
from repro.virt.hypervisor import Hypervisor
from repro.virt.vm import VMInstance
from repro.workloads.base import Workload

WorkloadFor = Callable[[PlacementRequest], Optional[Workload]]


@dataclass
class NodeRuntime:
    """One physical machine plus its management stack."""

    cluster_node: ClusterNode
    node: Node
    hypervisor: Hypervisor
    controller: Optional[VirtualFrequencyController]
    powered_on: bool = True

    @property
    def node_id(self) -> str:
        return self.cluster_node.node_id

    def demand_load(self) -> float:
        """Demanded cores / logical CPUs, the overload signal."""
        total = sum(min(e.demand, 1.0) for e in self.node.entities)
        return total / self.node.spec.logical_cpus


@dataclass
class _InFlightMigration:
    vm_name: str
    source: str
    target: str
    started_at: float
    arrives_at: float
    downtime_s: float
    #: Sizes the VM will claim on the target at cut-over; admission and
    #: target picking must count these or two concurrent migrations can
    #: over-commit one node.
    vcpus: int = 0
    memory_mb: int = 0
    demand_mhz: float = 0.0


class ClusterSimulation:
    """Drives a whole cluster tick by tick.

    ``parallel`` only accepts ``False``; the keyword stays because the
    benchmark driver passes it.
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        controlled: bool = True,
        controller_config: Optional[ControllerConfig] = None,
        dt: float = 0.5,
        seed: int = 0,
        cgroup_version: CgroupVersion = CgroupVersion.V2,
        migration_model: Optional[MigrationModel] = None,
        migration_policy: Optional[ThresholdMigrationPolicy] = None,
        enforce_admission: bool = True,
        keep_reports: bool = False,
        parallel: bool = False,
        rebalancer=None,
    ) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        if parallel:
            raise ValueError(f"parallel must be False, got {parallel!r}")
        self.dt = dt
        self.t = 0.0
        self.controlled = controlled
        config = controller_config or ControllerConfig.paper_evaluation()
        if not controlled:
            config = config.monitoring_only()
        self.controller_config = config
        self.migration_model = migration_model or MigrationModel()
        self.migration_policy = migration_policy
        self.migrations: List[MigrationEvent] = []
        self._in_flight: List[_InFlightMigration] = []
        self._paused_until: Dict[str, float] = {}
        self._subticks = 0
        #: Optional :class:`repro.rebalance.loop.RebalanceLoop` (duck-
        #: typed: anything with ``maybe_rebalance(cluster, tick)``),
        #: invoked once per control period after the reactive policy.
        self.rebalancer = rebalancer
        self._control_ticks = 0

        self.runtimes: Dict[str, NodeRuntime] = {}
        for k, cnode in enumerate(cluster):
            node = Node(cnode.spec, cgroup_version=cgroup_version, seed=seed + k)
            hypervisor = Hypervisor(node, enforce_admission=enforce_admission)
            controller = VirtualFrequencyController(
                node.fs,
                node.procfs,
                node.sysfs,
                num_cpus=node.spec.logical_cpus,
                fmax_mhz=node.spec.fmax_mhz,
                config=config,
            )
            controller.keep_reports = keep_reports
            self.runtimes[cnode.node_id] = NodeRuntime(
                cluster_node=cnode,
                node=node,
                hypervisor=hypervisor,
                controller=controller,
            )
        # The control plane: per-period ticks of all powered-on nodes
        # run through one NodeManager, which batches the equal-config
        # controllers; each report is the one its host gives alone.
        self.node_manager = NodeManager(
            {
                node_id: runtime.controller
                for node_id, runtime in self.runtimes.items()
            }
        )

    # -- deployment ---------------------------------------------------------------

    def deploy(self, placement: Placement, workload_for: WorkloadFor) -> None:
        """Provision every placed request and attach its workload."""
        if placement.unplaced:
            raise ValueError(
                f"placement has {len(placement.unplaced)} unplaced VMs"
            )
        for node_id, requests in placement.assignments.items():
            runtime = self.runtimes[node_id]
            for request in requests:
                vm = runtime.hypervisor.provision(request.template, request.vm_name)
                self.node_manager.register_vm(
                    node_id, vm.name, request.template.vfreq_mhz
                )
                workload = workload_for(request)
                if workload is not None:
                    if workload.num_vcpus != vm.num_vcpus:
                        raise ValueError(
                            f"workload for {vm.name} sized for "
                            f"{workload.num_vcpus} vCPUs, VM has {vm.num_vcpus}"
                        )
                    vm.workload = workload

    def power_off_empty_nodes(self) -> int:
        """Shut down nodes hosting nothing (the §IV-C energy move)."""
        count = 0
        for runtime in self.runtimes.values():
            if runtime.powered_on and not runtime.hypervisor.vms:
                runtime.powered_on = False
                count += 1
        return count

    # -- main loop ------------------------------------------------------------------

    def run(self, duration: float) -> None:
        if duration < 0:
            raise ValueError("duration must be >= 0")
        steps = int(round(duration / self.dt))
        per_period = int(round(self.controller_config.period_s / self.dt))
        if abs(per_period * self.dt - self.controller_config.period_s) > 1e-9:
            raise ValueError("controller period must be a multiple of dt")
        for _ in range(steps):
            self._set_demands()
            for runtime in self._active():
                runtime.node.step(self.dt)
            self._absorb_progress()
            self.t += self.dt
            self._subticks += 1
            self._complete_migrations()
            if self._subticks % per_period == 0:
                self.node_manager.tick(
                    self.t, node_ids=[r.node_id for r in self._active()]
                )
                if self.migration_policy is not None:
                    self._check_migrations()
                self._control_ticks += 1
                if self.rebalancer is not None:
                    self.rebalancer.maybe_rebalance(self, self._control_ticks)

    def _active(self) -> List[NodeRuntime]:
        return [r for r in self.runtimes.values() if r.powered_on]

    def _set_demands(self) -> None:
        for runtime in self._active():
            for vm in runtime.hypervisor.vms:
                if self._paused_until.get(vm.name, 0.0) > self.t:
                    vm.set_uniform_demand(0.0)
                    continue
                workload = vm.workload
                if workload is None:
                    vm.set_uniform_demand(0.0)
                    continue
                for vcpu in vm.vcpus:
                    vcpu.set_demand(float(workload.demand(vcpu.index, self.t)))

    def _absorb_progress(self) -> None:
        for runtime in self._active():
            node = runtime.node
            for vm in runtime.hypervisor.vms:
                workload = vm.workload
                if workload is None:
                    continue
                for vcpu in vm.vcpus:
                    core = node.last_core_of(vcpu.tid)
                    freq = node.effective_mhz(node.core_frequency_mhz(core))
                    workload.advance(
                        vcpu.index, self.t, self.dt, vcpu.entity.allocated, freq
                    )

    # -- migrations -------------------------------------------------------------------

    def start_migration(self, vm_name: str, target_id: str) -> MigrationEvent:
        """Begin a live migration; the VM keeps running on the source
        during the pre-copy and pauses for the downtime on arrival."""
        source = self._runtime_hosting(vm_name)
        if source is None:
            raise KeyError(f"no node hosts VM {vm_name}")
        if target_id == source.node_id:
            raise ValueError("target equals source")
        if any(m.vm_name == vm_name for m in self._in_flight):
            raise ValueError(f"{vm_name} is already migrating")
        target = self.runtimes[target_id]
        if not target.powered_on:
            raise ValueError(f"target node {target_id} is powered off")
        vm = source.hypervisor.vm(vm_name)
        if target.hypervisor.enforce_admission:
            if not target.hypervisor.admits(vm.template):
                raise ValueError(
                    f"target node {target_id} cannot guarantee {vm_name} "
                    f"(Eq. 7 or memory would be violated)"
                )
            # Admission must also cover migrations still in flight to the
            # same target, or concurrent moves over-commit it at cut-over.
            planned_mhz, planned_mb = self._planned_in(target_id)
            spec = target.node.spec
            freq_ok = (
                target.hypervisor.committed_mhz()
                + planned_mhz
                + vm.template.demand_mhz
                <= spec.capacity_mhz + 1e-9
            )
            mem_ok = (
                target.hypervisor.committed_memory_mb()
                + planned_mb
                + vm.template.memory_mb
                <= spec.memory_mb
            )
            if not (freq_ok and mem_ok):
                raise ValueError(
                    f"target node {target_id} cannot guarantee {vm_name} "
                    f"once in-flight migrations land (Eq. 7 or memory)"
                )
        transfer = self.migration_model.transfer_seconds(vm.template.memory_mb)
        event = MigrationEvent(
            t=self.t,
            vm_name=vm_name,
            source=source.node_id,
            target=target_id,
            duration_s=self.migration_model.total_seconds(vm.template.memory_mb),
        )
        self._in_flight.append(
            _InFlightMigration(
                vm_name=vm_name,
                source=source.node_id,
                target=target_id,
                started_at=self.t,
                arrives_at=self.t + transfer,
                downtime_s=self.migration_model.downtime_s,
                vcpus=vm.template.vcpus,
                memory_mb=vm.template.memory_mb,
                demand_mhz=vm.template.demand_mhz,
            )
        )
        self.migrations.append(event)
        return event

    def cancel_migration(self, vm_name: str) -> None:
        """Drop ``vm_name``'s in-flight migration, if any — the VM is
        leaving the cluster — which releases its target reservation."""
        self._in_flight = [m for m in self._in_flight if m.vm_name != vm_name]

    def _complete_migrations(self) -> None:
        still: List[_InFlightMigration] = []
        for mig in self._in_flight:
            if self.t + 1e-9 < mig.arrives_at:
                still.append(mig)
                continue
            source = self.runtimes[mig.source]
            target = self.runtimes[mig.target]
            vm = source.hypervisor.vm(mig.vm_name)
            template, workload = vm.template, vm.workload
            source.hypervisor.destroy(mig.vm_name)
            self.node_manager.unregister_vm(mig.source, mig.vm_name)
            new_vm = target.hypervisor.provision(template, mig.vm_name)
            self.node_manager.register_vm(
                mig.target, mig.vm_name, template.vfreq_mhz
            )
            new_vm.workload = workload
            self._paused_until[mig.vm_name] = self.t + mig.downtime_s
        self._in_flight = still

    def _check_migrations(self) -> None:
        policy = self.migration_policy
        migrating = {m.vm_name for m in self._in_flight}
        for runtime in self._active():
            load = runtime.demand_load()
            if not policy.observe(runtime.node_id, load):
                continue
            overload_cores = (load - policy.high_watermark) * runtime.node.spec.logical_cpus
            candidates = [
                (vm.name, vm.num_vcpus, sum(min(v.demand, 1.0) for v in vm.vcpus))
                for vm in runtime.hypervisor.vms
                if vm.name not in migrating
            ]
            victim = policy.pick_victim(candidates, max(overload_cores, 1e-9))
            if victim is None:
                continue
            target_id = self._pick_target(runtime, victim)
            if target_id is None:
                continue
            self.start_migration(victim, target_id)
            policy.reset(runtime.node_id)

    def _planned_in(self, node_id: str) -> Tuple[float, int]:
        """(MHz, MB) already promised to a node by in-flight migrations."""
        mhz = 0.0
        mb = 0
        for mig in self._in_flight:
            if mig.target == node_id:
                mhz += mig.demand_mhz
                mb += mig.memory_mb
        return mhz, mb

    def _pick_target(self, source: NodeRuntime, vm_name: str) -> Optional[str]:
        """Least-loaded powered-on node that can take the VM by vCPU
        count, counting vCPUs of migrations already in flight to it."""
        vm = source.hypervisor.vm(vm_name)
        best: Tuple[float, Optional[str]] = (float("inf"), None)
        for runtime in self._active():
            if runtime.node_id == source.node_id:
                continue
            hosted_vcpus = sum(v.num_vcpus for v in runtime.hypervisor.vms)
            hosted_vcpus += sum(
                m.vcpus for m in self._in_flight if m.target == runtime.node_id
            )
            if hosted_vcpus + vm.num_vcpus > runtime.node.spec.logical_cpus:
                continue
            load = runtime.demand_load()
            if load < best[0]:
                best = (load, runtime.node_id)
        return best[1]

    # -- queries --------------------------------------------------------------------------

    def rebalance_arrays(self):
        """Snapshot for the rebalance control plane (the port's one
        snapshot method)."""
        from repro.rebalance.arrays import ClusterStateArrays

        return ClusterStateArrays.from_cluster_sim(self)

    def _runtime_hosting(self, vm_name: str) -> Optional[NodeRuntime]:
        for runtime in self.runtimes.values():
            try:
                runtime.hypervisor.vm(vm_name)
                return runtime
            except KeyError:
                continue
        return None

    def all_vms(self) -> Dict[str, VMInstance]:
        out: Dict[str, VMInstance] = {}
        for runtime in self.runtimes.values():
            for vm in runtime.hypervisor.vms:
                out[vm.name] = vm
        return out

    def total_energy_wh(self) -> float:
        """Cluster energy so far; powered-off nodes never step their
        meters, so they contribute only what they used while on."""
        return sum(r.node.energy.energy_wh for r in self.runtimes.values())

    def nodes_powered_on(self) -> int:
        return len(self._active())
