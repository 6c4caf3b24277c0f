"""KVM/libvirt-style VM provisioning.

Provisioning a VM builds the exact cgroup topology the controller
discovers on a real KVM host (paper §III-B1):

    /machine.slice/<vm-name>/            one cgroup per VM (equal weight)
    /machine.slice/<vm-name>/vcpu<j>/    one sub-cgroup per vCPU
                                          - cgroup.threads: one KVM tid
                                          - cpu.max: written by the controller
                                          - cpu.stat: read by the controller

Admission control enforces the paper's core-splitting constraint (Eq. 7)
plus memory capacity, so a node cannot be over-subscribed beyond what the
controller can guarantee.
"""

from __future__ import annotations

from typing import Dict, List

from repro.hw.node import MACHINE_SLICE, Node
from repro.sched.entity import SchedEntity
from repro.virt.template import VMTemplate
from repro.virt.vm import VCpu, VMInstance


class AdmissionError(Exception):
    """Raised when a VM cannot be hosted without breaking guarantees."""


class Hypervisor:
    """Provision and destroy VMs on one node."""

    def __init__(self, node: Node, *, enforce_admission: bool = True) -> None:
        self.node = node
        self.enforce_admission = enforce_admission
        self._vms: Dict[str, VMInstance] = {}

    # -- capacity queries --------------------------------------------------------

    @property
    def vms(self) -> List[VMInstance]:
        return list(self._vms.values())

    def vm(self, name: str) -> VMInstance:
        return self._vms[name]

    def committed_mhz(self) -> float:
        """Sum of guaranteed frequency demand of hosted VMs (Eq. 7 LHS)."""
        return sum(vm.template.demand_mhz for vm in self._vms.values())

    def committed_memory_mb(self) -> int:
        return sum(vm.template.memory_mb for vm in self._vms.values())

    def admits(self, template: VMTemplate) -> bool:
        """Would Eq. 7 and memory capacity still hold with one more VM?"""
        spec = self.node.spec
        freq_ok = (
            self.committed_mhz() + template.demand_mhz <= spec.capacity_mhz + 1e-9
        )
        mem_ok = self.committed_memory_mb() + template.memory_mb <= spec.memory_mb
        return freq_ok and mem_ok

    # -- lifecycle ------------------------------------------------------------------

    def provision(self, template: VMTemplate, name: str) -> VMInstance:
        """Create a VM: cgroup subtree, vCPU threads, scheduling entities."""
        if name in self._vms:
            raise ValueError(f"VM name already in use: {name}")
        if template.vfreq_mhz > self.node.spec.fmax_mhz:
            raise AdmissionError(
                f"template {template.name} wants {template.vfreq_mhz} MHz but "
                f"{self.node.spec.name} peaks at {self.node.spec.fmax_mhz} MHz"
            )
        if self.enforce_admission and not self.admits(template):
            raise AdmissionError(
                f"node {self.node.spec.name} cannot guarantee {template.name} "
                f"({self.committed_mhz():.0f}/{self.node.spec.capacity_mhz:.0f} MHz committed)"
            )

        vm_path = f"{MACHINE_SLICE}/{name}"
        self.node.fs.makedirs(vm_path)
        vm = VMInstance(name=name, template=template, cgroup_path=vm_path)
        for j in range(template.vcpus):
            vcpu_path = f"{vm_path}/vcpu{j}"
            self.node.fs.makedirs(vcpu_path)
            tid = self.node.procfs.spawn(comm=f"CPU {j}/KVM")
            self.node.fs.attach_thread(vcpu_path, tid)
            entity = SchedEntity(tid=tid, cgroup_path=vcpu_path)
            self.node.register_entity(entity)
            vm.vcpus.append(VCpu(index=j, tid=tid, cgroup_path=vcpu_path, entity=entity))
        self._vms[name] = vm
        return vm

    def destroy(self, name: str) -> None:
        """Tear down a VM: kill threads, remove its cgroup subtree."""
        vm = self._vms.pop(name, None)
        if vm is None:
            raise KeyError(f"no such VM: {name}")
        for vcpu in vm.vcpus:
            self.node.fs.node(vcpu.cgroup_path).detach_thread(vcpu.tid)
            self.node.procfs.kill(vcpu.tid)
            self.node.unregister_entity(vcpu.tid)
            self.node.fs.rmdir(vcpu.cgroup_path)
        self.node.fs.rmdir(vm.cgroup_path)
