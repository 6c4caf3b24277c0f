"""KVM-like virtualisation layer: templates, VM instances, hypervisor."""

from repro.virt.template import VMTemplate, SMALL, MEDIUM, LARGE, template_by_name
from repro.virt.vm import VMInstance, VCpu
from repro.virt.hypervisor import Hypervisor
from repro.virt.burst import BurstPolicy, BurstVMController
from repro.virt.vmdfs import VmdfsController

__all__ = [
    "VMTemplate",
    "SMALL",
    "MEDIUM",
    "LARGE",
    "template_by_name",
    "VMInstance",
    "VCpu",
    "Hypervisor",
    "BurstPolicy",
    "BurstVMController",
    "VmdfsController",
]
