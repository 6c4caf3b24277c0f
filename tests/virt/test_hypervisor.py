"""Tests for KVM-style provisioning and admission control."""

import pytest

from repro.hw.node import MACHINE_SLICE, Node
from repro.virt.hypervisor import AdmissionError, Hypervisor
from repro.virt.template import LARGE, SMALL, VMTemplate


class TestProvisioning:
    def test_cgroup_tree_shape(self, hypervisor, node):
        vm = hypervisor.provision(SMALL, "vm-a")
        assert node.fs.exists(f"{MACHINE_SLICE}/vm-a/vcpu0")
        assert node.fs.exists(f"{MACHINE_SLICE}/vm-a/vcpu1")
        assert vm.num_vcpus == 2

    def test_one_thread_per_vcpu_cgroup(self, hypervisor, node):
        hypervisor.provision(SMALL, "vm-a")
        threads = node.fs.read(f"{MACHINE_SLICE}/vm-a/vcpu0/cgroup.threads").split()
        assert len(threads) == 1

    def test_entities_registered(self, hypervisor, node):
        vm = hypervisor.provision(SMALL, "vm-a")
        for vcpu in vm.vcpus:
            assert node.entity(vcpu.tid) is vcpu.entity

    def test_duplicate_name_rejected(self, hypervisor):
        hypervisor.provision(SMALL, "vm-a")
        with pytest.raises(ValueError):
            hypervisor.provision(SMALL, "vm-a")

    def test_vfreq_above_host_fmax_rejected(self, hypervisor, tiny_spec):
        too_fast = VMTemplate("turbo", vcpus=1, vfreq_mhz=tiny_spec.fmax_mhz + 1)
        with pytest.raises(AdmissionError):
            hypervisor.provision(too_fast, "vm-x")


class TestAdmission:
    def test_eq7_admission_limit(self, tiny_spec):
        # tiny: 4 logical cpus x 2400 = 9600 MHz capacity.
        node = Node(tiny_spec)
        hv = Hypervisor(node)
        hv.provision(LARGE, "l0")  # 7200
        assert hv.committed_mhz() == pytest.approx(7200.0)
        hv.provision(SMALL, "s0")  # + 1000 = 8200
        hv.provision(SMALL, "s1")  # + 1000 = 9200
        with pytest.raises(AdmissionError):
            hv.provision(SMALL, "s2")  # 10200 > 9600

    def test_admission_can_be_disabled(self, tiny_spec):
        node = Node(tiny_spec)
        hv = Hypervisor(node, enforce_admission=False)
        for k in range(12):
            hv.provision(SMALL, f"s{k}")
        assert hv.committed_mhz() > tiny_spec.capacity_mhz

    def test_memory_admission(self, tiny_spec):
        node = Node(tiny_spec)
        hv = Hypervisor(node)
        hungry = VMTemplate("hungry", vcpus=1, vfreq_mhz=100, memory_mb=10 * 1024)
        assert hv.admits(hungry)
        hv.provision(hungry, "h0")
        assert not hv.admits(hungry)  # 20 GB > 16 GB


class TestDestroy:
    def test_destroy_cleans_everything(self, hypervisor, node):
        vm = hypervisor.provision(SMALL, "vm-a")
        tids = vm.tids()
        hypervisor.destroy("vm-a")
        assert not node.fs.exists(f"{MACHINE_SLICE}/vm-a")
        for tid in tids:
            assert not node.procfs.exists(tid)
        assert hypervisor.vms == []

    def test_destroy_missing(self, hypervisor):
        with pytest.raises(KeyError):
            hypervisor.destroy("ghost")

    def test_capacity_released(self, tiny_spec):
        node = Node(tiny_spec)
        hv = Hypervisor(node)
        hv.provision(LARGE, "l0")
        hv.destroy("l0")
        assert hv.committed_mhz() == 0.0
        hv.provision(LARGE, "l1")  # fits again
