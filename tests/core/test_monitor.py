"""Tests for stage 1 — monitoring (consumption diffs + vfreq estimation).

Both engines read stage 1 through ``HostBackend.sample_all``; the
samples below are its batch materialised with ``to_samples()``.
"""

import pytest

from repro.cgroups.fs import CgroupVersion
from repro.core.backend import HostBackend
from repro.hw.node import MACHINE_SLICE, Node
from repro.virt.hypervisor import Hypervisor
from repro.virt.template import SMALL


def make_host(cgroup_version=CgroupVersion.V2, tiny=None):
    from tests.conftest import TINY

    node = Node(tiny or TINY, cgroup_version=cgroup_version, seed=1)
    hv = Hypervisor(node)
    return node, hv, _Stage1(HostBackend(node.fs, node.procfs, node.sysfs))


class _Stage1:
    """One backend's stage-1 passes as sample lists."""

    def __init__(self, backend):
        self.backend = backend

    def sample(self):
        return self.backend.sample_all(1.0).to_samples()

    def forget(self, path):
        self.backend.forget_usage(path)


class TestConsumptionDiff:
    def test_first_sample_reads_zero_consumption(self, cgroup_version):
        node, hv, mon = make_host(cgroup_version)
        hv.provision(SMALL, "vm-a")
        samples = mon.sample()
        assert len(samples) == 2
        assert all(s.consumed_cycles == 0.0 for s in samples)

    def test_diff_between_iterations(self, cgroup_version):
        node, hv, mon = make_host(cgroup_version)
        vm = hv.provision(SMALL, "vm-a")
        mon.sample()
        node.fs.node(vm.vcpus[0].cgroup_path).cpu.charge(300_000)
        samples = {s.vcpu_index: s for s in mon.sample()}
        assert samples[0].consumed_cycles == pytest.approx(300_000, rel=0.01)
        assert samples[1].consumed_cycles == 0.0

    def test_diff_resets_each_iteration(self, cgroup_version):
        node, hv, mon = make_host(cgroup_version)
        vm = hv.provision(SMALL, "vm-a")
        mon.sample()
        node.fs.node(vm.vcpus[0].cgroup_path).cpu.charge(300_000)
        mon.sample()
        samples = {s.vcpu_index: s for s in mon.sample()}
        assert samples[0].consumed_cycles == 0.0


class TestVFreqEstimate:
    def test_share_times_core_frequency(self):
        node, hv, mon = make_host()
        vm = hv.provision(SMALL, "vm-a")
        mon.sample()
        # Run the node hot so cores sit at fmax.
        vm.set_uniform_demand(1.0)
        for _ in range(40):
            node.step(0.5)
        samples = mon.sample()
        # consumption over 20 s >> period; share is clamped at one core
        for s in samples:
            assert s.vfreq_mhz == pytest.approx(s.core_freq_mhz, rel=1e-6)

    def test_idle_vcpu_estimates_zero(self):
        node, hv, mon = make_host()
        hv.provision(SMALL, "vm-a")
        mon.sample()
        node.step(1.0)  # no demand set -> no allocation
        for s in mon.sample():
            assert s.vfreq_mhz == 0.0

    def test_half_share_half_frequency(self):
        node, hv, mon = make_host()
        vm = hv.provision(SMALL, "vm-a")
        # Warm DVFS to a steady point with 50 % demand.
        vm.set_uniform_demand(0.5)
        for _ in range(60):
            node.step(0.5)
        mon.sample()
        node.step(0.5)
        node.step(0.5)
        samples = mon.sample()
        for s in samples:
            assert s.vfreq_mhz == pytest.approx(0.5 * s.core_freq_mhz, rel=0.05)


class TestDiscovery:
    def test_vm_and_vcpu_names(self):
        node, hv, mon = make_host()
        hv.provision(SMALL, "vm-a")
        samples = mon.sample()
        assert {s.vm_name for s in samples} == {"vm-a"}
        assert {s.vcpu_index for s in samples} == {0, 1}
        assert {s.cgroup_path for s in samples} == {
            f"{MACHINE_SLICE}/vm-a/vcpu0",
            f"{MACHINE_SLICE}/vm-a/vcpu1",
        }

    def test_ignores_non_vcpu_children(self):
        node, hv, mon = make_host()
        hv.provision(SMALL, "vm-a")
        node.fs.makedirs(f"{MACHINE_SLICE}/vm-a/emulator")  # libvirt creates these
        assert len(mon.sample()) == 2

    def test_empty_slice(self):
        _, _, mon = make_host()
        assert mon.sample() == []

    def test_vcpu_cgroup_without_thread_skipped(self):
        node, hv, mon = make_host()
        node.fs.makedirs(f"{MACHINE_SLICE}/vm-a/vcpu0")  # no tid attached
        assert mon.sample() == []

    def test_forget_clears_state(self):
        node, hv, mon = make_host()
        vm = hv.provision(SMALL, "vm-a")
        mon.sample()
        node.fs.node(vm.vcpus[0].cgroup_path).cpu.charge(500_000)
        mon.forget(vm.vcpus[0].cgroup_path)
        samples = {s.vcpu_index: s for s in mon.sample()}
        assert samples[0].consumed_cycles == 0.0  # state was dropped


class TestCoreTracking:
    def test_core_comes_from_procfs(self):
        node, hv, mon = make_host()
        vm = hv.provision(SMALL, "vm-a")
        node.procfs.account(vm.vcpus[0].tid, 0.0, 3)
        samples = {s.vcpu_index: s for s in mon.sample()}
        assert samples[0].core == 3

    def test_core_freq_comes_from_sysfs(self):
        node, hv, mon = make_host()
        vm = hv.provision(SMALL, "vm-a")
        node.procfs.account(vm.vcpus[0].tid, 0.0, 1)
        samples = {s.vcpu_index: s for s in mon.sample()}
        assert samples[0].core_freq_mhz == pytest.approx(
            node.sysfs.scaling_cur_freq(1) / 1000.0
        )
