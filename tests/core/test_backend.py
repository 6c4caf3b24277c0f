"""Tests for the batched host-backend I/O layer.

The per-file scan that ``sample_all`` falls back to (armed fault plan,
unknown or dead topology) is driven directly through ``_scan``; the
seed's unbatched access pattern is ``tests/core/backend_reference.py``.
"""

from repro.cgroups.fs import CgroupVersion
from repro.core.backend import BackendStats, HostBackend, vm_component
from repro.hw.node import MACHINE_SLICE, Node
from repro.virt.hypervisor import Hypervisor
from repro.virt.template import SMALL
from tests.core.backend_reference import SeedBackend


def make_backend(cgroup_version=CgroupVersion.V2, *, batched=True):
    from tests.conftest import TINY

    node = Node(TINY, cgroup_version=cgroup_version, seed=1)
    hv = Hypervisor(node)
    backend = (HostBackend if batched else SeedBackend)(
        node.fs, node.procfs, node.sysfs
    )
    return node, hv, backend


def _scan(backend):
    """One pass of the per-file scan, as sample objects."""
    return backend._sample_batched(1.0)


class TestVmComponent:
    def test_plain_vcpu_path(self):
        assert vm_component("/machine.slice/vm-1/vcpu0") == "vm-1"

    def test_nested_path_matches_first_component(self):
        # The substring bug this helper replaces: "/vm-1/" also occurs
        # in "/machine.slice/foo/vm-1/vcpu0", but the VM there is "foo".
        assert vm_component("/machine.slice/foo/vm-1/vcpu0") == "foo"

    def test_outside_slice_is_none(self):
        assert vm_component("/user.slice/task/vcpu0") is None
        assert vm_component("/machine.slicex/vm/vcpu0") is None

    def test_custom_slice(self):
        assert vm_component("/my.slice/vm-9/vcpu1", "/my.slice") == "vm-9"


class TestSampleValues:
    """The batched backend and the seed walk observe identical values."""

    def test_same_samples_both_modes(self, cgroup_version):
        node_a, hv_a, batched = make_backend(cgroup_version, batched=True)
        node_b, hv_b, walk = make_backend(cgroup_version, batched=False)
        for hv in (hv_a, hv_b):
            hv.provision(SMALL, "vm-a")
            hv.provision(SMALL, "vm-b")
        for node, backend in ((node_a, batched), (node_b, walk)):
            backend.sample_all(1.0)
            for vm in ("vm-a", "vm-b"):
                node.fs.node(f"{MACHINE_SLICE}/{vm}/vcpu0").cpu.charge(250_000)
        want = walk.read_vcpu_samples(1.0)
        assert batched.sample_all(1.0).to_samples() == want


class TestCounters:
    def test_walk_counts_seed_pattern(self):
        node, hv, backend = make_backend(batched=False)
        hv.provision(SMALL, "vm-a")  # 2 vCPUs
        backend.sample_all(1.0)
        s = backend.stats
        # slice readdir + per-VM readdir; usage + tid read per vCPU;
        # one proc and one sysfs read per vCPU, no dedup.
        assert s.fs_listdirs == 2
        assert s.fs_reads == 4
        assert s.proc_reads == 2
        assert s.sysfs_reads == 2
        assert s.topology_rescans == 0

    def test_batched_steady_state_skips_tid_reads(self):
        node, hv, backend = make_backend(batched=True)
        hv.provision(SMALL, "vm-a")
        _scan(backend)  # cold: full walk + rescan count
        assert backend.stats.topology_rescans == 1
        before = backend.stats.copy()
        _scan(backend)
        delta = backend.stats - before
        # churn-guard readdir + usage read per vCPU; tids come from the
        # cache, and both vCPUs on the same core share one sysfs read.
        assert delta.fs_listdirs == 1
        assert delta.fs_reads == 2
        assert delta.proc_reads == 2
        assert delta.topology_rescans == 0
        assert delta.sysfs_reads <= 2

    def test_batch_stats_recorded(self):
        node, hv, backend = make_backend()
        hv.provision(SMALL, "vm-a")
        before = backend.stats.copy()
        backend.sample_all(1.0)
        delta = backend.stats - before
        assert delta.fs_reads > 0
        assert delta.fs_writes == 0

    def test_stats_algebra(self):
        a = BackendStats(fs_reads=3, fs_writes=1)
        b = BackendStats(fs_reads=1, sysfs_reads=2)
        assert (a + b).fs_reads == 4
        assert (a - b).fs_reads == 2
        assert (a + b).total_ops == 7
        assert a.as_dict()["fs_writes"] == 1


class TestCacheInvalidation:
    def test_late_provision_appears(self, cgroup_version):
        node, hv, backend = make_backend(cgroup_version)
        hv.provision(SMALL, "vm-a")
        assert len(_scan(backend)) == 2
        hv.provision(SMALL, "vm-b")  # churn guard must notice
        samples = _scan(backend)
        assert {s.vm_name for s in samples} == {"vm-a", "vm-b"}

    def test_destroy_disappears(self, cgroup_version):
        node, hv, backend = make_backend(cgroup_version)
        hv.provision(SMALL, "vm-a")
        hv.provision(SMALL, "vm-b")
        _scan(backend)
        hv.destroy("vm-b")
        samples = _scan(backend)
        assert {s.vm_name for s in samples} == {"vm-a"}

    def test_explicit_invalidate_forces_rescan(self):
        node, hv, backend = make_backend()
        hv.provision(SMALL, "vm-a")
        _scan(backend)
        _scan(backend)
        assert backend.stats.topology_rescans == 1
        backend.invalidate()
        _scan(backend)
        assert backend.stats.topology_rescans == 2

    def test_same_vm_set_does_not_rescan(self):
        node, hv, backend = make_backend()
        hv.provision(SMALL, "vm-a")
        for _ in range(5):
            backend.sample_all(1.0)
        assert backend.stats.topology_rescans == 1


class TestCoalescedWrites:
    def _vcpu(self, hv):
        return hv.provision(SMALL, "vm-a").vcpus[0].cgroup_path

    def test_unchanged_write_skipped(self, cgroup_version):
        node, hv, backend = make_backend(cgroup_version)
        path = self._vcpu(hv)
        backend.write_caps([path], [50_000], 100_000)
        writes = backend.stats.fs_writes
        missed = backend.write_caps([path], [50_000], 100_000)
        assert backend.stats.fs_writes == writes  # no new write issued
        assert backend.stats.cap_writes_skipped == 1
        assert missed == []  # still in force

    def test_changed_value_rewritten(self):
        node, hv, backend = make_backend()
        path = self._vcpu(hv)
        backend.write_caps([path], [50_000], 100_000)
        backend.write_caps([path], [60_000], 100_000)
        assert backend.stats.fs_writes == 2
        assert node.fs.read(f"{path}/cpu.max").strip() == "60000 100000"

    def test_forget_vcpu_forces_rewrite(self):
        node, hv, backend = make_backend()
        path = self._vcpu(hv)
        backend.write_caps([path], [50_000], 100_000)
        backend.forget_vcpu(path)
        backend.write_caps([path], [50_000], 100_000)
        assert backend.stats.fs_writes == 2
        assert backend.stats.cap_writes_skipped == 0

    def test_unbatched_always_writes(self):
        node, hv, backend = make_backend(batched=False)
        path = self._vcpu(hv)
        backend.write_caps([path], [50_000], 100_000)
        backend.write_caps([path], [50_000], 100_000)
        assert backend.stats.fs_writes == 2
        assert backend.stats.cap_writes_skipped == 0

    def test_vanished_cgroup_dropped_from_result(self):
        node, hv, backend = make_backend()
        path = self._vcpu(hv)
        missed = backend.write_caps(
            [path, f"{MACHINE_SLICE}/gone/vcpu0"], [50_000, 10_000], 100_000
        )
        assert missed == [1]

    def test_write_batch_stats_recorded(self):
        node, hv, backend = make_backend()
        path = self._vcpu(hv)
        before = backend.stats.copy()
        backend.write_caps([path], [50_000], 100_000)
        assert (backend.stats - before).fs_writes == 1
        before = backend.stats.copy()
        backend.write_caps([path], [50_000], 100_000)
        delta = backend.stats - before
        assert delta.fs_writes == 0
        assert delta.cap_writes_skipped == 1
