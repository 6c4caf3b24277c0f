"""Error-path coverage for the backend's teardown races and fault modes.

The backend deliberately swallows three classes of mid-scan errors
(FileNotFoundError on a vanished VM dir, ProcessLookupError on a dead
tid, and — in tolerant mode — transient EIO); these tests pin down the
counters and report contents for each swallowed path, which previously
had no direct coverage.
"""

import pytest

from repro.cgroups.fs import CgroupVersion
from repro.core.backend import HostBackend
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.hw.node import MACHINE_SLICE, Node
from repro.virt.hypervisor import Hypervisor
from repro.virt.template import SMALL
from tests.conftest import TINY


def make_backend(cgroup_version=CgroupVersion.V2, *, plan=None):
    node = Node(TINY, cgroup_version=cgroup_version, seed=1)
    hv = Hypervisor(node)
    if plan is None:
        backend = HostBackend(node.fs, node.procfs, node.sysfs)
    else:
        backend = FaultInjector(plan, node.fs, node.procfs, node.sysfs)
    return node, hv, backend


def sample(backend):
    return backend.sample_all(1.0).to_samples()


class TestBatchedDeadTid:
    def test_dead_tid_skips_vcpu_and_invalidates(self, cgroup_version):
        """backend.py's ProcessLookupError swallow: the vCPU whose KVM
        thread exited is skipped, counted, and the topology rescanned."""
        node, hv, backend = make_backend(cgroup_version)
        hv.provision(SMALL, "vm-a")
        hv.provision(SMALL, "vm-b")
        sample(backend)  # warm topology
        assert backend._topology is not None
        fname = (
            "cgroup.threads"
            if cgroup_version is CgroupVersion.V2
            else "tasks"
        )
        tid = int(node.fs.read(f"{MACHINE_SLICE}/vm-a/vcpu0/{fname}").split()[0])
        node.procfs.kill(tid)
        samples = sample(backend)
        paths = {s.cgroup_path for s in samples}
        assert f"{MACHINE_SLICE}/vm-a/vcpu0" not in paths
        assert f"{MACHINE_SLICE}/vm-b/vcpu0" in paths
        assert backend.stats.vcpu_skips == 1
        assert backend._topology is None  # invalidated for rediscovery


class TestWalkVanishedDirs:
    def test_vm_dir_enoent_counts_vm_skip(self):
        """backend.py's per-VM FileNotFoundError swallow in the walk:
        a VM destroyed between readdir and descent is skipped whole."""
        plan = FaultPlan(
            [FaultSpec("read_error", f"{MACHINE_SLICE}/vm-a", error="ENOENT")]
        )
        node, hv, backend = make_backend(plan=plan)
        hv.provision(SMALL, "vm-a")
        hv.provision(SMALL, "vm-b")
        samples = sample(backend)
        assert {s.vm_name for s in samples} == {"vm-b"}
        assert backend.stats.vm_skips == 1
        assert backend.stats.vcpu_skips == 0
        # incomplete walk: the topology must NOT be cached
        assert backend._topology is None

    def test_vcpu_file_enoent_counts_vcpu_skip(self):
        """backend.py's per-vCPU FileNotFoundError swallow in the walk."""
        plan = FaultPlan(
            [FaultSpec("read_error", "*/vm-a/vcpu0/*", error="ENOENT")]
        )
        node, hv, backend = make_backend(plan=plan)
        hv.provision(SMALL, "vm-a")
        samples = sample(backend)
        paths = {s.cgroup_path for s in samples}
        assert f"{MACHINE_SLICE}/vm-a/vcpu0" not in paths
        assert f"{MACHINE_SLICE}/vm-a/vcpu1" in paths
        assert backend.stats.vcpu_skips == 1
        assert backend._topology is None


class TestTolerantVsFailFast:
    def test_eio_failfast_by_default(self):
        plan = FaultPlan([FaultSpec("read_error", "*/cpu.stat", error="EIO")])
        node, hv, backend = make_backend(plan=plan)
        hv.provision(SMALL, "vm-a")
        assert backend.tolerate_errors is False
        with pytest.raises(OSError):
            sample(backend)

    def test_eio_tolerant_keeps_topology_slot(self, cgroup_version):
        """Transient EIO in tolerant mode skips the vCPU for one tick
        but keeps the cached slot — next tick it is observed again."""
        statfile = "cpu.stat" if cgroup_version is CgroupVersion.V2 else "cpuacct.usage"
        plan = FaultPlan(
            [FaultSpec("read_error", f"*/vm-a/vcpu0/{statfile}",
                       start_tick=1, end_tick=2, error="EIO")]
        )
        node, hv, backend = make_backend(cgroup_version, plan=plan)
        backend.tolerate_errors = True
        hv.provision(SMALL, "vm-a")
        first = sample(backend)  # tick 0: clean, cache warm
        assert len(first) == SMALL.vcpus
        during = sample(backend)  # tick 1: EIO on vcpu0
        assert len(during) == SMALL.vcpus - 1
        assert backend.stats.read_errors == 1
        assert backend.stats.vcpu_skips == 1
        assert backend._topology is not None  # slot kept, no rescan
        after = sample(backend)  # tick 2: recovered
        assert len(after) == SMALL.vcpus

    def test_listdir_failure_tolerant_degrades_to_empty(self):
        plan = FaultPlan([FaultSpec("read_error", MACHINE_SLICE, error="EIO")])
        node, hv, backend = make_backend(plan=plan)
        backend.tolerate_errors = True
        hv.provision(SMALL, "vm-a")
        assert sample(backend) == []
        assert backend.stats.read_errors == 1

    def test_write_errors_reported_per_path(self):
        plan = FaultPlan(
            [FaultSpec("write_error", "*/vm-a/vcpu0/*", error="EBUSY")]
        )
        node, hv, backend = make_backend(plan=plan)
        backend.tolerate_errors = True
        backend.tick_index = 0
        hv.provision(SMALL, "vm-a")
        paths = [f"{MACHINE_SLICE}/vm-a/vcpu0", f"{MACHINE_SLICE}/vm-a/vcpu1"]
        quotas = [40_000, 40_000]
        missed = backend.write_caps(paths, quotas, 100_000)
        assert missed == [0]
        assert set(backend.last_write_errors) == {f"{MACHINE_SLICE}/vm-a/vcpu0"}
        assert backend.stats.write_errors == 1
        # next batch resets the error map
        backend.plan.specs.clear()
        backend.write_caps(paths, quotas, 100_000)
        assert backend.last_write_errors == {}

    def test_half_applied_v1_pair_drops_cap_cache(self):
        """A failed v1 quota write after a successful period write must
        forget the cached cap so the retry rewrites unconditionally."""
        plan = FaultPlan(
            [FaultSpec("write_error", "*/cpu.cfs_quota_us",
                       start_tick=0, end_tick=1, error="EBUSY")]
        )
        node, hv, backend = make_backend(CgroupVersion.V1, plan=plan)
        backend.tolerate_errors = True
        backend.tick_index = 0
        hv.provision(SMALL, "vm-a")
        path = f"{MACHINE_SLICE}/vm-a/vcpu0"
        backend.write_caps([path], [40_000], 100_000)
        assert path in backend.last_write_errors
        assert path not in backend._last_cap
        backend.tick_index = 1  # fault window over
        missed = backend.write_caps([path], [40_000], 100_000)
        assert missed == []
        assert backend.stats.cap_writes_skipped == 0  # not skipped-stale
