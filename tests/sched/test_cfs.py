"""Tests for the hierarchical CFS-like scheduler.

Includes the paper's §IV-A2 fairness experiments (a) and (b): CFS splits
CPU time between VM cgroups, not vCPUs — the root cause of the
configuration-A behaviour in Figs. 6/8/12.
"""

import numpy as np
import pytest

from repro.cgroups.cpu import QuotaSpec
from repro.cgroups.fs import CgroupFS, CgroupVersion
from repro.sched.cfs import CfsScheduler
from repro.sched.entity import SchedEntity
from repro.sched.fairshare import weighted_fair_share
from tests.sched.cfs_reference import CfsScheduler as ReferenceScheduler


def flat_fair_split(num_cpus, dt, demands):
    """Non-hierarchical contrast: fair-share directly among threads."""
    demands = np.asarray(demands, dtype=np.float64)
    limits = np.minimum(demands, 1.0) * dt
    return weighted_fair_share(num_cpus * dt, np.ones_like(demands), limits)


def build_host(num_vms, vcpus_per_vm, num_cpus, version=CgroupVersion.V2):
    """A KVM-shaped cgroup tree with one entity per vCPU, all demanding 100 %."""
    fs = CgroupFS(version)
    fs.makedirs("/machine.slice")
    entities = []
    for i in range(num_vms):
        vcpus = vcpus_per_vm[i] if isinstance(vcpus_per_vm, (list, tuple)) else vcpus_per_vm
        for j in range(vcpus):
            path = f"/machine.slice/vm{i}/vcpu{j}"
            fs.makedirs(path)
            ent = SchedEntity(tid=1000 + i * 100 + j, cgroup_path=path, demand=1.0)
            entities.append(ent)
    return fs, entities


class TestHierarchicalFairness:
    def test_experiment_a_equal_vms_equal_speed(self):
        """Paper experiment a): 20 VMs x 4 vCPUs all run at the same speed."""
        fs, entities = build_host(20, 4, num_cpus=40)
        CfsScheduler(fs, 40).schedule(entities, dt=1.0)
        allocs = np.array([e.allocated for e in entities])
        assert np.allclose(allocs, allocs[0])
        assert allocs.sum() == pytest.approx(40.0)

    def test_experiment_b_vm_level_split(self):
        """Paper experiment b): 40 x 1-vCPU VMs + 10 x 4-vCPU VMs ->
        4/5 of the resources go to the single-vCPU VMs."""
        shapes = [1] * 40 + [4] * 10
        fs, entities = build_host(50, shapes, num_cpus=40)
        CfsScheduler(fs, 40).schedule(entities, dt=1.0)
        single = sum(e.allocated for e in entities if e.cgroup_path.split("/")[2] in
                     {f"vm{i}" for i in range(40)})
        total = sum(e.allocated for e in entities)
        assert single / total == pytest.approx(4 / 5, rel=0.01)

    def test_table2_shape_small_vms_collectively_win(self):
        """20 small (2 vCPU) + 10 large (4 vCPU) on 40 cpus: small vCPUs get
        ~2x the time of large vCPUs (the Fig. 6 effect)."""
        shapes = [2] * 20 + [4] * 10
        fs, entities = build_host(30, shapes, num_cpus=40)
        CfsScheduler(fs, 40).schedule(entities, dt=1.0)
        small = [e.allocated for e in entities[:40]]
        large = [e.allocated for e in entities[40:]]
        assert np.mean(small) / np.mean(large) == pytest.approx(2.0, rel=0.01)

    def test_weights_shift_shares(self):
        fs, entities = build_host(2, 1, num_cpus=1)
        fs.node("/machine.slice/vm0").cpu.weight = 200
        fs.node("/machine.slice/vm1").cpu.weight = 100
        CfsScheduler(fs, 1).schedule(entities, dt=1.0)
        assert entities[0].allocated == pytest.approx(2 / 3, rel=1e-6)
        assert entities[1].allocated == pytest.approx(1 / 3, rel=1e-6)


class TestQuotaEnforcement:
    def test_vcpu_quota_caps_allocation(self):
        fs, entities = build_host(1, 1, num_cpus=4)
        fs.set_quota("/machine.slice/vm0/vcpu0", QuotaSpec(25_000, 100_000))
        CfsScheduler(fs, 4).schedule(entities, dt=1.0)
        assert entities[0].allocated == pytest.approx(0.25)

    def test_vm_level_quota_caps_subtree(self):
        fs, entities = build_host(1, 4, num_cpus=8)
        fs.set_quota("/machine.slice/vm0", QuotaSpec(100_000, 100_000))
        CfsScheduler(fs, 8).schedule(entities, dt=1.0)
        assert sum(e.allocated for e in entities) == pytest.approx(1.0)

    def test_quota_slack_redistributed_to_other_vms(self):
        fs, entities = build_host(2, 1, num_cpus=1)
        fs.set_quota("/machine.slice/vm0/vcpu0", QuotaSpec(10_000, 100_000))
        CfsScheduler(fs, 1).schedule(entities, dt=1.0)
        assert entities[0].allocated == pytest.approx(0.1)
        assert entities[1].allocated == pytest.approx(0.9)

    # The per-cgroup throttled flag is computed only by the recursive
    # reference (tests/sched/cfs_reference.py); the production scheduler
    # builds no per-cgroup records.
    def test_throttled_flag_set(self):
        fs, entities = build_host(1, 1, num_cpus=4)
        fs.set_quota("/machine.slice/vm0/vcpu0", QuotaSpec(25_000, 100_000))
        allocs = ReferenceScheduler(fs, 4).schedule(entities, dt=1.0)
        assert allocs["/machine.slice/vm0/vcpu0"].throttled

    def test_unthrottled_when_demand_below_quota(self):
        fs, entities = build_host(1, 1, num_cpus=4)
        entities[0].demand = 0.1
        fs.set_quota("/machine.slice/vm0/vcpu0", QuotaSpec(50_000, 100_000))
        allocs = ReferenceScheduler(fs, 4).schedule(entities, dt=1.0)
        assert not allocs["/machine.slice/vm0/vcpu0"].throttled


class TestMechanics:
    def test_thread_never_exceeds_one_core(self):
        fs, entities = build_host(1, 1, num_cpus=8)
        CfsScheduler(fs, 8).schedule(entities, dt=1.0)
        assert entities[0].allocated <= 1.0 + 1e-9

    def test_idle_threads_get_nothing(self):
        fs, entities = build_host(2, 1, num_cpus=2)
        entities[0].demand = 0.0
        CfsScheduler(fs, 2).schedule(entities, dt=1.0)
        assert entities[0].allocated == 0.0
        assert entities[1].allocated == pytest.approx(1.0)

    def test_accounting_charged_hierarchically(self):
        fs, entities = build_host(1, 2, num_cpus=2)
        CfsScheduler(fs, 2).schedule(entities, dt=1.0)
        vcpu_usage = fs.node("/machine.slice/vm0/vcpu0").cpu.usage_usec
        vm_usage = fs.node("/machine.slice/vm0").cpu.usage_usec
        assert vcpu_usage == pytest.approx(1_000_000, rel=0.01)
        assert vm_usage == pytest.approx(2_000_000, rel=0.01)

    def test_dt_validation(self):
        fs, entities = build_host(1, 1, num_cpus=1)
        with pytest.raises(ValueError):
            CfsScheduler(fs, 1).schedule(entities, dt=0.0)

    def test_num_cpus_validation(self):
        fs, _ = build_host(1, 1, num_cpus=1)
        with pytest.raises(ValueError):
            CfsScheduler(fs, 0)

    def test_works_on_cgroup_v1(self):
        fs, entities = build_host(2, 2, num_cpus=2, version=CgroupVersion.V1)
        CfsScheduler(fs, 2).schedule(entities, dt=1.0)
        assert sum(e.allocated for e in entities) == pytest.approx(2.0)


class TestFlatReference:
    def test_flat_split_differs_from_hierarchical(self):
        """Flat per-thread fairness would give experiment b) 40/80 of the
        CPU to single-vCPU VMs, not 4/5 — demonstrating why the hierarchy
        matters."""
        demands = np.ones(80)
        alloc = flat_fair_split(40, 1.0, demands)
        single_share = alloc[:40].sum() / alloc.sum()
        assert single_share == pytest.approx(0.5, rel=0.01)
