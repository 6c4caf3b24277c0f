"""Property-based tests of the hierarchical scheduler.

Random two-level KVM-shaped trees (VM groups with vCPU children, random
demands, quotas and weights, multi-thread vCPU groups, bare threads in
VM groups, an entity outside the tree) must always satisfy the CFS
bandwidth-control invariants, regardless of shape.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgroups.cpu import QuotaSpec
from repro.cgroups.fs import CgroupFS, CgroupVersion
from repro.sched.cfs import CfsScheduler
from repro.sched.entity import SchedEntity
from tests.sched.cfs_reference import CfsScheduler as ReferenceScheduler


@st.composite
def random_host(draw):
    """A KVM-shaped host, plus the shapes no workload builds today.

    Besides VM groups with one-thread vCPU children it draws vCPU groups
    holding several threads, bare threads directly in a VM group, VM
    weights, and sometimes an entity whose cgroup is not in the tree.
    The entity list is shuffled, so a group's threads are not adjacent.
    """
    num_cpus = draw(st.integers(1, 16))
    num_vms = draw(st.integers(1, 6))
    fs = CgroupFS(CgroupVersion.V2)
    fs.makedirs("/machine.slice")
    entities = []
    quotas = {}
    tid = 1000

    def thread(path):
        nonlocal tid
        tid += 1
        demand = draw(st.floats(0.0, 1.0))
        weight = draw(st.sampled_from([1.0, 0.5, 2.0]))
        entities.append(SchedEntity(tid=tid, cgroup_path=path, weight=weight, demand=demand))

    for i in range(num_vms):
        vcpus = draw(st.integers(1, 4))
        vm_path = f"/machine.slice/vm{i}"
        vm = fs.makedirs(vm_path)
        if draw(st.booleans()):
            vm.cpu.weight = draw(st.integers(1, 10_000))
        if draw(st.booleans()):
            ratio = draw(st.floats(0.05, 4.0))
            quota = QuotaSpec(int(ratio * 100_000), 100_000)
            fs.set_quota(vm_path, quota)
            quotas[vm_path] = quota.ratio()
        for j in range(vcpus):
            path = f"{vm_path}/vcpu{j}"
            fs.makedirs(path)
            for _ in range(draw(st.integers(1, 3))):
                thread(path)
            if draw(st.booleans()):
                ratio = draw(st.floats(0.01, 1.0))
                quota = QuotaSpec(int(ratio * 100_000), 100_000)
                fs.set_quota(path, quota)
                quotas[path] = quota.ratio()
        for _ in range(draw(st.integers(0, 2))):
            thread(vm_path)
    if draw(st.booleans()):
        thread("/machine.slice/gone/vcpu0")
    entities = draw(st.permutations(entities))
    return fs, entities, quotas, num_cpus


class TestSchedulerInvariants:
    @given(random_host())
    @settings(max_examples=120, deadline=None)
    def test_feasibility(self, host):
        fs, entities, quotas, num_cpus = host
        dt = 1.0
        CfsScheduler(fs, num_cpus).schedule(entities, dt)
        # each thread: bounded by demand and one core
        for ent in entities:
            assert -1e-9 <= ent.allocated <= min(ent.demand, 1.0) * dt + 1e-9
        # node: bounded by capacity
        total = sum(e.allocated for e in entities)
        assert total <= num_cpus * dt + 1e-6

    @given(random_host())
    @settings(max_examples=120, deadline=None)
    def test_quota_never_exceeded(self, host):
        fs, entities, quotas, num_cpus = host
        dt = 1.0
        CfsScheduler(fs, num_cpus).schedule(entities, dt)
        for path, ratio in quotas.items():
            subtree = fs.node(path)
            used = sum(
                e.allocated
                for e in entities
                if e.cgroup_path == path or e.cgroup_path.startswith(path + "/")
            )
            assert used <= ratio * dt + 1e-6, path

    @given(random_host())
    @settings(max_examples=120, deadline=None)
    def test_work_conserving(self, host):
        """Nothing is left on the table: total granted equals the minimum
        of node capacity and the tree's own (quota-capped) absorbable
        demand."""
        fs, entities, quotas, num_cpus = host
        dt = 1.0
        CfsScheduler(fs, num_cpus).schedule(entities, dt)
        total = sum(e.allocated for e in entities)
        # The production scheduler keeps no per-cgroup records; read the
        # root's limit from the recursive reference.
        root_limit = ReferenceScheduler(fs, num_cpus).schedule(entities, dt)["/"].limit
        assert total == pytest.approx(min(num_cpus * dt, root_limit), abs=1e-6)

    @given(random_host())
    @settings(max_examples=60, deadline=None)
    def test_deterministic(self, host):
        fs, entities, quotas, num_cpus = host
        CfsScheduler(fs, num_cpus).schedule(entities, 1.0)
        first = [e.allocated for e in entities]
        CfsScheduler(fs, num_cpus).schedule(entities, 1.0)
        assert first == [e.allocated for e in entities]

    @given(random_host())
    @settings(max_examples=60, deadline=None)
    def test_accounting_matches_grants(self, host):
        """Every cgroup is charged what its whole subtree was granted."""
        fs, entities, quotas, num_cpus = host
        CfsScheduler(fs, num_cpus).schedule(entities, 1.0)
        for node in fs.root.walk():
            path = node.path
            prefix = path if path == "/" else path + "/"
            granted = sum(
                e.allocated
                for e in entities
                if e.cgroup_path == path or e.cgroup_path.startswith(prefix)
            )
            assert node.cpu.usage_usec == pytest.approx(granted * 1e6, abs=1.0), path
