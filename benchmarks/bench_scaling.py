"""Scaling micro-benches: scheduler tick and controller iteration cost
as the vCPU population grows.

The paper's controller must stay a negligible fraction of its 1 s
period on dense hosts ("it must consume as little as possible CPU
time", §III-B2).  These benches pin the per-iteration cost at three
population sizes and assert sane growth (roughly linear in vCPUs —
the fair-share core is O(n log n)).
"""

import pytest

from repro.cgroups.fs import CgroupFS, CgroupVersion
from repro.sched.cfs import CfsScheduler
from repro.sched.entity import SchedEntity
from repro.sim.report import render_table

from conftest import emit, results_path


def build(num_vms, vcpus_per_vm, num_cpus):
    fs = CgroupFS(CgroupVersion.V2)
    fs.makedirs("/machine.slice")
    entities = []
    for i in range(num_vms):
        for j in range(vcpus_per_vm):
            path = f"/machine.slice/vm{i}/vcpu{j}"
            fs.makedirs(path)
            entities.append(
                SchedEntity(tid=1000 + 100 * i + j, cgroup_path=path, demand=1.0)
            )
    return CfsScheduler(fs, num_cpus), entities


@pytest.mark.parametrize("num_vms", [10, 40, 160])
def test_scheduler_tick_scaling(benchmark, num_vms):
    scheduler, entities = build(num_vms, 2, num_cpus=64)
    result = benchmark(scheduler.schedule, entities, 0.5)
    assert len(result) >= num_vms  # one allocation record per cgroup


def _controller_host(num_vms, engine="bulk"):
    from repro.core.config import ControllerConfig
    from repro.core.controller import VirtualFrequencyController
    from repro.hw.node import Node
    from repro.hw.nodespecs import NodeSpec
    from repro.virt.hypervisor import Hypervisor
    from repro.virt.template import VMTemplate

    spec = NodeSpec(
        name="dense",
        cpu_model="bench",
        sockets=2,
        cores_per_socket=32,
        threads_per_core=2,
        fmax_mhz=2400.0,
        fmin_mhz=1200.0,
        memory_mb=512 * 1024,
        freq_jitter_mhz=0.0,
    )
    node = Node(spec, seed=1)
    hv = Hypervisor(node, enforce_admission=False)
    ctrl = VirtualFrequencyController(
        node.fs, node.procfs, node.sysfs,
        num_cpus=spec.logical_cpus, fmax_mhz=spec.fmax_mhz,
        config=ControllerConfig.paper_evaluation(engine=engine),
    )
    ctrl.keep_reports = False
    template = VMTemplate("d", vcpus=2, vfreq_mhz=500.0)
    for k in range(num_vms):
        vm = hv.provision(template, f"d-{k}")
        ctrl.register_vm(vm.name, 500.0)
        vm.set_uniform_demand(1.0)
    node.step(1.0)
    ctrl.tick(1.0)  # warm histories
    return node, ctrl


@pytest.mark.parametrize("num_vms", [16, 64, 128])
def test_controller_iteration_scaling(benchmark, num_vms):
    node, ctrl = _controller_host(num_vms)
    clock = {"t": 1.0}

    def one():
        node.step(1.0)
        clock["t"] += 1.0
        return ctrl.tick(clock["t"])

    report = benchmark(one)
    emit(
        render_table(
            ["vCPUs", "iteration cost"],
            [[num_vms * 2, f"{report.timings.total * 1e3:.2f} ms"]],
            title=f"controller iteration at {num_vms} VMs",
        )
    )
    # even the densest host stays a small fraction of the 1 s period
    assert report.timings.total < 0.25


def _stage25(timings):
    """Aggregate of the array stages (2 estimate .. 5 distribute).

    Stage 1 (monitoring) and 6 (enforcement) are kernel-surface bound;
    the structure-of-arrays stages are 2-5.
    """
    return timings.estimate + timings.credits + timings.auction + timings.distribute
