"""Scaling micro-benches: scheduler tick, whole-host step and controller
iteration cost as the host and its vCPU population grow.

The paper's controller must stay a negligible fraction of its 1 s
period on dense hosts ("it must consume as little as possible CPU
time", §III-B2).  These benches pin the per-iteration cost at three
population sizes and assert sane growth (roughly linear in vCPUs —
the fair-share core is O(n log n)).
"""

from dataclasses import replace

import pytest

from repro.cgroups.fs import CgroupFS, CgroupVersion
from repro.hw.nodespecs import CHICLET, spec_by_name
from repro.sched.cfs import CfsScheduler
from repro.sched.entity import SchedEntity
from repro.sim.report import render_table
from repro.virt.template import LARGE, SMALL

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
    dt = 0.5
    benchmark(scheduler.schedule, entities, dt)
    # every thread wants a full core: the tick grants min(capacity, demand)
    granted = sum(e.allocated for e in entities)
    assert granted == pytest.approx(min(64 * dt, len(entities) * dt))


#: Host sizes of the three perfbench workloads, each under a loaded
#: eval1-style mix: ``fleet``'s one-CCX host (4 logical CPUs), chetemi
#: (40, ``churn``) and chiclet (64, ``dense``).
_NODE_SIZES = {
    4: ("chiclet-ccx", ((SMALL, 2), (LARGE, 1))),
    40: ("chetemi", ((SMALL, 20), (LARGE, 10))),
    64: ("chiclet", ((SMALL, 32), (LARGE, 16))),
}


def _loaded_node(cpus):
    from repro.core.config import ControllerConfig
    from repro.core.controller import VirtualFrequencyController
    from repro.hw.node import Node
    from repro.virt.hypervisor import Hypervisor

    name, mix = _NODE_SIZES[cpus]
    spec = spec_by_name(name) if name != "chiclet-ccx" else replace(
        CHICLET, name=name, sockets=1, cores_per_socket=2, memory_mb=16 * 1024
    )
    node = Node(spec, seed=1)
    hv = Hypervisor(node, enforce_admission=False)
    ctrl = VirtualFrequencyController(
        node.fs, node.procfs, node.sysfs,
        num_cpus=spec.logical_cpus, fmax_mhz=spec.fmax_mhz,
        config=ControllerConfig.paper_evaluation(),
    )
    ctrl.keep_reports = False
    for template, count in mix:
        for k in range(count):
            vm = hv.provision(template, f"{template.name}-{k}")
            ctrl.register_vm(vm.name, template.vfreq_mhz)
            vm.set_uniform_demand(1.0)
    # A few controller periods write the caps, so the scheduler takes
    # the capped path it takes under the controller.
    for t in range(1, 4):
        node.step(1.0)
        ctrl.tick(float(t))
    return node


@pytest.mark.parametrize("cpus", sorted(_NODE_SIZES))
def test_node_step_scaling(benchmark, cpus):
    """One ``Node.step``: scheduler, placement, DVFS, /proc, sysfs, energy."""
    node = _loaded_node(cpus)
    benchmark(node.step, 1.0)
    emit(
        render_table(
            ["logical CPUs", "threads", "Node.step p50"],
            [[cpus, len(node.entities), f"{benchmark.stats.stats.median * 1e6:.1f} us"]],
            title=f"host step at {cpus} logical CPUs",
        )
    )
    freqs = node.dvfs.freqs_mhz
    assert freqs.min() >= node.spec.fmin_mhz and freqs.max() <= node.spec.fmax_mhz
    assert sum(e.allocated for e in node.entities) <= cpus * 1.0 + 1e-9


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
