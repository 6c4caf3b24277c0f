"""Backend batching — syscall budget of the monitoring/enforcement path.

The paper reports monitoring as the dominant iteration cost (§IV-A2:
4 ms of a 5 ms loop).  The :class:`~repro.core.backend.HostBackend`
attacks exactly that term: the tid→cgroup topology is immutable between
VM churn events, so it is scanned once and cached (one listdir per tick
acts as the churn guard); per-core frequency reads are deduplicated
within a batch; and ``cpu.max`` rewrites of an unchanged quota are
skipped.  The test reference ``tests/core/backend_reference.py``
(``SeedBackend``) reproduces the seed access pattern — a full
directory walk plus per-vCPU tid/frequency reads and unconditional
writes — so the two backends are directly comparable on the same
workload.  The host runs the scalar engine: it reads through
``sample_all`` and writes through ``write_caps`` with no dirty mask, so
the backend governs both sides, while the bulk engine skips unchanged
quotas with its own dirty mask on either backend.

Three claims, all asserted:

* on a steady 8 VM x 4 vCPU host the batched backend issues strictly
  fewer kernel-surface operations per tick than the seed walk;
* batching changes *how* values are read, never the values: the full
  report stream of the Fig. 6 scenario is identical in both modes;
* under VM churn (a bulk-engine host losing one VM and gaining one
  every few ticks) the batched backend patches its cached topology: a
  churn tick reads ``cgroup.threads`` only for the arriving vCPUs, and
  the report stream is still identical to the seed walk's.

``BENCH_SMOKE=1`` shrinks both runs to a few ticks for CI.  Run from
the repository root (the seed reference is imported from ``tests``).
"""

import os

from repro.cgroups.fs import CgroupVersion
from repro.core.backend import HostBackend
from repro.core.config import ControllerConfig
from repro.core.controller import VirtualFrequencyController
from repro.hw.node import Node
from repro.hw.nodespecs import CHETEMI
from repro.sim.engine import Simulation
from repro.sim.report import render_table
from repro.virt.hypervisor import Hypervisor
from repro.virt.template import VMTemplate
from repro.workloads.base import attach
from repro.workloads.synthetic import ConstantWorkload
from tests.core.backend_reference import SeedBackend

from conftest import emit

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

NUM_VMS = 8
VCPUS = 4
TEMPLATE = VMTemplate("bench", vcpus=VCPUS, vfreq_mhz=1200.0)
#: Ticks measured after the warm-up tick (the batched mode pays its
#: one-off topology scan there, like a real controller would at boot).
TICKS = 3 if SMOKE else 20
FIG6_DURATION = 40.0 if SMOKE else 120.0


def _backend(node, batched):
    """The batched backend, or the seed's access pattern."""
    return (HostBackend if batched else SeedBackend)(
        node.fs, node.procfs, node.sysfs
    )


def _build_host(batched):
    node = Node(CHETEMI, cgroup_version=CgroupVersion.V2, seed=3)
    hypervisor = Hypervisor(node)
    controller = VirtualFrequencyController(
        node.fs,
        num_cpus=node.spec.logical_cpus,
        fmax_mhz=node.spec.fmax_mhz,
        config=ControllerConfig.paper_evaluation(engine="scalar"),
        backend=_backend(node, batched),
    )
    for k in range(NUM_VMS):
        vm = hypervisor.provision(TEMPLATE, f"bench-{k}")
        controller.register_vm(vm.name, TEMPLATE.vfreq_mhz)
        # Half the VMs run flat out, half idle along — so some quotas
        # converge (exercising the skip-unchanged path) while others
        # keep moving.
        attach(vm, ConstantWorkload(VCPUS, level=1.0 if k % 2 == 0 else 0.1))
    return node, hypervisor, controller


def _ops_per_tick(batched):
    node, hypervisor, controller = _build_host(batched)
    sim = Simulation(node, hypervisor, controller=controller, dt=0.5)
    sim.run(1.0)  # warm-up tick: topology scan + first quota writes
    before = controller.backend.stats.copy()
    sim.run(float(TICKS))
    delta = controller.backend.stats - before
    return delta, len(controller.reports) - 1


def test_batched_backend_issues_fewer_ops(once):
    def run():
        seed_ops, seed_ticks = _ops_per_tick(batched=False)
        batched_ops, batched_ticks = _ops_per_tick(batched=True)
        return seed_ops, seed_ticks, batched_ops, batched_ticks

    seed_ops, seed_ticks, batched_ops, batched_ticks = once(run)
    assert seed_ticks == batched_ticks > 0

    rows = []
    for op in ("fs_reads", "fs_writes", "fs_listdirs", "proc_reads", "sysfs_reads"):
        s = getattr(seed_ops, op) / seed_ticks
        b = getattr(batched_ops, op) / batched_ticks
        rows.append([op, f"{s:.1f}", f"{b:.1f}",
                     f"{(1 - b / s) * 100:.0f} %" if s else "-"])
    rows.append([
        "total",
        f"{seed_ops.total_ops / seed_ticks:.1f}",
        f"{batched_ops.total_ops / batched_ticks:.1f}",
        f"{(1 - batched_ops.total_ops / seed_ops.total_ops) * 100:.0f} %",
    ])
    emit(render_table(
        ["kernel-surface op", "seed walk /tick", "batched /tick", "saved"],
        rows,
        title=f"backend batching, {NUM_VMS} VMs x {VCPUS} vCPUs, {seed_ticks} ticks",
    ))

    # The acceptance bar: strictly fewer filesystem operations per tick.
    assert batched_ops.total_ops < seed_ops.total_ops
    # And each individually-targeted saving is real, not traded away:
    assert batched_ops.fs_listdirs < seed_ops.fs_listdirs  # churn guard
    assert batched_ops.fs_reads < seed_ops.fs_reads  # no per-vCPU tid re-read
    assert batched_ops.sysfs_reads < seed_ops.sysfs_reads  # per-core dedup
    assert batched_ops.fs_writes < seed_ops.fs_writes  # skip-unchanged
    assert batched_ops.cap_writes_skipped > 0


def _report_signature(report):
    return (
        report.t,
        tuple(report.samples),
        dict(report.decisions),
        dict(report.allocations),
        report.market_initial,
        report.auction,
        report.freely_distributed,
        dict(report.wallets),
    )


def _fig6_reports(batched):
    from repro.sim.scenario import eval1_chetemi

    scenario = eval1_chetemi(
        duration=FIG6_DURATION, time_scale=0.1, iterations=3, dt=0.5
    )
    sim = scenario.build(controlled=True)
    if not batched:
        # Before the first tick the controller's backend holds no state
        # yet: swap in the seed's access pattern for reads and writes.
        sim.controller.backend = _backend(sim.node, batched)
    sim.run(scenario.duration)
    return [_report_signature(r) for r in sim.controller.reports]


def test_reports_identical_to_seed_path(once):
    """Batching is an I/O optimisation only — every observed sample,
    decision and allocation of the Fig. 6 scenario is bit-identical
    (timings excluded: wall-clock necessarily differs)."""

    def run():
        return _fig6_reports(batched=False), _fig6_reports(batched=True)

    seed_reports, batched_reports = once(run)
    assert len(seed_reports) == len(batched_reports) > 0
    for seed_sig, batched_sig in zip(seed_reports, batched_reports):
        assert seed_sig == batched_sig
    emit(
        f"fig.6 report stream: {len(seed_reports)} iterations identical "
        f"between seed walk and batched backend"
    )


# -- churn: the cached topology is patched, not re-walked -------------------------

#: Ticks of the churn leg; every CHURN_EVERY-th one is a churn tick.
CHURN_TICKS = 9 if SMOKE else 45
CHURN_EVERY = 3


def _churn_run(batched):
    """A bulk-engine host that loses its oldest VM and gains a new one
    every CHURN_EVERY ticks.  Returns the report signatures and, per
    churn tick, (arriving vCPUs, vCPUs on the host, backend stats
    delta)."""
    node = Node(CHETEMI, cgroup_version=CgroupVersion.V2, seed=3)
    hypervisor = Hypervisor(node)
    controller = VirtualFrequencyController(
        node.fs,
        num_cpus=node.spec.logical_cpus,
        fmax_mhz=node.spec.fmax_mhz,
        config=ControllerConfig.paper_evaluation(engine="bulk"),
        backend=_backend(node, batched),
    )

    def arrive(k):
        # "churn-10" sorts between "churn-1" and "churn-2": arrivals
        # land mid-order, not only at the end of the slot list.
        vm = hypervisor.provision(TEMPLATE, f"churn-{k}")
        controller.register_vm(vm.name, TEMPLATE.vfreq_mhz)
        attach(vm, ConstantWorkload(VCPUS, level=1.0 if k % 2 == 0 else 0.1))

    for k in range(NUM_VMS):
        arrive(k)
    sim = Simulation(node, hypervisor, controller=controller, dt=0.5)
    sim.run(2.0)  # cold walk, then the steady fast path
    churn = []
    for tick in range(CHURN_TICKS):
        arriving = 0
        if tick % CHURN_EVERY == 0:
            wave = tick // CHURN_EVERY
            hypervisor.destroy(f"churn-{wave}")
            controller.unregister_vm(f"churn-{wave}")
            arrive(NUM_VMS + wave)
            arriving = VCPUS
        before = controller.backend.stats.copy()
        sim.run(1.0)
        if arriving:
            on_host = sum(len(vm.vcpus) for vm in hypervisor.vms)
            churn.append((arriving, on_host, controller.backend.stats - before))
    return [_report_signature(r) for r in controller.reports], churn


def test_churn_patches_topology(once):
    """A churn tick reads ``cgroup.threads`` only for the arriving
    vCPUs, with a report stream bit-identical to the seed walk's."""

    def run():
        return _churn_run(batched=False), _churn_run(batched=True)

    (seed_reports, seed_churn), (batched_reports, batched_churn) = once(run)
    assert len(seed_reports) == len(batched_reports) > 0
    for seed_sig, batched_sig in zip(seed_reports, batched_reports):
        assert seed_sig == batched_sig

    rows = []
    for (arriving, on_host, seed), (_, _, batched) in zip(seed_churn, batched_churn):
        # Every sampled vCPU costs one cpu.stat read; anything beyond
        # that is a cgroup.threads read.
        threads_reads = batched.fs_reads - on_host
        rows.append([str(on_host), str(arriving), str(seed.fs_reads),
                     str(batched.fs_reads), str(threads_reads),
                     str(batched.fs_listdirs), str(batched.topology_rescans)])
        assert batched.topology_rescans == 0
        assert threads_reads == arriving
        assert batched.fs_listdirs == 2  # the slice + the arriving VM
    assert batched_churn
    emit(render_table(
        ["vCPUs", "arriving", "seed fs reads", "batched fs reads",
         "cgroup.threads reads", "batched listdirs", "rescans"],
        rows,
        title=f"backend churn ticks, {NUM_VMS} VMs x {VCPUS} vCPUs, "
              f"one VM out + one in every {CHURN_EVERY} ticks",
    ))
