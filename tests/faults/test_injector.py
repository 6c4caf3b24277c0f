"""Tests for the FaultInjector backend.

The headline guarantee is first: a controller running behind an
injector with an **empty plan** produces a bit-identical report stream
and identical backend stats compared to the bare backend.
"""

import pytest

from repro.cgroups.procfs import parse_stat_line
from repro.core.config import ControllerConfig
from repro.core.controller import VirtualFrequencyController
from repro.faults import ControllerCrash, FaultInjector, FaultPlan, FaultSpec
from repro.hw.node import Node
from repro.virt.hypervisor import Hypervisor
from repro.virt.template import VMTemplate
from tests.conftest import TINY

T = VMTemplate("fault", vcpus=1, vfreq_mhz=1200.0)


def injected_host(plan, *, vms=2, demand=0.8, seed=42):
    """Node + hypervisor + controller running behind a FaultInjector."""
    node = Node(TINY, seed=seed)
    hv = Hypervisor(node)
    injector = FaultInjector(plan, node.fs, node.procfs, node.sysfs)
    ctrl = VirtualFrequencyController(
        injector,
        num_cpus=TINY.logical_cpus,
        fmax_mhz=TINY.fmax_mhz,
        config=ControllerConfig.paper_evaluation(),
    )
    for k in range(vms):
        vm = hv.provision(T, f"{T.name}-{k}")
        ctrl.register_vm(vm.name, T.vfreq_mhz)
        vm.set_uniform_demand(demand)
    return node, hv, injector, ctrl


def bare_host(*, vms=2, demand=0.8, seed=42):
    node = Node(TINY, seed=seed)
    hv = Hypervisor(node)
    ctrl = VirtualFrequencyController(
        node.fs,
        node.procfs,
        node.sysfs,
        num_cpus=TINY.logical_cpus,
        fmax_mhz=TINY.fmax_mhz,
        config=ControllerConfig.paper_evaluation(),
    )
    for k in range(vms):
        vm = hv.provision(T, f"{T.name}-{k}")
        ctrl.register_vm(vm.name, T.vfreq_mhz)
        vm.set_uniform_demand(demand)
    return node, hv, ctrl


def drive(node, ctrl, ticks):
    reports = []
    for k in range(ticks):
        node.step(1.0)
        reports.append(ctrl.tick(float(k + 1)))
    return reports


def signature(report):
    """Everything one iteration decided, minus wall-clock timings."""
    return (
        report.t,
        tuple(report.samples),
        dict(report.decisions),
        dict(report.allocations),
        report.market_initial,
        report.auction,
        report.freely_distributed,
        dict(report.wallets),
        dict(report.degraded),
    )


class TestEmptyPlanIsFree:
    def test_bit_identical_reports_and_stats(self):
        """The acceptance criterion: an empty plan changes nothing."""
        node_a, _, ctrl_a = bare_host()
        node_b, _, injector, ctrl_b = injected_host(FaultPlan())
        bare = drive(node_a, ctrl_a, 8)
        faulted = drive(node_b, ctrl_b, 8)
        assert [signature(r) for r in bare] == [signature(r) for r in faulted]
        assert ctrl_a.backend.stats.as_dict() == injector.stats.as_dict()
        assert injector.injected == {}

    def test_empty_plan_never_consumes_rng(self):
        plan = FaultPlan(seed=5)
        node, _, injector, ctrl = injected_host(plan)
        drive(node, ctrl, 4)
        assert plan._rng.random() == FaultPlan(seed=5)._rng.random()


class TestArmedPlanKeepsTheView:
    def test_scan_reuses_paths_so_the_view_is_kept(self, monkeypatch):
        """A plan armed only from tick 1000 already forces the per-file
        scan.  While the scan sees the same vCPUs it hands out the same
        ``paths`` list, so the bulk view is built as rarely as on the
        fast path, and nothing else changes."""
        runs = []
        armed = FaultPlan([FaultSpec("read_error", start_tick=1000)])
        for plan in (FaultPlan(), armed):
            node, _, injector, ctrl = injected_host(plan)
            calls = []
            ingest = ctrl._table.ingest

            def counted(*args, **kwargs):
                calls.append(1)
                return ingest(*args, **kwargs)

            monkeypatch.setattr(ctrl._table, "ingest", counted)
            reports = drive(node, ctrl, 10)
            runs.append(([signature(r) for r in reports], len(calls)))
        assert not injector._direct_io_ok()  # the armed run scanned
        (empty, empty_calls), (scanned, scanned_calls) = runs
        assert empty_calls <= 2
        assert scanned_calls <= 2
        assert scanned == empty


class TestFaultKinds:
    def test_read_error_failfast_raises(self):
        plan = FaultPlan([FaultSpec("read_error", "*/cpu.stat")])
        node, _, injector, ctrl = injected_host(plan)
        node.step(1.0)
        with pytest.raises(OSError):
            ctrl.tick(1.0)

    def test_read_error_tolerant_skips_vcpu(self):
        plan = FaultPlan(
            [FaultSpec("read_error", "*/fault-0/vcpu0/cpu.stat")]
        )
        node, _, injector, ctrl = injected_host(plan)
        injector.tolerate_errors = True
        node.step(1.0)
        report = ctrl.tick(1.0)
        observed = {s.vm_name for s in report.samples}
        assert observed == {"fault-1"}
        assert injector.stats.read_errors == 1
        assert injector.stats.vcpu_skips == 1
        assert injector.injected["read_error"] == 1

    def test_freeze_serves_stale_content(self):
        plan = FaultPlan([FaultSpec("freeze", "*/fault-0/vcpu0/cpu.stat")])
        node, hv, injector, _ = injected_host(plan)
        injector.tick_index = 0
        path = "/machine.slice/fault-0/vcpu0/cpu.stat"
        node.step(1.0)
        first = injector.read_file(path)
        node.step(1.0)  # the real counter advances...
        assert node.fs.read(path) != first
        assert injector.read_file(path) == first  # ...the frozen one doesn't
        assert injector.injected["freeze"] == 1

    def test_tid_vanish(self):
        plan = FaultPlan([FaultSpec("tid_vanish", "tid:*")])
        node, _, injector, _ = injected_host(plan)
        injector.tick_index = 0
        tid = int(
            node.fs.read("/machine.slice/fault-0/vcpu0/cgroup.threads").split()[0]
        )
        with pytest.raises(ProcessLookupError):
            injector.read_thread_stat(tid)
        assert injector.injected["tid_vanish"] == 1

    def test_tid_reuse_returns_foreign_thread(self):
        plan = FaultPlan([FaultSpec("tid_reuse", "tid:*")])
        node, _, injector, _ = injected_host(plan)
        injector.tick_index = 0
        tid = int(
            node.fs.read("/machine.slice/fault-0/vcpu0/cgroup.threads").split()[0]
        )
        stat = parse_stat_line(injector.read_thread_stat(tid))
        assert stat.tid == tid  # the number was reused...
        assert stat.comm == "not-a-vcpu"  # ...by somebody else
        assert stat.processor == 0

    def test_freq_error_targets_one_core(self):
        plan = FaultPlan([FaultSpec("freq_error", "core:0")])
        node, _, injector, _ = injected_host(plan)
        injector.tick_index = 0
        with pytest.raises(OSError):
            injector.core_freq_khz(0)
        assert injector.core_freq_khz(1) > 0
        assert injector.injected["freq_error"] == 1

    def test_write_error_lands_in_last_write_errors(self):
        plan = FaultPlan([FaultSpec("write_error", "*/cpu.max", error="EBUSY")])
        node, _, injector, _ = injected_host(plan)
        injector.tolerate_errors = True
        injector.tick_index = 0
        path = "/machine.slice/fault-0/vcpu0"
        missed = injector.write_caps([path], [50_000], 100_000)
        assert missed == [0]
        assert path in injector.last_write_errors
        assert injector.stats.write_errors == 1

    def test_write_error_failfast_raises(self):
        plan = FaultPlan([FaultSpec("write_error", "*/cpu.max")])
        node, _, injector, _ = injected_host(plan)
        injector.tick_index = 0
        with pytest.raises(OSError):
            injector.write_caps(["/machine.slice/fault-0/vcpu0"], [50_000], 100_000)

    def test_clock_jitter_fires_every_tick(self):
        plan = FaultPlan([FaultSpec("clock_jitter", "tick", jitter_frac=0.1)])
        node, _, injector, ctrl = injected_host(plan)
        drive(node, ctrl, 3)
        assert injector.injected["clock_jitter"] == 3

    def test_crash_at_monitor_boundary(self):
        plan = FaultPlan(
            [FaultSpec("crash", "stage:monitor", start_tick=1, end_tick=2)]
        )
        node, _, injector, ctrl = injected_host(plan)
        node.step(1.0)
        ctrl.tick(1.0)  # tick 0: fine
        node.step(1.0)
        with pytest.raises(ControllerCrash):
            ctrl.tick(2.0)  # tick 1: dies at the stage boundary
        assert injector.injected["crash"] == 1

    def test_crash_is_not_an_oserror(self):
        """Resilience policies absorb OSErrors; a crash must escape even
        a tolerant backend."""
        assert not issubclass(ControllerCrash, OSError)

    def test_crash_at_enforce_boundary(self):
        plan = FaultPlan([FaultSpec("crash", "stage:enforce")])
        node, _, injector, ctrl = injected_host(plan)
        node.step(1.0)
        with pytest.raises(ControllerCrash):
            ctrl.tick(1.0)

