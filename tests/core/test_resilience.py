"""Tests for the degraded-mode resilience layer in the controller.

Faults are injected with :class:`repro.faults.FaultInjector`; the
assertions are about the *defensive* half: stale-sample carry-forward,
degraded-mode fallback caps, recovery accounting, and bounded write
retries.
"""

import pytest

from repro.checking.trace import _compare_reports
from repro.core.config import ControllerConfig
from repro.core.controller import VirtualFrequencyController
from repro.core.metrics_export import render_controller
from repro.core.resilience import ResiliencePolicy
from repro.core.units import guaranteed_cycles
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.hw.node import Node
from repro.virt.hypervisor import Hypervisor
from repro.virt.template import VMTemplate
from tests.conftest import TINY

T = VMTemplate("res", vcpus=1, vfreq_mhz=1200.0)
VCPU0 = "/machine.slice/res-0/vcpu0"


def resilient_host(plan, policy, *, vms=2, seed=42, engine="bulk"):
    node = Node(TINY, seed=seed)
    hv = Hypervisor(node)
    injector = FaultInjector(plan, node.fs, node.procfs, node.sysfs)
    ctrl = VirtualFrequencyController(
        injector,
        num_cpus=TINY.logical_cpus,
        fmax_mhz=TINY.fmax_mhz,
        config=ControllerConfig.paper_evaluation(engine=engine),
        resilience=policy,
    )
    for k in range(vms):
        vm = hv.provision(T, f"{T.name}-{k}")
        ctrl.register_vm(vm.name, T.vfreq_mhz)
        vm.set_uniform_demand(0.8)
    return node, hv, injector, ctrl


def drive(node, ctrl, ticks, start=0):
    reports = []
    for k in range(start, start + ticks):
        node.step(1.0)
        reports.append(ctrl.tick(float(k + 1)))
    return reports


class TestPolicyValidation:
    def test_defaults_valid(self):
        p = ResiliencePolicy()
        assert p.degraded_action == "guarantee"

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(write_retries=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(degraded_after_ticks=0)
        with pytest.raises(ValueError):
            ResiliencePolicy(degraded_action="panic")


class TestStaleCarryForward:
    def test_transient_occlusion_is_bridged(self):
        """A vCPU unreadable for <= stale_sample_max_age ticks keeps
        appearing in reports (carried forward), never goes degraded."""
        plan = FaultPlan(
            [FaultSpec("read_error", f"*{VCPU0}/cpu.stat",
                       start_tick=3, end_tick=5)]
        )
        policy = ResiliencePolicy(stale_sample_max_age=2, degraded_after_ticks=3)
        node, _, injector, ctrl = resilient_host(plan, policy)
        reports = drive(node, ctrl, 8)
        for r in reports:
            assert {s.vm_name for s in r.samples} == {"res-0", "res-1"}
            assert not r.degraded
        assert ctrl.resilience_stats.stale_samples_used == 2
        assert ctrl.resilience_stats.degraded_transitions == 0
        assert injector.injected["read_error"] == 2

    def test_no_policy_means_no_carry(self):
        """Without a resilience policy stage 1 is the seed's: nothing is
        carried forward and read errors are not absorbed."""
        node = Node(TINY, seed=42)
        ctrl = VirtualFrequencyController(
            node.fs, node.procfs, node.sysfs,
            num_cpus=TINY.logical_cpus, fmax_mhz=TINY.fmax_mhz,
        )
        assert ctrl.resilience is None
        assert ctrl._stale is None
        assert ctrl.backend.tolerate_errors is False


class TestDegradedMode:
    OCCLUDE = [FaultSpec("read_error", f"*{VCPU0}/cpu.stat",
                         start_tick=2, end_tick=9)]

    def test_unobservable_vcpu_falls_back_to_guarantee(self):
        policy = ResiliencePolicy(stale_sample_max_age=1, degraded_after_ticks=3)
        node, _, injector, ctrl = resilient_host(FaultPlan(self.OCCLUDE), policy)
        reports = drive(node, ctrl, 8)
        degraded = [r for r in reports if r.degraded]
        assert degraded, "occlusion never triggered degraded mode"
        expected = guaranteed_cycles(1.0, T.vfreq_mhz, TINY.fmax_mhz)
        for r in degraded:
            assert r.degraded == {VCPU0: pytest.approx(expected)}
            assert r.allocations[VCPU0] == pytest.approx(expected)
        assert ctrl.resilience_stats.degraded_transitions == 1
        assert ctrl.degraded_vcpus == 1

    def test_hold_action_keeps_last_cap(self):
        policy = ResiliencePolicy(
            stale_sample_max_age=1, degraded_after_ticks=3,
            degraded_action="hold",
        )
        node, _, injector, ctrl = resilient_host(FaultPlan(self.OCCLUDE), policy)
        reports = drive(node, ctrl, 8)
        degraded = [r for r in reports if r.degraded]
        assert degraded
        held = ctrl._current_cap[VCPU0]
        assert degraded[-1].degraded[VCPU0] == pytest.approx(held)

    def test_recovery_is_counted_with_latency(self):
        policy = ResiliencePolicy(stale_sample_max_age=1, degraded_after_ticks=3)
        node, _, injector, ctrl = resilient_host(FaultPlan(self.OCCLUDE), policy)
        reports = drive(node, ctrl, 12)  # window ends at tick 9
        stats = ctrl.resilience_stats
        assert stats.recoveries == 1
        assert stats.last_recovery_ticks >= 1
        assert ctrl.degraded_vcpus == 0
        assert not reports[-1].degraded
        # back to normal estimation for the recovered vCPU
        assert VCPU0 in reports[-1].allocations

    def test_healthy_vm_unaffected_throughout(self):
        policy = ResiliencePolicy(stale_sample_max_age=1, degraded_after_ticks=3)
        node, _, injector, ctrl = resilient_host(FaultPlan(self.OCCLUDE), policy)
        reports = drive(node, ctrl, 12)
        for r in reports:
            assert any(s.vm_name == "res-1" for s in r.samples)
            assert "/machine.slice/res-1/vcpu0" in r.allocations

    @pytest.mark.parametrize("stale_age,after", [(3, 1), (2, 2)])
    def test_engines_agree_when_degraded_vcpu_keeps_a_sample(
        self, stale_age, after
    ):
        """With ``degraded_after_ticks <= stale_sample_max_age`` a
        degraded vCPU still has a carried-forward sample; both engines
        cap it once, at its fallback, with the same writes."""
        runs = []
        for engine in ("scalar", "bulk"):
            policy = ResiliencePolicy(
                stale_sample_max_age=stale_age, degraded_after_ticks=after
            )
            node, _, injector, ctrl = resilient_host(
                FaultPlan(self.OCCLUDE), policy, engine=engine
            )
            runs.append((drive(node, ctrl, 14), injector.stats.fs_writes))
        (scalar, writes_scalar), (bulk, writes_bulk) = runs
        assert any(r.degraded for r in scalar)
        for t, (a, b) in enumerate(zip(scalar, bulk)):
            assert _compare_reports(a, b, ("scalar", "bulk"), float(t)) == []
        assert writes_scalar == writes_bulk

    @pytest.mark.parametrize("engine", ["scalar", "bulk"])
    def test_degrades_without_carry_forward(self, engine):
        """``stale_sample_max_age=0`` carries nothing forward, yet a
        vCPU that stays unobservable still enters degraded mode."""
        policy = ResiliencePolicy(stale_sample_max_age=0, degraded_after_ticks=2)
        node, _, injector, ctrl = resilient_host(
            FaultPlan(self.OCCLUDE), policy, engine=engine
        )
        reports = drive(node, ctrl, 8)
        stats = ctrl.resilience_stats
        assert stats.degraded_transitions == 1
        assert stats.stale_samples_used == 0
        assert any(VCPU0 in r.degraded for r in reports)

    def test_unregistered_vm_never_degrades(self):
        policy = ResiliencePolicy(stale_sample_max_age=1, degraded_after_ticks=2)
        node, _, injector, ctrl = resilient_host(FaultPlan(self.OCCLUDE), policy)
        drive(node, ctrl, 4)
        ctrl.unregister_vm("res-0")
        drive(node, ctrl, 4, start=4)
        assert ctrl.degraded_vcpus == 0


class TestWriteRetry:
    def test_persistent_write_failure_is_bounded(self):
        plan = FaultPlan(
            [FaultSpec("write_error", f"*{VCPU0}/cpu.max", error="EBUSY")]
        )
        policy = ResiliencePolicy(write_retries=2)
        node, _, injector, ctrl = resilient_host(plan, policy)
        drive(node, ctrl, 3)
        stats = ctrl.resilience_stats
        assert stats.write_retries > 0
        assert stats.write_failures > 0
        # the enforcer saw exactly 1 original + 2 retries per tick
        assert injector.injected["write_error"] == 3 * (1 + policy.write_retries)

    def test_transient_write_failure_recovers_in_tick(self):
        plan = FaultPlan(
            [FaultSpec("write_error", f"*{VCPU0}/cpu.max",
                       error="EBUSY", probability=0.5)],
            seed=0,
        )
        policy = ResiliencePolicy(write_retries=4)
        node, _, injector, ctrl = resilient_host(plan, policy)
        drive(node, ctrl, 6)
        stats = ctrl.resilience_stats
        assert injector.injected.get("write_error", 0) > 0
        assert stats.write_retries > 0
        # with 4 retries at p=0.5 every tick's write lands eventually
        assert stats.write_failures == 0
        assert ctrl._current_cap[VCPU0] > 0


class TestResilienceMetrics:
    def test_prometheus_export_includes_fault_surface(self):
        plan = FaultPlan(
            [FaultSpec("read_error", f"*{VCPU0}/cpu.stat",
                       start_tick=2, end_tick=9)]
        )
        policy = ResiliencePolicy(stale_sample_max_age=1, degraded_after_ticks=3)
        node, _, injector, ctrl = resilient_host(plan, policy)
        drive(node, ctrl, 6)
        text = render_controller(ctrl)
        assert 'vfreq_resilience_events_total{event="degraded_transitions"} 1' in text
        assert "vfreq_degraded_vcpus 1" in text
        assert 'vfreq_faults_injected_total{kind="read_error"}' in text
        assert "vfreq_recovery_latency_ticks" in text
