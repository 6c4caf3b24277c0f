"""Snapshot round-trips under an active FaultPlan (ISSUE 4, satellite 3).

The controller's carry-forward cache (its ``StaleSamples``: last-seen
rows and missing ages) is deliberately NOT part of the snapshot schema: a stale sample is a
claim about the *previous process's* last observation, and restoring it
would let the new controller re-serve (double-apply) a consumption
sample that the old controller already accrued credits for.  These
tests pin that behaviour down mid-fault, where the cache is hot.
"""

import json

from repro.checking import Trace, replay
from repro.checking.invariants import InvariantChecker
from repro.core.config import ControllerConfig
from repro.core.controller import VirtualFrequencyController
from repro.core.resilience import ResiliencePolicy
from repro.core.snapshot import restore, snapshot
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.hw.node import Node
from repro.virt.hypervisor import Hypervisor
from repro.virt.template import VMTemplate
from tests.conftest import TINY


def _host_with_fault_window(start=2, end=8):
    """One busy VM behind an injector that blanks cpu.stat in [start, end)."""
    node = Node(TINY, seed=7)
    hv = Hypervisor(node)
    plan = FaultPlan(
        [
            FaultSpec(
                "read_error",
                "*/cpu.stat",
                start_tick=start,
                end_tick=end,
                probability=1.0,
                error="EIO",
            )
        ]
    )
    backend = FaultInjector(plan, node.fs, node.procfs, node.sysfs)
    config = ControllerConfig.paper_evaluation(
        resilience=ResiliencePolicy(
            stale_sample_max_age=2, degraded_after_ticks=3
        )
    )
    ctrl = VirtualFrequencyController(
        backend,
        num_cpus=TINY.logical_cpus,
        fmax_mhz=TINY.fmax_mhz,
        config=config,
    )
    vm = hv.provision(VMTemplate("t", vcpus=1, vfreq_mhz=800.0), "vm-0")
    ctrl.register_vm(vm.name, 800.0)
    vm.set_uniform_demand(1.0)
    return node, ctrl, backend


def _tick(node, ctrl, t):
    node.step(1.0)
    return ctrl.tick(float(t))


class TestRestoreMidFault:
    def test_carried_stale_samples_not_double_applied(self):
        """At the restore boundary the carry-forward cache is dropped:
        the faulted path must vanish from the sample stream instead of
        being served stale a second time by the new instance."""
        node, ctrl, backend = _host_with_fault_window(start=2, end=8)
        for t in range(3):
            report = _tick(node, ctrl, t)
        # Tick 2 was inside the window: the sample was served stale.
        assert ctrl._stale.last_carried == 1
        stale_path = ctrl._stale._seen.paths[0]
        state = snapshot(ctrl)

        restored = VirtualFrequencyController(
            backend,
            num_cpus=TINY.logical_cpus,
            fmax_mhz=TINY.fmax_mhz,
            config=ctrl.config,
        )
        restore(restored, state)
        # The cache did not survive the snapshot...
        assert restored._stale._seen.paths == []
        assert restored._stale.missing_ages() == {}
        # ...so the next in-window tick has nothing to re-serve: the
        # faulted path is absent rather than double-applied.
        report = _tick(node, restored, 3)
        assert restored._stale.last_carried == 0
        assert all(s.cgroup_path != stale_path for s in report.samples)

    def test_wallet_not_inflated_by_restore(self):
        """Accrual stops at the restore until the vCPU is re-observed:
        the restored run's wallet never exceeds the uninterrupted run's
        (a double-applied stale sample would accrue extra credits)."""
        ticks = 10
        node_a, ctrl_a, _ = _host_with_fault_window()
        for t in range(ticks):
            _tick(node_a, ctrl_a, t)

        node_b, ctrl_b, backend_b = _host_with_fault_window()
        for t in range(3):
            _tick(node_b, ctrl_b, t)
        state = snapshot(ctrl_b)
        ctrl_b2 = VirtualFrequencyController(
            backend_b,
            num_cpus=TINY.logical_cpus,
            fmax_mhz=TINY.fmax_mhz,
            config=ctrl_b.config,
        )
        restore(ctrl_b2, state)
        for t in range(3, ticks):
            _tick(node_b, ctrl_b2, t)

        wallet_plain = ctrl_a.ledger.balance("vm-0")
        wallet_restored = ctrl_b2.ledger.balance("vm-0")
        assert wallet_restored <= wallet_plain + 1e-6

    def test_invariants_hold_through_restore_mid_fault(self):
        """The full oracle catalogue (with resync at the restore) stays
        silent across snapshot/restore inside the fault window."""
        node, ctrl, backend = _host_with_fault_window()
        checker = InvariantChecker(ctrl)
        for t in range(4):
            checker_violations = checker.check(_tick(node, ctrl, t))
            assert checker_violations == []
        state = snapshot(ctrl)
        restored = VirtualFrequencyController(
            backend,
            num_cpus=TINY.logical_cpus,
            fmax_mhz=TINY.fmax_mhz,
            config=ctrl.config,
        )
        restore(restored, state)
        checker = InvariantChecker(restored)
        for t in range(4, 12):
            assert checker.check(_tick(node, restored, t)) == []

    def test_snapshot_roundtrip_json_stable_mid_fault(self):
        """The snapshot serialises cleanly mid-fault (degraded state and
        stale ages are process-local, not schema fields)."""
        node, ctrl, _ = _host_with_fault_window()
        for t in range(5):
            _tick(node, ctrl, t)
        state = snapshot(ctrl)
        assert json.loads(json.dumps(state)) == state
        assert "prev_usage" in state and "wallets" in state

    def test_trace_harness_covers_restart_in_window(self):
        """The same property end-to-end via the fuzzer's replay harness,
        under both engines with cross-engine identity checked."""
        header = Trace.make_header(
            seed=5,
            resilience=True,
            fault_plan={
                "seed": 0,
                "specs": [
                    {
                        "kind": "read_error",
                        "target": "*/cpu.stat",
                        "start_tick": 2,
                        "end_tick": 8,
                        "probability": 1.0,
                        "error": "EIO",
                        "jitter_frac": 0.0,
                    }
                ],
            },
        )
        events = [
            {"kind": "provision", "vm": "vm-0", "vcpus": 1, "vfreq": 700.0},
            {"kind": "demand", "vm": "vm-0", "level": 1.0},
        ]
        for t in range(12):
            if t == 4:  # inside the fault window, cache hot
                events.append({"kind": "restart"})
            events.append({"kind": "tick"})
        result = replay(Trace(header=header, events=events), stop_at_first=False)
        assert result.ok, [str(v) for v in result.violations]
