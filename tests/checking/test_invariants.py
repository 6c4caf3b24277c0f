"""Unit tests of the paper-equation oracles themselves.

Two directions: a correctly-driven host must stay silent (no false
positives), and a tampered report must trip exactly the oracle that
owns the broken equation (no false negatives).
"""

import pytest

from repro.cgroups.fs import CgroupVersion
from repro.checking.invariants import (
    INVARIANTS,
    InvariantChecker,
    InvariantViolationError,
    Violation,
    _make_context,
    check_enforcement,
    check_eq6_market,
    check_ledger,
)
from repro.core.config import ControllerConfig
from repro.core.metrics_export import render_controller
from repro.virt.template import VMTemplate
from repro.workloads.base import attach
from repro.workloads.synthetic import ConstantWorkload
from tests.conftest import make_host


def drive(ticks=6, engine="bulk", version=CgroupVersion.V2, **overrides):
    """Two busy single-vCPU VMs on the tiny host, checker armed."""
    config = ControllerConfig.paper_evaluation(engine=engine, **overrides)
    node, hv, ctrl = make_host(config=config, version=version)
    for k, vfreq in enumerate((600.0, 900.0)):
        vm = hv.provision(VMTemplate(f"t{k}", vcpus=1, vfreq_mhz=vfreq), f"vm-{k}")
        ctrl.register_vm(vm.name, vfreq)
        attach(vm, ConstantWorkload(1, level=0.9))
    checker = InvariantChecker(ctrl)
    for t in range(ticks):
        node.step(1.0)
        report = ctrl.tick(float(t))
        checker.check(report)
    return node, ctrl, checker


class TestCleanRuns:
    @pytest.mark.parametrize("engine", ["scalar", "bulk"])
    def test_no_false_positives(self, engine):
        _, ctrl, checker = drive(engine=engine)
        assert checker.checks_total == 6
        assert checker.violations_total == 0
        assert checker.last_violations == []

    def test_catalogue_is_stable(self):
        # Docs, metrics labels and repro files all refer to these names.
        assert list(INVARIANTS) == [
            "samples",
            "eq2_guarantee",
            "eq5_base_cap",
            "eq6_market",
            "free_distribution",
            "budget",
            "ledger",
            "enforcement",
            "resilience_fallback",
        ]


class TestTamperedReports:
    def test_allocation_tamper_trips_enforcement(self):
        _, ctrl, _ = drive()
        report = ctrl.reports[-1]
        path = next(iter(report.allocations))
        report.allocations[path] += 5000.0
        ctx = _make_context(ctrl, report, dict(report.wallets))
        names = {v.invariant for v in check_enforcement(ctx)}
        assert "enforcement" in names

    @pytest.mark.parametrize(
        "version", [CgroupVersion.V2, CgroupVersion.V1], ids=["v2", "v1"]
    )
    def test_quota_lost_on_disk_trips_enforcement(self, version):
        # The backend still records the quota it wrote; the oracle must
        # read the cgroup itself to see that the kernel lost it.
        node, ctrl, _ = drive(version=version)
        report = ctrl.reports[-1]
        path = next(iter(report.allocations))
        if version is CgroupVersion.V2:
            node.fs.write(f"{path}/cpu.max", "max 100000")
        else:
            node.fs.write(f"{path}/cpu.cfs_quota_us", "-1")
        ctx = _make_context(ctrl, report, dict(report.wallets))
        bad = check_enforcement(ctx)
        assert [v.path for v in bad] == [path]
        assert "max 100000" in bad[0].message

    def test_market_off_by_one_trips_eq6(self):
        _, ctrl, _ = drive()
        report = ctrl.reports[-1]
        report.market_initial += 1.0
        ctx = _make_context(ctrl, report, dict(report.wallets))
        assert any(
            v.invariant == "eq6_market" for v in check_eq6_market(ctx)
        )

    def test_negative_wallet_trips_ledger(self):
        _, ctrl, _ = drive()
        report = ctrl.reports[-1]
        vm = next(iter(report.wallets))
        report.wallets[vm] = -5.0
        ctx = _make_context(ctrl, report, dict(report.wallets))
        violations = check_ledger(ctx)
        assert any(
            v.invariant == "ledger" and "negative" in v.message
            for v in violations
        )


class TestInlineChecker:
    def test_config_flag_arms_the_oracle(self):
        _, ctrl, _ = drive(check_invariants=True)
        assert ctrl.invariant_checker is not None
        assert ctrl.invariant_checker.checks_total == 6
        assert ctrl.invariant_checker.violations_total == 0

    @pytest.mark.parametrize("engine", ["scalar", "bulk"])
    def test_reregistered_vm_starts_from_an_empty_wallet(self, engine):
        # An idle VM banks credits, is unregistered and registered again
        # under the same name between two ticks: its new wallet starts
        # at zero, and the ledger oracle must not expect the old one.
        config = ControllerConfig.paper_evaluation(
            engine=engine, check_invariants=True
        )
        node, hv, ctrl = make_host(config=config)
        vm = hv.provision(VMTemplate("t", vcpus=1, vfreq_mhz=600.0), "vm-0")
        ctrl.register_vm(vm.name, 600.0)
        for t in range(3):
            node.step(1.0)
            ctrl.tick(float(t))
        assert ctrl.ledger.balance("vm-0") > 0
        ctrl.unregister_vm("vm-0")
        ctrl.register_vm("vm-0", 600.0)
        node.step(1.0)
        ctrl.tick(3.0)
        assert ctrl.invariant_checker.violations_total == 0

    def test_violation_raises_out_of_tick(self, monkeypatch):
        import repro.core.controller as ctrl_mod

        def broken_market(total, allocations):
            from repro.core.auction import compute_market

            return compute_market(total, allocations) + 1.0

        config = ControllerConfig.paper_evaluation(
            engine="scalar", check_invariants=True
        )
        node, hv, ctrl = make_host(config=config)
        vm = hv.provision(VMTemplate("t", vcpus=1, vfreq_mhz=800.0), "vm-0")
        ctrl.register_vm(vm.name, 800.0)
        attach(vm, ConstantWorkload(1, level=1.0))
        monkeypatch.setattr(ctrl_mod, "compute_market", broken_market)
        node.step(1.0)
        with pytest.raises(InvariantViolationError) as excinfo:
            ctrl.tick(0.0)
        assert any(
            v.invariant == "eq6_market" for v in excinfo.value.violations
        )

    def test_metrics_render_counters(self):
        _, ctrl, _ = drive(check_invariants=True)
        out = render_controller(ctrl)
        assert "vfreq_invariant_checks_total 6" in out
        assert "vfreq_invariant_violations_total 0" in out

    def test_violation_str_names_the_site(self):
        v = Violation("budget", "over-sold", t=3.0, path="/x/vm-1/vcpu0")
        assert "t=3" in str(v)
        assert "budget" in str(v)
        assert "/x/vm-1/vcpu0" in str(v)
