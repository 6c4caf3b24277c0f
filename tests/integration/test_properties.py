"""Whole-loop property tests: invariants of one controller iteration
under arbitrary demand patterns (hypothesis-driven).

Scenarios are drawn from the shared :mod:`tests.strategies` composites:
heterogeneous per-VM demand levels *and* guarantees (not one value
stamped across the fleet), always Eq. 7-admissible, and run under both
controller engines.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.config import ControllerConfig
from repro.core.units import cycles_per_period, guaranteed_cycles
from repro.sim.engine import Simulation
from repro.virt.template import VMTemplate
from repro.workloads.base import attach
from repro.workloads.synthetic import ConstantWorkload
from tests.conftest import TINY, make_host
from tests.strategies import engines, vm_fleets


def run_host(fleet, seconds=20.0, engine="bulk", **config_overrides):
    """fleet is a list of (level, vfreq) pairs, one single-vCPU VM each."""
    config = ControllerConfig.paper_evaluation(
        engine=engine, **config_overrides
    )
    node, hv, ctrl = make_host(config=config)
    for k, (level, vfreq) in enumerate(fleet):
        template = VMTemplate(f"t{k}", vcpus=1, vfreq_mhz=vfreq)
        vm = hv.provision(template, f"vm-{k}")
        ctrl.register_vm(vm.name, vfreq)
        attach(vm, ConstantWorkload(1, level=level))
    sim = Simulation(node, hv, controller=ctrl, dt=0.5)
    sim.run(seconds)
    return node, ctrl


class TestControllerInvariants:
    @given(fleet=vm_fleets(), engine=engines)
    @settings(max_examples=12, deadline=None)
    def test_total_allocation_never_exceeds_budget(self, fleet, engine):
        node, ctrl = run_host(fleet, seconds=10.0, engine=engine)
        budget = cycles_per_period(1.0, TINY.logical_cpus)
        for report in ctrl.reports:
            assert sum(report.allocations.values()) <= budget + 1e-6

    @given(fleet=vm_fleets(), engine=engines)
    @settings(max_examples=12, deadline=None)
    def test_wallets_never_negative(self, fleet, engine):
        _, ctrl = run_host(fleet, seconds=10.0, engine=engine)
        for report in ctrl.reports:
            for balance in report.wallets.values():
                assert balance >= -1e-9

    @given(fleet=vm_fleets(), engine=engines)
    @settings(max_examples=12, deadline=None)
    def test_allocations_bounded_by_one_core(self, fleet, engine):
        _, ctrl = run_host(fleet, seconds=10.0, engine=engine)
        for report in ctrl.reports:
            for cycles in report.allocations.values():
                assert 0.0 <= cycles <= 1e6 + 1e-6

    @given(fleet=vm_fleets(), engine=engines)
    @settings(max_examples=8, deadline=None)
    def test_inline_oracles_hold(self, fleet, engine):
        """The full repro.checking catalogue, armed inline via
        ``check_invariants=True``, stays silent on any admissible
        fleet — a violation raises InvariantViolationError out of
        ``Simulation.run``."""
        _, ctrl = run_host(
            fleet, seconds=10.0, engine=engine, check_invariants=True
        )
        assert ctrl.invariant_checker is not None
        assert ctrl.invariant_checker.violations_total == 0
        assert ctrl.invariant_checker.checks_total == len(ctrl.reports)


class TestGuaranteeUnderFullContention:
    def test_every_busy_vm_reaches_guarantee(self):
        """With everything saturated and Eq. 7 satisfied, steady-state
        allocations must cover each VM's C_i."""
        fleet = [(1.0, 2300.0)] * 4  # 9200 <= 9600
        node, ctrl = run_host(fleet, seconds=30.0)
        report = ctrl.reports[-1]
        for path, cycles in report.allocations.items():
            need = guaranteed_cycles(1.0, 2300.0, 2400.0)
            assert cycles >= need * 0.95, path

    def test_work_conservation_no_idle_cycles_under_demand(self):
        """Anti-waste: when total demand exceeds capacity, the market must
        end (almost) empty — leftover cycles would be pure waste."""
        fleet = [(1.0, 2300.0)] * 4
        _, ctrl = run_host(fleet, seconds=30.0)
        report = ctrl.reports[-1]
        budget = cycles_per_period(1.0, TINY.logical_cpus)
        allocated = sum(report.allocations.values())
        # 4 single-vCPU VMs can use at most 4 cores of the 4-core node
        assert allocated >= budget * 0.95
