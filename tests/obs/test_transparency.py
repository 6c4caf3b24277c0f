"""The hub must be a pure observer: reports bit-identical on or off."""

import random

import pytest

from repro.checking.trace import _compare_reports
from repro.core.config import ControllerConfig
from repro.obs import Observability, ObsConfig
from repro.virt.template import VMTemplate
from tests.conftest import make_host

TICKS = 12


def run(engine, attach_obs):
    config = ControllerConfig.paper_evaluation(engine=engine)
    node, hv, ctrl = make_host(config=config)
    vms = []
    for k in range(3):
        vfreq = 500.0 + 200.0 * k
        vm = hv.provision(VMTemplate(f"t{k}", vcpus=1, vfreq_mhz=vfreq), f"vm-{k}")
        ctrl.register_vm(vm.name, vfreq)
        vms.append(vm)
    obs = None
    if attach_obs:
        obs = Observability.attach(ctrl, ObsConfig())
    rng = random.Random(99)
    for t in range(TICKS):
        for vm in vms:
            vm.set_uniform_demand(rng.random())
        node.step(1.0)
        ctrl.tick(float(t))
    return ctrl, obs


@pytest.mark.parametrize("engine", ["scalar", "bulk"])
def test_reports_identical_with_and_without_hub(engine):
    bare, _ = run(engine, attach_obs=False)
    hubbed, obs = run(engine, attach_obs=True)
    assert obs.ledger.ticks and obs.ring.spans  # the hub really observed
    for t, (a, b) in enumerate(zip(bare.reports, hubbed.reports)):
        diffs = _compare_reports(a, b, ("bare", "observed"), float(t))
        assert diffs == [], [str(v) for v in diffs]
        # _compare_reports skips timings/samples; pin the rest exactly.
        assert a.allocations == b.allocations
        assert a.free_shares == b.free_shares
        assert [s.consumed_cycles for s in a.samples] == [
            s.consumed_cycles for s in b.samples
        ]


def test_config_attached_hub_is_also_transparent():
    bare, _ = run("bulk", attach_obs=False)
    config = ControllerConfig.paper_evaluation(
        engine="bulk", observability=ObsConfig()
    )
    node, hv, ctrl = make_host(config=config)
    assert ctrl.obs is not None  # declarative wiring worked
    vms = []
    for k in range(3):
        vfreq = 500.0 + 200.0 * k
        vm = hv.provision(VMTemplate(f"t{k}", vcpus=1, vfreq_mhz=vfreq), f"vm-{k}")
        ctrl.register_vm(vm.name, vfreq)
        vms.append(vm)
    rng = random.Random(99)
    for t in range(TICKS):
        for vm in vms:
            vm.set_uniform_demand(rng.random())
        node.step(1.0)
        ctrl.tick(float(t))
    for t, (a, b) in enumerate(zip(bare.reports, ctrl.reports)):
        assert _compare_reports(a, b, ("bare", "configured"), float(t)) == []
