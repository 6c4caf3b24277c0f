"""Shared driver for the observability tests: a busy mini-host."""

from __future__ import annotations

import random

from repro.core.config import ControllerConfig
from repro.obs import Observability, ObsConfig
from repro.virt.template import VMTemplate
from tests.conftest import make_host


def drive_host(
    ticks=8,
    *,
    vms=2,
    engine="bulk",
    obs_config=None,
    seed=7,
    config_overrides=None,
):
    """Provision ``vms`` busy VMs, attach a hub, run ``ticks`` ticks.

    Returns ``(node, ctrl, obs)``; demand is seeded-random per tick so
    the auction and free-distribution stages both do real work.
    """
    overrides = dict(config_overrides or {})
    config = ControllerConfig.paper_evaluation(engine=engine, **overrides)
    node, hv, ctrl = make_host(config=config)
    vm_objs = []
    for k in range(vms):
        vfreq = 600.0 + 300.0 * k
        vm = hv.provision(VMTemplate(f"t{k}", vcpus=2, vfreq_mhz=vfreq), f"vm-{k}")
        ctrl.register_vm(vm.name, vfreq)
        vm_objs.append(vm)
    obs = Observability.attach(
        ctrl, obs_config if obs_config is not None else ObsConfig()
    )
    rng = random.Random(seed)
    for t in range(ticks):
        for vm in vm_objs:
            vm.set_uniform_demand(0.3 + 0.7 * rng.random())
        node.step(1.0)
        ctrl.tick(float(t + 1))
    return node, ctrl, obs
