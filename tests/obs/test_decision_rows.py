"""One decision walk per tick, shared by every tick observer.

:func:`repro.obs.ledger.decision_rows` is the only code that turns a
finished report into per-vCPU rows.  With the hub, a billing engine and
an SLO plane attached it must still run once per tick, and the cluster
SLO path must read each controller's own metered tick.
"""

import random

import pytest

import repro.obs.ledger as ledger_mod
from repro.billing import BillingEngine
from repro.checking.trace import ENGINES
from repro.core.config import ControllerConfig
from repro.obs.config import ObsConfig
from repro.obs.hub import Observability
from repro.obs.slo import SLOConfig, SLOPlane
from repro.obs.tsdb import (
    S_CREDITS_USD,
    S_DEADLINE_CHECKS,
    S_GUARANTEE_CHECKS,
    S_REVENUE_USD,
)
from repro.virt.template import VMTemplate
from tests.conftest import make_host

TICKS = 6


@pytest.mark.parametrize("engine", list(ENGINES))
def test_rows_built_once_per_tick_with_all_observers(engine, monkeypatch):
    builds = []
    build = ledger_mod._build_rows

    def spy(controller, report):
        builds.append(report)
        return build(controller, report)

    monkeypatch.setattr(ledger_mod, "_build_rows", spy)
    node, hv, ctrl = make_host(
        config=ControllerConfig.paper_evaluation(engine=engine)
    )
    for k in range(3):
        vm = hv.provision(VMTemplate(f"t{k}", vcpus=2, vfreq_mhz=800.0),
                          f"vm-{k}")
        vm.set_uniform_demand(1.0)
        ctrl.register_vm(vm.name, 800.0, tenant=f"tenant-{k % 2}")
    obs = Observability.attach(ctrl, ObsConfig(flight_recorder_ticks=4))
    billing = BillingEngine.attach(ctrl)
    plane = SLOPlane.attach(ctrl, SLOConfig(wallclock=False))
    for t in range(TICKS):
        node.step(1.0)
        ctrl.tick(float(t))
    assert builds == ctrl.reports
    # Every observer read the same rows: the ledger and the flight
    # recorder store the very list the tick built.
    rows = ctrl._decision_rows[1]
    assert len(rows) == 6
    assert obs.ledger.ticks[-1]["decisions"] is rows
    assert obs.recorder.frames[-1]["decisions"] is rows
    assert len(billing.meter.tick_revenue) == TICKS
    checks = plane.store.get(S_GUARANTEE_CHECKS, {"tenant": "tenant-0"})
    assert checks.last == 4.0 * TICKS


def _scrape_demo_cluster(ticks, *, wallclock=False, crash_from=None):
    """Tick the 2-node demo cluster, scraping it after every tick.

    With ``crash_from``, node-1's tick raises from that tick on.
    """
    from repro.cli import _demo_cluster, _step_demand

    cfg = ControllerConfig.paper_evaluation()
    manager, hosts = _demo_cluster(2, 3, 2, 7, cfg)
    if crash_from is not None:
        ctrl = manager.controllers["node-1"]
        healthy = ctrl.tick

        def tick(t):
            if t >= crash_from:
                raise RuntimeError("node-1 crashed")
            return healthy(t)

        ctrl.tick = tick
    plane = SLOPlane(SLOConfig(period_s=cfg.period_s, wallclock=wallclock))
    rng = random.Random(7)
    try:
        for tick in range(1, ticks + 1):
            _step_demand(hosts, rng, cfg.period_s)
            manager.tick(float(tick))
            plane.observe_cluster(manager, tick, t=float(tick))
    finally:
        manager.close()
        plane.close()
    return manager, plane


def test_cluster_scrape_ingests_each_controllers_metered_tick():
    """Callers number cluster ticks from 1; billing must still land."""
    manager, plane = _scrape_demo_cluster(5)
    for node_id, controller in manager.controllers.items():
        meter = controller.billing.meter
        labels = {"node": node_id}
        revenue = sum(meter.tick_revenue.values())
        assert revenue > 0.0
        assert plane.store.get(S_REVENUE_USD, labels).last == revenue
        assert plane.store.get(S_CREDITS_USD, labels).last == \
            sum(meter.tick_credits.values())


def _checks(plane):
    """(guarantee checks, deadline checks) the plane has counted."""
    guarantee = sum(s.last for s in plane.store.select(S_GUARANTEE_CHECKS))
    return guarantee, plane.store.get(S_DEADLINE_CHECKS).last


def test_cluster_scrape_counts_one_deadline_check_per_node_tick():
    manager, plane = _scrape_demo_cluster(5, wallclock=True)
    assert manager.num_nodes == 2
    assert plane.store.get(S_DEADLINE_CHECKS).total == 5
    # 2 nodes x 5 ticks; 3 VMs x 2 vCPUs per node per tick.
    assert _checks(plane) == (60.0, 10.0)


def test_cluster_scrape_skips_a_crashed_nodes_stale_report():
    """A node whose tick raised has no report this tick: neither its
    guarantee checks nor its deadline check count again."""
    manager, plane = _scrape_demo_cluster(10, wallclock=True, crash_from=6)
    assert manager.error_counts == {"node-1": 5}
    # node-0 ticks 10 times, node-1 only ticks 1-5.
    assert _checks(plane) == (90.0, 15.0)
    assert set(manager.last_reports) == {"node-0"}
