"""One decision frame per tick, shared by every tick observer.

Each tick emits one :class:`~repro.core.frame.DecisionFrame`
(``report.frame``).  With the hub, a billing engine and an SLO plane
attached, every observer reads that one frame: the ledger and the
flight recorder keep the very object, and the per-vCPU ledger dicts
are built only when an entry is read.  The cluster SLO path must read
each controller's own metered tick.
"""

import random

import pytest

from repro.billing import BillingEngine
from repro.checking.trace import ENGINES
from repro.core.config import ControllerConfig
from repro.core.frame import DecisionFrame
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
    build = DecisionFrame.rows

    def spy(frame):
        builds.append(frame)
        return build(frame)

    monkeypatch.setattr(DecisionFrame, "rows", spy)
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
    # Metering and SLO ingest read columns: no ledger dict was built.
    assert builds == []
    # Every observer read the same frame: the ledger and the flight
    # recorder keep the very object the tick emitted.
    frames = [report.frame for report in ctrl.reports]
    assert len(frames[-1]) == 6
    assert all(
        record.frame is frame
        for record, frame in zip(obs.ledger._ring, frames)
    )
    # Reading an entry builds its rows once, and the flight frame
    # shares them.
    entry = obs.ledger.ticks[-1]
    assert builds == [frames[-1]]
    assert obs.ledger.ticks[-1] is entry
    assert obs.recorder.frames[-1]["decisions"] is entry["decisions"]
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
