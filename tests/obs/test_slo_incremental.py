"""The SLO plane's per-tick work follows what changed, not its rule count.

Three contracts:

* **differential** — on the same stream the plane produces exactly the
  alerts, budgets and store of :class:`~tests.obs.slo_reference.
  ReferenceSLOPlane`, which reads every window of every rule every tick
  and names every series through a label dict;
* **work** — a quiet stream makes no window read in ``evaluate``, a
  burning one does;
* **ingest** — guarantee checks counted per tenant code create the same
  series, in the same order, with the same values as the per-name count.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.billing import BillingEngine
from repro.core.config import ControllerConfig
from repro.core.frame import COLUMNS, DecisionFrame
from repro.obs.slo import BurnRateRule, SLOConfig, SLOPlane, SLOSpec, default_slos
from repro.obs.tsdb import (
    S_BACKEND_ERRORS,
    S_CREDITS_USD,
    S_DEADLINE_BAD,
    S_DEADLINE_CHECKS,
    S_GUARANTEE_BAD,
    S_GUARANTEE_CHECKS,
    S_REVENUE_USD,
    Series,
    SeriesStore,
)
from repro.virt.template import VMTemplate
from tests.conftest import make_host
from tests.obs.slo_reference import ReferenceSLOPlane, reference_ingest_report

#: Short-window rules that fire and resolve within a few dozen ticks;
#: under a capacity below 20 the second page reads two downsampled
#: points, which equal raw points do not make equal.
FAST_RULES = (
    BurnRateRule(12, 3, 2.0, "page"),
    BurnRateRule(45, 20, 1.5, "page"),
    BurnRateRule(30, 8, 1.0, "ticket"),
)

SPECS = (
    default_slos(wallclock=False)[0],  # guarantee, of_total, per tenant
    SLOSpec(
        "guarantee_fast", 0.9, S_GUARANTEE_BAD, S_GUARANTEE_CHECKS,
        by="tenant", rules=FAST_RULES, budget_window=40,
    ),
    SLOSpec(
        "credit_fast", 0.9, S_CREDITS_USD, S_REVENUE_USD,
        by="node", ratio="of_sum", rules=FAST_RULES, budget_window=40,
    ),
    SLOSpec(
        "deadline_fast", 0.9, S_DEADLINE_BAD, S_DEADLINE_CHECKS,
        rules=FAST_RULES, budget_window=40,
    ),
)


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True)


def _observable(plane):
    """Everything a reader of the plane can see, as one string."""
    budgets = [
        (spec.name, labelset,
         plane.error_budget_remaining(spec, dict(labelset)))
        for spec in plane.specs
        for labelset in plane._label_sets(spec)
    ]
    return _dumps({
        "firing": plane.firing_alerts(),
        "budgets": budgets,
        "keys": list(plane.store._series),
        "transitions": plane.transitions_total,
    })


# -- the stream ---------------------------------------------------------------

#: (ticks, bad fraction, events per tick); inf is a poisoned counter.
_SEGMENT = st.tuples(
    st.integers(1, 40),
    st.sampled_from([0.0, 0.0, 0.0, 0.001, 0.05, 0.5, 1.0, math.inf]),
    st.sampled_from([1, 7, 1000]),
)


def _expand(segments, start, ticks):
    """Per-tick ``(bad, total)`` deltas of one source, ``None`` before
    ``start``; quiet at the last segment's volume once they run out."""
    out = [None] * start
    volume = 1
    for length, fraction, volume in segments:
        for _ in range(length):
            bad = math.inf if math.isinf(fraction) else float(
                round(fraction * volume)
            )
            out.append((bad, float(volume)))
    while len(out) < ticks:
        out.append((0.0, float(volume)))
    return out[:ticks]


@st.composite
def _streams(draw):
    ticks = draw(st.integers(1, 150))
    capacity = draw(st.one_of(st.integers(2, 24), st.integers(2, 600)))

    def sources(prefix, most):
        names = draw(st.lists(
            st.sampled_from([f"{prefix}{k}" for k in range(most)]),
            min_size=1, max_size=most, unique=True,
        ))
        return {
            name: _expand(
                draw(st.lists(_SEGMENT, min_size=1, max_size=5)),
                draw(st.integers(0, max(ticks - 1, 0))),
                ticks,
            )
            for name in names
        }

    return {
        "ticks": ticks,
        "capacity": capacity,
        "tenants": sources("tenant-", 4),
        "nodes": sources("node-", 2),
        "deadline": _expand(
            draw(st.lists(_SEGMENT, min_size=1, max_size=4)), 0, ticks
        ),
        "errors": sources("src-", 2),
    }


def _feed(plane, stream, tick):
    """One tick of the stream, in on_tick's series order."""
    store = plane.store
    for tenant in sorted(stream["tenants"]):
        delta = stream["tenants"][tenant][tick]
        if delta is not None:
            labels = {"tenant": tenant}
            store.accumulate(S_GUARANTEE_BAD, delta[0], labels)
            store.accumulate(S_GUARANTEE_CHECKS, delta[1], labels)
    bad, checks = stream["deadline"][tick]
    store.accumulate(S_DEADLINE_BAD, bad)
    store.accumulate(S_DEADLINE_CHECKS, checks)
    for node in sorted(stream["nodes"]):
        delta = stream["nodes"][node][tick]
        if delta is not None:
            labels = {"node": node}
            store.accumulate(S_REVENUE_USD, delta[1] * 0.25, labels)
            store.accumulate(S_CREDITS_USD, delta[0] * 0.25, labels)
    for source in sorted(stream["errors"]):
        delta = stream["errors"][source][tick]
        if delta is not None:
            series = store.series(S_BACKEND_ERRORS, {"source": source})
            series.append(series.last + min(delta[0], 3.0))


class TestDifferential:
    # A poisoned (inf) counter's windows subtract inf from inf.
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @given(_streams())
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_same_alerts_budgets_and_store_every_tick(self, stream):
        config = SLOConfig(
            specs=SPECS, wallclock=False, capacity=stream["capacity"]
        )
        plane = SLOPlane(config)
        reference = ReferenceSLOPlane(config)
        for tick in range(stream["ticks"]):
            _feed(plane, stream, tick)
            _feed(reference, stream, tick)
            got = plane.evaluate(tick, t=float(tick))
            want = reference.evaluate(tick, t=float(tick))
            assert _dumps(got) == _dumps(want), tick
            assert _observable(plane) == _observable(reference), tick
        assert _dumps(plane.ledger.transitions) == _dumps(
            reference.ledger.transitions
        )

    def test_a_burst_pages_tickets_and_resolves_on_both(self):
        stream = {
            "ticks": 150,
            "capacity": 20,
            "tenants": {"tenant-0": _expand([(40, 0.0, 7), (12, 1.0, 7)], 0, 150)},
            "nodes": {"node-0": _expand([(30, 0.5, 7)], 20, 150)},
            "deadline": _expand([(60, 0.0, 1), (12, 1.0, 1)], 0, 150),
            "errors": {"src-0": _expand([(50, 0.0, 1), (5, 1.0, 1)], 0, 150)},
        }
        config = SLOConfig(specs=SPECS, wallclock=False, capacity=20)
        plane = SLOPlane(config)
        reference = ReferenceSLOPlane(config)
        for tick in range(stream["ticks"]):
            _feed(plane, stream, tick)
            _feed(reference, stream, tick)
            plane.evaluate(tick)
            reference.evaluate(tick)
        seen = {
            (e["slo"], e["severity"], e["state"])
            for e in plane.ledger.transitions
        }
        for slo in ("guarantee_fast", "credit_fast", "deadline_fast"):
            for severity in ("page", "ticket"):
                assert (slo, severity, "firing") in seen
                assert (slo, severity, "resolved") in seen
        assert _dumps(plane.ledger.transitions) == _dumps(
            reference.ledger.transitions
        )


    def test_a_downsampled_short_window_is_read_though_raw_is_flat(self):
        # Capacity 10 puts the 20-tick short window on the 10-tick level:
        # its two means still see the burst after 20 flat raw points.
        spec = SLOSpec("g", 0.9, S_GUARANTEE_BAD, S_GUARANTEE_CHECKS,
                       rules=(BurnRateRule(45, 20, 1.5, "page"),))
        config = SLOConfig(
            specs=(spec,), wallclock=False, anomaly=None, capacity=10
        )
        plane, reference = SLOPlane(config), ReferenceSLOPlane(config)
        for tick in range(80):
            for p in (plane, reference):
                p.store.accumulate(S_GUARANTEE_BAD, 1.0 if tick < 26 else 0.0)
                p.store.accumulate(S_GUARANTEE_CHECKS, 1.0)
            assert _dumps(plane.evaluate(tick)) == _dumps(
                reference.evaluate(tick)
            )
        resolved = plane.ledger.transitions[-1]
        assert (resolved["state"], resolved["tick"]) == ("resolved", 49)
        bad = plane.store.get(S_GUARANTEE_BAD)
        assert 49 + 1 - bad.changed > 20


# -- work ---------------------------------------------------------------------


def _count_increase_calls(monkeypatch):
    calls = []
    increase = Series.increase

    def counted(series, window_ticks):
        calls.append(window_ticks)
        return increase(series, window_ticks)

    monkeypatch.setattr(Series, "increase", counted)
    return calls


def _feed_default(plane, tick, *, bad):
    store = plane.store
    for tenant in ("tenant-0", "tenant-1", "tenant-2"):
        labels = {"tenant": tenant}
        store.accumulate(S_GUARANTEE_BAD, bad, labels)
        store.accumulate(S_GUARANTEE_CHECKS, 10.0, labels)
    store.accumulate(S_DEADLINE_BAD, 0.0)
    store.accumulate(S_DEADLINE_CHECKS, 1.0)
    store.accumulate(S_REVENUE_USD, 1.5, {"node": "node-0"})
    store.accumulate(S_CREDITS_USD, 0.0, {"node": "node-0"})
    store.append(S_BACKEND_ERRORS, 0.0, {"source": "node-0"})


class TestWork:
    def test_quiet_stream_reads_no_window(self, monkeypatch):
        calls = _count_increase_calls(monkeypatch)
        plane = SLOPlane()
        for tick in range(300):
            _feed_default(plane, tick, bad=0.0)
            assert plane.evaluate(tick) == []
        assert calls == []

    def test_burning_stream_reads_windows_and_pages(self, monkeypatch):
        calls = _count_increase_calls(monkeypatch)
        plane = SLOPlane()
        transitions = []
        for tick in range(30):
            _feed_default(plane, tick, bad=5.0)
            transitions.extend(plane.evaluate(tick))
        assert calls
        assert any(
            t["slo"] == "guarantee" and t["severity"] == "page"
            for t in transitions
        )

    def test_a_level_one_short_window_is_always_read(self, monkeypatch):
        # capacity 4 puts every default short window (>= 5 ticks) on a
        # downsampled level, where equal raw points prove nothing.
        calls = _count_increase_calls(monkeypatch)
        plane = SLOPlane(SLOConfig(wallclock=False, capacity=4))
        for tick in range(3):
            _feed_default(plane, tick, bad=0.0)
            plane.evaluate(tick)
        assert calls

    def test_bank_list_is_rebuilt_only_when_a_series_appears(self):
        plane = SLOPlane(SLOConfig(wallclock=False))
        _feed_default(plane, 0, bad=0.0)
        plane.evaluate(0)
        banks = plane._banks
        _feed_default(plane, 1, bad=0.0)
        plane.evaluate(1)
        assert plane._banks is banks
        plane.store.accumulate(S_GUARANTEE_BAD, 0.0, {"tenant": "tenant-9"})
        plane.evaluate(2)
        assert plane._banks is not banks
        assert ("tenant", "tenant-9") in {
            bank[0][1][0] for bank in plane._banks if bank[0][1]
        }


# -- ingest -------------------------------------------------------------------


def _frame(vm, consumed, guarantee, allocation, estimate):
    n = len(vm)
    zeros = np.zeros(n)
    columns = {name: zeros for name in COLUMNS}
    columns.update(
        path=[f"/m/{name}/vcpu{k}" for k, name in enumerate(vm)],
        vm=vm,
        vcpu=np.zeros(n, dtype=np.int64),
        vfreq=[None] * n,
        consumed=consumed,
        estimate=estimate,
        guarantee=guarantee,
        allocation=allocation,
        case=np.zeros(n, dtype=np.int8),
        quota=np.zeros(n, dtype=np.int64),
    )
    return DecisionFrame(sampled=n, reserve_guarantee=False, **columns)


def _series_state(store):
    return [
        (key, series.total, series.changed, series.last,
         series.tail(store.capacity)[0].tolist())
        for key, series in store._series.items()
    ]


class TestIngest:
    def test_dense_shaped_frames_make_the_reference_series(self):
        # One dense host: 32 small VMs of 1 vCPU and 16 large of 4.
        rng = random.Random(3)
        vm = [f"small-{k}" for k in range(32)] + [
            f"large-{k}" for k in range(16) for _ in range(4)
        ]
        tenants = {
            name: f"tenant-{k % 3}"
            for k, name in enumerate(sorted(set(vm))) if k % 7
        }
        store, reference = SeriesStore(), SeriesStore()
        n = len(vm)
        for tick in range(40):
            if tick == 25:
                # A new tenant, and a tenant map that no longer matches.
                tenants = dict(tenants, **{"large-3": "tenant-new"})
            if tick == 30:
                vm = list(vm)  # a new layout with the same VM names
            consumed = np.array([
                math.nan if rng.random() < 0.1 else 1.0 for _ in range(n)
            ])
            guarantee = np.array([
                math.nan if tick < 5 and k >= 32 else 10.0
                for k in range(n)
            ])
            allocation = np.array([
                rng.choice([5.0, 10.0, 12.0]) for _ in range(n)
            ])
            estimate = np.array([
                rng.choice([math.nan, 8.0, 11.0]) for _ in range(n)
            ])
            frame = _frame(vm, consumed, guarantee, allocation, estimate)
            got = store.ingest_report(frame, tenants)
            want = reference_ingest_report(reference, frame, tenants)
            assert got == want
            assert list(store._series) == list(reference._series)
        assert _series_state(store) == _series_state(reference)
        assert ("guarantee_bad_total", (("tenant", "tenant-new"),)) in \
            store._series

    def test_a_tick_without_checked_rows_creates_nothing(self):
        store = SeriesStore()
        nan = np.full(2, math.nan)
        frame = _frame(["a", "b"], nan, np.ones(2), np.ones(2), np.ones(2))
        assert store.ingest_report(frame, {"a": "t"}) == (0, 0)
        assert len(store) == 0


class _Tee:
    """Feeds one controller's ticks to several planes."""

    def __init__(self, *planes):
        self.planes = planes

    def on_tick(self, controller, report, tick):
        for plane in self.planes:
            plane.on_tick(controller, report, tick)


def test_on_tick_builds_the_reference_store_and_alerts():
    node, hv, ctrl = make_host(config=ControllerConfig.paper_evaluation())
    BillingEngine.attach(ctrl)
    # A tight objective so guarantee misses on the busy host page.
    specs = default_slos() + (SLOSpec(
        "guarantee_tight", 0.5, S_GUARANTEE_BAD, S_GUARANTEE_CHECKS,
        by="tenant", rules=FAST_RULES, budget_window=40,
    ),)
    config = SLOConfig(specs=specs, deadline_fraction=1e-9)
    plane, reference = SLOPlane(config), ReferenceSLOPlane(config)
    ctrl.slo = _Tee(plane, reference)
    rng = random.Random(5)
    vms = []

    def provision(k, tenant):
        vm = hv.provision(
            VMTemplate(f"t{k}", vcpus=2, vfreq_mhz=900.0), f"vm-{k}"
        )
        ctrl.register_vm(vm.name, 900.0, tenant=tenant)
        vms.append(vm)

    for k in range(3):
        provision(k, f"tenant-{k % 2}" if k else None)
    for t in range(40):
        if t == 15:
            provision(3, "tenant-late")
        for vm in vms:
            vm.set_uniform_demand(rng.random())
        node.step(1.0)
        ctrl.tick(float(t))
        assert list(plane.store._series) == list(reference.store._series)
    assert _series_state(plane.store) == _series_state(reference.store)
    assert _dumps(plane.ledger.transitions) == _dumps(
        reference.ledger.transitions
    )
    assert any(
        e["slo"] == "tick_deadline" for e in plane.ledger.transitions
    )
