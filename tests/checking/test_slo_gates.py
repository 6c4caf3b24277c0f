"""The ``slo eval`` gates as a library call: :func:`replay_with_slo`.

Each gate is shown to pass on a clean run and to fire on a planted
defect: a plane that records a different transition on every replay
(breaks cross-engine equality and replay determinism) and an observer
that perturbs the report it is handed (breaks transparency).
"""

import itertools
import json
from types import SimpleNamespace

import pytest

from repro.checking import generate_trace, replay_with_slo
from repro.checking.billing_oracle import _per_engine_attach
from repro.obs.slo import SLOPlane

ENGINES = ("scalar", "bulk")


@pytest.fixture(scope="module")
def trace():
    return generate_trace(3, ticks=40, tenants=2)


def _plant(monkeypatch, tick, action):
    """Run ``action(plane, report)`` inside every plane's tick hook at
    control tick ``tick``."""
    on_tick = SLOPlane.on_tick

    def planted(self, controller, report, n):
        if n == tick:
            action(self, report)
        return on_tick(self, controller, report, n)

    monkeypatch.setattr(SLOPlane, "on_tick", planted)


def test_clean_run_passes_every_gate(trace):
    audit = replay_with_slo(trace, engines=ENGINES)
    assert audit.ok
    assert audit.problems == []
    assert audit.replay.engines == ENGINES
    assert set(audit.planes) == set(ENGINES)
    assert audit.replay.ticks == 40
    # The default stream is the first engine's, one JSON object a line.
    stream = audit.alert_stream()
    assert stream == audit.alert_stream("scalar")
    assert stream == audit.alert_stream("bulk")
    for line in filter(None, stream.split("\n")):
        assert json.loads(line)["slo"]


def test_nondeterministic_plane_breaks_equality_and_determinism(
    trace, monkeypatch,
):
    counter = itertools.count()
    _plant(monkeypatch, 5,
           lambda plane, _: plane.ledger.record({"planted": next(counter)}))
    audit = replay_with_slo(trace, engines=ENGINES, transparency=False)
    assert audit.problems == [
        "alert streams differ across engines (scalar vs bulk)",
        "[scalar] alert ledger not byte-identical across identical replays",
        "[bulk] alert ledger not byte-identical across identical replays",
    ]
    # With the determinism gate off only the cross-engine check is left.
    audit = replay_with_slo(
        trace, engines=ENGINES, determinism=False, transparency=False,
    )
    assert audit.problems == [
        "alert streams differ across engines (scalar vs bulk)",
    ]


def test_perturbing_observer_breaks_transparency(trace, monkeypatch):
    def bump(_, report):
        report.market_initial += 1.0

    _plant(monkeypatch, 7, bump)
    audit = replay_with_slo(trace, engines=("bulk",), determinism=False)
    assert not audit.ok
    diverged = [p for p in audit.problems if "report diverged" in p]
    assert diverged == [
        "[bulk] report diverged with the plane attached at tick 8: "
        "t=8 engine_identity: bulk+slo and bulk reports differ in: "
        "market_initial"
    ]
    # The perturbed market also trips the Eq. 6 oracle on that tick.
    assert "oracle violation(s), first: t=8 eq6_market" in audit.problems[0]
    assert replay_with_slo(
        trace, engines=("bulk",), determinism=False, transparency=False,
    ).problems == [audit.problems[0]]


def test_per_engine_attach_rebinds_the_same_observers():
    bound = []
    made = []

    class Hub:
        def bind(self, controller):
            bound.append((self, controller))

    def make(engine):
        made.append(engine)
        return {"obs": Hub(), "billing": object()}

    attach, observers = _per_engine_attach(make)
    first, restarted, other = (SimpleNamespace() for _ in range(3))
    attach(first, "bulk")
    attach(restarted, "bulk")
    attach(other, "scalar")
    assert made == ["bulk", "scalar"]
    assert restarted.obs is first.obs is observers["bulk"]["obs"]
    assert restarted.billing is first.billing
    assert other.obs is not first.obs
    assert bound == [(first.obs, first), (first.obs, restarted),
                     (other.obs, other)]
