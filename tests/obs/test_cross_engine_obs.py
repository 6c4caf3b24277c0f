"""Engine-agnostic observability: both engines write the same ledger."""

import pytest

from repro.checking.fuzz import generate_trace
from repro.checking.trace import ENGINES, _Replica
from repro.obs import Observability, ObsConfig


def ledger_for(trace, engine):
    """Replay one fuzzed scenario under ``engine`` with a hub attached."""
    replica = _Replica(trace, engine)
    obs = Observability.attach(
        replica.controller,
        ObsConfig(tracing=False, ledger_ring_ticks=256, flight_recorder_ticks=8),
    )
    ticks = 0
    for event in trace.events:
        if event.get("kind") != "tick":
            replica.apply(event)
            continue
        ticks += 1
        report, violations = replica.tick(float(ticks))
        assert violations == []
    return obs.ledger.ticks


@pytest.mark.parametrize("seed", [11, 23])
def test_fuzzed_ledgers_identical_across_engines(seed):
    # Fifty fuzzed ticks of VM churn and demand shifts; restarts are
    # off because a restart rebuilds the controller under the hub.
    trace = generate_trace(
        seed, ticks=50, max_vms=5, faults=False, restarts=False, engine="both"
    )
    ledgers = {engine: ledger_for(trace, engine) for engine in ENGINES}
    scalar, bulk = ledgers["scalar"], ledgers["bulk"]
    assert len(scalar) == len(bulk) == trace.ticks
    for a, b in zip(scalar, bulk):
        meta_a = {k: v for k, v in a["meta"].items() if k != "engine"}
        meta_b = {k: v for k, v in b["meta"].items() if k != "engine"}
        assert meta_a == meta_b
        assert a["decisions"] == b["decisions"]
    assert {e["meta"]["engine"] for e in scalar} == {"scalar"}
    assert {e["meta"]["engine"] for e in bulk} == {"bulk"}
