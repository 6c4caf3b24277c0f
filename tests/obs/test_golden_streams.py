"""Golden digests of the three per-tick observer streams.

One fixed fuzz trace is replayed on each engine with the obs hub
(ledger only), a billing engine and a deterministic SLO plane attached.
The SHA-256 of ``ledger.jsonl``, of the invoice JSON and of
``alerts.jsonl`` is pinned, so any change to how the observers turn a
finished report into records shows up as a byte difference.
"""

import hashlib

import pytest

from repro.billing import DEFAULT_PRICE_BOOK, BillingEngine, invoices_to_json
from repro.checking import generate_trace
from repro.checking.trace import ENGINES, replay
from repro.obs.config import ObsConfig
from repro.obs.hub import Observability
from repro.obs.slo import SLOConfig, SLOPlane

SEED = 5
TICKS = 120

GOLDEN = {
    "scalar": {
        "ledger": "deac4e1da2dd29b8d3b4b7984d6312133f961c2449eafb78d4cd85ff7f06400e",
        "invoices": "477ae03c30fb0a9b497178eabe69071d0d54773980d89e5cfd18427aad1d2c2f",
        "alerts": "9883bd353dc89c634fca9491c1b1b2a9b96e25a7dd2eaf0a3b45d4a856ce8ded",
    },
    "bulk": {
        "ledger": "ced0291df09fd8d1833d026c25b931912429038edc02e5cb6547d3f348b87670",
        "invoices": "477ae03c30fb0a9b497178eabe69071d0d54773980d89e5cfd18427aad1d2c2f",
        "alerts": "9883bd353dc89c634fca9491c1b1b2a9b96e25a7dd2eaf0a3b45d4a856ce8ded",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def observer_streams(engine, out_dir):
    """Replay the golden trace on one engine; return the stream digests."""
    trace = generate_trace(SEED, ticks=TICKS, tenants=3)
    hub = Observability(ObsConfig(
        out_dir=str(out_dir), tracing=False, flight_recorder_ticks=0,
    ))
    billing = BillingEngine(DEFAULT_PRICE_BOOK, node_id="golden")
    plane = SLOPlane(SLOConfig(wallclock=False, out_dir=str(out_dir)))

    def attach(controller, _engine):
        hub.bind(controller)
        controller.obs = hub
        controller.billing = billing
        controller.slo = plane

    result = replay(trace, engines=(engine,), stop_at_first=False,
                    attach=attach)
    assert result.ok, [str(v) for v in result.violations]
    hub.close()
    plane.close()
    ledger = (out_dir / "ledger.jsonl").read_bytes()
    alerts = (out_dir / "alerts.jsonl").read_bytes()
    invoices = invoices_to_json(billing.invoices()).encode()
    assert ledger and invoices and alerts
    return {
        "ledger": _sha256(ledger),
        "invoices": _sha256(invoices),
        "alerts": _sha256(alerts),
    }


@pytest.mark.parametrize("engine", list(ENGINES))
def test_observer_streams_match_golden_digests(engine, tmp_path):
    assert observer_streams(engine, tmp_path) == GOLDEN[engine]
