"""The billing-oracle acceptance gate.

A fuzzed 200-tick multi-tenant scenario — VM churn, ``set_vfreq``
renegotiation (tier moves), workload bursts, controller restarts —
runs under both engines, and **every** invoice line is re-derived
by :mod:`repro.checking.billing_oracle` from the decision ledger alone
with exact float equality: accumulators, per-tick trails, and the
rendered invoices byte for byte.
"""

from repro.billing import build_invoices, invoices_to_json
from repro.checking import derive_billing, generate_trace, replay_with_billing
from repro.checking.trace import ENGINES


class TestOracleAcceptance:
    def test_200_tick_multi_tenant_exact_rederivation(self):
        trace = generate_trace(11, ticks=200, tenants=3)
        result = replay_with_billing(trace, engines=ENGINES)
        assert result.replay.ok
        assert result.violations == []
        for engine in ENGINES:
            bill = result.billing[engine]
            assert bill.meter.usage  # the run billed something
            derived = derive_billing(result.ledgers[engine], bill.book)
            assert derived.violations == []
            # exact equality, accumulator cell by accumulator cell
            assert derived.usage == bill.meter.usage
            assert derived.credits == bill.meter.credits
            assert derived.tick_revenue == bill.meter.tick_revenue
            assert derived.tick_credits == bill.meter.tick_credits
            # and the invoices the two sides render are byte-identical
            oracle_invoices = build_invoices(
                derived.usage, derived.credits, node=bill.node_id
            )
            assert invoices_to_json(oracle_invoices) == invoices_to_json(
                bill.invoices()
            )
        # the scenario genuinely exercises the tenant dimension
        tenants = {key[0] for key in result.billing["scalar"].meter.usage}
        assert len(tenants) >= 2

    def test_restart_preserves_charges_and_stays_auditable(self):
        """Charges accrued before a controller crash survive on the
        invoice, and the oracle still re-derives the merged totals
        (the tick counter legitimately rewinds after a restart)."""
        trace = generate_trace(11, ticks=120, tenants=2)
        if not any(e.get("kind") == "restart" for e in trace.events):
            trace.events.insert(
                len(trace.events) // 2, {"kind": "restart"}
            )
        result = replay_with_billing(trace, engines=("scalar",))
        assert result.replay.ok
        assert result.violations == []
        assert result.billing["scalar"].meter.usage
