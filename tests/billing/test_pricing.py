"""Unit tests for the pricing primitives and the invoice projection."""

import json
import math

import pytest

from repro.billing import (
    DEFAULT_PRICE_BOOK,
    UsageMeter,
    build_invoices,
    decompose,
    invoices_to_json,
    mhz_seconds_per_cycle,
    render_invoices,
    sold_fraction,
)
from tests.conftest import frame_from_rows


class TestPriceBook:
    def test_tier_lookup_is_first_covering_tier(self):
        book = DEFAULT_PRICE_BOOK
        assert book.tier_of(100.0).name == "small"
        assert book.tier_of(800.0).name == "small"  # boundary inclusive
        assert book.tier_of(800.1).name == "medium"
        assert book.tier_of(1500.0).name == "medium"
        assert book.tier_of(99999.0).name == "large"

    def test_tier_rates_increase_with_size(self):
        rates = [tier.rate for tier in DEFAULT_PRICE_BOOK.tiers]
        assert rates == sorted(rates)
        assert all(rate > 0 for rate in rates)

    def test_spot_rate_scales_with_scarcity(self):
        book = DEFAULT_PRICE_BOOK
        assert book.spot_rate(0.0) == book.spot_base_rate
        assert book.spot_rate(1.0) == book.spot_base_rate * (1.0 + book.spot_slope)
        assert book.spot_rate(0.75) > book.spot_rate(0.25)

    def test_sold_fraction(self):
        assert sold_fraction(0.0, 0.0) == 0.0  # empty market: no scarcity
        assert sold_fraction(100.0, 100.0) == 0.0
        assert sold_fraction(100.0, 25.0) == 0.75
        assert sold_fraction(100.0, 0.0) == 1.0

    def test_mhz_seconds_factor_is_period_independent(self):
        # cycles are µs-at-F_MAX, so the MHz-s conversion depends only
        # on F_MAX, never on the enforcement period.
        assert mhz_seconds_per_cycle(2400.0) == 2400.0 * 1e-6
        assert mhz_seconds_per_cycle(1000.0) == pytest.approx(1e-3)


class TestDecompose:
    def test_classes_are_nonnegative_and_sum_to_allocation(self):
        for base, purchased, allocation in [
            (300.0, 100.0, 450.0),
            (300.0, 100.0, 350.0),  # purchase partially clipped
            (300.0, 100.0, 200.0),  # allocation below base
            (0.0, 0.0, 0.0),
        ]:
            g, p, f = decompose(base, purchased, None, allocation)
            assert g >= 0.0 and p >= 0.0 and f >= 0.0
            assert g + p + f == pytest.approx(allocation)

    def test_base_charged_first_then_purchases_then_free(self):
        g, p, f = decompose(300.0, 100.0, None, 450.0)
        assert (g, p, f) == (300.0, 100.0, 50.0)

    def test_allocation_below_base_is_all_guaranteed(self):
        assert decompose(300.0, 100.0, None, 200.0) == (200.0, 0.0, 0.0)

    def test_fallback_bills_entirely_as_guaranteed(self):
        assert decompose(300.0, 100.0, 250.0, 250.0) == (250.0, 0.0, 0.0)

    def test_missing_base_bills_entirely_as_guaranteed(self):
        assert decompose(None, 0.0, None, 400.0) == (400.0, 0.0, 0.0)


class TestInvoiceProjection:
    USAGE = {
        ("acme", "vm1", 0, "small", "guaranteed"): [100.0, 0.24, 2.0],
        ("acme", "vm1", 0, "small", "free"): [10.0, 0.024, 0.1],
        ("globex", "vm2", 1, "large", "purchased"): [50.0, 0.12, 1.5],
    }
    CREDITS = {("acme", "vm1", 0, "small"): [20.0, 0.048, 0.5]}

    def test_build_groups_by_tenant_and_sorts(self):
        invoices = build_invoices(self.USAGE, self.CREDITS, node="n1")
        assert [inv.tenant for inv in invoices] == ["acme", "globex"]
        acme, globex = invoices
        assert [line.kind for line in acme.lines] == ["free", "guaranteed"]
        assert acme.revenue == pytest.approx(2.1)
        assert acme.sla_credits == pytest.approx(0.5)
        assert acme.total == acme.revenue - acme.sla_credits
        assert globex.node == "n1"
        assert globex.credit_lines == []
        assert globex.total == pytest.approx(1.5)

    def test_json_is_deterministic_and_parseable(self):
        invoices = build_invoices(self.USAGE, self.CREDITS)
        payload = invoices_to_json(invoices)
        assert payload == invoices_to_json(invoices)
        parsed = json.loads(payload)
        assert [inv["tenant"] for inv in parsed] == ["acme", "globex"]
        assert parsed[0]["total"] == pytest.approx(1.6)

    def test_render_has_per_tenant_tables_summary_and_credit_rows(self):
        invoices = build_invoices(self.USAGE, self.CREDITS)
        text = render_invoices(invoices)
        assert "invoice: tenant acme" in text
        assert "invoice: tenant globex" in text
        assert "billing summary" in text
        assert "sla-credit" in text
        per_vcpu = render_invoices(invoices, per_vcpu=True)
        assert "guaranteed" in per_vcpu


def _meta(market_initial=0.0, market_left=0.0):
    """Ledger meta of tick 0 (metered as control tick 1)."""
    return {"tick": 0, "fmax_mhz": 2400.0, "market_initial": market_initial,
            "market_left": market_left, "tenants": {"vm1": "acme"}}


def _row(*, estimate, base, allocation, purchased=0.0):
    """The decision-ledger fields the meter reads, for acme's vm1/vcpu0."""
    return {"vm": "vm1", "vcpu": 0, "vfreq": 600.0, "guarantee": 500.0,
            "estimate": estimate, "base": base, "purchased": purchased,
            "fallback": None, "allocation": allocation}


class TestMeterState:
    def test_state_json_roundtrip_is_exact(self):
        meter = UsageMeter()
        meter.meter_tick(
            _meta(market_initial=1000.0, market_left=400.0),
            frame_from_rows([_row(estimate=700.0, base=500.0, purchased=120.0,
                                  allocation=640.0)]),
        )
        clone = UsageMeter()
        clone.load_state(json.loads(json.dumps(meter.state())))
        assert clone.usage == meter.usage
        assert clone.credits == meter.credits
        assert clone.tick_revenue == meter.tick_revenue
        assert clone.tick_credits == meter.tick_credits

    def test_sla_credit_on_saturated_shortfall(self):
        meter = UsageMeter()
        meter.meter_tick(
            _meta(),
            frame_from_rows([_row(estimate=600.0, base=500.0, allocation=450.0)]),
        )
        book = meter.book
        tier = book.tier_of(600.0)
        assert list(meter.credits) == [("acme", "vm1", 0, tier.name)]
        assert list(meter.tick_credits) == [1]
        (credit,) = meter.credits.values()
        expected = 50.0 * mhz_seconds_per_cycle(2400.0) * tier.rate
        assert credit[2] == pytest.approx(
            expected * book.sla_refund_multiplier
        )
        assert math.fsum(meter.tick_credits.values()) == pytest.approx(credit[2])

    def test_unsaturated_shortfall_earns_no_credit(self):
        meter = UsageMeter()
        meter.meter_tick(
            _meta(),
            frame_from_rows([_row(estimate=100.0, base=100.0, allocation=100.0)]),
        )
        assert meter.credits == {}

    def test_vm_without_tenant_bills_to_default(self):
        meter = UsageMeter()
        meta = dict(_meta(), tenants={})
        meter.meter_tick(meta, frame_from_rows([
            _row(estimate=100.0, base=100.0, allocation=100.0)
        ]))
        assert {key[0] for key in meter.usage} == {"default"}
