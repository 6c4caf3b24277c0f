"""Tenant-aware usage metering from finished controller reports.

:class:`BillingEngine` hooks the controller exactly like the
observability hub: ``controller.billing`` is ``None`` by default (one
attribute check per tick), and when attached the engine works *post
hoc* from each finished :class:`~repro.core.controller.ControllerReport`
plus the controller's own registries — it never touches the stages, so
report and ledger streams stay bit-identical with billing on or off
(``tests/billing/test_transparency.py`` proves this across both
engines).

The meter reads the tick's :func:`~repro.obs.ledger.decision_rows`,
the same per-vCPU records the decision ledger stores, so it walks no
report of its own.  The metering arithmetic lives in
:class:`UsageMeter` and the module-level :func:`decompose`, both pure
functions of those ledger columns.  That is a deliberate contract:
every accumulation performed here is independently re-derived from the
decision ledger by :mod:`repro.checking.billing_oracle` with *exact*
float equality, in the ledger's decision order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.billing.pricing import (
    DEFAULT_PRICE_BOOK,
    PriceBook,
    mhz_seconds_per_cycle,
    sold_fraction,
)
from repro.obs.ledger import decision_rows, guarantee_missed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.controller import ControllerReport, VirtualFrequencyController

#: Usage accumulator key: (tenant, vm, vcpu, tier, kind).  The tier is
#: part of the key because ``set_vfreq`` renegotiation can move a VM
#: between tiers mid-run, and revenue must stay attributed to the tier
#: it was earned under (the ``vfreq_revenue_total{tenant,tier}``
#: Prometheus family depends on this).
UsageKey = Tuple[str, str, int, str, str]
#: SLA credit accumulator key: (tenant, vm, vcpu, tier).
CreditKey = Tuple[str, str, int, str]

#: Billable cycle classes, in metering order.
KINDS = ("guaranteed", "purchased", "free")


def decompose(
    base: Optional[float],
    purchased: float,
    fallback: Optional[float],
    allocation: float,
) -> Tuple[float, float, float]:
    """Split one enforced allocation into billable cycle classes.

    The stage-6 allocation is ``min(base + purchased + free_share,
    p_us)`` (or the degraded-mode fallback), so the split charges the
    base reservation first, then auction purchases, and the remainder
    is the freely-distributed share — each component clipped so the
    three classes are non-negative and sum exactly to ``allocation``.
    Degraded fallbacks (and ledger rows without a base, i.e. without a
    fresh estimate) bill entirely as guaranteed-class usage: the
    customer holds a guarantee-backed cap either way.
    """
    if fallback is not None or base is None:
        return allocation, 0.0, 0.0
    guaranteed = min(base, allocation)
    purchased_c = min(purchased, allocation - guaranteed)
    free_c = allocation - guaranteed - purchased_c
    return guaranteed, purchased_c, free_c


class UsageMeter:
    """Per-(tenant, VM, vCPU) MHz-second accumulators, priced per tick.

    State is three maps plus two per-tick trails:

    * ``usage``:   (tenant, vm, vcpu, tier, kind) -> [cycles, mhz_s, amount]
    * ``credits``: (tenant, vm, vcpu, tier) -> [shortfall cycles, mhz_s, amount]
    * ``tick_revenue`` / ``tick_credits``: 1-based control tick -> total

    Accumulation order inside one tick follows the caller's row order
    (the ledger's decision order), and ticks arrive in ascending order,
    so two meters fed the same rows hold bit-identical floats — the
    property the snapshot/restore additivity test and the oracle's
    exact-equality audit both rely on.
    """

    def __init__(self, book: Optional[PriceBook] = None) -> None:
        self.book = book if book is not None else DEFAULT_PRICE_BOOK
        self.usage: Dict[UsageKey, List[float]] = {}
        self.credits: Dict[CreditKey, List[float]] = {}
        self.tick_revenue: Dict[int, float] = {}
        self.tick_credits: Dict[int, float] = {}

    # -- one tick ---------------------------------------------------------------

    def meter_tick(self, meta: Dict, rows: List[Dict]) -> None:
        """Meter one finished tick from its ledger entry.

        ``meta`` holds the ledger meta fields the price depends on:
        ``tick`` (0-based, metered as the 1-based control tick ``tick +
        1`` — the numbering trace replay uses for ``t``), ``fmax_mhz``,
        ``market_initial``, ``market_left`` and the ``tenants`` map
        (VMs missing from it bill to ``"default"``).  ``rows`` are the
        tick's decision-ledger records.
        """
        tick = meta["tick"] + 1
        tenants = meta["tenants"]
        book = self.book
        factor = mhz_seconds_per_cycle(meta["fmax_mhz"])
        spot = book.spot_rate(
            sold_fraction(meta["market_initial"], meta["market_left"])
        )
        revenue = self.tick_revenue.get(tick, 0.0)
        refunds = self.tick_credits.get(tick, 0.0)
        for row in rows:
            vfreq = row["vfreq"]
            allocation = row["allocation"]
            if vfreq is None or allocation is None:
                continue
            tier = book.tier_of(vfreq)
            vm = row["vm"]
            tenant = tenants.get(vm, "default")
            guaranteed_c, purchased_c, free_c = decompose(
                row["base"], row["purchased"], row["fallback"], allocation
            )
            rates = (tier.rate, spot, spot * book.free_discount)
            for kind, cycles, rate in zip(
                KINDS, (guaranteed_c, purchased_c, free_c), rates
            ):
                if cycles == 0.0:
                    continue
                amount = cycles * factor * rate
                self._add(
                    self.usage,
                    (tenant, vm, row["vcpu"], tier.name, kind),
                    cycles, cycles * factor, amount,
                )
                revenue += amount
            if guarantee_missed(row):
                shortfall = row["guarantee"] - allocation
                amount = (
                    shortfall * factor * tier.rate * book.sla_refund_multiplier
                )
                self._add(
                    self.credits,
                    (tenant, vm, row["vcpu"], tier.name),
                    shortfall, shortfall * factor, amount,
                )
                refunds += amount
        self.tick_revenue[tick] = revenue
        self.tick_credits[tick] = refunds

    @staticmethod
    def _add(store, key, cycles: float, mhz_s: float, amount: float) -> None:
        cell = store.get(key)
        if cell is None:
            store[key] = [cycles, mhz_s, amount]
        else:
            cell[0] += cycles
            cell[1] += mhz_s
            cell[2] += amount

    # -- snapshot / restore -----------------------------------------------------

    def state(self) -> Dict:
        """All accumulator state as a JSON-serialisable dict."""
        return {
            "usage": [
                list(key) + list(cell) for key, cell in self.usage.items()
            ],
            "credits": [
                list(key) + list(cell) for key, cell in self.credits.items()
            ],
            "tick_revenue": {str(t): v for t, v in self.tick_revenue.items()},
            "tick_credits": {str(t): v for t, v in self.tick_credits.items()},
        }

    def load_state(self, state: Dict) -> None:
        """Replace all accumulators with a previously captured state.

        JSON round-trips preserve doubles exactly, so a meter restored
        from ``json.loads(json.dumps(state()))`` continues bit-identically
        — the additivity contract of the property suite.
        """
        self.usage = {
            (row[0], row[1], int(row[2]), row[3], row[4]):
                [row[5], row[6], row[7]]
            for row in state["usage"]
        }
        self.credits = {
            (row[0], row[1], int(row[2]), row[3]): [row[4], row[5], row[6]]
            for row in state["credits"]
        }
        self.tick_revenue = {
            int(t): v for t, v in state["tick_revenue"].items()
        }
        self.tick_credits = {
            int(t): v for t, v in state["tick_credits"].items()
        }


@dataclass
class BillingEngine:
    """The controller-side billing attachment (meter + price book).

    Attach with :meth:`attach`; the controller calls :meth:`on_tick`
    from ``_finish`` after the observability hub, so the ledger entry
    for a tick always exists by the time it is metered.
    """

    book: PriceBook
    node_id: str = "node-0"

    def __post_init__(self) -> None:
        self.meter = UsageMeter(self.book)

    @classmethod
    def attach(
        cls,
        controller: "VirtualFrequencyController",
        book: Optional[PriceBook] = None,
        *,
        node_id: str = "node-0",
    ) -> "BillingEngine":
        """Wire a billing engine onto an already-built controller."""
        engine = cls(book if book is not None else DEFAULT_PRICE_BOOK,
                     node_id=node_id)
        controller.billing = engine
        return engine

    # -- the per-tick hook -------------------------------------------------------

    def on_tick(
        self,
        controller: "VirtualFrequencyController",
        report: "ControllerReport",
        tick: int,
    ) -> None:
        """Meter one finished tick (``tick`` is the 0-based count)."""
        auction = report.auction
        self.meter.meter_tick(
            {
                "tick": tick,
                "fmax_mhz": controller.fmax_mhz,
                "market_initial": report.market_initial,
                "market_left": auction.market_left if auction else 0.0,
                "tenants": controller._vm_tenant,
            },
            decision_rows(controller, report),
        )

    # -- results ------------------------------------------------------------------

    def invoices(self):
        """Per-tenant invoices from the current accumulators."""
        from repro.billing.invoice import build_invoices

        return build_invoices(
            self.meter.usage, self.meter.credits,
            book=self.book, node=self.node_id,
        )

    # -- snapshot / restore --------------------------------------------------------

    def state(self) -> Dict:
        return self.meter.state()

    def load_state(self, state: Dict) -> None:
        self.meter.load_state(state)

    def state_json(self) -> str:
        return json.dumps(self.state(), sort_keys=True)

