"""Tenant-aware usage metering from finished controller reports.

:class:`BillingEngine` hooks the controller exactly like the
observability hub: ``controller.billing`` is ``None`` by default (one
attribute check per tick), and when attached the engine works *post
hoc* from each finished :class:`~repro.core.controller.ControllerReport`
plus the controller's own registries — it never touches the stages, so
report and ledger streams stay bit-identical with billing on or off
(``tests/billing/test_transparency.py`` proves this across both
engines).

The meter reads the tick's :class:`~repro.core.frame.DecisionFrame`,
the same columns the decision ledger stores, so it walks no report of
its own and builds no per-vCPU dicts.  The metering arithmetic lives in
:class:`UsageMeter` and the module-level :func:`decompose`, both pure
functions of those ledger columns, evaluated elementwise over the
frame.  That is a deliberate contract: every accumulation performed
here is independently re-derived from the decision ledger by
:mod:`repro.checking.billing_oracle` with *exact* float equality, in
the ledger's decision order — each accumulator cell takes its adds in
row order, and the tick totals are sequential sums in (row, kind)
order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.billing.pricing import (
    DEFAULT_PRICE_BOOK,
    PriceBook,
    mhz_seconds_per_cycle,
    sold_fraction,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.controller import ControllerReport, VirtualFrequencyController
    from repro.core.frame import DecisionFrame

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


def decompose(base, purchased, fallback, allocation):
    """Split enforced allocations into billable cycle classes.

    The stage-6 allocation is ``min(base + purchased + free_share,
    p_us)`` (or the degraded-mode fallback), so the split charges the
    base reservation first, then auction purchases, and the remainder
    is the freely-distributed share — each component clipped so the
    three classes are non-negative and sum exactly to ``allocation``.
    Degraded fallbacks (and ledger rows without a base, i.e. without a
    fresh estimate) bill entirely as guaranteed-class usage: the
    customer holds a guarantee-backed cap either way.

    Takes one row (floats, ``None`` when absent) and returns a float
    triple, or float64 columns (NaN when absent) and returns three
    columns; ``min`` keeps Python's tie rule (the first argument).
    """
    row = np.ndim(allocation) == 0
    base = np.asarray(np.nan if base is None else base, dtype=np.float64)
    fallback = np.asarray(
        np.nan if fallback is None else fallback, dtype=np.float64
    )
    split = np.isnan(fallback) & ~np.isnan(base)
    guaranteed = np.where(split & ~(allocation < base), base, allocation)
    room = allocation - guaranteed
    purchased_c = np.where(split & ~(room < purchased), purchased, room)
    purchased_c = np.where(split, purchased_c, 0.0)
    free_c = np.where(split, room - purchased_c, 0.0)
    if row:
        return float(guaranteed), float(purchased_c), float(free_c)
    return guaranteed, purchased_c, free_c


class _Cells:
    """Insertion-ordered accumulator cells: key -> [cycles, mhz_s, amount].

    The values live in one ``(cells, 3)`` array; a new cell starts at
    ``-0.0``, the exact identity of float addition, so its first add
    stores the added value bit for bit.
    """

    def __init__(self) -> None:
        self.index: Dict[Tuple, int] = {}
        self.keys: List[Tuple] = []
        self.values = np.zeros((16, 3))

    def create(self, key: Tuple) -> int:
        i = self.index.get(key)
        if i is None:
            i = self.index[key] = len(self.keys)
            self.keys.append(key)
            if i == self.values.shape[0]:
                self.values = np.concatenate(
                    (self.values, np.zeros_like(self.values))
                )
            self.values[i] = -0.0
        return i

    def add(self, ids: np.ndarray, values: np.ndarray) -> None:
        """Add each row of ``values`` to its cell, in row order."""
        np.add.at(self.values, ids, values)

    def as_dict(self) -> Dict[Tuple, List[float]]:
        return dict(zip(self.keys, self.values[:len(self.keys)].tolist()))

    @classmethod
    def from_dict(cls, cells: Dict[Tuple, List[float]]) -> "_Cells":
        out = cls()
        for key, cell in cells.items():
            out.values[out.create(key)] = cell
        return out


class _RowKeys:
    """Per-row accumulator keys of one frame layout (VM set + registry).

    Reused tick over tick while the frame's ``vm``/``vcpu``/``vfreq``
    columns are the same objects and the tenant map is unchanged (the
    bulk engine keeps them for as long as its VM set is stable).  Cell
    ids start at -1 and are resolved the first time a row uses them.
    """

    def __init__(self, frame: "DecisionFrame", tenants: Dict[str, str],
                 book: PriceBook) -> None:
        self.vm, self.vcpu, self.vfreq = frame.vm, frame.vcpu, frame.vfreq
        self.tenants = dict(tenants)
        tiers = [None if v is None else book.tier_of(v) for v in frame.vfreq]
        #: Rows the meter bills: those with a registered vfreq.
        self.billed = np.array([t is not None for t in tiers], dtype=bool)
        self.tier_rate = np.array(
            [np.nan if t is None else t.rate for t in tiers], dtype=np.float64
        )
        self.usage_keys: List[Optional[List[UsageKey]]] = []
        self.credit_keys: List[Optional[CreditKey]] = []
        for vm, vcpu, tier in zip(frame.vm, frame.vcpu.tolist(), tiers):
            if tier is None:
                self.usage_keys.append(None)
                self.credit_keys.append(None)
                continue
            tenant = tenants.get(vm, "default")
            self.usage_keys.append(
                [(tenant, vm, vcpu, tier.name, kind) for kind in KINDS]
            )
            self.credit_keys.append((tenant, vm, vcpu, tier.name))
        self.usage_ids = np.full((len(tiers), 3), -1, dtype=np.intp)
        self.credit_ids = np.full(len(tiers), -1, dtype=np.intp)

    def matches(self, frame: "DecisionFrame", tenants: Dict[str, str]) -> bool:
        return (
            frame.vm is self.vm and frame.vcpu is self.vcpu
            and frame.vfreq is self.vfreq and tenants == self.tenants
        )


def _seqsum(start: float, values: np.ndarray) -> float:
    """``start`` plus ``values`` added strictly left to right."""
    if values.size == 0:
        return start
    return float(np.add.accumulate(np.concatenate(([start], values)))[-1])


class UsageMeter:
    """Per-(tenant, VM, vCPU) MHz-second accumulators, priced per tick.

    State is two insertion-ordered accumulator maps plus two per-tick
    trails:

    * ``usage``:   (tenant, vm, vcpu, tier, kind) -> [cycles, mhz_s, amount]
    * ``credits``: (tenant, vm, vcpu, tier) -> [shortfall cycles, mhz_s, amount]
    * ``tick_revenue`` / ``tick_credits``: 1-based control tick -> total

    Accumulation order inside one tick follows the frame's row order
    (the ledger's decision order), and ticks arrive in ascending order,
    so two meters fed the same frames hold bit-identical floats — the
    property the snapshot/restore additivity test and the oracle's
    exact-equality audit both rely on.
    """

    def __init__(self, book: Optional[PriceBook] = None) -> None:
        self.book = book if book is not None else DEFAULT_PRICE_BOOK
        self._usage = _Cells()
        self._credits = _Cells()
        self.tick_revenue: Dict[int, float] = {}
        self.tick_credits: Dict[int, float] = {}
        self._keys: Optional[_RowKeys] = None

    @property
    def usage(self) -> Dict[UsageKey, List[float]]:
        """Usage cells in first-metered order (a snapshot)."""
        return self._usage.as_dict()

    @property
    def credits(self) -> Dict[CreditKey, List[float]]:
        """SLA credit cells in first-metered order (a snapshot)."""
        return self._credits.as_dict()

    # -- one tick ---------------------------------------------------------------

    def meter_tick(self, meta: Dict, frame: "DecisionFrame") -> None:
        """Meter one finished tick from its decision frame.

        ``meta`` holds the ledger meta fields the price depends on:
        ``tick`` (0-based, metered as the 1-based control tick ``tick +
        1`` — the numbering trace replay uses for ``t``), ``fmax_mhz``,
        ``market_initial``, ``market_left`` and the ``tenants`` map
        (VMs missing from it bill to ``"default"``).  Rows without a
        registered vfreq are not billed.
        """
        tick = meta["tick"] + 1
        book = self.book
        factor = mhz_seconds_per_cycle(meta["fmax_mhz"])
        spot = book.spot_rate(
            sold_fraction(meta["market_initial"], meta["market_left"])
        )
        revenue = self.tick_revenue.get(tick, 0.0)
        refunds = self.tick_credits.get(tick, 0.0)
        if len(frame):
            keys = self._keys
            if keys is None or not keys.matches(frame, meta["tenants"]):
                keys = self._keys = _RowKeys(frame, meta["tenants"], book)
            cycles = np.stack(decompose(
                frame.base, frame.purchased, frame.fallback, frame.allocation
            ), axis=1)
            rates = np.empty_like(cycles)
            rates[:, 0] = keys.tier_rate
            rates[:, 1] = spot
            rates[:, 2] = spot * book.free_discount
            mhz_s = cycles * factor
            amount = mhz_s * rates
            use = (cycles != 0.0) & keys.billed[:, None]
            ids = self._cell_ids(
                self._usage, keys.usage_ids, use,
                lambda r, k: keys.usage_keys[r][k],
            )
            self._usage.add(ids, np.stack(
                (cycles[use], mhz_s[use], amount[use]), axis=1
            ))
            revenue = _seqsum(revenue, amount[use])
            missed = frame.missed() & keys.billed
            if missed.any():
                shortfall = frame.guarantee[missed] - frame.allocation[missed]
                short_mhz_s = shortfall * factor
                refund = (
                    short_mhz_s * keys.tier_rate[missed]
                    * book.sla_refund_multiplier
                )
                ids = self._cell_ids(
                    self._credits, keys.credit_ids, missed,
                    lambda r: keys.credit_keys[r],
                )
                self._credits.add(ids, np.stack(
                    (shortfall, short_mhz_s, refund), axis=1
                ))
                refunds = _seqsum(refunds, refund)
        self.tick_revenue[tick] = revenue
        self.tick_credits[tick] = refunds

    @staticmethod
    def _cell_ids(cells: _Cells, ids: np.ndarray, use: np.ndarray,
                  key_of) -> np.ndarray:
        """Cell id of every used entry; unresolved ids are looked up, and
        missing cells created, in row order."""
        new = use & (ids < 0)
        if new.any():
            for at in zip(*new.nonzero()):
                ids[at] = cells.create(key_of(*at))
        return ids[use]

    # -- snapshot / restore -----------------------------------------------------

    def state(self) -> Dict:
        """All accumulator state as a JSON-serialisable dict."""
        return {
            "usage": [
                list(key) + cell for key, cell in self.usage.items()
            ],
            "credits": [
                list(key) + cell for key, cell in self.credits.items()
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
        self._usage = _Cells.from_dict({
            (row[0], row[1], int(row[2]), row[3], row[4]):
                [row[5], row[6], row[7]]
            for row in state["usage"]
        })
        self._credits = _Cells.from_dict({
            (row[0], row[1], int(row[2]), row[3]): [row[4], row[5], row[6]]
            for row in state["credits"]
        })
        self._keys = None
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
            report.frame,
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

