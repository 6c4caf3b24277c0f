"""The billing oracle: invoices re-derived from the decision ledger.

The billing engine must never certify its own arithmetic — the same
rule :func:`~repro.checking.invariants.check_plan_admissible` applies
to the rebalance planner.  This module recomputes every billable
quantity **independently**, starting from the PR 5 decision ledger
(the bit-exact causal record of every enforcement decision) and
walking the full chain again::

    recompute_allocation  ->  cycle-class split  ->  MHz-seconds  ->  price

Only the :class:`~repro.billing.pricing.PriceBook` *data* (tier bounds
and rate constants) is shared with the engine; every formula — tier
lookup, spot rate, allocation decomposition, SLA-credit condition —
is re-implemented inline here.  Because both sides are pure float
arithmetic over the same ledger-visible operands in the same
accumulation order, the comparison in :func:`audit_billing` is **exact
equality**, not tolerance-based: a single ULP of drift (or a planted
mutant) is a violation at the first tick it appears.

The replay harnesses at the bottom drive a fuzz trace with metering
attached (:func:`replay_with_billing`, the billing-smoke gate) or with
the SLO plane attached (:func:`replay_with_slo`, the slo-smoke gate).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.billing.pricing import DEFAULT_PRICE_BOOK, PriceBook
from repro.checking.invariants import Violation
from repro.checking.trace import Trace, _compare_reports, replay
from repro.obs.ledger import recompute_allocation

if False:  # pragma: no cover - typing-only import, avoids a hard cycle
    from repro.billing.meter import BillingEngine
    from repro.core.controller import ControllerReport
    from repro.obs.slo import SLOPlane


@dataclass
class DerivedBilling:
    """The oracle's independently recomputed accumulators.

    Shapes mirror :class:`~repro.billing.meter.UsageMeter` exactly —
    ``usage`` keyed ``(tenant, vm, vcpu, tier, kind)``, ``credits``
    keyed ``(tenant, vm, vcpu, tier)``, per-tick trails keyed by the
    1-based control tick — so :func:`audit_billing` can compare field
    for field.  ``violations`` holds ledger-integrity failures found
    *while* deriving (a recorded allocation that does not re-derive
    from its own causal chain poisons every price downstream).
    """

    usage: Dict[Tuple, List[float]] = field(default_factory=dict)
    credits: Dict[Tuple, List[float]] = field(default_factory=dict)
    tick_revenue: Dict[int, float] = field(default_factory=dict)
    tick_credits: Dict[int, float] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)


def _accumulate(store: Dict, key: Tuple, cycles: float, mhz_s: float,
                amount: float) -> None:
    cell = store.get(key)
    if cell is None:
        store[key] = [cycles, mhz_s, amount]
    else:
        cell[0] += cycles
        cell[1] += mhz_s
        cell[2] += amount


def derive_billing(
    entries: Sequence[Dict],
    book: Optional[PriceBook] = None,
) -> DerivedBilling:
    """Recompute all billing state from ledger tick entries alone.

    ``entries`` are decision-ledger records (``DecisionLedger.ticks``
    or :func:`repro.obs.ledger.load_jsonl` output) in recording order —
    ticks ascending, and after a controller restart the tick counter
    legitimately rewinds, in which case charges accumulate onto the
    same 1-based tick keys exactly as the live meter's did.
    """
    book = book if book is not None else DEFAULT_PRICE_BOOK
    derived = DerivedBilling()
    for entry in entries:
        meta = entry["meta"]
        tick = int(meta["tick"]) + 1  # ledger ticks are 0-based
        fmax_mhz = float(meta["fmax_mhz"])
        p_us = float(meta["p_us"])
        tenants = meta.get("tenants", {})
        # Inline re-derivations — deliberately NOT calls into
        # repro.billing: one MHz-second per cycle factor ...
        factor = fmax_mhz * 1e-6
        # ... and the scarcity-scaled spot rate.
        market_initial = float(meta["market_initial"])
        market_left = float(meta["market_left"])
        if market_initial <= 0:
            fraction_sold = 0.0
        else:
            fraction_sold = (market_initial - market_left) / market_initial
        spot = book.spot_base_rate * (1.0 + book.spot_slope * fraction_sold)
        revenue = derived.tick_revenue.get(tick, 0.0)
        refunds = derived.tick_credits.get(tick, 0.0)
        for decision in entry["decisions"]:
            vfreq = decision["vfreq"]
            allocation = decision["allocation"]
            if vfreq is None or allocation is None:
                continue
            vm = decision["vm"]
            vcpu = int(decision["vcpu"])
            tenant = tenants.get(vm, "default")
            base = decision["base"]
            purchased = decision["purchased"]
            fallback = decision["fallback"]
            # Ledger integrity first: the recorded allocation must
            # re-derive from its own recorded causal chain (PR 5's
            # guarantee) before any price built on it can be trusted.
            if fallback is not None or base is not None:
                rederived = recompute_allocation(decision, p_us)
                if rederived != allocation:
                    derived.violations.append(Violation(
                        "billing_ledger_integrity",
                        f"allocation {allocation!r} does not re-derive "
                        f"from its causal chain (got {rederived!r})",
                        t=float(tick), vm=vm, path=decision.get("path"),
                    ))
            # Inline tier lookup (first tier whose bound covers vfreq).
            tier = None
            for candidate in book.tiers:
                if vfreq <= candidate.max_vfreq_mhz:
                    tier = candidate
                    break
            assert tier is not None  # last tier bound is inf
            # Inline decomposition into billable cycle classes.
            if fallback is not None or base is None:
                guaranteed_c, purchased_c, free_c = allocation, 0.0, 0.0
            else:
                guaranteed_c = min(base, allocation)
                purchased_c = min(purchased, allocation - guaranteed_c)
                free_c = allocation - guaranteed_c - purchased_c
            for kind, cycles, rate in (
                ("guaranteed", guaranteed_c, tier.rate),
                ("purchased", purchased_c, spot),
                ("free", free_c, spot * book.free_discount),
            ):
                if cycles == 0.0:
                    continue
                amount = cycles * factor * rate
                _accumulate(
                    derived.usage, (tenant, vm, vcpu, tier.name, kind),
                    cycles, cycles * factor, amount,
                )
                revenue += amount
            # Inline SLA-credit condition: a vCPU whose demand saturates
            # its Eq. 2 guarantee (or is unobservable — degraded mode)
            # yet is allocated below it earns a refund on the shortfall.
            guarantee = decision["guarantee"]
            estimate = decision["estimate"]
            if (
                guarantee is not None
                and allocation < guarantee
                and (estimate is None or estimate >= guarantee)
            ):
                shortfall = guarantee - allocation
                amount = (
                    shortfall * factor * tier.rate * book.sla_refund_multiplier
                )
                _accumulate(
                    derived.credits, (tenant, vm, vcpu, tier.name),
                    shortfall, shortfall * factor, amount,
                )
                refunds += amount
        derived.tick_revenue[tick] = revenue
        derived.tick_credits[tick] = refunds
    return derived


def audit_billing(
    engine: "BillingEngine",
    entries: Sequence[Dict],
    book: Optional[PriceBook] = None,
) -> List[Violation]:
    """Compare a live billing engine against the oracle, exactly.

    Per-tick revenue/credit trails are checked first, in ascending
    tick order, so the leading violation names the **earliest** tick
    the engine's arithmetic went wrong — the property the mutant-catch
    tests pin ("caught at tick 1").  Then the full usage and credit
    accumulators are compared key by key.  Every comparison is ``!=``
    on raw floats: agreement must be bit-exact.
    """
    book = book if book is not None else engine.book
    derived = derive_billing(entries, book)
    violations: List[Violation] = list(derived.violations)
    meter = engine.meter
    for label, ours, theirs in (
        ("billing_tick_revenue", derived.tick_revenue, meter.tick_revenue),
        ("billing_tick_credits", derived.tick_credits, meter.tick_credits),
    ):
        for tick in sorted(set(ours) | set(theirs)):
            a = ours.get(tick)
            b = theirs.get(tick)
            if a != b:
                violations.append(Violation(
                    label,
                    f"oracle re-derives {a!r} from the ledger, "
                    f"engine metered {b!r}",
                    t=float(tick),
                ))
    for label, ours, theirs in (
        ("billing_usage", derived.usage, meter.usage),
        ("billing_credits", derived.credits, meter.credits),
    ):
        for key in sorted(set(ours) | set(theirs)):
            a = ours.get(key)
            b = theirs.get(key)
            if a != b:
                violations.append(Violation(
                    label,
                    f"{key}: oracle {a!r} != engine {b!r}",
                    vm=key[1],
                ))
    return violations


# ---------------------------------------------------------------------------
# Replay harness: trace -> metered replicas -> audited invoices
# ---------------------------------------------------------------------------


@dataclass
class BillingAuditResult:
    """One audited replay: the replay verdict plus per-engine audits."""

    replay: "object"  # ReplayResult; typed loosely to keep imports flat
    #: Billing violations from every engine's audit, engine-tagged.
    violations: List[Violation]
    #: Live billing engines, keyed by engine name (invoices on demand).
    billing: Dict[str, "BillingEngine"]
    #: The ledger entries each audit consumed, keyed by engine name.
    ledgers: Dict[str, List[Dict]]

    @property
    def ok(self) -> bool:
        return self.replay.ok and not self.violations


def _per_engine_attach(make: Callable[[str], Dict[str, object]]):
    """A replay ``attach`` hook wiring one set of observers per engine.

    ``make(engine)`` builds an engine's observers on first use, keyed
    by the controller attribute each one occupies (``obs``,
    ``billing``, ``slo``).  Every later call for that engine — the
    recovered controller after a ``restart`` event — re-binds the
    *same* objects, so state accrued before a crash carries over.
    Returns ``(attach, observers)``; ``observers[engine]`` is the dict
    ``make`` built.
    """
    observers: Dict[str, Dict[str, object]] = {}

    def attach(controller, engine: str) -> None:
        made = observers.get(engine)
        if made is None:
            made = observers[engine] = make(engine)
        for attr, observer in made.items():
            if attr == "obs":
                observer.bind(controller)
            setattr(controller, attr, observer)

    return attach, observers


def replay_with_billing(
    trace: Trace,
    *,
    engines: Optional[Sequence[str]] = None,
    book: Optional[PriceBook] = None,
    collect_reports: bool = False,
) -> BillingAuditResult:
    """Replay a trace with metering attached, then audit every engine.

    Each replica gets a ledger-only observability hub (ring sized to
    the whole trace, so the audit sees every tick) and a
    :class:`~repro.billing.meter.BillingEngine`.  Both survive
    ``restart`` events: the replay ``attach`` hook re-binds the *same*
    hub and engine to the recovered controller, so charges accrued
    before a crash stay on the invoice — and stay auditable, because
    the ledger ring spans the restart too.
    """
    from repro.billing.meter import BillingEngine
    from repro.obs.config import ObsConfig
    from repro.obs.hub import Observability

    book = book if book is not None else DEFAULT_PRICE_BOOK
    ring_ticks = max(trace.ticks, 1) + 1
    attach, observers = _per_engine_attach(lambda engine: {
        "obs": Observability(ObsConfig(
            tracing=False,
            ledger=True,
            flight_recorder_ticks=0,
            ledger_ring_ticks=ring_ticks,
        )),
        "billing": BillingEngine(book, node_id=f"fuzz-{engine}"),
    })
    result = replay(
        trace,
        engines=engines,
        stop_at_first=True,
        collect_reports=collect_reports,
        attach=attach,
    )
    billing = {e: made["billing"] for e, made in observers.items()}
    violations: List[Violation] = []
    ledgers: Dict[str, List[Dict]] = {}
    for engine in result.engines:
        entries = observers[engine]["obs"].ledger.ticks
        ledgers[engine] = entries
        for v in audit_billing(billing[engine], entries, book):
            violations.append(Violation(
                v.invariant, f"[{engine}] {v.message}",
                t=v.t, path=v.path, vm=v.vm,
            ))
    return BillingAuditResult(
        replay=result,
        violations=violations,
        billing=billing,
        ledgers=ledgers,
    )


@dataclass
class SLOAuditResult:
    """One gated SLO replay: the attached replay, the SLO plane each
    engine drove, and one message per failed gate."""

    replay: "object"  # ReplayResult; typed loosely to keep imports flat
    planes: Dict[str, "SLOPlane"]
    problems: List[str]

    @property
    def ok(self) -> bool:
        return not self.problems

    def alert_stream(self, engine: Optional[str] = None) -> str:
        """An engine's alert transitions (default: the first engine's),
        one sorted-key JSON object per line — the ``slo eval`` ledger."""
        plane = self.planes[engine or self.replay.engines[0]]
        return "\n".join(
            json.dumps(t, sort_keys=True) for t in plane.ledger.transitions
        )


def replay_with_slo(
    trace: Trace,
    *,
    engines: Optional[Sequence[str]] = None,
    determinism: bool = True,
    transparency: bool = True,
) -> SLOAuditResult:
    """Replay a trace with the SLO plane and billing attached, gated.

    The gates ``repro slo eval`` (the slo-smoke CI step) arms per seed:

    * **oracles** — the attached replay raises no invariant violation;
    * **cross-engine** — every engine produces the same alert stream;
    * **determinism** — replaying the identical trace twice yields
      byte-identical serialized alert ledgers (the deterministic
      profile, ``wallclock=False``);
    * **transparency** — report streams with the plane (and billing)
      attached are bit-identical to a detached replay, field for field.
    """
    from repro.billing.meter import BillingEngine
    from repro.obs.slo import SLOConfig, SLOPlane

    def run_attached() -> SLOAuditResult:
        attach, observers = _per_engine_attach(lambda engine: {
            "billing": BillingEngine(DEFAULT_PRICE_BOOK),
            "slo": SLOPlane(SLOConfig(wallclock=False)),
        })
        result = replay(
            trace, engines=engines, stop_at_first=False,
            collect_reports=transparency, attach=attach,
        )
        planes = {e: made["slo"] for e, made in observers.items()}
        return SLOAuditResult(result, planes, [])

    audit = run_attached()
    result, problems = audit.replay, audit.problems
    if result.violations:
        problems.append(
            f"{len(result.violations)} oracle violation(s), first: "
            f"{result.violations[0]}"
        )
    streams = {e: audit.alert_stream(e) for e in result.engines}
    first = result.engines[0]
    for engine in result.engines[1:]:
        if streams[engine] != streams[first]:
            problems.append(
                f"alert streams differ across engines "
                f"({first} vs {engine})"
            )
    if determinism:
        again = run_attached()
        for engine in result.engines:
            if again.alert_stream(engine) != streams[engine]:
                problems.append(
                    f"[{engine}] alert ledger not byte-identical "
                    f"across identical replays"
                )
    if transparency:
        detached = replay(
            trace, engines=engines, stop_at_first=False,
            collect_reports=True,
        )
        for engine in result.engines:
            pairs = zip(result.reports[engine], detached.reports[engine])
            for tick, (attached_r, detached_r) in enumerate(pairs, 1):
                diffs = _compare_reports(
                    attached_r, detached_r,
                    (f"{engine}+slo", engine), float(tick),
                )
                if diffs:
                    problems.append(
                        f"[{engine}] report diverged with the plane "
                        f"attached at tick {tick}: {diffs[0]}"
                    )
                    break
    return audit


def billing_predicate(
    *,
    engines: Optional[Sequence[str]] = None,
    book: Optional[PriceBook] = None,
) -> Callable[[Trace], bool]:
    """A shrink predicate: "this trace still produces a billing bug".

    Pass the result to :func:`repro.checking.shrink.shrink_trace` as
    ``predicate=`` — it holds iff the audited replay reports at least
    one *billing* violation (plain invariant failures don't count, so
    shrinking a billing repro cannot drift onto an unrelated bug).
    """

    def predicate(candidate: Trace) -> bool:
        return bool(
            replay_with_billing(
                candidate, engines=engines, book=book
            ).violations
        )

    return predicate
