"""Declarative SLOs + multi-window multi-burn-rate alerting.

The paper's contract is a *guarantee* (Eq. 2, inside a 1 s control
period); this module turns it into operable SLOs in the Google-SRE
style: an objective over a ratio of counters, a bank of
(long window, short window, burn-rate factor) rules per severity, and
firing/resolved :class:`Alert` transitions recorded in a bounded
ledger with a JSONL mirror — re-derivable via ``repro explain
--alert``, exactly like the decision ledger explains one ``cpu.max``
write.

The shipped catalogue (:func:`default_slos`):

* ``guarantee`` — per-tenant guarantee-violation SLO: of all vCPU-tick
  guarantee checks (the billing meter's SLA criterion, on the same
  decision-ledger rows), at most ``1 - objective`` may fail;
* ``tick_deadline`` — control-loop latency SLO: each node's stage
  total must fit the control period (wall-clock, so excluded from the
  deterministic profile);
* ``credit_burn`` — billing SLA-credit-burn SLO (Lučanin et al.,
  arXiv:1809.05840): refunded dollars may be at most ``1 - objective``
  of total billed dollars.

Everything evaluates deterministically at tick boundaries from the
:class:`~repro.obs.tsdb.SeriesStore`: same ingested stream, byte-
identical alert ledger (``make slo-smoke`` gates it in CI).  Like the
obs hub and the billing engine, the plane is a pure observer — report
and decision-ledger streams are bit-identical with it attached or not
(``tests/obs/test_slo_transparency.py``, both engines).
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.timings import STAGES
from repro.obs.anomaly import AnomalyConfig, EwmaDetector
from repro.obs.tsdb import (
    S_BACKEND_ERRORS,
    S_CREDITS_USD,
    S_DEADLINE_BAD,
    S_DEADLINE_CHECKS,
    S_GUARANTEE_BAD,
    S_GUARANTEE_CHECKS,
    S_REVENUE_USD,
    S_STAGE_SECONDS,
    LabelSet,
    Series,
    SeriesStore,
)

#: Alert severities, in evaluation (and paging) order.
SEVERITIES = ("page", "ticket")


@dataclass(frozen=True)
class BurnRateRule:
    """One (long, short, factor) multi-window burn-rate rule.

    Fires when the error-budget burn rate exceeds ``factor`` over
    *both* windows — the long window for significance, the short one
    so a resolved incident stops paging quickly (Google SRE workbook,
    ch. 5).  Windows are in control ticks (1 tick ≈ 1 s at the paper's
    period), scaled down from the SRE book's hours so simulations
    reach them.
    """

    long_window: int
    short_window: int
    factor: float
    severity: str = "page"

    def __post_init__(self) -> None:
        if self.short_window < 1 or self.long_window <= self.short_window:
            raise ValueError("need long_window > short_window >= 1")
        if self.factor <= 0:
            raise ValueError("factor must be positive")
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}")


#: The SRE-workbook rule bank (14.4x/1h, 6x/6h, 3x/1d, 1x/3d) mapped
#: onto tick-scale windows.
DEFAULT_RULES: Tuple[BurnRateRule, ...] = (
    BurnRateRule(60, 5, 14.4, "page"),
    BurnRateRule(240, 30, 6.0, "page"),
    BurnRateRule(720, 120, 3.0, "ticket"),
    BurnRateRule(1440, 360, 1.0, "ticket"),
)


@dataclass(frozen=True)
class SLOSpec:
    """One declarative SLO over a bad/total counter pair.

    ``by`` groups evaluation per label key (e.g. ``"tenant"``): every
    label set present on ``bad_series`` gets its own burn rates, alert
    state, and budget.  ``ratio`` picks the bad fraction: ``"of_total"``
    is ``bad / total`` (event SLOs, where total counts checks);
    ``"of_sum"`` is ``bad / (bad + total)`` (volume SLOs, where the two
    series split one population — e.g. credit vs. revenue dollars).
    """

    name: str
    objective: float
    bad_series: str
    total_series: str
    by: Optional[str] = None
    ratio: str = "of_total"
    rules: Tuple[BurnRateRule, ...] = DEFAULT_RULES
    #: Window for the error-budget-remaining gauge.
    budget_window: int = 1440
    #: Wall-clock-fed SLOs are dropped by the deterministic profile
    #: (``SLOConfig.wallclock=False``) so replayed alert ledgers can be
    #: byte-identical.
    wallclock: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if self.ratio not in ("of_total", "of_sum"):
            raise ValueError("ratio must be 'of_total' or 'of_sum'")
        if not self.rules:
            raise ValueError("need at least one burn-rate rule")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective


def default_slos(*, wallclock: bool = True) -> Tuple[SLOSpec, ...]:
    """The shipped SLO catalogue (see the module docstring)."""
    specs = [
        SLOSpec(
            name="guarantee",
            objective=0.999,
            bad_series=S_GUARANTEE_BAD,
            total_series=S_GUARANTEE_CHECKS,
            by="tenant",
            description="Eq. 2: guarantee-seeking vCPU-ticks that fell "
                        "short of their contracted virtual frequency.",
        ),
        SLOSpec(
            name="tick_deadline",
            objective=0.99,
            bad_series=S_DEADLINE_BAD,
            total_series=S_DEADLINE_CHECKS,
            wallclock=True,
            description="Node-ticks whose six-stage wall time exceeded "
                        "the control period.",
        ),
        SLOSpec(
            name="credit_burn",
            objective=0.99,
            bad_series=S_CREDITS_USD,
            total_series=S_REVENUE_USD,
            by="node",
            ratio="of_sum",
            description="SLA-credit dollars refunded as a fraction of "
                        "all billed dollars (arXiv:1809.05840).",
        ),
    ]
    if not wallclock:
        specs = [s for s in specs if not s.wallclock]
    return tuple(specs)


@dataclass(frozen=True)
class SLOConfig:
    """Knob block of one SLO plane."""

    #: SLO catalogue; empty selects :func:`default_slos`.
    specs: Tuple[SLOSpec, ...] = ()
    #: False drops wall-clock-fed SLOs *and* wall-clock anomaly
    #: detectors, leaving only deterministically-replayable sources
    #: (the ``make slo-smoke`` determinism gate runs this profile).
    wallclock: bool = True
    #: Ring capacity per downsample level of the series store.
    capacity: int = 512
    #: Alert transitions retained in memory (JSONL keeps everything).
    ring: int = 4096
    #: Directory for ``alerts.jsonl``; ``None`` keeps the ledger in
    #: memory only.
    out_dir: Optional[str] = None
    #: Control period driving the tick-deadline SLO.
    period_s: float = 1.0
    #: A node tick is "bad" when its stage total exceeds
    #: ``deadline_fraction * period_s``.
    deadline_fraction: float = 1.0
    #: Detector knobs for the anomaly lane; ``None`` disables it.
    anomaly: Optional[AnomalyConfig] = field(default_factory=AnomalyConfig)

    def __post_init__(self) -> None:
        if self.capacity < 2:
            raise ValueError("capacity must be >= 2")
        if self.ring < 1:
            raise ValueError("ring must be >= 1")
        if self.period_s <= 0 or self.deadline_fraction <= 0:
            raise ValueError("period_s and deadline_fraction must be positive")

    @property
    def deadline_s(self) -> float:
        return self.period_s * self.deadline_fraction


class AlertLedger:
    """Bounded ring of alert transitions, optionally mirrored as JSONL.

    Same shape as the decision ledger: plain dicts, ``sort_keys``
    serialization, one record per line — so two runs over identical
    streams produce byte-identical files (the determinism gate).
    """

    def __init__(self, ring: int = 4096, path: Optional[str] = None) -> None:
        self._ring: deque = deque(maxlen=ring)
        self.path = path
        self._fh = open(path, "a", buffering=1) if path else None

    def record(self, transition: Dict) -> None:
        self._ring.append(transition)
        if self._fh is not None:
            self._fh.write(json.dumps(transition, sort_keys=True) + "\n")

    @property
    def transitions(self) -> List[Dict]:
        return list(self._ring)

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()


def load_alerts_jsonl(path: str) -> List[Dict]:
    """Load alert transitions back from a JSONL mirror."""
    out: List[Dict] = []
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            entry = json.loads(line)
            if entry.get("kind") == "alert":
                out.append(entry)
    return out


def _ratio(
    spec: SLOSpec, window: int, bad: Optional[Series], total: Optional[Series]
) -> float:
    """The bad fraction of ``spec`` over one window (a missing series
    counts as no increase)."""
    bad_n = bad.increase(window) if bad is not None else 0.0
    total_n = total.increase(window) if total is not None else 0.0
    if spec.ratio == "of_sum":
        total_n = bad_n + total_n
    if total_n <= 0.0:
        return 0.0
    return bad_n / total_n


def _ingest_tick(store: SeriesStore, controller, report) -> None:
    """One controller tick's per-tenant guarantee checks (its frame)."""
    store.ingest_report(report.frame, getattr(controller, "_vm_tenant", {}))


class SLOPlane:
    """The cluster SLO/alerting plane: one store, one rule engine.

    Attach to a controller with :meth:`attach`, feed it cluster planes with
    :meth:`observe_cluster` / :meth:`observe_shard_reader`, or drive it
    fully post hoc from finished reports — it only ever *reads*, so
    report/ledger streams are bit-identical with it on or off.
    """

    def __init__(
        self,
        config: Optional[SLOConfig] = None,
        *,
        node: str = "node-0",
    ) -> None:
        cfg = config if config is not None else SLOConfig()
        self.config = cfg
        self.node = node
        if cfg.out_dir:
            os.makedirs(cfg.out_dir, exist_ok=True)
        self.store = SeriesStore(capacity=cfg.capacity)
        specs = cfg.specs if cfg.specs else default_slos(wallclock=cfg.wallclock)
        if not cfg.wallclock:
            specs = tuple(s for s in specs if not s.wallclock)
        self.specs: Tuple[SLOSpec, ...] = specs
        path = (
            os.path.join(cfg.out_dir, "alerts.jsonl") if cfg.out_dir else None
        )
        self.ledger = AlertLedger(cfg.ring, path=path)
        #: (slo, labelset, severity) -> the transition that fired it.
        self._firing: Dict[Tuple[str, LabelSet, str], Dict] = {}
        self._detectors: Dict[Tuple[str, LabelSet], EwmaDetector] = {}
        self.transitions_total = 0
        self.last_tick: Optional[int] = None
        #: The rule banks and the anomaly lane's watch list, built for a
        #: store of ``_banks_key`` series (series are never removed).
        self._banks: List[Tuple] = []
        self._watched: List[Series] = []
        self._banks_key = -1
        #: ``on_tick``'s fixed series, bound on first use.
        self._deadline_series: Optional[Tuple[Series, Series]] = None
        self._stage_series: List[Series] = []
        self._errors_series: Optional[Series] = None
        self._billing_series: Optional[Tuple[Series, Series]] = None

    # -- wiring ------------------------------------------------------------

    @classmethod
    def attach(
        cls,
        controller,
        config: Optional[SLOConfig] = None,
        *,
        node: str = "node-0",
    ) -> "SLOPlane":
        """Wire a plane onto an already-built controller (hub-style)."""
        if config is None:
            config = SLOConfig(period_s=controller.config.period_s)
        plane = cls(config, node=node)
        controller.slo = plane
        return plane

    # -- per-tick ingest ---------------------------------------------------

    def on_tick(self, controller, report, tick: int) -> None:
        """The controller ``_finish`` hook: ingest, evaluate, page."""
        store = self.store
        _ingest_tick(store, controller, report)
        # Each group of fixed series is bound where the first tick
        # would have created it, so the store's series order is as if
        # every append named its labels.
        if self.config.wallclock:
            if self._deadline_series is None:
                self._deadline_series = (
                    store.series(S_DEADLINE_BAD),
                    store.series(S_DEADLINE_CHECKS),
                )
                self._stage_series = [
                    store.series(S_STAGE_SECONDS, {"stage": stage})
                    for stage in STAGES
                ]
            timings = report.timings
            deadline_bad, deadline_checks = self._deadline_series
            deadline_bad.accumulate(
                1.0 if timings.total > self.config.deadline_s else 0.0
            )
            deadline_checks.accumulate(1.0)
            for series, stage in zip(self._stage_series, STAGES):
                series.append(getattr(timings, stage))
        backend = getattr(controller, "backend", None)
        if backend is not None:
            if self._errors_series is None:
                self._errors_series = store.series(
                    S_BACKEND_ERRORS, {"source": self.node}
                )
            stats = backend.stats
            self._errors_series.append(
                float(stats.read_errors + stats.write_errors)
            )
        billing = getattr(controller, "billing", None)
        if billing is not None:
            if self._billing_series is None:
                labels = {"node": self.node}
                self._billing_series = (
                    store.series(S_REVENUE_USD, labels),
                    store.series(S_CREDITS_USD, labels),
                )
            # The meter numbered this tick 1-based in ``on_tick``.
            meter = billing.meter
            revenue, credits = self._billing_series
            revenue.accumulate(meter.tick_revenue.get(tick + 1, 0.0))
            credits.accumulate(meter.tick_credits.get(tick + 1, 0.0))
        transitions = self.evaluate(tick, t=report.t)
        self._maybe_flight_dump(controller, transitions)

    def observe_cluster(
        self, manager, tick: int, *, t: float = 0.0, evaluate: bool = True
    ) -> List[Dict]:
        """Ingest a manager barrier tick (reports or shm dialect).

        A sharded manager is read objectlessly through its mapped
        :class:`ShardTelemetryReader` blocks; an in-process manager
        through ``last_reports`` + controller registries.  A shard whose
        snapshot stays torn is skipped for this scrape and its nodes
        are marked failed on the manager, as a dead shard process is.
        Returns the alert transitions this tick produced.
        """
        store = self.store
        deadline = self.config.deadline_s if self.config.wallclock else None
        readers = getattr(manager, "readers", None)
        if readers:
            for shard_id in sorted(readers):
                torn = store.ingest_shard_reader(
                    readers[shard_id], shard=shard_id, deadline_s=deadline
                )
                if torn is not None:
                    manager.shard_failed(shard_id, torn)
        else:
            controllers = getattr(manager, "controllers", {})
            for node_id in sorted(manager.last_reports):
                controller = controllers.get(node_id)
                if controller is not None:
                    _ingest_tick(
                        store, controller, manager.last_reports[node_id]
                    )
            store.ingest_node_manager(manager, deadline_s=deadline)
            for node_id in sorted(controllers):
                controller = controllers[node_id]
                billing = getattr(controller, "billing", None)
                if billing is not None:
                    # The controller's own last metered tick, whatever
                    # numbering the caller's ``tick`` uses.
                    store.ingest_billing(
                        billing, controller._tick_count, node=node_id
                    )
        if not evaluate:
            return []
        return self.evaluate(tick, t=t)

    # -- evaluation --------------------------------------------------------

    def _bad_ratio(self, spec: SLOSpec, window: int, labels: Dict) -> float:
        store = self.store
        return _ratio(
            spec, window,
            store.get(spec.bad_series, labels),
            store.get(spec.total_series, labels),
        )

    def burn_rate(self, spec: SLOSpec, window: int, labels: Dict) -> float:
        """Error-budget burn rate over one window (1.0 = exactly on
        budget for the whole SLO period)."""
        return self._bad_ratio(spec, window, labels) / spec.error_budget

    def error_budget_remaining(
        self, spec: SLOSpec, labels: Optional[Dict] = None
    ) -> float:
        """Fraction of the budget window's error budget still unspent
        (1.0 untouched, 0.0 exhausted, negative when overspent)."""
        ratio = self._bad_ratio(spec, spec.budget_window, labels or {})
        return 1.0 - ratio / spec.error_budget

    def _label_sets(self, spec: SLOSpec) -> List[LabelSet]:
        if spec.by is None:
            return [()]
        seen = sorted(
            {s.labels for s in self.store.select(spec.bad_series)}
        )
        return seen if seen else []

    def _refresh_banks(self) -> None:
        """Rebuild the bank and watch lists after the store grew."""
        store = self.store
        if len(store) == self._banks_key:
            return
        banks = []
        for spec in self.specs:
            for labelset in self._label_sets(spec):
                labels = dict(labelset)
                bad = store.get(spec.bad_series, labels)
                total = store.get(spec.total_series, labels)
                for severity in SEVERITIES:
                    rules = [r for r in spec.rules if r.severity == severity]
                    if rules:
                        key = (spec.name, labelset, severity)
                        banks.append((key, spec, rules, bad, total))
        self._banks = banks
        self._watched = self._watched_series()
        self._banks_key = len(store)

    def evaluate(self, tick: int, *, t: float = 0.0) -> List[Dict]:
        """Run every rule bank + detector; record and return the new
        firing/resolved transitions (deterministic order).

        A rule is skipped unread when every raw point its short window
        covers is equal: its bad increase there is exactly 0.0 (or NaN),
        so its short burn rate cannot reach ``factor > 0`` and it cannot
        fire.  A bank without a bad series has nothing to fire on.
        """
        self._refresh_banks()
        capacity = self.store.capacity
        transitions: List[Dict] = []
        for key, spec, rules, bad, total in self._banks:
            _, labelset, severity = key
            budget = spec.error_budget
            fired = None
            if bad is not None:
                points = bad.total
                flat = points - bad.changed
                for rule in rules:
                    short = rule.short_window
                    if short <= capacity and min(points, short) <= flat:
                        continue
                    burn_long = _ratio(spec, rule.long_window, bad, total) / budget
                    burn_short = _ratio(spec, short, bad, total) / budget
                    if burn_long >= rule.factor and burn_short >= rule.factor:
                        fired = (rule, burn_long, burn_short)
                        break
            active = key in self._firing
            if fired is not None and not active:
                rule, burn_long, burn_short = fired
                transition = self._transition(
                    spec, labelset, severity, "firing", tick, t,
                    rule=rule, burn_long=burn_long,
                    burn_short=burn_short,
                )
                self._firing[key] = transition
                transitions.append(transition)
            elif fired is None and active:
                fired_rule = self._firing.pop(key)["rule"]
                rule = BurnRateRule(
                    fired_rule["long"], fired_rule["short"],
                    fired_rule["factor"], severity,
                )
                transition = self._transition(
                    spec, labelset, severity, "resolved", tick, t,
                    rule=rule,
                    burn_long=_ratio(spec, rule.long_window, bad, total) / budget,
                    burn_short=_ratio(spec, rule.short_window, bad, total) / budget,
                )
                transitions.append(transition)
        transitions.extend(self._evaluate_anomalies(tick, t))
        for transition in transitions:
            self.ledger.record(transition)
        self.transitions_total += len(transitions)
        self.last_tick = tick
        return transitions

    def _transition(
        self, spec: SLOSpec, labelset: LabelSet, severity: str, state: str,
        tick: int, t: float, *, rule: BurnRateRule,
        burn_long: float, burn_short: float,
    ) -> Dict:
        return {
            "kind": "alert",
            "source": "burn_rate",
            "slo": spec.name,
            "labels": dict(labelset),
            "severity": severity,
            "state": state,
            "tick": tick,
            "t": t,
            "objective": spec.objective,
            "rule": {
                "long": rule.long_window,
                "short": rule.short_window,
                "factor": rule.factor,
            },
            "burn_long": burn_long,
            "burn_short": burn_short,
            "budget_remaining": self.error_budget_remaining(
                spec, dict(labelset)
            ),
        }

    # -- the anomaly lane --------------------------------------------------

    def _watched_series(self) -> List:
        """Series the EWMA detectors fold over, in deterministic order.

        Backend error *rates* are deterministic under a fault plan;
        stage timings are wall-clock and gated on the profile.
        """
        watched = list(self.store.select(S_BACKEND_ERRORS))
        if self.config.wallclock:
            watched.extend(self.store.select(S_STAGE_SECONDS))
        watched.sort(key=lambda s: (s.name, s.labels))
        return watched

    def _evaluate_anomalies(self, tick: int, t: float) -> List[Dict]:
        if self.config.anomaly is None:
            return []
        transitions: List[Dict] = []
        for series in self._watched:
            key = (series.name, series.labels)
            detector = self._detectors.get(key)
            if detector is None:
                detector = EwmaDetector(series.name, self.config.anomaly)
                self._detectors[key] = detector
            # Counters are folded as per-tick rates, gauges as-is.
            value = (
                series.rate(2)
                if series.name.endswith("_total") else series.last
            )
            change = detector.observe(value)
            if change is None:
                continue
            transitions.append({
                "kind": "alert",
                "source": "anomaly",
                "slo": f"anomaly:{series.name}",
                "labels": dict(series.labels),
                "severity": "ticket",
                "state": change,
                "tick": tick,
                "t": t,
                "z": detector.last_z,
                "detector": {
                    "alpha": detector.config.alpha,
                    "z_fire": detector.config.z_fire,
                    "z_resolve": detector.config.z_resolve,
                    "warmup": detector.config.warmup,
                    "seed": detector.config.seed,
                    "mean": detector.mean,
                },
                "value": value,
            })
        return transitions

    # -- alert surface -----------------------------------------------------

    def firing_alerts(self) -> List[Dict]:
        """Currently-firing alerts, deterministic order."""
        return [
            self._firing[key]
            for key in sorted(self._firing, key=lambda k: (k[0], k[1], k[2]))
        ]

    def dashboard(self, tick: int) -> str:
        """The ``repro slo watch`` table: per SLO and label set, the
        objective, budget left, 60- and 5-tick burn rates and state."""
        from repro.sim.report import render_table

        rows = []
        for spec in self.specs:
            for labelset in self._label_sets(spec):
                labels = dict(labelset)
                label_text = ",".join(
                    f"{k}={v}" for k, v in sorted(labels.items())
                ) or "-"
                firing = [
                    severity for severity in ("page", "ticket")
                    if (spec.name, labelset, severity) in self._firing
                ]
                rows.append([
                    spec.name,
                    label_text,
                    f"{spec.objective:.3%}",
                    f"{self.error_budget_remaining(spec, labels):.1%}",
                    f"{self.burn_rate(spec, 60, labels):.2f}x",
                    f"{self.burn_rate(spec, 5, labels):.2f}x",
                    ",".join(firing) if firing else "ok",
                ])
        return render_table(
            ["slo", "labels", "objective", "budget left", "burn 60t",
             "burn 5t", "state"],
            rows,
            title=f"SLO dashboard @ tick {tick} "
                  f"({self.transitions_total} transition(s) so far)",
        )

    def _maybe_flight_dump(self, controller, transitions: Iterable[Dict]) -> None:
        """Page-severity firing -> flight-recorder dump (per-tick dedup).

        Routed through the same :meth:`FlightRecorder.dump` idempotence
        as ``on_violation``, so a burn-rate incident ships with a
        replayable trace of the ticks that burned the budget.
        """
        obs = getattr(controller, "obs", None)
        recorder = getattr(obs, "recorder", None) if obs is not None else None
        if recorder is None:
            return
        for transition in transitions:
            if (
                transition["severity"] == "page"
                and transition["state"] == "firing"
            ):
                summary = (
                    f"slo {transition['slo']} {transition['labels']} "
                    f"burning at {transition.get('burn_long', 0.0):.1f}x"
                )
                recorder.dump(
                    f"slo_page_{transition['slo']}", violations=[summary]
                )

    def close(self) -> None:
        self.ledger.close()


# ---------------------------------------------------------------------------
# ``repro explain --alert`` rendering
# ---------------------------------------------------------------------------


def lookup_alert(
    entries: Iterable[Dict], slo: str, index: Optional[int] = None
) -> Dict:
    """The ``index``-th (default: latest) transition of one SLO."""
    matches = [e for e in entries if e.get("slo") == slo]
    if not matches:
        names = sorted({e.get("slo", "?") for e in entries})
        raise KeyError(
            f"no alert transitions for slo={slo!r} "
            f"(recorded: {', '.join(names) or 'none'})"
        )
    if index is None:
        return matches[-1]
    if not 0 <= index < len(matches):
        raise KeyError(
            f"slo={slo!r} has {len(matches)} transition(s); "
            f"index {index} out of range"
        )
    return matches[index]


def explain_alert(entry: Dict) -> str:
    """Human-readable re-derivation of one alert transition.

    Re-applies the firing condition to the recorded inputs — like
    ``recompute_allocation`` for the decision ledger, a mismatch means
    the plane mis-recorded its own arithmetic.
    """
    labels = ",".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
    lines = [
        f"alert derivation for slo={entry['slo']}"
        + (f"{{{labels}}}" if labels else "")
        + f" at tick {entry['tick']} (t={entry['t']:g})",
        f"  transition: {entry['state'].upper()} "
        f"(severity {entry['severity']}, source {entry['source']})",
    ]
    if entry["source"] == "burn_rate":
        objective = entry["objective"]
        budget = 1.0 - objective
        rule = entry["rule"]
        lines.append(
            f"  objective   {objective:.4%} -> error budget {budget:.4%}"
        )
        lines.append(
            f"  rule        long {rule['long']} ticks / short "
            f"{rule['short']} ticks, factor {rule['factor']:g}x"
        )
        lines.append(
            f"  burn rates  long {entry['burn_long']:.3f}x, "
            f"short {entry['burn_short']:.3f}x"
        )
        lines.append(
            f"  budget      {entry['budget_remaining']:.1%} of the "
            f"budget window's error budget remaining"
        )
        fired = (
            entry["burn_long"] >= rule["factor"]
            and entry["burn_short"] >= rule["factor"]
        )
        expected = entry["state"] == "firing"
        if fired == expected:
            lines.append(
                "  verification: recomputed burn-rate condition matches "
                "the recorded transition"
            )
        else:
            lines.append(
                f"  verification: MISMATCH — recorded burns imply "
                f"fired={fired}, ledger says {entry['state']!r}"
            )
    else:  # anomaly
        det = entry["detector"]
        lines.append(
            f"  detector    EWMA alpha={det['alpha']:g} "
            f"z_fire={det['z_fire']:g} z_resolve={det['z_resolve']:g} "
            f"warmup={det['warmup']} seed={det['seed']}"
        )
        lines.append(
            f"  observed    value {entry['value']:g} -> z={entry['z']:+.2f} "
            f"against EWMA mean {det['mean']:g}"
        )
        z = abs(entry["z"])
        if entry["state"] == "firing":
            ok = z >= det["z_fire"]
            condition = f"|z| >= {det['z_fire']:g}"
        else:
            ok = z <= det["z_resolve"]
            condition = f"|z| <= {det['z_resolve']:g}"
        if ok:
            lines.append(
                f"  verification: {condition} holds for the recorded z "
                "(re-derived, matches)"
            )
        else:
            lines.append(
                f"  verification: MISMATCH — {condition} fails for the "
                f"recorded z={entry['z']:+.2f}"
            )
    return "\n".join(lines)


def explain_alert_from_entries(
    entries: Iterable[Dict], slo: str, index: Optional[int] = None
) -> str:
    return explain_alert(lookup_alert(list(entries), slo, index))
