"""The SLO plane's full-read evaluator and label-dict ingest.

:class:`ReferenceSLOPlane` is the plane as written before evaluation
and ingest were made proportional to change: ``evaluate`` re-derives
every (spec, label set, severity) bank and the anomaly watch list from
the store and reads both windows of every rule, every tick; ``on_tick``
names every series through a label dict and counts guarantee checks
per tenant with a :class:`~collections.Counter`.  The incremental plane
must produce the same alerts and the same store from the same stream
(``tests/obs/test_slo_incremental.py``).
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.core.timings import STAGES
from repro.obs.slo import SEVERITIES, BurnRateRule, SLOPlane
from repro.obs.tsdb import (
    S_DEADLINE_BAD,
    S_DEADLINE_CHECKS,
    S_GUARANTEE_BAD,
    S_GUARANTEE_CHECKS,
    S_STAGE_SECONDS,
    SeriesStore,
)


def reference_ingest_report(
    store: SeriesStore, frame, tenants: Mapping[str, str]
) -> Tuple[int, int]:
    """:meth:`SeriesStore.ingest_report` by tenant name, one
    ``Counter`` per mask and a label dict per append."""
    checked = ~(np.isnan(frame.consumed) | np.isnan(frame.guarantee))
    if not checked.any():
        return 0, 0
    missed = frame.missed() & checked
    total_by_tenant: Dict[str, int] = {}
    bad_by_tenant: Dict[str, int] = {}
    for by_tenant, mask in ((total_by_tenant, checked), (bad_by_tenant, missed)):
        for vm, n in Counter(compress(frame.vm, mask.tolist())).items():
            tenant = tenants.get(vm, "default")
            by_tenant[tenant] = by_tenant.get(tenant, 0) + n
    bad = total = 0
    for tenant in sorted(total_by_tenant):
        nb = bad_by_tenant.get(tenant, 0)
        nt = total_by_tenant[tenant]
        labels = {"tenant": tenant}
        store.accumulate(S_GUARANTEE_BAD, float(nb), labels)
        store.accumulate(S_GUARANTEE_CHECKS, float(nt), labels)
        bad += nb
        total += nt
    return bad, total


class ReferenceSLOPlane(SLOPlane):
    """:class:`SLOPlane` reading every window and naming every series."""

    def on_tick(self, controller, report, tick: int) -> None:
        store = self.store
        reference_ingest_report(
            store, report.frame, getattr(controller, "_vm_tenant", {})
        )
        seconds = report.timings.total
        if self.config.wallclock:
            bad = 1.0 if seconds > self.config.deadline_s else 0.0
            store.accumulate(S_DEADLINE_BAD, bad)
            store.accumulate(S_DEADLINE_CHECKS, 1.0)
            for stage in STAGES:
                store.append(
                    S_STAGE_SECONDS, getattr(report.timings, stage),
                    {"stage": stage},
                )
        backend = getattr(controller, "backend", None)
        if backend is not None:
            store.ingest_backend_stats(backend.stats, source=self.node)
        billing = getattr(controller, "billing", None)
        if billing is not None:
            store.ingest_billing(billing, tick + 1, node=self.node)
        transitions = self.evaluate(tick, t=report.t)
        self._maybe_flight_dump(controller, transitions)

    def evaluate(self, tick: int, *, t: float = 0.0) -> List[Dict]:
        transitions: List[Dict] = []
        for spec in self.specs:
            for labelset in self._label_sets(spec):
                labels = dict(labelset)
                for severity in SEVERITIES:
                    rules = [r for r in spec.rules if r.severity == severity]
                    if not rules:
                        continue
                    fired = None
                    for rule in rules:
                        burn_long = self.burn_rate(
                            spec, rule.long_window, labels
                        )
                        burn_short = self.burn_rate(
                            spec, rule.short_window, labels
                        )
                        if burn_long >= rule.factor and burn_short >= rule.factor:
                            fired = (rule, burn_long, burn_short)
                            break
                    key = (spec.name, labelset, severity)
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
                            burn_long=self.burn_rate(
                                spec, rule.long_window, labels
                            ),
                            burn_short=self.burn_rate(
                                spec, rule.short_window, labels
                            ),
                        )
                        transitions.append(transition)
        self._watched = self._watched_series()
        transitions.extend(self._evaluate_anomalies(tick, t))
        for transition in transitions:
            self.ledger.record(transition)
        self.transitions_total += len(transitions)
        self.last_tick = tick
        return transitions
