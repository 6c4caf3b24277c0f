"""Correctness subsystem: paper-equation oracles, fuzzing, shrinking.

Three layers, each usable on its own:

* :mod:`repro.checking.invariants` — independent tick-level oracles that
  recompute the paper's Eqs. 2, 5 and 6 (plus ledger, enforcement and
  resilience safety envelopes) directly from controller state and
  compare against what the tick reported;
* :mod:`repro.checking.fuzz` — a fully seeded scenario fuzzer that
  generates VM churn, QoS renegotiation, workload bursts and fault
  schedules as a concrete event trace, then replays it under both
  controller engines with every invariant asserted each tick and
  cross-engine bit-identity checked;
* :mod:`repro.checking.shrink` — a delta-debugging shrinker that reduces
  a failing trace to a minimal JSONL repro, replayable via
  ``tests/checking/test_repros.py`` or ``python -m repro check replay``;
* :mod:`repro.checking.billing_oracle` — an independent re-derivation
  of every invoice line from the decision ledger, compared bit-exactly
  against the live billing engine (``docs/billing.md``), and the
  ``slo eval`` gates over a replay with the SLO plane attached.

See ``docs/testing.md`` for the workflow and the invariant catalogue.
"""

from repro.checking.billing_oracle import (
    audit_billing,
    billing_predicate,
    derive_billing,
    replay_with_billing,
    replay_with_slo,
)
from repro.checking.invariants import (
    INVARIANTS,
    InvariantChecker,
    InvariantViolationError,
    Violation,
)
from repro.checking.fuzz import FuzzResult, fuzz_one, generate_trace
from repro.checking.shrink import shrink_trace
from repro.checking.trace import ReplayResult, Trace, replay

__all__ = [
    "INVARIANTS",
    "InvariantChecker",
    "InvariantViolationError",
    "Violation",
    "FuzzResult",
    "audit_billing",
    "billing_predicate",
    "derive_billing",
    "fuzz_one",
    "generate_trace",
    "replay_with_billing",
    "replay_with_slo",
    "shrink_trace",
    "ReplayResult",
    "Trace",
    "replay",
]
