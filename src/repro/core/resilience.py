"""Degraded-mode resilience policies for the controller loop.

The paper's controller sits in a 1 s feedback loop over live kernel
interfaces that fail routinely in production: vCPU threads vanish
mid-scan, cgroup writes return EIO/EBUSY, counters freeze, and the
controller process itself restarts.  Makridis et al. ("Robust Dynamic
CPU Resource Provisioning in Virtualized Servers") argue an allocation
controller must stay stable under noisy and missing measurements; this
module is the knob set that buys that stability:

* **bounded retry-with-backoff** for ``cpu.max`` writes that fail with
  a transient error (EIO/EBUSY) — the backend reports per-path write
  failures instead of aborting the batch, and the controller retries
  the failed subset up to ``write_retries`` times;
* **stale-sample tolerance** in stage 1 — a vCPU missing from one
  scan is carried forward (its last sample is repeated) for up to
  ``stale_sample_max_age`` ticks instead of silently disappearing from
  stages 2-6 (:class:`StaleSamples`, over the backend's
  :class:`~repro.core.backend.SampleBatch` columns);
* **degraded mode** — a vCPU unobservable for ``degraded_after_ticks``
  consecutive ticks stops being estimated and falls back to a safe cap:
  its Eq. 2 guarantee (``degraded_action="guarantee"``) or the last cap
  in force (``"hold"``).  Recovery is automatic the moment the vCPU is
  observed again, and the recovery latency is recorded.

The policy is pure configuration (a frozen dataclass, routable through
:meth:`~repro.core.config.ControllerConfig.with_overrides`); the
mutable tracking lives in :class:`ResilienceStats` on the controller.
``None``/disabled keeps the seed behaviour bit-identical: faults raise
out of ``tick()`` or are silently swallowed, exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

import numpy as np

from repro.core.backend import SampleBatch
from repro.obs.logging import get_logger

log = get_logger("repro.resilience")


@dataclass(frozen=True)
class ResiliencePolicy:
    """All knobs of the controller's degraded-mode defenses."""

    #: Retries of a failed ``cpu.max`` write batch (0 = no retry).
    write_retries: int = 2
    #: Simulated backoff between write retries, seconds per attempt.
    write_backoff_s: float = 0.0
    #: Carry a missing vCPU's last sample forward for up to this many
    #: ticks before it counts as unobservable (0 = no carry-forward).
    stale_sample_max_age: int = 2
    #: Consecutive unobserved ticks after which a vCPU enters degraded
    #: mode and falls back to a safe cap.
    degraded_after_ticks: int = 3
    #: Degraded fallback: ``"guarantee"`` caps at the Eq. 2 guarantee
    #: ``C_i``; ``"hold"`` keeps the last cap in force.
    degraded_action: str = "guarantee"

    def __post_init__(self) -> None:
        if self.write_retries < 0:
            raise ValueError("write_retries must be >= 0")
        if self.write_backoff_s < 0:
            raise ValueError("write_backoff_s must be >= 0")
        if self.stale_sample_max_age < 0:
            raise ValueError("stale_sample_max_age must be >= 0")
        if self.degraded_after_ticks < 1:
            raise ValueError("degraded_after_ticks must be >= 1")
        if self.degraded_action not in ("guarantee", "hold"):
            raise ValueError(
                f"degraded_action must be 'guarantee' or 'hold', "
                f"got {self.degraded_action!r}"
            )


@dataclass
class ResilienceStats:
    """Cumulative counters of faults survived by one controller.

    Every event class is a counter so the Prometheus export can graph
    the fault pressure a node is under; ``degraded_vcpu_ticks`` is the
    guarantee-violation exposure the fault-resilience bench bounds.
    """

    #: Whole monitoring passes that returned nothing due to an error.
    monitor_failures: int = 0
    #: Samples served from the carry-forward cache (stale tolerance).
    stale_samples_used: int = 0
    #: Individual ``cpu.max`` write attempts re-issued after a failure.
    write_retries: int = 0
    #: Writes still failing after the retry budget was exhausted.
    write_failures: int = 0
    #: vCPUs that crossed into degraded mode.
    degraded_transitions: int = 0
    #: Degraded vCPUs re-observed and returned to normal control.
    recoveries: int = 0
    #: Total vCPU-ticks spent in degraded mode.
    degraded_vcpu_ticks: int = 0
    #: Ticks from degradation to recovery for the latest recovery.
    last_recovery_ticks: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class DegradedVcpu:
    """Tracking record for one vCPU currently in degraded mode."""

    cgroup_path: str
    vm_name: str
    since_tick: int
    fallback_cycles: float = 0.0


def fallback_caps(
    policy: ResiliencePolicy,
    degraded: Dict[str, DegradedVcpu],
    registered_vms,
    current_caps: Dict[str, float],
    guarantee_of,
    p_us: float,
) -> Dict[str, float]:
    """Safe caps for every degraded vCPU (stage 6 of both engines).

    An unobservable vCPU cannot be estimated, so it is held at a safe
    cap — its Eq. 2 guarantee ``C_i`` (``degraded_action="guarantee"``)
    or the last cap in force (``"hold"``) — instead of silently dropping
    out of enforcement.  Updates each record's ``fallback_cycles`` and
    returns the path -> cycles overrides to merge into the allocation.
    """
    out: Dict[str, float] = {}
    for path, rec in degraded.items():
        if rec.vm_name not in registered_vms:
            continue
        if policy.degraded_action == "hold" and path in current_caps:
            fallback = current_caps[path]
        else:
            fallback = guarantee_of(rec.vm_name)
        rec.fallback_cycles = min(fallback, p_us)
        out[path] = rec.fallback_cycles
        log.debug(
            "degraded fallback cap %.0f cycles (%s)",
            rec.fallback_cycles, policy.degraded_action,
            extra={"path": path, "vm": rec.vm_name},
        )
    return out


#: The array columns of a :class:`SampleBatch`.
_COLUMNS = (
    "vcpu_indices", "tids", "consumed", "cores", "core_freq_mhz", "vfreq_mhz",
)


def _take(batch: SampleBatch, rows: np.ndarray) -> SampleBatch:
    """The given rows of ``batch``, as a new batch."""
    idx = rows.tolist()
    return SampleBatch(
        period_s=batch.period_s,
        paths=[batch.paths[i] for i in idx],
        vm_names=[batch.vm_names[i] for i in idx],
        **{c: getattr(batch, c)[rows] for c in _COLUMNS},
    )


def _concat(first: SampleBatch, rest: SampleBatch) -> SampleBatch:
    """``first``'s rows followed by ``rest``'s, in new columns."""
    return SampleBatch(
        period_s=first.period_s,
        paths=first.paths + rest.paths,
        vm_names=first.vm_names + rest.vm_names,
        **{
            c: np.concatenate((getattr(first, c), getattr(rest, c)))
            for c in _COLUMNS
        },
    )


class StaleSamples:
    """Stale-sample carry-forward and missing-age tracking for stage 1.

    Holds the last sample of every vCPU seen so far as
    :class:`SampleBatch` columns, in first-seen order, and per row the
    consecutive ticks it has gone unobserved.  :meth:`carry` appends
    the last sample of every vCPU missing for at most ``max_age``
    ticks to a fresh batch, in that order.  Ages keep counting beyond
    ``max_age`` (and with ``max_age=0``, which carries nothing): they
    are what sends a vCPU into degraded mode.

    The store writes only into columns it built itself, so a fresh
    batch it adopts as the store may share arrays with the backend.
    """

    def __init__(self, max_age: int) -> None:
        self.max_age = max_age
        self.clear()

    def clear(self) -> None:
        """Forget every vCPU (snapshot restore onto a used instance)."""
        self._seen = SampleBatch.from_samples([], 0.0)
        self._row: Dict[str, int] = {}
        self._age = np.zeros(0, dtype=np.int64)
        #: The pass in which each row last went missing (orders
        #: :meth:`missing_ages`; ties keep row order).
        self._since = np.zeros(0, dtype=np.int64)
        self._passes = 0
        #: Rows carried forward by the latest :meth:`carry`.
        self.last_carried = 0

    def carry(self, batch: SampleBatch) -> SampleBatch:
        """``batch`` plus the carried rows; ages move on by one tick."""
        self.last_carried = 0
        seen = self._seen
        if batch.paths is seen.paths or batch.paths == seen.paths:
            # Every known vCPU observed, no new one: the steady state.
            self._seen = batch
            self._age[:] = 0
            return batch
        row = self._row
        n_old = len(seen)
        at = np.fromiter(
            (row.get(p, -1) for p in batch.paths), dtype=np.intp,
            count=len(batch),
        )
        new = (at < 0).nonzero()[0]
        for k, j in enumerate(new.tolist()):
            row[batch.paths[j]] = n_old + k
        at[new] = np.arange(n_old, n_old + new.size)
        store = _concat(seen, _take(batch, new))
        for c in _COLUMNS:
            getattr(store, c)[at] = getattr(batch, c)
        pad = np.zeros(new.size, dtype=np.int64)
        age = np.concatenate((self._age, pad))
        since = np.concatenate((self._since, pad))
        missing = np.ones(len(store), dtype=bool)
        missing[at] = False
        since[missing & (age == 0)] = self._passes
        self._passes += 1
        age[missing] += 1
        age[at] = 0
        self._seen, self._age, self._since = store, age, since
        carried = (missing & (age <= self.max_age)).nonzero()[0]
        if not carried.size:
            return batch
        self.last_carried = int(carried.size)
        return _concat(batch, _take(store, carried))

    def missing_ages(self) -> Dict[str, int]:
        """Consecutive ticks each known, currently unobserved vCPU has
        gone missing, in the order they went missing."""
        rows = self._age.nonzero()[0]
        rows = rows[np.argsort(self._since[rows], kind="stable")]
        paths = self._seen.paths
        return dict(
            zip([paths[i] for i in rows.tolist()], self._age[rows].tolist())
        )

    def forget(self, path: str) -> None:
        """Drop a destroyed vCPU."""
        row = self._row.pop(path, None)
        if row is None:
            return
        keep = np.delete(np.arange(len(self._seen)), row)
        self._seen = _take(self._seen, keep)
        self._age = self._age[keep]
        self._since = self._since[keep]
        self._row = {p: i for i, p in enumerate(self._seen.paths)}
