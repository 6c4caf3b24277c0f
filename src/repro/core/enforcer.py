"""Stage 6 — applying vCPU capping (paper §III-B6): the quota rule.

A cycle allocation (µs of CPU per controller period ``p``) becomes a
cgroup bandwidth quota:

* v2 — ``echo "<quota> <period>" > cpu.max``
* v1 — ``echo <quota> > cpu.cfs_quota_us`` (+ period file)

The cgroup enforcement period (default 100 ms) is shorter than the
controller period, so the quota is the allocation scaled by
``enforcement_period / p`` (multiply before divide, banker's rounding).
The kernel rejects quotas below 1 ms; quotas are floored accordingly.

The rule has two forms that agree bit for bit: :func:`quota_us` for one
allocation (the scalar engine, the decision ledger, the enforcement
oracle) and :func:`quota_us_array` for a column of them (the bulk
engine).  The writes themselves go through
:meth:`~repro.core.backend.HostBackend.write_caps`, which skips quotas
already in force, so a converged controller issues zero write syscalls
per tick.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ControllerConfig
from repro.core.units import period_us

#: Kernel minimum cpu.max quota, microseconds.
MIN_QUOTA_US = 1_000


def quota_us(cycles: float, config: ControllerConfig) -> int:
    """Scale one per-period cycle count to the enforcement period."""
    if cycles < 0:
        raise ValueError(f"negative allocation: {cycles}")
    scaled = cycles * config.enforcement_period_us / period_us(config.period_s)
    return max(MIN_QUOTA_US, int(round(scaled)))


def quota_us_array(cycles: np.ndarray, config: ControllerConfig) -> np.ndarray:
    """:func:`quota_us` over a float64 column, as int64."""
    scaled = np.rint(
        cycles * float(config.enforcement_period_us) / period_us(config.period_s)
    )
    np.maximum(scaled, MIN_QUOTA_US, out=scaled)
    return scaled.astype(np.int64)
