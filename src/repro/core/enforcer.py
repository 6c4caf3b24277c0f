"""Stage 6 — applying vCPU capping (paper §III-B6).

Translates a cycle allocation (µs of CPU per controller period ``p``)
into a cgroup bandwidth quota and writes it:

* v2 — ``echo "<quota> <period>" > cpu.max``
* v1 — ``echo <quota> > cpu.cfs_quota_us`` (+ period file)

The cgroup enforcement period (default 100 ms) is shorter than the
controller period, so the quota is the allocation scaled by
``enforcement_period / p``.  The kernel rejects quotas below 1 ms; the
enforcer floors writes accordingly.

The actual writes go through a :class:`~repro.core.backend.HostBackend`,
which coalesces them: a quota already in force is not rewritten, so a
converged controller issues zero write syscalls per tick.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.cgroups.fs import CgroupFS
from repro.core.backend import HostBackend
from repro.core.config import ControllerConfig
from repro.core.units import period_us

#: Kernel minimum cpu.max quota, microseconds.
MIN_QUOTA_US = 1_000


class Enforcer:
    """Writes cycle allocations as cgroup quotas through the backend."""

    def __init__(self, fs, config: ControllerConfig) -> None:
        if isinstance(fs, HostBackend):
            self.backend = fs
        else:
            self.backend = HostBackend(fs)
        self.config = config

    @property
    def fs(self) -> CgroupFS:
        return self.backend.fs

    def apply(self, allocations: Mapping[str, float]) -> Dict[str, int]:
        """Write every vCPU's allocation; returns quotas in force (µs).

        A vCPU cgroup may vanish between stages of the same iteration
        (VM teardown races the loop on a real host); such paths are
        skipped silently, like a production controller must.  Writes
        are batched through :meth:`HostBackend.write_caps`, which skips
        values already in place.
        """
        quotas: List[int] = []
        for path, cycles in allocations.items():
            if cycles < 0:
                raise ValueError(f"negative allocation for {path}: {cycles}")
            quotas.append(self.quota_us(cycles))
        return self.backend.write_caps(
            list(allocations), quotas, self.config.enforcement_period_us
        )

    def uncap(self, vcpu_path: str) -> None:
        """Remove the bandwidth limit (configuration A / teardown)."""
        self.backend.uncap(vcpu_path, self.config.enforcement_period_us)

    def quota_us(self, cycles: float) -> int:
        """Scale a per-period cycle count to the enforcement period."""
        p_us = period_us(self.config.period_s)
        scaled = cycles * self.config.enforcement_period_us / p_us
        return max(MIN_QUOTA_US, int(round(scaled)))
