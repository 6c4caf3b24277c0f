"""CPU controller state for a cgroup: bandwidth quota and usage accounting.

Mirrors the kernel's CFS bandwidth controller interface:

* cgroup v2 — ``cpu.max`` holds ``"<quota> <period>"`` where quota is a
  number of microseconds per period or the literal ``max``; ``cpu.stat``
  reports ``usage_usec`` (and throttling counters); ``cpu.weight`` is the
  proportional share (default 100).
* cgroup v1 — ``cpu.cfs_quota_us`` (``-1`` means unlimited),
  ``cpu.cfs_period_us``, ``cpuacct.usage`` (nanoseconds) and
  ``cpu.shares`` (default 1024).

One *cycle* in the paper's terminology is one microsecond of CPU time
within the controller period (paper §III-A), so ``usage_usec`` is exactly
the cumulative cycle counter the controller diffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Sentinel quota meaning "no bandwidth limit" (``max`` in v2, ``-1`` in v1).
UNLIMITED: int = -1

#: Kernel default bandwidth period, microseconds.
DEFAULT_PERIOD_US: int = 100_000

#: cgroup v2 default weight.
DEFAULT_WEIGHT: int = 100

#: cgroup v1 default shares.
DEFAULT_SHARES: int = 1024


@dataclass(frozen=True)
class QuotaSpec:
    """A parsed bandwidth limit: ``quota_us`` per ``period_us``.

    ``quota_us == UNLIMITED`` disables the cap.  The effective rate cap in
    "cores" is :meth:`ratio` (may exceed 1.0 for multi-threaded groups).
    """

    quota_us: int = UNLIMITED
    period_us: int = DEFAULT_PERIOD_US

    def __post_init__(self) -> None:
        if self.period_us <= 0:
            raise ValueError(f"period_us must be positive, got {self.period_us}")
        if self.quota_us != UNLIMITED and self.quota_us < 0:
            raise ValueError(f"quota_us must be >= 0 or UNLIMITED, got {self.quota_us}")

    @property
    def unlimited(self) -> bool:
        return self.quota_us == UNLIMITED

    def ratio(self) -> float:
        """Rate cap expressed in CPU cores (``inf`` when unlimited)."""
        # The scheduler reads this for every cgroup every tick, so it
        # skips the ``unlimited`` property.  It is not cached at
        # construction: the controller rewrites about a third of the
        # vCPU caps each period, so specs are built a third to a half
        # as often as they are read, and caching cost more than it saved.
        quota = self.quota_us
        return math.inf if quota == UNLIMITED else quota / self.period_us

    # -- v2 ``cpu.max`` format ------------------------------------------------

    def to_v2(self) -> str:
        quota = "max" if self.unlimited else str(self.quota_us)
        return f"{quota} {self.period_us}\n"

    @classmethod
    def from_v2(cls, text: str) -> "QuotaSpec":
        parts = text.split()
        if not parts or len(parts) > 2:
            raise ValueError(f"malformed cpu.max content: {text!r}")
        quota = UNLIMITED if parts[0] == "max" else int(parts[0])
        period = int(parts[1]) if len(parts) == 2 else DEFAULT_PERIOD_US
        return cls(quota_us=quota, period_us=period)

    # -- v1 split files -------------------------------------------------------

    def to_v1_quota(self) -> str:
        return f"{self.quota_us}\n"

    def to_v1_period(self) -> str:
        return f"{self.period_us}\n"


@dataclass
class CpuController:
    """Mutable per-cgroup CPU controller state."""

    quota: QuotaSpec = field(default_factory=QuotaSpec)
    weight: int = DEFAULT_WEIGHT
    usage_usec: int = 0
    user_usec: int = 0
    system_usec: int = 0
    nr_periods: int = 0
    nr_throttled: int = 0
    throttled_usec: int = 0

    def charge(self, cpu_usec: float, *, system_fraction: float = 0.02) -> None:
        """Account ``cpu_usec`` microseconds of CPU time to this cgroup.

        The kernel splits usage into user and system time; the exact split
        is irrelevant to the controller (it reads ``usage_usec``), so a
        fixed small system fraction is used.
        """
        if cpu_usec < 0:
            raise ValueError(f"cannot charge negative CPU time: {cpu_usec}")
        usec = int(round(cpu_usec))
        self.usage_usec += usec
        sys_part = int(round(usec * system_fraction))
        self.system_usec += sys_part
        self.user_usec += usec - sys_part

    def note_period(self, *, throttled: bool, throttled_usec: float = 0.0) -> None:
        """Record one elapsed enforcement period for throttle statistics."""
        self.nr_periods += 1
        if throttled:
            self.nr_throttled += 1
            self.throttled_usec += int(round(throttled_usec))

    # -- file renderings -------------------------------------------------------

    def stat_v2(self) -> str:
        """Render ``cpu.stat`` (cgroup v2 format)."""
        return (
            f"usage_usec {self.usage_usec}\n"
            f"user_usec {self.user_usec}\n"
            f"system_usec {self.system_usec}\n"
            f"nr_periods {self.nr_periods}\n"
            f"nr_throttled {self.nr_throttled}\n"
            f"throttled_usec {self.throttled_usec}\n"
        )

    def usage_v1(self) -> str:
        """Render ``cpuacct.usage`` (cgroup v1, nanoseconds)."""
        return f"{self.usage_usec * 1000}\n"

    def shares_v1(self) -> str:
        """Render ``cpu.shares`` scaled from the v2 weight.

        The kernel maps weight 100 <-> shares 1024; we keep the same
        proportionality so both hierarchies agree.
        """
        return f"{max(2, round(self.weight * DEFAULT_SHARES / DEFAULT_WEIGHT))}\n"


def parse_cpu_stat(text: str) -> dict:
    """Parse a v2 ``cpu.stat`` file into a dict of integer fields.

    This is the exact parsing a userspace controller performs.
    Unknown keys are preserved (the kernel adds fields over time).
    """
    out: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition(" ")
        if not value:
            raise ValueError(f"malformed cpu.stat line: {line!r}")
        out[key] = int(value)
    return out
