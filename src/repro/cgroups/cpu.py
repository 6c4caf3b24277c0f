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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cgroups.columns import (
    DEFAULT_PERIOD_US,
    DEFAULT_WEIGHT,
    UNLIMITED,
    CgroupColumns,
)

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
        """Rate cap expressed in CPU cores (``inf`` when unlimited).

        The scheduler reads the same value for a whole tree at once as
        :meth:`~repro.cgroups.columns.CgroupColumns.ratios`.
        """
        return math.inf if self.unlimited else self.quota_us / self.period_us

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


class CpuController:
    """One cgroup's CPU controller state: a handle on its column row.

    The state lives in the host's :class:`~repro.cgroups.columns.CgroupColumns`
    (the cgroupfs root's table).  A controller built on its own, or
    detached when its cgroup is removed, owns a private one-row table,
    so a handle kept past ``rmdir`` never reads or writes a row a later
    ``mkdir`` reuses.

    ``cpu.stat``'s throttling counters (``nr_periods``,
    ``nr_throttled``, ``throttled_usec``) are always 0: nothing in the
    simulated kernel throttles per period.
    """

    __slots__ = ("_table", "_row")

    def __init__(
        self, table: Optional[CgroupColumns] = None, row: Optional[int] = None
    ) -> None:
        if table is None:
            table = CgroupColumns(capacity=1)
            row = table.alloc()
        self._table = table
        self._row = row

    def detach(self) -> None:
        """Move this state onto a private table and free its row."""
        table, row = self._table, self._row
        own = CgroupColumns(capacity=1)
        own_row = own.alloc()
        for name, _ in CgroupColumns.FIELDS:
            getattr(own, name)[own_row] = getattr(table, name)[row]
        self._table, self._row = own, own_row
        table.release(row)

    @property
    def row(self) -> int:
        """This cgroup's row in :attr:`table`."""
        return self._row

    @property
    def table(self) -> CgroupColumns:
        return self._table

    # -- fields -----------------------------------------------------------------

    @property
    def quota(self) -> QuotaSpec:
        t, r = self._table, self._row
        return QuotaSpec(int(t.quota[r]), int(t.period[r]))

    @quota.setter
    def quota(self, spec: QuotaSpec) -> None:
        t, r = self._table, self._row
        t.quota[r] = spec.quota_us
        t.period[r] = spec.period_us

    @property
    def weight(self) -> int:
        return int(self._table.weight[self._row])

    @weight.setter
    def weight(self, value: int) -> None:
        self._table.weight[self._row] = value

    @property
    def usage_usec(self) -> int:
        return int(self._table.usage[self._row])

    @usage_usec.setter
    def usage_usec(self, value: int) -> None:
        self._table.usage[self._row] = value

    @property
    def user_usec(self) -> int:
        return int(self._table.user[self._row])

    @user_usec.setter
    def user_usec(self, value: int) -> None:
        self._table.user[self._row] = value

    @property
    def system_usec(self) -> int:
        return int(self._table.system[self._row])

    @system_usec.setter
    def system_usec(self, value: int) -> None:
        self._table.system[self._row] = value

    def charge(self, cpu_usec: float, *, system_fraction: float = 0.02) -> None:
        """Account ``cpu_usec`` microseconds of CPU time to this cgroup
        (:meth:`CgroupColumns.charge` on this one row)."""
        self._table.charge(
            np.array([self._row]), np.array([float(cpu_usec)]), system_fraction
        )

    # -- file renderings -------------------------------------------------------

    def stat_v2(self) -> str:
        """Render ``cpu.stat`` (cgroup v2 format)."""
        t, r = self._table, self._row
        return (
            f"usage_usec {t.usage[r]}\n"
            f"user_usec {t.user[r]}\n"
            f"system_usec {t.system[r]}\n"
            "nr_periods 0\n"
            "nr_throttled 0\n"
            "throttled_usec 0\n"
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CpuController(quota={self.quota}, weight={self.weight}, "
            f"usage_usec={self.usage_usec})"
        )


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
