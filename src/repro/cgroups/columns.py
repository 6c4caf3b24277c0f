"""Column tables for the kernel CPU state one host keeps per tick.

The scheduler charges every cgroup, the node accounts every thread and
the controller reads usage and writes quotas every control period.
Kept as one Python object per cgroup or thread, each of those is one
call per row; kept here, each is one array operation over cached row
indices.  A host has two tables:

* :class:`CgroupColumns`, owned by the cgroupfs root — per cgroup the
  bandwidth quota and period, the weight and the ``usage_usec`` /
  ``user_usec`` / ``system_usec`` counters;
* :class:`ThreadColumns`, owned by ``/proc`` — per thread the utime
  ticks and the core it last ran on.

A row is allocated when its cgroup or thread is created and released
when it goes.  Released rows are reused, so a cached row index is only
valid while the structure it came from is unchanged: the cgroup tree's
``generation`` and :attr:`repro.cgroups.procfs.ProcFS.generation` are
bumped on every create and remove, and every cache of row indices is
keyed on them.  Object handles never see a reused row: a removed
cgroup's :class:`~repro.cgroups.cpu.CpuController` is detached onto a
private one-row table first.

The charge and account rules live here, once, as array operations;
the one-row methods of the handles call them.  ``np.rint`` rounds half
to even, as ``int(round(x))`` does, and every product is the same
IEEE double operation, so the counters are bit-identical to a per-row
Python loop.
"""

from __future__ import annotations

from typing import ClassVar, List, Tuple

import numpy as np

#: Sentinel quota meaning "no bandwidth limit" (``max`` in v2, ``-1`` in v1).
UNLIMITED: int = -1

#: Kernel default bandwidth period, microseconds.
DEFAULT_PERIOD_US: int = 100_000

#: cgroup v2 default weight.
DEFAULT_WEIGHT: int = 100

#: Kernel USER_HZ: CPU time in /proc is reported in 10 ms ticks.
USER_HZ: int = 100


class Columns:
    """Growable int64 columns with O(1) amortised row allocation.

    Subclasses name their columns and defaults in :attr:`FIELDS`.  The
    column arrays are replaced when the table grows, so callers read
    them through the table each time rather than holding on to one.
    """

    FIELDS: ClassVar[Tuple[Tuple[str, int], ...]] = ()

    def __init__(self, capacity: int = 64) -> None:
        capacity = max(1, capacity)
        for name, default in self.FIELDS:
            setattr(self, name, np.full(capacity, default, dtype=np.int64))
        self._capacity = capacity
        self._free: List[int] = list(range(capacity - 1, -1, -1))

    def __len__(self) -> int:
        """Rows in use."""
        return self._capacity - len(self._free)

    def alloc(self) -> int:
        """A row holding every column's default (the table grows if full)."""
        if not self._free:
            self._grow()
        return self._free.pop()

    def release(self, row: int) -> None:
        """Reset ``row`` to the defaults and return it for reuse by a
        later :meth:`alloc` (free rows always hold the defaults)."""
        for name, default in self.FIELDS:
            getattr(self, name)[row] = default
        self._free.append(row)

    def _grow(self) -> None:
        old = self._capacity
        new = old * 2
        for name, default in self.FIELDS:
            grown = np.full(new, default, dtype=np.int64)
            grown[:old] = getattr(self, name)
            setattr(self, name, grown)
        self._capacity = new
        self._free.extend(range(new - 1, old - 1, -1))


class CgroupColumns(Columns):
    """Per-cgroup CPU controller state (see :mod:`repro.cgroups.cpu`)."""

    FIELDS = (
        ("quota", UNLIMITED),
        ("period", DEFAULT_PERIOD_US),
        ("weight", DEFAULT_WEIGHT),
        ("usage", 0),
        ("user", 0),
        ("system", 0),
    )

    def charge(
        self, rows: np.ndarray, cpu_usec: np.ndarray, system_fraction: float = 0.02
    ) -> None:
        """Account ``cpu_usec[i]`` µs of CPU time to cgroup ``rows[i]``.

        Usage is rounded to whole µs and split into user and system
        time with a fixed small system fraction (the controller reads
        only ``usage_usec``).  ``rows`` must not repeat.
        """
        if cpu_usec.size and cpu_usec.min() < 0:
            raise ValueError(f"cannot charge negative CPU time: {cpu_usec.min()}")
        usec = np.rint(cpu_usec)
        sys_part = np.rint(usec * system_fraction)
        self.usage[rows] += usec.astype(np.int64)
        self.system[rows] += sys_part.astype(np.int64)
        self.user[rows] += (usec - sys_part).astype(np.int64)

    def ratios(self, rows: np.ndarray) -> List[float]:
        """Each row's rate cap in cores (``inf`` when unlimited)."""
        quota = self.quota[rows]
        ratio = quota / self.period[rows]
        ratio[quota == UNLIMITED] = np.inf
        return ratio.tolist()


class ThreadColumns(Columns):
    """Per-thread ``/proc/<tid>/stat`` counters (see :mod:`repro.cgroups.procfs`)."""

    FIELDS = (("utime", 0), ("processor", 0))

    def account(
        self, rows: np.ndarray, cpu_seconds: np.ndarray, processors: np.ndarray
    ) -> None:
        """Record one tick per thread: CPU time and the core it last ran on.

        ``cpu_seconds[i]`` is added to thread ``rows[i]``'s utime in
        USER_HZ ticks and ``processors[i]`` becomes its field 39.
        ``rows`` must not repeat.
        """
        if cpu_seconds.size and cpu_seconds.min() < 0:
            raise ValueError("negative CPU time")
        self.utime[rows] += np.rint(cpu_seconds * USER_HZ).astype(np.int64)
        self.processor[rows] = processors
