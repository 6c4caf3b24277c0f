"""Per-sample stale carry-forward, as a test reference.

:class:`ReferenceMonitor` is the controller's former list-based stage-1
carry-forward, one :class:`~repro.core.backend.VCpuSample` at a time:
a dict of every vCPU's last sample in first-seen order and a dict of
missing ages in the order the vCPUs went missing.  The controller now
runs :class:`~repro.core.resilience.StaleSamples` over batch columns;
``test_stale_samples.py`` checks the two against each other.

As before, ``stale_max_age=0`` tracks nothing at all (so it never
reports a missing vCPU); the columnar tracker still counts ages then.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.backend import VCpuSample


class ReferenceMonitor:
    """Carry-forward over one fresh list of samples per tick."""

    def __init__(self, stale_max_age: int) -> None:
        self.stale_max_age = stale_max_age
        self._last_seen: Dict[str, VCpuSample] = {}
        self._missing_age: Dict[str, int] = {}
        self.last_carried = 0

    def sample(self, fresh: List[VCpuSample]) -> List[VCpuSample]:
        """``fresh`` plus the carried samples, in first-seen order."""
        if self.stale_max_age <= 0:
            return fresh
        out = list(fresh)
        seen = {s.cgroup_path for s in fresh}
        self.last_carried = 0
        for path in list(self._last_seen):
            if path in seen:
                self._missing_age.pop(path, None)
                continue
            age = self._missing_age.get(path, 0) + 1
            self._missing_age[path] = age
            if age <= self.stale_max_age:
                out.append(self._last_seen[path])
                self.last_carried += 1
        for s in fresh:
            self._last_seen[s.cgroup_path] = s
        return out

    def missing_ages(self) -> Dict[str, int]:
        return dict(self._missing_age)

    def forget(self, vcpu_path: str) -> None:
        self._last_seen.pop(vcpu_path, None)
        self._missing_age.pop(vcpu_path, None)
