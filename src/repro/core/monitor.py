"""Stage 1 — monitoring vCPU resource consumption (paper §III-B1).

For every vCPU cgroup under the KVM machine slice:

* reads cumulative CPU usage (``cpu.stat``'s ``usage_usec`` on v2,
  ``cpuacct.usage`` nanoseconds on v1) and diffs against the previous
  iteration to obtain the consumption ``u_{i,j,t}`` in cycles;
* looks up the vCPU's single KVM tid, the core it last ran on in
  ``/proc/<tid>/stat`` (once per iteration — the paper's deliberate
  low-overhead choice), reads that core's ``scaling_cur_freq``, and
  estimates the vCPU's *virtual frequency* as the share of a core
  consumed times the core's frequency.

All kernel-surface traffic goes through a
:class:`~repro.core.backend.HostBackend`, which batches it: the
tid→cgroup map is cached across iterations (invalidated on VM churn)
and per-core frequency reads are deduplicated within a pass — see the
backend module for the §IV-A2 motivation.  ``Monitor`` remains as the
stage-1 facade; constructing it from raw ``CgroupFS``/``ProcFS``/
``CpuFreqSysFS`` handles wraps them in a private backend.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cgroups.fs import CgroupFS
from repro.cgroups.procfs import ProcFS
from repro.cgroups.sysfs import CpuFreqSysFS
from repro.core.backend import DEFAULT_MACHINE_SLICE, HostBackend, VCpuSample

__all__ = ["Monitor", "VCpuSample"]


class Monitor:
    """Reads kernel surfaces through a backend, produces per-vCPU samples."""

    def __init__(
        self,
        fs,
        procfs: Optional[ProcFS] = None,
        sysfs: Optional[CpuFreqSysFS] = None,
        *,
        machine_slice: str = DEFAULT_MACHINE_SLICE,
        period_s: float = 1.0,
        stale_max_age: int = 0,
    ) -> None:
        if isinstance(fs, HostBackend):
            self.backend = fs
        else:
            self.backend = HostBackend(
                fs, procfs, sysfs, machine_slice=machine_slice
            )
        self.period_s = period_s
        #: Ticks a known vCPU may miss a scan and still be served from
        #: the carry-forward cache (0 = off, the seed behaviour).
        self.stale_max_age = stale_max_age
        self._last_seen: Dict[str, VCpuSample] = {}
        self._missing_age: Dict[str, int] = {}
        #: Samples served stale in the latest pass / cumulatively.
        self.last_carried = 0
        self.stale_carried = 0

    # Legacy attribute views (the raw handles now live on the backend).

    @property
    def fs(self) -> CgroupFS:
        return self.backend.fs

    @property
    def procfs(self) -> Optional[ProcFS]:
        return self.backend.procfs

    @property
    def sysfs(self) -> Optional[CpuFreqSysFS]:
        return self.backend.sysfs

    @property
    def machine_slice(self) -> str:
        return self.backend.machine_slice

    @property
    def _prev_usage(self) -> Dict[str, float]:
        # Live view for snapshot/restore.
        return self.backend._prev_usage

    def sample(self) -> List[VCpuSample]:
        """One monitoring pass over all hosted vCPUs.

        VM teardown races with the walk on a real host; such vCPUs are
        silently skipped, exactly as a production monitor must (see
        :meth:`HostBackend.read_vcpu_samples`).

        With ``stale_max_age > 0`` a vCPU that was observed before but
        is missing from this pass (transient read error, tid churn) is
        *carried forward*: its last sample is appended again, for up to
        ``stale_max_age`` consecutive ticks.  Beyond that age the vCPU
        goes unreported and :meth:`missing_ages` keeps counting — the
        controller's degraded-mode policy takes over from there.
        """
        fresh = self.backend.read_vcpu_samples(self.period_s)
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
                self.stale_carried += 1
        for s in fresh:
            self._last_seen[s.cgroup_path] = s
        return out

    def missing_ages(self) -> Dict[str, int]:
        """Consecutive ticks each known vCPU has gone unobserved.

        Only meaningful with ``stale_max_age > 0``; paths currently
        observed are absent (age 0).
        """
        return dict(self._missing_age)

    def forget(self, vcpu_path: str) -> None:
        """Drop state for a destroyed vCPU cgroup."""
        self.backend.forget_usage(vcpu_path)
        self._last_seen.pop(vcpu_path, None)
        self._missing_age.pop(vcpu_path, None)

    def reset(self) -> None:
        """Clear all monitoring state (snapshot restore onto a used
        instance); the backend usage baselines are cleared too."""
        self.backend._prev_usage.clear()
        self.backend.invalidate()
        self._last_seen.clear()
        self._missing_age.clear()
        self.last_carried = 0
