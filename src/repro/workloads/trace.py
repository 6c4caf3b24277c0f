"""Demand-trace replay.

Replays a per-vCPU demand array sampled over time as a workload — the
mechanism for trace-driven experiments and regression fixtures.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.workloads.base import Workload


class TraceWorkload(Workload):
    """Replays a recorded demand trace (zero-order hold between samples)."""

    def __init__(
        self,
        num_vcpus: int,
        *,
        times: Sequence[float],
        demands: np.ndarray,
        start_time: float = 0.0,
        loop: bool = False,
    ) -> None:
        super().__init__(num_vcpus, start_time)
        self._times = np.asarray(times, dtype=np.float64)
        self._demands = np.asarray(demands, dtype=np.float64)
        if self._times.ndim != 1 or len(self._times) == 0:
            raise ValueError("times must be a non-empty 1-D sequence")
        if self._demands.shape != (len(self._times), num_vcpus):
            raise ValueError(
                f"demands must have shape ({len(self._times)}, {num_vcpus}), "
                f"got {self._demands.shape}"
            )
        if np.any(np.diff(self._times) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(self._demands < 0) or np.any(self._demands > 1):
            raise ValueError("trace demands must be within [0, 1]")
        self.loop = loop

    @property
    def trace_duration(self) -> float:
        return float(self._times[-1] - self._times[0])

    def demand(self, vcpu: int, t: float) -> float:
        if not 0 <= vcpu < self.num_vcpus:
            raise IndexError(f"vcpu index out of range: {vcpu}")
        if not self.started(t):
            return 0.0
        rel = t - self.start_time + self._times[0]
        if self.loop and self.trace_duration > 0:
            rel = self._times[0] + (rel - self._times[0]) % self.trace_duration
        if rel >= self._times[-1]:
            return float(self._demands[-1, vcpu]) if not self.loop else float(self._demands[0, vcpu])
        idx = int(np.searchsorted(self._times, rel, side="right")) - 1
        idx = max(idx, 0)
        return float(self._demands[idx, vcpu])
