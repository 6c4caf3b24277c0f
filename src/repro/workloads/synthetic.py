"""Synthetic demand generators for tests and ablation benches.

These exercise the controller's estimator cases directly: constant
(stable case), step (increase trigger), sine (oscillation the damping
is meant to absorb) and bursty on/off (the Burst-VM motivating shape).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.workloads.base import Workload


class ConstantWorkload(Workload):
    """Fixed demand on every vCPU — the estimator's 'stable' case."""

    def __init__(self, num_vcpus: int, level: float = 1.0, start_time: float = 0.0) -> None:
        super().__init__(num_vcpus, start_time)
        if not 0.0 <= level <= 1.0:
            raise ValueError("level must be in [0, 1]")
        self.level = level

    def demand(self, vcpu: int, t: float) -> float:
        return self.level if self.started(t) else 0.0


class IdleWorkload(ConstantWorkload):
    """A VM that never asks for CPU (credit-accrual scenarios)."""

    def __init__(self, num_vcpus: int) -> None:
        super().__init__(num_vcpus, level=0.0)


class StepWorkload(Workload):
    """Demand jumps between levels at fixed times (increase/decrease triggers)."""

    def __init__(
        self,
        num_vcpus: int,
        *,
        times: Sequence[float],
        levels: Sequence[float],
        start_time: float = 0.0,
    ) -> None:
        super().__init__(num_vcpus, start_time)
        if len(times) + 1 != len(levels):
            raise ValueError("need len(levels) == len(times) + 1")
        if list(times) != sorted(times):
            raise ValueError("times must be sorted")
        if any(not 0.0 <= lv <= 1.0 for lv in levels):
            raise ValueError("levels must be in [0, 1]")
        self.times = list(times)
        self.levels = list(levels)

    def demand(self, vcpu: int, t: float) -> float:
        if not self.started(t):
            return 0.0
        rel = t - self.start_time
        idx = int(np.searchsorted(self.times, rel, side="right"))
        return self.levels[idx]


class SineWorkload(Workload):
    """Sinusoidal demand — stresses the anti-oscillation damping."""

    def __init__(
        self,
        num_vcpus: int,
        *,
        mean: float = 0.5,
        amplitude: float = 0.4,
        period: float = 120.0,
        start_time: float = 0.0,
    ) -> None:
        super().__init__(num_vcpus, start_time)
        if not 0.0 <= mean - amplitude <= mean + amplitude <= 1.0:
            raise ValueError("sine must stay within [0, 1]")
        if period <= 0:
            raise ValueError("period must be positive")
        self.mean = mean
        self.amplitude = amplitude
        self.period = period

    def demand(self, vcpu: int, t: float) -> float:
        if not self.started(t):
            return 0.0
        phase = 2.0 * math.pi * (t - self.start_time) / self.period
        return self.mean + self.amplitude * math.sin(phase)


class BurstyWorkload(Workload):
    """On/off demand with exponential-ish phases (low-traffic website shape).

    Deterministic given the seed; phase lengths are drawn once so demand
    is a pure function of ``t``.
    """

    def __init__(
        self,
        num_vcpus: int,
        *,
        on_level: float = 1.0,
        off_level: float = 0.05,
        mean_on: float = 20.0,
        mean_off: float = 60.0,
        horizon: float = 7200.0,
        start_time: float = 0.0,
        seed: int = 0,
    ) -> None:
        super().__init__(num_vcpus, start_time)
        if not 0.0 <= off_level <= on_level <= 1.0:
            raise ValueError("need 0 <= off_level <= on_level <= 1")
        if mean_on <= 0 or mean_off <= 0 or horizon <= 0:
            raise ValueError("durations must be positive")
        self.on_level = on_level
        self.off_level = off_level
        rng = np.random.default_rng(seed)
        # Precompute alternating off/on phase boundaries across the horizon.
        edges = [0.0]
        on = False  # start off
        while edges[-1] < horizon:
            mean = mean_on if on else mean_off
            edges.append(edges[-1] + float(rng.exponential(mean)))
            on = not on
        self._edges = np.asarray(edges[1:])

    def demand(self, vcpu: int, t: float) -> float:
        if not self.started(t):
            return 0.0
        rel = t - self.start_time
        idx = int(np.searchsorted(self._edges, rel, side="right"))
        on = idx % 2 == 1  # phases alternate off, on, off, ...
        return self.on_level if on else self.off_level
