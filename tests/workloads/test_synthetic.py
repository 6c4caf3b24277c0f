"""Tests for synthetic demand generators."""

import numpy as np
import pytest

from repro.workloads.synthetic import (
    BurstyWorkload,
    ConstantWorkload,
    IdleWorkload,
    SineWorkload,
    StepWorkload,
)
from repro.workloads.base import Workload


def demand_series(workload: Workload, times, vcpu: int = 0) -> np.ndarray:
    """Sample a workload's demand at the given times."""
    return np.asarray([workload.demand(vcpu, float(t)) for t in times])


class TestConstant:
    def test_level(self):
        w = ConstantWorkload(2, level=0.7)
        assert w.demand(0, 100.0) == 0.7

    def test_start_time(self):
        w = ConstantWorkload(2, level=0.7, start_time=10.0)
        assert w.demand(0, 5.0) == 0.0
        assert w.demand(0, 10.0) == 0.7

    def test_idle_is_zero(self):
        assert IdleWorkload(2).demand(0, 50.0) == 0.0

    def test_level_validation(self):
        with pytest.raises(ValueError):
            ConstantWorkload(1, level=1.2)


class TestStep:
    def test_levels_switch_at_times(self):
        w = StepWorkload(1, times=[10.0, 20.0], levels=[0.1, 0.5, 1.0])
        assert w.demand(0, 5.0) == 0.1
        assert w.demand(0, 10.0) == 0.5
        assert w.demand(0, 19.9) == 0.5
        assert w.demand(0, 20.0) == 1.0

    def test_relative_to_start(self):
        w = StepWorkload(1, times=[10.0], levels=[0.2, 0.8], start_time=100.0)
        assert w.demand(0, 105.0) == 0.2
        assert w.demand(0, 115.0) == 0.8

    def test_validation(self):
        with pytest.raises(ValueError):
            StepWorkload(1, times=[1.0], levels=[0.5])
        with pytest.raises(ValueError):
            StepWorkload(1, times=[2.0, 1.0], levels=[0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            StepWorkload(1, times=[1.0], levels=[0.5, 1.5])


class TestSine:
    def test_oscillates_within_bounds(self):
        w = SineWorkload(1, mean=0.5, amplitude=0.4, period=100.0)
        ts = np.linspace(0, 200, 400)
        vals = demand_series(w, ts)
        assert vals.min() >= 0.1 - 1e-9
        assert vals.max() <= 0.9 + 1e-9

    def test_period(self):
        w = SineWorkload(1, mean=0.5, amplitude=0.4, period=100.0)
        assert w.demand(0, 25.0) == pytest.approx(0.9)
        assert w.demand(0, 75.0) == pytest.approx(0.1)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            SineWorkload(1, mean=0.9, amplitude=0.4)


class TestBursty:
    def test_deterministic_given_seed(self):
        a = BurstyWorkload(1, seed=3)
        b = BurstyWorkload(1, seed=3)
        ts = np.linspace(0, 500, 100)
        assert np.array_equal(demand_series(a, ts), demand_series(b, ts))

    def test_two_levels_only(self):
        w = BurstyWorkload(1, on_level=1.0, off_level=0.05, seed=1)
        vals = set(demand_series(w, np.linspace(0, 2000, 500)).tolist())
        assert vals <= {1.0, 0.05}

    def test_alternates(self):
        w = BurstyWorkload(1, seed=2)
        vals = demand_series(w, np.linspace(0, 5000, 2000))
        assert {1.0, 0.05} <= set(np.round(vals, 2).tolist())

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstyWorkload(1, on_level=0.3, off_level=0.5)
        with pytest.raises(ValueError):
            BurstyWorkload(1, mean_on=0.0)
